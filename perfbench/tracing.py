"""Per-layer tracing of heyde_lab from outside the package.

``Tracer.install()`` replaces every traced function wherever a heyde_lab
module holds it (a module global, or a value of a module-level dict such as
``verify.SUITES``) and every traced method on its class; ``uninstall()``
puts the originals back.  A wrapper records a span: its self time is its
duration minus the time of the spans it encloses, and its calls are the
entries not nested in a span of the same name.  ``GroupElement`` arithmetic
is only counted, since timing it would cost more than the operation.
Nothing in heyde_lab waits on a queue, a lock or another thread, so no
layer reports wait time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from workloads import VERIFY_SUITES

#: (module, function, span): module-level functions and the span they record.
FUNCTIONS = (
    ("distributions", "char_values_list", "distributions.char_values"),
    ("predicates", "is_conditionally_symmetric", "predicates.exact_symmetry"),
    ("predicates", "conditional_symmetry_witness", "predicates.exact_symmetry"),
    ("predicates", "are_forms_independent", "predicates.exact_symmetry"),
    ("predicates", "joint_of_forms", "predicates.exact_symmetry"),
    ("predicates", "heyde_equation_check", "predicates.heyde_check"),
    ("predicates", "independence_equation_check", "predicates.independence_check"),
    ("predicates", "canonicalize", "predicates.canonicalize"),
    ("funceq", "neg_log_char", "funceq.neg_log_char"),
    ("funceq", "max_chain_residual", "funceq.chain_residual"),
    ("funceq", "max_m_forms_residual", "funceq.chain_residual"),
    ("funceq", "quadratic_candidate", "funceq.quadratic"),
    ("funceq", "quadratic_check", "funceq.quadratic"),
    ("funceq", "max_third_difference", "funceq.quadratic"),
    ("funceq", "quadratic_vanishing", "funceq.quadratic"),
    ("search", "grid_scan", "search.grid_scan"),
    ("search", "all_subgroups", "search.all_subgroups"),
    ("search", "random_distribution", "search.random_distribution"),
    ("search", "classify_distribution", "search.classify"),
    ("serialization", "group_from_json", "serialization.decode"),
    ("serialization", "endomorphism_from_json", "serialization.decode"),
    ("serialization", "distribution_from_json", "serialization.decode"),
    ("serialization", "instance_from_json", "serialization.decode"),
    ("serialization", "group_to_json", "serialization.encode"),
    ("serialization", "endomorphism_to_json", "serialization.encode"),
    ("serialization", "distribution_to_json", "serialization.encode"),
    ("cli", "run", "cli"),
)

#: (module, class, method, span)
METHODS = (
    ("groups", "Endomorphism", "__init__", "groups.endomorphism_build"),
    ("groups", "Endomorphism", "kernel", "groups.kernel"),
    ("groups", "Subgroup", "__init__", "groups.subgroup_build"),
    ("distributions", "Distribution", "__post_init__", "distributions.distribution_build"),
)

#: GroupElement operators counted into groups.element_ops: +, -, unary -, n*x
ELEMENT_OPS = ("__add__", "__sub__", "__neg__", "__rmul__")

_ALL = ("scan", "check", "verify")
_FOURIER = ("check", "verify")
_SCANS = ("scan", "verify")

#: Workloads on which each traced name must record at least one call.  A zero
#: there means some reference to the original was left unwrapped.  n*x on
#: elements is counted but no workload calls it.
COVERAGE = {
    "groups.GroupElement.__add__": _ALL,
    "groups.GroupElement.__sub__": _ALL,
    "groups.GroupElement.__neg__": _ALL,
    "groups.Endomorphism.__init__": _ALL,
    "groups.Endomorphism.kernel": _ALL,
    "groups.Subgroup.__init__": _ALL,
    "distributions.Distribution.__post_init__": _ALL,
    "distributions.char_values_list": _FOURIER,
    "predicates.is_conditionally_symmetric": _SCANS,
    "predicates.conditional_symmetry_witness": _ALL,
    "predicates.are_forms_independent": _FOURIER,
    "predicates.joint_of_forms": _ALL,
    "predicates.heyde_equation_check": _FOURIER,
    "predicates.independence_equation_check": _FOURIER,
    "predicates.canonicalize": ("verify",),
    "funceq.neg_log_char": ("verify",),
    "funceq.max_chain_residual": ("verify",),
    "funceq.max_m_forms_residual": ("verify",),
    "funceq.quadratic_candidate": ("verify",),
    "funceq.quadratic_check": ("verify",),
    "funceq.max_third_difference": ("verify",),
    "funceq.quadratic_vanishing": ("verify",),
    "search.grid_scan": _SCANS,
    "search.all_subgroups": _SCANS,
    "search.random_distribution": _SCANS,
    "search.classify_distribution": _ALL,
    "serialization.group_from_json": ("scan", "check"),
    "serialization.endomorphism_from_json": ("scan", "check"),
    "serialization.distribution_from_json": ("check",),
    "serialization.instance_from_json": ("check",),
    "serialization.group_to_json": _SCANS,
    "serialization.endomorphism_to_json": _ALL,
    "serialization.distribution_to_json": ("scan",),
    "cli.run": _ALL,
    **{f"verify.suite.{suite}": ("verify",) for suite in VERIFY_SUITES},
}


#: Counts taken after a successful call: traced name -> (count, amount).
AFTER = {
    "predicates.joint_of_forms": (
        "predicates.joint_pairs",
        lambda args, result: len(args[0].mu1.probs) * len(args[0].mu2.probs),
    ),
    "groups.Subgroup.__init__": (
        "groups.subgroup_closure_checks",
        lambda args, result: len(args[0].elements) ** 2,
    ),
    "search.all_subgroups": ("search.subgroups_found", lambda args, result: len(result)),
}


class Tracer:
    """Spans and counts of one traced run; install, run, uninstall."""

    def __init__(self):
        self.calls = Counter()  # traced name -> every call
        self.counts = Counter()  # span + ".calls" and AFTER counts
        self.spans: set[str] = set()
        self.self_s = Counter()  # span -> self seconds
        self.inclusive_s = Counter()  # span -> seconds of its outermost entries
        self._stack: list[list[float]] = []  # per open span: child seconds
        self._depth = Counter()
        self._undo: list[tuple] = []

    def _span(self, fn, name, span):
        calls, counts, self_s, inclusive_s = (
            self.calls, self.counts, self.self_s, self.inclusive_s
        )
        stack, depth, clock, after = self._stack, self._depth, time.perf_counter, AFTER.get(name)
        self.spans.add(span)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            outer = depth[span] == 0
            if outer:
                counts[span + ".calls"] += 1
            depth[span] += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[span] -= 1
                self_s[span] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                if outer:
                    inclusive_s[span] += elapsed
            if after is not None:
                counts[after[0]] += after[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _assign(owner, key, value):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _set(self, owner, key, value):
        original = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        self._undo.append((owner, key, original))
        self._assign(owner, key, value)

    def install(self) -> None:
        package = sys.modules["heyde_lab"]
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "heyde_lab" or n.startswith("heyde_lab.")
        ]
        replace = {}
        for module, name, span in FUNCTIONS:
            fn = getattr(getattr(package, module), name)
            replace[id(fn)] = self._span(fn, f"{module}.{name}", span)
        for key, fn in package.verify.SUITES.items():
            replace[id(fn)] = self._span(fn, f"verify.suite.{key}", f"verify.suite.{key}")
        # ids, not the objects, key the lookup: module globals may be unhashable
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in replace:
                    self._set(module, key, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            self._set(value, k, replace[id(v)])
        for module, cls_name, attr, span in METHODS:
            cls = getattr(getattr(package, module), cls_name)
            self._set(cls, attr, self._span(vars(cls)[attr], f"{module}.{cls_name}.{attr}", span))
        element = package.groups.GroupElement
        for attr in ELEMENT_OPS:
            self._set(element, attr, self._counter(vars(element)[attr], f"groups.GroupElement.{attr}"))

    def uninstall(self) -> None:
        while self._undo:
            self._assign(*self._undo.pop())

    def missing(self, workload: str) -> list[str]:
        """Traced names that recorded no call on a workload they cover."""
        return sorted(
            name for name, workloads in COVERAGE.items()
            if workload in workloads and not self.calls[name]
        )

    def metrics(self) -> dict:
        """Counts and times under their benchmark names; zero when unused."""
        out = {}
        for span in self.spans:
            out[f"{span}.self_s"] = self.self_s[span]
            out[f"{span}.s"] = self.inclusive_s[span]
            out[f"{span}.calls"] = self.counts[span + ".calls"]
        for name, _ in AFTER.values():
            out[name] = self.counts[name]
        out["groups.element_ops"] = sum(
            self.calls[f"groups.GroupElement.{attr}"] for attr in ELEMENT_OPS
        )
        for build in ("groups.endomorphism", "groups.subgroup", "distributions.distribution"):
            out[f"{build}_builds"] = self.counts[f"{build}_build.calls"]
        return out

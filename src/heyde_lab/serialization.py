"""JSON wire formats for groups, endomorphisms, distributions and
instances.

Formats:
    group          {"cyclic_orders": [9, 3]}
    endomorphism   {"matrix": [[5, 0], [0, 2]]}
    distribution   {"probs": {"0,3": "1/6", "1,0": "5/6"}}
    instance       {"group": ..., "alpha": ..., "mu1": ..., "mu2": ...}
                   or general-forms {"group": ..., "alpha1": ..., "alpha2": ...,
                   "beta1": ..., "beta2": ..., "mu1": ..., "mu2": ...}

Cyclic orders and matrix entries are JSON integers (not booleans, floats
or strings).  Distribution keys are comma-joined coordinates ``str(c)``,
0 <= c < n_j; values are exact fraction strings.  Bad input raises SchemaError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Mapping

from .distributions import Distribution
from .groups import Endomorphism, FiniteAbelianGroup, GroupElement, make_group
from .predicates import FormsInstance, canonical_instance


class SchemaError(ValueError):
    """Input JSON does not match the wire format."""


def _require(obj: Mapping[str, Any], key: str, context: str) -> Any:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{context}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{context}: missing key {key!r}")
    return obj[key]


def _require_integers(values: Any, context: str) -> None:
    """SchemaError unless values is a list of JSON integers (no booleans)."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise SchemaError(f"{context}: expected a list of integers, got {values!r}")


def group_to_json(group: FiniteAbelianGroup) -> dict:
    return {"cyclic_orders": list(group.cyclic_orders)}


def group_from_json(obj: Any) -> FiniteAbelianGroup:
    orders = _require(obj, "cyclic_orders", "group")
    if not isinstance(orders, list) or not orders:
        raise SchemaError("group: cyclic_orders must be a non-empty list")
    _require_integers(orders, "group: cyclic_orders")
    try:
        return make_group(orders)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"group: {exc}") from exc


def endomorphism_to_json(endo: Endomorphism) -> dict:
    return {"matrix": [list(row) for row in endo.matrix]}


def endomorphism_from_json(group: FiniteAbelianGroup, obj: Any) -> Endomorphism:
    matrix = _require(obj, "matrix", "endomorphism")
    if not isinstance(matrix, list):
        raise SchemaError("endomorphism: matrix must be a list of rows")
    for row in matrix:
        _require_integers(row, "endomorphism: matrix row")
    try:
        return group.endomorphism(matrix)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"endomorphism: {exc}") from exc


def element_key(x: GroupElement) -> str:
    return ",".join(map(str, x.coords))


def element_from_key(group: FiniteAbelianGroup, key: str) -> GroupElement:
    parts = str(key).split(",")
    if len(parts) != group.rank or not all(
        re.fullmatch("0|[1-9][0-9]*", part) and len(part) <= len(str(n)) and int(part) < n
        for part, n in zip(parts, group.cyclic_orders)
    ):
        raise SchemaError(f"bad element key {key!r}: expected {group.rank} str(c), 0 <= c < n_j")
    return group.element(map(int, parts))


def fraction_from_str(s: Any) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed fraction {s!r}: {exc}") from exc


def distribution_to_json(mu: Distribution) -> dict:
    """Each mass w / d in lowest terms, from the indices and numerators."""
    d, elements = mu.denominator, mu.group.elements
    return {"probs": {
        ",".join(map(str, elements[i].coords)): f"{w // (g := math.gcd(w, d))}/{d // g}"
        for i, w in zip(mu.indices, mu.numerators)
    }}


def distribution_from_json(group: FiniteAbelianGroup, obj: Any) -> Distribution:
    probs = _require(obj, "probs", "distribution")
    if not isinstance(probs, Mapping):
        raise SchemaError("distribution: probs must be an object")
    parsed: dict[GroupElement, Fraction] = {}
    for key, value in probs.items():
        x = element_from_key(group, key)
        if x in parsed:
            raise SchemaError(f"distribution: duplicate key for element {x}")
        parsed[x] = fraction_from_str(value)
    try:
        return Distribution(group, parsed)
    except ValueError as exc:
        raise SchemaError(f"distribution: {exc}") from exc


def instance_to_json(inst: FormsInstance) -> dict:
    out = {
        "group": group_to_json(inst.group),
        "mu1": distribution_to_json(inst.mu1),
        "mu2": distribution_to_json(inst.mu2),
    }
    if inst.is_canonical:
        out["alpha"] = endomorphism_to_json(inst.beta2)
    else:
        out["alpha1"] = endomorphism_to_json(inst.alpha1)
        out["alpha2"] = endomorphism_to_json(inst.alpha2)
        out["beta1"] = endomorphism_to_json(inst.beta1)
        out["beta2"] = endomorphism_to_json(inst.beta2)
    return out


def instance_from_json(obj: Any) -> FormsInstance:
    group = group_from_json(_require(obj, "group", "instance"))
    mu1 = distribution_from_json(group, _require(obj, "mu1", "instance"))
    mu2 = distribution_from_json(group, _require(obj, "mu2", "instance"))
    if "alpha" in obj:
        alpha = endomorphism_from_json(group, obj["alpha"])
        return canonical_instance(group, alpha, mu1, mu2)
    coeffs = []
    for name in ("alpha1", "alpha2", "beta1", "beta2"):
        coeffs.append(endomorphism_from_json(group, _require(obj, name, "instance")))
    try:
        return FormsInstance(group, *coeffs, mu1, mu2)
    except ValueError as exc:
        raise SchemaError(f"instance: {exc}") from exc

import dataclasses
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from heyde_lab import search, verify
from heyde_lab.cli import _hit_lines, build_manifest, run
from heyde_lab.distributions import Distribution, make_distribution, uniform
from heyde_lab.groups import make_endomorphism, make_group, scaling_endomorphism
from heyde_lab.predicates import FormsInstance, canonical_instance
from heyde_lab.serialization import (
    SchemaError,
    distribution_from_json,
    distribution_to_json,
    endomorphism_from_json,
    endomorphism_to_json,
    fraction_from_str,
    group_from_json,
    group_to_json,
    instance_from_json,
    instance_to_json,
)


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("HEYDE_LAB_TIMESTAMP", "2026-08-09T00:00:00+00:00")


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


KERNEL_INSTANCE = {
    "group": {"cyclic_orders": [9]},
    "alpha": {"matrix": [[5]]},
    "mu1": {"probs": {"3": "1/2", "6": "1/2"}},
    "mu2": {"probs": {"3": "1/2", "6": "1/2"}},
}


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------


def test_group_round_trip():
    group = make_group([9, 3])
    assert group_from_json(group_to_json(group)) == group
    with pytest.raises(SchemaError):
        group_from_json({"cyclic_orders": []})
    with pytest.raises(SchemaError):
        group_from_json({"orders": [5]})


def test_endomorphism_round_trip():
    group = make_group([9, 3])
    endo = scaling_endomorphism(group, 2)
    assert endomorphism_from_json(group, endomorphism_to_json(endo)) == endo
    with pytest.raises(SchemaError):
        endomorphism_from_json(group, {"matrix": [[0, 1], [0, 0]]})


@pytest.mark.parametrize("orders", [[3.7], [9.0], ["9"], [3, 2.5]])
def test_group_schema_accepts_only_integers(orders):
    """Floats and strings used to be truncated or parsed into a group."""
    with pytest.raises(SchemaError, match="integers"):
        group_from_json({"cyclic_orders": orders})


@pytest.mark.parametrize("matrix", [[[2.9]], [[True]], [["2"]]])
def test_endomorphism_schema_accepts_only_integers(matrix):
    """On Z9 these used to be read as the matrix [[2]] or [[1]]."""
    with pytest.raises(SchemaError, match="integers"):
        endomorphism_from_json(make_group([9]), {"matrix": matrix})


def test_distribution_round_trip():
    group = make_group([9, 3])
    mu = make_distribution(
        group,
        {
            group.element([0, 2]): Fraction(1, 6),
            group.element([4, 1]): Fraction(5, 6),
        },
    )
    payload = distribution_to_json(mu)
    assert payload == {"probs": {"0,2": "1/6", "4,1": "5/6"}}
    assert distribution_from_json(group, payload) == mu


def test_distribution_json_reduces_each_mass():
    """Masses are written in lowest terms, as Fraction(w, d) prints them,
    also when a numerator shares a factor with the denominator."""
    group = make_group([4, 3])
    rng = random.Random(7)
    laws = [Distribution.from_weights(group, [0, 5, 11], [2, 1, 1])]
    laws += [search.random_distribution(group, rng, 6, 12) for _ in range(40)]
    for mu in laws:
        expected = {
            ",".join(map(str, x.coords)): f"{p.numerator}/{p.denominator}"
            for x, p in mu.probs.items()
        }
        assert distribution_to_json(mu) == {"probs": expected}
    assert distribution_to_json(laws[0]) == {"probs": {"0,0": "1/2", "1,2": "1/4", "3,2": "1/4"}}


def test_distribution_schema_errors():
    group = make_group([5])
    with pytest.raises(SchemaError):
        fraction_from_str("1/0")
    with pytest.raises(SchemaError):
        distribution_from_json(group, {"probs": {"0": "2/3", "1": "2/3"}})
    with pytest.raises(SchemaError):
        distribution_from_json(group, {"probs": {"x": "1/1"}})


@pytest.mark.parametrize("key", ["10", "1_0", "-1", " 3", "\u0663", "03", "+3", "3,0", ""])
def test_distribution_rejects_noncanonical_keys(key):
    """A key part must be str(c) for some 0 <= c < n; "10" on Z9 is not (1)."""
    with pytest.raises(SchemaError):
        distribution_from_json(make_group([9]), {"probs": {key: "1/2", "2": "1/2"}})


def test_check_noncanonical_key_exits_2(tmp_path):
    bad = dict(KERNEL_INSTANCE, mu1={"probs": {"10": "1/2", "2": "1/2"}})
    code, output = run_cli(["check", write(tmp_path, "bad.json", bad)])
    assert code == 2 and output == ""


def test_instance_round_trip_canonical_and_general():
    group = make_group([5])
    canon = canonical_instance(
        group, scaling_endomorphism(group, 2), uniform(group), uniform(group)
    )
    parsed = instance_from_json(instance_to_json(canon))
    assert parsed.is_canonical and parsed.beta2 == canon.beta2

    general = FormsInstance(
        group,
        scaling_endomorphism(group, 2),
        scaling_endomorphism(group, 3),
        scaling_endomorphism(group, 1),
        scaling_endomorphism(group, 4),
        uniform(group),
        uniform(group),
    )
    payload = instance_to_json(general)
    assert set(payload) >= {"alpha1", "alpha2", "beta1", "beta2"}
    parsed = instance_from_json(payload)
    assert not parsed.is_canonical


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_kernel_counterexample(tmp_path):
    path = write(tmp_path, "inst.json", KERNEL_INSTANCE)
    code, output = run_cli(["check", path])
    report = json.loads(output)
    assert code == 0
    assert report["symmetric"] and report["eq42"]
    assert report["m_forms_independent"] and report["eq4"]
    assert report["classifications"]["mu1"]["kind"] == "other"
    assert "kernel-counterexample" in report["tags"]
    assert report["kernel"] == [[0], [3], [6]]
    assert all(report["agreement"].values())
    assert report["manifest"]["command"] == "check"


def test_check_degenerate_verdicts(tmp_path):
    symmetric = {
        "group": {"cyclic_orders": [7]},
        "alpha": {"matrix": [[3]]},
        "mu1": {"probs": {"4": "1/1"}},
        "mu2": {"probs": {"1": "1/1"}},
    }
    path = write(tmp_path, "sym.json", symmetric)
    code, output = run_cli(["check", path])
    report = json.loads(output)
    assert code == 0
    assert report["classifications"]["mu1"]["kind"] == "degenerate"

    asymmetric = dict(symmetric, mu1={"probs": {"2": "1/1"}})
    path = write(tmp_path, "asym.json", asymmetric)
    code, output = run_cli(["check", path])
    report = json.loads(output)
    assert code == 1
    assert not report["symmetric"]
    assert report["witness"] is not None


@pytest.mark.parametrize(
    "field, value",
    [("group", {"cyclic_orders": [9.5]}), ("alpha", {"matrix": [[2.9]]})],
)
def test_check_rejects_non_integer_input(tmp_path, field, value):
    """Truncated to Z9 and [[2]], this instance is symmetric and exits 0."""
    instance = dict(KERNEL_INSTANCE, alpha={"matrix": [[2]]})
    assert run_cli(["check", write(tmp_path, "ok.json", instance)])[0] == 0
    path = write(tmp_path, "bad.json", dict(instance, **{field: value}))
    code, output = run_cli(["check", path])
    assert code == 2 and output == ""


def test_search_rejects_non_integer_group(tmp_path):
    group = write(tmp_path, "g.json", {"cyclic_orders": [3.7]})
    alpha = write(tmp_path, "a.json", {"matrix": [[2]]})
    code, output = run_cli(["search", group, alpha, "--trials", "0"])
    assert code == 2 and output == ""


def test_check_schema_failures_emit_no_report(tmp_path):
    bad = dict(KERNEL_INSTANCE, mu1={"probs": {"3": "1/0"}})
    path = write(tmp_path, "bad.json", bad)
    code, output = run_cli(["check", path])
    assert code == 2
    assert output == ""

    path = write(tmp_path, "bad2.json", {"group": {"cyclic_orders": [9]}})
    code, output = run_cli(["check", path])
    assert code == 2 and output == ""

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    code, output = run_cli(["check", str(notjson)])
    assert code == 2 and output == ""


def test_check_general_instance_canonicalizes(tmp_path):
    payload = {
        "group": {"cyclic_orders": [5]},
        "alpha1": {"matrix": [[2]]},
        "alpha2": {"matrix": [[3]]},
        "beta1": {"matrix": [[1]]},
        "beta2": {"matrix": [[4]]},
        "mu1": {"probs": {"0": "1/2", "1": "1/2"}},
        "mu2": {"probs": {"0": "1/3", "2": "2/3"}},
    }
    path = write(tmp_path, "general.json", payload)
    code, output = run_cli(["check", path])
    report = json.loads(output)
    assert report["canonicalized"]
    assert report["alpha_prime"] == {"matrix": [[1]]}
    assert code in (0, 1)


def test_check_refuses_non_automorphism_alpha(tmp_path, capsys):
    """Z5 with alpha = 0 and two point masses is outside the theorem: L2 = x1
    does not depend on x2.  The check refuses it rather than tag the pair
    theoremB-consistent."""
    payload = {
        "group": {"cyclic_orders": [5]},
        "alpha": {"matrix": [[0]]},
        "mu1": {"probs": {"0": "1/1"}},
        "mu2": {"probs": {"2": "1/1"}},
    }
    assert run_cli(["check", write(tmp_path, "inst.json", payload)]) == (2, "")
    assert "requires beta2 to be an automorphism" in capsys.readouterr().err
    # with alpha = 2, L2 = 4 is not -L2, and the check decides it
    path = write(tmp_path, "ok.json", dict(payload, alpha={"matrix": [[2]]}))
    code, output = run_cli(["check", path])
    assert code == 1 and json.loads(output)["witness"] == {"s": "2", "t": "4"}


def test_check_refuses_non_automorphism_beta2(tmp_path, capsys):
    """A general instance whose alpha' = a1 b1^-1 b2 a2^-1 is not an
    automorphism, because b2 = 3 on Z9 is not, exits 2; so does a
    non-automorphism a1."""
    payload = {
        "group": {"cyclic_orders": [9]},
        "alpha1": {"matrix": [[2]]},
        "alpha2": {"matrix": [[4]]},
        "beta1": {"matrix": [[1]]},
        "beta2": {"matrix": [[3]]},
        "mu1": {"probs": {"0": "1/2", "1": "1/2"}},
        "mu2": {"probs": {"0": "1/3", "2": "2/3"}},
    }
    assert run_cli(["check", write(tmp_path, "b2.json", payload)]) == (2, "")
    assert "requires beta2 to be an automorphism" in capsys.readouterr().err
    payload.update(alpha1={"matrix": [[6]]}, beta2={"matrix": [[5]]})
    assert run_cli(["check", write(tmp_path, "a1.json", payload)]) == (2, "")
    assert "requires alpha1 to be an automorphism" in capsys.readouterr().err


def _point_mass_instance(orders):
    """alpha = -I and two point masses on Z_{n_1} x ... x Z_{n_k}."""
    k = len(orders)
    return {
        "group": {"cyclic_orders": orders},
        "alpha": {"matrix": [[-int(i == j) for j in range(k)] for i in range(k)]},
        "mu1": {"probs": {",".join(["0"] * k): "1"}},
        "mu2": {"probs": {",".join(["1"] + ["0"] * (k - 1)): "1"}},
    }


def test_check_refuses_large_group_promptly(tmp_path):
    """The cross-checks compare |X|^2 pairs, so Z1000 x Z1000 exits 2 before
    any element table is built, where it used to run silently past 20 s."""
    path = write(tmp_path, "inst.json", _point_mass_instance([1000, 1000]))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "heyde_lab.cli", "check", path],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: group order 1000000 exceeds check bound: 1000000^2 pairs exceed {search.MAX_CANDIDATES}\n"
    )
    assert time.perf_counter() - start < 15


def test_check_bound_is_on_pairs(tmp_path, monkeypatch, capsys):
    """A group of order n is checked while n^2 is at most the bound."""
    monkeypatch.setattr("heyde_lab.cli.MAX_CANDIDATES", 81)
    code, output = run_cli(["check", write(tmp_path, "z9.json", _point_mass_instance([9]))])
    assert code == 1 and json.loads(output)["symmetric"] is False
    assert run_cli(["check", write(tmp_path, "z10.json", _point_mass_instance([10]))]) == (2, "")
    assert "group order 10 exceeds check bound: 10^2 pairs exceed 81" in capsys.readouterr().err


def test_check_deterministic_output(tmp_path):
    path = write(tmp_path, "inst.json", KERNEL_INSTANCE)
    _code1, out1 = run_cli(["check", path])
    _code2, out2 = run_cli(["check", path])
    assert out1 == out2


def test_check_output_pinned(tmp_path, monkeypatch):
    """stdout of a non-symmetric Z9xZ27 check with a nontrivial Ker(I + alpha),
    hashed at a fixed timestamp: the Fourier cross-checks' floats decide eq42
    and eq4."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "inst.json", {
        "group": {"cyclic_orders": [9, 27]},
        "alpha": {"matrix": [[2, 3], [6, 5]]},
        "mu1": {"probs": {"0,0": "1/6", "3,9": "1/3", "6,18": "1/2"}},
        "mu2": {"probs": {"1,8": "1/4", "8,19": "1/4", "0,0": "1/2"}},
    })
    code, output = run_cli(["check", "inst.json"])
    assert code == 1
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "7118757c788c4f3a3ad72c99c03347d53eb795481ae659599f6d78e7e77ebe66"
    )


def test_benchmark_check_operations_output_pinned(tmp_path, monkeypatch):
    """stdout of the benchmark's seed-1 check operations (five order-243
    instances, full Fourier sweeps), hashed at a fixed timestamp."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(tmp_path)  # operations name their inputs relative to it
    outputs = [run_cli(list(op.argv)) for op in workloads.generate("check", 1, tmp_path)]
    assert [code for code, _ in outputs] == [0] * 5
    output = "".join(text for _, text in outputs)
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "f164fd961797fdac87282da018ad57559bc178f10bb7ca8f39a3c46ddafc87c7"
    )


def test_benchmark_scan_operations_output_pinned(tmp_path, monkeypatch):
    """stdout of the benchmark's seed-1 scan operations (Z15 with alpha=7 and
    Z9 with alpha=-I, caps 3/6, 10k trials), hashed at a fixed timestamp:
    every hit in emission order, grid and random phase."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(tmp_path)  # operations name their inputs relative to it
    outputs = [run_cli(list(op.argv)) for op in workloads.generate("scan", 1, tmp_path)]
    assert [code for code, _ in outputs] == [0, 0]
    output = "".join(text for _, text in outputs)
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "b2eb4fe913e4f440fa071e22e065b20fa7f1a9942eaa504887b054293764076a"
    )


def test_check_disagreement_exits_3(tmp_path, monkeypatch):
    """A forced mismatch between the exact predicate and the tolerance
    check must exit 3 while still emitting the report."""
    import heyde_lab.cli as cli_module

    monkeypatch.setattr(
        cli_module, "heyde_equation_check", lambda inst, tol: False
    )
    path = write(tmp_path, "inst.json", KERNEL_INSTANCE)
    code, output = run_cli(["check", path])
    assert code == 3
    report = json.loads(output)
    assert report["symmetric"] and not report["eq42"]
    assert not report["agreement"]["symmetric_vs_eq42"]


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_check_rejects_bad_tolerance(tmp_path, tolerance, capsys):
    path = write(tmp_path, "inst.json", KERNEL_INSTANCE)
    code, output = run_cli(["check", path, "--tolerance", tolerance])
    assert code == 2 and output == ""
    assert "--tolerance" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_json_lines_and_summary(tmp_path):
    group = write(tmp_path, "g.json", {"cyclic_orders": [5]})
    alpha = write(tmp_path, "a.json", {"matrix": [[2]]})
    code, output = run_cli(
        ["search", group, alpha, "--trials", "300", "--seed", "9"]
    )
    assert code == 0
    lines = output.strip().split("\n")
    *hit_lines, summary_line = lines
    summary = json.loads(summary_line)
    assert summary["summary"]["counts"]["other"] == 0
    assert summary["summary"]["counts"]["symmetric"] == len(hit_lines)
    for line in hit_lines:
        hit = json.loads(line)
        assert hit["symmetric"] is True
        assert hit["manifest"]["config"]["seed"] == 9


def test_search_byte_identical_given_manifest(tmp_path):
    group = write(tmp_path, "g.json", {"cyclic_orders": [7]})
    alpha = write(tmp_path, "a.json", {"matrix": [[3]]})
    argv = ["search", group, alpha, "--trials", "200", "--seed", "4"]
    _code, out1 = run_cli(argv)
    _code, out2 = run_cli(argv)
    assert out1 == out2


#: Order 3 on Z2xZ2 and Z4xZ4, with I + alpha invertible on both.
TWO_TORSION_ALPHA = {"matrix": [[0, 1], [1, 1]]}


def test_check_tags_two_torsion_pair_exploratory(tmp_path):
    """On Z2xZ2, 1/3 d(0,0) + 2/3 d(1,0) against d(0,0) is symmetric and not
    idempotent under a trivial Ker(I + alpha); the theorem assumes odd order,
    so the pair is exploratory, not a red alert."""
    instance = write(tmp_path, "i.json", {
        "group": {"cyclic_orders": [2, 2]},
        "alpha": TWO_TORSION_ALPHA,
        "mu1": {"probs": {"0,0": "1/3", "1,0": "2/3"}},
        "mu2": {"probs": {"0,0": "1"}},
    })
    code, output = run_cli(["check", instance])
    report = json.loads(output)
    assert code == 0 and report["symmetric"] is True
    assert report["kernel"] == [[0, 0]]
    assert report["tags"] == ["exploratory-2-torsion"]


@pytest.mark.parametrize("orders, hits, exploratory", [([2, 2], 529, 408), ([4, 4], 2377, 1632)])
def test_search_two_torsion_raises_no_red_alert(tmp_path, orders, hits, exploratory):
    group = write(tmp_path, "g.json", {"cyclic_orders": orders})
    alpha = write(tmp_path, "a.json", TWO_TORSION_ALPHA)
    argv = ["--support-cap", "2", "--denominator-cap", "3", "--trials", "0"]
    code, output = run_cli(["search", group, alpha, *argv])
    *hit_lines, summary_line = output.strip().split("\n")
    summary = json.loads(summary_line)["summary"]
    tags = [json.loads(line)["tags"] for line in hit_lines]
    assert code == 0 and summary["red_alert"] is False
    assert summary["kernel"] == [[0, 0]]
    assert len(tags) == hits
    assert tags.count(["exploratory-2-torsion"]) == exploratory
    assert not any("red-alert-nonidempotent" in t for t in tags)


def test_search_odd_order_red_alert_exits_1(tmp_path, monkeypatch):
    """A classification that misses idempotent shifts turns Z5's uniform law
    into a non-idempotent hit under a trivial kernel: a red alert, exit 1."""
    monkeypatch.setattr(search, "is_idempotent_shift", lambda mu: None)
    group = write(tmp_path, "g.json", {"cyclic_orders": [5]})
    alpha = write(tmp_path, "a.json", {"matrix": [[2]]})
    code, output = run_cli(["search", group, alpha, "--trials", "0"])
    *hit_lines, summary_line = output.strip().split("\n")
    tags = [json.loads(line)["tags"] for line in hit_lines]
    assert code == 1 and json.loads(summary_line)["summary"]["red_alert"] is True
    assert tags.count(["red-alert-nonidempotent"]) == 1


def test_search_schema_error(tmp_path):
    group = write(tmp_path, "g.json", {"cyclic_orders": [5]})
    alpha = write(tmp_path, "a.json", {"matrix": [[1, 0], [0, 1]]})
    code, output = run_cli(["search", group, alpha])
    assert code == 2 and output == ""


def test_search_overflow_is_usage_error(tmp_path):
    group = write(tmp_path, "g.json", {"cyclic_orders": [27]})
    alpha = write(tmp_path, "a.json", {"matrix": [[4]]})
    code, _output = run_cli(["search", group, alpha, "--support-cap", "3"])
    assert code == 2
    group = write(tmp_path, "g5.json", {"cyclic_orders": [5]})
    alpha = write(tmp_path, "a2.json", {"matrix": [[2]]})
    argv = ["--support-cap", "3", "--denominator-cap", "400", "--trials", "0"]
    assert run_cli(["search", group, alpha, *argv]) == (2, "")


def test_search_refuses_large_subgroup_lattice(tmp_path, capsys):
    """Z2^6 at caps 1/1: the grid passes its guard, and the 2,825 subgroups
    of the group add enough uniform-coset candidates that the second guard
    refuses the scan before any pair is compared."""
    group = write(tmp_path, "g.json", {"cyclic_orders": [2] * 6})
    alpha = write(tmp_path, "a.json", {"matrix": [[int(i == j) for j in range(6)] for i in range(6)]})
    argv = ["--support-cap", "1", "--denominator-cap", "1", "--trials", "0"]
    assert run_cli(["search", group, alpha, *argv]) == (2, "")
    assert "search space of 26387^2 pairs" in capsys.readouterr().err


def test_search_refuses_huge_subgroup_lattice_promptly(tmp_path):
    """Z2^10 at caps 1/1 passes the grid guard, and its lattice has
    229,755,605 subgroups: the walk stops at search.MAX_SUBGROUPS and the
    scan exits 2 within seconds instead of enumerating them."""
    group = write(tmp_path, "g.json", {"cyclic_orders": [2] * 10})
    alpha = write(tmp_path, "a.json", {"matrix": [[int(i == j) for j in range(10)] for i in range(10)]})
    argv = ["--support-cap", "1", "--denominator-cap", "1", "--trials", "0"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "heyde_lab.cli", "search", group, alpha, *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"has over {search.MAX_SUBGROUPS} subgroups" in proc.stderr
    assert time.perf_counter() - start < 15


def test_search_refuses_group_past_scan_order(tmp_path, capsys):
    group = write(tmp_path, "g.json", {"cyclic_orders": [2, 513]})
    alpha = write(tmp_path, "a.json", {"matrix": [[1, 0], [0, 1]]})
    assert run_cli(["search", group, alpha]) == (2, "")
    assert capsys.readouterr().err == "error: group order 1026 exceeds scan bound 1024\n"


@pytest.mark.parametrize("order, a", [(5, 0), (9, 3)])
def test_search_refuses_non_automorphism_alpha(tmp_path, capsys, order, a):
    """alpha = 0 on Z5 and alpha = 3 on Z9 are not automorphisms; a scan of
    either used to raise a red alert for a theorem that does not apply."""
    group = write(tmp_path, "g.json", {"cyclic_orders": [order]})
    alpha = write(tmp_path, "a.json", {"matrix": [[a]]})
    argv = ["--seed", "0", "--trials", "2000"]
    assert run_cli(["search", group, alpha, *argv]) == (2, "")
    assert f"[[{a}]] is not one" in capsys.readouterr().err
    z = make_group([order])
    with pytest.raises(ValueError, match="must be an automorphism"):
        search.grid_scan(z, scaling_endomorphism(z, a), search.SearchConfig(random_trials=0))


def test_search_output_pinned(tmp_path, monkeypatch):
    """stdout of a small search, hashed at a fixed timestamp; the inputs
    are named relative to the working directory, as the manifest embeds
    them."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "g.json", {"cyclic_orders": [9]})
    write(tmp_path, "a.json", {"matrix": [[8]]})
    code, output = run_cli(
        ["search", "g.json", "a.json", "--support-cap", "2",
         "--denominator-cap", "4", "--trials", "300", "--seed", "5"]
    )
    assert code == 0
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "28d2dab66a25b956caca850e634190cec2772ea93ebffae8e53c7ffc7db8e41f"
    )


@pytest.mark.parametrize(
    "order, caps, trials, digest",
    [
        (128, ("1", "1"), "0", "0315d04ab54ff083924073253fecf26aa4832513374bf87a2628e276608fbf2c"),
        (64, ("2", "3"), "2000", "fe1e9fb6842bb7b811657089927564bb1c943e739154f14e1a63d30d6f314357"),
    ],
)
def test_coset_heavy_search_output_pinned(tmp_path, monkeypatch, order, caps, trials, digest):
    """stdout of searches with alpha = 3 whose grids pair coset candidates,
    up to the whole group, with supports and with each other, hashed at a
    fixed timestamp: 639 hits on Z128, and 1,367 on Z64, 24 of them from
    the random phase."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "g.json", {"cyclic_orders": [order]})
    write(tmp_path, "a.json", {"matrix": [[3]]})
    code, output = run_cli(
        ["search", "g.json", "a.json", "--support-cap", caps[0],
         "--denominator-cap", caps[1], "--trials", trials]
    )
    assert code == 0
    assert hashlib.sha256(output.encode()).hexdigest() == digest


def test_random_phase_search_output_pinned(tmp_path, monkeypatch):
    """stdout of a search on Z15 with alpha = 7 whose 2000 random trials
    find random-phase hits, hashed at a fixed timestamp."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "g.json", {"cyclic_orders": [15]})
    write(tmp_path, "a.json", {"matrix": [[7]]})
    code, output = run_cli(
        ["search", "g.json", "a.json", "--support-cap", "3",
         "--denominator-cap", "6", "--trials", "2000", "--seed", "1"]
    )
    assert code == 0
    assert '"source": "random"' in output
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "7b728509015e701f931ab4398580f891660b61f68a5a144a378ab8ae81a969ca"
    )


def test_large_support_random_phase_output_pinned(tmp_path, monkeypatch):
    """stdout of a search on Z27 with alpha = -1 at support cap 8, hashed at
    a fixed timestamp: its random draws reach supports above 5 and both of
    the stdlib's sampling branches (pool swap and rejection set), and one
    of its 392 hits comes from the random phase."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "g.json", {"cyclic_orders": [27]})
    write(tmp_path, "a.json", {"matrix": [[26]]})
    code, output = run_cli(
        ["search", "g.json", "a.json", "--support-cap", "8",
         "--denominator-cap", "2", "--trials", "3000", "--seed", "4"]
    )
    assert code == 0
    assert '"source": "random"' in output
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "22b49b08bcb78469e2c4d698e3509013f69cc4d549d8bf69a342236d40c2da10"
    )


def test_search_hit_lines_equal_the_report_encoding():
    """Each spliced hit line equals the reference encoding of its report, on
    Z15 with alpha = 7 (grid and random-phase hits, keys such as "10" that
    sort before "4" as strings), on Z3xZ3, on Z9 with alpha = 8 at caps 3/6
    (the benchmark's hit-heavy shape), on Z2xZ4, whose idempotent-shift laws
    share a kind and a shift on different subgroups and a kind and a
    subgroup under different shifts, and on a scan with no hits."""
    manifest = build_manifest("search", ["g.json", "a.json"], {"seed": 0})
    z15, z3x3, z9, z2x4 = make_group([15]), make_group([3, 3]), make_group([9]), make_group([2, 4])
    config = search.SearchConfig(support_size_cap=2, denominator_cap=3, random_trials=200)
    scans = [
        search.grid_scan(z15, scaling_endomorphism(z15, 7), config),
        search.grid_scan(z3x3, make_endomorphism(z3x3, [[1, 1], [0, 1]]), config),
        search.grid_scan(z9, scaling_endomorphism(z9, 8), dataclasses.replace(
            config, support_size_cap=3, denominator_cap=6)),
        search.grid_scan(z2x4, scaling_endomorphism(z2x4, 1), config),
    ]
    scans.append(dataclasses.replace(scans[0], hits=[]))
    for scan in scans:
        lines = list(_hit_lines(manifest, scan))
        assert lines == [
            json.dumps({"manifest": manifest, **r.to_json()}, sort_keys=True) for r in scan.hits
        ]
    for scan in scans[:4]:
        assert {r.source for r in scan.hits} == {"grid", "random"}
    keys = [list(distribution_to_json(r.mu1)["probs"]) for r in scans[0].hits]
    assert any(k != sorted(k) for k in keys)
    shifts = [c for r in scans[3].hits for c in (r.mu1_class, r.mu2_class)
              if c["kind"] == "idempotent-shift"]
    assert len({(str(c["subgroup"]), str(c["shift"])) for c in shifts}) > len(
        {str(c["shift"]) for c in shifts}) > 1


def test_search_hit_bound_is_usage_error(tmp_path, monkeypatch, capsys):
    """Every pair on Z2xZ2xZ2 is symmetric; the hit list stops at the bound."""
    monkeypatch.setattr(search, "MAX_HITS", 50)
    group = write(tmp_path, "g.json", {"cyclic_orders": [2, 2, 2]})
    alpha = write(
        tmp_path, "a.json", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    )
    code, output = run_cli(["search", group, alpha, "--trials", "0"])
    assert code == 2 and output == ""
    assert "more than 50 symmetric hits" in capsys.readouterr().err


def test_search_out_file(tmp_path):
    group = write(tmp_path, "g.json", {"cyclic_orders": [5]})
    alpha = write(tmp_path, "a.json", {"matrix": [[2]]})
    out_path = tmp_path / "report.jsonl"
    code = run(
        ["search", group, alpha, "--trials", "50", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert json.loads(lines[-1])["summary"]["counts"]["other"] == 0


def test_refused_run_keeps_the_earlier_out_report(tmp_path):
    """A search, check or padic refused with exit 2 leaves an earlier --out
    report byte for byte, and no partial file beside it; a run that reports
    replaces it."""
    group = write(tmp_path, "g.json", {"cyclic_orders": [5]})
    alpha = write(tmp_path, "a.json", {"matrix": [[0]]})
    instance = write(tmp_path, "inst.json", dict(KERNEL_INSTANCE, alpha={"matrix": [[0]]}))
    out = tmp_path / "old.json"
    earlier = b'{"an earlier": "report"}\n'
    for argv in (
        ["search", group, alpha, "--trials", "0"],
        ["check", instance],
        ["padic", "--p", "4", "--k", "2", "--c", "1"],
    ):
        out.write_bytes(earlier)
        assert run([*argv, "--out", str(out)]) == 2
        assert out.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "g.json", "inst.json", "old.json"]
    assert run(["padic", "--p", "3", "--k", "2", "--c", "1", "--trials", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["p"] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "g.json", "inst.json", "old.json"]


# ---------------------------------------------------------------------------
# padic
# ---------------------------------------------------------------------------


def test_padic_cli_kernel_case():
    code, output = run_cli(
        ["padic", "--p", "3", "--k", "3", "--c", "5", "--trials", "200"]
    )
    report = json.loads(output)
    assert code == 0
    assert report["tag"].startswith("finite-level 2(i)")
    assert report["consistent"] is True
    assert report["kernel"] == [[0], [9], [18]]
    assert any(
        hit["mu1_class"]["kind"] == "other" for hit in report["hits"]
    )


def test_padic_cli_exploratory(tmp_path):
    code, output = run_cli(
        ["padic", "--p", "2", "--k", "3", "--c", "3", "--trials", "100"]
    )
    report = json.loads(output)
    assert code == 0
    assert report["tag"] == "exploratory p=2"
    assert report["consistent"] is None


def test_padic_cli_rejects_bad_input():
    code, output = run_cli(["padic", "--p", "3", "--k", "2", "--c", "6"])
    assert code == 2 and output == ""


def test_padic_output_pinned():
    code, output = run_cli(["padic", "--p", "3", "--k", "2", "--c", "2"])
    assert code == 0
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "229f1f956fa3080dd216080cfa2272b272f85490fe23b67480985f638217b6e4"
    )


def test_padic_refuses_large_prime_before_primality(monkeypatch, capsys):
    def no_primality_test(p):
        raise AssertionError("primality tested before the size check")

    monkeypatch.setattr(search, "_is_prime", no_primality_test)
    code, output = run_cli(
        ["padic", "--p", "100000000000031", "--k", "1", "--c", "2"]
    )
    assert code == 2 and output == ""
    assert f"scan bound {search.MAX_SCAN_ORDER}" in capsys.readouterr().err


def test_padic_refuses_huge_level_up_front(capsys):
    code, output = run_cli(["padic", "--p", "3", "--k", "10000000", "--c", "2"])
    assert code == 2 and output == ""
    assert f"scan bound {search.MAX_SCAN_ORDER}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite():
    code, output = run_cli(
        ["verify", "--suite", "quadratic", "--seed", "1", "--trials", "50"]
    )
    assert code == 0
    assert output.startswith("quadratic: PASS")


def test_verify_lemma1_reduced():
    code, output = run_cli(
        ["verify", "--suite", "lemma1", "--trials", "120"]
    )
    assert code == 0
    assert "lemma1: PASS" in output


def test_verify_report_pinned(tmp_path):
    """The --out report of lemma1 at seed 0, hashed at a fixed timestamp."""
    report = tmp_path / "report.json"
    code, output = run_cli(
        ["verify", "--suite", "lemma1", "--seed", "0", "--trials", "50",
         "--out", str(report)]
    )
    assert code == 0
    assert output == "lemma1: PASS (84 checks)\n"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "a6d518297b1b55d3f9860f816c2e4ad1e50fbe6905542a13f79777a9f09b7a6a"
    )


def test_benchmark_verify_operations_output_pinned(tmp_path, monkeypatch):
    """stdout and --out reports of the benchmark's seed-1 verify operations
    (every suite, one seed each), hashed at a fixed timestamp."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads, "VERIFY_SEEDS", 1)
    monkeypatch.chdir(tmp_path)  # operations write their reports relative to it
    ops = workloads.generate("verify", 1, tmp_path)
    outputs = [run_cli(list(op.argv)) for op in ops]
    assert [code for code, _ in outputs] == [0] * len(workloads.VERIFY_SUITES)
    output = "".join(text for _, text in outputs)
    reports = b"".join((tmp_path / op.out_file).read_bytes() for op in ops)
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "6843dc37d19598de33d2a9208a9190c1881032c5e64fb304bc87721a421a4ac2"
    )
    assert hashlib.sha256(reports).hexdigest() == (
        "5d122fab64011512277d2af04c198615d210368691608ea4160651ae7f1c3203"
    )


def test_verify_rejects_negative_trials(capsys):
    code, output = run_cli(["verify", "--suite", "lemma8", "--trials", "-3"])
    assert code == 2 and output == ""
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["lemma8", "all"])
def test_verify_refuses_trials_past_the_bound(suite, capsys, monkeypatch):
    """One trial past MAX_VERIFY_TRIALS exits 2 before any suite runs."""
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda **kw: pytest.fail("a suite ran"))
    bound = verify.MAX_VERIFY_TRIALS
    code, output = run_cli(["verify", "--suite", suite, "--trials", str(bound + 1)])
    assert code == 2 and output == ""
    assert f"trials must be in 0..{bound}, got {bound + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["chain16", "chain10"])
def test_verify_chain_suite_refuses_trials(suite, capsys):
    code, output = run_cli(["verify", "--suite", suite, "--trials", "5"])
    assert code == 2 and output == ""
    assert f"suite {suite}" in capsys.readouterr().err


def test_verify_all_runs_chain_suites_without_trials():
    code, output = run_cli(["verify", "--suite", "all", "--trials", "1"])
    assert code == 0
    for suite in ("chain16", "chain10"):
        alone_code, alone = run_cli(["verify", "--suite", suite])
        assert alone_code == 0
        assert alone in output


def test_verify_unknown_suite_is_usage_error(capsys):
    code = run(["verify", "--suite", "nope"], out=io.StringIO())
    capsys.readouterr()
    assert code == 2


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "heyde_lab.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"

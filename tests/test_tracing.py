"""The benchmark's tracer (perfbench/tracing.py) still finds the names it
wraps: a renamed or dropped binding fails here, not only in a traced
benchmark run."""

import importlib
import io
from pathlib import Path

import heyde_lab.cli  # noqa: F401  (the tracer wraps names in every module)
from heyde_lab import distributions, search
from heyde_lab.groups import make_group, scaling_endomorphism

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_records_draws_and_law_builds(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = (search.random_distribution, vars(distributions.Distribution)["__post_init__"])
    group = make_group([15])
    config = search.SearchConfig(support_size_cap=2, denominator_cap=3, random_trials=50)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        search.grid_scan(group, scaling_endomorphism(group, 7), config)
    finally:
        tracer.uninstall()
    assert tracer.calls["search.random_distribution"] == 2 * config.random_trials
    assert tracer.calls["distributions.Distribution.__post_init__"] >= 2 * config.random_trials
    assert tracer.calls["search.grid_scan"] == 1
    assert originals == (
        search.random_distribution, vars(distributions.Distribution)["__post_init__"]
    )


def test_benchmark_workloads_call_every_covered_name(monkeypatch, tmp_path):
    """Seed 1 of each benchmark workload, one seed per verify suite, calls
    every name the tracer's COVERAGE lists for it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads, "VERIFY_SEEDS", 1)
    monkeypatch.chdir(tmp_path)  # operations name their inputs relative to it
    for workload in workloads.WORKLOADS:
        ops = workloads.generate(workload, 1, tmp_path)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            codes = [heyde_lab.cli.run(list(op.argv), out=io.StringIO()) for op in ops]
        finally:
            tracer.uninstall()
        assert codes == [0] * len(ops)
        assert tracer.missing(workload) == []

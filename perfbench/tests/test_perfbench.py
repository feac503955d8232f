"""Tests of the benchmark itself.  From the root of the repository:

    python3 -m pytest perfbench/tests -q

They run the benchmark end to end on every workload and take a few
minutes; the repository's own suite does not collect them.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from calibrate import Timer  # noqa: E402
from workloads import WORKLOADS, generate, is_symmetric, parse_distribution  # noqa: E402

PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
COUNT_METRICS = [
    m["name"] for m in PER_LAYER
    if m["unit"] == "count" or m["name"].startswith("search.hits_")
]


def run_bench(workload: str, seed: int, trace: int, hash_seed: str = "0", cwd: Path = ROOT):
    """(exit code, result line or None, facts line or None) of one short run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        return done.returncode, None, done.stderr
    return 0, json.loads(done.stdout.splitlines()[-1]), json.loads(done.stderr.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_processes(workload):
    code1, first, facts1 = run_bench(workload, 7, 1, hash_seed="1")
    code2, second, facts2 = run_bench(workload, 7, 1, hash_seed="2")
    assert code1 == code2 == 0, (facts1, facts2)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in PER_LAYER}
    assert facts1["output_sha256"] == facts2["output_sha256"]
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_seeds_pass_the_gate(workload):
    digests = set()
    for seed in (11, 12):
        code, result, facts = run_bench(workload, seed, 0)
        assert code == 0, facts
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        digests.add(facts["output_sha256"])
    assert len(digests) == 2, "two seeds gave the same outputs"


@pytest.mark.parametrize("seed", (11, 12))
def test_check_instances_are_symmetric_by_construction(seed, tmp_path):
    """The check workload's expected verdicts hold without asking the program."""
    ops = generate("check", seed, tmp_path)
    assert len(ops) == 5
    for op in ops:
        instance = json.loads((tmp_path / op.argv[1]).read_text(encoding="utf-8"))
        orders = instance["group"]["cyclic_orders"]
        mu1 = parse_distribution(instance["mu1"])
        mu2 = parse_distribution(instance["mu2"])
        assert sum(mu1.values()) == 1 and sum(mu2.values()) == 1
        assert is_symmetric(orders, instance["alpha"]["matrix"], mu1, mu2), op.label


def test_oracle_rejects_an_asymmetric_pair():
    mu1 = {(0,): Fraction(2, 3), (1,): Fraction(1, 3)}
    mu2 = {(0,): Fraction(1, 2), (2,): Fraction(1, 2)}
    assert not is_symmetric([5], [[2]], mu1, mu2)
    assert is_symmetric([5], [[4]], mu1, mu1)


def test_generation_is_a_function_of_the_seed(tmp_path):
    def files(seed, name):
        directory = tmp_path / name
        directory.mkdir()
        ops = generate("check", seed, directory)
        return ops, {p.name: p.read_bytes() for p in directory.iterdir()}

    assert files(3, "a") == files(3, "b")
    assert files(3, "a2")[1] != files(4, "c")[1]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run_bench("check", 1, 0, cwd=tmp_path)
    assert code != 0 and result is None


def test_timer_restores_the_alarm_handler_and_subtracts_its_samples():
    before = signal.getsignal(signal.SIGALRM)
    with Timer() as timer:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(timer.samples) > 5  # the interval timer fired inside the body
    assert 0 < timer.net_s < timer.raw_s
    assert timer.corrected_s > 0

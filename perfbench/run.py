"""Benchmark of heyde_lab: one workload through the CLI, in this process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workload's inputs are generated from the seed into a temporary directory
under ``.perfbench-work/``, and each operation is one ``heyde_lab.cli.run``
call.  The workload is repeated while the time budget allows; every
repetition is checked for correctness and compared byte for byte with the
first.

With ``--trace 0`` the end-to-end metrics are measured with tracing off;
times are per-operation medians over the repetitions, corrected for
contention from other tenants of the host (see calibrate.py).
With ``--trace 1`` each repetition is an untraced pass followed by a traced
pass (see tracing.py), which give the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; metric names and units are
those declared in BENCHMARK.json.  Machine facts, the uncorrected wall
time and a digest of the outputs go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import Timer
from tracing import Tracer
from workloads import WORKLOADS, Operation, check_output, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Fresh interpreters timed for setup_s.
SETUP_SAMPLES = 11

#: Both are written into every manifest; pinning them makes the byte
#: comparison test determinism rather than the caller's environment.
PINNED_ENV = {"HEYDE_LAB_TIMESTAMP": "2000-01-01T00:00:00+00:00", "HEYDE_LAB_THREADS": "1"}

_IMPORT_TIMER = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "from calibrate import Timer\n"
    "with Timer() as timer:\n"
    "    import heyde_lab.cli\n"
    "print(timer.corrected_s)\n"
)


def setup_seconds() -> float:
    """Median contention-corrected time to import heyde_lab in a fresh
    interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def call(cli, op: Operation, out) -> int | str:
    try:
        return cli.run(list(op.argv), out=out)
    except Exception as exc:  # an exception fails the operation
        return f"exception {exc!r}"


def run_pass(cli, ops: list[Operation], first: list[str] | None, corrected: bool) -> dict:
    """Run every operation once and check its result.

    ``first`` holds the output digests of the first pass; without it (on
    the first pass) scan hits are also re-decided by the exact oracle.
    ``corrected`` times the operations with calibrate.Timer; traced passes
    use plain timing, so that the reference loop does not land in spans.
    """
    times, raw, digests, failures = [], [], [], []
    hits, distinct, size = 0, set(), 0
    gc.collect()
    for i, op in enumerate(ops):
        out = io.StringIO()
        report = Path(op.out_file) if op.out_file else None
        if report is not None:
            report.unlink(missing_ok=True)  # never read a report of an earlier pass
        if corrected:
            with Timer() as timer:
                code = call(cli, op, out)
            times.append(timer.corrected_s)
            raw.append(timer.net_s)
        else:
            start = time.perf_counter()
            code = call(cli, op, out)
            raw.append(time.perf_counter() - start)
        text = out.getvalue()
        out_text = report.read_text(encoding="utf-8") if report and report.exists() else None
        digests.append(hashlib.sha256((text + (out_text or "")).encode()).hexdigest())
        size += len(text.encode())
        try:
            reason = check_output(op, code, text, out_text, deep=first is None)
            if op.argv[0] == "search":
                for line in text.splitlines()[:-1]:
                    hit = json.loads(line)
                    hits += 1
                    distinct.add(json.dumps([hit["mu1"], hit["mu2"]], sort_keys=True))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is None and first is not None and digests[i] != first[i]:
            reason = "output differs from the first run of this seed"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return {
        "times": times,
        "raw": raw,
        "digests": digests,
        "failures": failures,
        "output_metrics": {
            "search.hits_total": hits,
            "search.hits_distinct": len(distinct),
            "search.hits_distinct_ratio": len(distinct) / hits if hits else 0.0,
            "cli.output_bytes": size,
        },
    }


def op_medians(passes: list[dict], key: str) -> list[float]:
    """Each operation's median time over the passes."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def measure(cli, ops, workload: str, seconds: float, traced: bool, count_names) -> dict:
    """Repeat the workload while the budget allows; return the result line."""
    plain, traced_passes, tracers = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(run_pass(cli, ops, plain[0]["digests"] if plain else None, True))
        if traced:
            tracer = Tracer()
            try:
                tracer.install()
                traced_passes.append(run_pass(cli, ops, plain[0]["digests"], False))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        # at least two passes, so that every run compares outputs byte for byte
        now = time.perf_counter()
        if len(plain) + len(traced_passes) >= 2 and (now - start) + (now - began) > seconds:
            break

    passes = plain + traced_passes
    failures = [f for p in passes for f in p["failures"]]
    problems = []
    op_times = op_medians(plain, "times")
    raw_wall = sum(op_medians(plain, "raw"))
    if not traced:
        metrics = {
            "wall_s": sum(op_times),
            "op_max_s": max(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        layers = [{**t.metrics(), **p["output_metrics"]} for t, p in zip(tracers, traced_passes)]
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name in count_names:
                if len(set(values)) > 1:
                    problems.append(f"count {name} differs between traced passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_ratio"] = sum(op_medians(traced_passes, "raw")) / raw_wall
        missing = sorted(set().union(*(t.missing(workload) for t in tracers)))
        if missing:
            problems.append(f"traced names with no call on {workload}: {missing}")
    for line in failures + problems:
        print(line, file=sys.stderr)
    return {
        "correct": not failures and not problems,
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": metrics,
        "digest": hashlib.sha256("".join(plain[0]["digests"]).encode()).hexdigest(),
        "raw_wall_s": raw_wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heyde_lab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "heyde_lab" / "__init__.py").is_file():
        print(f"error: no heyde_lab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import heyde_lab
    from heyde_lab import cli

    if Path(heyde_lab.__file__).resolve().parent != (SRC / "heyde_lab").resolve():
        print(f"error: heyde_lab imported from {heyde_lab.__file__}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    count_names = {m["name"] for m in declared["per_layer"] if m["unit"] == "count"}

    setup = setup_seconds()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    home = os.getcwd()
    try:
        ops = generate(args.workload, args.seed, work)
        os.chdir(work)  # operations name their inputs relative to work
        result = measure(cli, ops, args.workload, args.seconds, bool(args.trace), count_names)
    finally:
        os.chdir(home)
        shutil.rmtree(work)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass

    result["metrics"]["setup_s"] = setup
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "heyde_lab": heyde_lab.__version__,
        "output_sha256": result.pop("digest"),
        "raw_wall_s": result.pop("raw_wall_s"),
    }
    print(json.dumps(facts, sort_keys=True), file=sys.stderr)
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

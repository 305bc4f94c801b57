"""robustz benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload greedy-350k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` runs a closed loop of ops (one client, one op at a time)
for ``--seconds`` with tracing off and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics (see tracing.py). ``--workload all`` runs every
workload in its own fresh interpreter and prints one table.

Each op's output is checked outside its timed interval; a raising or
failing op counts in ``failed``. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it gives the instance shapes, sample counts, the failed and
witnessed-bound shares and the ladder case mix. The program is imported
from ``src/`` next to this directory, and the run writes only under
``bench/.work/``. See RATIONALE.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

NAMES = ("greedy-350k", "assign-mixed", "cli-sweep")
END_TO_END = (("setup_s", "s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
              ("tests_per_s", "1/s"), ("peak_rss_mb", "MB"))
TAIL_BEYOND = 10                # samples beyond the reported tail percentile
MIN_OPS = 2 * TAIL_BEYOND + 1   # so that the tail percentile is at least the median
MIN_TRACED_OPS = 3
SETUP_REPEATS = 7


@dataclass
class Outcome:
    latency: float
    tests: int
    traced: bool
    error: str | None
    witnessed: int = 0
    bounds: int = 0
    cases: tuple = ()


def measure_setup(module: str) -> float:
    """Median time from starting an interpreter to ``import module`` done."""
    code = f"import {module}, sys; sys.stdout.write('ready'); sys.stdout.flush()"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                cwd=WORK_DIR)
        with proc.stdout:
            ready = proc.stdout.read(5)
            times.append(time.perf_counter() - start)
        if proc.wait() != 0 or ready != b"ready":
            raise RuntimeError(f"importing {module} failed in a fresh interpreter")
    return statistics.median(times)


def run_loop(workload, inst, seconds: float, min_ops: int, tracer=None):
    """Closed loop: the next op starts only after the previous one is checked.

    With a tracer every second op runs traced, on the same input as the
    untraced op before it, so that both halves see the same inputs, machine
    state and warm-up.
    """
    import workloads

    outcomes, peak_kb = [], 0
    deadline = time.perf_counter() + seconds
    while len(outcomes) < min_ops or time.perf_counter() < deadline:
        k = len(outcomes)
        traced = tracer is not None and k % 2 == 1
        index = k // 2 if tracer is not None else k
        gc.collect()
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("op", op=k):
                    tests, payload = workload.op(inst, index, tracer)
            else:
                tests, payload = workload.op(inst, index, None)
            latency = time.perf_counter() - start
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            outcomes.append(Outcome(time.perf_counter() - start, 0, traced,
                                    f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            if traced:
                tracer.uninstall()
        peak_kb = max(peak_kb, workload.rss_kb(payload))
        try:
            checked = workload.check(inst, payload)
            outcomes.append(Outcome(latency, tests, traced, None, checked.witnessed,
                                    checked.bounds, tuple(checked.cases)))
        except workloads.CheckFailed as exc:
            outcomes.append(Outcome(latency, tests, traced, str(exc)))
        del payload
    return outcomes, peak_kb


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, shape=None):
    """One run of one workload: (result object, detail object)."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = os.path.join(WORK_DIR, name)
    os.makedirs(workdir, exist_ok=True)
    setup_s = None if trace else measure_setup(workload.setup_module)
    inst = workload.prepare(shape or workload.shape, seed, workdir)

    if trace:
        tracer = tracing.Tracer()
        outcomes, _ = run_loop(workload, inst, seconds, 2 * MIN_TRACED_OPS, tracer)
        tracer.write(os.path.join(workdir, "spans.json"))
        traced = [o for o in outcomes if o.traced]
        overhead = (statistics.median(o.latency for o in traced)
                    - statistics.median(o.latency for o in outcomes if not o.traced))
        values = tracing.layer_metrics(
            tracer.spans, tests=sum(o.tests for o in traced), ops=len(traced),
            candidate_pairs=inst.shape.get("candidate_pairs", 0), overhead_s=overhead,
            witnessed_share=_share(sum(o.witnessed for o in traced),
                                   sum(o.bounds for o in traced)))
        units = dict(tracing.PER_LAYER)
    else:
        outcomes, peak_kb = run_loop(workload, inst, seconds, MIN_OPS)
        latencies = sorted(o.latency for o in outcomes)
        values = {
            "setup_s": setup_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": latencies[-TAIL_BEYOND - 1],
            "tests_per_s": sum(o.tests for o in outcomes) / sum(latencies),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = dict(END_TO_END)

    failures = [o.error for o in outcomes if o.error is not None]
    samples = len(outcomes)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "shape": inst.shape, "ops": samples, "tests": sum(o.tests for o in outcomes),
        "latency_tail_percentile": None if trace else 100.0 * (samples - TAIL_BEYOND) / samples,
        "latency_samples": samples,
        "failed_share": len(failures) / samples,
        "witnessed_bound_share": _share(sum(o.witnessed for o in outcomes),
                                        sum(o.bounds for o in outcomes)),
        "case_mix": dict(Counter(c for o in outcomes for c in o.cases)),
        "failures": failures[:5],
    }
    result = {
        "correct": not failures,
        "attempted": samples,
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    return result, detail


def _print_table(name: str, result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{name:13s} {key:44s} {metric['value']:14.6g} {metric['unit']}")


def _run_all(args) -> int:
    results = {}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print(lines[-2])
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        _print_table(name, result)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC_DIR, "robustz", "__init__.py")):
        print(f"no robustz sources at {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    # one thread: numerical libraries read these when numpy is first imported;
    # every child interpreter inherits them and imports the checkout's robustz
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC_DIR
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, SRC_DIR)
    import robustz
    if not os.path.abspath(robustz.__file__).startswith(SRC_DIR + os.sep):
        print(f"imported robustz from {robustz.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(args.workload, result)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

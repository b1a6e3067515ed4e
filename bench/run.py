"""Benchmark for cavcross: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # the three, one process each

A run makes whole rounds of its workload (see ``workloads.py``) until
``--seconds`` have passed (by default the ``run_seconds`` of
``BENCHMARK.json``), checks every result apart from the program, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` makes a fixed number of rounds with every layer wrapped and
reports the per-layer metrics instead. ``--seed`` orders the operations
within a round; ``--seed-base`` moves the whole input set to unseen seeds,
so a claim can be rechecked on inputs it was not tuned on.

The program is imported from ``src/`` of the checkout that holds this file,
never from anywhere else; without it the run exits with a non-zero code
and prints no result.
"""
from __future__ import annotations

import os

# one thread for numpy's BLAS and OpenMP; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
NAMES = ("sweep", "lane_stream", "oracle")
SETUP_REPEATS = 5
TAIL_BEYOND = 10    # a tail percentile needs at least this many samples past it


def import_program():
    """Put the checkout's ``src`` first on the path and import the workloads."""
    if not os.path.isfile(os.path.join(SRC, "cavcross", "__init__.py")):
        raise SystemExit(f"error: no cavcross package under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import cavcross
    if not os.path.abspath(cavcross.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: cavcross imported from {cavcross.__file__}, not {SRC}")
    import workloads
    return workloads


def default_seconds():
    """The run length that ``BENCHMARK.json`` sets."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def setup_probe(args):
    """One set-up, timed: import cavcross and build the workload's inputs."""
    start = time.perf_counter()
    workloads = import_program()
    workloads.build(args.workload, args.seed, args.seed_base, RUNS)
    print(time.perf_counter() - start)


def setup_seconds(args):
    """Median of several set-ups, each in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seed-base", str(args.seed_base)]
    took = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        took.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(took)


def measure(work, tally, seconds, tracer):
    """Whole rounds: a fixed number when traced, else until ``seconds`` pass."""
    begin = time.perf_counter()
    rounds = 0
    while True:
        work.round(rounds, tally, tracer)
        rounds += 1
        elapsed = time.perf_counter() - begin
        if rounds >= work.min_rounds and (tracer is not None or elapsed >= seconds):
            return rounds, elapsed


def run_workload(args):
    workloads = import_program()
    setup_s = setup_seconds(args) if not args.trace else None
    workdir = os.path.join(RUNS, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    try:
        work = workloads.build(args.workload, args.seed, args.seed_base, workdir)
        if args.trace:
            import spans
            tracer = spans.Tracer()
            try:
                tracer.install()
            except spans.MissingName as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 5
        work.start()
        work.warmup()
        if tracer is not None:
            tracer.reset()
        tally = workloads.Tally()
        cpu0 = time.process_time()
        rounds, wall = measure(work, tally, args.seconds, tracer)
        cpu = time.process_time() - cpu0
        work.stop()
    except workloads.CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 3
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    busy = sum(tally.op_s)
    print(f"{args.workload}: {rounds} round(s), {tally.attempted} operations, "
          f"{tally.failed} failed, {tally.vehicles} vehicles; "
          f"{wall:.2f} s wall, {busy:.2f} s in operations, {cpu:.2f} s process CPU")
    for reason, n in sorted(tally.reasons.items(), key=lambda kv: -kv[1]):
        print(f"  failed {n}: {reason}")
    if tracer is not None:
        os.makedirs(RUNS, exist_ok=True)
        path = os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        metrics = tracer.metrics()
    else:
        beyond = len(tally.plan_s) * (1 - work.tail_pct / 100.0)
        print(f"  plan_ms_tail is p{work.tail_pct} of {len(tally.plan_s)} plans "
              f"({beyond:.1f} beyond it)")
        if beyond < TAIL_BEYOND:
            print("error: too few plans for the tail percentile", file=sys.stderr)
            return 4
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "vehicles_per_s": {"value": tally.vehicles / busy, "unit": "vehicles/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(tally.op_s), "unit": "ms"},
            "plan_ms_p50": {"value": 1e3 * statistics.median(tally.plan_s), "unit": "ms"},
            "plan_ms_tail": {"value": 1e3 * statistics.quantiles(
                tally.plan_s, n=100, method="inclusive")[work.tail_pct - 1], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": True, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seed-base", str(args.seed_base),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

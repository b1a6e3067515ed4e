"""Regenerate the reference figures: repeated runs of ``run.py`` per workload.

    python3 bench/reference.py --runs 10                 # end-to-end, all three
    python3 bench/reference.py --runs 2 --trace 1        # per-layer split
    python3 bench/reference.py --runs 5 --workload oracle

Runs one process at a time, seeds 1..runs, each for the ``run_seconds`` of
``BENCHMARK.json``, and prints for every metric the
median, the quartiles and the quartile spread as a share of the median,
next to the wall and process CPU time of the timed phase. Raw results are
kept as JSON lines under ``bench/_runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
LINE = re.compile(r"(\d+) round\(s\).* ([\d.]+) s wall, ([\d.]+) s in operations, "
                  r"([\d.]+) s process CPU")


def one_run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    timing = next(m for m in map(LINE.search, lines) if m)
    rounds, wall, ops, cpu = map(float, timing.groups())
    result.update(wall_s=wall, cpu_s=cpu, round_s=ops / rounds)
    result["seed"] = seed
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "lane_stream", "oracle", "all"),
                        default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = ("sweep", "lane_stream", "oracle") if args.workload == "all" else (args.workload,)
    os.makedirs(os.path.join(HERE, "_runs"), exist_ok=True)
    for name in names:
        results = []
        log = os.path.join(HERE, "_runs", f"reference-{name}-trace{args.trace}.jsonl")
        with open(log, "w", encoding="utf-8") as fh:
            for seed in range(1, args.runs + 1):
                res = one_run(name, seed, args.trace)
                fh.write(json.dumps(res) + "\n")
                fh.flush()
                results.append(res)
        print(f"== {name}: {len(results)} runs, attempted "
              f"{sorted({r['attempted'] for r in results})}, failed "
              f"{sorted({r['failed'] for r in results})}")
        rows = [("wall_s", "s", [r["wall_s"] for r in results]),
                ("round_s", "s", [r["round_s"] for r in results]),
                ("cpu_s", "s", [r["cpu_s"] for r in results])]
        for metric, body in results[0]["metrics"].items():
            rows.append((metric, body["unit"], [r["metrics"][metric]["value"] for r in results]))
        for metric, unit, values in rows:
            if len(values) >= 2 and statistics.median(values):
                med, q1, q3, share = spread(values)
                print(f"  {metric:45s} {med:14.6g} {unit:10s} q1 {q1:12.6g}  q3 {q3:12.6g}"
                      f"  spread {100 * share:6.2f}%")
            else:
                print(f"  {metric:45s} {values[0]:14.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

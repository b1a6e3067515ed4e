"""Write the result files of every benchmark scenario, for before/after diffs.

    python3 tools/snapshot_outputs.py OUTDIR

Runs the six built-in fixtures, the same fixtures with the transcription
oracle on (as ``cavcross run --oracle``), the 100 c7 sweep scenarios
(``bench/inputs.sweep_scenario(0..99)``) and the lane streams of
``bench/inputs.STREAM_POOL`` through ``load_scenario``, ``run_simulation``
and ``write_outputs``, as ``cavcross run`` does, into
``OUTDIR/fixtures/<name>``, ``OUTDIR/fixtures_oracle/<name>``,
``OUTDIR/sweep/<k>`` and ``OUTDIR/lane_stream/<seed>``. Wall-clock times in
``audit.txt`` are masked so two snapshots of the same code are identical.
The program comes from ``src/`` of the checkout holding this script, so a
behaviour check is a snapshot in each of two checkouts and ``diff -r`` of
the two directories.
"""
from __future__ import annotations

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from bench import inputs  # noqa: E402
from cavcross.fixtures import FIXTURES, fixture  # noqa: E402
from cavcross.sim import (apply_overrides, load_scenario, run_simulation,  # noqa: E402
                          write_outputs)

WALL = re.compile(r"(wall=|wall time: )\d+\.\d+s")


def scenarios():
    """(output subdirectory, label, loaded scenario) for every run."""
    for name in sorted(FIXTURES):
        yield os.path.join("fixtures", name), name, load_scenario(fixture(name))
    for name in sorted(FIXTURES):
        yield (os.path.join("fixtures_oracle", name), name,
               apply_overrides(load_scenario(fixture(name)), oracle=True))
    for k in range(inputs.SWEEP_SCENARIOS):
        yield (os.path.join("sweep", f"{k:03d}"), f"sweep_{k:03d}",
               load_scenario(inputs.sweep_scenario(k)))
    for s in inputs.STREAM_POOL:
        yield (os.path.join("lane_stream", str(s)), f"lane_stream_{s}",
               load_scenario(inputs.lane_stream(s)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/snapshot_outputs.py OUTDIR", file=sys.stderr)
        return 1
    for sub, label, scn in scenarios():
        paths = write_outputs(run_simulation(scn),
                              os.path.join(argv[0], sub), label)
        with open(paths["audit"], encoding="utf-8") as fh:
            text = WALL.sub(r"\1*s", fh.read())
        with open(paths["audit"], "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Test-side reference for the trajectory writer.

``write_trajectories_per_row`` is the plain writer: it finds each output
row's arc with its own ``arc_at`` call and formats the numpy samples one
row at a time, on a grid that drops the points near a breakpoint through a
full grid-by-breakpoint distance matrix. ``sim.write_trajectories`` must
write the same bytes while finding every row's arc in one pass; the tests
compare the two files.
"""

import numpy as np

from cavcross.model import PiecewiseTrajectory


def _sample_times(traj: PiecewiseTrajectory, step: float) -> np.ndarray:
    bp = np.unique(np.array(traj.breakpoints))
    n = int(np.floor((traj.tf - traj.t0) / step + 1e-9))
    grid = traj.t0 + step * np.arange(n + 1)
    keep = np.min(np.abs(grid[:, None] - bp[None, :]), axis=1) > 1e-9
    return np.sort(np.concatenate([grid[keep], bp]))


def write_trajectories_per_row(result, path: str):
    step = result.scenario.run.sample_step
    lines = ["t,p,v,u,arc_kind,cav_id"]
    for run in result.runs:
        traj = run.trajectory
        if traj is None:
            continue
        ts = _sample_times(traj, step)
        p, v, u = traj.sample(ts)
        for i, t in enumerate(ts):
            kind = traj.arc_at(float(t)).kind
            lines.append(f"{t:.6f},{p[i]:.6f},{v[i]:.6f},{u[i]:.9f},"
                         f"{kind},{run.arrival.id}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

"""Test-side reference for the planner's violation scan.

``scan_violations_sampled`` is the plain sampled scan: it evaluates the
candidate trajectory, and its leader, on a ``step`` grid joined by the arc
breakpoints and the v and u extrema, and reports the first grid point past
each threshold. ``solver.scan_violations`` finds each first crossing
exactly instead, so it reports the same (kind, direction) list at a time at
most one grid step earlier; the tests compare the two.
"""

import numpy as np

from cavcross.solver import BOUND_TOL, GAP_TOL


def scan_violations_sampled(traj, cfg, *, u_limits=None, leader=None,
                            lateral_tm=None, step=1e-3):
    """Earliest violation of each constraint kind on a candidate trajectory.

    Samples densely and augments with closed-form arc extrema; returns a list
    of (t, kind, direction, magnitude) sorted by time then fixed priority
    (control, speed, rear_end, lateral).
    """
    u_lo, u_hi = u_limits if u_limits is not None else (cfg.u_min, cfg.u_max)
    ts = traj.dense_times(step)
    p, v, u = traj.sample(ts)

    found = []

    def first_cross(mask, magnitude, kind, direction):
        idx = np.argmax(mask)
        if mask[idx]:
            found.append((float(ts[idx]), kind, direction, float(magnitude[idx])))

    first_cross(u > u_hi + BOUND_TOL, u - u_hi, "control", +1)
    first_cross(u < u_lo - BOUND_TOL, u_lo - u, "control", -1)
    first_cross(v > cfg.v_max + BOUND_TOL, v - cfg.v_max, "speed", +1)
    first_cross(v < cfg.v_min - BOUND_TOL, cfg.v_min - v, "speed", -1)
    if leader is not None:
        lead = leader.extended(traj.tf)
        pk, _, _ = lead.sample(ts)
        gap = p + cfg.phi * v + cfg.delta0 - pk
        first_cross(gap > GAP_TOL, gap, "rear_end", +1)
    if lateral_tm is not None and lateral_tm > traj.t0:
        t_eval = min(lateral_tm, traj.tf)
        p_at = traj.eval(t_eval)[0]
        if p_at > cfg.L + GAP_TOL:
            found.append((float(t_eval), "lateral", +1, float(p_at - cfg.L)))

    priority = {"control": 0, "speed": 1, "rear_end": 2, "lateral": 3}
    found.sort(key=lambda it: (it[0], priority[it[1]]))
    return found

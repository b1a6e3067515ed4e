"""Oracle-side cost of an analytic trajectory, for the tests.

``oracle_eval_control`` rolls the analytic control through the oracle's
discrete dynamics without optimizing anything, so the tests can check that
the transcription and the closed form agree to second order in the step.
"""
from __future__ import annotations

import numpy as np

from cavcross.verifier import _rollout


def oracle_eval_control(traj, cfg, dt=0.01):
    """Oracle-side cost of the analytic control, no optimization.

    Samples the control at step midpoints, rolls the discrete dynamics, and
    integrates the running cost on the same grid; agreement with the
    closed-form cost is second-order in the step.
    """
    t0, tf = traj.t0, traj.tf
    n = max(int(round((tf - t0) / dt)), 1)
    h = (tf - t0) / n
    mids = t0 + (np.arange(n) + 0.5) * h
    u = traj.sample(mids)[2]
    p, v = _rollout(u, t0, traj.eval(t0)[1], h)
    cost = cfg.gamma * (tf - t0) + float(np.sum(0.5 * u * u) * h)
    return cost, p, v

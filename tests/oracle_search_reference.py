"""The free-horizon search of ``transcription_oracle`` as it was before it
skipped candidates: every candidate horizon is solved.

The scan, the golden section and the final solve are kept verbatim; each
fixed-horizon solve goes through the public ``transcription_oracle(tf=...)``.
``tests/test_verifier.py`` asserts that the search in ``verifier.py``, which
solves only the candidates whose cost can change a decision, returns the same
``OracleResult`` as this one.
"""
from __future__ import annotations

import math

import numpy as np

from cavcross.verifier import transcription_oracle


def free_horizon_oracle(t0, v0, cfg, *, dt=0.01, leader=None, lateral_tm=None,
                        u_limits=None, iters=10000):
    def solve_fixed(tf_val):
        return transcription_oracle(t0, v0, cfg, tf=tf_val, dt=dt, leader=leader,
                                    lateral_tm=lateral_tm, u_limits=u_limits,
                                    iters=iters)

    # outer scan on the horizon, memoized on the rounded candidate
    cache = {}

    def outer_cost(tf_val):
        key = round(tf_val, 6)
        if key not in cache:
            res = solve_fixed(tf_val)
            cache[key] = res.cost if res.feasible else res.cost + 1e3 * (1.0 + res.max_violation)
        return cache[key]

    t_scan0 = t0 + cfg.exit_distance / max(cfg.v_max, v0)
    t_scan1 = t0 + cfg.exit_distance / max(min(v0, cfg.v_max) * 0.35, 0.5)
    grid = list(np.linspace(t_scan0, t_scan1, 7))
    best = min(grid, key=outer_cost)
    span = grid[1] - grid[0]
    lo, hi = best - span, best + span
    phi_g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(10):
        m1 = hi - phi_g * (hi - lo)
        m2 = lo + phi_g * (hi - lo)
        if outer_cost(m1) < outer_cost(m2):
            hi = m2
        else:
            lo = m1
    return solve_fixed(0.5 * (lo + hi))

"""Test-side reference for the pinned cubic and the merging-zone hold.

``solve_p1_fixed_lu`` and ``solve_lateral_lu`` are the linear-system solves
that ``solver.solve_p1_fixed`` and ``solver.solve_lateral`` replaced by
their closed forms: a 4x4 system for the pinned cubic and an 8x8 system for
the hold pair, the free hold bracketing the tail Hamiltonian on the same
dwell ladder with one 8x8 solve per evaluation. The replay test requires the
closed forms to give the same coefficients, exit times and exceptions.

The absolute-time cubic helpers below are the ones the solver used before
``Arc.through`` placed every cubic; ``limits_reference`` shares them.
"""

import math
from dataclasses import dataclass

import numpy as np

from cavcross.model import Arc, ConfigError, PiecewiseTrajectory, ScenarioConfig
from cavcross.roots import bracket_roots
from cavcross.solver import SolveReport, SolverError, StructureError


def _cub_u(a, b, t):
    return a * t + b


def _cub_v(a, b, c, t):
    return (0.5 * a * t + b) * t + c


def _cub_p(a, b, c, d, t):
    return ((a / 6.0 * t + 0.5 * b) * t + c) * t + d


def _init_cd(t0, v0, a, b):
    """c, d making v(t0) = v0 and p(t0) = 0."""
    c = v0 - 0.5 * a * t0 * t0 - b * t0
    d = -((a / 6.0 * t0 + 0.5 * b) * t0 + c) * t0
    return c, d


@dataclass(frozen=True)
class UnconstrainedParams:
    a: float
    b: float
    c: float
    d: float
    tf: float


def _single_cubic_traj(t0, tf, a, b, c, d):
    return PiecewiseTrajectory((Arc(t_start=t0, t_end=tf, a=a, b=b, c=c, d=d),))


def solve_p1_fixed_lu(t0, v0, tf, cfg: ScenarioConfig, report: SolveReport | None = None):
    """Pinned-terminal-time unconstrained solve (linear system).

    Rows: entry position, entry speed, exit position, vanishing terminal
    control. Residual is checked at 1e-12 relative.
    """
    if tf <= t0 + 1e-9:
        raise ConfigError("terminal time must exceed the entry time")
    D = cfg.exit_distance
    A = np.array([
        [t0**3 / 6.0, 0.5 * t0**2, t0, 1.0],
        [0.5 * t0**2, t0, 1.0, 0.0],
        [tf**3 / 6.0, 0.5 * tf**2, tf, 1.0],
        [tf, 1.0, 0.0, 0.0],
    ])
    rhs = np.array([0.0, v0, D, 0.0])
    x = np.linalg.solve(A, rhs)
    resid = float(np.max(np.abs(A @ x - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if resid > 1e-12 * scale:
        raise SolverError(f"fixed-terminal linear solve residual {resid:.3e} too large")
    a, b, c, d = (float(z) for z in x)
    if report is not None:
        report.log("fixed_terminal", residual=resid / scale, iters=0, tf=tf)
    return UnconstrainedParams(a, b, c, d, tf), _single_cubic_traj(t0, tf, a, b, c, d)


def solve_lateral_lu(t0, v0, tm, cfg: ScenarioConfig, *, terminal="free",
                     tf_fixed=None, report: SolveReport | None = None):
    """Two cubics joined where the position cap p(tm) = L binds.

    Position, speed, and control stay continuous at the junction; the costate
    jump lands entirely in lambda_p (zeta = a - e >= 0). Pinned terminal time
    gives a linear 8x8 system; free terminal adds the vanishing-Hamiltonian
    condition on the departing cubic through an outer scalar solve.
    """
    L, D = cfg.L, cfg.exit_distance
    if tm <= t0 + 1e-9:
        raise ConfigError("position-cap time precedes the entry time")

    def linear_solve(tf):
        A = np.zeros((8, 8))
        rhs = np.zeros(8)
        # incoming cubic rows: entry position/speed, cap position
        A[0, :4] = [t0**3 / 6.0, 0.5 * t0**2, t0, 1.0]
        A[1, :4] = [0.5 * t0**2, t0, 1.0, 0.0]
        rhs[1] = v0
        A[2, :4] = [tm**3 / 6.0, 0.5 * tm**2, tm, 1.0]
        rhs[2] = L
        # departing cubic rows: cap position, exit position, zero exit control
        A[3, 4:] = [tm**3 / 6.0, 0.5 * tm**2, tm, 1.0]
        rhs[3] = L
        A[4, 4:] = [tf**3 / 6.0, 0.5 * tf**2, tf, 1.0]
        rhs[4] = D
        A[5, 4:] = [tf, 1.0, 0.0, 0.0]
        # junction continuity of speed and control
        A[6, :4] = [0.5 * tm**2, tm, 1.0, 0.0]
        A[6, 4:] = [-0.5 * tm**2, -tm, -1.0, 0.0]
        A[7, :4] = [tm, 1.0, 0.0, 0.0]
        A[7, 4:] = [-tm, -1.0, 0.0, 0.0]
        x = np.linalg.solve(A, rhs)
        resid = float(np.max(np.abs(A @ x - rhs)))
        return x, resid

    if terminal == "fixed":
        if tf_fixed is None or tf_fixed <= tm + 1e-9:
            raise ConfigError("pinned terminal time must lie beyond the cap time")
        x, resid = linear_solve(tf_fixed)
        tf = tf_fixed
    else:
        # the tail Hamiltonian runs from -inf at zero dwell up through its
        # root, then humps back toward 0+; bracket the single crossing on a
        # geometric ladder of dwell times
        def h_tail(dur):
            tf = tm + dur
            try:
                x, _ = linear_solve(tf)
            except np.linalg.LinAlgError:
                return math.nan
            e, r, q = x[4], x[5], x[6]
            uf = _cub_u(e, r, tf)
            vf = _cub_v(e, r, q, tf)
            return cfg.gamma - 0.5 * uf * uf + e * vf

        base = max((D - L) / max(v0, 0.5), 0.5)
        ladder = [base * f for f in (1e-9, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8,
                                     1.6, 3.2, 6.4, 12.8, 25.6)]
        if tf_fixed:
            ladder.append(max(tf_fixed - tm, 1e-3))
            ladder.sort()
        roots = bracket_roots(h_tail, ladder)
        if not roots:
            raise StructureError("free-terminal position-cap solve failed")
        tf = tm + roots[0]
        x, resid = linear_solve(tf)

    scale = max(1.0, D)
    if resid > 1e-12 * scale * 10:
        raise SolverError(f"position-cap linear solve residual {resid:.3e} too large")
    a, b, c, d, e, r, q, m = (float(z) for z in x)
    zeta = a - e
    first = Arc(t_start=t0, t_end=tm, a=a, b=b, c=c, d=d)
    second = Arc(t_start=tm, t_end=tf, a=e, b=r, c=q, d=m)
    traj = PiecewiseTrajectory((first, second))
    if report is not None:
        report.log("position_cap", residual=resid / scale, tm=tm, tf=tf)
    return traj, {"a": a, "b": b, "c": c, "d": d, "e": e, "r": r, "q": q, "m": m,
                  "tf": tf, "zeta": zeta}

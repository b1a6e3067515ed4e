"""The damped Newton solver the planner's coupled solves once went through,
kept verbatim for the references that still solve with it
(``follower_reference``, ``limits_reference``, ``safety_reference``).

``solve_system`` -- damped Newton on a stacked residual vector:
forward-difference Jacobian, Armijo backtracking on the squared residual
norm, and a deterministic ladder of initial guesses supplied by the caller.
No randomness, so solves are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FD_STEP = 1e-7
MAX_ITER = 100
TOL = 1e-10


@dataclass
class NewtonResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    start_index: int = 0


def _jacobian(fn, x, r0):
    n = x.size
    J = np.empty((r0.size, n))
    for j in range(n):
        h = FD_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (fn(xp) - r0) / h
    return J


def _solve_one(fn, x0, tol, max_iter):
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(fn(x), dtype=float)
    best_x, best_norm = x.copy(), float(np.max(np.abs(r)))
    for it in range(1, max_iter + 1):
        norm = np.max(np.abs(r))
        if norm <= tol:
            return NewtonResult(x, float(norm), it - 1, True)
        J = _jacobian(fn, x, r)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        merit0 = float(r @ r)
        lam = 1.0
        while lam >= 1e-12:
            x_new = x + lam * step
            r_new = np.asarray(fn(x_new), dtype=float)
            if np.all(np.isfinite(r_new)) and float(r_new @ r_new) <= merit0 * (1.0 - 1e-4 * lam):
                break
            lam *= 0.5
        else:
            break
        x, r = x_new, r_new
        norm = float(np.max(np.abs(r)))
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
    norm = float(np.max(np.abs(r)))
    if norm <= tol:
        return NewtonResult(x, norm, max_iter, True)
    return NewtonResult(best_x, best_norm, max_iter, False)


def solve_system(fn, starts, tol=TOL, max_iter=MAX_ITER) -> NewtonResult:
    """Try each start in order; return the first converged result.

    ``starts`` is a deterministic list of initial-guess vectors (the caller
    builds at most 8 of them). On total failure the best attempt is returned
    with ``converged=False`` so the caller can raise with context.
    """
    best = None
    for k, x0 in enumerate(starts):
        try:
            res = _solve_one(fn, np.asarray(x0, dtype=float), tol, max_iter)
        except (FloatingPointError, OverflowError, ValueError):
            continue
        res.start_index = k
        if res.converged:
            return res
        if best is None or res.residual_norm < best.residual_norm:
            best = res
    if best is None:
        best = NewtonResult(np.asarray(starts[0], dtype=float), np.inf, 0, False)
    return best

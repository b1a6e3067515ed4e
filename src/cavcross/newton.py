"""The solver's root finders.

* ``bracket_roots`` -- every root of a scalar function on a grid: one scan
  for zeros and sign changes, as arrays when the grid values come from one
  vectorized evaluation, each bracket refined by Chandrupatla's hybrid of
  inverse quadratic interpolation and bisection (Chandrupatla 1997; the
  same family as Brent 1973). The free horizon, the gap-ride entry and
  exit, the position-cap dwell, arc extrema and position crossings go
  through it.
* ``quadratic_roots`` and ``smallest_positive_root`` -- the closed-form
  roots of a quadratic, the second elementwise over arrays, for the
  gap-ride departure scan.
* ``solve_system`` -- damped Newton on a stacked residual vector:
  forward-difference Jacobian, Armijo backtracking on the squared residual
  norm, and a deterministic ladder of initial guesses supplied by the
  caller. Its one caller in the solver is the follower terminal
  (``solver.solve_p1_follower``), with one unknown, its exit time, from one
  start. It stays while the benchmark's tracer wraps it by name
  (``bench/spans.py``); once that goes, the root can go through
  ``bracket_roots`` and ``solve_system`` can be deleted.

No randomness, so solves are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FD_STEP = 1e-7
MAX_ITER = 100
TOL = 1e-10
_EPS = float(np.finfo(float).eps)   # a Python float, so every root is one


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


def bracket_roots(fn, grid, values=None) -> list:
    """Every root of the scalar ``fn`` on ``grid``, in grid order.

    ``fn`` is evaluated once at each grid point, unless the caller passes
    those values as ``values`` (from one vectorized evaluation); it is then
    called only inside brackets. A point where it is exactly zero is a root;
    a neighbouring pair of opposite signs brackets one, which is refined
    until the bracket is a few ulps wide. A pair touching a NaN is skipped,
    so callers mark points where ``fn`` is undefined with NaN, and a bracket
    whose interior evaluates to NaN gives no root. Given ``values``, the
    zeros and sign changes are found as arrays, over the whole grid at once;
    otherwise point by point, beside the evaluations of ``fn``.
    """
    if values is None:
        xs = [float(x) for x in grid]
        fs = [float(fn(x)) for x in xs]
        hits = [i for i, f in enumerate(fs)
                if f == 0.0 or (i + 1 < len(fs) and f * fs[i + 1] < 0.0)]
    else:
        xs = np.asarray(grid, dtype=float)
        fs = np.asarray(values, dtype=float)
        at = fs == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            at[:-1] |= fs[:-1] * fs[1:] < 0.0
        hits = np.flatnonzero(at).tolist()
    roots = []
    for i in hits:
        x0, f0 = float(xs[i]), float(fs[i])
        if f0 == 0.0:
            roots.append(x0)
            continue
        root = _chandrupatla(fn, x0, float(xs[i + 1]), f0, float(fs[i + 1]))
        if root is not None:
            roots.append(root)
    return roots


def _chandrupatla(fn, a, b, fa, fb):
    """Root inside [a, b] with fa*fb < 0, to within 2 eps of its magnitude.

    Each step interpolates the last three points by an inverse quadratic when
    they make it safe and bisects otherwise; the trial point stays at least
    the tolerance inside the bracket, so the bracket shrinks every step.
    """
    c, fc = b, fb
    t = 0.5
    for _ in range(MAX_ITER):
        xt = a + t * (b - a)
        ft = float(fn(xt))
        if math.isnan(ft):
            return None
        if (ft < 0.0) == (fa < 0.0):
            c, fc = a, fa
        else:
            c, fc = b, fb
            b, fb = a, fa
        a, fa = xt, ft
        xm, fm = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        tol = _EPS * abs(xm) + 1e-300
        tl = tol / abs(b - a)
        if fm == 0.0 or tl > 0.5:
            return xm
        xi = (a - b) / (c - b)
        ph = (fa - fb) / (fc - fb)
        if ph * ph < xi and (1.0 - ph) ** 2 < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5
        t = min(1.0 - tl, max(tl, t))
    return xm


def quadratic_roots(c0, c1, c2):
    """Real roots of c2*t^2 + c1*t + c0 (none when all three vanish)."""
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [q / c2] + ([c0 / q] if q != 0.0 else [])


def smallest_positive_root(A, B, C):
    """Smallest positive root of A*s^2 + B*s + C, NaN when there is none,
    elementwise: the roots of ``quadratic_roots`` by the same arithmetic."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (B + np.copysign(np.sqrt(B * B - 4.0 * A * C), B))
        first = np.where(A == 0.0, np.where(B != 0.0, -C / B, np.nan), q / A)
        second = np.where((A != 0.0) & (q != 0.0), C / q, np.nan)
    return np.fmin(np.where(first > 0.0, first, np.nan), np.where(second > 0.0, second, np.nan))

"""The planner's root finders.

* ``bracket_roots`` -- every root of a scalar function on a grid: one scan
  for zeros and sign changes, as arrays when the grid values come from one
  vectorized evaluation, each bracket refined by Chandrupatla's hybrid of
  inverse quadratic interpolation and bisection (Chandrupatla 1997; the
  same family as Brent 1973). The free horizon, the follower terminal, the
  gap-ride entry and exit, the position-cap dwell, arc extrema and position
  crossings go through it.
* ``quadratic_roots`` and ``quadratic_root_pairs`` -- the closed-form roots
  of a quadratic, the second elementwise over arrays, for the gap-ride
  departure scan and the range of a cubic over an interval.

No randomness, so solves are reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ITER = 100
_EPS = float(np.finfo(float).eps)   # a Python float, so every root is one


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


def quadratic_root_pairs(c0, c1, c2):
    """Both real roots of c2*t^2 + c1*t + c0, elementwise, by the arithmetic
    of ``quadratic_roots`` and in its order; NaN where a root is missing
    (a linear equation has only the first)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        first = np.where(c2 == 0.0, np.where(c1 != 0.0, -c0 / c1, np.nan), q / c2)
        second = np.where((c2 != 0.0) & (q != 0.0), c0 / q, np.nan)
    return first, second

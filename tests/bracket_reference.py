"""``newton.bracket_roots`` as it was before its sign scan moved to numpy,
kept verbatim: one Python pass over the grid, refining each bracket as it
is met. ``tests/test_newton.py`` replays it against the array scan bit for
bit on random grids with exact zeros and NaNs.
"""
from __future__ import annotations

from cavcross.newton import _chandrupatla


def bracket_roots(fn, grid, values=None) -> list:
    """Every root of the scalar ``fn`` on ``grid``, in grid order.

    ``fn`` is evaluated once at each grid point, unless the caller passes
    those values as ``values`` (from one vectorized evaluation); it is then
    called only inside brackets. A point where it is exactly zero is a root;
    a neighbouring pair of opposite signs brackets one, which is refined
    until the bracket is a few ulps wide. A pair touching a NaN is skipped,
    so callers mark points where ``fn`` is undefined with NaN, and a bracket
    whose interior evaluates to NaN gives no root.
    """
    xs = [float(x) for x in grid]
    fs = [float(fn(x)) for x in xs] if values is None else [float(f) for f in values]
    roots = []
    for i, (x0, f0) in enumerate(zip(xs, fs)):
        if f0 == 0.0:
            roots.append(x0)
        elif i + 1 < len(xs) and f0 * fs[i + 1] < 0.0:
            root = _chandrupatla(fn, x0, xs[i + 1], f0, fs[i + 1])
            if root is not None:
                roots.append(root)
    return roots

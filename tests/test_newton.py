import math

import numpy as np
import pytest

from cavcross.roots import bracket_roots
from bracket_reference import bracket_roots as reference_bracket_roots
from newton_reference import solve_system


def test_scalar_root():
    res = solve_system(lambda x: np.array([x[0] ** 2 - 2.0]), [np.array([1.0])])
    assert res.converged
    assert res.x[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_coupled_system():
    def fn(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

    res = solve_system(fn, [np.array([1.0, 2.0])])
    assert res.converged
    assert res.x == pytest.approx([math.sqrt(2.0)] * 2, abs=1e-9)
    assert res.residual_norm <= 1e-10


def test_multi_start_falls_through_to_working_guess():
    def fn(x):
        # log forces the first (negative) start to fail immediately
        return np.array([math.log(x[0]) - 1.0])

    res = solve_system(fn, [np.array([-5.0]), np.array([2.0])])
    assert res.converged
    assert res.x[0] == pytest.approx(math.e, rel=1e-10)
    assert res.start_index == 1


def test_nonconvergence_is_flagged_not_raised():
    res = solve_system(lambda x: np.array([x[0] ** 2 + 1.0]),
                       [np.array([0.5])], max_iter=20)
    assert not res.converged
    assert res.residual_norm > 0.5


def test_deterministic_repeat():
    def fn(x):
        return np.array([np.cos(x[0]) - x[0]])

    a = solve_system(fn, [np.array([0.1])])
    b = solve_system(fn, [np.array([0.1])])
    assert a.x[0] == b.x[0]
    assert a.iterations == b.iterations


def test_stiff_exponential_system():
    # two-scale residual exercises the Armijo backtracking path
    def fn(x):
        return np.array([math.exp(3.0 * x[0]) - 2.0, 1e4 * (x[1] - x[0] ** 2)])

    res = solve_system(fn, [np.array([1.5, 1.5])])
    assert res.converged
    x0 = math.log(2.0) / 3.0
    assert res.x == pytest.approx([x0, x0 ** 2], abs=1e-8)


def _within_ulps(x, ref, n=4):
    return abs(x - ref) <= n * math.ulp(ref)


def test_bracket_roots_finds_every_sign_change_in_grid_order():
    roots = bracket_roots(math.sin, np.linspace(0.5, 10.0, 40))
    assert len(roots) == 3
    for k, r in enumerate(roots, start=1):
        assert _within_ulps(r, k * math.pi)


def test_bracket_roots_converges_to_a_few_ulps():
    (r,) = bracket_roots(lambda x: x * x - 2.0, [0.0, 3.0])
    assert _within_ulps(r, math.sqrt(2.0))
    (r,) = bracket_roots(lambda x: math.cos(x) - x, np.linspace(0.0, 2.0, 5))
    assert abs(math.cos(r) - r) <= 4 * math.ulp(r)


def test_bracket_roots_takes_precomputed_grid_values():
    grid = np.linspace(0.5, 10.0, 40)
    calls = []

    def counted_sin(x):
        calls.append(x)
        return math.sin(x)

    roots = bracket_roots(counted_sin, grid, np.sin(grid))
    assert roots == bracket_roots(math.sin, grid)
    # fn is called only inside the three brackets
    assert all(not np.any(grid == x) for x in calls)


def test_bracket_roots_keeps_an_exact_zero_at_a_grid_point():
    # the zero at x = 1 sits on the grid and is reported once; the other
    # root lies between grid points
    roots = bracket_roots(lambda x: (x - 1.0) * (x - 2.3), np.linspace(0.0, 3.0, 7))
    assert roots[0] == 1.0
    assert len(roots) == 2
    assert _within_ulps(roots[1], 2.3)


def test_bracket_roots_without_a_sign_change_is_empty():
    assert bracket_roots(lambda x: x * x + 1.0, np.linspace(-2.0, 2.0, 9)) == []
    # a double root between grid points touches zero without crossing it
    assert bracket_roots(lambda x: (x - 0.7) ** 2, np.linspace(0.0, 2.0, 5)) == []


def test_bracket_roots_skips_nan_gaps():
    def holed(x):
        return math.nan if 1.0 < x < 2.0 else math.sin(x)

    # the sign change of x - 1.5 sits inside the hole and is not invented;
    # the root of sin at pi, past the hole, is still found
    assert bracket_roots(lambda x: math.nan if 1.0 < x < 2.0 else x - 1.5,
                         np.linspace(0.0, 3.0, 7)) == []
    (r,) = bracket_roots(holed, np.linspace(0.5, 4.0, 8))
    assert _within_ulps(r, math.pi)
    # a hole strictly inside a bracket leaves that bracket without a root
    assert bracket_roots(lambda x: math.nan if 1.25 < x < 1.35 else x - 1.3,
                         [1.0, 2.0]) == []


def test_bracket_roots_returns_python_floats():
    # the triple root's last trial point comes from the tolerance clamp of
    # the interpolation step, which once made the root an np.float64
    (r,) = bracket_roots(lambda x: (x - 0.3) ** 3, [-2.0, 3.0])
    assert type(r) is float
    assert abs(r - 0.3) <= 1e-15


def _replay_grid(rng, size):
    """A random grid and values on it: sign changes, exact zeros, NaN holes
    and products of neighbours that overflow or underflow."""
    grid = np.sort(rng.uniform(-5.0, 5.0, size))
    a, b = rng.uniform(0.5, 6.0), rng.uniform(-3.0, 3.0)
    values = np.sin(a * grid + b) * 10.0 ** rng.uniform(-200.0, 200.0, size)
    values[rng.random(size) < 0.05] = 0.0
    values[rng.random(size) < 0.05] = math.nan
    return grid, values, lambda x: math.sin(a * x + b)


@pytest.mark.parametrize("seed", range(40))
def test_bracket_roots_replays_the_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    grid, values, fn = _replay_grid(rng, int(rng.integers(0, 300)))
    on_grid = dict(zip(grid.tolist(), values.tolist()))

    def gridded(x):
        # the drawn values at the grid points, NaN holes and zeros included
        return on_grid.get(x, fn(x))

    for args in ((fn, grid, values), (gridded, grid), (gridded, list(grid)),
                 (fn, tuple(grid), list(values))):
        roots = bracket_roots(*args)
        ref = reference_bracket_roots(*args)
        assert [(type(r), r) for r in roots] == [(type(r), r) for r in ref]

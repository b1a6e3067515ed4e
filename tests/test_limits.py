"""The closed-form saturation families against the Newton reference.

``solver.solve_limits`` solves each (family, terminal) case by hand;
``limits_reference.solve_limits_newton`` is the shooting solve it replaced.
On every call ``plan()`` makes over the fixtures and the c7 sweep, on the c8
limits instances and on a hand grid of both directions, the two fail with
the same exception or give the same arcs, junction times and samples to
1e-9. Where Newton's starting guesses miss a solution, the closed form still
meets the optimality conditions. The free mirrored blend is the one case
where they part: it has no solution, and what Newton returns there leaves
H = 2*gamma. No case calls a Newton solve or a bracketed root.
"""
import warnings

import numpy as np
import pytest

import cavcross.solver as solver
import test_acceptance
from cavcross.fixtures import FIXTURES, fixture
from cavcross.model import ConfigError, ScenarioConfig
from cavcross.sim import load_scenario, run_simulation
from cavcross.solver import SolveReport, SolverError, StructureError, solve_limits
from limits_reference import solve_limits_newton
from test_acceptance import _oracle_cases, _random_scenario

TOL = 1e-9
CAP = ScenarioConfig(v_max=13.5, u_max=0.2, u_min=-0.2)
WIDE = ScenarioConfig(v_max=20.0, u_max=0.2, u_min=-0.2)
FLOOR = ScenarioConfig(v_max=20.0, v_min=7.0, u_min=-0.1)
BLEND = {"sat_u": True, "sat_v": True}
SAT = {"sat_u": True, "sat_v": False}
RELAX = {"sat_u": False, "sat_v": True}


def _fixed(tf):
    return {"terminal": "fixed", "tf_fixed": tf}


def _case(cfg, v0, family, direction, terminal=None):
    return cfg, v0, {**family, "direction": direction, **(terminal or {})}


# every (family, terminal) case in both directions: (case, solvable)
HAND_GRID = [
    (_case(CAP, 10.0, BLEND, +1), True),
    (_case(CAP, 6.0, BLEND, +1), False),            # cap cruise overshoots the exit
    (_case(CAP, 12.0, BLEND, +1), False),           # blend would start before t0
    (_case(CAP, 10.0, BLEND, +1, _fixed(32.1)), True),
    (_case(CAP, 10.0, BLEND, +1, _fixed(15.0)), False),  # pin inside the ramp
    (_case(CAP, 10.0, BLEND, +1, _fixed(20.0)), False),  # pin outside the range
    (_case(WIDE, 10.0, SAT, +1), True),
    (_case(WIDE, 6.0, SAT, +1), True),
    (_case(WIDE, 12.0, SAT, +1), False),
    (_case(WIDE, 10.0, SAT, +1, _fixed(32.1)), True),
    (_case(WIDE, 6.0, SAT, +1, _fixed(36.0)), False),
    (_case(CAP, 12.0, RELAX, +1), True),
    (_case(CAP, 15.0, RELAX, +1), False),
    (_case(CAP, 9.0, RELAX, +1, _fixed(32.1)), True),
    (_case(CAP, 6.0, RELAX, +1, _fixed(36.0)), True),
    (_case(CAP, 6.0, RELAX, +1, _fixed(40.0)), False),
    # the free mirrored blend has no solution (see the test below)
    (_case(FLOOR, 9.0, BLEND, -1, _fixed(54.0)), True),
    (_case(FLOOR, 13.0, BLEND, -1), False),
    (_case(FLOOR, 10.0, BLEND, -1, _fixed(50.0)), True),
    (_case(FLOOR, 10.0, BLEND, -1, _fixed(45.0)), False),
    (_case(FLOOR, 6.0, BLEND, -1, _fixed(40.0)), False),
    (_case(FLOOR, 6.0, SAT, -1), False),
    (_case(FLOOR, 10.0, SAT, -1), False),           # H(tf) = 0 asks for v(tf) < 0
    (_case(FLOOR, 10.0, SAT, -1, _fixed(55.0)), True),
    (_case(FLOOR, 6.0, SAT, -1, _fixed(40.0)), False),
    (_case(FLOOR, 6.0, RELAX, -1), True),
    (_case(FLOOR, 10.0, RELAX, -1), False),         # H = 0 asks for a rising speed
    (_case(FLOOR, 10.0, RELAX, -1, _fixed(55.0)), True),
    (_case(FLOOR, 6.0, RELAX, -1, _fixed(40.0)), False),
]

# relax-then-cruise cases whose unique solution Newton's starting guesses miss
NEWTON_MISSES = [
    _case(CAP, 10.0, RELAX, +1),
    _case(FLOOR, 13.0, RELAX, -1, _fixed(45.0)),
]


def _outcome(fn, cfg, v0, kwargs, t0=0.0):
    try:
        return fn(t0, v0, cfg, **kwargs)
    except (ConfigError, SolverError) as exc:  # compared by class below
        return exc


def _newton(cfg, v0, kwargs, t0=0.0):
    # the shooting reference overflows on some starting guesses before it fails
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _outcome(solve_limits_newton, cfg, v0, kwargs, t0)


def _assert_same(closed, newton):
    if isinstance(closed, Exception) or isinstance(newton, Exception):
        assert type(closed) is type(newton), (closed, newton)
        return
    (traj, info), (ref, ref_info) = closed, newton
    assert [a.kind for a in traj.arcs] == [a.kind for a in ref.arcs]
    assert info["family"] == ref_info["family"]
    for key in ("tau1", "tau2", "tf"):
        assert info[key] == pytest.approx(ref_info[key], abs=TOL), key
    ts = np.linspace(traj.t0, min(traj.tf, ref.tf), 500)
    for mine, theirs in zip(traj.sample(ts), ref.sample(ts)):
        assert np.max(np.abs(mine - theirs)) <= TOL


def test_closed_forms_match_newton_on_every_plan_call(monkeypatch):
    calls = []

    def recorded(t0, v0, cfg, **kwargs):
        calls.append((t0, v0, cfg, {k: w for k, w in kwargs.items() if k != "report"}))
        return solve_limits(t0, v0, cfg, **kwargs)

    monkeypatch.setattr(solver, "solve_limits", recorded)
    monkeypatch.setattr(test_acceptance, "solve_limits", recorded)
    for scn in [fixture(name) for name in sorted(FIXTURES)] + \
            [_random_scenario(seed) for seed in range(100)]:
        run_simulation(load_scenario(scn))
    inst_limits = {name: mk for name, mk, _ in _oracle_cases()}["limits"]
    for i in range(10):
        inst_limits(i)
    assert len(calls) >= 150
    families = set()
    for t0, v0, cfg, kwargs in calls:
        closed = _outcome(solve_limits, cfg, v0, kwargs, t0)
        _assert_same(closed, _newton(cfg, v0, kwargs, t0))
        if not isinstance(closed, Exception):
            families.add(closed[1]["family"])
    assert families == {"relax_then_cruise", "saturate_then_relax", "saturate_blend_cruise"}


@pytest.mark.parametrize("case,solvable", HAND_GRID)
def test_closed_forms_match_newton_on_the_hand_grid(case, solvable):
    cfg, v0, kwargs = case
    closed = _outcome(solve_limits, cfg, v0, kwargs)
    assert isinstance(closed, StructureError) != solvable
    _assert_same(closed, _newton(cfg, v0, kwargs))


@pytest.mark.parametrize("case", NEWTON_MISSES)
def test_closed_form_solves_where_newton_starts_miss(case):
    cfg, v0, kwargs = case
    assert isinstance(_newton(cfg, v0, kwargs), StructureError)
    traj, info = solve_limits(0.0, v0, cfg, **kwargs)
    v_sat = cfg.v_max if kwargs["direction"] > 0 else cfg.v_min
    p2, v2, u2 = traj.eval(info["tau2"])
    assert (v2, u2) == pytest.approx((v_sat, 0.0), abs=TOL)
    assert traj.eval(traj.tf)[0] == pytest.approx(cfg.exit_distance, abs=TOL)
    if "terminal" not in kwargs:
        assert cfg.gamma + info["a"] * v_sat == pytest.approx(0.0, abs=TOL)


def test_mirrored_free_blend_has_no_solution():
    # H = gamma + a*v_min vanishes only for a = -gamma/v_min < 0, which makes
    # the blend span s = -u_min/a negative; Newton's answer misses H = 0
    cfg, v0, kwargs = _case(FLOOR, 10.0, BLEND, -1)
    with pytest.raises(StructureError):
        solve_limits(0.0, v0, cfg, **kwargs)
    traj, info = _newton(cfg, v0, kwargs)
    _, v2, u2 = traj.eval(info["tau2"])
    assert (v2, u2) == pytest.approx((cfg.v_min, 0.0), abs=TOL)
    assert cfg.gamma - 0.5 * u2 * u2 + info["a"] * v2 == pytest.approx(2.0 * cfg.gamma,
                                                                        abs=TOL)


def test_every_family_solves_without_newton(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_limits must not call a root finder")

    monkeypatch.setattr(solver, "solve_system", forbidden)
    monkeypatch.setattr(solver, "bracket_roots", forbidden)
    for (cfg, v0, kwargs), solvable in HAND_GRID:
        if not solvable:
            continue
        report = SolveReport()
        traj, info = solve_limits(0.0, v0, cfg, report=report, **kwargs)
        step = report.steps[-1]
        assert step["problem"] == info["family"] and step["iters"] == 0
        assert step["residual"] == abs(traj.eval(traj.tf)[0] - cfg.exit_distance) <= TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError):
            solve_limits(0.0, 10.0, FLOOR, sat_u=False, sat_v=True, direction=-1)
        # starting on the cap leaves no relax arc: Newton returned an
        # arbitrary cruise split here
        for terminal in ({}, _fixed(CAP.exit_distance / CAP.v_max)):
            with pytest.raises(StructureError):
                solve_limits(0.0, CAP.v_max, CAP, **RELAX, **terminal)

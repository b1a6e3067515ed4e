"""The planner's exact violation scan against the sampled reference.

``solver.scan_violations`` finds each constraint's first crossing in closed
form per monotone piece; ``scan_reference.scan_violations_sampled`` is the
1 ms grid scan it replaced. On every scan ``plan()`` makes they must report
the same (kind, direction) list, the exact time at most one grid step before
the grid's; a gap excursion between two grid points shows only in the exact
scan; and the exact scan samples nothing.
"""
import numpy as np
import pytest

import cavcross.solver as solver
from cavcross.fixtures import FIXTURES, fixture
from cavcross.model import Arc, PiecewiseTrajectory, ScenarioConfig
from cavcross.sim import load_scenario, run_simulation
from cavcross.solver import (GAP_TOL, scan_violations, solve_limits, solve_p1_fixed,
                             solve_safety)
from scan_reference import scan_violations_sampled
from test_acceptance import _random_scenario

STEP = 1e-3
CFG = ScenarioConfig(v_max=20.0)
CAP = ScenarioConfig(u_max=0.2, u_min=-0.2, v_max=13.5)


def test_exact_scan_matches_sampled_scan_on_every_plan_call(monkeypatch):
    calls = []

    def recorded(traj, cfg, **kwargs):
        out = scan_violations(traj, cfg, **kwargs)
        calls.append((traj, cfg, kwargs, out))
        return out

    monkeypatch.setattr(solver, "scan_violations", recorded)
    scenarios = [fixture(name) for name in sorted(FIXTURES)]
    scenarios += [_random_scenario(seed) for seed in range(100)]
    declined = 0
    for scn in scenarios:
        result = run_simulation(load_scenario(scn))
        declined += result.exit_code != 0
    assert declined > 0        # the scans before a decline are compared too
    assert len(calls) > 600
    n_found = 0
    for traj, cfg, kwargs, exact in calls:
        ref = scan_violations_sampled(traj, cfg, step=STEP, **kwargs)
        assert [k[1:3] for k in exact] == [k[1:3] for k in ref]
        for (t_exact, *_), (t_ref, *_) in zip(exact, ref):
            assert 0.0 <= t_ref - t_exact <= STEP + 1e-9
        n_found += len(exact)
    assert n_found > 300


def _sub_step_bump():
    """A cubic follower whose gap to a cruising leader peaks between grid points.

    On [4.9, 5.1] the follower has u = -8 (no v or u extremum), so the gap's
    curvature is -8 with phi = 1 and its maximum of 1.5e-6 sits at
    t* = 5.0005, midway between the 1 ms grid points 5.000 and 5.001, where
    the gap is 0.5e-6: above GAP_TOL only for |t - t*| < 3.5e-4.
    """
    cfg = ScenarioConfig(v_max=20.0, phi=1.0, delta0=0.0)
    arc = Arc(t_start=4.9, t_end=5.1, a=0.0, b=-8.0, c=50.0, d=0.0)
    t_star = 5.0005
    v_lead = arc.v(t_star) + cfg.phi * arc.u(t_star)      # gap' = 0 at t*
    p_lead = arc.p(t_star) + cfg.phi * arc.v(t_star) - 1.5e-6
    leader = PiecewiseTrajectory((Arc.through(0.0, 10.0, p_lead - v_lead * t_star, v_lead,
                                              0.0, 0.0, kind="cruise"),))
    return PiecewiseTrajectory((arc,)), leader, cfg, t_star


def test_exact_scan_finds_a_gap_bump_between_grid_points():
    traj, leader, cfg, t_star = _sub_step_bump()
    assert traj.arcs[0].v_extrema() == [] and traj.arcs[0].u_extrema() == []
    ts = traj.dense_times(STEP)
    near = (ts > t_star - 5e-4 - 1e-9) & (ts < t_star + 5e-4 + 1e-9)
    assert near.sum() == 2
    assert scan_violations_sampled(traj, cfg, u_limits=(-10.0, 10.0), leader=leader,
                                   step=STEP) == []
    out = scan_violations(traj, cfg, u_limits=(-10.0, 10.0), leader=leader)
    assert [k[1:3] for k in out] == [("rear_end", 1)]
    t, _, _, magnitude = out[0]
    half = np.sqrt((1.5e-6 - GAP_TOL) / 4.0)
    assert t == pytest.approx(t_star - half, abs=1e-9)
    assert 5.000 < t < 5.001
    assert magnitude == pytest.approx(1.5e-6, abs=1e-9)


def test_exact_scan_samples_nothing(monkeypatch):
    counts = {"sample": 0, "dense_times": 0}
    for name in counts:
        original = getattr(PiecewiseTrajectory, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PiecewiseTrajectory, name, counted)
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, CFG)
    ride, _ = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    limits, _ = solve_limits(0.0, 10.0, CAP, terminal="free", sat_u=True, sat_v=True)
    _, far_lead = solve_p1_fixed(-10.0, 10.0, 30.0, CAP)
    cases = [(ride, CFG, dict(u_limits=(-3.0, 3.0), leader=lead)),
             (limits, CAP, dict(u_limits=(-0.2, 0.2), leader=far_lead, lateral_tm=31.0))]
    for traj, cfg, kwargs in cases:
        counts.update(sample=0, dense_times=0)
        out = scan_violations(traj, cfg, **kwargs)
        assert counts == {"sample": 0, "dense_times": 0}
        ref = scan_violations_sampled(traj, cfg, **kwargs)
        assert counts["sample"] >= 1 and counts["dense_times"] == 1
        assert [k[1:3] for k in out] == [k[1:3] for k in ref]

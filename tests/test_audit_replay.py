"""``verifier.audit`` against the whole-grid audit it replaced.

Every audit that ``run_simulation`` makes for the six fixtures, the 100 c7
scenarios and the lane streams of ``bench/inputs.STREAM_POOL`` is replayed
by ``audit_reference.audit_whole_grid`` with the same arguments: the same
checks in the same order, the same verdicts, and worst values and times
within 1e-12. The same runs gate the grid work: led audits sample at most a
quarter of their rear-end grids, and the six lane streams, and their fleet
checks alone, stay under committed counts of sampled points. Then the
closed-form candidates on their own: a leaderless audit samples no grid,
the left arc's value at a junction, which no grid point sees, is checked,
a gap that is exactly constant is reported at its earliest grid time, and
so is a flat extremum whose value the grid time before it ties.
"""
import os
import sys

import numpy as np
import pytest

from cavcross import sim
from cavcross.coordinator import check_guarantees
from cavcross.fixtures import FIXTURES, fixture
from cavcross.model import GRID_STEP, Arc, PiecewiseTrajectory, ScenarioConfig
from cavcross.solver import solve_limits, solve_p0_free
from cavcross.verifier import audit
from audit_reference import audit_whole_grid
from test_acceptance import _random_scenario

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import inputs  # noqa: E402

TOL = 1e-12
# points the six lane streams sample through PiecewiseTrajectory.sample in
# run_simulation: 27.8M with every grid sampled, 2,822,536 with the closed-form
# rear-end gap bounds, 2,391,930 with the fleet check's open pairs searched
# by worst_lag
LANE_SAMPLE_POINTS = 2_420_000
# of those, the points the fleet check samples: 434,462 with the open pieces
# sampled in full, 3,856 with worst_lag
LANE_FLEET_POINTS = 10_000


@pytest.fixture(scope="module")
def replay():
    """(audits, lane points, fleet points): (trajectory, config, keyword
    arguments, report, points sampled) of every audit made, the points the
    lane streams sample in all, and of those the fleet check's."""
    scenarios = [fixture(name) for name in sorted(FIXTURES)]
    scenarios += [_random_scenario(seed) for seed in range(100)]
    lanes = [inputs.lane_stream(s) for s in inputs.STREAM_POOL]
    calls, sizes = [], []
    sample = PiecewiseTrajectory.sample

    def counted(self, ts):
        sizes.append(np.size(ts))
        return sample(self, ts)

    def recorded(traj, cfg, **kwargs):
        before = sum(sizes)
        rep = audit(traj, cfg, **kwargs)
        calls.append((traj, cfg, kwargs, rep, sum(sizes) - before))
        return rep

    fleet = []

    def checked(coord):
        before = sum(sizes)
        rep = check_guarantees(coord)
        fleet.append(sum(sizes) - before)
        return rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "audit", recorded)
        mp.setattr(PiecewiseTrajectory, "sample", counted)
        for raw in scenarios:
            sim.run_simulation(sim.load_scenario(raw))
        sizes.clear()
        mp.setattr(sim, "check_guarantees", checked)
        for raw in lanes:
            sim.run_simulation(sim.load_scenario(raw))
        return calls, sum(sizes), sum(fleet)


@pytest.fixture(scope="module")
def audits(replay):
    """(trajectory, config, keyword arguments, report) of every audit made."""
    return [call[:4] for call in replay[0]]


def test_audit_matches_the_whole_grid_reference(audits):
    led = tracked = 0
    for traj, cfg, kwargs, rep in audits:
        ref = audit_whole_grid(traj, cfg, **kwargs)
        assert [c.name for c in rep.checks] == [c.name for c in ref.checks]
        for got, want in zip(rep.checks, ref.checks):
            assert got.ok == want.ok, got.name
            assert abs(got.worst - want.worst) <= TOL, (got, want)
            assert abs(got.t_worst - want.t_worst) <= TOL, (got, want)
        led += kwargs["leader"] is not None
        tracked += any(arc.kind == "track" for arc in traj.arcs)
    assert len(audits) > 600 and led > 200 and tracked > 20


def test_led_audits_sample_a_quarter_of_their_grids(replay):
    # the rear-end search samples i and its leader on the same runs
    evaluated = grid = 0
    for traj, _, kwargs, _, points in replay[0]:
        if kwargs["leader"] is not None:
            ts = traj.dense_times(GRID_STEP)
            grid += ts.size - int(np.searchsorted(ts, kwargs["leader"].t0))
            evaluated += points // 2
    assert 0 < evaluated <= 0.25 * grid


def test_lane_streams_sample_under_the_committed_count(replay):
    assert 0 < replay[1] <= LANE_SAMPLE_POINTS


def test_lane_fleet_checks_sample_under_the_committed_count(replay):
    assert 0 < replay[2] <= LANE_FLEET_POINTS


@pytest.fixture
def grid_calls(monkeypatch):
    """Names of the PiecewiseTrajectory grid methods called."""
    calls = []
    for name in ("sample", "dense_times"):
        original = getattr(PiecewiseTrajectory, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PiecewiseTrajectory, name, counted)
    return calls


def test_leaderless_audit_samples_no_grid(grid_calls):
    cfg = ScenarioConfig(u_max=0.2, u_min=-0.2, v_max=13.5)
    _, free = solve_p0_free(0.0, 8.0, ScenarioConfig(v_max=30.0))
    capped, _ = solve_limits(0.0, 10.0, cfg)
    assert [arc.kind for arc in capped.arcs] == ["sat", "cubic", "cruise"]
    grid_calls.clear()
    assert audit(free, ScenarioConfig(v_max=30.0)).ok
    assert audit(capped, cfg, lateral_tm=20.0).ok
    assert grid_calls == []


def test_a_junction_above_the_control_cap_fails():
    # the cubic ends 1e-6 above u_max where a sat arc at u_max takes over:
    # every grid time before the junction lies 1 ms or more back, where the
    # cubic is 5e-4 lower, and the grid evaluates the junction on the sat arc
    cfg = ScenarioConfig(v_max=50.0, u_max=3.0)
    head = Arc.through(0.0, 5.0, 0.0, 10.0, 0.5, cfg.u_max + 1e-6 - 2.5)
    tail = Arc.through(5.0, 10.0, head.p(5.0), head.v(5.0), 0.0, cfg.u_max, kind="sat")
    traj = PiecewiseTrajectory((head, tail))
    rep = audit(traj, cfg, terminal_mode="fixed")
    upper = next(c for c in rep.checks if c.name == "control upper bound")
    assert not upper.ok
    assert upper.worst == pytest.approx(1e-6, rel=1e-6) and upper.t_worst == 5.0
    assert np.isclose(audit_whole_grid(traj, cfg, terminal_mode="fixed").checks[0].worst, 0.0)


@pytest.mark.parametrize("phi, delta0, speed, lead_d", [(0.0, 0.0, 10.0, 0.0),
                                                      (1.0, 2.0, 0.0, 6.0)])
def test_a_constant_gap_is_reported_at_its_earliest_time(phi, delta0, speed, lead_d):
    # both cruise at one speed and every sampled gap is the same float: at
    # zero headway the leader's position is the follower's, at a standstill
    # both positions are constants
    cfg = ScenarioConfig(phi=phi, delta0=delta0, v_max=30.0)
    lead = PiecewiseTrajectory((Arc(1.0, 41.0, 0.0, 0.0, speed, lead_d, kind="cruise"),))
    traj = PiecewiseTrajectory((Arc(0.0, 40.0, 0.0, 0.0, speed, 0.0, kind="cruise"),))
    ts = traj.dense_times(1e-3)
    ts = ts[np.searchsorted(ts, lead.t0):]
    p, v, _ = traj.sample(ts)
    lag = p + cfg.phi * v + cfg.delta0 - lead.sample(ts)[0]
    assert np.all(lag == lag[0])
    got = audit(traj, cfg, leader=lead, terminal_mode="fixed").checks
    want = audit_whole_grid(traj, cfg, leader=lead, terminal_mode="fixed").checks
    gap = next(c for c in got if c.name == "rear-end gap")
    assert (gap.worst, gap.t_worst) == (lag[0], ts[0])
    assert [(c.name, c.worst, c.t_worst) for c in got] == [
        (c.name, c.worst, c.t_worst) for c in want]


def test_a_flat_extremum_tied_with_the_grid_is_reported_at_the_grid_time():
    # v peaks 3e-7 s after a grid time, so flat that v there is the same
    # double: the whole-grid audit reports that earlier grid time
    cfg = ScenarioConfig(v_max=20.0)
    for k in range(50):
        t_star = 0.5 + 0.79 * k + 3e-7
        traj = PiecewiseTrajectory((Arc.through(0.0, 40.0, 0.0, 12.0, -1e-3, 1e-3 * t_star),))
        for mode in ("free", "fixed"):
            got = audit(traj, cfg, terminal_mode=mode).checks
            want = audit_whole_grid(traj, cfg, terminal_mode=mode).checks
            assert [(c.name, c.worst, c.t_worst) for c in got] == [
                (c.name, c.worst, c.t_worst) for c in want], (k, mode)

"""``solver.solve_p1_follower`` against the four-unknown Newton solve it replaced.

The follower terminal is now one residual in tf, the cubic and the
multiplier eta in closed form for each horizon, whose root is bracketed on
``solver.FOLLOWER_LADDER``; ``follower_reference`` keeps the coupled solve
of (a, b, eta, tf). Every call ``run_simulation`` makes to
``solve_p1_follower`` over the six fixtures, the 100 c7 scenarios and the
lane streams of ``bench/inputs.STREAM_POOL`` is replayed by both: the same
exception class, tf and eta within 1e-9 relative, and p, v and u within
1e-9 on 500 points. The residual of each of those calls changes sign
exactly once on the ladder, and a leader crawling out so slowly that it
changes sign nowhere declines.
"""
import os
import sys

import numpy as np
import pytest

import cavcross.solver as solver
from cavcross import sim
from cavcross.fixtures import FIXTURES, fixture
from follower_reference import solve_p1_follower_newton
from test_acceptance import _random_scenario
from test_plan_replay import _varied_scenario

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import inputs  # noqa: E402

TOL = 1e-9


def _outcome(fn, args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return exc


@pytest.fixture(scope="module")
def calls():
    """(arguments, outcome) of every ``solve_p1_follower`` call made."""
    scenarios = [fixture(name) for name in sorted(FIXTURES)]
    scenarios += [_random_scenario(seed) for seed in range(100)]
    scenarios += [inputs.lane_stream(s) for s in inputs.STREAM_POOL]
    made = []
    follower = solver.solve_p1_follower

    def recorded(t0, v0, leader, cfg, report=None):
        args = (t0, v0, leader, cfg)
        made.append((args, _outcome(follower, args)))
        return follower(t0, v0, leader, cfg, report=report)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_p1_follower", recorded)
        for raw in scenarios:
            sim.run_simulation(sim.load_scenario(raw))
    return made


def test_follower_matches_the_newton_reference(calls):
    for args, got in calls:
        want = _outcome(solve_p1_follower_newton, args)
        assert type(got) is type(want), (args[:2], got, want)
        if isinstance(got, Exception):
            continue
        (_, traj, eta), (_, ref, ref_eta) = got, want
        assert traj.tf == pytest.approx(ref.tf, rel=TOL, abs=0.0)
        assert eta == pytest.approx(ref_eta, rel=TOL, abs=0.0)
        ts = np.linspace(traj.t0, min(traj.tf, ref.tf), 500)
        for x, y in zip(traj.sample(ts), ref.sample(ts)):
            assert np.max(np.abs(x - y)) <= TOL
    assert len(calls) > 100


def test_each_residual_changes_sign_once_on_the_ladder(calls):
    scanned = []

    def recorded(fn, grid):
        scanned.append((fn, grid))
        return original(fn, grid)

    original = solver.solve_system
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_system", recorded)
        for args, _ in calls:
            solver.solve_p1_follower(*args)
    assert len(scanned) == len(calls)
    for fn, grid in scanned:
        values = fn(grid)
        assert np.all(np.isfinite(values)) and np.all(values != 0.0)
        assert np.count_nonzero(values[:-1] * values[1:] < 0.0) == 1


def test_a_residual_without_a_root_declines():
    """The leader of CAV 5 in varied-caps seed 604 crawls out at 0.6 m/s,
    and the headway residual keeps one sign from 1 ms to 1,000 s behind it."""
    result = sim.run_simulation(sim.load_scenario(_varied_scenario(604)))
    declined = [r for r in result.runs if r.error is not None]
    assert [r.arrival.id for r in declined] == [5]
    assert declined[0].error.startswith("StructureError: follower-terminal solve failed")

"""The closed-form bound of the rear-end gap against dense sampling.

``model.gap_bounds`` bounds g = P_lead - p - phi*v - delta0 on each piece
between the breakpoints of both trajectories, the leader held at its exit
speed once it has left. Every gap that ``sample`` gives, here on a 1e-4 s
grid plus every piece start, must lie within GAP_MARGIN of the bounds of
the piece it falls in by ``sample``'s own rule: a time on a breakpoint
belongs to the arc that starts there.

``model.worst_lag``, the branch and bound over those bounds, must give the
maximum lag of the whole sampled grid and its earliest time whenever that
maximum reaches its ``floor``, and a value below the floor otherwise.
"""
import numpy as np
import pytest

from cavcross.coordinator import TIE_EPS
from cavcross.model import (GAP_MARGIN, Arc, PiecewiseTrajectory, ScenarioConfig, gap_bounds,
                            worst_lag)
from cavcross.solver import solve_p1_fixed, solve_safety
from test_coordinator import _cruise, _cubic

CFG = ScenarioConfig(v_max=20.0)


def _lead_pinned(tf):
    _, traj = solve_p1_fixed(0.0, 10.0, tf, CFG)
    return traj


def _lead_dip():
    # decelerate-then-recover profile: v(0)=10, v(41)=10, through the exit at 41
    return PiecewiseTrajectory((Arc(
        t_start=0.0, t_end=41.0,
        a=0.0017411238954745383, b=-0.03569303985722797, c=10.0, d=0.0),))


def _riders(lead, entries):
    """Gap riders, each behind the one before, the first behind ``lead``."""
    chain = [lead]
    for t0, v0 in entries:
        chain.append(solve_safety(t0, v0, chain[-1], CFG, terminal="follower")[0])
    return chain[1:]


def _bounded(follower, leader, cfg=CFG, t_lo=None):
    """The bounds, checked against dense samples: (starts, lower, upper, gaps, piece of each)."""
    t_lo = max(follower.t0, leader.t0) if t_lo is None else t_lo
    ta, _, _, _, ok, lower, upper = gap_bounds(follower, leader, cfg.phi, cfg.delta0,
                                               t_lo, follower.tf)
    assert ok.all() and np.all(ta[1:] >= ta[:-1])
    dense = np.unique(np.concatenate([np.arange(t_lo, follower.tf, 1e-4), ta, [follower.tf]]))
    p, v, _ = follower.sample(dense)
    gap = leader.extended(follower.tf + 1e-9).sample(dense)[0] - p - cfg.phi * v - cfg.delta0
    piece = np.searchsorted(ta, dense, side="right") - 1
    assert np.all(lower[piece] - GAP_MARGIN <= gap), np.min(gap - lower[piece])
    assert np.all(gap <= upper[piece] + GAP_MARGIN), np.max(gap - upper[piece])
    return ta, lower, upper, gap, piece


def test_gap_rides_of_solve_safety():
    lead = _lead_pinned(39.0)
    ride, sol = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    assert [arc.kind for arc in ride.arcs][1:] == ["track"] * (len(ride.arcs) - 1)
    ta, lower, upper, gap, piece = _bounded(ride, lead)
    # on the ride the gap is zero and so is its bound, to rounding
    on = ta >= sol.tau1 - 1e-9
    assert np.max(np.abs(lower[on])) < 1e-8 and np.max(np.abs(upper[on])) < 1e-8
    dip = _lead_dip()
    _bounded(solve_safety(1.5, 12.0, dip, CFG, terminal="fixed", tf_fixed=42.5)[0], dip)


def test_a_chain_of_riders_with_lifted_amplitudes():
    chain = _riders(_lead_pinned(39.0), [(2.0, 12.0), (4.0, 12.5), (6.0, 13.0)])
    assert max(len(arc.amp) for arc in chain[-1].arcs) == 3
    for follower, leader in zip(chain[1:], chain):
        _bounded(follower, leader)
    # a rider behind a predecessor that is not its own leader
    _bounded(chain[2], chain[0])


def test_a_leader_with_negative_speed():
    lead = _cubic(0.0, 2.0, 40.0, 40.0)
    assert lead.sample(np.linspace(0.0, 40.0, 401))[1].min() < 0.0
    _, lower, _, gap, _ = _bounded(_cubic(6.0, 10.0, 48.0, 10.0), lead)
    assert gap.min() < -1e-6 and lower.min() <= gap.min()
    _bounded(_cubic(35.0, 10.0, 75.0, 10.0), lead)


def test_a_crawl_exit_overtaken_on_its_held_tail():
    crawl = _cubic(0.0, 10.0, 45.0, 0.2)
    ta, lower, _, gap, piece = _bounded(_cubic(3.0, 10.0, 47.0, 14.0), crawl)
    held = piece == np.searchsorted(ta, crawl.tf)
    assert ta[-1] == crawl.tf and gap[held].min() < -1e-6
    # entered after the crawl has left: the whole window is on the hold
    ta, *_ = _bounded(_cubic(48.0, 12.0, 80.0, 12.0), crawl)
    assert ta.tolist() == [48.0]


@pytest.mark.parametrize("tf", [39.0, 41.0, 60.0])
def test_a_window_across_the_leader_exit(tf):
    # the follower's window runs past the exit at 39, or ends on it, where
    # ``extended`` adds no hold and the last grid time is on the last arc
    lead = _lead_pinned(39.0)
    follower = _cubic(2.0, 12.0, tf, 400.0 / (tf - 2.0))
    ta, *_ = _bounded(follower, lead)
    assert lead.tf in ta.tolist()


def test_a_tie_eps_tie():
    # the leader entered TIE_EPS/2 after the follower: the pair's window
    # starts at the leader's entry
    lead, follower = _cruise(5.0 + TIE_EPS / 2, 45.0), _cruise(5.0, 45.2)
    ta, lower, _, gap, _ = _bounded(follower, lead)
    assert ta[0] == lead.t0 and gap.min() < -1e-6


def _grid_lag(follower, leader, cfg=CFG):
    """(grid, lag) of the follower's 1 ms grid from the pair's start, every point sampled."""
    ts = follower.dense_times(1e-3)
    ts = ts[int(np.searchsorted(ts, leader.t0)):]
    p, v, _ = follower.sample(ts)
    return ts, p + cfg.phi * v + cfg.delta0 - leader.extended(follower.tf + 1e-9).sample(ts)[0]


def _lag_pairs():
    lead = _lead_pinned(39.0)
    chain = _riders(lead, [(2.0, 12.0), (4.0, 12.5)])
    dip = _lead_dip()
    crawl = _cubic(0.0, 10.0, 45.0, 0.2)
    back = _cubic(0.0, 2.0, 40.0, 40.0)
    return [(chain[0], lead), (chain[1], chain[0]), (chain[1], lead),
            (solve_safety(1.5, 12.0, dip, CFG, terminal="fixed", tf_fixed=42.5)[0], dip),
            (_cubic(3.0, 10.0, 47.0, 14.0), crawl), (_cubic(6.0, 10.0, 48.0, 10.0), back),
            (_cubic(35.0, 10.0, 75.0, 10.0), back)]


def test_worst_lag_floor_against_the_whole_grid():
    # gap rides (flat lag), a rider behind a predecessor not its leader, a
    # dip, a held crawl exit, a backing leader, and pairs safe by metres
    for k, (follower, leader) in enumerate(_lag_pairs()):
        ts, lag = _grid_lag(follower, leader)
        top, t_top = float(lag.max()), float(ts[int(np.argmax(lag))])

        def search(*floor):
            return worst_lag(follower, leader, CFG.phi, CFG.delta0, ts, *floor)

        assert search() == (top, t_top), k
        for floor in (-np.inf, top - 1.0, top - GAP_MARGIN, top):
            assert search(floor) == (top, t_top), (k, floor)
        for floor in (np.nextafter(top, np.inf), top + GAP_MARGIN, top + 1.0):
            assert search(floor)[0] < floor, (k, floor)

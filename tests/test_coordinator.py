import os
import sys

import numpy as np
import pytest

from cavcross import coordinator, sim
from cavcross.coordinator import TIE_EPS, Coordinator, check_guarantees
from cavcross.model import (Arc, ConfigError, PiecewiseTrajectory,
                            ScenarioConfig, VehicleArrival)
from cavcross.solver import plan, solve_p1_fixed
from guarantee_reference import check_guarantees_all_pairs, coordinator_of

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import inputs  # noqa: E402

CFG = ScenarioConfig(v_max=20.0)


def _arr(i, t0, road="N", lane=0, v0=10.0):
    return VehicleArrival(id=i, t0=t0, v0=v0, road=road, lane=lane)


def _cruise(t0, tf):
    v = 400.0 / (tf - t0)
    return PiecewiseTrajectory((Arc(t_start=t0, t_end=tf, a=0.0, b=0.0,
                                    c=v, d=-v * t0),))


def _cubic(t0, v0, tf, vf):
    """One cubic arc from (p, v) = (0, v0) at t0 to (400, vf) at tf."""
    rows = [[t ** 3 / 6.0, t ** 2 / 2.0, t, 1.0] for t in (t0, tf)]
    rates = [[t ** 2 / 2.0, t, 1.0, 0.0] for t in (t0, tf)]
    a, b, c, d = np.linalg.solve(np.array([rows[0], rates[0], rows[1], rates[1]]),
                                 [0.0, v0, 400.0, vf])
    return PiecewiseTrajectory((Arc(t_start=t0, t_end=tf, a=a, b=b, c=c, d=d),))


def _lane_queue(specs):
    """Single-lane queue of closed-form cubics, one (t0, v0, tf, vf) each."""
    co = Coordinator(CFG)
    for i, (t0, v0, tf, vf) in enumerate(specs, start=1):
        entry = co.enqueue(_arr(i, t0, v0=v0))
        co.attach(entry, _cubic(t0, v0, tf, vf))
    return co


def _checked(co):
    """check_guarantees, asserted equal to the all-pairs reference."""
    rep = check_guarantees(co)
    ref = check_guarantees_all_pairs(co)
    assert (rep.ok, rep.violations) == (ref.ok, ref.violations)
    return rep


@pytest.fixture
def searched(monkeypatch):
    """The (value, t) of every ``worst_lag`` search the fleet check makes."""
    calls = []
    original = coordinator.worst_lag

    def counted(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(coordinator, "worst_lag", counted)
    return calls


@pytest.fixture
def sampled(monkeypatch):
    """Sizes of every PiecewiseTrajectory.sample call: summed, the points sampled."""
    sizes = []
    original = PiecewiseTrajectory.sample

    def counted(self, ts):
        sizes.append(np.size(ts))
        return original(self, ts)

    monkeypatch.setattr(PiecewiseTrajectory, "sample", counted)
    return sizes


def test_queue_orders_by_entry_time():
    co = Coordinator(CFG)
    co.enqueue(_arr(1, 3.0))
    co.enqueue(_arr(2, 1.0))
    co.enqueue(_arr(3, 2.0))
    assert [e.arrival.id for e in co.entries] == [2, 3, 1]
    assert [e.index for e in co.entries] == [1, 2, 3]


def test_duplicate_id_rejected():
    co = Coordinator(CFG)
    co.enqueue(_arr(1, 0.0))
    with pytest.raises(ConfigError):
        co.enqueue(_arr(1, 5.0))


def test_partition_covers_every_predecessor_once():
    co = Coordinator(CFG)
    roads = ["N", "N", "E", "S", "W", "N", "E"]
    lanes = [0, 1, 0, 0, 0, 0, 1]
    for i, (rd, ln) in enumerate(zip(roads, lanes), start=1):
        co.enqueue(_arr(i, float(i), road=rd, lane=ln))
    for e in co.entries:
        qv = co.view(e)
        assert len(qv.groups) == e.index - 1
        assert set(qv.groups.values()) <= {"lane", "adjacent", "conflict", "clear"}


def test_group_classification():
    co = Coordinator(CFG)
    co.enqueue(_arr(1, 0.0, road="N", lane=0))
    co.enqueue(_arr(2, 1.0, road="N", lane=1))
    co.enqueue(_arr(3, 2.0, road="E"))
    co.enqueue(_arr(4, 3.0, road="S"))
    last = co.enqueue(_arr(5, 4.0, road="N", lane=0))
    qv = co.view(last)
    assert qv.groups == {1: "lane", 2: "adjacent", 3: "conflict", 4: "clear"}
    assert qv.k.arrival.id == 1
    assert qv.c.arrival.id == 3
    assert qv.o.arrival.id == 4   # newest of clear+adjacent


def test_newest_member_wins_each_group():
    co = Coordinator(CFG)
    co.enqueue(_arr(1, 0.0, road="N", lane=0))
    co.enqueue(_arr(2, 1.0, road="N", lane=0))
    last = co.enqueue(_arr(3, 2.0, road="N", lane=0))
    qv = co.view(last)
    assert qv.k.arrival.id == 2


def test_simultaneous_arrivals_draw_deterministically():
    def order(seed):
        co = Coordinator(ScenarioConfig(v_max=20.0, rng_seed=seed))
        for i, rd in enumerate(["N", "E", "S"], start=1):
            co.enqueue(_arr(i, 0.0, road=rd))
        return [e.arrival.id for e in co.entries]

    assert order(0) == order(0)
    assert order(123) == order(123)
    seen = {tuple(order(s)) for s in range(25)}
    assert len(seen) > 1   # the draw actually varies across seeds


def test_guarantees_pass_for_solved_queue():
    co = Coordinator(CFG)
    lead = co.enqueue(_arr(1, 0.0))
    tail = co.enqueue(_arr(2, 2.0, v0=12.0))
    t1, _ = plan(lead.arrival, CFG)
    co.attach(lead, t1)
    qv = co.view(tail)
    t2, _ = plan(tail.arrival, CFG, leader=qv.k.trajectory)
    co.attach(tail, t2)
    rep = _checked(co)
    assert rep.ok
    assert rep.violations == []


def test_guarantees_flag_fifo_inversion():
    co = Coordinator(CFG)
    a = co.enqueue(_arr(1, 0.0))
    b = co.enqueue(_arr(2, 2.0, road="E"))
    co.attach(a, _cruise(0.0, 40.0))
    co.attach(b, _cruise(2.0, 36.0))   # later arrival exits first
    rep = _checked(co)
    assert not rep.ok
    kinds = {v[0] for v in rep.violations}
    assert "order" in kinds


def test_guarantees_flag_rear_end_gap():
    co = Coordinator(CFG)
    a = co.enqueue(_arr(1, 0.0))
    b = co.enqueue(_arr(2, 1.0))
    co.attach(a, _cruise(0.0, 40.0))          # 10 m/s
    co.attach(b, _cruise(1.0, 34.0))          # faster, same lane: tailgates
    rep = _checked(co)
    assert any(v[0] == "rear_end" for v in rep.violations)


def test_guarantees_flag_merging_zone_overlap():
    co = Coordinator(CFG)
    a = co.enqueue(_arr(1, 0.0))
    b = co.enqueue(_arr(2, 1.0, road="E"))
    co.attach(a, _cruise(0.0, 40.0))
    # enters the zone around t=34.3 < 40: conflicting overlap, but exits
    # later so the order check alone stays silent
    co.attach(b, _cruise(1.0, 41.0))
    rep = _checked(co)
    kinds = {v[0] for v in rep.violations}
    assert kinds == {"lateral"}


def test_opposite_road_does_not_require_zone_exclusivity():
    co = Coordinator(CFG)
    a = co.enqueue(_arr(1, 0.0, road="N"))
    b = co.enqueue(_arr(2, 1.0, road="S"))
    co.attach(a, _cruise(0.0, 40.0))
    co.attach(b, _cruise(1.0, 41.0))   # same timing as the failing case above
    rep = _checked(co)
    assert rep.ok


def test_guarantees_match_reference_past_a_crawl_exit():
    # CAV 1 leaves at a crawl and the faster exits of 2 and 3 overtake its
    # held tail; CAV 4 enters after 1 and 2 have left, so the affine bound
    # over exited predecessors must let the (4, 1) pair through to sampling
    co = _lane_queue([(0.0, 10.0, 45.0, 0.2), (3.0, 10.0, 47.0, 14.0),
                      (6.0, 10.0, 50.0, 14.0), (48.0, 12.0, 80.0, 12.0)])
    rep = _checked(co)
    assert [(v[0], v[1], v[2]) for v in rep.violations] == [
        ("rear_end", 2, 1), ("rear_end", 3, 1), ("rear_end", 4, 1)]


def test_guarantees_match_reference_behind_negative_speed(sampled):
    # the leader's forced profile backs up near t = 8, so its position is
    # not monotone: the gap bound, which needs no monotone position, must
    # still find the violation, and clear the safe pair without sampling
    lead = _cubic(0.0, 2.0, 40.0, 40.0)
    assert lead.sample(np.linspace(0.0, 40.0, 401))[1].min() < 0.0
    rep = _checked(_lane_queue([(0.0, 2.0, 40.0, 40.0), (6.0, 10.0, 48.0, 10.0)]))
    assert [v[0] for v in rep.violations] == ["rear_end"]
    co = _lane_queue([(0.0, 2.0, 40.0, 40.0), (35.0, 10.0, 75.0, 10.0)])
    sampled.clear()
    assert check_guarantees(co).ok
    assert sum(sampled) == 0
    assert _checked(co).ok


def test_guarantees_match_reference_on_a_tie():
    # seed 2 queues CAV 2 ahead of CAV 1 though it entered TIE_EPS/2 later,
    # so the (1, 2) pair samples its own grid from CAV 2's entry
    co = Coordinator(ScenarioConfig(v_max=20.0, rng_seed=2))
    for i, t0, tf in ((1, 5.0, 45.2), (2, 5.0 + TIE_EPS / 2, 45.0), (3, 9.0, 49.0)):
        co.attach(co.enqueue(_arr(i, t0)), _cruise(t0, tf))
    assert [e.arrival.id for e in co.entries] == [2, 1, 3]
    rep = _checked(co)
    assert [(v[0], v[1], v[2]) for v in rep.violations] == [("rear_end", 1, 2)]
    assert rep.violations[0][3] >= 5.0 + TIE_EPS / 2


def test_guarantee_work_is_linear_in_queue_length(sampled):
    # 300 cruises 2 s apart: the all-pairs check would sample 44,850 pairs
    # over their full grids; here the closed-form gap bound clears every
    # pair, the exited predecessors of a CAV in one array expression, and
    # nothing is sampled
    n = 300
    co = Coordinator(CFG)
    for i in range(n):
        co.attach(co.enqueue(_arr(i + 1, 2.0 * i)), _cruise(2.0 * i, 2.0 * i + 40.0))
    sampled.clear()
    rep = check_guarantees(co)
    assert rep.ok
    assert sum(sampled) == 0


@pytest.mark.parametrize("delta", [-2e-9, -5e-10, 0.0, 5e-10, 2e-9])
def test_guarantees_match_reference_at_the_threshold(delta, searched):
    # two cruises at 10 m/s with a constant gap of -1e-6 + delta, across the
    # leader's exit: the bound leaves the pair open below -1e-6 + GAP_MARGIN,
    # and the lag search hands it to the sampled check, which decides at
    # -1e-6 by the reference arithmetic, whenever the lag reaches its floor
    cfg = CFG
    lag = cfg.phi * 10.0 + cfg.delta0 - 1e-6 + delta
    co = Coordinator(cfg)
    for i, t0 in ((1, 0.0), (2, lag / 10.0)):
        co.attach(co.enqueue(_arr(i, t0)), _cruise(t0, t0 + 40.0))
    rep = _checked(co)
    if abs(delta) >= 5e-10:
        assert rep.ok == (delta > 0.0)
    assert len(searched) == (delta < 1e-9)


def test_guarantees_match_reference_on_a_lane_stream(searched):
    # lane stream 0 leaves two pairs open to the closed-form bound
    result = sim.run_simulation(sim.load_scenario(inputs.lane_stream(0)))
    ref = check_guarantees_all_pairs(coordinator_of(result))
    assert (result.guarantees.ok, result.guarantees.violations) == (ref.ok, ref.violations)
    assert len(searched) == 2

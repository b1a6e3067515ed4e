import collections

import numpy as np
import pytest

import cavcross.solver as solver
from cavcross.model import Arc, PiecewiseTrajectory, ScenarioConfig, VehicleArrival
from cavcross.sim import load_scenario, run_simulation
from cavcross.solver import (InfeasibleProblem, plan, scan_violations,
                             solve_p1_fixed)

CFG = ScenarioConfig(v_max=20.0)

# CAV 4 follows CAV 3 in lane 1 of road S: its follower exit violates the
# control cap, and saturating moves the headway bound it was pinned to
REPIN_SCENARIO = {
    "schema_version": 1,
    "config": {"rng_seed": 1391, "v_max": 12, "v_min": 0, "u_max": 0.3,
               "u_min": -0.6, "phi": 1.5, "delta0": 2},
    "arrivals": [dict(id=i, t0=t0, v0=v0, road=road, lane=lane)
                 for i, t0, v0, road, lane in [(1, 9.079, 4.063, "N", 0),
                                               (2, 6.016, 8.048, "S", 0),
                                               (3, 11.785, 2.039, "S", 1),
                                               (4, 16.743, 2.87, "S", 1),
                                               (5, 11.954, 11.433, "N", 1)]],
    "run": {"sample_step": 0.05, "seed": 1391},
}


def _arr(**kw):
    base = dict(id=1, t0=0.0, v0=10.0, road="N")
    base.update(kw)
    return VehicleArrival(**base)


def _lead(tf):
    _, traj = solve_p1_fixed(0.0, 10.0, tf, CFG)
    return traj


def test_plan_unconstrained_free():
    traj, rep = plan(_arr(), CFG)
    assert rep.terminal_mode == "free"
    assert rep.active == []
    assert len(traj.arcs) == 1
    assert traj.tf == pytest.approx(32.02697700156859, abs=1e-8)


def test_plan_pinned_terminal():
    traj, rep = plan(_arr(force_tf=33.0), CFG)
    assert rep.terminal_mode == "fixed"
    assert traj.tf == 33.0
    assert traj.eval(33.0)[0] == pytest.approx(400.0, abs=1e-8)


def test_plan_fifo_pin():
    traj, rep = plan(_arr(), CFG, other_tf=35.0)
    assert rep.binding == "fifo"
    assert traj.tf == pytest.approx(35.0, abs=1e-9)
    assert len(traj.arcs) == 1


def test_plan_fifo_slack_keeps_free_exit():
    traj, rep = plan(_arr(), CFG, other_tf=30.0)
    assert rep.terminal_mode == "free"
    assert traj.tf == pytest.approx(32.02697700156859, abs=1e-8)


def test_plan_follower_ride():
    lead = _lead(39.0)
    traj, rep = plan(_arr(id=2, t0=2.0, v0=12.0), CFG, leader=lead)
    assert rep.binding == "follower"
    assert rep.terminal_mode == "follower"
    assert rep.active == ["rear_end"]
    assert traj.tf == pytest.approx(39.99998208361794, abs=1e-6)
    # the exit sits on the headway bound behind the leader
    assert traj.tf == pytest.approx(lead.tf + (CFG.phi * traj.vf + CFG.delta0) / lead.vf,
                                    abs=1e-9)
    assert any(a.kind == "track" for a in traj.arcs)
    # exit-order guarantee against the leader comes out of the headway bound
    assert traj.tf > lead.tf


def test_plan_window_fixed_point_converges_on_bound():
    lead = _lead(42.0)
    traj, rep = plan(_arr(id=2, t0=2.0, v0=12.0), CFG, leader=lead)
    bound = lead.tf + (CFG.phi * traj.vf + CFG.delta0) / lead.vf
    assert traj.tf == pytest.approx(bound, abs=1e-6)
    assert rep.window is not None and rep.window.binding == "follower"


def test_plan_lateral_hold():
    traj, rep = plan(_arr(id=2, t0=2.0, v0=12.0, force_tf=34.4), CFG,
                     lateral_tm=32.027)
    assert rep.active == ["lateral"]
    assert traj.eval(32.027)[0] == pytest.approx(370.0, abs=1e-6)
    # the costate lambda_p jumps down at the hold: zeta = a1 - a2 > 0
    assert traj.arcs[0].a - traj.arcs[1].a > 0


def test_plan_lateral_hold_with_free_exit():
    # would otherwise clear the zone before the hold releases
    traj, rep = plan(_arr(id=3, t0=0.0, v0=12.0), CFG, lateral_tm=32.027)
    assert rep.active == ["lateral"]
    assert traj.tf > 32.027
    assert traj.eval(32.027)[0] == pytest.approx(370.0, abs=1e-6)
    ts = np.linspace(0.0, 32.027, 2000)
    assert np.max(traj.sample(ts)[0]) <= 370.0 + 1e-6


def test_plan_lateral_ignored_when_slack():
    traj, rep = plan(_arr(), CFG, lateral_tm=20.0)
    # already past the merging zone only after t=20 anyway? no: p(20) < 370,
    # so the hold is slack and must not activate
    assert rep.active == []
    assert traj.eval(20.0)[0] < 370.0


def test_plan_limits_escalation():
    cfg = ScenarioConfig(v_max=13.5, u_max=0.2, u_min=-0.2)
    traj, rep = plan(_arr(), cfg)
    assert set(rep.active) == {"control+", "speed+"}
    assert rep.terminal_mode == "free"
    assert [a.kind for a in traj.arcs] == ["sat", "cubic", "cruise"]
    assert traj.tf == pytest.approx(32.34814814814429, abs=1e-6)


def test_plan_per_vehicle_control_override():
    # the arrival's own caps, not the global ones, decide activation
    cfg = ScenarioConfig(v_max=20.0)
    traj, rep = plan(_arr(u_max=0.2, u_min=-0.2), cfg)
    assert "control+" in rep.active
    ts = np.linspace(0.0, traj.tf, 4000)
    assert np.max(traj.sample(ts)[2]) <= 0.2 + 1e-9


def test_plan_infeasible_attaches_report():
    with pytest.raises(InfeasibleProblem) as exc:
        plan(_arr(force_tf=10.0), CFG)
    rep = exc.value.report
    assert rep is not None
    assert any(s.get("problem") == "violation" for s in rep.steps)


def test_scan_finds_first_violation_of_each_kind():
    cfg = ScenarioConfig(v_max=13.5)
    over_v = PiecewiseTrajectory((Arc(t_start=0.0, t_end=10.0, a=0.0,
                                      b=0.0, c=14.0, d=0.0),))
    out = scan_violations(over_v, cfg, u_limits=(-3.0, 3.0))
    assert len(out) == 1
    t, kind, direction, mag = out[0]
    assert (kind, direction) == ("speed", 1)
    assert t == 0.0
    assert mag == pytest.approx(0.5)


def test_scan_prioritizes_control_on_simultaneous_hits():
    cfg = ScenarioConfig(v_max=13.5, u_max=3.0)
    both = PiecewiseTrajectory((Arc(t_start=0.0, t_end=5.0, a=0.0,
                                    b=4.0, c=14.0, d=0.0),))
    out = scan_violations(both, cfg, u_limits=(-3.0, 3.0))
    assert out[0][1] == "control"


def test_scan_rear_end_and_hold_kinds():
    cfg = ScenarioConfig(v_max=20.0)
    lead = _lead(39.0)
    tail = PiecewiseTrajectory((Arc(t_start=2.0, t_end=34.0, a=0.0,
                                    b=0.0, c=12.5, d=-25.0),))
    kinds = {k for _, k, _, _ in scan_violations(tail, cfg, u_limits=(-3.0, 3.0),
                                                 leader=lead)}
    assert "rear_end" in kinds
    kinds2 = {k for _, k, _, _ in scan_violations(tail, cfg, u_limits=(-3.0, 3.0),
                                                  lateral_tm=33.0)}
    assert "lateral" in kinds2


def test_plan_repins_the_follower_bound_after_saturating():
    res = run_simulation(load_scenario(REPIN_SCENARIO))
    assert res.exit_code == 0
    run = next(r for r in res.runs if r.arrival.id == 4)
    rep = run.report
    assert rep.active == ["control+", "speed+"]
    assert (rep.binding, rep.terminal_mode) == ("follower", "fixed")
    solves = [(step["problem"], step["tf"]) for step in rep.steps
              if step["problem"] in ("saturate_then_relax", "saturate_blend_cruise")]
    assert [name for name, _ in solves] == ["saturate_then_relax", "saturate_then_relax",
                                            "saturate_blend_cruise"]
    assert [tf for _, tf in solves] == pytest.approx(
        [62.47040571265251, 62.52364969807996, 62.52364969807996], abs=1e-9)
    assert run.trajectory.tf == pytest.approx(62.52364969807996, abs=1e-9)
    assert run.audit.ok


FAMILY_SOLVES = ("solve_limits", "solve_safety", "solve_lateral")


@pytest.mark.parametrize("arrival,cfg,leader_tf,lateral_tm,family", [
    (dict(), ScenarioConfig(v_max=13.5, u_max=0.2, u_min=-0.2), None, None,
     {"solve_limits": 2}),
    (dict(id=2, t0=2.0, v0=12.0), CFG, 39.0, None, {"solve_safety": 1}),
    (dict(id=2, t0=2.0, v0=12.0, force_tf=34.4), CFG, None, 32.027,
     {"solve_lateral": 1}),
], ids=["limits", "safety", "lateral"])
def test_plan_looks_up_the_family_solves_at_call_time(monkeypatch, arrival, cfg,
                                                      leader_tf, lateral_tm, family):
    # a tracer wraps these module attributes after import
    leader = _lead(leader_tf) if leader_tf else None
    counts = collections.Counter()
    for name in FAMILY_SOLVES + ("composite_window",):
        def counted(*args, _fn=getattr(solver, name), _name=name, **kw):
            counts[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(solver, name, counted)
    plan(_arr(**arrival), cfg, leader=leader, lateral_tm=lateral_tm)
    assert {n: counts[n] for n in FAMILY_SOLVES} == {n: family.get(n, 0)
                                                    for n in FAMILY_SOLVES}
    assert counts["composite_window"] >= 2


def test_plan_leaves_a_free_hold_exit_beyond_the_upper_bound():
    # the re-pin pulls only an already fixed terminal back to t_upper; here
    # t_upper (85.84) precedes the hold time itself, where no pin can hold
    cfg = ScenarioConfig(v_min=5.0, v_max=16.0, u_max=1.7, u_min=-1.42)
    with pytest.raises(InfeasibleProblem, match=r"combination lateral\+speed") as exc:
        plan(_arr(t0=8.901, v0=11.589), cfg, lateral_tm=86.324)
    rep = exc.value.report
    holds = [step for step in rep.steps if step["problem"] == "position_cap"]
    assert len(holds) == 1 and holds[0]["tf"] > rep.window.t_upper

import math

import numpy as np
import pytest

from cavcross.model import ConfigError, CruiseArc, CubicArc, SatArc, ScenarioConfig
from cavcross.solver import StructureError, solve_lateral, solve_limits

CFG = ScenarioConfig(v_max=20.0)


def test_lateral_hold_fixed_terminal_reference():
    traj, info = solve_lateral(2.0, 12.0, 32.027, CFG, terminal="fixed",
                               tf_fixed=34.4)
    assert len(traj.arcs) == 2
    assert traj.eval(32.027)[0] == pytest.approx(370.0, abs=1e-9)
    assert traj.eval(34.4)[0] == pytest.approx(400.0, abs=1e-9)
    a1, a2 = traj.arcs
    assert abs(float(a1.u(32.027)) - float(a2.u(32.027))) < 1e-8
    assert info["zeta"] == pytest.approx(0.007952001670355627, abs=1e-9)


def test_lateral_hold_slope_jump_equals_multiplier():
    # the costate lambda_p jumps by zeta at the hold time, nothing else moves
    traj, info = solve_lateral(2.0, 12.0, 32.027, CFG, terminal="fixed",
                               tf_fixed=34.4)
    a1, a2 = traj.arcs
    assert a1.a - a2.a == pytest.approx(info["zeta"], abs=1e-12)


def test_lateral_hold_free_terminal_reference():
    traj, info = solve_lateral(2.0, 12.0, 32.027, CFG, terminal="free")
    assert traj.tf == pytest.approx(34.40058553347205, abs=1e-6)
    assert traj.eval(32.027)[0] == pytest.approx(370.0, abs=1e-8)
    tail = traj.arcs[-1]
    uf = float(tail.u(traj.tf))
    H_tf = CFG.gamma - 0.5 * uf * uf + tail.a * float(tail.v(traj.tf))
    assert abs(H_tf) < 1e-8
    assert abs(uf) < 1e-8


def test_lateral_hold_binds_only_when_early():
    # given three extra seconds the vehicle would cross long before the
    # hold releases; the pinned-time solve still must not jump the hold
    traj, _ = solve_lateral(2.0, 12.0, 32.027, CFG, terminal="fixed",
                            tf_fixed=34.4)
    ts = np.linspace(2.0, 32.027, 2000)
    assert np.max(traj.sample(ts)[0]) <= 370.0 + 1e-6


def test_lateral_speed_dips_then_recovers():
    traj, _ = solve_lateral(2.0, 12.0, 32.027, CFG, terminal="fixed",
                            tf_fixed=34.4)
    v_hold = traj.eval(32.027)[1]
    ts = np.linspace(2.0, 32.027, 500)
    v = traj.sample(ts)[1]
    assert np.min(v) < v_hold  # slowed down on approach
    assert v[0] == pytest.approx(12.0, abs=1e-12)


def test_limits_blend_free_reference():
    cfg = ScenarioConfig(v_max=13.5, u_max=0.2, u_min=-0.2)
    traj, info = solve_limits(0.0, 10.0, cfg, sat_u=True, sat_v=True)
    assert info["family"] == "saturate_blend_cruise"
    assert info["tau1"] == pytest.approx(4.0, abs=1e-6)
    assert info["tau2"] == pytest.approx(31.0, abs=1e-6)
    assert traj.tf == pytest.approx(32.34814814814429, abs=1e-6)
    assert traj.cost(cfg.gamma).energy == pytest.approx(0.26, abs=1e-9)
    assert [type(a) for a in traj.arcs] == [SatArc, CubicArc, CruiseArc]
    assert info["tau2"] - info["tau1"] > 1.0
    # blend slope pinned by the vanishing Hamiltonian on the middle arc
    assert info["a"] == pytest.approx(-cfg.gamma / cfg.v_max, rel=1e-9)


def test_limits_blend_respects_caps_exactly():
    cfg = ScenarioConfig(v_max=13.5, u_max=0.2, u_min=-0.2)
    traj, _ = solve_limits(0.0, 10.0, cfg, sat_u=True, sat_v=True)
    ts = np.linspace(0.0, traj.tf, 5000)
    p, v, u = traj.sample(ts)
    assert np.max(u) <= 0.2 + 1e-9
    assert np.max(v) <= 13.5 + 1e-9
    assert p[-1] == pytest.approx(400.0, abs=1e-8)
    # junction continuity across sat -> blend -> cruise
    for left, right in zip(traj.arcs[:-1], traj.arcs[1:]):
        tb = left.t_end
        assert abs(float(left.u(tb)) - float(right.u(tb))) < 1e-8
        assert abs(float(left.v(tb)) - float(right.v(tb))) < 1e-9


def test_limits_blend_pinned_terminal():
    cfg = ScenarioConfig(v_max=13.5, u_max=0.2, u_min=-0.2)
    traj, info = solve_limits(0.0, 10.0, cfg, terminal="fixed", tf_fixed=32.1,
                              sat_u=True, sat_v=True)
    assert traj.eval(32.1)[0] == pytest.approx(400.0, abs=1e-8)
    assert info["tau1"] < info["tau2"] < 32.1
    ts = np.linspace(0.0, 32.1, 5000)
    _, v, u = traj.sample(ts)
    assert np.max(u) <= 0.2 + 1e-9
    assert np.max(v) <= 13.5 + 1e-9
    # faster crossing than the free blend demands a longer saturated arc
    assert info["tau1"] > 4.0


def test_limits_saturate_then_relax():
    cfg = ScenarioConfig(v_max=20.0, u_max=0.2, u_min=-0.2)
    traj, info = solve_limits(0.0, 10.0, cfg, sat_u=True, sat_v=False)
    assert info["family"] == "saturate_then_relax"
    assert [type(a) for a in traj.arcs] == [SatArc, CubicArc]
    assert traj.eval(traj.tf)[0] == pytest.approx(400.0, abs=1e-8)
    assert abs(traj.eval(traj.tf)[2]) < 1e-8
    ts = np.linspace(0.0, traj.tf, 3000)
    assert np.max(traj.sample(ts)[2]) <= 0.2 + 1e-9


def test_limits_relax_then_cruise():
    cfg = ScenarioConfig(v_max=12.0)
    traj, info = solve_limits(0.0, 10.0, cfg, sat_u=False, sat_v=True)
    assert info["family"] == "relax_then_cruise"
    assert [type(a) for a in traj.arcs] == [CubicArc, CruiseArc]
    assert traj.vf == pytest.approx(12.0, abs=1e-9)
    # tangential arrival at the cap: control vanishes where the cruise starts
    assert abs(traj.eval(info["tau2"])[2]) < 1e-8
    ts = np.linspace(0.0, traj.tf, 3000)
    assert np.max(traj.sample(ts)[1]) <= 12.0 + 1e-9


def test_limits_mirrored_floor_family_is_flagged():
    cfg = ScenarioConfig(v_max=20.0, v_min=7.0, u_min=-0.1)
    traj, info = solve_limits(0.0, 10.0, cfg, terminal="fixed", tf_fixed=55.0,
                              sat_u=False, sat_v=True, direction=-1)
    assert info["direction"] == -1
    assert traj.vf == pytest.approx(7.0, abs=1e-9)
    ts = np.linspace(0.0, 55.0, 3000)
    assert np.min(traj.sample(ts)[1]) >= 7.0 - 1e-9
    assert traj.eval(55.0)[0] == pytest.approx(400.0, abs=1e-8)


def test_limits_floor_cruise_at_standstill_rejected():
    cfg = ScenarioConfig(v_max=20.0, v_min=0.0, u_min=-0.1)
    with pytest.raises(StructureError):
        solve_limits(0.0, 10.0, cfg, terminal="fixed", tf_fixed=70.0,
                     sat_u=False, sat_v=True, direction=-1)


def test_limits_pinned_without_value_rejected():
    with pytest.raises(ConfigError):
        solve_limits(0.0, 10.0, ScenarioConfig(v_max=13.5, u_max=0.2),
                     terminal="fixed", sat_u=True, sat_v=True)

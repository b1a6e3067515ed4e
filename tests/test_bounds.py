import math

import numpy as np
import pytest

from cavcross.bounds import (composite_window, lower_speed_control,
                             upper_speed_control)
from cavcross.model import (Arc, ConfigError, PiecewiseTrajectory,
                            ScenarioConfig)


def _rollout_time_to(D, v0, u, v_cap, v_floor):
    """Independent fine-step rollout of the capped bang profile."""
    dt = 1e-5
    t, p, v = 0.0, 0.0, v0
    while p < D:
        a = u
        if u > 0 and v >= v_cap:
            a = 0.0
        if u < 0 and v <= v_floor:
            a = 0.0
        p += v * dt + 0.5 * a * dt * dt
        v += a * dt
        t += dt
        if t > 2000.0:
            return None
    return t


def test_lower_bound_cruise_branch():
    cfg = ScenarioConfig(v_max=13.5, u_max=0.2)
    t, vf = lower_speed_control(0.0, 10.0, cfg)
    assert t == pytest.approx(31.89814814814815, abs=1e-12)
    assert vf == 13.5
    sim = _rollout_time_to(400.0, 10.0, 0.2, 13.5, 0.0)
    assert t == pytest.approx(sim, abs=1e-3)


def test_lower_bound_no_cruise_branch():
    # loose cap: exit reached while still accelerating
    cfg = ScenarioConfig(v_max=50.0, u_max=0.2)
    t, vf = lower_speed_control(0.0, 10.0, cfg)
    assert vf == pytest.approx(math.sqrt(2 * 400.0 * 0.2 + 100.0), rel=1e-12)
    sim = _rollout_time_to(400.0, 10.0, 0.2, 50.0, 0.0)
    assert t == pytest.approx(sim, abs=1e-3)


def test_upper_bound_brake_branch():
    cfg = ScenarioConfig(u_min=-0.1, v_min=0.0)
    t = upper_speed_control(0.0, 10.0, cfg)
    assert t == pytest.approx(55.278640450004204, abs=1e-9)
    sim = _rollout_time_to(400.0, 10.0, -0.1, 50.0, 0.0)
    assert t == pytest.approx(sim, abs=1e-3)


def test_upper_bound_diverges_at_standstill():
    cfg = ScenarioConfig(u_min=-3.0, v_min=0.0)
    assert upper_speed_control(0.0, 10.0, cfg) is None


def test_upper_bound_crawl_branch():
    cfg = ScenarioConfig(u_min=-3.0, v_min=2.0)
    t = upper_speed_control(0.0, 10.0, cfg)
    assert t is not None
    sim = _rollout_time_to(400.0, 10.0, -3.0, 50.0, 2.0)
    assert t == pytest.approx(sim, abs=1e-3)


def test_bound_offsets_with_entry_time():
    cfg = ScenarioConfig(v_max=13.5, u_max=0.2)
    t0, _ = lower_speed_control(0.0, 10.0, cfg)
    t5, _ = lower_speed_control(5.0, 10.0, cfg)
    assert t5 - t0 == pytest.approx(5.0, abs=1e-12)


def test_bad_limit_signs_raise():
    cfg = ScenarioConfig()
    with pytest.raises(ConfigError):
        lower_speed_control(0.0, 10.0, cfg, u_max=-1.0)
    with pytest.raises(ConfigError):
        upper_speed_control(0.0, 10.0, cfg, u_min=1.0)


def _cruise_leader(tf, v):
    D = 400.0
    return PiecewiseTrajectory((Arc(t_start=tf - D / v, t_end=tf, a=0.0,
                                    b=0.0, c=v, d=D - v * tf),))


def test_composite_window_binding_labels():
    cfg = ScenarioConfig(v_max=20.0, phi=1.0, delta0=0.0)
    w = composite_window(0.0, 10.0, cfg)
    assert w.binding == "speed_control"
    assert w.t_lower == lower_speed_control(0.0, 10.0, cfg)[0]
    assert w.t_upper is None

    lead = _cruise_leader(39.0, 10.0)
    w = composite_window(2.0, 12.0, cfg, leader=lead, vf_i=10.0)
    assert w.binding == "follower"
    assert w.t_lower == pytest.approx(39.0 + (1.0 * 10.0 + 0.0) / 10.0)

    w = composite_window(0.0, 10.0, cfg, other_tf=60.0)
    assert w.binding == "fifo"
    assert w.t_lower == 60.0


def test_composite_window_headway_scales_with_gap_parameters():
    cfg = ScenarioConfig(v_max=20.0, phi=1.6, delta0=2.0)
    lead = _cruise_leader(40.0, 8.0)
    w = composite_window(2.0, 12.0, cfg, leader=lead, vf_i=9.0)
    assert w.t_lower == pytest.approx(40.0 + (1.6 * 9.0 + 2.0) / 8.0, rel=1e-12)


def test_composite_window_rejects_stopped_leader():
    cfg = ScenarioConfig(v_max=20.0)
    lead = PiecewiseTrajectory((Arc(t_start=0.0, t_end=40.0, a=0.0,
                                    b=-0.25, c=10.0, d=0.0),))
    assert lead.vf == pytest.approx(0.0)
    with pytest.raises(ConfigError):
        composite_window(2.0, 12.0, cfg, leader=lead)

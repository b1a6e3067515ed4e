import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from cavcross.model import (Arc, ConfigError, ConflictMap, DomainError,
                            PiecewiseTrajectory, ScenarioConfig, VehicleArrival)


def test_cubic_arc_matches_quadrature():
    arc = Arc(t_start=0.0, t_end=10.0, a=-0.02, b=0.3, c=10.0, d=5.0)
    for t in (0.0, 3.7, 10.0):
        v_ref = arc.v(0.0) + quad(arc.u, 0.0, t)[0]
        p_ref = arc.p(0.0) + quad(arc.v, 0.0, t)[0]
        assert math.isclose(arc.v(t), v_ref, abs_tol=1e-10)
        assert math.isclose(arc.p(t), p_ref, abs_tol=1e-9)


def test_cubic_energy_matches_quadrature():
    arc = Arc(t_start=2.0, t_end=9.0, a=-0.02, b=0.3, c=10.0, d=0.0)
    ref = quad(lambda t: 0.5 * arc.u(t) ** 2, 2.0, 9.0)[0]
    assert math.isclose(arc.energy(2.0, 9.0), ref, rel_tol=1e-12)


def test_cubic_speed_extremum_at_control_zero():
    # u = -0.02 t + 0.64 crosses zero at t = 32: interior maximum of v
    arc = Arc(t_start=0.0, t_end=40.0, a=-0.02, b=0.64, c=8.0, d=0.0)
    ((t_star, v_star),) = arc.v_extrema()
    assert math.isclose(t_star, 32.0, abs_tol=1e-12)
    assert math.isclose(v_star, arc.v(32.0), abs_tol=1e-12)
    # shifting the zero outside the span hides it
    assert Arc(t_start=0.0, t_end=10.0, a=-0.02, b=0.64, c=8.0, d=0.0).v_extrema() == []


def test_track_arc_matches_quadrature():
    """u = a t + b + (A0 + A1 t) exp(-t/phi) integrates exactly to v and p."""
    arc = Arc(t_start=1.0, t_end=8.0, a=0.01, b=-0.1, c=11.0, d=3.0,
              amp=(0.4, -0.05), phi=1.0, kind="track")
    for t in (1.0, 4.3, 8.0):
        v_ref = arc.v(1.0) + quad(arc.u, 1.0, t)[0]
        p_ref = arc.p(1.0) + quad(arc.v, 1.0, t)[0]
        assert math.isclose(arc.v(t), v_ref, abs_tol=1e-9)
        assert math.isclose(arc.p(t), p_ref, abs_tol=1e-8)
    e_ref = quad(lambda t: 0.5 * arc.u(t) ** 2, 1.0, 8.0)[0]
    assert math.isclose(arc.energy(1.0, 8.0), e_ref, abs_tol=1e-10)


def test_track_arc_vector_eval_matches_scalar():
    arc = Arc(t_start=0.0, t_end=5.0, a=0.0, b=0.2, c=10.0, d=0.0,
              amp=(1.0,), phi=0.8, kind="track")
    ts = np.linspace(0.0, 5.0, 11)
    npt.assert_allclose(arc.u(ts), [arc.u(float(t)) for t in ts], rtol=1e-14)
    npt.assert_allclose(arc.p(ts), [arc.p(float(t)) for t in ts], rtol=1e-14)


@pytest.mark.parametrize("amp", [(1.5,), (1.5, -0.05)])
def test_track_arc_extrema_match_dense_sampling(amp):
    # u dips below zero and recovers: two interior speed extrema (where u
    # crosses zero) and one interior control minimum
    arc = Arc(t_start=0.0, t_end=20.0, a=0.02, b=-0.3, c=10.0, d=0.0,
              amp=amp, phi=2.0, kind="track")
    ts = np.linspace(0.0, 20.0, 200001)
    u = arc.u(ts)
    v = arc.v(ts)
    cross = np.flatnonzero(np.sign(u[:-1]) != np.sign(u[1:]))
    v_ext = arc.v_extrema()
    assert len(v_ext) == len(cross) == 2
    for (t, vt), i in zip(v_ext, cross):
        assert ts[i] <= t <= ts[i + 1]
        assert vt == pytest.approx(v[i], abs=1e-8)
    (t_u, u_min), = arc.u_extrema()
    k = int(np.argmin(u))
    assert 0 < k < ts.size - 1
    assert abs(t_u - ts[k]) <= 1e-3
    assert u_min == pytest.approx(u[k], abs=1e-10)
    assert u_min <= u[k]


def test_sat_and_cruise_arcs():
    sat = Arc.through(0.0, 4.0, 0.0, 10.0, 0.0, 0.2, kind="sat")
    assert sat.v(4.0) == pytest.approx(10.8)
    assert sat.p(4.0) == pytest.approx(41.6)
    assert sat.energy(0.0, 4.0) == pytest.approx(0.5 * 0.04 * 4.0)
    cr = Arc.through(4.0, 10.0, 41.6, 10.8, 0.0, 0.0, kind="cruise")
    assert cr.p(10.0) == pytest.approx(41.6 + 10.8 * 6.0)
    assert cr.energy(4.0, 10.0) == 0.0


def test_trajectory_rejects_gaps_and_jumps():
    a1 = Arc(t_start=0.0, t_end=5.0, a=0.0, b=0.0, c=10.0, d=0.0)
    with pytest.raises(ConfigError):
        PiecewiseTrajectory((a1, Arc(t_start=6.0, t_end=8.0, a=0.0, b=0.0,
                                     c=10.0, d=0.0)))
    with pytest.raises(ConfigError):  # position jump at the junction
        PiecewiseTrajectory((a1, Arc(t_start=5.0, t_end=8.0, a=0.0, b=0.0,
                                     c=10.0, d=3.0)))
    with pytest.raises(ConfigError):
        PiecewiseTrajectory(())


def test_trajectory_eval_sample_and_cost():
    arc1 = Arc(t_start=0.0, t_end=5.0, a=0.0, b=0.2, c=10.0, d=0.0)
    a2, b2 = -0.01, 0.25
    c2 = arc1.v(5.0) - (0.5 * a2 * 25.0 + b2 * 5.0)
    d2 = arc1.p(5.0) - (a2 / 6 * 125.0 + 0.5 * b2 * 25.0 + c2 * 5.0)
    arc2 = Arc(t_start=5.0, t_end=12.0, a=a2, b=b2, c=c2, d=d2)
    traj = PiecewiseTrajectory((arc1, arc2))
    ts = np.linspace(0.0, 12.0, 25)
    p, v, u = traj.sample(ts)
    for i, t in enumerate(ts):
        pe, ve, ue = traj.eval(float(t))
        assert math.isclose(p[i], pe, abs_tol=1e-12)
        assert math.isclose(v[i], ve, abs_tol=1e-12)
        assert math.isclose(u[i], ue, abs_tol=1e-12)
    # any order of the same times gives the same values, time by time
    shuffled = np.random.default_rng(0).permutation(ts)
    for got, want in zip(traj.sample(shuffled), traj.sample(np.sort(shuffled))):
        assert np.array_equal(got, want[np.argsort(np.argsort(shuffled))])
    cb = traj.cost(0.1)
    assert cb.travel_time == pytest.approx(12.0)
    e_ref = quad(lambda t: 0.5 * traj.eval(t)[2] ** 2, 0.0, 12.0, limit=200)[0]
    assert cb.energy == pytest.approx(e_ref, abs=1e-8)
    assert cb.objective == pytest.approx(0.1 * 12.0 + cb.energy)
    with pytest.raises(DomainError):
        traj.eval(12.5)


def test_position_root_and_extension():
    arc = Arc(t_start=0.0, t_end=10.0, a=0.0, b=0.0, c=10.0, d=0.0)
    traj = PiecewiseTrajectory((arc,))
    assert traj.position_root(37.0) == pytest.approx(3.7, abs=1e-9)
    with pytest.raises(DomainError):
        traj.position_root(150.0)
    # a target within the 1e-6 slack beyond either end maps to that end
    assert traj.position_root(-5e-7) == 0.0
    assert traj.position_root(100.0 + 5e-7) == 10.0
    ext = traj.extended(15.0)
    assert ext.tf == 15.0
    assert ext.eval(15.0)[0] == pytest.approx(150.0)
    assert ext.eval(15.0)[1] == pytest.approx(10.0)
    assert traj.extended(9.0) is traj


def test_arc_at_is_right_continuous():
    a1 = Arc(t_start=0.0, t_end=5.0, a=0.0, b=0.2, c=10.0, d=0.0)
    a2 = Arc.through(5.0, 9.0, a1.p(5.0), a1.v(5.0), 0.0, 0.2, kind="sat")
    traj = PiecewiseTrajectory((a1, a2))
    assert traj.arc_at(5.0) is a2
    assert traj.arc_at(5.0 - 1e-9) is a1
    assert traj.arc_at(9.0) is a2


def test_conflict_map_default_geometry():
    cm = ConflictMap()
    th = "through"
    assert cm.conflicts(("N", th), ("E", th))
    assert cm.conflicts(("W", th), ("S", th))
    assert not cm.conflicts(("N", th), ("S", th))   # opposite approaches
    assert not cm.conflicts(("E", th), ("E", th))


def test_conflict_map_strict_mode():
    cm = ConflictMap.from_pairs([(("N", "through"), ("E", "left"))])
    assert cm.conflicts(("N", "through"), ("E", "left"))
    assert cm.conflicts(("E", "left"), ("N", "through"))
    with pytest.raises(ConfigError):
        cm.conflicts(("N", "through"), ("S", "through"))


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(v_min=5.0, v_max=4.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(u_min=0.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(L=-1.0)
    cfg = ScenarioConfig()
    assert cfg.exit_distance == pytest.approx(400.0)


def test_arrival_validation():
    cfg = ScenarioConfig(v_max=20.0)
    VehicleArrival(id=1, t0=0.0, v0=10.0, road="N").validate(cfg)
    with pytest.raises(ConfigError):
        VehicleArrival(id=2, t0=0.0, v0=25.0, road="N").validate(cfg)
    with pytest.raises(ConfigError):
        VehicleArrival(id=3, t0=0.0, v0=10.0, road="N", u_min=0.1).validate(cfg)
    with pytest.raises(ConfigError):
        VehicleArrival(id=4, t0=0.0, v0=10.0, road="N",
                       force_profile=(0.0, 0.0, 10.0))

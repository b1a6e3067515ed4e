import math

import numpy as np
import pytest
from scipy.integrate import quad

from cavcross.model import ScenarioConfig
from cavcross.solver import solve_p0_free, solve_p1_fixed, solve_p1_follower

CFG = ScenarioConfig(v_max=20.0)   # caps loose so they stay inactive here


def test_free_terminal_reference_solution():
    params, traj = solve_p0_free(0.0, 10.0, CFG)
    assert traj.tf == pytest.approx(32.02697700156859, abs=1e-9)
    assert params.a == pytest.approx(-0.0072810904775068765, abs=1e-12)
    assert traj.vf == pytest.approx(13.734206477577127, abs=1e-9)
    assert traj.cost(0.1).objective == pytest.approx(3.4929592093109707, abs=1e-10)
    assert traj.eval(traj.tf)[0] == pytest.approx(400.0, abs=1e-8)


def test_free_terminal_first_order_conditions():
    """Zero Hamiltonian throughout and zero control at the exit."""
    params, traj = solve_p0_free(0.0, 10.0, CFG)
    ts = np.linspace(0.0, traj.tf, 200)
    p, v, u = traj.sample(ts)
    H = CFG.gamma - 0.5 * u * u + params.a * v
    assert np.max(np.abs(H)) < 1e-9
    assert abs(traj.eval(traj.tf)[2]) < 1e-9
    # accelerate-and-relax shape: decaying nonnegative control
    assert params.a < 0.0
    assert np.min(u) > -1e-9


def test_free_terminal_shifts_with_entry_time():
    _, t_a = solve_p0_free(0.0, 10.0, CFG)
    _, t_b = solve_p0_free(5.0, 10.0, CFG)
    assert t_b.tf - t_a.tf == pytest.approx(5.0, abs=1e-8)
    assert t_b.vf == pytest.approx(t_a.vf, abs=1e-9)


def test_zero_time_weight_cruises():
    cfg = ScenarioConfig(v_max=20.0, gamma=0.0)
    params, traj = solve_p0_free(0.0, 10.0, cfg)
    assert traj.tf == pytest.approx(40.0, abs=1e-9)
    ts = np.linspace(0.0, 40.0, 50)
    assert np.max(np.abs(traj.sample(ts)[2])) < 1e-12


def test_fixed_terminal_reference_solution():
    params, traj = solve_p1_fixed(0.0, 10.0, 33.0, CFG)
    assert params.a == pytest.approx(-0.005843559562567827, abs=1e-12)
    assert params.b == pytest.approx(0.1928374655647383, abs=1e-12)
    assert traj.eval(33.0)[0] == pytest.approx(400.0, abs=1e-10)
    assert abs(traj.eval(33.0)[2]) < 1e-12
    assert traj.eval(0.0)[1] == pytest.approx(10.0, abs=1e-12)


def test_fixed_terminal_speed_reference():
    _, traj = solve_p1_fixed(0.0, 10.0, 39.0, CFG)
    assert traj.vf == pytest.approx(10.384615384615385, abs=1e-10)


def test_fixed_terminal_energy_matches_quadrature():
    _, traj = solve_p1_fixed(0.0, 10.0, 33.0, CFG)
    e_ref = quad(lambda t: 0.5 * traj.eval(t)[2] ** 2, 0.0, 33.0, limit=100)[0]
    assert traj.cost(CFG.gamma).energy == pytest.approx(e_ref, abs=1e-10)


def test_fixed_at_free_time_recovers_free_solution():
    free_params, _ = solve_p0_free(0.0, 10.0, CFG)
    pinned, _ = solve_p1_fixed(0.0, 10.0, free_params.t_end, CFG)
    assert pinned.a == pytest.approx(free_params.a, abs=1e-9)
    assert pinned.b == pytest.approx(free_params.b, abs=1e-9)


def test_fixed_terminal_cost_grows_away_from_free_optimum():
    free_params, free_traj = solve_p0_free(0.0, 10.0, CFG)
    j_free = free_traj.cost(CFG.gamma).objective
    for tf in (free_params.t_end - 1.5, free_params.t_end + 1.5):
        _, traj = solve_p1_fixed(0.0, 10.0, tf, CFG)
        assert traj.cost(CFG.gamma).objective > j_free


def test_follower_terminal_reference_solution():
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, CFG)
    params, traj, eta = solve_p1_follower(2.0, 10.0, lead, CFG)
    assert traj.tf == pytest.approx(40.03028030815731, abs=1e-8)
    assert eta == pytest.approx(-0.00818685714561584, abs=1e-10)
    # exit-time coupling: our arrival headway matches the leader's lead
    psi = lead.vf * (traj.tf - lead.tf) - CFG.phi * traj.vf - CFG.delta0
    assert abs(psi) < 1e-8
    # transversality ties the exit control to the coupling multiplier
    assert traj.eval(traj.tf)[2] == pytest.approx(CFG.phi * eta, abs=1e-10)
    assert traj.eval(traj.tf)[0] == pytest.approx(400.0, abs=1e-8)


def test_follower_collapses_to_pinned_without_headway():
    cfg = ScenarioConfig(v_max=20.0, phi=0.0, delta0=0.0)
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, cfg)
    params, traj, eta = solve_p1_follower(2.0, 10.0, lead, cfg)
    ref, _ = solve_p1_fixed(2.0, 10.0, 39.0, cfg)
    assert traj.tf == pytest.approx(39.0, abs=1e-9)
    assert params.a == pytest.approx(ref.a, abs=1e-9)
    assert params.b == pytest.approx(ref.b, abs=1e-9)
    # H(tf) + eta*v_kf = 0 with u(tf) = 0
    assert eta == -(cfg.gamma + params.a * traj.vf) / lead.vf
    assert eta < 0.0


def test_follower_without_reaction_time_keeps_the_coupled_solution():
    # phi = 0 pins tf = t_kf + delta0/v_kf; eta as the coupled Newton solve found it
    cfg = ScenarioConfig(v_max=20.0, phi=0.0, delta0=2.0)
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, cfg)
    params, traj, eta = solve_p1_follower(2.0, 10.0, lead, cfg)
    assert traj.tf == pytest.approx(39.19259259259259, rel=1e-15)
    assert traj.tf == 39.0 + cfg.delta0 / lead.vf
    assert eta == pytest.approx(-0.007874740594338571, rel=1e-9, abs=0.0)
    assert traj.eval(traj.tf)[2] == pytest.approx(0.0, abs=1e-12)
    assert traj.eval(traj.tf)[0] == pytest.approx(400.0, abs=1e-8)

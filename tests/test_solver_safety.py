import math
import os
import sys

import numpy as np
import pytest

from cavcross import solver
from cavcross.fixtures import FIXTURES, fixture
from cavcross.model import Arc, PiecewiseTrajectory, ScenarioConfig
from cavcross.newton import quadratic_roots, smallest_positive_root
from cavcross.solver import (SolveReport, StructureError, _entry_coeffs,
                             solve_p1_fixed, solve_safety)
from cavcross.sim import load_scenario, run_simulation
from cavcross.verifier import audit
from safety_reference import solve_safety_joint
from test_plan_replay import _varied_scenario

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import inputs  # noqa: E402

CFG = ScenarioConfig(v_max=20.0)


def _lead_pinned(tf):
    _, traj = solve_p1_fixed(0.0, 10.0, tf, CFG)
    return traj


def _lead_dip():
    # decelerate-then-recover profile: v(0)=10, v(41)=10, through the exit at 41
    return PiecewiseTrajectory((Arc(
        t_start=0.0, t_end=41.0,
        a=0.0017411238954745383, b=-0.03569303985722797, c=10.0, d=0.0),))


def test_entry_coeffs_on_a_grid_match_pointwise_solves():
    lead = _lead_pinned(39.0).extended(45.0)
    t0, v0, phi, d0 = 2.0, 12.0, CFG.phi, CFG.delta0
    # at tau = t0 = 0 both rows vanish: the system is singular
    a, b, g = _entry_coeffs(0.0, v0, phi, d0, lead, np.array([0.0, 1.0]))
    assert np.isnan([a[0], b[0], g[0]]).all() and not np.isnan([a[1], b[1], g[1]]).any()
    assert all(math.isnan(x) for x in _entry_coeffs(0.0, v0, phi, d0, lead, 0.0))
    grid = np.linspace(t0 + 1e-3, 42.0, 97)
    a, b, g = _entry_coeffs(t0, v0, phi, d0, lead, grid)
    for k, tau in enumerate(grid):
        # reference: the 2x2 system of p and v at tau solved by LU
        pk, vk, uk = lead.eval(tau)
        dt = tau - t0
        Pa = tau**3 / 6.0 - t0**2 * tau / 2.0 + t0**3 / 3.0
        Va = 0.5 * (tau * tau - t0 * t0)
        A = np.array([[Pa + phi * Va, 0.5 * dt * dt + phi * dt],
                      [Va + phi * tau, dt + phi]])
        ra, rb = np.linalg.solve(A, [pk - d0 - v0 * dt - phi * v0, vk - v0])
        rg = (tau + phi) * ra + rb - uk
        scalar = _entry_coeffs(t0, v0, phi, d0, lead, tau)
        for got in ((a[k], b[k], g[k]), scalar):
            assert got == pytest.approx((ra, rb, rg), rel=1e-9, abs=1e-12)


def _gap(traj, lead, ts, cfg):
    p, v, _ = traj.sample(ts)
    pk = lead.extended(float(ts[-1]) + 1.0).sample(ts)[0]
    return pk - p - cfg.phi * v - cfg.delta0


def test_ride_to_exit_reference():
    lead = _lead_pinned(39.0)
    traj, sol = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    assert sol.tau1 == pytest.approx(16.03389532358692, abs=1e-6)
    assert sol.tau2 is None
    assert traj.tf == pytest.approx(39.99998208361794, abs=1e-6)
    assert traj.eval(traj.tf)[0] == pytest.approx(400.0, abs=1e-8)
    kinds = [a.kind for a in traj.arcs]
    assert kinds[0] == "cubic"
    assert all(k == "track" for k in kinds[1:])


def test_ride_gap_is_exactly_on_the_boundary():
    lead = _lead_pinned(39.0)
    traj, sol = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    ts = np.linspace(sol.tau1, traj.tf, 400)
    g = _gap(traj, lead, ts, CFG)
    assert np.max(np.abs(g)) < 1e-6


def test_gap_never_negative_and_touches_tangentially():
    lead = _lead_pinned(39.0)
    traj, sol = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    ts = np.linspace(traj.t0, traj.tf, 2000)
    g = _gap(traj, lead, ts, CFG)
    assert np.min(g) > -1e-6
    assert np.all(g[ts < sol.tau1 - 1e-3] > 0.0)
    # osculating junction: gap value, rate, and curvature all vanish at
    # tau1, so the approach is third order -- halving the distance to the
    # junction divides the remaining gap by eight
    g1 = _gap(traj, lead, np.array([sol.tau1 - 1.0]), CFG)[0]
    g2 = _gap(traj, lead, np.array([sol.tau1 - 0.5]), CFG)[0]
    assert g1 / g2 == pytest.approx(8.0, rel=0.1)


def test_junction_control_is_continuous():
    lead = _lead_pinned(39.0)
    traj, sol = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    for left, right in zip(traj.arcs[:-1], traj.arcs[1:]):
        tb = left.t_end
        assert abs(float(left.u(tb)) - float(right.u(tb))) < 1e-8
        assert abs(float(left.v(tb)) - float(right.v(tb))) < 1e-9


def test_follower_terminal_sits_on_the_headway_bound():
    lead = _lead_pinned(39.0)
    traj, _ = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    bound = lead.tf + (CFG.phi * traj.vf + CFG.delta0) / lead.vf
    assert traj.tf == pytest.approx(bound, abs=1e-9)


def test_slower_leader_pushes_the_bound_out():
    lead = _lead_pinned(42.0)
    traj, _ = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    bound = lead.tf + (CFG.phi * traj.vf + CFG.delta0) / lead.vf
    assert traj.tf == pytest.approx(bound, abs=1e-9)
    assert traj.tf > 42.0


def test_ride_leave_ride_exit_reference():
    """Dipping leader: join the boundary, leave it, finish unconstrained."""
    lead = _lead_dip()
    traj, sol = solve_safety(1.5, 12.0, lead, CFG, terminal="fixed", tf_fixed=42.5)
    assert sol.tau1 == pytest.approx(7.588672507670275, abs=1e-6)
    assert sol.tau2 == pytest.approx(13.893301048622487, abs=1e-6)
    assert sol.tau1 < sol.tau2 < traj.tf
    assert traj.eval(42.5)[0] == pytest.approx(400.0, abs=1e-8)
    assert traj.arcs[0].kind == "cubic"
    assert traj.arcs[-1].kind == "cubic"
    assert any(a.kind == "track" for a in traj.arcs)
    for left, right in zip(traj.arcs[:-1], traj.arcs[1:]):
        tb = left.t_end
        assert abs(float(left.u(tb)) - float(right.u(tb))) < 1e-8


def test_ride_leave_ride_gap_profile():
    lead = _lead_dip()
    traj, sol = solve_safety(1.5, 12.0, lead, CFG, terminal="fixed", tf_fixed=42.5)
    on = np.linspace(sol.tau1, sol.tau2, 300)
    assert np.max(np.abs(_gap(traj, lead, on, CFG))) < 1e-6
    everywhere = np.linspace(traj.t0, traj.tf, 3000)
    assert np.min(_gap(traj, lead, everywhere, CFG)) > -1e-6


def test_joint_solve_matches_cascaded_solve():
    """Departure decisions must not perturb the boundary-entry point."""
    lead = _lead_dip()
    _, sol = solve_safety(1.5, 12.0, lead, CFG, terminal="fixed", tf_fixed=42.5)
    joint = solve_safety_joint(1.5, 12.0, lead, CFG, tf_fixed=42.5)
    assert abs(joint["tau1"] - sol.tau1) < 1e-9
    assert abs(joint["tau2"] - sol.tau2) < 1e-9


def test_weak_interaction_has_no_boundary_junction():
    # same lane but barely catching up: no tangential junction exists and
    # the structured solve says so instead of fabricating one
    lead = _lead_pinned(39.0)
    with pytest.raises(StructureError):
        solve_safety(1.0, 10.0, lead, CFG, terminal="follower")


def test_free_terminal_safety_checks_hamiltonian():
    lead = _lead_dip()
    traj, sol = solve_safety(1.5, 12.0, lead, CFG, terminal="free")
    tail = traj.arcs[-1]
    assert tail.kind == "cubic"
    uf = float(tail.u(traj.tf))
    vf = float(tail.v(traj.tf))
    H_tf = CFG.gamma - 0.5 * uf * uf + tail.a * vf
    assert abs(H_tf) < 1e-7
    assert traj.eval(traj.tf)[0] == pytest.approx(400.0, abs=1e-7)
    everywhere = np.linspace(traj.t0, traj.tf, 2000)
    assert np.min(_gap(traj, lead, everywhere, CFG)) > -1e-6


def test_follower_terminal_departs_onto_the_headway_bound():
    """Behind a leader that dips and recovers, the follower leaves the gap
    boundary just before the exit and lands on the headway bound, cheaper
    than riding the boundary through the exit (J = 4.537620)."""
    a = 0.003
    b = (400.0 - 410.0 - a / 6.0 * 41.0 ** 3) / (0.5 * 41.0 ** 2)
    lead = PiecewiseTrajectory((Arc(t_start=0.0, t_end=41.0, a=a, b=b, c=10.0,
                                    d=0.0),))
    traj, sol = solve_safety(1.5, 12.0, lead, CFG, terminal="follower")
    assert sol.tau2 == pytest.approx(40.844782, abs=1e-6)
    assert traj.tf == pytest.approx(41.997660, abs=1e-6)
    assert traj.tf == pytest.approx(lead.tf + (CFG.phi * traj.vf + CFG.delta0) / lead.vf,
                                    abs=1e-9)
    tail = traj.arcs[-1]
    uf = float(tail.u(traj.tf))
    H_tf = CFG.gamma - 0.5 * uf * uf + tail.a * traj.vf + sol.eta * lead.vf
    assert abs(H_tf) < 1e-8
    assert sol.eta == pytest.approx(uf / CFG.phi, abs=1e-12)
    rep = audit(traj, CFG, leader=lead, terminal_mode="follower")
    assert rep.ok, "\n".join(c.name for c in rep.failures())
    J = traj.cost(CFG.gamma).objective
    assert J == pytest.approx(4.537616, abs=1e-6)
    assert J < 4.5376203


@pytest.mark.parametrize("terminal, tf_fixed, lead", [("follower", None, _lead_pinned(39.0)),
                                                      ("fixed", 42.5, _lead_dip())])
def test_gap_ride_samples_only_the_leader_on_the_entry_grid(monkeypatch, terminal,
                                                           tf_fixed, lead):
    """The approach and departure gap checks scan the arcs exactly: only the
    entry root search samples the leader (400 points) and the departure
    scan the gap ride (300 points)."""
    calls = []
    sample = PiecewiseTrajectory.sample

    def counted(self, ts):
        calls.append(len(ts))
        return sample(self, ts)

    monkeypatch.setattr(PiecewiseTrajectory, "sample", counted)
    solve_safety(1.5, 12.0, lead, CFG, terminal=terminal, tf_fixed=tf_fixed)
    assert calls == [400, 300]


def test_approach_past_the_exit_declines():
    """A leader pinned late lets CAV 6 of varied-caps seed 272 meet the gap
    boundary only beyond the merging-zone exit: a decline, not a crash."""
    result = run_simulation(load_scenario(_varied_scenario(272)))
    assert result.exit_code == 2
    declined = [r for r in result.runs if r.error is not None]
    assert [r.arrival.id for r in declined] == [6]
    assert "gap boundary joined past the merging-zone exit" in str(declined[0].error)


def test_smallest_positive_root_elementwise_matches_the_scalar_quadratic():
    rng = np.random.default_rng(3)
    A, B, C = rng.normal(size=(3, 4000)) * 10.0 ** rng.integers(-3, 3, (3, 4000))
    A[::7], B[::11], C[::13] = 0.0, 0.0, 0.0
    A[::29], B[::29] = 0.0, 0.0
    want = [min((x for x in quadratic_roots(c, b, a) if x > 0.0), default=math.nan)
            for a, b, c in zip(A.tolist(), B.tolist(), C.tolist())]
    assert np.array_equal(smallest_positive_root(A, B, C), want, equal_nan=True)


def test_departure_scan_is_the_scalar_residual_as_one_array(monkeypatch):
    """Every departure scan takes its 300 values from one array evaluation.
    They agree with the scalar calls its roots are refined on: NaN at the
    same points, the same signs, and within 1e-14 (the ride state of a
    gap-ride piece comes from ``np.exp`` on the grid and from ``math.exp``
    at a point, which may differ in the last bit)."""
    scans = []
    original = solver.bracket_roots

    def recorded(fn, grid, values=None):
        if "_exit_block" in fn.__qualname__:
            scans.append((fn, np.asarray(grid), values))
        return original(fn, grid, values)

    monkeypatch.setattr(solver, "bracket_roots", recorded)
    for raw in [fixture(name) for name in sorted(FIXTURES)] + [
            inputs.lane_stream(s) for s in inputs.STREAM_POOL]:
        run_simulation(load_scenario(raw))
    solve_safety(1.5, 12.0, _lead_dip(), CFG, terminal="fixed", tf_fixed=42.5)
    solve_safety(2.0, 12.0, _lead_pinned(39.0), CFG, terminal="free")
    assert len(scans) > 50
    for fn, grid, values in scans:
        assert values is not None and len(values) == grid.size == 300
        scalar = np.array([fn(t) for t in grid.tolist()])
        real = ~np.isnan(scalar)
        assert np.array_equal(np.isnan(values), ~real)
        assert np.array_equal(np.sign(values[real]), np.sign(scalar[real]))
        assert np.all(np.abs(values[real] - scalar[real])
                      <= 1e-14 * np.maximum(1.0, np.abs(scalar[real])))

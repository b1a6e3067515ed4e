"""Acceptance gate: eight behaviour contracts, one test and one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also stands alone under plain pytest.
"""

import time

import numpy as np

from cavcross.model import Arc, PiecewiseTrajectory, ScenarioConfig
from cavcross.sim import load_scenario, run_simulation
from cavcross.solver import (solve_lateral, solve_limits, solve_p0_free,
                             solve_p1_fixed, solve_safety)
from cavcross.verifier import audit, transcription_oracle
from guarantee_reference import check_guarantees_all_pairs, coordinator_of
from oracle_eval import oracle_eval_control
from safety_reference import solve_safety_joint

CFG = ScenarioConfig(v_max=20.0)
CAP = ScenarioConfig(u_max=0.2, u_min=-0.2, v_max=13.5)


def _verdict(n, text):
    print(f"criterion {n}: PASS — {text}")


def _cross_time(traj, target):
    lo, hi = traj.t0, traj.tf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if traj.eval(mid)[0] < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_c1_free_terminal_time_and_runtime():
    t_a = time.perf_counter()
    params, traj = solve_p0_free(0.0, 10.0, CFG)
    wall = time.perf_counter() - t_a
    assert abs(traj.tf - 32.03) < 0.05
    assert wall < 0.1
    _verdict(1, f"free tf={traj.tf:.5f} s in {wall * 1e3:.1f} ms")


def test_c2_fixed_terminal_linear_system():
    params, traj = solve_p1_fixed(0.0, 10.0, 33.0, CFG)
    x = np.array([params.a, params.b, params.c, params.d])
    tf = 33.0
    mat = np.array([
        [0.0, 0.0, 0.0, 1.0],                       # p(0) = 0
        [0.0, 0.0, 1.0, 0.0],                       # v(0) = v0
        [tf ** 3 / 6.0, tf ** 2 / 2.0, tf, 1.0],    # p(tf) = L + S
        [tf, 1.0, 0.0, 0.0],                        # u(tf) = 0
    ])
    rhs = np.array([0.0, 10.0, CFG.exit_distance, 0.0])
    resid = float(np.max(np.abs(mat @ x - rhs)))
    assert resid <= 1e-12
    p_end = traj.eval(33.0)[0]
    assert abs(p_end - 400.0) <= 1e-8
    _verdict(2, f"residual {resid:.2e}, p(33)={p_end:.10f}")


def test_c3_rear_end_ride_through_merge():
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, CFG)
    traj, sol = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    lead_x = lead.extended(traj.tf + 1.0)
    t_mz = _cross_time(traj, CFG.L)
    assert sol.tau1 < t_mz  # the boundary is active through the merge entry
    on = np.linspace(sol.tau1, t_mz, 2000)
    pl = lead_x.sample(on)[0]
    pf, vf, _ = traj.sample(on)
    slack = pl - pf - (CFG.phi * vf + CFG.delta0)
    assert float(np.max(np.abs(slack))) <= 1e-6
    du = abs(traj.eval(sol.tau1 - 1e-12)[2] - traj.eval(sol.tau1 + 1e-12)[2])
    assert du <= 1e-8
    _verdict(3, f"ride slack {np.max(np.abs(slack)):.2e} m, |du(tau)|={du:.2e}")


def test_c4_ride_with_exit_and_independence():
    lead = PiecewiseTrajectory((Arc(0.0, 41.0, 0.0017411238954745383,
                                    -0.03569303985722797, 10.0, 0.0),))
    traj, sol = solve_safety(1.5, 12.0, lead, CFG, terminal="fixed", tf_fixed=42.5)
    assert sol.tau1 < sol.tau2
    rep = audit(traj, CFG, leader=lead, terminal_mode="fixed")
    assert rep.ok, "\n".join(c.name for c in rep.failures())
    joint = solve_safety_joint(1.5, 12.0, lead, CFG, tf_fixed=42.5)
    assert abs(joint["tau1"] - sol.tau1) <= 1e-9
    assert abs(joint["tau2"] - sol.tau2) <= 1e-9
    assert abs(joint["a"] - sol.entry.a) <= 1e-9
    assert abs(joint["b"] - sol.entry.b) <= 1e-9
    _verdict(4, f"tau1={sol.tau1:.4f} < tau2={sol.tau2:.4f}, entry subproblem "
                f"unmoved by joint solve")


def test_c5_merge_hold_position_and_smoothness():
    tm = 32.027
    traj, info = solve_lateral(2.0, 12.0, tm, CFG, terminal="fixed", tf_fixed=34.4)
    p_tm = traj.eval(tm)[0]
    assert abs(p_tm - 370.0) <= 1e-6
    du = abs(traj.eval(tm - 1e-12)[2] - traj.eval(tm + 1e-12)[2])
    assert du <= 1e-8
    _verdict(5, f"p({tm})={p_tm:.8f} m, |du(tm)|={du:.2e}")


def test_c6_cap_junctions_and_interior_arc():
    traj, info = solve_limits(0.0, 10.0, CAP, terminal="free",
                              sat_u=True, sat_v=True)
    assert abs(info["tau1"] - 4.0) <= 0.2
    assert abs(info["tau2"] - 31.0) <= 0.5
    assert info["tau2"] - info["tau1"] > 0
    ts = np.linspace(traj.t0, traj.tf, 20000)
    _, v, u = traj.sample(ts)
    assert float(np.max(v)) <= 13.5 + 1e-9
    assert float(np.max(u)) <= 0.2 + 1e-9
    _verdict(6, f"tau1={info['tau1']:.4f}, tau2={info['tau2']:.4f}, "
                f"caps respected, interior arc {info['tau2'] - info['tau1']:.2f} s")


def _random_scenario(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    roads = ["N", "S", "E", "W"]
    per_road_next = {r: 0.0 for r in roads}
    arrivals = []
    for i in range(n):
        road = roads[int(rng.integers(0, 4))]
        t0 = max(per_road_next[road], float(rng.uniform(0.0, 3.0 * n)))
        per_road_next[road] = t0 + float(rng.uniform(2.2, 6.0))
        arrivals.append(dict(id=i + 1, t0=round(t0, 3),
                             v0=round(float(rng.uniform(6.0, 12.5)), 3),
                             road=road))
    return {"schema_version": 1, "config": {"rng_seed": seed},
            "arrivals": arrivals, "run": {"sample_step": 0.05, "seed": seed}}


def test_c7_random_multi_vehicle_audits():
    t_a = time.perf_counter()
    n_clean = 0
    for seed in range(100):
        res = run_simulation(load_scenario(_random_scenario(seed)))
        # declined or not, the solved CAVs get the fleet check, and it
        # agrees with the all-pairs reference
        ref = check_guarantees_all_pairs(coordinator_of(res))
        assert (res.guarantees.ok, res.guarantees.violations) == \
            (ref.ok, ref.violations), f"seed {seed}"
        if res.exit_code == 0:
            for run in res.runs:
                assert run.audit is not None and run.audit.ok, (
                    f"seed {seed} CAV {run.arrival.id}: "
                    + "; ".join(c.name for c in run.audit.failures()))
            assert res.guarantees is not None and res.guarantees.ok, \
                f"seed {seed}: {res.guarantees.violations}"
            n_clean += 1
        else:
            assert res.failure  # declined with a reason, never silently
            assert res.guarantees.ok, f"seed {seed}: {res.guarantees.violations}"
    wall = time.perf_counter() - t_a
    assert wall < 60.0
    assert n_clean >= 44  # unsupported constraint mixes may decline honestly
    _verdict(7, f"{n_clean}/100 solved clean, every success audited, "
                f"{wall:.1f} s total")


def _oracle_cases():
    def inst_free(i):
        v0 = 8 + 4 * np.random.default_rng(200 + i).random()
        _, traj = solve_p0_free(0.0, v0, CFG)
        return traj, CFG, {}

    def inst_fixed(i):
        r = np.random.default_rng(300 + i)
        v0 = 8 + 4 * r.random()
        _, base = solve_p0_free(0.0, v0, CFG)
        _, traj = solve_p1_fixed(0.0, v0, base.tf + 1 + 3 * r.random(), CFG)
        return traj, CFG, {}

    def inst_safety(i):
        r = np.random.default_rng(400 + i)
        _, lead = solve_p1_fixed(0.0, 10.0, 38.6 + 0.6 * r.random(), CFG)
        traj, _ = solve_safety(2.0 + 0.4 * r.random(), 11.5 + 0.5 * r.random(),
                               lead, CFG, terminal="follower")
        return traj, CFG, {"leader": lead}

    def inst_lateral(i):
        r = np.random.default_rng(500 + i)
        tm = 31.8 + 0.4 * r.random()
        traj, info = solve_lateral(2.0, 11.9 + 0.5 * r.random(), tm, CFG,
                                   terminal="fixed",
                                   tf_fixed=tm + 2.1 + 0.3 * r.random())
        assert info["zeta"] > 0  # the hold genuinely binds
        return traj, CFG, {"lateral_tm": tm}

    def inst_limits(i):
        r = np.random.default_rng(600 + i)
        traj, _ = solve_limits(0.0, 9.8 + 0.9 * r.random(), CAP,
                               terminal="free", sat_u=True, sat_v=True)
        return traj, CAP, {"u_limits": (-0.2, 0.2)}

    # The oracle is the exact optimum of the transcription, so the closed
    # form may exceed it only by the O(dt^2) transcription error, except on
    # the lateral family: the hold is imposed at the grid point nearest tm,
    # an O(dt) shift that lets the oracle come in up to 0.44% below the
    # closed form (0.75% if it were imposed at the grid point before tm).
    return [("free", inst_free, 1.0001), ("fixed", inst_fixed, 1.0001),
            ("safety", inst_safety, 1.0001), ("lateral", inst_lateral, 1.005),
            ("limits", inst_limits, 1.0001)]


ORACLE_ITER_CAP = 40


def test_c8_oracle_never_beats_analytic():
    worst_gap = -1e18
    for name, mk, margin in _oracle_cases():
        for i in range(25):
            traj, cfg, kw = mk(i)
            closed = traj.cost(cfg.gamma).objective
            res = transcription_oracle(traj.t0, traj.eval(traj.t0)[1], cfg,
                                       tf=traj.tf, dt=0.02, iters=ORACLE_ITER_CAP,
                                       **kw)
            assert res.iterations < ORACLE_ITER_CAP, f"{name} i={i}: no convergence"
            assert res.feasible, f"{name} i={i}: oracle violation {res.max_violation:.3e}"
            assert closed <= res.cost * margin, \
                f"{name} i={i}: closed {closed:.6f} vs oracle {res.cost:.6f}"
            worst_gap = max(worst_gap, closed - res.cost * margin)
            # evaluating the closed-form control on the oracle's own grid must
            # reproduce the closed-form cost at second order in the step; the
            # additive floor covers junction kinks straddled mid-interval,
            # whose phase error sits below the dt^2 regime entirely
            e1 = abs(oracle_eval_control(traj, cfg, dt=0.02)[0] - closed)
            e2 = abs(oracle_eval_control(traj, cfg, dt=0.01)[0] - closed)
            assert e1 <= 1e-3
            assert e2 <= 0.35 * e1 + 2e-6, f"{name} i={i}: e1={e1:.2e} e2={e2:.2e}"
    _verdict(8, f"125 instances within oracle bound, worst margin "
                f"{-worst_gap:.2e}")

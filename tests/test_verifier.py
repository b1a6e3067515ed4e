import dataclasses
import math

import numpy as np
import pytest

import scipy.sparse
import scipy.sparse.linalg
from scipy.optimize import minimize

from cavcross import verifier
from cavcross.model import Arc, PiecewiseTrajectory, ScenarioConfig, VehicleArrival
from cavcross.solver import plan, solve_p0_free, solve_p1_fixed, solve_safety
from cavcross.verifier import BlockTridiagonal, OracleResult, audit, transcription_oracle
from oracle_eval import oracle_eval_control
from oracle_qp_reference import _inv3 as reference_inv3
from oracle_search_reference import free_horizon_oracle
from test_acceptance import _oracle_cases

CFG = ScenarioConfig(v_max=20.0)
CAP = ScenarioConfig(v_max=13.5, u_max=0.2, u_min=-0.2)
ORACLE_ITER_CAP = 40


# ---------------------------------------------------------------------------
# audit: clean solutions pass
# ---------------------------------------------------------------------------

def test_audit_accepts_free_solution():
    _, traj = solve_p0_free(0.0, 10.0, CFG)
    rep = audit(traj, CFG, terminal_mode="free")
    assert rep.ok, str(rep)


def test_audit_accepts_safety_ride():
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, CFG)
    traj, _ = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    rep = audit(traj, CFG, leader=lead, terminal_mode="follower")
    assert rep.ok, str(rep)


def test_audit_accepts_capped_solution():
    cfg = ScenarioConfig(v_max=13.5, u_max=0.2, u_min=-0.2)
    traj, _ = plan(VehicleArrival(id=1, t0=0.0, v0=10.0, road="N"), cfg)
    rep = audit(traj, cfg, u_limits=(-0.2, 0.2), terminal_mode="free")
    assert rep.ok, str(rep)


def test_audit_report_formats_each_check():
    _, traj = solve_p0_free(0.0, 10.0, CFG)
    rep = audit(traj, CFG, terminal_mode="free")
    text = str(rep)
    assert "terminal position" in text
    assert text.count("[ok ]") == len(rep.checks)


# ---------------------------------------------------------------------------
# audit: every broken-solution class is caught
# ---------------------------------------------------------------------------

def _failed_names(rep):
    return {c.name for c in rep.failures()}


def test_audit_catches_tailgating():
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, CFG)
    # pretend the follower never saw the leader
    _, selfish = solve_p1_fixed(2.0, 12.0, 34.0, CFG)
    rep = audit(selfish, CFG, leader=lead, terminal_mode="fixed")
    assert "rear-end gap" in _failed_names(rep)


def test_audit_catches_cap_violations():
    _, traj = solve_p0_free(0.0, 10.0, CFG)   # peaks at u=0.233, v=13.73
    rep = audit(traj, CFG, u_limits=(-0.2, 0.2), terminal_mode="free")
    assert "control upper bound" in _failed_names(rep)
    rep2 = audit(traj, ScenarioConfig(v_max=13.5), terminal_mode="free")
    assert "speed upper bound" in _failed_names(rep2)


def test_audit_catches_control_jump():
    # p and v continuous at t=20 but u jumps from 0.1 to -0.05
    a1 = Arc(t_start=0.0, t_end=20.0, a=0.0, b=0.1, c=10.0, d=0.0)
    c2 = a1.v(20.0) + 0.05 * 20.0
    d2 = a1.p(20.0) - (-0.025 * 400.0 + c2 * 20.0)
    a2 = Arc(t_start=20.0, t_end=36.0, a=0.0, b=-0.05, c=c2, d=d2)
    traj = PiecewiseTrajectory((a1, a2))
    rep = audit(traj, CFG, terminal_mode="fixed")
    assert "control continuity" in _failed_names(rep)


def test_audit_catches_short_terminal():
    traj = PiecewiseTrajectory((Arc(t_start=0.0, t_end=30.0, a=0.0, b=0.0,
                                    c=10.0, d=0.0),))   # ends at 300 m
    rep = audit(traj, CFG, terminal_mode="fixed")
    assert "terminal position" in _failed_names(rep)


def test_audit_catches_wrong_free_terminal():
    # pinned away from the free optimum: Hamiltonian is a nonzero constant
    _, traj = solve_p1_fixed(0.0, 10.0, 35.0, CFG)
    rep = audit(traj, CFG, terminal_mode="free")
    assert "free-terminal Hamiltonian" in _failed_names(rep)
    assert audit(traj, CFG, terminal_mode="fixed").ok


def test_audit_catches_sign_structure():
    # slow crossing needs early braking: slope turns positive, control dips
    _, traj = solve_p1_fixed(0.0, 10.0, 45.0, CFG)
    rep = audit(traj, CFG, terminal_mode="free")
    assert "accel-relax slope sign" in _failed_names(rep)
    # a boundary-value cubic that brakes then recovers is not single-signed
    dip = PiecewiseTrajectory((Arc(t_start=0.0, t_end=41.0,
                                   a=0.0017411238954745383,
                                   b=-0.03569303985722797,
                                   c=10.0, d=0.0),))
    rep2 = audit(dip, CFG, terminal_mode="fixed")
    assert "single-signed control" in _failed_names(rep2)
    assert audit(dip, CFG, terminal_mode="given").ok


def test_audit_catches_hold_violation():
    _, traj = solve_p0_free(0.0, 10.0, CFG)   # crosses 370 m around t=29.8
    rep = audit(traj, CFG, lateral_tm=31.0, terminal_mode="free")
    assert "merging-zone hold" in _failed_names(rep)


def _late_ride(t0):
    """A 30 s gap ride from ``t0`` with u = 1e-3 at its start: its amplitude
    carries exp(t0/phi), so from about 355 s on its squared energy overflows."""
    amp = (1e-3 * math.exp(t0),)
    ride = Arc(t0, t0 + 30.0, 0.0, 0.0, 12.0, 0.0, amp=amp, phi=1.0, kind="track")
    return PiecewiseTrajectory((dataclasses.replace(ride, d=CFG.exit_distance - ride.p(t0 + 30.0)),))


def test_audit_fails_a_ride_whose_energy_overflows():
    assert audit(_late_ride(300.0), CFG, terminal_mode="fixed").ok
    late = _late_ride(400.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(late.cost(CFG.gamma).objective)
    rep = audit(late, CFG, terminal_mode="fixed")
    assert _failed_names(rep) == {"finite cost and coefficients"}
    assert rep.checks[0].t_worst == 400.0


def test_audit_fails_a_non_finite_coefficient():
    ride = dataclasses.replace(_late_ride(100.0).arcs[0], amp=(math.nan,))
    rep = audit(PiecewiseTrajectory((ride,)), CFG, terminal_mode="fixed")
    assert rep.checks[0].name == "finite cost and coefficients"
    assert not rep.checks[0].ok and rep.checks[0].t_worst == 100.0


# ---------------------------------------------------------------------------
# independent cost evaluation and the transcription competitor
# ---------------------------------------------------------------------------

def test_control_sampling_cost_converges_second_order():
    _, traj = solve_p0_free(0.0, 10.0, CFG)
    exact = traj.cost(CFG.gamma).objective
    e1 = abs(oracle_eval_control(traj, CFG, dt=0.02)[0] - exact)
    e2 = abs(oracle_eval_control(traj, CFG, dt=0.01)[0] - exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)


def test_transcription_matches_pinned_solution():
    _, traj = solve_p1_fixed(0.0, 10.0, 33.0, CFG)
    res = transcription_oracle(0.0, 10.0, CFG, tf=33.0, iters=4000, seed=0)
    assert res.feasible
    assert res.iterations < ORACLE_ITER_CAP
    analytic = traj.cost(CFG.gamma).objective
    # the discrete optimum sits within the O(dt^2) transcription error
    assert res.cost == pytest.approx(analytic, rel=1e-4)


def test_transcription_flags_unreachable_target():
    # 400 m in 20 s needs 20 m/s on average against a 13.5 m/s cap
    res = transcription_oracle(0.0, 10.0, ScenarioConfig(v_max=13.5), tf=20.0,
                               iters=600, seed=0)
    assert res.max_violation > 1.0
    assert not res.feasible
    # the elastic terminal slack carries the shortfall and the solve stops
    # at a normal iteration count, not at the cap
    assert res.penalty == pytest.approx(res.max_violation, rel=1e-6)
    assert res.iterations < ORACLE_ITER_CAP


def test_transcription_is_seed_deterministic():
    a = transcription_oracle(0.0, 10.0, CFG, tf=33.0, iters=800, seed=3)
    b = transcription_oracle(0.0, 10.0, CFG, tf=33.0, iters=800, seed=3)
    assert a.cost == b.cost
    assert np.array_equal(a.controls, b.controls)
    # the seed is accepted for compatibility and has no effect
    c = transcription_oracle(0.0, 10.0, CFG, tf=33.0, iters=800, seed=4)
    assert np.array_equal(a.controls, c.controls)


def test_transcription_free_horizon_brackets_the_optimum():
    res = transcription_oracle(0.0, 10.0, CFG, tf=None, iters=1500, seed=0)
    assert res.feasible
    assert res.tf == pytest.approx(32.03, abs=0.5)


def test_transcription_respects_leader_gap():
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, CFG)
    traj, _ = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    res = transcription_oracle(2.0, 12.0, CFG, tf=traj.tf, leader=lead,
                               iters=15000, seed=0)
    assert res.feasible
    assert res.iterations < ORACLE_ITER_CAP
    assert traj.cost(CFG.gamma).objective <= res.cost * 1.0001


# ---------------------------------------------------------------------------
# the free-horizon search solves only candidates that can change a decision
# ---------------------------------------------------------------------------

def _assert_same_result(res, ref):
    for f in dataclasses.fields(OracleResult):
        assert np.array_equal(getattr(res, f.name), getattr(ref, f.name)), f.name


def _c8_free(i, max_solves):
    """c8 free instance i (bench's oracle instance of the free family)."""
    return pytest.param(0.0, 8 + 4 * np.random.default_rng(200 + i).random(), CFG,
                        0.02, dict, max_solves, id=f"c8_free_{i}")


def _recording_results(monkeypatch):
    """Every ``OracleResult`` the oracle builds from here on, in order."""
    made = []

    def record(**fields):
        made.append(OracleResult(**fields))
        return made[-1]

    monkeypatch.setattr(verifier, "OracleResult", record)
    return made


def _assert_floor_bounds_each(results, t0, v0, cfg):
    """gamma*n*h + ``_least_energy`` is at most each horizon's outer cost."""
    assert results
    for res in results:
        n = res.controls.size
        h = (res.tf - t0) / n
        floor = cfg.gamma * (n * h) + verifier._least_energy(n, h, v0, cfg.exit_distance)
        assert floor <= verifier._outer_cost(res), f"tf = {res.tf}"


@pytest.mark.parametrize("t0, v0, cfg, dt, kw, max_solves", [
    *(_c8_free(i, max_solves) for i, max_solves in enumerate((5, 6, 4, 5))),
    pytest.param(2.0, 12.0, CFG, 0.05,
                 lambda: {"leader": solve_p1_fixed(0.0, 10.0, 39.0, CFG)[1]}, 11,
                 id="leader"),
    pytest.param(2.0, 12.0, CFG, 0.05, lambda: {"lateral_tm": 32.0}, 10, id="hold"),
    pytest.param(0.0, 13.45, CAP, 0.05, lambda: {"u_limits": (-0.2, 0.2)}, 12,
                 id="cap_near_v_max"),
])
def test_free_horizon_search_matches_solving_every_candidate(monkeypatch, t0, v0, cfg,
                                                             dt, kw, max_solves):
    solved = []
    qp = verifier._transcription_qp

    def counted(*args):
        solved.append(args[0])
        return qp(*args)

    monkeypatch.setattr(verifier, "_transcription_qp", counted)
    kw = kw()
    candidates = _recording_results(monkeypatch)
    ref = free_horizon_oracle(t0, v0, cfg, dt=dt, iters=1500, **kw)
    assert len(solved) == 19
    # the cost floor holds on every candidate, skipped by the search or not
    _assert_floor_bounds_each(candidates, t0, v0, cfg)
    solved.clear()
    res = transcription_oracle(t0, v0, cfg, dt=dt, iters=1500, **kw)
    _assert_same_result(res, ref)
    assert len(solved) <= max_solves


def test_least_energy_floor_is_tight_where_nothing_binds():
    # c8 free 0's returned horizon: no box, gap or hold row binds, so the
    # optimal control is the Cauchy-Schwarz extremal and the floor is its
    # energy up to the terminal tolerance
    v0 = 8 + 4 * np.random.default_rng(200).random()
    res = transcription_oracle(0.0, v0, CFG, dt=0.02, iters=1500)
    assert res.feasible
    n = res.controls.size
    h = res.tf / n
    energy = res.cost - CFG.gamma * (n * h)
    floor = verifier._least_energy(n, h, v0, CFG.exit_distance)
    assert floor <= energy
    assert energy - floor <= 1e-3 * energy


def _coast(n, h, v0, *rest):
    return np.full(n, v0), 0.0, 0


def _constant_control(n, h, v0, cfg, *rest):
    T = n * h
    u = 2.0 * (cfg.exit_distance - v0 * T) / (T * T)
    return v0 + u * h * np.arange(1, n + 1), 0.0, 0


@pytest.mark.parametrize("qp, v0, cfg", [
    # coasting at v0 misses the exit on every candidate, so the unreachable
    # ones, skipped while something costs less, must be solved
    (_coast, 10.0, CFG),
    # the constant control that reaches the exit costs gamma*T + 2(D -
    # v0*T)^2/T^3, zero at the third grid point (T = 280 s), whose
    # travel-time term lies 0.0074 below the second point's cost
    (_constant_control, 400.0 / 280.0, ScenarioConfig(v_max=20.0, gamma=1e-4)),
], ids=["no_feasible_horizon", "near_tie"])
def test_free_horizon_search_with_a_stand_in_solve(monkeypatch, qp, v0, cfg):
    monkeypatch.setattr(verifier, "_transcription_qp", qp)
    candidates = _recording_results(monkeypatch)
    ref = free_horizon_oracle(0.0, v0, cfg)
    _assert_floor_bounds_each(candidates, 0.0, v0, cfg)
    res = transcription_oracle(0.0, v0, cfg)
    _assert_same_result(res, ref)


def test_free_horizon_search_without_a_feasible_horizon_stays_near_the_least_shortfall():
    # the gap behind the leader is breached by 1.5 m at entry, so no horizon
    # is feasible; priced by its violation, the search keeps to the horizons
    # that miss by little more than that breach instead of drifting below
    # the scan start to the shortest horizon it tries (tf = 9.19 s, a miss of
    # 309.6, under a flat price)
    lead = solve_p1_fixed(0.0, 11.0, 36.0, CFG)[1]
    res = transcription_oracle(1.0, 12.5, CFG, dt=0.2, leader=lead)
    assert not res.feasible
    assert res.tf > 1.0 + CFG.exit_distance / CFG.v_max
    assert 1.4 < res.max_violation < 1.5


@pytest.mark.parametrize("cfg", [CFG, CAP], ids=["wide", "cap"])
def test_horizons_called_unreachable_come_back_infeasible(cfg):
    v0, u_hi, D = 10.0, cfg.u_max, cfg.exit_distance
    # the fastest time to the exit: full acceleration to v_max, then cruise
    t_acc = (cfg.v_max - v0) / u_hi
    fastest = t_acc + (D - v0 * t_acc - 0.5 * u_hi * t_acc ** 2) / cfg.v_max
    called = 0
    for T in fastest + 0.05 * np.arange(-10, 11):
        if verifier._unreachable(T, v0, cfg, u_hi):
            called += 1
            res = transcription_oracle(0.0, v0, cfg, tf=T, dt=0.1, iters=1500)
            assert not res.feasible, f"T = {T:.2f}"
    # every horizon short of the fastest one, and none past it
    assert called == 10


# ---------------------------------------------------------------------------
# the oracle's Newton solve and its optimum, against dense references
# ---------------------------------------------------------------------------

def _block_matrix(L, D):
    """The assembled matrix of ``BlockTridiagonal(L, D)``: D_k on the block
    diagonal, L_k below it at block (k, k-1) and L_k^T above it."""
    i, j, k = np.indices(D.shape)
    rows, cols = 3 * k + i, 3 * k + j
    low = (..., slice(1, None))
    data = np.concatenate([D.ravel(), L[low].ravel(), L[low].ravel()])
    r = np.concatenate([rows.ravel(), rows[low].ravel(), cols[low].ravel() - 3])
    c = np.concatenate([cols.ravel(), cols[low].ravel() - 3, rows[low].ravel()])
    return scipy.sparse.csc_array((data, (r, c)), shape=(3 * D.shape[2],) * 2)


# up to TOP_BLOCKS blocks the system is inverted densely; past it, one or
# more levels of cyclic reduction come first; 1618 and 1874 are the block
# counts of the benchmark's limits and safety instances
@pytest.mark.parametrize("blocks", [1, 2, 3, 8, 9, 16, 17, 33, 1001, 1618, 1874])
def test_block_tridiagonal_solve_matches_dense(blocks):
    rng = np.random.default_rng(blocks)
    L, D = (rng.normal(size=(3, 3, blocks)) for _ in range(2))
    # symmetric and indefinite like the oracle's Newton blocks, but well
    # conditioned so the reference is exact to round-off
    D += D.transpose(1, 0, 2) + 20.0 * np.diag([-1.0, 1.0, 1.0])[:, :, None]
    r = rng.normal(size=(3, blocks))
    x = BlockTridiagonal(L, D).solve(r)
    # the reference is a general LU with pivoting of the assembled matrix,
    # kept sparse: dense, the largest would take 250 MB and seconds
    ref = scipy.sparse.linalg.spsolve(_block_matrix(L, D), r.T.ravel())
    ref = ref.reshape(blocks, 3).T
    assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _newton_systems(monkeypatch, name):
    """(L, D, rhs) of every solve the oracle makes on c8 instance 0 of a family.

    At dt = 0.1 the instance has about 400 stages, so its Newton matrix of
    about 1,200 rows fits densely in memory."""
    systems = []

    class Recording(BlockTridiagonal):
        def __init__(self, L, D):
            super().__init__(L, D)
            self.blocks = L.copy(), D.copy()

        def solve(self, r):
            systems.append((*self.blocks, r.copy()))
            return super().solve(r)

    monkeypatch.setattr(verifier, "BlockTridiagonal", Recording)
    traj, cfg, kw = dict((n, mk) for n, mk, _ in _oracle_cases())[name](0)
    res = transcription_oracle(traj.t0, traj.eval(traj.t0)[1], cfg, tf=traj.tf,
                               dt=0.1, iters=ORACLE_ITER_CAP, **kw)
    assert res.feasible and res.iterations < ORACLE_ITER_CAP
    return systems


# The normwise backward error |Kx - r| / (|K| |x| + |r|) (infinity norms) of
# the predictor and corrector solves at the first and the last interior-point
# iteration, each bound about ten times the largest measured: 3.2e-17 and
# 5.0e-25 on the gap ride, 9.0e-18 and 6.7e-23 under the caps. The last
# iteration's barrier terms make |K| large, hence the tiny relative error.
@pytest.mark.parametrize("name, first_bound, last_bound", [
    pytest.param("safety", 3e-16, 5e-24, id="safety"),
    pytest.param("limits", 9e-17, 6e-22, id="limits"),
])
def test_block_tridiagonal_solves_the_oracles_newton_systems(monkeypatch, name,
                                                             first_bound, last_bound):
    systems = _newton_systems(monkeypatch, name)
    assert len(systems) % 2 == 0 and len(systems) >= 4
    for (L, D, r), bound in zip(systems[:2] + systems[-2:], [first_bound] * 2 + [last_bound] * 2):
        K = _block_matrix(L, D).toarray()
        x = BlockTridiagonal(L, D).solve(r).T.ravel()
        r = r.T.ravel()
        norm_k = np.max(np.sum(np.abs(K), axis=1))
        err = np.max(np.abs(K @ x - r)) / (norm_k * np.max(np.abs(x)) + np.max(np.abs(r)))
        assert err <= bound


@pytest.mark.parametrize("blocks", [1, 2, 7, 1000])
def test_inv3_matches_the_adjugate_bit_for_bit(blocks):
    rng = np.random.default_rng(blocks)
    M = rng.normal(size=(3, 3, 2 * blocks)) * 10.0 ** rng.uniform(-3.0, 3.0, 2 * blocks)
    # contiguous and strided, as the factor passes its even blocks
    for A in (M, M[:, :, 0::2], M[:, :, 1::2]):
        inv = verifier._inv3(A)
        assert inv.shape == A.shape
        assert np.array_equal(inv, reference_inv3(A))


def test_oracle_newton_work_is_one_factor_and_two_solves_an_iteration(monkeypatch):
    counts = {"factor": 0, "solve": 0}
    factor, solve = BlockTridiagonal.__init__, BlockTridiagonal.solve

    def counted_factor(self, *args):
        counts["factor"] += 1
        factor(self, *args)

    def counted_solve(self, *args):
        counts["solve"] += 1
        return solve(self, *args)

    monkeypatch.setattr(BlockTridiagonal, "__init__", counted_factor)
    monkeypatch.setattr(BlockTridiagonal, "solve", counted_solve)
    lead = solve_p1_fixed(0.0, 10.0, 39.0, CFG)[1]
    res = transcription_oracle(2.0, 12.0, CFG, tf=41.0, dt=0.05, leader=lead, iters=1500)
    assert res.feasible and res.iterations > 5
    # the predictor is solved once and the corrector once, unrefined
    assert counts == {"factor": res.iterations, "solve": 2 * res.iterations}


def _slsqp_transcription(t0, v0, cfg, tf, n, leader=None, lateral_tm=None):
    """The same transcription by SLSQP over the controls.

    The states after each step are affine in the controls, p = P u + p_free
    and v = V u + v_free, so every row is a linear constraint on u.
    Returns the optimum and the (A, b) of the rows A u <= b.
    """
    h = (tf - t0) / n
    step = np.arange(n)
    V = h * np.tril(np.ones((n, n)))
    P = h * h * np.where(step[:, None] >= step[None, :],
                         step[:, None] - step[None, :] + 0.5, 0.0)
    tk = h * np.arange(1, n + 1)
    p_free, v_free = v0 * tk, np.full(n, v0)
    A, b = [V, -V], [cfg.v_max - v_free, v_free - cfg.v_min]
    if leader is not None:
        lead = leader.extended(tf + h).sample(np.maximum(t0 + tk, leader.t0))[0]
        A.append(P + cfg.phi * V)
        b.append(lead - cfg.delta0 - p_free - cfg.phi * v_free)
    if lateral_tm is not None:
        k = min(int(round((lateral_tm - t0) / h)), n)
        A.append(P[k - 1:k])
        b.append(np.array([cfg.L - p_free[k - 1]]))
    A, b = np.vstack(A), np.concatenate(b)
    D = cfg.exit_distance
    cons = [{"type": "eq", "fun": lambda u: P[-1] @ u + p_free[-1] - D,
             "jac": lambda u: P[-1:]},
            {"type": "ineq", "fun": lambda u: b - A @ u, "jac": lambda u: -A}]
    res = minimize(lambda u: cfg.gamma * n * h + 0.5 * h * u @ u, np.zeros(n),
                   jac=lambda u: h * u, method="SLSQP",
                   bounds=[(cfg.u_min, cfg.u_max)] * n, constraints=cons,
                   options={"ftol": 1e-15, "maxiter": 500})
    assert res.success, res.message
    return res, A, b


def _gap_case():
    _, lead = solve_p1_fixed(0.0, 10.0, 39.0, CFG)
    traj, _ = solve_safety(2.0, 12.0, lead, CFG, terminal="follower")
    # half a second past the closed-form exit, so the terminal leaves the
    # gap bound and the gap binds mid-course
    return 2.0, 12.0, CFG, traj.tf + 0.5, {"leader": lead}


@pytest.mark.parametrize("case, active", [
    (lambda: (0.0, 10.0, CFG, 33.0, {}), "terminal"),
    (lambda: (0.0, 10.0, CAP, 32.2, {}), "caps"),
    (_gap_case, "gap"),
    (lambda: (2.0, 12.0, CFG, 34.4, {"lateral_tm": 32.4}), "hold"),
])
def test_transcription_matches_slsqp(case, active):
    n = 40
    t0, v0, cfg, tf, kw = case()
    ref, A, b = _slsqp_transcription(t0, v0, cfg, tf, n, **kw)
    res = transcription_oracle(t0, v0, cfg, tf=tf, dt=(tf - t0) / n, **kw)
    assert res.controls.size == n
    assert res.feasible and res.iterations < ORACLE_ITER_CAP
    assert res.cost == pytest.approx(ref.fun, rel=1e-7)
    # the case exercises the row it is named for
    binding = A @ res.controls - b > -1e-7
    if active == "terminal":
        assert not binding.any()
        assert np.max(np.abs(res.controls)) < cfg.u_max - 1e-3
    elif active == "caps":
        assert binding[:n].any()
        assert np.sum(res.controls > cfg.u_max - 1e-7) >= 2
    else:
        assert binding[2 * n:].any() and not binding[:2 * n].any()

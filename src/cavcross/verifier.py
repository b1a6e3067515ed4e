"""Independent validation: constraint audits and a brute-force oracle.

``audit`` re-checks a solved trajectory against every constraint and
optimality-condition invariant by dense sampling plus closed-form extrema —
it never trusts the solver's own bookkeeping.

``transcription_oracle`` minimizes the same objective by discretizing the
control on a uniform grid and running projected gradient descent with
quadratic constraint penalties. It shares no machinery with the arc solver,
so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (CruiseArc, CubicArc, ExpTrackArc, PiecewiseTrajectory,
                    ScenarioConfig)

BOUND_TOL = 1e-9
GAP_TOL = 1e-6
CONT_TOL = 1e-8
H_TOL = 1e-8


@dataclass
class AuditCheck:
    name: str
    worst: float
    t_worst: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.worst <= self.tol


@dataclass
class AuditReport:
    checks: list = field(default_factory=list)

    def add(self, name, worst, t_worst, tol):
        self.checks.append(AuditCheck(name, float(worst), float(t_worst), tol))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"[{mark}] {c.name}: worst {c.worst:.3e} at t={c.t_worst:.3f}"
                         f" (tol {c.tol:.0e})")
        return "\n".join(lines)


def audit(traj: PiecewiseTrajectory, cfg: ScenarioConfig, *, leader=None,
          lateral_tm=None, u_limits=None, terminal_mode="free", step=1e-3) -> AuditReport:
    """Full constraint and invariant audit of one solved trajectory."""
    rep = AuditReport()
    u_lo, u_hi = u_limits if u_limits is not None else (cfg.u_min, cfg.u_max)
    ts = traj.dense_times(step)
    p, v, u = traj.sample(ts)

    def record_max(name, values, tol):
        i = int(np.argmax(values))
        rep.add(name, values[i], ts[i], tol)

    record_max("control upper bound", u - u_hi, BOUND_TOL)
    record_max("control lower bound", u_lo - u, BOUND_TOL)
    record_max("speed upper bound", v - cfg.v_max, BOUND_TOL)
    record_max("speed lower bound", cfg.v_min - v, BOUND_TOL)

    # junction continuity, measured arc-to-arc at each breakpoint
    worst_state, worst_u, t_state, t_u = 0.0, 0.0, traj.t0, traj.t0
    for left, right in zip(traj.arcs[:-1], traj.arcs[1:]):
        tb = left.t_end
        dp = abs(float(left.p(tb)) - float(right.p(tb)))
        dv = abs(float(left.v(tb)) - float(right.v(tb)))
        du = abs(float(left.u(tb)) - float(right.u(tb)))
        if max(dp, dv) > worst_state:
            worst_state, t_state = max(dp, dv), tb
        if du > worst_u:
            worst_u, t_u = du, tb
    rep.add("state continuity", worst_state, t_state, CONT_TOL)
    rep.add("control continuity", worst_u, t_u, CONT_TOL)

    pf = float(traj.eval(traj.tf)[0])
    rep.add("terminal position", abs(pf - cfg.exit_distance), traj.tf, GAP_TOL)

    if leader is not None:
        lead = leader.extended(traj.tf + 1e-9)
        mask = ts >= leader.t0
        pk = lead.sample(ts[mask])[0]
        gap = p[mask] + cfg.phi * v[mask] + cfg.delta0 - pk
        i = int(np.argmax(gap))
        rep.add("rear-end gap", gap[i], ts[mask][i], GAP_TOL)

    if lateral_tm is not None and lateral_tm > traj.t0:
        t_eval = min(lateral_tm, traj.tf)
        rep.add("merging-zone hold", float(traj.eval(t_eval)[0]) - cfg.L, t_eval, GAP_TOL)

    # Hamiltonian profile: constant on every unconstrained cubic, and zero
    # after the last costate jump when the terminal time is free. The
    # multiplier of a binding gap ride or merging-zone hold shifts H on
    # everything before it, so only arcs past that point must sit at zero.
    h_gate = traj.t0
    if lateral_tm is not None and lateral_tm < traj.tf:
        h_gate = max(h_gate, lateral_tm)
    for arc in traj.arcs:
        if isinstance(arc, ExpTrackArc):
            h_gate = max(h_gate, arc.t_end)
    worst_flat, t_flat = 0.0, traj.t0
    h_free, t_free = 0.0, traj.tf
    for arc in traj.arcs:
        if not isinstance(arc, CubicArc):
            continue
        tt = np.linspace(arc.t_start, arc.t_end, 50)
        uu = arc.u(tt)
        vv = arc.v(tt)
        H = cfg.gamma - 0.5 * uu * uu + arc.a * vv
        spread = float(np.max(H) - np.min(H))
        if spread > worst_flat:
            worst_flat, t_flat = spread, arc.t_start
        if terminal_mode == "free" and arc.t_start >= h_gate - 1e-9:
            j = int(np.argmax(np.abs(H)))
            if abs(H[j]) > h_free:
                h_free, t_free = float(abs(H[j])), float(tt[j])
    rep.add("Hamiltonian flatness", worst_flat, t_flat, H_TOL)
    if terminal_mode == "free":
        rep.add("free-terminal Hamiltonian", h_free, t_free, H_TOL)
        # free-time solutions stay strictly off the lower caps
        rep.add("free-time off lower control cap", u_lo + BOUND_TOL - float(np.min(u)),
                ts[int(np.argmin(u))], 0.0)
        rep.add("free-time off lower speed cap", cfg.v_min + BOUND_TOL - float(np.min(v)),
                ts[int(np.argmin(v))], 0.0)

    if terminal_mode == "free" and len(traj.arcs) == 1 and isinstance(traj.arcs[0], CubicArc):
        arc = traj.arcs[0]
        rep.add("accel-relax slope sign", arc.a, traj.t0, 1e-12)
        rep.add("accel-relax control sign", -float(np.min(u)), ts[int(np.argmin(u))], BOUND_TOL)
        rep.add("accel-relax terminal control", abs(float(u[-1])), traj.tf, CONT_TOL)
    if terminal_mode == "fixed" and len(traj.arcs) == 1 and isinstance(traj.arcs[0], CubicArc):
        rep.add("single-signed control", -float(np.min(u)) * float(np.max(u)),
                traj.t0, 1e-10)
    return rep


# ---------------------------------------------------------------------------
# direct-transcription oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    cost: float
    controls: np.ndarray
    tf: float
    penalty: float          # residual penalty at the returned point
    max_violation: float    # worst physical constraint violation (m, m/s)
    feasible: bool


def _rollout(u, t0, v0, dt):
    """Exact discrete rollout for piecewise-constant control."""
    v = np.empty(u.size + 1)
    p = np.empty(u.size + 1)
    v[0], p[0] = v0, 0.0
    np.cumsum(u * dt, out=v[1:])
    v[1:] += v0
    incr = v[:-1] * dt + 0.5 * u * dt * dt
    np.cumsum(incr, out=p[1:])
    return p, v


def oracle_eval_control(traj: PiecewiseTrajectory, cfg: ScenarioConfig, dt=0.01):
    """Oracle-side cost of the analytic control, no optimization.

    Samples the control at step midpoints, rolls the discrete dynamics, and
    integrates the running cost on the same grid; agreement with the
    closed-form cost is second-order in the step.
    """
    t0, tf = traj.t0, traj.tf
    n = max(int(round((tf - t0) / dt)), 1)
    h = (tf - t0) / n
    mids = t0 + (np.arange(n) + 0.5) * h
    u = traj.sample(mids)[2]
    p, v = _rollout(u, t0, traj.eval(t0)[1], h)
    cost = cfg.gamma * (tf - t0) + float(np.sum(0.5 * u * u) * h)
    return cost, p, v


def _penalized(u, t0, v0, dt, cfg, gamma, rho, leader_p=None, lateral_idx=None):
    """Objective + constraint penalties and its exact discrete gradient."""
    n = u.size
    p, v = _rollout(u, t0, v0, dt)
    D = cfg.exit_distance
    cost = gamma * (n * dt) + np.sum(0.5 * u * u) * dt

    gp = np.zeros(n + 1)
    gv = np.zeros(n + 1)
    pen = 0.0

    viol_hi = np.maximum(v - cfg.v_max, 0.0)
    viol_lo = np.maximum(cfg.v_min - v, 0.0)
    pen += rho * dt * (np.sum(viol_hi**2) + np.sum(viol_lo**2))
    gv += rho * dt * (2.0 * viol_hi - 2.0 * viol_lo)

    if leader_p is not None:
        gap = np.maximum(p + cfg.phi * v + cfg.delta0 - leader_p, 0.0)
        pen += rho * dt * np.sum(gap**2)
        gp += rho * dt * 2.0 * gap
        gv += rho * dt * 2.0 * gap * cfg.phi

    if lateral_idx is not None and 0 <= lateral_idx <= n:
        over = max(p[lateral_idx] - cfg.L, 0.0)
        pen += rho * over**2
        gp[lateral_idx] += rho * 2.0 * over

    term = p[n] - D
    pen += rho * term * term
    gp[n] += rho * 2.0 * term

    # adjoint sweep, vectorized with reversed cumulative sums
    P = np.cumsum(gp[::-1])[::-1]                      # dF/dp_j accumulated
    T = np.cumsum(P[::-1])[::-1]
    V = np.cumsum(gv[::-1])[::-1].copy()
    V[:-1] += dt * T[1:]
    grad = u * dt + dt * V[1:] + 0.5 * dt * dt * P[1:]
    return cost + pen, pen, grad


def transcription_oracle(t0, v0, cfg: ScenarioConfig, *, tf=None, dt=0.01,
                         leader=None, lateral_tm=None, u_limits=None,
                         iters=10000, seed=0):
    """Penalty-method projected gradient competitor for one CAV solve.

    With ``tf`` given, optimizes the discretized control directly; with
    ``tf=None``, scans candidate horizons bracketing the best one and
    refines by golden section on the outer cost.
    """
    u_lo, u_hi = u_limits if u_limits is not None else (cfg.u_min, cfg.u_max)

    def solve_fixed(tf_val, budget):
        n = max(int(round((tf_val - t0) / dt)), 8)
        h = (tf_val - t0) / n
        rng = np.random.default_rng(seed)
        u = rng.uniform(-0.05, 0.05, n)
        u = np.clip(u, u_lo, u_hi)
        leader_p = None
        if leader is not None:
            grid = t0 + np.arange(n + 1) * h
            lead = leader.extended(tf_val + h)
            leader_p = lead.sample(np.maximum(grid, leader.t0))[0]
        lat_idx = None
        if lateral_tm is not None and lateral_tm > t0:
            lat_idx = min(int(round((lateral_tm - t0) / h)), n)
        stages = 5
        per = max(budget // stages, 1)
        rho = 10.0
        best_u, best_F = u.copy(), np.inf
        for _ in range(stages):
            lr = 0.5 / (rho * h * (n * h) ** 2 + 1.0)
            F, _, g = _penalized(u, t0, v0, h, cfg, cfg.gamma, rho,
                                 leader_p, lat_idx)
            for _ in range(per):
                trial = np.clip(u - lr * g, u_lo, u_hi)
                F2, _, g2 = _penalized(trial, t0, v0, h, cfg, cfg.gamma, rho,
                                       leader_p, lat_idx)
                if F2 <= F:
                    u, F, g = trial, F2, g2
                    lr *= 1.1
                else:
                    lr *= 0.5
                    if lr < 1e-14:
                        break
            rho *= 10.0
        F, pen, _ = _penalized(u, t0, v0, h, cfg, cfg.gamma, rho / 10.0,
                               leader_p, lat_idx)
        cost = cfg.gamma * (n * h) + float(np.sum(0.5 * u * u) * h)
        p, v = _rollout(u, t0, v0, h)
        viol = [float(np.max(v - cfg.v_max, initial=0.0)),
                float(np.max(cfg.v_min - v, initial=0.0)),
                abs(float(p[-1]) - cfg.exit_distance)]
        if leader_p is not None:
            viol.append(float(np.max(p + cfg.phi * v + cfg.delta0 - leader_p,
                                     initial=0.0)))
        if lat_idx is not None:
            viol.append(max(float(p[lat_idx]) - cfg.L, 0.0))
        worst = max(viol)
        return OracleResult(cost=cost, controls=u, tf=tf_val, penalty=float(pen),
                            max_violation=worst, feasible=worst < 0.05)

    if tf is not None:
        return solve_fixed(float(tf), iters)

    # outer scan on the horizon, memoized on the rounded candidate
    budget = max(iters // 4, 500)
    cache = {}

    def outer_cost(tf_val):
        key = round(tf_val, 6)
        if key not in cache:
            res = solve_fixed(tf_val, budget)
            cache[key] = res.cost if res.max_violation < 0.5 else res.cost + 1e3
        return cache[key]

    t_scan0 = t0 + cfg.exit_distance / max(cfg.v_max, v0)
    t_scan1 = t0 + cfg.exit_distance / max(min(v0, cfg.v_max) * 0.35, 0.5)
    grid = list(np.linspace(t_scan0, t_scan1, 7))
    best = min(grid, key=outer_cost)
    span = grid[1] - grid[0]
    lo, hi = best - span, best + span
    phi_g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(10):
        m1 = hi - phi_g * (hi - lo)
        m2 = lo + phi_g * (hi - lo)
        if outer_cost(m1) < outer_cost(m2):
            hi = m2
        else:
            lo = m1
    return solve_fixed(0.5 * (lo + hi), iters)

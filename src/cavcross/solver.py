"""Closed-form optimal trajectory construction for one CAV.

Minimizes J = gamma*(tf - t0) + integral 0.5*u^2 over the control+merging
zones subject to double-integrator dynamics, speed/control caps, a
reaction-headway gap behind the same-lane leader, an interior position cap at
a conflicting CAV's exit time, and first-in-first-out ordering.

Stationarity makes the unconstrained control linear in time (u = a*t + b with
costates lambda_p = a, lambda_v = -(a*t + b)). Given the junction and
terminal times every arc follows in closed form, so most solves reduce to a
scalar residual in one time whose roots ``newton.bracket_roots`` brackets on
a grid; only the follower terminal and the saturation families still solve
small coupled systems by Newton:

* ``solve_p0_free``       -- free terminal time, no active constraints.
* ``solve_p1_fixed``      -- pinned terminal time (linear 4x4 system).
* ``solve_p1_follower``   -- terminal time on the leader-headway boundary,
                             with its multiplier eta.
* ``solve_safety``        -- gap-riding arc behind the leader, with or
                             without a departure back to an unconstrained tail.
* ``solve_lateral``       -- interior position cap p(tm) = L, two cubics.
* ``solve_limits``        -- control and/or speed saturation arc structures.
* ``plan``                -- the step-wise activation loop tying it together.

Junctions between unconstrained and gap-riding arcs use second-order contact:
the gap, its rate, and its acceleration all vanish where the incoming cubic
meets the boundary. That closes the entry subproblem by itself, so the
departure subproblem can be solved afterwards without feedback, and it is
equivalent to the gap multiplier starting from zero at the junction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import TerminalWindow, composite_window
from .model import (ConfigError, CruiseArc, CubicArc, ExpTrackArc,
                    PiecewiseTrajectory, SatArc, ScenarioConfig,
                    VehicleArrival, _exp_antideriv, _pint, _pval)
from .newton import bracket_roots, solve_system


class SolverError(RuntimeError):
    pass


class StructureError(SolverError):
    """No convergent arc structure for the requested constraint pattern."""


class InfeasibleProblem(SolverError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# shared cubic helpers (absolute-time coefficients)
# ---------------------------------------------------------------------------

def _cub_u(a, b, t):
    return a * t + b


def _cub_v(a, b, c, t):
    return (0.5 * a * t + b) * t + c


def _cub_p(a, b, c, d, t):
    return ((a / 6.0 * t + 0.5 * b) * t + c) * t + d


def _init_cd(t0, v0, a, b):
    """c, d making v(t0) = v0 and p(t0) = 0."""
    c = v0 - 0.5 * a * t0 * t0 - b * t0
    d = -((a / 6.0 * t0 + 0.5 * b) * t0 + c) * t0
    return c, d


@dataclass(frozen=True)
class UnconstrainedParams:
    a: float
    b: float
    c: float
    d: float
    tf: float


@dataclass
class MultiplierRecord:
    """Costate and junction-multiplier bookkeeping for one solve."""

    lambda_p: list = field(default_factory=list)   # (t_start, t_end, value) per cubic arc
    eta: float | None = None                       # terminal headway multiplier
    zeta: float | None = None                      # interior position-cap jump
    pi: float | None = None                        # junction jump (0 when costates continuous)


@dataclass
class SolveReport:
    cav_id: int | None = None
    steps: list = field(default_factory=list)       # dicts: problem, residual, iters, detail
    active: list = field(default_factory=list)      # activated constraint kinds, in order
    terminal_mode: str = "free"
    window: TerminalWindow | None = None
    binding: str | None = None
    multipliers: MultiplierRecord = field(default_factory=MultiplierRecord)
    extensions: list = field(default_factory=list)
    feasible: bool = True
    wall_time: float = 0.0

    def log(self, problem, residual=None, iters=None, **detail):
        entry = {"problem": problem}
        if residual is not None:
            entry["residual"] = float(residual)
        if iters is not None:
            entry["iters"] = int(iters)
        entry.update(detail)
        self.steps.append(entry)


def _single_cubic_traj(t0, tf, a, b, c, d):
    return PiecewiseTrajectory((CubicArc(t_start=t0, t_end=tf, a=a, b=b, c=c, d=d),))


# ---------------------------------------------------------------------------
# unconstrained problems
# ---------------------------------------------------------------------------

def solve_p0_free(t0, v0, cfg: ScenarioConfig, report: SolveReport | None = None):
    """Free-terminal-time unconstrained solve.

    Unknowns (a, b, tf) with c, d fixed by the entry state; the terminal
    stack is position at the exit distance, vanishing terminal control, and a
    vanishing Hamiltonian. The first two fix (a, b) in closed form for each
    horizon T = tf - t0, leaving the Hamiltonian as a scalar root in T.
    Returns (params, trajectory).
    """
    D = cfg.exit_distance
    if v0 <= 0:
        raise ConfigError("entry speed must be positive for a free-time solve")
    if cfg.gamma == 0.0:
        tf = t0 + D / v0
        c, d = _init_cd(t0, v0, 0.0, 0.0)
        params = UnconstrainedParams(0.0, 0.0, c, d, tf)
        if report is not None:
            report.log("free_terminal", residual=0.0, iters=0)
            report.multipliers.lambda_p.append((t0, tf, 0.0))
        return params, _single_cubic_traj(t0, tf, 0.0, 0.0, c, d)

    # shifted frame: u(tf) = 0 and p(tf) = D give a = 3*(v0*T - D)/T^3, and
    # H(tf) = gamma + a*v0 - a^2*T^2/2 falls from gamma at T = D/v0 as T shrinks
    def f_of_T(T):
        a = 3.0 * (v0 * T - D) / T**3
        return cfg.gamma + a * v0 - 0.5 * a * a * T * T

    roots = bracket_roots(f_of_T, D / v0 * 0.5 ** np.arange(16))
    if not roots:
        raise StructureError("free-terminal bracket not found")
    T = roots[0]
    a = 3.0 * (v0 * T - D) / T**3
    b = -a * (t0 + T)
    tf = t0 + T
    c, d = _init_cd(t0, v0, a, b)
    # sanity: accelerate-toward-exit shape (nonincreasing, nonnegative control)
    if a > 1e-10 or _cub_u(a, b, t0) < -1e-8:
        raise StructureError("free-terminal solve lost its accelerate/relax shape")
    if report is not None:
        report.log("free_terminal", residual=abs(f_of_T(T)))
        report.multipliers.lambda_p.append((t0, tf, a))
    return UnconstrainedParams(a, b, c, d, tf), _single_cubic_traj(t0, tf, a, b, c, d)


def solve_p1_fixed(t0, v0, tf, cfg: ScenarioConfig, report: SolveReport | None = None):
    """Pinned-terminal-time unconstrained solve (linear system).

    Rows: entry position, entry speed, exit position, vanishing terminal
    control. Residual is checked at 1e-12 relative.
    """
    if tf <= t0 + 1e-9:
        raise ConfigError("terminal time must exceed the entry time")
    D = cfg.exit_distance
    A = np.array([
        [t0**3 / 6.0, 0.5 * t0**2, t0, 1.0],
        [0.5 * t0**2, t0, 1.0, 0.0],
        [tf**3 / 6.0, 0.5 * tf**2, tf, 1.0],
        [tf, 1.0, 0.0, 0.0],
    ])
    rhs = np.array([0.0, v0, D, 0.0])
    x = np.linalg.solve(A, rhs)
    resid = float(np.max(np.abs(A @ x - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if resid > 1e-12 * scale:
        raise SolverError(f"fixed-terminal linear solve residual {resid:.3e} too large")
    a, b, c, d = (float(z) for z in x)
    if report is not None:
        report.log("fixed_terminal", residual=resid / scale, iters=0, tf=tf)
        report.multipliers.lambda_p.append((t0, tf, a))
    return UnconstrainedParams(a, b, c, d, tf), _single_cubic_traj(t0, tf, a, b, c, d)


def solve_p1_follower(t0, v0, leader: PiecewiseTrajectory, cfg: ScenarioConfig,
                      report: SolveReport | None = None):
    """Terminal time on the leader-headway boundary.

    The exit time satisfies v_kf*(tf - t_kf) = phi*vf + delta0 together with
    the transversality pair lambda_v(tf) = -eta*phi and
    H(tf) + eta*v_kf = 0. Unknowns (a, b, eta, tf).
    """
    t_kf, v_kf = leader.tf, leader.vf
    if v_kf <= 0.0:
        raise ConfigError("leader exits with nonpositive speed; headway boundary undefined")
    D = cfg.exit_distance

    def residual(x):
        a, b, eta, z = x
        tf = t_kf + math.exp(z)
        c, d = _init_cd(t0, v0, a, b)
        uf = _cub_u(a, b, tf)
        vf = _cub_v(a, b, c, tf)
        return np.array([
            _cub_p(a, b, c, d, tf) - D,
            v_kf * (tf - t_kf) - cfg.phi * vf - cfg.delta0,
            uf - eta * cfg.phi,
            cfg.gamma - 0.5 * uf * uf + a * vf + eta * v_kf,
        ])

    # warm start: fixed-point of the headway bound through pinned solves
    tf_g = t_kf + (cfg.phi * v0 + cfg.delta0) / v_kf
    for _ in range(6):
        params, _ = solve_p1_fixed(t0, v0, tf_g, cfg)
        vf_g = _cub_v(params.a, params.b, params.c, tf_g)
        tf_new = t_kf + (cfg.phi * vf_g + cfg.delta0) / v_kf
        if abs(tf_new - tf_g) < 1e-9:
            tf_g = tf_new
            break
        tf_g = tf_new
    params, _ = solve_p1_fixed(t0, v0, tf_g, cfg)
    eta_g = _cub_u(params.a, params.b, tf_g) / cfg.phi if cfg.phi > 0 else 0.0
    zg = math.log(max(tf_g - t_kf, 1e-6))
    starts = [
        (params.a, params.b, eta_g, zg),
        (params.a, params.b, 0.0, zg),
        (0.0, 0.0, 0.0, zg),
    ]
    if cfg.phi == 0.0 and cfg.delta0 == 0.0:
        # boundary collapses to tf = t_kf exactly
        params, traj = solve_p1_fixed(t0, v0, t_kf, cfg, report=report)
        if report is not None:
            report.multipliers.eta = None
            report.log("follower_terminal", residual=0.0, detail="collapsed to pinned terminal")
        return params, traj, 0.0
    res = solve_system(residual, starts)
    if not res.converged:
        raise StructureError(
            f"follower-terminal solve failed (residual {res.residual_norm:.3e})")
    a, b, eta, z = res.x
    tf = t_kf + math.exp(z)
    c, d = _init_cd(t0, v0, a, b)
    if report is not None:
        report.log("follower_terminal", residual=res.residual_norm, iters=res.iterations, tf=tf)
        report.multipliers.lambda_p.append((t0, tf, a))
        report.multipliers.eta = float(eta)
    return UnconstrainedParams(a, b, c, d, tf), _single_cubic_traj(t0, tf, a, b, c, d), float(eta)


# ---------------------------------------------------------------------------
# gap-riding (rear-end constraint) structures
# ---------------------------------------------------------------------------

def _entry_coeffs(t0, v0, phi, d0, leader, tau):
    """Cubic (a, b) grazing the gap boundary at tau: gap and gap-rate vanish.

    With c, d fixed by the entry state, position/speed/control at tau are
    affine in (a, b); the first two boundary conditions give a 2x2 linear
    system, solved by Cramer's rule, and the residual of the third (gap
    acceleration) comes back as the mismatch g(tau). ``tau`` is a scalar or
    an array (the leader is then sampled once for all of it); where the
    system is singular, a, b and g are NaN.
    """
    tau = np.asarray(tau, dtype=float)
    pk, vk, uk = leader.sample(tau) if tau.ndim else leader.eval(float(tau))
    dt = tau - t0
    # affine maps: p(tau) = Pa*a + Pb*b + v0*dt, v(tau) = Va*a + Vb*b + v0
    Pa = tau**3 / 6.0 - t0**2 * tau / 2.0 + t0**3 / 3.0
    Pb = 0.5 * dt * dt
    Va = 0.5 * (tau * tau - t0 * t0)
    Vb = dt
    a11, a12 = Pa + phi * Va, Pb + phi * Vb
    a21, a22 = Va + phi * tau, Vb + phi
    r1 = pk - d0 - v0 * dt - phi * v0
    r2 = vk - v0
    det = a11 * a22 - a12 * a21
    det = np.where(det == 0.0, np.nan, det)
    a = (r1 * a22 - a12 * r2) / det
    b = (a11 * r2 - r1 * a21) / det
    g = (tau + phi) * a + b - uk   # gap-acceleration mismatch
    if tau.ndim:
        return a, b, g
    return float(a), float(b), float(g)


def _entry_block(t0, v0, leader: PiecewiseTrajectory, cfg: ScenarioConfig,
                 t_hint=None):
    """Incoming cubic osculating the gap boundary.

    Finds (a, b, tau1) so that the gap, its rate, and its acceleration all
    vanish at tau1 along the cubic: a scalar root-find on the
    gap-acceleration mismatch, with (a, b) linear at each tau. Independent of
    everything after tau1. ``t_hint`` (e.g. the first violation time) only
    orders the candidate roots.
    """
    phi, d0 = cfg.phi, cfg.delta0
    t_hi = leader.tf + 2.0 * phi + 1.0
    leader = leader.extended(t_hi + 1.0)
    grid = np.linspace(t0 + 1e-3, t_hi, 400)
    roots = bracket_roots(lambda tau: _entry_coeffs(t0, v0, phi, d0, leader, tau)[2],
                          grid, _entry_coeffs(t0, v0, phi, d0, leader, grid)[2])
    if not roots:
        raise StructureError("no osculating junction with the gap boundary")

    def admissible(tau1):
        a, b, _ = _entry_coeffs(t0, v0, phi, d0, leader, tau1)
        c, d = _init_cd(t0, v0, a, b)
        ts = np.linspace(t0, tau1, 200)
        p = _cub_p(a, b, c, d, ts)
        v = _cub_v(a, b, c, ts)
        pk = leader.sample(ts)[0]
        gap = p + phi * v + d0 - pk
        return np.max(gap) <= 5e-7, a, b

    key = (lambda r: abs(r - t_hint)) if t_hint is not None else (lambda r: r)
    for tau1 in sorted(roots, key=key):
        ok, a, b = admissible(tau1)
        if ok and tau1 > t0 + 1e-6:
            return float(a), float(b), float(tau1)
    raise StructureError("every osculating junction leaves the approach infeasible")


def _lift_amp(amp, phi):
    """Particular tracking amplitude for a leader amplitude at the shared rate."""
    if not amp:
        return ()
    return tuple(x / phi for x in _pint(amp))


def _ride_pieces(leader: PiecewiseTrajectory, tau1, u_entry, cfg: ScenarioConfig,
                 horizon):
    """Gap-riding arcs from tau1 to horizon, one per overlapped leader piece.

    On the boundary the follower's control obeys u + phi*du/dt = u_k, giving
    per leader piece a polynomial part mirrored from the leader plus an
    exponential amplitude chosen for control continuity at the piece start.
    """
    phi, d0 = cfg.phi, cfg.delta0
    pieces = []
    t_cur, u_cur = tau1, u_entry
    leader = leader.extended(horizon)
    while t_cur < horizon - 1e-12:
        arc = leader.arc_at(min(t_cur + 1e-12, leader.tf))
        A, B, C, D, ampL, phiL = arc.cubic_amp()
        if ampL and abs(phiL - phi) > 1e-12:
            raise StructureError("leader tracking arc uses a different headway constant")
        a = A
        b = B - phi * A
        c = C - phi * b
        d = D - phi * c - d0
        forced = _lift_amp(ampL, phi)
        t_end = min(arc.t_end, horizon)
        if t_end <= t_cur + 1e-12:
            t_cur = arc.t_end + 1e-12
            continue
        poly_u = _cub_u(a, b, t_cur) + (np.polynomial.polynomial.polyval(t_cur, forced)
                                        * math.exp(-t_cur / phi) if forced else 0.0)
        k = (u_cur - poly_u) * math.exp(t_cur / phi)
        amp = (forced[0] + k,) + forced[1:] if forced else (k,)
        piece = ExpTrackArc(t_start=t_cur, t_end=t_end, a=a, b=b, c=c, d=d,
                            amp=amp, phi=phi)
        pieces.append(piece)
        u_cur = float(piece.u(t_end))
        t_cur = t_end
    if not pieces:
        raise StructureError("empty gap-riding segment")
    return pieces


def _ride_eval(pieces, t):
    for piece in pieces:
        if t <= piece.t_end + 1e-9:
            return float(piece.p(t)), float(piece.v(t)), float(piece.u(t))
    last = pieces[-1]
    return float(last.p(t)), float(last.v(t)), float(last.u(t))


def _truncate_ride(pieces, t_end):
    out = []
    for piece in pieces:
        if piece.t_start >= t_end - 1e-12:
            break
        if piece.t_end <= t_end + 1e-12:
            out.append(piece)
        else:
            out.append(ExpTrackArc(t_start=piece.t_start, t_end=t_end, a=piece.a,
                                   b=piece.b, c=piece.c, d=piece.d, amp=piece.amp,
                                   phi=piece.phi))
            break
    if out and abs(out[-1].t_end - t_end) > 1e-9:
        out[-1] = ExpTrackArc(t_start=out[-1].t_start, t_end=t_end, a=out[-1].a,
                              b=out[-1].b, c=out[-1].c, d=out[-1].d,
                              amp=out[-1].amp, phi=out[-1].phi)
    return out


@dataclass(frozen=True)
class SafetySolution:
    tau1: float
    tau2: float | None          # None when the boundary is ridden to the exit
    tf: float
    entry: UnconstrainedParams  # incoming cubic (a, b, c, d)
    tail: UnconstrainedParams | None  # departing cubic (e, r, q, m) if any
    ride_amp0: float            # exponential amplitude of the first riding piece
    eta: float | None = None


def solve_safety(t0, v0, leader: PiecewiseTrajectory, cfg: ScenarioConfig, *,
                 terminal="follower", tf_fixed=None, t_hint=None,
                 report: SolveReport | None = None):
    """Gap-riding structure behind a same-lane leader.

    ``terminal`` picks the exit condition: "follower" rides or departs onto
    the headway boundary's implied exit time, "fixed" pins tf, "free" leaves
    it to the vanishing-Hamiltonian condition. Departure back to a cubic tail
    is attempted first; if no admissible departure time exists the boundary
    is ridden through the merging-zone exit (only meaningful for the
    "follower" terminal).
    """
    D = cfg.exit_distance
    if cfg.phi <= 0.0:
        raise ConfigError("gap riding needs a positive headway constant")
    a, b, tau1 = _entry_block(t0, v0, leader, cfg, t_hint=t_hint)
    if tau1 <= t0 + 1e-9:
        raise StructureError("gap boundary reached immediately; entry state infeasible")
    c, d = _init_cd(t0, v0, a, b)
    u_entry = _cub_u(a, b, tau1)
    v_kf = leader.vf

    horizon = max(leader.tf, tf_fixed or 0.0, tau1) + 8.0 + (cfg.phi * max(v_kf, v0) + cfg.delta0) / max(v_kf, 1e-6)
    pieces = _ride_pieces(leader, tau1, u_entry, cfg, horizon)

    exit_solution = None
    if terminal == "fixed":
        if tf_fixed is None:
            raise ConfigError("fixed terminal requested without a value")
        exit_solution = _exit_block(pieces, tau1, tf_fixed, cfg, leader, mode="fixed")
    elif terminal == "free":
        exit_solution = _exit_block(pieces, tau1, None, cfg, leader, mode="free")
        if exit_solution is None:
            terminal = "follower"
    if terminal == "follower" and exit_solution is None:
        exit_solution = _exit_block(pieces, tau1, None, cfg, leader, mode="follower")

    if exit_solution is not None:
        e, r, q, m, tau2, tf, eta = exit_solution
        if tau2 > tau1 + 1e-9 and tf > tau2 + 1e-9:
            ride = _truncate_ride(pieces, tau2)
            tail = CubicArc(t_start=tau2, t_end=tf, a=e, b=r, c=q, d=m)
            traj = PiecewiseTrajectory(tuple([CubicArc(t_start=t0, t_end=tau1,
                                                       a=a, b=b, c=c, d=d)] + ride + [tail]))
            sol = SafetySolution(tau1=tau1, tau2=tau2, tf=tf,
                                 entry=UnconstrainedParams(a, b, c, d, tau1),
                                 tail=UnconstrainedParams(e, r, q, m, tf),
                                 ride_amp0=ride[0].c_e, eta=eta)
            if report is not None:
                report.log("gap_ride_with_departure", tau1=tau1, tau2=tau2, tf=tf)
                report.multipliers.lambda_p.append((t0, tau1, a))
                report.multipliers.lambda_p.append((tau2, tf, e))
                report.multipliers.pi = 0.0
                if eta is not None:
                    report.multipliers.eta = eta
                if tau2 > leader.tf + 1e-9:
                    report.extensions.append("departure after leader exit")
            return traj, sol
        exit_solution = None

    if terminal == "fixed":
        raise StructureError("no admissible departure for the pinned terminal time")
    if exit_solution is None:
        # ride the boundary through the merging-zone exit
        while _ride_eval(pieces, horizon)[0] < D:
            horizon += 10.0
            pieces = _ride_pieces(leader, tau1, u_entry, cfg, horizon)
        tf = bracket_roots(lambda t: _ride_eval(pieces, t)[0] - D, (tau1, horizon))[0]
        ride = _truncate_ride(pieces, tf)
        traj = PiecewiseTrajectory(tuple([CubicArc(t_start=t0, t_end=tau1,
                                                   a=a, b=b, c=c, d=d)] + ride))
        sol = SafetySolution(tau1=tau1, tau2=None, tf=tf,
                             entry=UnconstrainedParams(a, b, c, d, tau1),
                             tail=None, ride_amp0=ride[0].c_e)
        if report is not None:
            report.log("gap_ride_to_exit", tau1=tau1, tf=tf)
            report.multipliers.lambda_p.append((t0, tau1, a))
            report.multipliers.pi = 0.0
        return traj, sol
    raise StructureError("gap-riding structure did not close")


def _tail_qm(pieces, e, r, tau2):
    """Tail-cubic c, d matching boundary position and speed at tau2."""
    p_r, v_r, _ = _ride_eval(pieces, tau2)
    q = v_r - (0.5 * e * tau2 + r) * tau2
    m = p_r - ((e / 6.0 * tau2 + 0.5 * r) * tau2 + q) * tau2
    return q, m


def _tail_feasible(pieces, leader, e, r, q, m, tau2, tf, cfg):
    """Departing cubic must keep a nonpositive gap after leaving the boundary."""
    ts = np.linspace(tau2, tf, 200)
    p = _cub_p(e, r, q, m, ts)
    v = _cub_v(e, r, q, ts)
    pk = leader.extended(tf + 1e-6).sample(ts)[0]
    return np.max(p + cfg.phi * v + cfg.delta0 - pk) <= 5e-7


def _quadratic_roots(c0, c1, c2):
    """Real roots of c2*t^2 + c1*t + c0 (none when all three vanish)."""
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [q / c2] + ([c0 / q] if q != 0.0 else [])


def _smallest_positive_root(A, B, C):
    """Smallest positive root of A*s^2 + B*s + C, NaN when there is none."""
    return min((x for x in _quadratic_roots(C, B, A) if x > 0.0), default=math.nan)


def _exit_block(pieces, tau1, tf_fixed, cfg: ScenarioConfig, leader, *, mode):
    """Departing cubic leaving the gap boundary at tau2.

    With (p_r, v_r, u_r) the ride state at tau2 and s = tf - tau2, control
    continuity at tau2 and the terminal conditions fix the tail in closed
    form, so every mode is a scalar residual g(tau2):

    * fixed: s = tf_fixed - tau2 and u(tf) = 0 give u = u_r*(1 - tau/s) with
      tau = t - tau2, and g = p(tf) - D = p_r + v_r*s + u_r*s^2/3 - D.
    * free: the same tail control with H(tf) = 0 gives
      s = u_r*v_r/(gamma - u_r^2/2), and g is the same exit-position mismatch.
    * follower: the headway bound gives v_f = (v_kf*(tau2 + s - t_kf) - delta0)/phi,
      linear in s, so p(tf) = D is the quadratic
      p_r + (2/3)*v_r*s + u_r*s^2/6 + (s/3)*v_f(s) = D, whose smallest positive
      root is s. With the tail slope e = 2*(v_f - v_r - u_r*s)/s^2,
      u_f = u_r + e*s and eta = u_f/phi, g = gamma - u_f^2/2 + e*v_f + eta*v_kf.

    g is scanned on 300 points of tau2 between tau1 and the end of the ride
    (and the pinned tf), NaN where no tail of positive length exists; the
    first root whose tail keeps the gap closed wins. Returns
    (e, r, q, m, tau2, tf, eta) or None when no admissible departure exists
    (the signal for riding to the exit instead).
    """
    D, gamma, phi = cfg.exit_distance, cfg.gamma, cfg.phi
    t_kf, v_kf = leader.tf, leader.vf

    def tail(tau2):
        """(tf, tail slope e, residual g) of the departure at tau2."""
        p_r, v_r, u_r = _ride_eval(pieces, tau2)
        if mode == "follower":
            # v_f = alpha + beta*s; no departure once the ride has passed the exit
            alpha = (v_kf * (tau2 - t_kf) - cfg.delta0) / phi
            beta = v_kf / phi
            s = math.nan if p_r >= D else _smallest_positive_root(
                u_r / 6.0 + beta / 3.0, (2.0 * v_r + alpha) / 3.0, p_r - D)
            v_f = alpha + beta * s
            e = 2.0 * (v_f - v_r - u_r * s) / (s * s)
            u_f = u_r + e * s
            return tau2 + s, e, gamma - 0.5 * u_f * u_f + e * v_f + u_f / phi * v_kf
        if mode == "fixed":
            s = tf_fixed - tau2
        else:
            den = gamma - 0.5 * u_r * u_r
            s = u_r * v_r / den if den else math.nan
        if not s > 0.0:
            return math.nan, math.nan, math.nan
        tf = tf_fixed if mode == "fixed" else tau2 + s
        return tf, -u_r / s, p_r + v_r * s + u_r * s * s / 3.0 - D

    hi = pieces[-1].t_end - 1e-6
    if mode == "fixed":
        hi = min(hi, tf_fixed - 1e-6)
    if hi <= tau1 + 1e-6:
        return None
    for tau2 in bracket_roots(lambda t: tail(t)[2], np.linspace(tau1 + 1e-6, hi, 300)):
        tf, e, _ = tail(tau2)
        r = _ride_eval(pieces, tau2)[2] - e * tau2
        q, m = _tail_qm(pieces, e, r, tau2)
        if _tail_feasible(pieces, leader, e, r, q, m, tau2, tf, cfg):
            eta = _cub_u(e, r, tf) / phi if mode == "follower" else None
            return e, r, q, m, tau2, tf, eta
    return None


# ---------------------------------------------------------------------------
# interior position cap (crossing-traffic constraint)
# ---------------------------------------------------------------------------

def solve_lateral(t0, v0, tm, cfg: ScenarioConfig, *, terminal="free",
                  tf_fixed=None, report: SolveReport | None = None):
    """Two cubics joined where the position cap p(tm) = L binds.

    Position, speed, and control stay continuous at the junction; the costate
    jump lands entirely in lambda_p (zeta = a - e >= 0). Pinned terminal time
    gives a linear 8x8 system; free terminal adds the vanishing-Hamiltonian
    condition on the departing cubic through an outer scalar solve.
    """
    L, D = cfg.L, cfg.exit_distance
    if tm <= t0 + 1e-9:
        raise ConfigError("position-cap time precedes the entry time")

    def linear_solve(tf):
        A = np.zeros((8, 8))
        rhs = np.zeros(8)
        # incoming cubic rows: entry position/speed, cap position
        A[0, :4] = [t0**3 / 6.0, 0.5 * t0**2, t0, 1.0]
        A[1, :4] = [0.5 * t0**2, t0, 1.0, 0.0]
        rhs[1] = v0
        A[2, :4] = [tm**3 / 6.0, 0.5 * tm**2, tm, 1.0]
        rhs[2] = L
        # departing cubic rows: cap position, exit position, zero exit control
        A[3, 4:] = [tm**3 / 6.0, 0.5 * tm**2, tm, 1.0]
        rhs[3] = L
        A[4, 4:] = [tf**3 / 6.0, 0.5 * tf**2, tf, 1.0]
        rhs[4] = D
        A[5, 4:] = [tf, 1.0, 0.0, 0.0]
        # junction continuity of speed and control
        A[6, :4] = [0.5 * tm**2, tm, 1.0, 0.0]
        A[6, 4:] = [-0.5 * tm**2, -tm, -1.0, 0.0]
        A[7, :4] = [tm, 1.0, 0.0, 0.0]
        A[7, 4:] = [-tm, -1.0, 0.0, 0.0]
        x = np.linalg.solve(A, rhs)
        resid = float(np.max(np.abs(A @ x - rhs)))
        return x, resid

    if terminal == "fixed":
        if tf_fixed is None or tf_fixed <= tm + 1e-9:
            raise ConfigError("pinned terminal time must lie beyond the cap time")
        x, resid = linear_solve(tf_fixed)
        tf = tf_fixed
    else:
        # the tail Hamiltonian runs from -inf at zero dwell up through its
        # root, then humps back toward 0+; bracket the single crossing on a
        # geometric ladder of dwell times
        def h_tail(dur):
            tf = tm + dur
            try:
                x, _ = linear_solve(tf)
            except np.linalg.LinAlgError:
                return math.nan
            e, r, q = x[4], x[5], x[6]
            uf = _cub_u(e, r, tf)
            vf = _cub_v(e, r, q, tf)
            return cfg.gamma - 0.5 * uf * uf + e * vf

        base = max((D - L) / max(v0, 0.5), 0.5)
        ladder = [base * f for f in (1e-9, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8,
                                     1.6, 3.2, 6.4, 12.8, 25.6)]
        if tf_fixed:
            ladder.append(max(tf_fixed - tm, 1e-3))
            ladder.sort()
        roots = bracket_roots(h_tail, ladder)
        if not roots:
            raise StructureError("free-terminal position-cap solve failed")
        tf = tm + roots[0]
        x, resid = linear_solve(tf)

    scale = max(1.0, D)
    if resid > 1e-12 * scale * 10:
        raise SolverError(f"position-cap linear solve residual {resid:.3e} too large")
    a, b, c, d, e, r, q, m = (float(z) for z in x)
    zeta = a - e
    first = CubicArc(t_start=t0, t_end=tm, a=a, b=b, c=c, d=d)
    second = CubicArc(t_start=tm, t_end=tf, a=e, b=r, c=q, d=m)
    traj = PiecewiseTrajectory((first, second))
    if report is not None:
        report.log("position_cap", residual=resid / scale, tm=tm, tf=tf)
        report.multipliers.lambda_p.append((t0, tm, a))
        report.multipliers.lambda_p.append((tm, tf, e))
        report.multipliers.zeta = zeta
    return traj, {"a": a, "b": b, "c": c, "d": d, "e": e, "r": r, "q": q, "m": m,
                  "tf": tf, "zeta": zeta}


# ---------------------------------------------------------------------------
# control / speed saturation structures
# ---------------------------------------------------------------------------

def solve_limits(t0, v0, cfg: ScenarioConfig, *, terminal="free", tf_fixed=None,
                 u_limits=None, sat_u=True, sat_v=True, direction=+1,
                 report: SolveReport | None = None):
    """Saturated-control / pinned-speed arc structures.

    direction +1 builds the accelerate-to-cap shape (u at u_max, cruise at
    v_max); -1 mirrors it onto (u_min, v_min). ``sat_u``/``sat_v`` select the
    family: both True gives saturate-blend-cruise, otherwise the single-cap
    variants. Junction control continuity holds across every family.
    """
    u_lo, u_hi = u_limits if u_limits is not None else (cfg.u_min, cfg.u_max)
    if direction >= 0:
        u_sat, v_sat = u_hi, cfg.v_max
    else:
        u_sat, v_sat = u_lo, cfg.v_min
    D = cfg.exit_distance
    if sat_v and v_sat <= 0.0:
        raise StructureError("cruise at zero speed cannot reach the exit")

    def build(tau1, tau2, a, b, tf):
        arcs = []
        if tau1 > t0 + 1e-12:
            arcs.append(SatArc(t_start=t0, t_end=tau1, u0=u_sat, v_start=v0, p_start=0.0))
            v1 = v0 + u_sat * (tau1 - t0)
            p1 = v0 * (tau1 - t0) + 0.5 * u_sat * (tau1 - t0) ** 2
        else:
            tau1, v1, p1 = t0, v0, 0.0
        c = v1 - (0.5 * a * tau1 + b) * tau1
        d = p1 - ((a / 6.0 * tau1 + 0.5 * b) * tau1 + c) * tau1
        if tau2 > tau1 + 1e-12:
            arcs.append(CubicArc(t_start=tau1, t_end=tau2, a=a, b=b, c=c, d=d))
            p2 = _cub_p(a, b, c, d, tau2)
            v2 = _cub_v(a, b, c, tau2)
        else:
            tau2, p2, v2 = tau1, p1, v1
        if tf > tau2 + 1e-12:
            arcs.append(CruiseArc(t_start=tau2, t_end=tf, v0=v2, p_start=p2))
        return PiecewiseTrajectory(tuple(arcs)), c, d

    info = {"family": None, "direction": direction}

    if sat_u and sat_v:
        info["family"] = "saturate_blend_cruise"
        if terminal == "free":
            if cfg.gamma == 0.0:
                raise StructureError("free terminal with zero time weight never saturates")
            a = -cfg.gamma / v_sat if direction >= 0 else cfg.gamma / max(v_sat, 1e-12)
            # blend slope fixed by the vanishing Hamiltonian on the blend cubic

            def residual(x):
                tau2 = t0 + math.exp(x[0])
                b = -a * tau2
                tau1 = tau2 + u_sat / a
                if tau1 < t0 - 1e-9:
                    return np.array([1e6])
                tau1 = max(tau1, t0)
                v1 = v0 + u_sat * (tau1 - t0)
                c = v_sat - (0.5 * a * tau2 + b) * tau2
                return np.array([_cub_v(a, b, c, tau1) - v1])

            dur_g = max((v_sat - v0) / u_sat if u_sat != 0 else 1.0, 1.0)
            res = solve_system(residual, [[math.log(dur_g * 2.5)], [math.log(dur_g * 4.0)],
                                          [math.log(dur_g * 1.2)]])
            if not res.converged:
                raise StructureError("saturate-blend-cruise (free terminal) failed")
            tau2 = t0 + math.exp(res.x[0])
            b = -a * tau2
            tau1 = max(tau2 + u_sat / a, t0)
            _, c, d = build(tau1, tau2, a, b, tau2)
            p2 = _cub_p(a, b, c, d, tau2)
            tf = tau2 + (D - p2) / v_sat
            if tf < tau2 - 1e-9:
                raise StructureError("cap cruise overshoots the exit")
            residual, iters = res.residual_norm, res.iterations
        else:
            if tf_fixed is None:
                raise ConfigError("pinned terminal requested without a value")
            if u_sat == 0.0:
                raise StructureError("saturated arc with zero control authority")
            # the blend cubic runs u from u_sat down to 0 over a span s; speed
            # continuity then forces the blend to straddle the bang-profile
            # corner symmetrically, leaving a single unknown whose pin-distance
            # residual is monotone in s — a bracketed root instead of shooting
            T_bang = (v_sat - v0) / u_sat
            if T_bang < 0 or tf_fixed - t0 <= T_bang:
                raise StructureError("pinned terminal inside the saturation ramp")
            s_max = 2.0 * min(T_bang, tf_fixed - t0 - T_bang)

            def pin_gap(s):
                tau1 = t0 + T_bang - 0.5 * s
                tau2 = tau1 + s
                v1 = v0 + u_sat * (tau1 - t0)
                p1 = v0 * (tau1 - t0) + 0.5 * u_sat * (tau1 - t0) ** 2
                p2 = p1 + v1 * s + u_sat * s * s / 3.0
                return p2 + v_sat * (tf_fixed - tau2) - D

            roots = bracket_roots(pin_gap, (0.0, s_max))
            if not roots:
                raise StructureError(
                    "pinned terminal outside the saturate-blend-cruise range")
            # a pin sitting microns above the bang time collapses the span and
            # the cubic coefficients blow up; widening to a floor costs
            # u_sat*s^2/24 in terminal position, well under tolerance
            s_star = min(max(roots[0], 1e-3), s_max)
            tau2 = t0 + T_bang + 0.5 * s_star
            tau1 = tau2 - s_star
            a = -u_sat / s_star
            b = -a * tau2
            tf = tf_fixed
            residual, iters = abs(pin_gap(s_star)), 0
        traj, c, d = build(tau1, tau2, a, b, tf)
        info.update(tau1=tau1, tau2=tau2, tf=tf, a=a, b=b)
    elif sat_u:
        info["family"] = "saturate_then_relax"

        def residual(x):
            if terminal == "free":
                a, z1, z2 = x
                tau1 = t0 + math.exp(z1)
                tf = tau1 + math.exp(z2)
            else:
                a, z1 = x
                tau1 = t0 + (tf_fixed - t0) / (1.0 + math.exp(-z1))
                tf = tf_fixed
            b = u_sat - a * tau1
            v1 = v0 + u_sat * (tau1 - t0)
            p1 = v0 * (tau1 - t0) + 0.5 * u_sat * (tau1 - t0) ** 2
            c = v1 - (0.5 * a * tau1 + b) * tau1
            d = p1 - ((a / 6.0 * tau1 + 0.5 * b) * tau1 + c) * tau1
            rows = [_cub_u(a, b, tf), _cub_p(a, b, c, d, tf) - D]
            if terminal == "free":
                vf = _cub_v(a, b, c, tf)
                rows.append(cfg.gamma - 0.5 * _cub_u(a, b, tf) ** 2 + a * vf)
            return np.array(rows)

        if terminal == "free":
            dur = max(abs((D / max(v0, 0.1))), 2.0)
            starts = [(-direction * 0.01, math.log(dur * 0.2), math.log(dur * 0.8)),
                      (-direction * 0.003, math.log(dur * 0.1), math.log(dur)),
                      (-direction * 0.03, math.log(dur * 0.3), math.log(dur * 0.6))]
        else:
            starts = [(-direction * 0.01, 0.0), (-direction * 0.003, -1.0),
                      (-direction * 0.03, 1.0)]
        res = solve_system(residual, starts)
        if not res.converged:
            raise StructureError("saturate-then-relax solve failed")
        if terminal == "free":
            a, z1, z2 = res.x
            tau1 = t0 + math.exp(z1)
            tf = tau1 + math.exp(z2)
        else:
            a, z1 = res.x
            tau1 = t0 + (tf_fixed - t0) / (1.0 + math.exp(-z1))
            tf = tf_fixed
        b = u_sat - a * tau1
        traj, c, d = build(tau1, tf, a, b, tf)
        info.update(tau1=tau1, tau2=tf, tf=tf, a=a, b=b)
        residual, iters = res.residual_norm, res.iterations
    else:
        info["family"] = "relax_then_cruise"

        def residual(x):
            if terminal == "free":
                a, b, z1, z2 = x
                tau2 = t0 + math.exp(z1)
                tf = tau2 + math.exp(z2)
            else:
                a, b, z1 = x
                tau2 = t0 + (tf_fixed - t0) / (1.0 + math.exp(-z1))
                tf = tf_fixed
            c, d = _init_cd(t0, v0, a, b)
            rows = [
                _cub_u(a, b, tau2),
                _cub_v(a, b, c, tau2) - v_sat,
                _cub_p(a, b, c, d, tau2) + v_sat * (tf - tau2) - D,
            ]
            if terminal == "free":
                rows.append(cfg.gamma - 0.5 * _cub_u(a, b, tau2) ** 2 + a * v_sat)
            return np.array(rows)

        dv = v_sat - v0
        dur = max(abs(dv) / max(cfg.u_max, 0.1) * 3.0, 2.0)
        if terminal == "free":
            starts = [(-direction * 0.01, direction * abs(dv) / dur, math.log(dur),
                       math.log(max(D / max(v_sat, 0.5), 1.0))),
                      (-direction * 0.004, direction * abs(dv) / dur * 1.5,
                       math.log(dur * 1.5), math.log(max(D / max(v_sat, 0.5), 1.0)))]
        else:
            starts = [(-direction * 0.01, direction * abs(dv) / dur, 0.0),
                      (-direction * 0.004, direction * abs(dv) / dur * 1.5, -0.5)]
        res = solve_system(residual, starts)
        if not res.converged:
            raise StructureError("relax-then-cruise solve failed")
        if terminal == "free":
            a, b, z1, z2 = res.x
            tau2 = t0 + math.exp(z1)
            tf = tau2 + math.exp(z2)
        else:
            a, b, z1 = res.x
            tau2 = t0 + (tf_fixed - t0) / (1.0 + math.exp(-z1))
            tf = tf_fixed
        c, d = _init_cd(t0, v0, a, b)
        arcs = [CubicArc(t_start=t0, t_end=tau2, a=a, b=b, c=c, d=d)]
        if tf > tau2 + 1e-12:
            arcs.append(CruiseArc(t_start=tau2, t_end=tf, v0=_cub_v(a, b, c, tau2),
                                  p_start=_cub_p(a, b, c, d, tau2)))
        traj = PiecewiseTrajectory(tuple(arcs))
        info.update(tau1=t0, tau2=tau2, tf=tf, a=a, b=b)
        residual, iters = res.residual_norm, res.iterations
    if report is not None:
        report.log(info["family"], residual=residual, iters=iters,
                   direction=direction, tf=info["tf"])
        report.multipliers.lambda_p.append((info["tau1"], info["tau2"], info["a"]))
        if direction < 0:
            report.extensions.append("mirrored deceleration family")
    return traj, info


# ---------------------------------------------------------------------------
# violation scanning
# ---------------------------------------------------------------------------

GAP_TOL = 1e-6
BOUND_TOL = 1e-9


def _arc_track(traj: PiecewiseTrajectory, quantity):
    """u or v arc by arc as (fn, knots, values), monotone between knots.

    The knots are each arc's ends and the interior extrema it reports.
    """
    track = []
    for arc in traj.arcs:
        fn = getattr(arc, quantity)
        ext = getattr(arc, f"{quantity}_extrema")()
        track.append((fn, [arc.t_start] + [t for t, _ in ext] + [arc.t_end],
                      [float(fn(arc.t_start))] + [x for _, x in ext]
                      + [float(fn(arc.t_end))]))
    return track


def _gap_rate_roots(arc, lead_arc, phi, lo, hi):
    """Interior roots on (lo, hi) of gap' = v + phi*u - v_k for one arc pair.

    In ``cubic_amp`` coefficients gap' is a quadratic q(t) plus, for each
    gap-ride arc of the pair with time constant phi_i, E(t)*exp(-t/phi_i):
    E = phi*A - Rv for the follower and +Rv for the leader, Rv being the
    exponential amplitude of the arc's speed. Terms of one time constant are
    added coefficient by coefficient, so on a ride, where gap' vanishes
    identically, what rounding leaves is a few tiny coefficients (often
    none), not noise with a sign change at every sample. Without exponential
    terms the roots are closed form; otherwise they are bracketed on 256
    points from one vectorised evaluation.
    """
    a, b, c, _, amp, phi_f = arc.cubic_amp()
    ak, bk, ck, _, amp_k, phi_k = lead_arc.cubic_amp()
    q = (c + phi * b - ck, b + phi * a - bk, 0.5 * (a - ak))
    exps = {}
    if amp:
        rv = _exp_antideriv(amp, 1.0 / phi_f)
        exps[phi_f] = tuple(phi * x - y for x, y in zip(amp, rv))
    if amp_k:
        exps[phi_k] = np.polynomial.polynomial.polyadd(
            exps.get(phi_k, (0.0,)), _exp_antideriv(amp_k, 1.0 / phi_k))
    if not exps:
        roots = sorted(_quadratic_roots(*q))
    else:
        def gap_rate(t):
            out = _pval(q, t)
            for phi_i, e in exps.items():
                out = out + _pval(e, t) * np.exp(-t / phi_i)
            return out

        grid = np.linspace(lo, hi, 256)
        values = gap_rate(grid)
        # gap' left exactly zero: the gap is constant, one monotone piece
        roots = bracket_roots(gap_rate, grid, values) if np.any(values) else []
    return [t for t in roots if lo < t < hi]


def _gap_track(traj: PiecewiseTrajectory, lead: PiecewiseTrajectory, cfg: ScenarioConfig):
    """The rear-end gap as (fn, knots, values), monotone between knots.

    One entry per interval between consecutive breakpoints of the follower
    and the leader, with the gap's stationary points inside it as knots.
    """
    phi, d0 = cfg.phi, cfg.delta0
    cuts = sorted({t for t in traj.breakpoints + lead.breakpoints
                   if traj.t0 <= t <= traj.tf})
    track = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        arc, lead_arc = traj.arc_at(mid), lead.arc_at(mid)

        def gap(t, arc=arc, lead_arc=lead_arc):
            return float(arc.p(t) + phi * arc.v(t) + d0 - lead_arc.p(t))

        knots = [lo] + _gap_rate_roots(arc, lead_arc, phi, lo, hi) + [hi]
        track.append((gap, knots, [gap(t) for t in knots]))
    return track


def _first_crossing(track, sign, limit, tol):
    """Earliest (t, magnitude) where sign*(x - limit) exceeds tol, or None.

    ``track`` lists, in time order, (fn, knots, values) with x = fn(t)
    monotone between consecutive knots and ``values`` holding x at the
    knots. The first knot past the threshold ends the monotone piece that
    holds the crossing: the crossing is that knot itself when it starts its
    entry (x may jump where arcs meet), else the root of the threshold on
    the piece. The magnitude is the excess at the piece's end, the peak of
    the first violating run on it (its start when that is higher).
    """
    threshold = sign * limit + tol
    for fn, knots, values in track:
        for j, x in enumerate(values):
            if sign * x > threshold:
                if j == 0:
                    return knots[0], max(sign * (x - limit), sign * (values[1] - limit))
                roots = bracket_roots(lambda t: sign * fn(t) - threshold,
                                      (knots[j - 1], knots[j]))
                return (roots[0] if roots else knots[j]), sign * (x - limit)
    return None


def scan_violations(traj: PiecewiseTrajectory, cfg: ScenarioConfig, *,
                    u_limits=None, leader=None, lateral_tm=None):
    """Earliest violation of each constraint kind on a candidate trajectory.

    Every crossing is found exactly, without a sample grid: u, v and the
    rear-end gap behind the extended leader are split into monotone pieces
    at the arc breakpoints and their closed-form or bracketed stationary
    points, the first piece whose end passes a threshold holds the first
    crossing, and a bracketed root refines it (see ``_first_crossing``).
    Only the audit and the fleet guarantee check sample trajectories.
    Returns a list of (t, kind, direction, magnitude) sorted by time then
    fixed priority (control, speed, rear_end, lateral).
    """
    u_lo, u_hi = u_limits if u_limits is not None else (cfg.u_min, cfg.u_max)
    found = []

    def add(kind, direction, hit):
        if hit is not None:
            found.append((float(hit[0]), kind, direction, float(hit[1])))

    u_track, v_track = _arc_track(traj, "u"), _arc_track(traj, "v")
    add("control", +1, _first_crossing(u_track, +1, u_hi, BOUND_TOL))
    add("control", -1, _first_crossing(u_track, -1, u_lo, BOUND_TOL))
    add("speed", +1, _first_crossing(v_track, +1, cfg.v_max, BOUND_TOL))
    add("speed", -1, _first_crossing(v_track, -1, cfg.v_min, BOUND_TOL))
    if leader is not None:
        gap_track = _gap_track(traj, leader.extended(traj.tf), cfg)
        add("rear_end", +1, _first_crossing(gap_track, +1, 0.0, GAP_TOL))
    if lateral_tm is not None and lateral_tm > traj.t0:
        t_eval = min(lateral_tm, traj.tf)
        p_at = traj.eval(t_eval)[0]
        if p_at > cfg.L + GAP_TOL:
            found.append((float(t_eval), "lateral", +1, float(p_at - cfg.L)))

    priority = {"control": 0, "speed": 1, "rear_end": 2, "lateral": 3}
    found.sort(key=lambda it: (it[0], priority[it[1]]))
    return found


# ---------------------------------------------------------------------------
# step-wise constraint activation
# ---------------------------------------------------------------------------

MAX_ROUNDS = 10


def plan(arrival: VehicleArrival, cfg: ScenarioConfig, *, leader=None,
         lateral_tm=None, other_tf=None, force_tf=None) -> tuple:
    """Full single-CAV solve: bounds, activation loop, final trajectory.

    ``leader`` is the solved same-lane predecessor; ``lateral_tm`` the exit
    time of the latest conflicting predecessor; ``other_tf`` the latest
    adjacent/opposite exit time; ``force_tf`` pins the terminal time outright.
    Returns (trajectory, report); raises InfeasibleProblem with the report
    attached when no supported structure closes.
    """
    wall0 = time.perf_counter()
    report = SolveReport(cav_id=arrival.id)
    t0, v0 = arrival.t0, arrival.v0
    u_limits = arrival.limits(cfg)
    if force_tf is None:
        force_tf = arrival.force_tf

    def window_for(vf_hyp):
        return composite_window(t0, v0, cfg, leader=leader, other_tf=other_tf,
                                vf_i=vf_hyp, u_limits=u_limits)

    window = window_for(None)
    report.window = window
    if window.t_upper is not None and window.t_lower > window.t_upper + 1e-9:
        report.feasible = False
        report.log("window", detail="empty terminal window")
        raise InfeasibleProblem(
            f"CAV {arrival.id}: terminal window empty "
            f"[{window.t_lower:.3f}, {window.t_upper:.3f}]", report)

    terminal = "free"
    tf_pin = None

    if force_tf is not None:
        terminal, tf_pin = "fixed", float(force_tf)
        report.log("pinned_terminal_request", tf=tf_pin)

    def solve_terminal(terminal, tf_pin):
        if terminal == "free":
            params, traj = solve_p0_free(t0, v0, cfg, report=report)
        elif terminal == "follower":
            params, traj, _ = solve_p1_follower(t0, v0, leader, cfg, report=report)
        else:
            params, traj = solve_p1_fixed(t0, v0, tf_pin, cfg, report=report)
        return traj

    traj = solve_terminal(terminal, tf_pin)

    # pin the terminal time onto the binding edge of the window, refreshing the
    # follower term with the solved exit speed (fixed-point, small count)
    report.binding = None
    for _ in range(MAX_ROUNDS):
        window = window_for(traj.vf)
        report.window = window
        moved = False
        if terminal in ("free",) or (terminal in ("fixed", "follower") and force_tf is None):
            if traj.tf < window.t_lower - 1e-6:
                report.binding = window.binding
                if window.binding == "speed_control":
                    # the bound is the vehicle's own limits, not a neighbour;
                    # the capped free families clear it without a pin, and
                    # pinning exactly on it degenerates the blend to a bang
                    pass
                elif window.binding == "follower" and cfg.phi > 0:
                    terminal = "follower"
                    tf_pin = None
                    moved = True
                else:
                    terminal = "fixed"
                    tf_pin = window.t_lower
                    moved = True
            elif window.t_upper is not None and traj.tf > window.t_upper + 1e-6:
                report.binding = "upper"
                terminal, tf_pin = "fixed", window.t_upper
                moved = True
        if not moved:
            break
        traj = solve_terminal(terminal, tf_pin)
    report.terminal_mode = terminal

    structure = "unconstrained"
    handled = set()
    for round_no in range(MAX_ROUNDS):
        violations = scan_violations(traj, cfg, u_limits=u_limits, leader=leader,
                                     lateral_tm=lateral_tm)
        if not violations:
            break
        t_v, kind, direction, mag = violations[0]
        report.log("violation", t=t_v, kind=kind, magnitude=mag, round=round_no)
        try:
            if kind in ("control", "speed"):
                if structure not in ("unconstrained", "limits"):
                    raise StructureError(
                        f"combination {structure}+{kind} not supported")
                handled.add((kind, direction))
                sat_u = any(k == "control" and s == direction for k, s in handled)
                sat_v = any(k == "speed" and s == direction for k, s in handled)
                if not (sat_u or sat_v):
                    raise StructureError("limit activation without a limit kind")
                term = terminal if terminal != "follower" else "fixed"
                pin = tf_pin if terminal == "fixed" else (traj.tf if terminal == "follower" else None)
                traj, info = solve_limits(t0, v0, cfg, terminal=term, tf_fixed=pin,
                                          u_limits=u_limits, sat_u=sat_u, sat_v=sat_v,
                                          direction=direction, report=report)
                structure = "limits"
                if terminal == "follower":
                    terminal, tf_pin = "fixed", traj.tf  # headway bound kept via fixed-point below
                report.active.append(f"{kind}{'+' if direction > 0 else '-'}")
            elif kind == "rear_end":
                if structure not in ("unconstrained",):
                    raise StructureError(
                        f"combination {structure}+rear_end not supported")
                traj, sol = solve_safety(t0, v0, leader, cfg, terminal=terminal,
                                         tf_fixed=tf_pin if terminal == "fixed" else traj.tf,
                                         t_hint=t_v, report=report)
                structure = "safety"
                report.active.append("rear_end")
            elif kind == "lateral":
                if structure not in ("unconstrained",):
                    raise StructureError(
                        f"combination {structure}+lateral not supported")
                term = terminal if terminal != "follower" else "fixed"
                pin = tf_pin if terminal == "fixed" else (traj.tf if terminal == "follower" else None)
                if pin is not None and pin <= lateral_tm + 1e-9:
                    # the hold alone pushes the exit past any such pin
                    terminal = term = "free"
                    tf_pin = pin = None
                    report.terminal_mode = "free"
                traj, info = solve_lateral(t0, v0, lateral_tm, cfg, terminal=term,
                                           tf_fixed=pin, report=report)
                structure = "lateral"
                if terminal == "follower":
                    terminal, tf_pin = "fixed", traj.tf
                report.active.append("lateral")
            else:  # pragma: no cover
                raise StructureError(f"unknown violation kind {kind}")
        except StructureError as exc:
            report.feasible = False
            report.log("failure", detail=str(exc))
            raise InfeasibleProblem(f"CAV {arrival.id}: {exc}", report) from exc

        # keep pinned terminals on the refreshed composite bound (fixed-point)
        if terminal in ("fixed", "free") and force_tf is None and structure in ("limits", "lateral"):
            for _ in range(MAX_ROUNDS):
                window = window_for(traj.vf)
                target = window.t_lower if (traj.tf < window.t_lower - 1e-6 and
                                            window.binding != "speed_control") else None
                if target is None and terminal == "fixed" and \
                        window.t_upper is not None and traj.tf > window.t_upper + 1e-6:
                    target = window.t_upper
                if target is None or abs(target - traj.tf) < 1e-6:
                    break
                tf_pin = target
                terminal = "fixed"
                report.terminal_mode = "fixed"
                if structure == "limits":
                    traj, info = solve_limits(t0, v0, cfg, terminal="fixed", tf_fixed=tf_pin,
                                              u_limits=u_limits,
                                              sat_u=any(k == "control" for k, _ in handled),
                                              sat_v=any(k == "speed" for k, _ in handled),
                                              direction=next(s for _, s in handled),
                                              report=report)
                else:
                    traj, info = solve_lateral(t0, v0, lateral_tm, cfg, terminal="fixed",
                                               tf_fixed=tf_pin, report=report)
    else:
        leftovers = scan_violations(traj, cfg, u_limits=u_limits, leader=leader,
                                    lateral_tm=lateral_tm)
        if leftovers:
            report.feasible = False
            report.log("failure", detail=f"activation rounds exhausted: {leftovers[0]}")
            raise InfeasibleProblem(
                f"CAV {arrival.id}: activation rounds exhausted", report)

    report.wall_time = time.perf_counter() - wall0
    return traj, report

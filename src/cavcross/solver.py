"""Closed-form optimal trajectory construction for one CAV.

Minimizes J = gamma*(tf - t0) + integral 0.5*u^2 over the control+merging
zones subject to double-integrator dynamics, speed/control caps, a
reaction-headway gap behind the same-lane leader, an interior position cap at
a conflicting CAV's exit time, and first-in-first-out ordering.

Stationarity makes the unconstrained control linear in time (u = a*t + b with
costates lambda_p = a, lambda_v = -(a*t + b)). Given the junction and
terminal times every arc follows in closed form, so most solves reduce to a
scalar residual in one time whose roots ``newton.bracket_roots`` brackets on
a grid, and the pinned cubic, the merging-zone hold and the saturation
families solve by hand. Only the follower terminal still solves a small
coupled system by Newton. Every arc is one ``Arc``, u = a*t + b +
A(t)*exp(-t/phi), and every polynomial arc is placed by ``Arc.through``.
The solves:

* ``solve_p0_free``       -- free terminal time, no active constraints.
* ``solve_p1_fixed``      -- pinned terminal time.
* ``solve_p1_follower``   -- terminal time on the leader-headway boundary,
                             with its multiplier eta.
* ``solve_safety``        -- gap-riding arc behind the leader, with or
                             without a departure back to an unconstrained tail.
* ``solve_lateral``       -- interior position cap p(tm) = L, two cubics.
* ``solve_limits``        -- control and/or speed saturation arc structures,
                             in closed form.
* ``plan``                -- the step-wise activation loop tying it together:
                             ``ACTIVATES`` maps a violation kind to its arc
                             family, ``FOLLOWS`` the structures a family may
                             be activated on.

Junctions between unconstrained and gap-riding arcs use second-order contact:
the gap, its rate, and its acceleration all vanish where the incoming cubic
meets the boundary. That closes the entry subproblem by itself, so the
departure subproblem can be solved afterwards without feedback, and it is
equivalent to the gap multiplier starting from zero at the junction. The
ride between them is one ``PiecewiseTrajectory`` (``_ride``), sampled,
evaluated and cut (``until``) like any other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import TerminalWindow, composite_window
from .model import (Arc, ConfigError, PiecewiseTrajectory, ScenarioConfig,
                    VehicleArrival, _pint, _pval)
from .newton import bracket_roots, quadratic_roots, smallest_positive_root, solve_system


class SolverError(RuntimeError):
    pass


class StructureError(SolverError):
    """No convergent arc structure for the requested constraint pattern."""


class InfeasibleProblem(SolverError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class SolveReport:
    cav_id: int | None = None
    steps: list = field(default_factory=list)       # dicts: problem, residual, iters, detail
    active: list = field(default_factory=list)      # activated constraint kinds, in order
    terminal_mode: str = "free"
    window: TerminalWindow | None = None
    binding: str | None = None
    wall_time: float = 0.0

    def log(self, problem, residual=None, iters=None, **detail):
        entry = {"problem": problem}
        if residual is not None:
            entry["residual"] = float(residual)
        if iters is not None:
            entry["iters"] = int(iters)
        entry.update(detail)
        self.steps.append(entry)


# ---------------------------------------------------------------------------
# unconstrained problems
# ---------------------------------------------------------------------------

def _pinned_slope(v0, T, D):
    """Slope a of the cubic that leaves p = 0 at speed v0 and reaches p = D
    after T with zero control: a = 3*(v0*T - D)/T^3."""
    return 3.0 * (v0 * T - D) / T**3


def solve_p0_free(t0, v0, cfg: ScenarioConfig, report: SolveReport | None = None):
    """Free-terminal-time unconstrained solve.

    Unknowns (a, b, tf) with the cubic placed through the entry state; the
    terminal stack is position at the exit distance, vanishing terminal
    control, and a vanishing Hamiltonian. The first two fix (a, b) in closed
    form for each horizon T = tf - t0 (``_pinned_slope``, b = -a*tf),
    leaving the Hamiltonian as a scalar root in T. Returns (arc, trajectory).
    """
    D = cfg.exit_distance
    if v0 <= 0:
        raise ConfigError("entry speed must be positive for a free-time solve")
    if cfg.gamma == 0.0:
        arc = Arc.through(t0, t0 + D / v0, 0.0, v0, 0.0, 0.0)
        if report is not None:
            report.log("free_terminal", residual=0.0, iters=0)
        return arc, PiecewiseTrajectory((arc,))

    # H(tf) = gamma + a*v0 - a^2*T^2/2 falls from gamma at T = D/v0 as T shrinks
    def f_of_T(T):
        a = _pinned_slope(v0, T, D)
        return cfg.gamma + a * v0 - 0.5 * a * a * T * T

    roots = bracket_roots(f_of_T, D / v0 * 0.5 ** np.arange(16))
    if not roots:
        raise StructureError("free-terminal bracket not found")
    T = roots[0]
    a = _pinned_slope(v0, T, D)
    tf = t0 + T
    arc = Arc.through(t0, tf, 0.0, v0, a, -a * tf)
    # sanity: accelerate-toward-exit shape (nonincreasing, nonnegative control)
    if a > 1e-10 or arc.u(t0) < -1e-8:
        raise StructureError("free-terminal solve lost its accelerate/relax shape")
    if report is not None:
        report.log("free_terminal", residual=abs(f_of_T(T)))
    return arc, PiecewiseTrajectory((arc,))


def solve_p1_fixed(t0, v0, tf, cfg: ScenarioConfig, report: SolveReport | None = None):
    """Pinned-terminal-time unconstrained solve, in closed form.

    The cubic leaves the entry state, and p(tf) = D with u(tf) = 0 give the
    slope from ``_pinned_slope`` and b = -a*tf, so u(tf) is exactly zero.
    The logged residual is |p(tf) - D|. Returns (arc, trajectory).
    """
    if tf <= t0 + 1e-9:
        raise ConfigError("terminal time must exceed the entry time")
    D = cfg.exit_distance
    a = _pinned_slope(v0, tf - t0, D)
    arc = Arc.through(t0, tf, 0.0, v0, a, -a * tf)
    if report is not None:
        report.log("fixed_terminal", residual=abs(arc.p(tf) - D), iters=0, tf=tf)
    return arc, PiecewiseTrajectory((arc,))


def solve_p1_follower(t0, v0, leader: PiecewiseTrajectory, cfg: ScenarioConfig,
                      report: SolveReport | None = None):
    """Terminal time on the leader-headway boundary.

    The exit time satisfies v_kf*(tf - t_kf) = phi*vf + delta0 together with
    the transversality pair lambda_v(tf) = -eta*phi and
    H(tf) + eta*v_kf = 0. Unknowns (a, b, eta, tf). Returns
    (arc, trajectory, eta).
    """
    t_kf, v_kf = leader.tf, leader.vf
    if v_kf <= 0.0:
        raise ConfigError("leader exits with nonpositive speed; headway boundary undefined")
    D = cfg.exit_distance

    def residual(x):
        a, b, eta, z = x
        tf = t_kf + math.exp(z)
        # a span that does not move with the iterate tf
        cubic = Arc.through(t0, t0, 0.0, v0, a, b)
        uf = cubic.u(tf)
        vf = cubic.v(tf)
        return np.array([
            cubic.p(tf) - D,
            v_kf * (tf - t_kf) - cfg.phi * vf - cfg.delta0,
            uf - eta * cfg.phi,
            cfg.gamma - 0.5 * uf * uf + a * vf + eta * v_kf,
        ])

    # warm start: fixed-point of the headway bound through pinned solves,
    # whose zero exit control starts the multiplier at zero
    tf_g = t_kf + (cfg.phi * v0 + cfg.delta0) / v_kf
    for _ in range(6):
        arc, _ = solve_p1_fixed(t0, v0, tf_g, cfg)
        tf_new = t_kf + (cfg.phi * arc.v(tf_g) + cfg.delta0) / v_kf
        if abs(tf_new - tf_g) < 1e-9:
            tf_g = tf_new
            break
        tf_g = tf_new
    arc, _ = solve_p1_fixed(t0, v0, tf_g, cfg)
    zg = math.log(max(tf_g - t_kf, 1e-6))
    starts = [
        (arc.a, arc.b, 0.0, zg),
        (0.0, 0.0, 0.0, zg),
    ]
    if cfg.phi == 0.0 and cfg.delta0 == 0.0:
        # boundary collapses to tf = t_kf exactly
        arc, traj = solve_p1_fixed(t0, v0, t_kf, cfg, report=report)
        if report is not None:
            report.log("follower_terminal", residual=0.0, detail="collapsed to pinned terminal")
        return arc, traj, 0.0
    res = solve_system(residual, starts)
    if not res.converged:
        raise StructureError(
            f"follower-terminal solve failed (residual {res.residual_norm:.3e})")
    a, b, eta, z = (float(x) for x in res.x)
    tf = t_kf + math.exp(z)
    arc = Arc.through(t0, tf, 0.0, v0, a, b)
    if report is not None:
        report.log("follower_terminal", residual=res.residual_norm, iters=res.iterations, tf=tf)
    return arc, PiecewiseTrajectory((arc,)), eta


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
    """Incoming cubic osculating the gap boundary, as an arc on [t0, tau1].

    Finds (a, b, tau1) so that the gap, its rate, and its acceleration all
    vanish at tau1 along the cubic: a scalar root-find on the
    gap-acceleration mismatch, with (a, b) linear at each tau. Independent of
    everything after tau1. ``t_hint`` (e.g. the first violation time) only
    orders the candidate roots; the first whose approach keeps the gap
    closed (``_gap_closed``) wins.
    """
    phi, d0 = cfg.phi, cfg.delta0
    t_hi = leader.tf + 2.0 * phi + 1.0
    leader = leader.extended(t_hi + 1.0)
    grid = np.linspace(t0 + 1e-3, t_hi, 400)
    roots = bracket_roots(lambda tau: _entry_coeffs(t0, v0, phi, d0, leader, tau)[2],
                          grid, _entry_coeffs(t0, v0, phi, d0, leader, grid)[2])
    if not roots:
        raise StructureError("no osculating junction with the gap boundary")

    key = (lambda r: abs(r - t_hint)) if t_hint is not None else (lambda r: r)
    for tau1 in sorted(roots, key=key):
        if tau1 <= t0 + 1e-6:
            continue
        a, b, _ = _entry_coeffs(t0, v0, phi, d0, leader, tau1)
        entry = Arc.through(t0, float(tau1), 0.0, v0, a, b)
        if _gap_closed(entry, leader, cfg):
            return entry
    raise StructureError("every osculating junction leaves the approach infeasible")


def _lift_amp(amp, phi):
    """Particular tracking amplitude for a leader amplitude at the shared rate."""
    if not amp:
        return ()
    return tuple(x / phi for x in _pint(amp))


def _ride(leader: PiecewiseTrajectory, tau1, u_entry, cfg: ScenarioConfig, horizon):
    """The gap ride from tau1 to horizon, as a trajectory with one arc per
    arc of the leader (held at its exit speed) that it overlaps.

    On the boundary the follower's control obeys u + phi*du/dt = u_k, giving
    per leader arc a polynomial part mirrored from the leader plus an
    exponential amplitude chosen for control continuity at the arc start.
    That amplitude carries exp(t/phi), so a ride starting past about
    709.8*phi s, where the double overflows, is declined.
    """
    phi, d0 = cfg.phi, cfg.delta0
    pieces = []
    t_cur, u_cur = tau1, u_entry
    for arc in leader.held(horizon):
        t_end = min(arc.t_end, horizon)
        if t_end <= t_cur + 1e-12:
            continue
        if arc.amp and abs(arc.phi - phi) > 1e-12:
            raise StructureError("leader tracking arc uses a different headway constant")
        a = arc.a
        b = arc.b - phi * a
        c = arc.c - phi * b
        d = arc.d - phi * c - d0
        forced = _lift_amp(arc.amp, phi)
        poly_u = a * t_cur + b + (np.polynomial.polynomial.polyval(t_cur, forced)
                                  * math.exp(-t_cur / phi) if forced else 0.0)
        try:
            k = (u_cur - poly_u) * math.exp(t_cur / phi)
        except OverflowError:
            raise StructureError(f"gap ride starts too late (t={t_cur:.3f} s) for its "
                                 f"exponential amplitude") from None
        amp = (forced[0] + k,) + forced[1:] if forced else (k,)
        piece = Arc(t_start=t_cur, t_end=t_end, a=a, b=b, c=c, d=d,
                    amp=amp, phi=phi, kind="track")
        pieces.append(piece)
        u_cur = float(piece.u(t_end))
        t_cur = t_end
    if not pieces:
        raise StructureError("empty gap-riding segment")
    return PiecewiseTrajectory(tuple(pieces))


@dataclass(frozen=True)
class SafetySolution:
    tau1: float
    tau2: float | None          # None when the boundary is ridden to the exit
    tf: float
    entry: Arc                  # incoming cubic on [t0, tau1]
    eta: float | None = None


def solve_safety(t0, v0, leader: PiecewiseTrajectory, cfg: ScenarioConfig, *,
                 terminal="follower", tf_fixed=None, t_hint=None,
                 report: SolveReport | None = None):
    """Gap-riding structure behind a same-lane leader.

    ``terminal`` picks the exit condition: "follower" rides or departs onto
    the headway boundary's implied exit time, "fixed" pins tf, "free" leaves
    it to the vanishing-Hamiltonian condition. The entry cubic meets the
    boundary at tau1, and the ride from there is one trajectory out to a
    horizon past the leader's exit (``_ride``). Departure from it back to a
    cubic tail is attempted first; if no admissible departure time exists
    the ride is extended until it passes the merging-zone exit and cut where
    it does (only meaningful for the "follower" terminal).
    """
    D = cfg.exit_distance
    if cfg.phi <= 0.0:
        raise ConfigError("gap riding needs a positive headway constant")
    entry = _entry_block(t0, v0, leader, cfg, t_hint=t_hint)
    tau1 = entry.t_end
    u_entry = entry.u(tau1)
    v_kf = leader.vf

    horizon = max(leader.tf, tf_fixed or 0.0, tau1) + 8.0 + (cfg.phi * max(v_kf, v0) + cfg.delta0) / max(v_kf, 1e-6)
    ride = _ride(leader, tau1, u_entry, cfg, horizon)

    exit_solution = None
    if terminal == "fixed":
        if tf_fixed is None:
            raise ConfigError("fixed terminal requested without a value")
        exit_solution = _exit_block(ride, tf_fixed, cfg, leader, mode="fixed")
    elif terminal == "free":
        exit_solution = _exit_block(ride, None, cfg, leader, mode="free")
        if exit_solution is None:
            terminal = "follower"
    if terminal == "follower" and exit_solution is None:
        exit_solution = _exit_block(ride, None, cfg, leader, mode="follower")

    if exit_solution is not None:
        tail, eta = exit_solution
        tau2, tf = tail.t_start, tail.t_end
        if tau2 > tau1 + 1e-9 and tf > tau2 + 1e-9:
            traj = PiecewiseTrajectory((entry, *ride.until(tau2), tail))
            sol = SafetySolution(tau1=tau1, tau2=tau2, tf=tf, entry=entry, eta=eta)
            if report is not None:
                report.log("gap_ride_with_departure", tau1=tau1, tau2=tau2, tf=tf)
            return traj, sol

    if terminal == "fixed":
        raise StructureError("no admissible departure for the pinned terminal time")
    # ride the boundary through the merging-zone exit
    while ride.eval(ride.tf)[0] < D:
        horizon += 10.0
        ride = _ride(leader, tau1, u_entry, cfg, horizon)
    roots = bracket_roots(lambda t: ride.eval(t)[0] - D, (ride.t0, ride.tf))
    if not roots:
        # p(tau1) > D: the approach itself runs past the exit
        raise StructureError("gap boundary joined past the merging-zone exit")
    tf = roots[0]
    traj = PiecewiseTrajectory((entry, *ride.until(tf)))
    sol = SafetySolution(tau1=tau1, tau2=None, tf=tf, entry=entry)
    if report is not None:
        report.log("gap_ride_to_exit", tau1=tau1, tf=tf)
    return traj, sol


def _gap_closed(arc, leader: PiecewiseTrajectory, cfg: ScenarioConfig):
    """Whether the rear-end gap behind ``leader`` stays within 5e-7 of
    closed along ``arc``, by the exact scan of ``scan_violations``."""
    track = _gap_track(PiecewiseTrajectory((arc,)), leader.extended(arc.t_end), cfg)
    return _first_crossing(track, +1, 0.0, 5e-7) is None


def _exit_block(ride: PiecewiseTrajectory, tf_fixed, cfg: ScenarioConfig, leader, *, mode):
    """Departing cubic leaving the gap ride ``ride`` at tau2.

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

    g is scanned on 300 points of tau2 between the ride's start and end
    (and the pinned tf), NaN where no tail of positive length exists, in
    one array evaluation of ``tail`` on ``ride.sample``; roots are refined
    by scalar calls on ``ride.eval``. The first root whose tail keeps the
    gap closed (``_gap_closed``) wins.
    Returns (tail arc on [tau2, tf], eta) or None when no admissible
    departure exists (the signal for riding to the exit instead).
    """
    D, gamma, phi = cfg.exit_distance, cfg.gamma, cfg.phi
    t_kf, v_kf = leader.tf, leader.vf

    def tail(tau2, p_r, v_r, u_r):
        """(tf, tail slope e, residual g) of the departure at tau2 from the
        ride state there, elementwise when the arguments are arrays."""
        tau2, p_r, v_r, u_r = (np.asarray(x, dtype=float) for x in (tau2, p_r, v_r, u_r))
        with np.errstate(divide="ignore", invalid="ignore"):
            if mode == "follower":
                # v_f = alpha + beta*s; no departure once the ride has passed the exit
                alpha = (v_kf * (tau2 - t_kf) - cfg.delta0) / phi
                beta = v_kf / phi
                s = np.where(p_r >= D, np.nan, smallest_positive_root(
                    u_r / 6.0 + beta / 3.0, (2.0 * v_r + alpha) / 3.0, p_r - D))
                v_f = alpha + beta * s
                e = 2.0 * (v_f - v_r - u_r * s) / (s * s)
                u_f = u_r + e * s
                return tau2 + s, e, gamma - 0.5 * u_f * u_f + e * v_f + u_f / phi * v_kf
            if mode == "fixed":
                s = tf_fixed - tau2
            else:
                den = gamma - 0.5 * u_r * u_r
                s = np.where(den != 0.0, u_r * v_r / den, np.nan)
            s = np.where(s > 0.0, s, np.nan)
            return (tf_fixed if mode == "fixed" else tau2 + s), -u_r / s, \
                p_r + v_r * s + u_r * s * s / 3.0 - D

    hi = ride.tf - 1e-6
    if mode == "fixed":
        hi = min(hi, tf_fixed - 1e-6)
    if hi <= ride.t0 + 1e-6:
        return None
    grid = np.linspace(ride.t0 + 1e-6, hi, 300)
    for tau2 in bracket_roots(lambda t: float(tail(t, *ride.eval(t))[2]), grid,
                              tail(grid, *ride.sample(grid))[2]):
        p_r, v_r, u_r = ride.eval(tau2)
        tf, e, _ = (float(x) for x in tail(tau2, p_r, v_r, u_r))
        arc = Arc.through(tau2, tf, p_r, v_r, e, u_r - e * tau2)
        if _gap_closed(arc, leader, cfg):
            return arc, (arc.u(tf) / phi if mode == "follower" else None)
    return None


# ---------------------------------------------------------------------------
# interior position cap (crossing-traffic constraint)
# ---------------------------------------------------------------------------

def solve_lateral(t0, v0, tm, cfg: ScenarioConfig, *, terminal="free",
                  tf_fixed=None, report: SolveReport | None = None):
    """Two cubics joined where the position cap p(tm) = L binds, in closed form.

    Position, speed, and control stay continuous at the junction; the costate
    jump lands entirely in lambda_p (zeta = a - e >= 0). With tau = tm - t0,
    s = tf - tm and K = 3L/(2 tau) - v0/2, the approach's p(tm) = L gives
    v(tm) = K + u(tm)*tau/4, and the tail's u(tf) = 0 gives u(tm) = -e*s, so
    the tail's p(tf) = D fixes its slope e = (L - D + s*K)/(s^2*(tau/4 + s/3)).
    The approach slope is a = 3*(v0*tau + u(tm)*tau^2/2 - L)/tau^3. A pinned
    terminal gives s directly; a free terminal brackets the root of the tail
    Hamiltonian H(s) = gamma + e*(K - e*s*(tau/4 + s/2)) on a geometric
    ladder of dwell times.
    """
    L, D = cfg.L, cfg.exit_distance
    if tm <= t0 + 1e-9:
        raise ConfigError("position-cap time precedes the entry time")
    tau = tm - t0
    K = 1.5 * L / tau - 0.5 * v0

    def tail_slope(s):
        return (L - D + s * K) / (s * s * (0.25 * tau + s / 3.0))

    if terminal == "fixed":
        if tf_fixed is None or tf_fixed <= tm + 1e-9:
            raise ConfigError("pinned terminal time must lie beyond the cap time")
        tf = tf_fixed
    else:
        # H runs from -inf at zero dwell up through its root, then humps back
        # toward 0+; bracket the single crossing
        def h_tail(s):
            e = tail_slope(s)
            return cfg.gamma + e * (K - e * s * (0.25 * tau + 0.5 * s))

        base = max((D - L) / max(v0, 0.5), 0.5)
        ladder = base * np.array((1e-9, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8,
                                  1.6, 3.2, 6.4, 12.8, 25.6))
        roots = bracket_roots(h_tail, ladder, h_tail(ladder))
        if not roots:
            raise StructureError("free-terminal position-cap solve failed")
        tf = tm + roots[0]

    s = tf - tm
    e = tail_slope(s)
    u_m = -e * s
    a = 3.0 * (v0 * tau + 0.5 * u_m * tau * tau - L) / tau**3
    first = Arc.through(t0, tm, 0.0, v0, a, u_m - a * tm)
    second = Arc.through(tm, tf, L, K - 0.25 * e * s * tau, e, -e * tf)
    traj = PiecewiseTrajectory((first, second))
    if report is not None:
        report.log("position_cap", residual=abs(second.p(tf) - D), tm=tm, tf=tf)
    return traj, {"a": a, "b": first.b, "c": first.c, "d": first.d, "e": e,
                  "r": second.b, "q": second.c, "m": second.d, "tf": tf, "zeta": a - e}


# ---------------------------------------------------------------------------
# control / speed saturation structures
# ---------------------------------------------------------------------------

def solve_limits(t0, v0, cfg: ScenarioConfig, *, terminal="free", tf_fixed=None,
                 u_limits=None, sat_u=True, sat_v=True, direction=+1,
                 report: SolveReport | None = None):
    """Saturated-control / pinned-speed arc structures, in closed form.

    direction +1 builds the accelerate-to-cap shape (u at u_max, cruise at
    v_max); -1 mirrors it onto (u_min, v_min). ``sat_u``/``sat_v`` select the
    family: both True gives saturate-blend-cruise, otherwise the single-cap
    variants. Junction control continuity holds across every family.

    Each family is a saturated arc on [t0, tau1], a cubic on [tau1, tau2]
    whose control falls linearly to 0 at tau2, and a cruise on [tau2, tf],
    some of them empty. With u = u_sat, dv = v_sat - v0, T = tf - t0 and s
    the span of the cubic, the optimality conditions solve by hand:

    * relax-then-cruise (tau1 = t0): v(tau2) = v_sat gives a = -2*dv/s^2
      and p(tau2) = v0*s + 2*dv*s/3. Free terminal: H = gamma + a*v_sat = 0
      gives a = -gamma/v_sat and s = sqrt(-2*dv/a). Fixed terminal: p(tf) = D
      gives s = 3*(v_sat*T - D)/dv.
    * saturate-then-relax (tau2 = tf): a = -u/s and p(tf) = v0*T + u*T^2/2
      - u*s^2/6. Fixed terminal: s^2 = 6*(v0*T + u*T^2/2 - D)/u. Free
      terminal: H(tf) = gamma + a*v(tf) = 0 gives v(tf) = gamma*s/u, so only
      u > 0 exits forward, and tau1 - t0 = k*s - v0/u with
      k = gamma/u^2 - 1/2, which makes p(tf) = D a quadratic in s.
    * saturate-blend-cruise: speed continuity centres the blend on the
      bang-profile corner t0 + dv/u. Free terminal: a from H = 0 as above
      and s = -u/a. Fixed terminal: p(tf) - D = C - u*s^2/24, with C its
      value for the bang profile, so s = sqrt(24*C/u).

    A free terminal then cruises from tau2 until p = D. A case without an
    admissible span raises StructureError.
    """
    u_lo, u_hi = u_limits if u_limits is not None else (cfg.u_min, cfg.u_max)
    u, v_sat = (u_hi, cfg.v_max) if direction >= 0 else (u_lo, cfg.v_min)
    D = cfg.exit_distance
    if sat_v and v_sat <= 0.0:
        raise StructureError("cruise at zero speed cannot reach the exit")
    free = terminal == "free"
    if not free and tf_fixed is None:
        raise ConfigError("pinned terminal requested without a value")
    T, tf = (math.inf, None) if free else (tf_fixed - t0, tf_fixed)
    dv = v_sat - v0

    if sat_u and sat_v:
        family = "saturate_blend_cruise"
        if free:
            if cfg.gamma == 0.0:
                raise StructureError("free terminal with zero time weight never saturates")
            # H = gamma + a*v_sat = 0 at tau2; mirrored, s comes out negative
            a = -cfg.gamma / v_sat
            s = -u / a
            tau1 = t0 + dv / u - 0.5 * s if s > 0.0 else -math.inf
            if tau1 < t0 - 1e-9:
                raise StructureError("saturate-blend-cruise (free terminal) failed")
            tau1, tau2 = max(tau1, t0), tau1 + s
        else:
            if u == 0.0:
                raise StructureError("saturated arc with zero control authority")
            T_bang = dv / u
            if T_bang < 0 or T <= T_bang:
                raise StructureError("pinned terminal inside the saturation ramp")
            s_max = 2.0 * min(T_bang, T - T_bang)
            C = v0 * T_bang + 0.5 * u * T_bang ** 2 + v_sat * (T - T_bang) - D
            if not (0.0 <= 24.0 * C / u <= s_max * s_max and s_max > 0.0):
                raise StructureError(
                    "pinned terminal outside the saturate-blend-cruise range")
            # a pin sitting microns above the bang time collapses the span and
            # the cubic coefficients blow up; widening to a floor costs
            # u*s^2/24 in terminal position, well under tolerance
            s = min(max(math.sqrt(24.0 * C / u), 1e-3), s_max)
            tau2 = t0 + T_bang + 0.5 * s
            tau1 = tau2 - s
            a = -u / s
    elif sat_u:
        family = "saturate_then_relax"
        s = math.nan
        if free:
            if u > 0.0:
                # with T = (k + 1)*s - v0/u, p(tf) - D has no term linear in s
                k = cfg.gamma / (u * u) - 0.5
                roots = quadratic_roots(-D - 0.5 * v0 * v0 / u, 0.0,
                                         u * (0.5 * (k + 1.0) ** 2 - 1.0 / 6.0))
                s = min((x for x in roots if x > 0.0 and k * x - v0 / u > 0.0),
                        default=math.nan)
                tf = t0 + (k + 1.0) * s - v0 / u
        elif u != 0.0:
            s2 = 6.0 * (v0 * T + 0.5 * u * T * T - D) / u
            s = math.sqrt(s2) if 0.0 < s2 <= T * T else math.nan
        if not s > 0.0:
            raise StructureError("saturate-then-relax solve failed")
        tau1, tau2, a = tf - s, tf, -u / s
    else:
        family = "relax_then_cruise"
        if free:
            a = -cfg.gamma / v_sat
            s = math.sqrt(-2.0 * dv / a) if a * dv < 0.0 else math.nan
        else:
            s = 3.0 * (v_sat * T - D) / dv if dv != 0.0 else math.nan
        if not 0.0 < s <= T:
            raise StructureError("relax-then-cruise solve failed")
        if not free:
            a = -2.0 * dv / (s * s)
        tau1, tau2 = t0, t0 + s

    b = -a * tau2
    arcs = []
    t1, v1, p1 = t0, v0, 0.0
    if tau1 > t0 + 1e-12:
        arcs.append(Arc.through(t0, tau1, 0.0, v0, 0.0, u, kind="sat"))
        r = tau1 - t0
        t1, v1, p1 = tau1, v0 + u * r, (v0 + 0.5 * u * r) * r
    t2, v2, p2 = t1, v1, p1
    if tau2 > t1 + 1e-12:
        arcs.append(Arc.through(t1, tau2, p1, v1, a, b))
        t2, v2, p2 = tau2, arcs[-1].v(tau2), arcs[-1].p(tau2)
    if tf is None:
        tf = t2 + (D - p2) / v_sat
        if tf < t2 - 1e-9:
            raise StructureError("cap cruise overshoots the exit")
    if tf > t2 + 1e-12:
        arcs.append(Arc.through(t2, tf, p2, v2, 0.0, 0.0, kind="cruise"))
    traj = PiecewiseTrajectory(tuple(arcs))
    info = {"family": family, "direction": direction, "tau1": tau1, "tau2": tau2,
            "tf": tf, "a": a, "b": b}
    if report is not None:
        report.log(family, residual=abs(traj.eval(tf)[0] - D), iters=0,
                   direction=direction, tf=tf)
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

    In the arcs' coefficients gap' is a quadratic q(t) plus, for each
    gap-ride arc of the pair with time constant phi_i, E(t)*exp(-t/phi_i):
    E = phi*A - Rv for the follower and +Rv for the leader, Rv being the
    exponential amplitude of the arc's speed. Terms of one time constant are
    added coefficient by coefficient, so on a ride, where gap' vanishes
    identically, what rounding leaves is a few tiny coefficients (often
    none), not noise with a sign change at every sample. Without exponential
    terms the roots are closed form; otherwise they are bracketed on 256
    points from one vectorised evaluation.
    """
    q = (arc.c + phi * arc.b - lead_arc.c, arc.b + phi * arc.a - lead_arc.b,
         0.5 * (arc.a - lead_arc.a))
    exps = {}
    if arc.amp:
        exps[arc.phi] = tuple(phi * x - y for x, y in zip(arc.amp, arc._rv))
    if lead_arc.amp:
        exps[lead_arc.phi] = np.polynomial.polynomial.polyadd(
            exps.get(lead_arc.phi, (0.0,)), lead_arc._rv)
    if not exps:
        roots = sorted(quadratic_roots(*q))
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

# violation kind -> the arc family that clears it
ACTIVATES = {"control": "limits", "speed": "limits", "rear_end": "safety",
             "lateral": "lateral"}
# arc family -> the structures it may be activated on
FOLLOWS = {"limits": ("unconstrained", "limits"), "safety": ("unconstrained",),
           "lateral": ("unconstrained",)}


def plan(arrival: VehicleArrival, cfg: ScenarioConfig, *, leader=None,
         lateral_tm=None, other_tf=None, force_tf=None) -> tuple:
    """Full single-CAV solve: bounds, activation loop, final trajectory.

    ``leader`` is the solved same-lane predecessor; ``lateral_tm`` the exit
    time of the latest conflicting predecessor; ``other_tf`` the latest
    adjacent/opposite exit time; ``force_tf`` pins the terminal time outright.

    The unconstrained solve is pinned onto the terminal window first. Then
    each round takes the earliest violation, looks up the arc family that
    clears it (``ACTIVATES``) and whether that family may follow the current
    structure (``FOLLOWS``), and captures the family as one solve
    ``(terminal, pin) -> trajectory``; the re-pin onto the refreshed window
    calls that same solve. Returns (trajectory, report); raises
    InfeasibleProblem with the report attached when no supported structure
    closes.
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
        report.log("window", detail="empty terminal window")
        raise InfeasibleProblem(
            f"CAV {arrival.id}: terminal window empty "
            f"[{window.t_lower:.3f}, {window.t_upper:.3f}]", report)

    terminal, tf_pin = "free", None
    if force_tf is not None:
        terminal, tf_pin = "fixed", float(force_tf)
        report.log("pinned_terminal_request", tf=tf_pin)

    def solve_terminal(terminal, tf_pin):
        if terminal == "free":
            return solve_p0_free(t0, v0, cfg, report=report)[1]
        if terminal == "follower":
            return solve_p1_follower(t0, v0, leader, cfg, report=report)[1]
        return solve_p1_fixed(t0, v0, tf_pin, cfg, report=report)[1]

    traj = solve_terminal(terminal, tf_pin)

    # pin the terminal time onto the binding edge of the window, refreshing the
    # follower term with the solved exit speed (fixed-point, small count)
    for _ in range(MAX_ROUNDS):
        window = report.window = window_for(traj.vf)
        if force_tf is not None:
            break
        if traj.tf < window.t_lower - 1e-6:
            report.binding = window.binding
            if window.binding == "speed_control":
                # the bound is the vehicle's own limits, not a neighbour;
                # the capped free families clear it without a pin, and
                # pinning exactly on it degenerates the blend to a bang
                break
            if window.binding == "follower" and cfg.phi > 0:
                terminal, tf_pin = "follower", None
            else:
                terminal, tf_pin = "fixed", window.t_lower
        elif window.t_upper is not None and traj.tf > window.t_upper + 1e-6:
            report.binding = "upper"
            terminal, tf_pin = "fixed", window.t_upper
        else:
            break
        traj = solve_terminal(terminal, tf_pin)
    report.terminal_mode = terminal

    structure, handled = "unconstrained", set()

    def family_solve(family, direction, t_v):
        """The activated arc family as one solve (terminal, pin) -> trajectory."""
        if family == "limits":
            sat_u = ("control", direction) in handled
            sat_v = ("speed", direction) in handled
            return lambda term, pin: solve_limits(
                t0, v0, cfg, terminal=term, tf_fixed=pin, u_limits=u_limits,
                sat_u=sat_u, sat_v=sat_v, direction=direction, report=report)[0]
        if family == "safety":
            return lambda term, pin: solve_safety(
                t0, v0, leader, cfg, terminal=term, tf_fixed=pin, t_hint=t_v,
                report=report)[0]
        return lambda term, pin: solve_lateral(
            t0, v0, lateral_tm, cfg, terminal=term, tf_fixed=pin, report=report)[0]

    for round_no in range(MAX_ROUNDS):
        violations = scan_violations(traj, cfg, u_limits=u_limits, leader=leader,
                                     lateral_tm=lateral_tm)
        if not violations:
            break
        t_v, kind, direction, mag = violations[0]
        report.log("violation", t=t_v, kind=kind, magnitude=mag, round=round_no)
        family = ACTIVATES[kind]
        try:
            if structure not in FOLLOWS[family]:
                raise StructureError(f"combination {structure}+{kind} not supported")
            handled.add((kind, direction))
            solve = family_solve(family, direction, t_v)
            if family == "safety":
                # the gap ride solves every terminal itself, the headway
                # bound included; the pin only sizes its horizon
                traj = solve(terminal, traj.tf)
            else:
                if terminal == "follower":
                    # the headway bound is kept by the re-pin below
                    terminal, tf_pin = "fixed", traj.tf
                if family == "lateral" and tf_pin is not None and \
                        tf_pin <= lateral_tm + 1e-9:
                    # the hold alone pushes the exit past any such pin
                    terminal, tf_pin = "free", None
                    report.terminal_mode = "free"
                traj = solve(terminal, tf_pin)
        except StructureError as exc:
            report.log("failure", detail=str(exc))
            raise InfeasibleProblem(f"CAV {arrival.id}: {exc}", report) from exc
        structure = family
        report.active.append(kind if family != "limits"
                             else f"{kind}{'+' if direction > 0 else '-'}")

        # keep pinned terminals on the refreshed composite bound (fixed-point):
        # any binding but the vehicle's own limits pins t_lower, and only an
        # already fixed terminal is pulled back to t_upper
        if force_tf is not None or family == "safety":
            continue
        for _ in range(MAX_ROUNDS):
            window = window_for(traj.vf)
            if traj.tf < window.t_lower - 1e-6 and window.binding != "speed_control":
                tf_pin = window.t_lower
            elif terminal == "fixed" and window.t_upper is not None and \
                    traj.tf > window.t_upper + 1e-6:
                tf_pin = window.t_upper
            else:
                break
            terminal = report.terminal_mode = "fixed"
            traj = solve(terminal, tf_pin)
    else:
        leftovers = scan_violations(traj, cfg, u_limits=u_limits, leader=leader,
                                    lateral_tm=lateral_tm)
        if leftovers:
            report.log("failure", detail=f"activation rounds exhausted: {leftovers[0]}")
            raise InfeasibleProblem(
                f"CAV {arrival.id}: activation rounds exhausted", report)

    report.wall_time = time.perf_counter() - wall0
    return traj, report

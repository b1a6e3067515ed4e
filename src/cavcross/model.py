"""Core kinematic model: arc algebra, piecewise trajectories, scenario types.

A vehicle crossing the control zone follows double-integrator dynamics
(position p, speed v, control u = acceleration). Optimal profiles are pieced
together from one closed-form ``Arc``, u(t) = a*t + b + A(t)*exp(-t/phi),
whose ``kind`` names its family:

* ``"cubic"``   -- u = a*t + b, so v is quadratic and p cubic.
* ``"track"``   -- gap-riding behind a leader, with A a (usually constant)
                   polynomial amplitude.
* ``"sat"``     -- control pinned at a bound: a = 0, u = b.
* ``"cruise"``  -- speed pinned (at a bound or post-exit): a = b = 0.

Every polynomial arc is placed by ``Arc.through``. All coefficients are in
absolute time. Every arc evaluates p, v, u exactly and integrates its own
energy 0.5*u^2 in closed form.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .roots import bracket_roots, quadratic_root_pairs


class DomainError(ValueError):
    """Evaluation outside a trajectory's time domain."""


class ConfigError(ValueError):
    """Inconsistent scenario or vehicle configuration."""


_EDGE_TOL = 1e-9
GRID_STEP = 1e-3    # s, the spacing of the audit's and the fleet check's dense grids
GRID_BLOCK = 4096   # 1 ms grid points the audit and the fleet check sample at a time


def _grid_size(span, step):
    """Points of the even grid ``step`` apart over ``span``, at least 2."""
    return max(int(math.ceil(span / step)) + 1, 2)


# ---------------------------------------------------------------------------
# small polynomial helpers (coefficients lowest-order first, as tuples)
# ---------------------------------------------------------------------------

def _pval(coeffs, t):
    out = 0.0 * t if isinstance(t, np.ndarray) else 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _pder(coeffs):
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


def _pint(coeffs):
    return (0.0,) + tuple(coeffs[k] / (k + 1) for k in range(len(coeffs)))


def _pmul(p, q):
    out = [0.0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _exp_antideriv(coeffs, alpha):
    """Return R with d/dt[-R(t) e^{-alpha t}] = C(t) e^{-alpha t}.

    Solves alpha*R - R' = C degree by degree from the top. Degenerate for
    alpha == 0 (plain polynomial integration applies there instead).
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    n = len(coeffs)
    R = [0.0] * n
    for k in range(n - 1, -1, -1):
        up = (k + 1) * R[k + 1] if k + 1 < n else 0.0
        R[k] = (coeffs[k] + up) / alpha
    return tuple(R)


# ---------------------------------------------------------------------------
# arcs
# ---------------------------------------------------------------------------

_KINDS = ("cubic", "track", "sat", "cruise")


@dataclass(frozen=True, init=False)
class Arc:
    """One arc of an optimal profile: u = a*t + b + A(t)*exp(-t/phi).

    ``amp`` holds the polynomial amplitude A lowest-order first (empty for a
    purely polynomial arc); ``phi`` is its time constant. Speed and position
    follow by exact integration:
        v = 0.5*a*t^2 + b*t + c - Rv(t) exp(-t/phi)
        p = a/6*t^3 + 0.5*b*t^2 + c*t + d + Rp(t) exp(-t/phi)
    with Rv, Rp repeated exponential antiderivatives of A. ``kind`` names
    the family the arc belongs to: "cubic" (unconstrained), "track" (gap
    riding; its extrema are scanned for), "sat" (a = 0, b = u at a bound)
    or "cruise" (a = b = 0).
    """

    t_start: float
    t_end: float
    a: float
    b: float
    c: float
    d: float
    amp: tuple = ()
    phi: float | None = None
    kind: str = "cubic"
    # not fields: the exponential antiderivatives Rv, Rp of ``amp``, and a
    # tracking arc's stationary points, scanned for on first request
    _rv = _rp = ()
    _v_ext = _u_ext = None

    def __init__(self, t_start, t_end, a, b, c, d, amp=(), phi=None, kind="cubic"):
        # The fields go straight into the instance dict. The __init__ that a
        # frozen dataclass generates sets them one object.__setattr__ call
        # at a time, about three times slower, and the planner builds arcs
        # in its inner loops (``Arc.through`` passes them by position).
        if not (t_end > t_start - _EDGE_TOL):
            raise ConfigError(f"arc has non-positive duration: [{t_start}, {t_end}]")
        if kind not in _KINDS:
            raise ConfigError(f"unknown arc kind {kind!r}")
        self.__dict__.update(t_start=t_start, t_end=t_end, a=a, b=b, c=c, d=d,
                             amp=amp, phi=phi, kind=kind)
        if amp or kind == "track":
            if phi is None or phi <= 0.0:
                raise ConfigError("phi must be positive for a tracking arc")
            if amp:
                rv = _exp_antideriv(amp, 1.0 / phi)
                self.__dict__.update(_rv=rv, _rp=_exp_antideriv(rv, 1.0 / phi))

    @classmethod
    def through(cls, t_start, t_end, p, v, a, b, kind="cubic"):
        """The arc with control a*t + b on [t_start, t_end] whose position
        and speed at t_start are p and v."""
        c = v - (0.5 * a * t_start + b) * t_start
        d = p - ((a / 6.0 * t_start + 0.5 * b) * t_start + c) * t_start
        return cls(t_start, t_end, a, b, c, d, (), None, kind)

    def _exp(self, t):
        return np.exp(-t / self.phi) if isinstance(t, np.ndarray) else math.exp(-t / self.phi)

    def u(self, t):
        out = self.a * t + self.b
        if self.amp:
            out = out + _pval(self.amp, t) * self._exp(t)
        return out

    def v(self, t):
        out = (0.5 * self.a * t + self.b) * t + self.c
        if self.amp:
            out = out - _pval(self._rv, t) * self._exp(t)
        return out

    def p(self, t):
        out = ((self.a / 6.0 * t + 0.5 * self.b) * t + self.c) * t + self.d
        if self.amp:
            out = out + _pval(self._rp, t) * self._exp(t)
        return out

    def energy(self, t1, t2):
        """Integral of 0.5*u^2 over [t1, t2], in closed form."""
        q = _pint((0.5 * self.b**2, self.a * self.b, 0.5 * self.a**2))
        total = _pval(q, t2) - _pval(q, t1)
        if self.amp:
            al = 1.0 / self.phi
            cross = _pmul((self.b, self.a), self.amp)  # (a t + b) * A(t)
            r2 = _exp_antideriv(cross, al)
            total += (-_pval(r2, t2) * self._exp(t2)) - (-_pval(r2, t1) * self._exp(t1))
            sq = _pmul(self.amp, self.amp)
            r3 = _exp_antideriv(tuple(0.5 * x for x in sq), 2.0 * al)
            e2 = lambda t: math.exp(-2.0 * t / self.phi)
            total += (-_pval(r3, t2) * e2(t2)) - (-_pval(r3, t1) * e2(t1))
        return total

    def _interior_roots(self, fn):
        grid = np.linspace(self.t_start, self.t_end, 256)
        ts = bracket_roots(fn, grid, fn(grid))
        return [t for t in ts if self.t_start + _EDGE_TOL < t < self.t_end - _EDGE_TOL]

    def v_extrema(self):
        """Interior stationary points of v as (t, v) pairs.

        In closed form for a polynomial arc. A tracking arc is scanned once:
        the plan, the audit and the fleet check all ask for the extrema of
        the same final arcs, so the scan runs on the first request and later
        calls get a fresh copy of the stored list.
        """
        if self.kind == "track":
            if self._v_ext is None:
                object.__setattr__(self, "_v_ext", tuple(
                    (t, self.v(t)) for t in self._interior_roots(self.u)))
            return list(self._v_ext)
        if self.a == 0.0:
            return []
        ts = -self.b / self.a
        if self.t_start + _EDGE_TOL < ts < self.t_end - _EDGE_TOL:
            return [(ts, self.v(ts))]
        return []

    def u_extrema(self):
        """Interior stationary points of u as (t, u) pairs: none on a
        polynomial arc, scanned for once on a tracking arc."""
        if self.kind != "track":
            return []
        if self._u_ext is None:
            dpoly = (self.a,)
            damp = tuple(x - y for x, y in
                         zip(_pder(self.amp) + (0.0,) * len(self.amp),
                             tuple(x / self.phi for x in self.amp)))

            def du(t):
                return _pval(dpoly, t) + (_pval(damp, t) * self._exp(t) if self.amp else 0.0)

            object.__setattr__(self, "_u_ext", tuple(
                (t, self.u(t)) for t in self._interior_roots(du)))
        return list(self._u_ext)


# ---------------------------------------------------------------------------
# piecewise trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostBreakdown:
    travel_time: float
    energy: float
    objective: float


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Immutable contiguous sequence of arcs covering [t0, tf].

    Arcs must be contiguous in time and continuous in p and v at breakpoints
    to within 1e-9 relative tolerance (u may kink at junctions but is
    continuous for every solver-produced profile; that is checked by the
    audit, not here).
    """

    arcs: tuple
    _starts: tuple = field(init=False, repr=False, compare=False)
    _start_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.arcs:
            raise ConfigError("trajectory needs at least one arc")
        starts = tuple(a.t_start for a in self.arcs)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_start_arr", np.array(starts))
        prev = None
        for arc in self.arcs:
            if prev is not None:
                if abs(arc.t_start - prev.t_end) > _EDGE_TOL * max(1.0, abs(prev.t_end)):
                    raise ConfigError(
                        f"arcs not contiguous at t={prev.t_end} vs {arc.t_start}")
                tb = prev.t_end
                for name, f0, f1 in (("p", prev.p(tb), arc.p(tb)),
                                     ("v", prev.v(tb), arc.v(tb))):
                    if abs(f1 - f0) > 1e-9 * max(1.0, abs(f0)):
                        raise ConfigError(
                            f"{name} discontinuous at breakpoint t={tb}: {f0} vs {f1}")
            prev = arc

    @property
    def t0(self) -> float:
        return self.arcs[0].t_start

    @property
    def tf(self) -> float:
        return self.arcs[-1].t_end

    @property
    def vf(self) -> float:
        return float(self.arcs[-1].v(self.tf))

    @property
    def breakpoints(self):
        return tuple([a.t_start for a in self.arcs] + [self.tf])

    def arc_at(self, t: float) -> Arc:
        if not (self.t0 - _EDGE_TOL <= t <= self.tf + _EDGE_TOL):
            raise DomainError(f"t={t} outside [{self.t0}, {self.tf}]")
        i = bisect.bisect_right(self._starts, t) - 1
        i = max(0, min(i, len(self.arcs) - 1))
        return self.arcs[i]

    def arc_indices(self, ts: np.ndarray) -> np.ndarray:
        """Index of the arc ``arc_at`` picks at each of ``ts``, in one pass.

        That is the last arc starting at or before t, so a zero-length arc
        gives way to the arc after it; no domain check.
        """
        i = np.searchsorted(self._start_arr, ts, side="right") - 1
        return np.clip(i, 0, len(self.arcs) - 1)

    def eval(self, t: float):
        """(p, v, u) at time t. Raises DomainError outside [t0, tf]."""
        arc = self.arc_at(t)
        return float(arc.p(t)), float(arc.v(t)), float(arc.u(t))

    def sample(self, ts: np.ndarray):
        """Vectorized (p, v, u) arrays over sample times inside the domain.

        Each arc evaluates the times from its start up to the next arc's
        start (the first arc also takes times just before t0), on one
        contiguous slice of the sorted times: no index or mask arrays the
        size of ``ts``. Unsorted times are evaluated in sorted order and put
        back in place.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.t0 - _EDGE_TOL or ts.max() > self.tf + _EDGE_TOL):
            raise DomainError("sample times outside trajectory domain")
        p = np.empty_like(ts)
        v = np.empty_like(ts)
        u = np.empty_like(ts)
        if np.any(ts[1:] < ts[:-1]):
            order = np.argsort(ts, kind="stable")
            p[order], v[order], u[order] = self.sample(ts[order])
            return p, v, u
        cuts = ([0] + np.searchsorted(ts, self._start_arr[1:], side="left").tolist()
                + [ts.size])
        for arc, lo, hi in zip(self.arcs, cuts, cuts[1:]):
            if hi > lo:
                seg = ts[lo:hi]
                p[lo:hi] = arc.p(seg)
                v[lo:hi] = arc.v(seg)
                u[lo:hi] = arc.u(seg)
        return p, v, u

    def dense_times(self, step: float, lo: float | None = None) -> np.ndarray:
        """Sorted unique times ``step`` apart plus breakpoints and arc extrema.

        The grid is ``ceil((tf - lo)/step) + 1`` (at least 2) evenly spaced
        times from ``lo`` (default t0) to tf, joined by every breakpoint and
        every interior v and u extremum of the arcs; with ``lo`` given, only
        the times in ``[lo, tf]`` are kept. This equals ``np.unique`` of
        the concatenation, but the few extra times are merged into the
        already increasing grid instead of sorting the whole array again.
        """
        t_lo = self.t0 if lo is None else lo
        n = _grid_size(self.tf - t_lo, step)
        grid = np.linspace(t_lo, self.tf, n)
        extra = np.array(self.breakpoints + tuple(
            t for arc in self.arcs for t, _ in arc.v_extrema() + arc.u_extrema()))
        if not np.all(grid[1:] > grid[:-1]):
            # an empty or zero-width window: nothing to merge into
            ts = np.unique(np.concatenate([grid, extra]))
            return ts if lo is None else ts[(ts >= t_lo) & (ts <= self.tf)]
        extra = np.unique(extra)
        if lo is not None:
            extra = extra[(extra >= t_lo) & (extra <= self.tf)]
        at = np.searchsorted(grid, extra)
        new = grid[np.minimum(at, n - 1)] != extra
        return np.insert(grid, at[new], extra[new])

    def grid_before(self, ts, step: float) -> np.ndarray:
        """The last time of ``dense_times(step)``'s even grid strictly before
        each of ``ts`` (-inf where there is none), without building the grid:
        k*((tf - t0)/(n - 1)) + t0, the arithmetic of ``np.linspace``."""
        n = _grid_size(self.tf - self.t0, step)
        ts = np.asarray(ts, dtype=float)
        h = (self.tf - self.t0) / (n - 1)
        k = np.clip(np.floor((ts - self.t0) / h)[:, None] + (-1.0, 0.0, 1.0), 0.0, n - 2.0)
        grid = k * h + self.t0
        return np.where(grid < ts[:, None], grid, -np.inf).max(axis=1)

    def cost(self, gamma: float) -> CostBreakdown:
        """Objective J = gamma*(tf - t0) + integral of 0.5 u^2, arc by arc in closed form."""
        T = self.tf - self.t0
        E = sum(a.energy(a.t_start, a.t_end) for a in self.arcs)
        return CostBreakdown(travel_time=T, energy=E, objective=gamma * T + E)

    def position_root(self, target: float, lo: float | None = None, hi: float | None = None) -> float:
        """Time in [lo, hi] where p(t) = target (p nondecreasing in practice).

        A target up to 1e-6 beyond the positions at both ends maps to the
        nearer end.
        """
        lo = self.t0 if lo is None else lo
        hi = self.tf if hi is None else hi
        plo = self.eval(lo)[0]
        phi_ = self.eval(hi)[0]
        if not (min(plo, phi_) - 1e-6 <= target <= max(plo, phi_) + 1e-6):
            raise DomainError(f"position {target} not bracketed on [{lo}, {hi}]")
        roots = bracket_roots(lambda t: self.eval(t)[0] - target, (lo, hi))
        if roots:
            return roots[0]
        return lo if abs(plo - target) < abs(phi_ - target) else hi

    def extended(self, until: float) -> "PiecewiseTrajectory":
        """Append a constant-speed arc from the terminal state out to ``until``.

        Models the vehicle holding its exit speed after leaving the merging
        zone, which followers' constraint checks rely on.
        """
        arcs = self.held(until)
        return self if arcs is self.arcs else PiecewiseTrajectory(arcs)

    def held(self, until: float) -> tuple:
        """The arcs of ``extended(until)``: these arcs, then, if ``until``
        lies past tf, the cruise at the exit speed from tf to ``until``."""
        if until <= self.tf + _EDGE_TOL:
            return self.arcs
        return self.arcs + (Arc.through(self.tf, until, self.eval(self.tf)[0], self.vf,
                                        0.0, 0.0, kind="cruise"),)

    def until(self, t: float) -> tuple:
        """The arcs in force before ``t`` in [t0, tf], the last one cut at
        ``t`` (the first arc alone, cut to zero length, at t0)."""
        arcs = self.arcs[:max(bisect.bisect_left(self._starts, t), 1)]
        return arcs[:-1] + (replace(arcs[-1], t_end=t),)


# ---------------------------------------------------------------------------
# closed-form bounds of the rear-end gap
# ---------------------------------------------------------------------------
#
# On a stretch where the follower and its leader each stay on one arc, the
# gap g = P_lead - p - phi*v - delta0 is C(t) + Q(t)*exp(-t/phi): C a cubic,
# Q the leader's exponential amplitude Rp less the follower's Rp - phi*Rv.
# Bounding C exactly and Q*exp(-t/phi) by Q's range times the exponential
# at the two ends bounds g, without sampling, as the arithmetic of
# ``sample`` gives it to within GAP_MARGIN. ``worst_lag`` searches the 1 ms
# grid by branch and bound over these bounds; it is the one grid search of
# both rear-end judges, the audit and the fleet check.

GAP_MARGIN = 1e-9   # m; over ten times the worst bound-versus-sample rounding seen
LAG_RUN = 256       # grid points ``worst_lag`` samples instead of splitting


def gap_terms(arcs, phi: float, headway: float = 0.0, standstill: float = 0.0):
    """(C, Q, ok) of p + headway*v + standstill on each of ``arcs``.

    Row k of C holds the cubic coefficients and row k of Q the amplitude of
    exp(-t/phi), lowest order first; ``ok`` is False where an arc's time
    constant is not ``phi`` or its amplitude is above cubic, pieces the
    bound leaves open.
    """
    C = np.empty((len(arcs), 4))
    Q = np.zeros((len(arcs), 4))
    ok = np.ones(len(arcs), dtype=bool)
    for k, arc in enumerate(arcs):
        C[k] = (arc.d + headway * arc.c + standstill, arc.c + headway * arc.b,
                0.5 * arc.b + headway * 0.5 * arc.a, arc.a / 6.0)
        if arc.amp:
            if arc.phi != phi or len(arc.amp) > 4:
                ok[k] = False
            else:
                Q[k, :len(arc.amp)] = [rp - headway * rv for rp, rv in zip(arc._rp, arc._rv)]
    return C, Q, ok


def held_terms(traj: PiecewiseTrajectory, phi: float):
    """(starts, (C, Q, ok)) of ``traj`` as a leader: ``gap_terms`` of its
    position on each arc and on the exit-speed hold after them, and the
    starts of those arcs after the first (tf, where the hold begins, last)."""
    arcs = traj.held(math.inf)
    return [arc.t_start for arc in arcs[1:]], gap_terms(arcs, phi)


def gap_pieces(t_lo: float, t_hi: float, follow_starts, lead_starts):
    """(ta, tb, follower arc, leader arc) lists, one entry per piece of
    [t_lo, t_hi] on which ``sample`` evaluates one arc of each trajectory.

    The starts are those of each trajectory's arcs after its first, sorted.
    Pieces are cut at every start in (t_lo, t_hi]; as in ``sample``, a time
    on a start belongs to the arc that starts there, so the piece from
    ``ta`` covers the times in [ta, tb) (the last one [ta, t_hi]), and a
    start at t_hi leaves a last piece [t_hi, t_hi].
    """
    cuts = sorted({t for t in (*follow_starts, *lead_starts) if t_lo < t <= t_hi})
    ta = [t_lo, *cuts]
    return (ta, [*cuts, t_hi], [bisect.bisect_right(follow_starts, t) for t in ta],
            [bisect.bisect_right(lead_starts, t) for t in ta])


def _cubic_range(c, ta, tb):
    """Elementwise (min, max) of the cubics in the rows of ``c`` over
    [ta, tb]: their values at both ends and at the roots of the quadratic
    derivative inside (``quadratic_root_pairs``)."""
    c0, c1, c2, c3 = c.T
    t = np.array([ta, tb, *quadratic_root_pairs(c1, 2.0 * c2, 3.0 * c3)])
    t[2:] = np.where((t[2:] > ta) & (t[2:] < tb), t[2:], ta)
    values = ((c3 * t + c2) * t + c1) * t + c0
    return values.min(axis=0), values.max(axis=0)


def gap_range(C, Q, ok, ta, tb, phi: float):
    """Elementwise (lower, upper) of C(t) + Q(t)*exp(-t/phi) over [ta, tb];
    (-inf, inf) where ``ok`` is False."""
    if phi > 0.0:
        n = len(C)
        lo, hi = _cubic_range(np.concatenate((C, Q)), np.concatenate((ta, ta)),
                              np.concatenate((tb, tb)))
        e = np.exp(np.array([ta, tb]) / -phi)
        ends = np.concatenate((lo[n:] * e, hi[n:] * e))
        lower, upper = lo[:n] + ends.min(axis=0), hi[:n] + ends.max(axis=0)
    else:
        lower, upper = _cubic_range(C, ta, tb)
    open_ = ~ok | np.isnan(lower) | np.isnan(upper)
    return np.where(open_, -np.inf, lower), np.where(open_, np.inf, upper)


def gap_bounds(follower: PiecewiseTrajectory, leader: PiecewiseTrajectory, phi: float,
               delta0: float, t_lo: float, t_hi: float):
    """The rear-end gap of ``follower`` behind ``leader`` (held at its exit
    speed once it has left) on the ``gap_pieces`` of [t_lo, t_hi].

    Returns arrays (ta, tb, C, Q, ok, lower, upper): per piece, its window,
    the gap's terms C(t) + Q(t)*exp(-t/phi) there and their bounds over the
    window. Every gap ``sample`` gives at a time of the piece lies within
    GAP_MARGIN of them.
    """
    starts, (CL, QL, okL) = held_terms(leader, phi)
    CF, QF, okF = gap_terms(follower.arcs, phi, phi, delta0)
    ta, tb, fi, li = (np.array(x) for x in
                      gap_pieces(t_lo, t_hi, follower.breakpoints[1:-1], starts))
    C, Q, ok = CL[li] - CF[fi], QL[li] - QF[fi], okL[li] & okF[fi]
    return (ta, tb, C, Q, ok) + gap_range(C, Q, ok, ta, tb, phi)


def _halving_runs(a: int, b: int) -> list:
    """Starts of the runs of ``LAG_RUN`` grid points or fewer that halving
    ``[a, b)`` at middle indices, again and again, ends with."""
    if b - a <= LAG_RUN:
        return [a]
    m = (a + b) // 2
    return _halving_runs(a, m) + _halving_runs(m, b)


def worst_lag(traj: PiecewiseTrajectory, leader: PiecewiseTrajectory, phi: float,
              delta0: float, ts: np.ndarray, floor: float = -math.inf):
    """(value, t) of the maximum of the lag p + phi*v + delta0 - P_leader
    (minus the rear-end gap) over the sorted grid ``ts`` of ``traj``, the
    earliest time on a tie; (-inf, nan) if nothing is sampled.

    Branch and bound over ``gap_bounds``, starting from its pieces: the
    run with the highest bound goes first. A run whose bounds lie within
    GAP_MARGIN of each other, or of ``LAG_RUN`` points or fewer, is
    sampled, ``GRID_BLOCK`` points at a time; a longer one is cut, by
    halving at middle grid indices, into runs of ``LAG_RUN`` points or
    fewer, all bounded at once. A run whose upper bound lies more than
    GAP_MARGIN below max(best sampled value, ``floor``) cannot reach it and
    is never sampled. So a grid maximum at or above ``floor`` is exactly
    the one sampling the whole grid gives, and one below it comes back as
    some value below ``floor``.
    """
    if ts.size == 0:
        return -math.inf, math.nan
    lead = leader.extended(traj.tf + 1e-9)
    ta, _, C, Q, ok, g_lo, g_hi = gap_bounds(traj, leader, phi, delta0, ts[0], ts[-1])
    lo = np.searchsorted(ts, ta, side="left").tolist()   # the grid run of each piece
    # the lag is minus the gap: (-upper lag bound, lo, hi, lag spread, piece)
    heap = [(g, a, b, u - g, k) for k, (a, b, g, u) in
            enumerate(zip(lo, lo[1:] + [ts.size], g_lo.tolist(), g_hi.tolist())) if b > a]
    heapq.heapify(heap)
    best, t_best = -math.inf, math.nan
    while heap and -heap[0][0] >= max(best, floor) - GAP_MARGIN:
        _, a, b, spread, k = heapq.heappop(heap)
        if b - a <= LAG_RUN or spread < GAP_MARGIN:
            for at in range(a, b, GRID_BLOCK):
                seg = ts[at:min(at + GRID_BLOCK, b)]
                p, v, _ = traj.sample(seg)
                lag = p + phi * v + delta0 - lead.sample(seg)[0]
                i = int(np.argmax(lag))
                if lag[i] > best or (lag[i] == best and seg[i] < t_best):
                    best, t_best = float(lag[i]), float(seg[i])
            continue
        starts = _halving_runs(a, b)
        ends = starts[1:] + [b]
        rows = [k] * len(starts)
        g, u = gap_range(C[rows], Q[rows], ok[rows], ts[starts], ts[np.array(ends) - 1], phi)
        for run in zip(g.tolist(), starts, ends, (u - g).tolist(), rows):
            heapq.heappush(heap, run)
    return best, t_best


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConflictMap:
    """Symmetric (road, movement) conflict lookup.

    ``pairs`` empty means the default four-approach geometry with through
    movements only: perpendicular roads conflict in the merging zone, the
    same road and the opposite road do not. Explicit pairs switch to strict
    mode where unknown keys raise.
    """

    OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}

    pairs: frozenset = frozenset()
    known: frozenset = frozenset()

    @classmethod
    def from_pairs(cls, pair_list):
        pairs = set()
        known = set()
        for (ra, ma), (rb, mb) in pair_list:
            a, b = (ra, ma), (rb, mb)
            pairs.add(frozenset((a, b)))
            known.update((a, b))
        return cls(pairs=frozenset(pairs), known=frozenset(known))

    def conflicts(self, a, b) -> bool:
        if not self.pairs and not self.known:
            ra, rb = a[0], b[0]
            if ra == rb or self.OPPOSITE.get(ra) == rb:
                return False
            return True
        if a not in self.known or b not in self.known:
            raise ConfigError(f"unknown (road, movement) pair: {a if a not in self.known else b}")
        return frozenset((a, b)) in self.pairs


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, limits, and weights shared by every CAV in a scenario."""

    L: float = 370.0          # control-zone length up to the merging zone [m]
    S: float = 30.0           # merging-zone side [m]
    v_min: float = 0.0
    v_max: float = 13.5
    u_min: float = -3.0
    u_max: float = 3.0
    gamma: float = 0.1        # time weight in J = gamma*T + integral 0.5 u^2
    phi: float = 1.0          # reaction-time headway [s]
    delta0: float = 0.0       # standstill gap [m]
    rng_seed: int = 0
    conflict: ConflictMap = field(default_factory=ConflictMap)

    def __post_init__(self):
        if self.L <= 0 or self.S <= 0:
            raise ConfigError("L and S must be positive")
        if not (self.v_min < self.v_max):
            raise ConfigError("need v_min < v_max")
        if self.v_min < 0:
            raise ConfigError("v_min must be nonnegative")
        if not (self.u_min < 0.0 < self.u_max):
            raise ConfigError("need u_min < 0 < u_max")
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if self.phi < 0 or self.delta0 < 0:
            raise ConfigError("phi and delta0 must be nonnegative")

    @property
    def exit_distance(self) -> float:
        """Distance from control-zone entry to merging-zone exit."""
        return self.L + self.S


@dataclass(frozen=True)
class VehicleArrival:
    """A CAV entering the control zone."""

    id: int
    t0: float
    v0: float
    road: str
    lane: int = 0
    movement: str = "through"
    u_min: float | None = None   # optional per-vehicle control bounds
    u_max: float | None = None
    force_tf: float | None = None
    force_profile: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.force_profile is not None:
            object.__setattr__(self, "force_profile", tuple(float(x) for x in self.force_profile))
            if len(self.force_profile) != 4:
                raise ConfigError(f"CAV {self.id}: force_profile needs 4 cubic coefficients")
            if self.force_tf is None:
                raise ConfigError(f"CAV {self.id}: force_profile requires force_tf")

    def limits(self, cfg: ScenarioConfig):
        lo = self.u_min if self.u_min is not None else cfg.u_min
        hi = self.u_max if self.u_max is not None else cfg.u_max
        if not (lo < 0.0 < hi):
            raise ConfigError(f"CAV {self.id}: need u_min < 0 < u_max")
        return lo, hi

    def validate(self, cfg: ScenarioConfig):
        if not (cfg.v_min < self.v0 < cfg.v_max):
            raise ConfigError(
                f"CAV {self.id}: entry speed {self.v0} outside ({cfg.v_min}, {cfg.v_max})")
        self.limits(cfg)

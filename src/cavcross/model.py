"""Core kinematic model: arc algebra, piecewise trajectories, scenario types.

A vehicle crossing the control zone follows double-integrator dynamics
(position p, speed v, control u = acceleration). Optimal profiles are pieced
together from a small set of closed-form arc families:

* ``CubicArc``       -- u(t) = a*t + b, so v is quadratic and p cubic.
* ``ExpTrackArc``    -- gap-riding behind a leader: u(t) = a*t + b + A(t)*exp(-t/phi)
                        with A a (usually constant) polynomial amplitude.
* ``SatArc``         -- control pinned at a bound, u constant.
* ``CruiseArc``      -- speed pinned (at a bound or post-exit), u = 0.

All coefficients are in absolute time. Every arc evaluates p, v, u exactly and
integrates its own energy 0.5*u^2 in closed form.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .newton import bracket_roots


class DomainError(ValueError):
    """Evaluation outside a trajectory's time domain."""


class ConfigError(ValueError):
    """Inconsistent scenario or vehicle configuration."""


_EDGE_TOL = 1e-9


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

@dataclass(frozen=True)
class Arc:
    t_start: float
    t_end: float

    def __post_init__(self):
        if not (self.t_end > self.t_start - _EDGE_TOL):
            raise ConfigError(f"arc has non-positive duration: [{self.t_start}, {self.t_end}]")

    # subclasses implement p/v/u and energy_to(t1, t2)
    def cubic_amp(self):
        """Absolute-time (a, b, c, d, amp, phi) view of this arc.

        Every arc kind reads as u = a*t + b + A(t)*exp(-t/phi) with A the
        polynomial ``amp`` (empty for purely polynomial arcs). Used by the
        solver when an arc serves as a leader piece for gap tracking.
        """
        raise NotImplementedError

    def v_extrema(self):
        """Interior stationary points of v as (t, v) pairs."""
        return []

    def u_extrema(self):
        """Interior stationary points of u as (t, u) pairs."""
        return []


@dataclass(frozen=True)
class CubicArc(Arc):
    a: float
    b: float
    c: float
    d: float

    def u(self, t):
        return self.a * t + self.b

    def v(self, t):
        return (0.5 * self.a * t + self.b) * t + self.c

    def p(self, t):
        return ((self.a / 6.0 * t + 0.5 * self.b) * t + self.c) * t + self.d

    def energy(self, t1, t2):
        # integral of 0.5*(a t + b)^2
        q = _pint((0.5 * self.b**2, self.a * self.b, 0.5 * self.a**2))
        return _pval(q, t2) - _pval(q, t1)

    def cubic_amp(self):
        return self.a, self.b, self.c, self.d, (), None

    def v_extrema(self):
        if self.a == 0.0:
            return []
        ts = -self.b / self.a
        if self.t_start + _EDGE_TOL < ts < self.t_end - _EDGE_TOL:
            return [(ts, self.v(ts))]
        return []


@dataclass(frozen=True)
class ExpTrackArc(Arc):
    """Gap-riding arc: u = a*t + b + A(t) * exp(-t/phi).

    ``amp`` holds the polynomial amplitude A lowest-order first; a constant
    amplitude is a one-element tuple. Speed and position follow by
    exact integration:
        v = 0.5*a*t^2 + b*t + c - Rv(t) exp(-t/phi)
        p = a/6*t^3 + 0.5*b*t^2 + c*t + d + Rp(t) exp(-t/phi)
    with Rv, Rp repeated exponential antiderivatives of A.
    """

    a: float
    b: float
    c: float
    d: float
    amp: tuple
    phi: float
    _rv: tuple = field(init=False, repr=False, compare=False)
    _rp: tuple = field(init=False, repr=False, compare=False)
    _v_ext: tuple | None = field(init=False, repr=False, compare=False)
    _u_ext: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.phi <= 0.0:
            raise ConfigError("phi must be positive for a tracking arc")
        al = 1.0 / self.phi
        rv = _exp_antideriv(self.amp, al) if self.amp else ()
        rp = _exp_antideriv(rv, al) if rv else ()
        object.__setattr__(self, "_rv", rv)
        object.__setattr__(self, "_rp", rp)
        # stationary points, found on first request (see v_extrema)
        object.__setattr__(self, "_v_ext", None)
        object.__setattr__(self, "_u_ext", None)

    def _exp(self, t):
        return np.exp(-t / self.phi) if isinstance(t, np.ndarray) else math.exp(-t / self.phi)

    def u(self, t):
        out = self.a * t + self.b
        if self.amp:
            out = out + _pval(self.amp, t) * self._exp(t)
        return out

    def v(self, t):
        out = (0.5 * self.a * t + self.b) * t + self.c
        if self._rv:
            out = out - _pval(self._rv, t) * self._exp(t)
        return out

    def p(self, t):
        out = ((self.a / 6.0 * t + 0.5 * self.b) * t + self.c) * t + self.d
        if self._rp:
            out = out + _pval(self._rp, t) * self._exp(t)
        return out

    def energy(self, t1, t2):
        al = 1.0 / self.phi
        poly = (0.5 * self.b**2, self.a * self.b, 0.5 * self.a**2)
        q = _pint(poly)
        total = _pval(q, t2) - _pval(q, t1)
        if self.amp:
            cross = _pmul((self.b, self.a), self.amp)  # (a t + b) * A(t)
            r2 = _exp_antideriv(cross, al)
            total += (-_pval(r2, t2) * self._exp(t2)) - (-_pval(r2, t1) * self._exp(t1))
            sq = _pmul(self.amp, self.amp)
            r3 = _exp_antideriv(tuple(0.5 * x for x in sq), 2.0 * al)
            e2 = lambda t: math.exp(-2.0 * t / self.phi)
            total += (-_pval(r3, t2) * e2(t2)) - (-_pval(r3, t1) * e2(t1))
        return total

    def cubic_amp(self):
        return self.a, self.b, self.c, self.d, self.amp, self.phi

    def _interior_roots(self, fn):
        grid = np.linspace(self.t_start, self.t_end, 256)
        ts = bracket_roots(fn, grid, fn(grid))
        return [t for t in ts if self.t_start + _EDGE_TOL < t < self.t_end - _EDGE_TOL]

    def v_extrema(self):
        """Interior stationary points of v, scanned for once per arc.

        The plan, the audit and the fleet check all ask for the extrema of
        the same final arcs; the scan runs on the first request and later
        calls get a fresh copy of the stored list.
        """
        if self._v_ext is None:
            object.__setattr__(self, "_v_ext", tuple(
                (t, self.v(t)) for t in self._interior_roots(self.u)))
        return list(self._v_ext)

    def u_extrema(self):
        """Interior stationary points of u, scanned for once per arc."""
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


@dataclass(frozen=True)
class SatArc(Arc):
    """Control saturated at a constant value."""

    u0: float
    v_start: float
    p_start: float

    def u(self, t):
        return self.u0 + 0.0 * t if isinstance(t, np.ndarray) else self.u0

    def v(self, t):
        return self.v_start + self.u0 * (t - self.t_start)

    def p(self, t):
        dt = t - self.t_start
        return self.p_start + (self.v_start + 0.5 * self.u0 * dt) * dt

    def energy(self, t1, t2):
        return 0.5 * self.u0**2 * (t2 - t1)

    def cubic_amp(self):
        a = 0.0
        b = self.u0
        c = self.v_start - self.u0 * self.t_start
        d = self.p_start - self.v_start * self.t_start + 0.5 * self.u0 * self.t_start**2
        return a, b, c, d, (), None


@dataclass(frozen=True)
class CruiseArc(Arc):
    """Constant speed, zero control."""

    v0: float
    p_start: float

    def u(self, t):
        return 0.0 * t if isinstance(t, np.ndarray) else 0.0

    def v(self, t):
        return self.v0 + 0.0 * t if isinstance(t, np.ndarray) else self.v0

    def p(self, t):
        return self.p_start + self.v0 * (t - self.t_start)

    def energy(self, t1, t2):
        return 0.0

    def cubic_amp(self):
        return 0.0, 0.0, self.v0, self.p_start - self.v0 * self.t_start, (), None


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
        n = max(int(math.ceil((self.tf - t_lo) / step)) + 1, 2)
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
        if until <= self.tf + _EDGE_TOL:
            return self
        tail = CruiseArc(t_start=self.tf, t_end=until, v0=self.vf,
                         p_start=self.eval(self.tf)[0])
        return PiecewiseTrajectory(self.arcs + (tail,))


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

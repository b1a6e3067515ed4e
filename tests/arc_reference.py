"""The five arc classes the model used before they became one ``Arc``.

``Arc`` (the base), ``CubicArc``, ``ExpTrackArc``, ``SatArc`` and
``CruiseArc`` are kept verbatim, over the model's polynomial helpers, as the
reference that ``tests/test_arc_replay.py`` compares ``cavcross.model.Arc``
with: ``from_arc`` rebuilds the old class of each new arc from its ``kind``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cavcross.model import (ConfigError, _EDGE_TOL, _exp_antideriv, _pder, _pint,
                            _pmul, _pval)
from cavcross.newton import bracket_roots


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

    @classmethod
    def through(cls, t_start, t_end, p, v, a, b):
        """The arc with control a*t + b on [t_start, t_end] whose position
        and speed at t_start are p and v."""
        c = v - (0.5 * a * t_start + b) * t_start
        d = p - ((a / 6.0 * t_start + 0.5 * b) * t_start + c) * t_start
        return cls(t_start=t_start, t_end=t_end, a=a, b=b, c=c, d=d)

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



def from_arc(arc):
    """The old-class arc of the same family through the same state as ``arc``."""
    if arc.kind == "track":
        return ExpTrackArc(t_start=arc.t_start, t_end=arc.t_end, a=arc.a, b=arc.b,
                           c=arc.c, d=arc.d, amp=arc.amp, phi=arc.phi)
    if arc.kind == "sat":
        return SatArc(t_start=arc.t_start, t_end=arc.t_end, u0=arc.b,
                      v_start=arc.v(arc.t_start), p_start=arc.p(arc.t_start))
    if arc.kind == "cruise":
        return CruiseArc(t_start=arc.t_start, t_end=arc.t_end, v0=arc.c,
                         p_start=arc.p(arc.t_start))
    return CubicArc(t_start=arc.t_start, t_end=arc.t_end, a=arc.a, b=arc.b,
                    c=arc.c, d=arc.d)

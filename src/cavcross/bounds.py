"""Feasible window for a CAV's merging-zone exit time.

The earliest exit comes from flooring the accelerate-then-cruise profile at
the control and speed caps; the latest from the mirrored decelerate profile.
Queue predecessors tighten the lower edge: a same-lane leader k imposes the
reaction-headway arrival gap, and the latest already-scheduled conflicting or
adjacent CAV o imposes first-in-first-out ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ConfigError, ScenarioConfig


@dataclass(frozen=True)
class TerminalWindow:
    t_lower: float                 # composite lower bound
    t_upper: float | None          # None when the crawl branch diverges (v_min = 0)
    binding: str                   # which term produced t_lower


def lower_speed_control(t0: float, v0: float, cfg: ScenarioConfig,
                        u_max: float | None = None):
    """Earliest possible exit time and the speed it exits with.

    Full-throttle until either v_max is reached (then cruise) or the exit is
    reached first; the discriminant 2*D*u_max + v0^2 vs v_max^2 picks the
    branch.
    """
    D = cfg.exit_distance
    um = cfg.u_max if u_max is None else u_max
    if um <= 0:
        raise ConfigError("u_max must be positive")
    disc = 2.0 * D * um + v0 * v0
    if disc > cfg.v_max**2:
        # hits v_max before the exit: accelerate, then cruise
        t = t0 + D / cfg.v_max + (cfg.v_max - v0) ** 2 / (2.0 * um * cfg.v_max)
        return t, cfg.v_max
    vf = math.sqrt(disc)
    return t0 + (vf - v0) / um, vf


def upper_speed_control(t0: float, v0: float, cfg: ScenarioConfig,
                        u_min: float | None = None):
    """Latest exit time under the mirrored full-brake profile, or None.

    Braking to v_min and crawling gives the slowest admissible crossing; with
    v_min = 0 the crawl never finishes, so no finite upper bound exists.
    """
    D = cfg.exit_distance
    umn = cfg.u_min if u_min is None else u_min
    if umn >= 0:
        raise ConfigError("u_min must be negative")
    disc = 2.0 * D * umn + v0 * v0
    if disc < cfg.v_min**2:
        if cfg.v_min == 0.0:
            return None
        return t0 + D / cfg.v_min + (cfg.v_min - v0) ** 2 / (2.0 * umn * cfg.v_min)
    return t0 + (math.sqrt(disc) - v0) / umn


def composite_window(t0: float, v0: float, cfg: ScenarioConfig, *,
                     leader=None, other_tf: float | None = None,
                     vf_i: float | None = None,
                     u_limits: tuple | None = None) -> TerminalWindow:
    """Combine the speed/control floor with queue-imposed floors.

    ``leader`` is the solved same-lane predecessor trajectory (or None);
    ``other_tf`` the exit time of the latest conflicting/adjacent predecessor;
    ``vf_i`` our hypothesized exit speed for the headway term (defaults to the
    floor profile's exit speed and is refined by fixed-point iteration in the
    solver).
    """
    lo_u, lo_l = (u_limits if u_limits is not None else (cfg.u_min, cfg.u_max))
    t_sc, vf_hint = lower_speed_control(t0, v0, cfg, u_max=lo_l)
    t_up = upper_speed_control(t0, v0, cfg, u_min=lo_u)
    terms = [(t_sc, "speed_control")]
    if leader is not None:
        vkf = leader.vf
        if vkf <= 0.0:
            raise ConfigError("leader exits with nonpositive speed; headway bound undefined")
        vf_hyp = vf_hint if vf_i is None else vf_i
        terms.append((leader.tf + (cfg.phi * vf_hyp + cfg.delta0) / vkf, "follower"))
    if other_tf is not None:
        terms.append((other_tf, "fifo"))
    t_lo, binding = max(terms, key=lambda kv: kv[0])
    return TerminalWindow(t_lower=t_lo, t_upper=t_up, binding=binding)

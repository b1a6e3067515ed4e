"""Test-side reference for the saturation families.

``solve_limits_newton`` is the shooting solve that ``solver.solve_limits``
replaced: damped Newton on log/sigmoid-reparametrised junction times with a
ladder of starting guesses for relax-then-cruise, saturate-then-relax and
the free saturate-blend-cruise, and a bracketed root of the pin-distance
residual for the pinned blend. The closed forms must give the same arcs,
junction times and exit time wherever it solves, and fail where it fails.
"""

import math

import numpy as np

from cavcross.model import Arc, ConfigError, PiecewiseTrajectory, ScenarioConfig
from cavcross.roots import bracket_roots
from cavcross.solver import SolveReport, StructureError
from lu_reference import _cub_p, _cub_u, _cub_v, _init_cd
from newton_reference import solve_system


def solve_limits_newton(t0, v0, cfg: ScenarioConfig, *, terminal="free", tf_fixed=None,
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
            arcs.append(Arc.through(t0, tau1, 0.0, v0, 0.0, u_sat, kind="sat"))
            v1 = v0 + u_sat * (tau1 - t0)
            p1 = v0 * (tau1 - t0) + 0.5 * u_sat * (tau1 - t0) ** 2
        else:
            tau1, v1, p1 = t0, v0, 0.0
        c = v1 - (0.5 * a * tau1 + b) * tau1
        d = p1 - ((a / 6.0 * tau1 + 0.5 * b) * tau1 + c) * tau1
        if tau2 > tau1 + 1e-12:
            arcs.append(Arc(t_start=tau1, t_end=tau2, a=a, b=b, c=c, d=d))
            p2 = _cub_p(a, b, c, d, tau2)
            v2 = _cub_v(a, b, c, tau2)
        else:
            tau2, p2, v2 = tau1, p1, v1
        if tf > tau2 + 1e-12:
            arcs.append(Arc.through(tau2, tf, p2, v2, 0.0, 0.0, kind="cruise"))
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
        arcs = [Arc(t_start=t0, t_end=tau2, a=a, b=b, c=c, d=d)]
        if tf > tau2 + 1e-12:
            arcs.append(Arc.through(tau2, tf, _cub_p(a, b, c, d, tau2),
                                    _cub_v(a, b, c, tau2), 0.0, 0.0, kind="cruise"))
        traj = PiecewiseTrajectory(tuple(arcs))
        info.update(tau1=t0, tau2=tau2, tf=tf, a=a, b=b)
        residual, iters = res.residual_norm, res.iterations
    if report is not None:
        report.log(info["family"], residual=residual, iters=iters,
                   direction=direction, tf=info["tf"])
    return traj, info

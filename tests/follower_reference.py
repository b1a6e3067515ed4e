"""Test-side reference for the follower terminal.

``solve_p1_follower_newton`` is the four-unknown solve that
``solver.solve_p1_follower`` replaced: (a, b, eta, tf) from the headway
bound, the terminal position and the transversality pair as one coupled
Newton system, warm-started from six pinned solves. The replay test checks
that the one-unknown closed form lands on the same terminal.
"""

import math

import numpy as np

from cavcross.model import Arc, ConfigError, PiecewiseTrajectory, ScenarioConfig
from cavcross.solver import SolveReport, StructureError, solve_p1_fixed
from newton_reference import solve_system


def solve_p1_follower_newton(t0, v0, leader: PiecewiseTrajectory, cfg: ScenarioConfig,
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

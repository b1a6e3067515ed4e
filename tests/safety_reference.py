"""Test-side reference for the gap-riding solve's independence property.

``solve_safety_joint`` solves the boundary entry and the departure as one
coupled Newton system, so tests can check that ``solver.solve_safety``,
which solves the entry first and the departure afterwards, lands on the
same junction times.
"""

import math

import numpy as np

from cavcross.model import Arc
from cavcross.solver import StructureError, _entry_coeffs, _ride
from newton_reference import solve_system


def solve_safety_joint(t0, v0, leader, cfg, *, tf_fixed):
    """One stacked solve of entry + departure, for independence checks.

    Treats (tau1, tau2) as the unknowns with everything else resolved by
    linear inner solves (entry cubic from the gap/gap-rate conditions, tail
    cubic from control continuity and the terminal conditions), and the
    riding segment rebuilt inside the residual so the departure genuinely
    feeds back on the entry. Confirms that the entry subproblem's solution
    does not move when both are solved jointly.
    """
    phi, d0 = cfg.phi, cfg.delta0
    D = cfg.exit_distance
    lead_ext = leader.extended(tf_fixed + 5.0)

    def residual(x):
        za, zb = x
        tau1 = t0 + math.exp(za)
        tau2 = tau1 + (tf_fixed - tau1) / (1.0 + math.exp(-zb))
        if tau1 >= tf_fixed - 1e-3:
            return np.array([1e6, 1e6])
        a, b, g = _entry_coeffs(t0, v0, phi, d0, lead_ext, tau1)
        if math.isnan(g):
            return np.array([1e6, 1e6])
        u_entry = a * tau1 + b
        try:
            ride = _ride(leader, tau1, u_entry, cfg, tf_fixed + 1.0)
        except StructureError:
            return np.array([1e6, 1e6])
        p_r, v_r, u_r = ride.eval(tau2)
        e = u_r / (tau2 - tf_fixed)
        tail = Arc.through(tau2, tf_fixed, p_r, v_r, e, -e * tf_fixed)
        return np.array([g, tail.p(tf_fixed) - D])

    starts = []
    for f1, f2 in ((0.3, 0.5), (0.5, 0.5), (0.2, 0.4), (0.4, 0.7)):
        tau1_g = t0 + f1 * (tf_fixed - t0)
        starts.append((math.log(tau1_g - t0), math.log(f2 / (1.0 - f2))))
    res = solve_system(residual, starts)
    if not res.converged:
        raise StructureError("joint gap solve failed")
    za, zb = res.x
    tau1 = t0 + math.exp(za)
    tau2 = tau1 + (tf_fixed - tau1) / (1.0 + math.exp(-zb))
    a, b, _ = _entry_coeffs(t0, v0, phi, d0, lead_ext, tau1)
    ride = _ride(leader, tau1, a * tau1 + b, cfg, tf_fixed + 1.0)
    _, _, u_r = ride.eval(tau2)
    e = u_r / (tau2 - tf_fixed)
    r = -e * tf_fixed
    return {"a": a, "b": b, "tau1": tau1, "e": e, "r": r, "tau2": tau2}

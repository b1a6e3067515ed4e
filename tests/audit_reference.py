"""Test-side reference for the trajectory audit.

``audit_whole_grid`` is the plain audit: it samples the trajectory on its
whole 1 ms grid (``dense_times``, with every breakpoint and arc extremum)
and takes every bound and sign check, and the rear-end gap, as the worst
sample of that grid. ``verifier.audit`` takes the bound and sign checks
from closed-form candidates per arc instead, and samples the grid only
where it must, in blocks; the tests compare the two reports.
"""

import numpy as np

from cavcross.model import PiecewiseTrajectory, ScenarioConfig
from cavcross.verifier import (BOUND_TOL, CONT_TOL, GAP_TOL, H_TOL, AuditReport)


def audit_whole_grid(traj: PiecewiseTrajectory, cfg: ScenarioConfig, *, leader=None,
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
        if arc.kind == "track":
            h_gate = max(h_gate, arc.t_end)
    worst_flat, t_flat = 0.0, traj.t0
    h_free, t_free = 0.0, traj.tf
    for arc in traj.arcs:
        if arc.kind != "cubic":
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

    single_cubic = len(traj.arcs) == 1 and traj.arcs[0].kind == "cubic"
    if terminal_mode == "free" and single_cubic:
        arc = traj.arcs[0]
        rep.add("accel-relax slope sign", arc.a, traj.t0, 1e-12)
        rep.add("accel-relax control sign", -float(np.min(u)), ts[int(np.argmin(u))], BOUND_TOL)
        rep.add("accel-relax terminal control", abs(float(u[-1])), traj.tf, CONT_TOL)
    if terminal_mode == "fixed" and single_cubic:
        rep.add("single-signed control", -float(np.min(u)) * float(np.max(u)),
                traj.t0, 1e-10)
    return rep

"""Test-side reference for the planner's activation loop.

``plan_chain`` is ``solver.plan`` as it was written before the activation
became a table: one hand-written case per violation kind, each with its own
compatibility check and terminal handling, and a re-pin loop that rebuilds
the saturation family from the handled kinds. The replay test runs it next
to ``solver.plan`` on every planner call and requires the same arcs, report
fields and exceptions.
"""

import time

from cavcross.model import ScenarioConfig, VehicleArrival
from cavcross.solver import (MAX_ROUNDS, InfeasibleProblem, SolveReport,
                             StructureError, composite_window, scan_violations,
                             solve_lateral, solve_limits, solve_p0_free,
                             solve_p1_fixed, solve_p1_follower, solve_safety)


def plan_chain(arrival: VehicleArrival, cfg: ScenarioConfig, *, leader=None,
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

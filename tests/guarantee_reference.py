"""Test-side reference for the fleet guarantee check.

``check_guarantees_all_pairs`` is the plain all-pairs check: it samples the
rear-end gap of every solved same-lane pair on its own grid and tests order
and merging-zone entry pair by pair, so its work grows with the square of
the queue. ``coordinator.check_guarantees`` must return the same ``ok`` and
the same ``violations``, in the same order, while skipping the work a bound
proves unneeded; the tests compare the two.
"""

import numpy as np

from cavcross.coordinator import Coordinator, GuaranteeReport


def check_guarantees_all_pairs(coord: Coordinator, step: float = 1e-3) -> GuaranteeReport:
    """Audits every solved pair for rear-end, merging-zone, and order safety.

    Rear-end gaps are sampled at ``step`` plus all arc breakpoints and
    extrema; merging-zone entry must wait for a conflicting predecessor's
    exit; exit order must follow the queue.
    """
    cfg = coord.cfg
    report = GuaranteeReport(ok=True)
    solved = solved_entries(coord)
    for idx, entry in enumerate(solved):
        qv = coord.view(entry)
        traj = entry.trajectory
        for other in solved[:idx]:
            if other.index >= entry.index:
                continue
            group = qv.groups.get(other.arrival.id)
            jt = other.trajectory
            # exit order follows the queue for every earlier CAV
            if traj.tf < jt.tf - 1e-9:
                report.add("order", entry.arrival.id, other.arrival.id,
                           traj.tf, jt.tf - traj.tf)
            if group == "lane":
                t_lo = max(traj.t0, jt.t0)
                t_hi = traj.tf
                n = max(int(np.ceil((t_hi - t_lo) / step)) + 1, 2)
                ts = np.linspace(t_lo, t_hi, n)
                extra = [t for arc in traj.arcs for t, _ in
                         arc.v_extrema() + arc.u_extrema()]
                ts = np.unique(np.concatenate(
                    [ts, np.array(traj.breakpoints), np.array(extra)]))
                ts = ts[(ts >= t_lo) & (ts <= t_hi)]
                p, v, _ = traj.sample(ts)
                pj = jt.extended(t_hi + 1e-9).sample(ts)[0]
                gap = pj - p - cfg.phi * v - cfg.delta0
                worst = int(np.argmin(gap))
                if gap[worst] < -1e-6:
                    report.add("rear_end", entry.arrival.id, other.arrival.id,
                               ts[worst], gap[worst])
            elif group == "conflict":
                t_m = traj.position_root(cfg.L)
                if t_m < jt.tf - 1e-9:
                    report.add("lateral", entry.arrival.id, other.arrival.id,
                               t_m, jt.tf - t_m)
    return report


def solved_entries(coord: Coordinator):
    """The queue entries that have a trajectory attached, in queue order."""
    return [e for e in coord.entries if e.trajectory is not None]


def coordinator_of(result) -> Coordinator:
    """The queue a ``run_simulation`` result was solved in, trajectories attached.

    Enqueues the scenario's arrivals in the same order under the same seed,
    so simultaneous entries draw the same queue order.
    """
    coord = Coordinator(result.scenario.config)
    for arr in result.scenario.arrivals:
        coord.enqueue(arr)
    order = [e.arrival.id for e in coord.entries]
    assert order[:len(result.runs)] == [r.arrival.id for r in result.runs]
    for entry, run in zip(coord.entries, result.runs):
        if run.trajectory is not None:
            coord.attach(entry, run.trajectory)
    return coord

"""First-in-first-out queue management and crossing guarantees.

CAVs join the queue in control-zone entry order (simultaneous arrivals are
ordered by a seeded draw). For each CAV the queue partitions every earlier
CAV into exactly one of four groups relative to it: same road and lane
(rear-end coupling), different road with a merging-zone collision course
(lateral coupling), a collision-free different road, or same road on another
lane. The newest member of each coupled group is what the solver needs:
``k`` for the gap constraint, ``c`` for the merging-zone entry hold,
``o`` (newest of the two uncoupled groups) for exit-order scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (ConfigError, PiecewiseTrajectory, ScenarioConfig,
                    VehicleArrival)

TIE_EPS = 1e-9


@dataclass
class QueueEntry:
    index: int                      # 1-based queue position
    arrival: VehicleArrival
    trajectory: PiecewiseTrajectory | None = None


@dataclass
class QueueView:
    """Solver-facing slice of the queue state for one CAV."""

    index: int
    k: QueueEntry | None = None     # newest same-lane predecessor
    c: QueueEntry | None = None     # newest lateral-conflicting predecessor
    o: QueueEntry | None = None     # newest collision-free predecessor
    groups: dict = field(default_factory=dict)  # id -> "lane"|"conflict"|"clear"|"adjacent"


@dataclass
class GuaranteeReport:
    ok: bool
    violations: list = field(default_factory=list)  # (kind, i, j, t, margin)

    def add(self, kind, i, j, t, margin):
        self.violations.append((kind, i, j, float(t), float(margin)))
        self.ok = False


class Coordinator:
    """Orders arrivals and exposes the coupling structure per CAV."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.entries: list[QueueEntry] = []
        self._rng = np.random.default_rng(cfg.rng_seed)

    def enqueue(self, arrival: VehicleArrival) -> QueueEntry:
        arrival.validate(self.cfg)
        if any(e.arrival.id == arrival.id for e in self.entries):
            raise ConfigError(f"duplicate CAV id {arrival.id}")
        pos = len(self.entries)
        while pos > 0:
            prev = self.entries[pos - 1]
            dt = arrival.t0 - prev.arrival.t0
            if dt < -TIE_EPS:
                pos -= 1
            elif abs(dt) <= TIE_EPS:
                # simultaneous entry: Assumption order is immaterial; draw once
                if self._rng.random() < 0.5:
                    pos -= 1
                else:
                    break
            else:
                break
        entry = QueueEntry(index=0, arrival=arrival)
        self.entries.insert(pos, entry)
        for i, e in enumerate(self.entries):
            e.index = i + 1
        return entry

    def _group(self, j: VehicleArrival, i: VehicleArrival) -> str:
        if j.road == i.road:
            return "lane" if j.lane == i.lane else "adjacent"
        if self.cfg.conflict.conflicts((j.road, j.movement), (i.road, i.movement)):
            return "conflict"
        return "clear"

    def view(self, entry: QueueEntry) -> QueueView:
        qv = QueueView(index=entry.index)
        for other in self.entries:
            if other.index >= entry.index:
                continue
            group = self._group(other.arrival, entry.arrival)
            qv.groups[other.arrival.id] = group
            if group == "lane":
                if qv.k is None or other.index > qv.k.index:
                    qv.k = other
            elif group == "conflict":
                if qv.c is None or other.index > qv.c.index:
                    qv.c = other
            else:
                if qv.o is None or other.index > qv.o.index:
                    qv.o = other
        return qv

    def attach(self, entry: QueueEntry, trajectory: PiecewiseTrajectory):
        entry.trajectory = trajectory

    def solved(self):
        return [e for e in self.entries if e.trajectory is not None]


def check_guarantees(coord: Coordinator, step: float = 1e-3) -> GuaranteeReport:
    """Audits every solved pair for rear-end, merging-zone, and order safety.

    Rear-end gaps are sampled at ``step`` plus all arc breakpoints and
    extrema; merging-zone entry must wait for a conflicting predecessor's
    exit; exit order must follow the queue.
    """
    cfg = coord.cfg
    report = GuaranteeReport(ok=True)
    solved = coord.solved()
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

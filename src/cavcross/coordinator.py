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

from .model import (GRID_BLOCK, ConfigError, PiecewiseTrajectory, ScenarioConfig,
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
        self._ids: set = set()

    def enqueue(self, arrival: VehicleArrival) -> QueueEntry:
        arrival.validate(self.cfg)
        if arrival.id in self._ids:
            raise ConfigError(f"duplicate CAV id {arrival.id}")
        self._ids.add(arrival.id)
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


_BLOCKS = 64   # index blocks per follower grid in the rear-end bound


@dataclass
class _Passed:
    """A solved CAV as the CAVs queued after it see it."""

    entry: QueueEntry
    v_low: float         # lowest speed: arc ends and v extrema
    drop: float          # total downward jump of p at its arc junctions
    p_exit: float        # p(tf); held with speed vf once it has left

    @classmethod
    def of(cls, entry: QueueEntry) -> "_Passed":
        arcs = entry.trajectory.arcs
        v_low = min([min(arc.v(arc.t_start), arc.v(arc.t_end)) for arc in arcs]
                    + [v for arc in arcs for _, v in arc.v_extrema()])
        drop = sum(max(0.0, a.p(b.t_start) - b.p(b.t_start))
                   for a, b in zip(arcs, arcs[1:]))
        return cls(entry, float(v_low), float(drop),
                   entry.trajectory.eval(entry.trajectory.tf)[0])

    @property
    def traj(self) -> PiecewiseTrajectory:
        return self.entry.trajectory

    @property
    def cav(self) -> int:
        return self.entry.arrival.id


def _samples(cfg: ScenarioConfig, traj: PiecewiseTrajectory, ts) -> list:
    """(p, phi*v) of ``traj`` on ``ts``, one pair per ``GRID_BLOCK`` times."""
    out = []
    for at in range(0, ts.size, GRID_BLOCK):
        p, v, _ = traj.sample(ts[at:at + GRID_BLOCK])
        out.append((p, cfg.phi * v))
    return out


def _worst_gap(cfg: ScenarioConfig, ts, samples, t_hi, lead: PiecewiseTrajectory):
    """(t, gap) of the most negative rear-end gap behind ``lead`` at ``ts``,
    the follower's ``_samples`` there, if below -1e-6, else None; the first
    worst time is kept."""
    lead = lead.extended(t_hi + 1e-9)
    worst, t_worst = np.inf, None
    for at, (p, phi_v) in zip(range(0, ts.size, GRID_BLOCK), samples):
        seg = ts[at:at + GRID_BLOCK]
        gap = lead.sample(seg)[0] - p - phi_v - cfg.delta0
        i = int(np.argmin(gap))
        if gap[i] < worst:
            worst, t_worst = gap[i], seg[i]
    if worst < -1e-6:
        return t_worst, worst
    return None


def _block_need(cfg: ScenarioConfig, ts, samples):
    """(first time, largest ``p + phi*v + delta0``) of each of the
    ``_BLOCKS`` index blocks of ``ts``, from the follower's ``_samples``."""
    size = -(-ts.size // _BLOCKS)
    starts = np.arange(0, ts.size, size)
    need = np.full(starts.size, -np.inf)
    for at, (p, phi_v) in zip(range(0, ts.size, GRID_BLOCK), samples):
        # blocks lo..hi-1 overlap the slice, the first maybe begun in the last one
        lo, hi = at // size, -(-(at + p.size) // size)
        part = np.maximum.reduceat(p + phi_v + cfg.delta0, np.maximum(starts[lo:hi] - at, 0))
        need[lo:hi] = np.maximum(need[lo:hi], part)
    return ts[starts], need


def _cleared(leads: list, t0: float, tf: float, t_b, need) -> set:
    """Ids of the predecessors a monotone bound proves the follower's gap for.

    ``t_b`` holds the first time of each block of the follower's grid on
    ``[t0, tf]`` and ``need`` its largest ``p + phi*v + delta0`` per block.
    """
    out = set()
    gone = [j for j in leads if j.traj.tf <= t0]
    if gone:
        tf_j, p_j, vf_j = (np.array(col) for col in
                           zip(*[(j.traj.tf, j.p_exit, j.traj.vf) for j in gone]))
        held = p_j[:, None] + vf_j[:, None] * (t_b - tf_j[:, None])
        ok = (vf_j >= 0.0) & np.all(held >= need, axis=1)
        out.update(j.cav for j, c in zip(gone, ok) if c)
    for j in leads:
        if (j.traj.tf > t0 and j.v_low >= 0.0 and np.all(
                j.traj.extended(tf + 1e-9).sample(t_b)[0] - j.drop >= need)):
            out.add(j.cav)
    return out


def _rear_end(cfg: ScenarioConfig, me: _Passed, leads: list, step: float) -> dict:
    """Rear-end violations of ``me`` behind each same-lane predecessor, by id."""
    traj = me.traj
    t0, tf = traj.t0, traj.tf
    found = {}
    for j in leads:
        if j.traj.t0 > t0:
            # a TIE_EPS tie queued j first: the pair keeps its own grid
            ts = traj.dense_times(step, j.traj.t0)
            found[j.cav] = _worst_gap(cfg, ts, _samples(cfg, traj, ts), tf, j.traj)
    shared = [j for j in leads if j.traj.t0 <= t0]
    if shared:
        ts = traj.dense_times(step, t0)
        samples = _samples(cfg, traj, ts)
        cleared = _cleared(shared, t0, tf, *_block_need(cfg, ts, samples))
        for j in shared:
            if j.cav not in cleared:
                found[j.cav] = _worst_gap(cfg, ts, samples, tf, j.traj)
    return {k: hit for k, hit in found.items() if hit is not None}


def check_guarantees(coord: Coordinator, step: float = 1e-3) -> GuaranteeReport:
    """Audits every solved pair for rear-end, merging-zone, and order safety.

    For each solved CAV i and each earlier solved CAV j, in queue order:

    * order: i must not exit before j (``tf_i >= tf_j - 1e-9``);
    * rear-end, j on i's road and lane: the gap ``P_j - p_i - phi*v_i -
      delta0`` is sampled over ``[max(t0_i, t0_j), tf_i]`` at ``step`` plus
      i's arc breakpoints and v and u extrema, where ``P_j`` is j's position
      held at its exit speed once it has left; a sampled gap below -1e-6 is
      a violation at the worst sample;
    * lateral, j on a conflicting road: i's merging-zone entry
      ``p_i = L`` must not come before j's exit.

    The report lists the violations in that order and is the same as
    checking every pair this way; the work is cut three ways.

    Order and lateral are maxima: some j fails exactly when ``tf_i`` (or
    i's zone entry, found once) lies more than 1e-9 before the latest exit
    among all (or all conflicting) earlier solved CAVs. The pairs are
    enumerated only for a CAV that fails one of the three checks.

    Rear-end pairs with ``t0_j <= t0_i`` share the grid of the pair
    definition, since its lower end is ``t0_i``; anything else is a
    ``TIE_EPS`` tie and keeps its own grid. The grid, i's samples and its
    extrema are built once per CAV; i is sampled, and gaps are formed and
    reduced, ``GRID_BLOCK`` times at a time. A pair is then skipped only when a
    bound proves that no sampled gap can reach -1e-6. If j's speed is
    nowhere negative (its minimum lies at an arc end or a v extremum, and
    the exit speed holds afterwards), ``P_j`` is nondecreasing apart from
    the junction jumps ``drop_j`` that trajectories tolerate. Cut i's grid
    into ``_BLOCKS`` index blocks and let ``H_b`` be the largest
    ``p_i + phi*v_i + delta0`` on block b. Then ``P_j(first time of b) -
    drop_j >= H_b`` on every block puts every sampled gap at >= 0, up to
    rounding some 1e-12 m, far inside the 1e-6 tolerance. A j that has
    left by ``t0_i`` is affine over i's window, so one array expression
    bounds all of them at once. A pair the bound does not clear runs the
    sampled check itself on the shared grid and i's samples, so the
    verdicts and the reported (t, margin) are the ones the all-pairs check
    gives.
    """
    cfg = coord.cfg
    report = GuaranteeReport(ok=True)
    meets = {}     # (zone of j, zone of i) -> conflicts, asked once per pair of zones
    exits = {}     # zone of every earlier CAV -> latest solved exit, None if none
    lanes = {}     # (road, lane) -> earlier solved CAVs, in queue order
    passed = []    # every earlier solved CAV, in queue order
    latest = -np.inf
    for entry in coord.entries:
        arr, traj = entry.arrival, entry.trajectory
        zone = (arr.road, arr.movement)
        if traj is None:
            # its zone is still classified against later CAVs, as the
            # all-pairs view does, so a strict conflict map raises the same
            exits.setdefault(zone, None)
            continue
        rivals = []
        for other in exits:
            if other[0] == arr.road:
                continue
            if (other, zone) not in meets:
                meets[other, zone] = cfg.conflict.conflicts(other, zone)
            if meets[other, zone] and exits[other] is not None:
                rivals.append(exits[other])
        t_m = traj.position_root(cfg.L) if rivals else None
        me = _Passed.of(entry)
        lane = (arr.road, arr.lane)
        rear = _rear_end(cfg, me, lanes.get(lane, []), step)
        if (traj.tf < latest - 1e-9 or rear
                or (rivals and t_m < max(rivals) - 1e-9)):
            for j in passed:
                ja, tf_j = j.entry.arrival, j.traj.tf
                if traj.tf < tf_j - 1e-9:
                    report.add("order", arr.id, ja.id, traj.tf, tf_j - traj.tf)
                if ja.road == arr.road:
                    if ja.lane == arr.lane and ja.id in rear:
                        report.add("rear_end", arr.id, ja.id, *rear[ja.id])
                elif meets[(ja.road, ja.movement), zone] and t_m < tf_j - 1e-9:
                    report.add("lateral", arr.id, ja.id, t_m, tf_j - t_m)
        passed.append(me)
        lanes.setdefault(lane, []).append(me)
        latest = max(latest, traj.tf)
        exits[zone] = traj.tf if exits.get(zone) is None else max(exits[zone], traj.tf)
    return report

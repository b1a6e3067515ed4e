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

from .model import (GAP_MARGIN, GRID_BLOCK, ConfigError, PiecewiseTrajectory,
                    ScenarioConfig, VehicleArrival, gap_pieces, gap_range, gap_terms,
                    held_terms, worst_lag)

TIE_EPS = 1e-9
LAG_FLOOR = 1e-6 - GAP_MARGIN   # a lag below it holds no sampled gap below -1e-6


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


@dataclass
class _Passed:
    """A solved CAV as the CAVs queued after it see it: ``gap_terms`` of its
    p + phi*v + delta0 as a follower, and ``held_terms`` as a leader."""

    entry: QueueEntry
    own: tuple       # gap_terms of its arcs as a follower
    starts: list     # starts of its arcs after the first, then tf
    held: tuple      # gap_terms of its arcs and exit hold as a leader

    @classmethod
    def of(cls, entry: QueueEntry, cfg: ScenarioConfig) -> "_Passed":
        traj = entry.trajectory
        return cls(entry, gap_terms(traj.arcs, cfg.phi, cfg.phi, cfg.delta0),
                   *held_terms(traj, cfg.phi))

    @property
    def traj(self) -> PiecewiseTrajectory:
        return self.entry.trajectory

    @property
    def cav(self) -> int:
        return self.entry.arrival.id


def _worst_gap(cfg: ScenarioConfig, ts, traj: PiecewiseTrajectory, lead: PiecewiseTrajectory):
    """(t, gap) of the most negative rear-end gap of ``traj`` behind ``lead``
    (already held out to past ``traj``'s exit) at ``ts``, if below -1e-6,
    else None; the first worst time is kept."""
    worst, t_worst = np.inf, None
    for at in range(0, ts.size, GRID_BLOCK):
        seg = ts[at:at + GRID_BLOCK]
        p, v, _ = traj.sample(seg)
        gap = lead.sample(seg)[0] - p - cfg.phi * v - cfg.delta0
        i = int(np.argmin(gap))
        if gap[i] < worst:
            worst, t_worst = gap[i], seg[i]
    if worst < -1e-6:
        return t_worst, worst
    return None


def _open_pieces(cfg: ScenarioConfig, me: _Passed, leads: list, t_lo: float) -> set:
    """Ids of the predecessors in ``leads`` whose closed-form gap bound does
    not reach -1e-6 + GAP_MARGIN on every ``gap_pieces`` window of
    [t_lo, tf_i]."""
    CF, QF, okF = me.own
    f_starts, t_hi = me.starts[:-1], me.traj.tf
    blocks = []   # (ta, tb, C, Q, ok) of the rows of some predecessors
    owners = []   # (predecessor, number of rows), in row order
    gone = [j for j in leads if j.traj.tf <= t_lo]
    if gone:
        # i's whole window lies on their exit holds, affine in t: every
        # hold against every piece of i, in one array expression
        ta, tb, fi, _ = gap_pieces(t_lo, t_hi, f_starts, ())
        n = len(gone)
        hold = np.array([j.held[0][-1] for j in gone])
        blocks.append((ta * n, tb * n, (hold[:, None, :] - CF[fi][None]).reshape(-1, 4),
                       np.tile(-QF[fi], (n, 1)), np.tile(okF[fi], n)))
        owners += [(j, len(ta)) for j in gone]
    zone = [j for j in leads if j.traj.tf > t_lo]
    if zone:
        ta, tb, fi, li, at = [], [], [], [], 0
        for j in zone:
            a, b, f, l = gap_pieces(t_lo, t_hi, f_starts, j.starts)
            ta += a
            tb += b
            fi += f
            li += [k + at for k in l]
            at += len(j.starts) + 1
            owners.append((j, len(a)))
        CL, QL, okL = (np.concatenate(col) for col in zip(*(j.held for j in zone)))
        blocks.append((ta, tb, CL[li] - CF[fi], QL[li] - QF[fi], okL[li] & okF[fi]))
    if not owners:
        return set()
    ta, tb = (sum(col, []) for col in list(zip(*blocks))[:2])
    C, Q, ok = (np.concatenate(col) for col in list(zip(*blocks))[2:])
    open_ = gap_range(C, Q, ok, np.array(ta), np.array(tb), cfg.phi)[0] < -1e-6 + GAP_MARGIN
    out, at = set(), 0
    for j, n in owners:
        if open_[at:at + n].any():
            out.add(j.cav)
        at += n
    return out


def _rear_end(cfg: ScenarioConfig, me: _Passed, leads: list, step: float) -> dict:
    """Rear-end violations of ``me`` behind each same-lane predecessor, by
    id: the (t, gap) of ``_worst_gap``.

    Predecessors that entered no later than i share i's grid from t0_i; one
    that a TIE_EPS tie queued first though it entered after i keeps its own
    grid from t0_j. Each predecessor ``_open_pieces`` leaves open is searched
    by ``worst_lag`` down to LAG_FLOOR, and only one whose lag reaches it
    goes through ``_worst_gap``.
    """
    traj, t0 = me.traj, me.traj.t0
    groups = [([j], j.traj.t0) for j in leads if j.traj.t0 > t0]
    groups.append(([j for j in leads if j.traj.t0 <= t0], t0))
    found = {}
    for group, t_lo in groups:
        opened = _open_pieces(cfg, me, group, t_lo)
        if not opened:
            continue
        ts = traj.dense_times(step, t_lo)
        for j in group:
            if (j.cav in opened and worst_lag(traj, j.traj, cfg.phi, cfg.delta0, ts,
                                              LAG_FLOOR)[0] >= LAG_FLOOR):
                worst = _worst_gap(cfg, ts, traj, j.traj.extended(traj.tf + 1e-9))
                if worst is not None:
                    found[j.cav] = worst
    return found


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
    ``TIE_EPS`` tie and keeps its own grid. The grid is not sampled where
    a closed-form bound decides: ``model.gap_bounds`` bounds the gap on
    every piece of the window between the breakpoints of i and of j (j's
    exit, where its hold begins, included), and a piece whose lower bound
    is at least -1e-6 + GAP_MARGIN holds no sampled gap below -1e-6. The
    bound needs no monotone ``P_j``. The arcs' terms are formed once per
    CAV, and every j that has left by the window's start, affine in t over
    all of it, is bounded against every piece of i in one array
    expression. A pair the bound leaves open is searched by
    ``model.worst_lag``, the audit's branch and bound, with the floor
    ``LAG_FLOOR`` = 1e-6 - GAP_MARGIN: it samples only runs whose bound
    can reach the floor, and a pair whose grid maximum of the lag reaches
    it goes through the sampled check of its whole grid. So the verdicts
    and the reported (t, margin) are the ones the all-pairs check gives.
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
        me = _Passed.of(entry, cfg)
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

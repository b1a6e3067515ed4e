"""Result checks made apart from the program.

The scenario checks read what ``write_outputs`` wrote (``trajectories.csv``
and ``summary.csv``) and judge it against the benchmark's own copy of the
inputs and limits: entry state, exit at ``L + S``, speed and control caps,
``v`` and ``p`` rebuilt by integrating the sampled ``u``, ``J`` rebuilt by
quadrature, exits in queue order, the rear-end gap behind the same-lane
predecessor and merging-zone entry after every conflicting predecessor has
left. The oracle checks roll the oracle's controls out with their own
integrator. No function here calls into cavcross except to sample a
trajectory the program returned.

Every check returns a list of failure strings, each starting with the
check's name; an empty list means the result passed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Tolerances, each well above the CSV rounding (6 decimals for t, p, v and 9
# for u) and the quadrature error on gap-riding arcs, and well below the
# faults the benchmark's tests inject.
TOL_T = 2e-6          # s: times read back from the tables
TOL_STATE = 2e-6      # m and m/s: entry and exit state
TOL_CAP_V = 2e-6      # m/s above or below the speed caps
TOL_CAP_U = 2e-8      # m/s^2 beyond the control caps
TOL_V_REBUILT = 1e-3  # m/s: speed rebuilt from u vs the table
TOL_P_REBUILT = 3e-2  # m: position rebuilt from u vs the table
TOL_J_REL = 2e-5      # relative: J rebuilt by quadrature vs the summary
TOL_GAP = 1e-4        # m: rear-end gap
TOL_MERGE = 1e-5      # s: merging-zone entry vs conflicting exit
ORACLE_MARGIN = 1.005  # closed-form cost may exceed the oracle's by 0.5%
ORACLE_VIOLATION = 0.05  # the oracle's own feasibility threshold (m, m/s)

OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}


@dataclass(frozen=True)
class Limits:
    """The scenario constants the checks judge against (ScenarioConfig defaults)."""

    L: float = 370.0
    S: float = 30.0
    v_min: float = 0.0
    v_max: float = 13.5
    u_min: float = -3.0
    u_max: float = 3.0
    gamma: float = 0.1
    phi: float = 1.0
    delta0: float = 0.0

    @classmethod
    def of(cls, config: dict) -> "Limits":
        known = {k: float(v) for k, v in config.items() if k in cls.__dataclass_fields__}
        return cls(**known)

    @property
    def exit_distance(self) -> float:
        return self.L + self.S


@dataclass
class Track:
    """One vehicle's rows of trajectories.csv."""

    t: np.ndarray
    p: np.ndarray
    v: np.ndarray
    u: np.ndarray


# ---------------------------------------------------------------------------
# reading the tables
# ---------------------------------------------------------------------------

def read_tracks(path: str) -> dict:
    rows = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,p,v,u,arc_kind,cav_id":
            raise ValueError(f"unexpected trajectories.csv header {header!r}")
        for line in fh:
            t, p, v, u, _kind, cav = line.rstrip("\n").split(",")
            rows.setdefault(int(cav), []).append((float(t), float(p), float(v), float(u)))
    out = {}
    for cav, vals in rows.items():
        a = np.array(vals)
        out[cav] = Track(t=a[:, 0], p=a[:, 1], v=a[:, 2], u=a[:, 3])
    return out


def read_summary(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        cols = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            rows.append(dict(zip(cols, line.rstrip("\n").split(","))))
    return rows


# ---------------------------------------------------------------------------
# quadrature on the sampled control
# ---------------------------------------------------------------------------

def rebuild(t, u, v0):
    """Speed and position from the sampled control, and the energy integral.

    Between samples ``u`` is taken as linear, which is exact on cubic,
    saturated and cruise arcs: ``v`` by the trapezoid rule, ``p`` by the
    trapezoid rule with its cubic end correction, energy by the exact
    integral of a linear function squared.
    """
    h = np.diff(t)
    du = np.diff(u)
    v = v0 + np.concatenate([[0.0], np.cumsum(0.5 * h * (u[:-1] + u[1:]))])
    p = np.concatenate([[0.0], np.cumsum(0.5 * h * (v[:-1] + v[1:]) - h * h * du / 12.0)])
    energy = float(np.sum(h * (u[:-1] ** 2 + u[:-1] * u[1:] + u[1:] ** 2) / 6.0))
    return v, p, energy


def hermite(tr: Track, query):
    """Position at ``query`` by cubic Hermite interpolation of (p, v) samples.

    Exact on cubic arcs. Beyond the last sample the vehicle holds its exit
    speed, as the program assumes for a leader that has left.
    """
    keep = np.concatenate([[True], np.diff(tr.t) > 0.0])
    t, p, v = tr.t[keep], tr.p[keep], tr.v[keep]
    q = np.asarray(query, dtype=float)
    j = np.clip(np.searchsorted(t, q, side="right") - 1, 0, t.size - 2)
    h = t[j + 1] - t[j]
    s = np.clip((q - t[j]) / h, 0.0, 1.0)
    s2, s3 = s * s, s * s * s
    out = ((2 * s3 - 3 * s2 + 1) * p[j] + (s3 - 2 * s2 + s) * h * v[j]
           + (-2 * s3 + 3 * s2) * p[j + 1] + (s3 - s2) * h * v[j + 1])
    past = q > t[-1]
    out[past] = p[-1] + v[-1] * (q[past] - t[-1])
    return out


def crossing_time(tr: Track, position: float) -> float:
    """First time the Hermite interpolant reaches ``position``."""
    k = int(np.argmax(tr.p >= position))
    if tr.p[k] < position:
        return float("inf")
    if k == 0:
        return float(tr.t[0])
    lo, hi = float(tr.t[k - 1]), float(tr.t[k])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hermite(tr, [mid])[0] < position:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# per-vehicle and per-scenario checks
# ---------------------------------------------------------------------------

def check_vehicle(arrival: dict, tr: Track, row: dict, lim: Limits) -> list:
    cav = arrival["id"]
    bad = []

    def fail(name, detail):
        bad.append(f"{name}: CAV {cav} {detail}")

    t0, v0 = float(arrival["t0"]), float(arrival["v0"])
    if abs(tr.t[0] - t0) > TOL_T or abs(tr.p[0]) > TOL_STATE or abs(tr.v[0] - v0) > TOL_STATE:
        fail("entry state", f"starts at (t={tr.t[0]}, p={tr.p[0]}, v={tr.v[0]}), "
                            f"entered at (t={t0}, p=0, v={v0})")
    if np.any(np.diff(tr.t) < 0.0):
        fail("sample order", "trajectory times go backwards")
    tf = float(row["tf"])
    if abs(tr.t[-1] - tf) > TOL_T:
        fail("exit time", f"last sample at t={tr.t[-1]}, summary tf={tf}")
    if abs(tr.p[-1] - lim.exit_distance) > TOL_STATE:
        fail("exit position", f"ends at p={tr.p[-1]}, exit is {lim.exit_distance}")
    if tr.v.max() > lim.v_max + TOL_CAP_V or tr.v.min() < lim.v_min - TOL_CAP_V:
        fail("speed cap", f"v in [{tr.v.min()}, {tr.v.max()}]")
    u_lo = float(arrival.get("u_min", lim.u_min))
    u_hi = float(arrival.get("u_max", lim.u_max))
    if tr.u.max() > u_hi + TOL_CAP_U or tr.u.min() < u_lo - TOL_CAP_U:
        fail("control cap", f"u in [{tr.u.min()}, {tr.u.max()}]")

    v_rb, p_rb, energy = rebuild(tr.t, tr.u, v0)
    dv = float(np.max(np.abs(v_rb - tr.v)))
    if dv > TOL_V_REBUILT:
        fail("speed rebuilt from u", f"differs by {dv:.3e} m/s")
    dp = float(np.max(np.abs(p_rb - tr.p)))
    if dp > TOL_P_REBUILT:
        fail("position rebuilt from u", f"differs by {dp:.3e} m")
    travel = tf - t0
    J = lim.gamma * travel + energy
    J_out = float(row["J"])
    if abs(J - J_out) > TOL_J_REL * max(1.0, abs(J)):
        fail("cost rebuilt by quadrature", f"J={J_out} in the summary, {J:.6f} rebuilt")
    if abs(float(row["travel_time"]) - travel) > 2 * TOL_T:
        fail("travel time", f"{row['travel_time']} vs tf - t0 = {travel}")
    return bad


def conflicts(road_a: str, road_b: str) -> bool:
    """Default geometry: perpendicular approaches share the merging zone."""
    return road_a != road_b and OPPOSITE[road_a] != road_b


def check_scenario(scenario: dict, outdir: str, accepted: bool) -> tuple:
    """Judge one scenario's written outputs; returns (failures, vehicles solved).

    ``accepted`` is the program's verdict: when it is true every arrival must
    have a trajectory. A declined scenario is judged on the vehicles that
    were solved before the decline.
    """
    lim = Limits.of(scenario["config"])
    arrivals = {a["id"]: a for a in scenario["arrivals"]}
    tracks = read_tracks(os.path.join(outdir, "trajectories.csv"))
    rows = read_summary(os.path.join(outdir, "summary.csv"))
    bad = []

    # the queue is first-in-first-out by entry time
    ids = [int(r["cav_id"]) for r in rows]
    queue = sorted(arrivals.values(), key=lambda a: a["t0"])
    if len(set(ids)) != len(ids) or any(i not in arrivals for i in ids):
        bad.append(f"queue order: summary lists {ids}")
        return bad, 0
    if [arrivals[i]["t0"] for i in ids] != [a["t0"] for a in queue[:len(ids)]]:
        bad.append(f"queue order: summary order {ids} is not entry order")

    solved = [r for r in rows if r["tf"] != ""]
    if accepted and len(solved) != len(arrivals):
        bad.append(f"accepted scenario: {len(solved)} of {len(arrivals)} CAVs solved")
    if set(tracks) != {int(r["cav_id"]) for r in solved}:
        bad.append("tables: trajectories.csv and summary.csv list different CAVs")
        return bad, len(solved)

    for r in solved:
        cav = int(r["cav_id"])
        bad.extend(check_vehicle(arrivals[cav], tracks[cav], r, lim))

    latest_exit = -np.inf
    lane_last = {}
    done = []        # (road, exit time) of the solved predecessors
    for r in solved:
        cav = int(r["cav_id"])
        arr = arrivals[cav]
        tr = tracks[cav]
        tf = float(tr.t[-1])
        if tf < latest_exit - TOL_T:
            bad.append(f"exit order: CAV {cav} exits at {tf} before a "
                       f"predecessor's exit at {latest_exit}")
        latest_exit = max(latest_exit, tf)

        lane = (arr["road"], arr.get("lane", 0))
        if lane in lane_last:
            lead = tracks[lane_last[lane]]
            gap = hermite(lead, tr.t) - tr.p - lim.phi * tr.v - lim.delta0
            k = int(np.argmin(gap))
            if gap[k] < -TOL_GAP:
                bad.append(f"rear-end gap: CAV {cav} behind CAV {lane_last[lane]} "
                           f"short by {-gap[k]:.3e} m at t={tr.t[k]}")
        lane_last[lane] = cav

        rival = [tf_j for road_j, tf_j in done if conflicts(road_j, arr["road"])]
        if rival:
            t_in = crossing_time(tr, lim.L)
            if t_in < max(rival) - TOL_MERGE:
                bad.append(f"merging zone: CAV {cav} enters at {t_in:.6f} before a "
                           f"conflicting predecessor exits at {max(rival):.6f}")
        done.append((arr["road"], tf))
    return bad, len(solved)


# ---------------------------------------------------------------------------
# oracle instances
# ---------------------------------------------------------------------------

def closed_form_cost(traj, lim: Limits, step: float = 2e-3) -> float:
    """J of a closed-form trajectory by quadrature on its sampled control."""
    t0, tf = traj.t0, traj.tf
    n = max(int(np.ceil((tf - t0) / step)), 2)
    ts = np.unique(np.concatenate([np.linspace(t0, tf, n + 1),
                                   [a.t_start for a in traj.arcs]]))
    u = traj.sample(ts)[2]
    _, _, energy = rebuild(ts, u, 0.0)
    return lim.gamma * (tf - t0) + energy


def check_closed_form(inst: dict, traj, closed_cost: float, lim: Limits) -> list:
    """Entry state, exit position and cost of one closed-form solution."""
    name = f"{inst['family']}#{inst['i']}"
    bad = []
    t0, v0 = float(inst["t0"]), float(inst["v0"])
    p_start, v_start, _ = traj.eval(traj.t0)
    p_end = traj.eval(traj.tf)[0]
    if abs(traj.t0 - t0) > 1e-12 or abs(p_start) > TOL_STATE or abs(v_start - v0) > TOL_STATE:
        bad.append(f"entry state: {name} starts at ({traj.t0}, {p_start}, {v_start})")
    if abs(p_end - lim.exit_distance) > TOL_STATE:
        bad.append(f"exit position: {name} ends at p={p_end}")
    J = closed_form_cost(traj, lim)
    if abs(J - closed_cost) > TOL_J_REL * max(1.0, abs(J)):
        bad.append(f"cost rebuilt by quadrature: {name} J={closed_cost} vs {J}")
    return bad


def check_oracle(inst: dict, traj, closed_cost: float, res, lim: Limits, *,
                 leader=None, lateral_tm=None, u_limits=None) -> list:
    """The closed form checked; the oracle rolled out, feasible and not beaten by it."""
    name = f"{inst['family']}#{inst['i']}"
    bad = check_closed_form(inst, traj, closed_cost, lim)
    t0, v0 = float(inst["t0"]), float(inst["v0"])
    u = np.asarray(res.controls, dtype=float)
    n = u.size
    h = (res.tf - t0) / n
    v = v0 + np.concatenate([[0.0], np.cumsum(u * h)])
    p = np.concatenate([[0.0], np.cumsum(v[:-1] * h + 0.5 * u * h * h)])
    cost = lim.gamma * n * h + float(np.sum(0.5 * u * u) * h)
    if abs(cost - res.cost) > 1e-9 * max(1.0, abs(cost)):
        bad.append(f"oracle cost: {name} reports {res.cost}, its controls cost {cost}")
    lo, hi = u_limits if u_limits is not None else (lim.u_min, lim.u_max)
    worst = max(abs(p[-1] - lim.exit_distance),
                float(np.max(v - lim.v_max, initial=0.0)),
                float(np.max(lim.v_min - v, initial=0.0)))
    if u.max() > hi + 1e-12 or u.min() < lo - 1e-12:
        worst = np.inf
    if leader is not None:
        grid = t0 + h * np.arange(n + 1)
        lead_p = leader.extended(res.tf + h).sample(np.maximum(grid, leader.t0))[0]
        worst = max(worst, float(np.max(p + lim.phi * v + lim.delta0 - lead_p)))
    if lateral_tm is not None and lateral_tm > t0:
        k = min(int(round((lateral_tm - t0) / h)), n)
        worst = max(worst, float(p[k]) - lim.L)
    if not worst < ORACLE_VIOLATION:
        bad.append(f"oracle feasibility: {name} violates a constraint by {worst:.3e}")
    if closed_cost > cost * ORACLE_MARGIN:
        bad.append(f"oracle bound: {name} closed form {closed_cost:.6f} > "
                   f"oracle {cost:.6f} x {ORACLE_MARGIN}")
    return bad

"""Scenario files, queue-ordered multi-CAV simulation, and output tables.

A scenario is a JSON object with four top-level keys::

    {"schema_version": 1,
     "config":   {... ScenarioConfig fields, plus optional "conflict_pairs"},
     "arrivals": [{... VehicleArrival fields} ...],
     "run":      {"sample_step": 0.05, "oracle": false, "seed": 0}}

Unknown keys anywhere are rejected. Arrivals are sorted by entry time on
load; ties keep file order until the coordinator's seeded draw settles them.
``run_simulation`` solves the queue front to back, audits every result, and
returns everything the writers need for ``trajectories.csv``,
``summary.csv``, and ``audit.txt``.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .coordinator import Coordinator, GuaranteeReport, check_guarantees
from .model import (Arc, ConfigError, ConflictMap, DomainError,
                    PiecewiseTrajectory, ScenarioConfig, VehicleArrival)
from .solver import InfeasibleProblem, SolveReport, SolverError, plan
from .verifier import AuditReport, OracleResult, audit, transcription_oracle

_TOP_KEYS = {"schema_version", "config", "arrivals", "run"}
_CONFIG_KEYS = ({f.name for f in dataclasses.fields(ScenarioConfig)}
                - {"conflict"}) | {"conflict_pairs"}
_ARRIVAL_KEYS = {f.name for f in dataclasses.fields(VehicleArrival)}
_RUN_KEYS = {"sample_step", "oracle", "seed"}


@dataclass
class RunSettings:
    sample_step: float = 0.05
    oracle: bool = False
    seed: int = 0


@dataclass
class Scenario:
    config: ScenarioConfig
    arrivals: list
    run: RunSettings


def _reject_unknown(block, allowed, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} block must be an object")
    extra = set(block) - allowed
    if extra:
        raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(extra))}")


def load_scenario(source) -> Scenario:
    """Parse a scenario dict or JSON file path into validated objects."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"scenario is not valid JSON: {exc}") from None
    _reject_unknown(data, _TOP_KEYS, "top-level")
    if data.get("schema_version") != 1:
        raise ConfigError("schema_version must be present and equal to 1")

    raw_cfg = data.get("config", {})
    _reject_unknown(raw_cfg, _CONFIG_KEYS, "config")
    cfg_kwargs = dict(raw_cfg)
    pair_list = cfg_kwargs.pop("conflict_pairs", None)
    if pair_list is not None:
        try:
            pairs = [((str(a[0]), str(a[1])), (str(b[0]), str(b[1])))
                     for a, b in pair_list]
        except (TypeError, IndexError):
            raise ConfigError(
                "conflict_pairs must be pairs of [road, movement] pairs") from None
        cfg_kwargs["conflict"] = ConflictMap.from_pairs(pairs)
    try:
        cfg = ScenarioConfig(**cfg_kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config block: {exc}") from None

    raw_arrivals = data.get("arrivals", [])
    if not isinstance(raw_arrivals, list) or not raw_arrivals:
        raise ConfigError("arrivals must be a non-empty list")
    arrivals = []
    for raw in raw_arrivals:
        _reject_unknown(raw, _ARRIVAL_KEYS, "arrival")
        try:
            arr = VehicleArrival(**raw)
        except TypeError as exc:
            raise ConfigError(f"bad arrival entry: {exc}") from None
        arr.validate(cfg)
        arrivals.append(arr)
    ids = [a.id for a in arrivals]
    if len(set(ids)) != len(ids):
        raise ConfigError("arrival ids must be unique")
    arrivals.sort(key=lambda a: a.t0)

    raw_run = data.get("run", {})
    _reject_unknown(raw_run, _RUN_KEYS, "run")
    try:
        run = RunSettings(**raw_run)
    except TypeError as exc:
        raise ConfigError(f"bad run block: {exc}") from None
    if run.sample_step <= 0:
        raise ConfigError("sample_step must be positive")
    return Scenario(config=cfg, arrivals=arrivals, run=run)


def apply_overrides(scenario: Scenario, *, gamma=None, seed=None,
                    sample_step=None, oracle=None) -> Scenario:
    """Return a copy with command-line overrides folded in."""
    cfg = scenario.config
    if gamma is not None:
        cfg = dataclasses.replace(cfg, gamma=float(gamma))
    if seed is not None:
        cfg = dataclasses.replace(cfg, rng_seed=int(seed))
    run = RunSettings(
        sample_step=float(sample_step) if sample_step is not None else scenario.run.sample_step,
        oracle=bool(oracle) if oracle is not None else scenario.run.oracle,
        seed=int(seed) if seed is not None else scenario.run.seed,
    )
    return Scenario(config=cfg, arrivals=list(scenario.arrivals), run=run)


@dataclass
class CavRun:
    """Everything produced for one CAV: solution, audit, context."""

    arrival: VehicleArrival
    index: int
    trajectory: PiecewiseTrajectory | None = None
    report: SolveReport | None = None
    audit: AuditReport | None = None
    oracle: OracleResult | None = None
    context: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class SimResult:
    scenario: Scenario
    runs: list
    guarantees: GuaranteeReport   # over the CAVs solved, all of them or those before a decline
    exit_code: int
    failure: str | None = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def _forced_trajectory(arrival: VehicleArrival) -> PiecewiseTrajectory:
    a, b, c, d = arrival.force_profile
    arc = Arc(t_start=arrival.t0, t_end=arrival.force_tf, a=a, b=b, c=c, d=d)
    if abs(arc.v(arrival.t0) - arrival.v0) > 1e-9:
        raise ConfigError(
            f"CAV {arrival.id}: force_profile entry speed "
            f"{arc.v(arrival.t0):.6f} != v0 {arrival.v0}")
    if abs(arc.p(arrival.t0)) > 1e-9:
        raise ConfigError(
            f"CAV {arrival.id}: force_profile entry position "
            f"{arc.p(arrival.t0):.6f} != 0")
    return PiecewiseTrajectory((arc,))


def run_simulation(scenario: Scenario) -> SimResult:
    """Solve all CAVs in queue order, then audit and cross-check the set."""
    wall0 = time.perf_counter()
    cfg = scenario.config
    coord = Coordinator(cfg)
    for arr in scenario.arrivals:
        coord.enqueue(arr)

    runs = []
    failure = None
    code = 0
    for entry in coord.entries:
        arr = entry.arrival
        qv = coord.view(entry)
        leader = qv.k.trajectory if qv.k else None
        lateral_tm = qv.c.trajectory.tf if qv.c else None
        other_tf = qv.o.trajectory.tf if qv.o else None
        run = CavRun(arrival=arr, index=entry.index, context={
            "k": qv.k.arrival.id if qv.k else None,
            "c": qv.c.arrival.id if qv.c else None,
            "o": qv.o.arrival.id if qv.o else None,
        })
        runs.append(run)
        try:
            if arr.force_profile is not None:
                traj = _forced_trajectory(arr)
                rep = SolveReport(cav_id=arr.id, terminal_mode="given")
                rep.log("forced profile", tf=arr.force_tf)
            else:
                traj, rep = plan(arr, cfg, leader=leader, lateral_tm=lateral_tm,
                                 other_tf=other_tf, force_tf=arr.force_tf)
        except (InfeasibleProblem, SolverError, DomainError, ConfigError) as exc:
            rep = getattr(exc, "report", None)
            run.report = rep
            run.error = f"{type(exc).__name__}: {exc}"
            failure = f"CAV {arr.id}: {run.error}"
            code = 2
            break
        coord.attach(entry, traj)
        run.trajectory, run.report = traj, rep
        run.audit = audit(traj, cfg, leader=leader, lateral_tm=lateral_tm,
                          u_limits=arr.limits(cfg),
                          terminal_mode=rep.terminal_mode)
        if scenario.run.oracle and arr.force_profile is None:
            tf_pin = None if rep.terminal_mode == "free" else traj.tf
            run.oracle = transcription_oracle(
                arr.t0, arr.v0, cfg, tf=tf_pin, leader=leader,
                lateral_tm=lateral_tm, u_limits=arr.limits(cfg),
                seed=scenario.run.seed)

    guarantees = check_guarantees(coord)
    if code == 0:
        bad_audit = [r for r in runs if r.audit is not None and not r.audit.ok]
        if bad_audit:
            code = 2
            failure = "audit failed for CAV " + ", ".join(
                str(r.arrival.id) for r in bad_audit)
        elif not guarantees.ok:
            code = 2
            kinds = sorted({v[0] for v in guarantees.violations})
            failure = "crossing guarantees violated: " + ", ".join(kinds)
    return SimResult(scenario=scenario, runs=runs, guarantees=guarantees,
                     exit_code=code, failure=failure,
                     wall_time=time.perf_counter() - wall0)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _sample_times(traj: PiecewiseTrajectory, step: float) -> np.ndarray:
    """Times ``step`` apart from t0, less those within 1e-9 of a breakpoint,
    plus the breakpoints."""
    bp = np.unique(np.array(traj.breakpoints))
    n = int(np.floor((traj.tf - traj.t0) / step + 1e-9))
    grid = traj.t0 + step * np.arange(n + 1)
    # the nearest breakpoint is one of the two that bracket each grid time
    at = np.searchsorted(bp, grid)
    near = np.minimum(np.abs(grid - bp[np.maximum(at - 1, 0)]),
                      np.abs(grid - bp[np.minimum(at, bp.size - 1)]))
    return np.sort(np.concatenate([grid[near > 1e-9], bp]))


# Numbers are written from arrays: |x|*10^d rounded to an integer gives the
# digits of x to d decimals, the same digits an f-string prints whenever
# |x|*10^d lies off a rounding tie (its product rounds monotonically, and
# k + 0.5 is exact below 2^52). Rows with a value within _TIE of a tie, non-
# finite or too large for that are formatted by the f-string instead.
_ROWS = 4096                                   # rows formatted per block
_DECIMALS = (6, 6, 6, 9)                       # t, p, v, u
_SCALE = tuple(10.0 ** d for d in _DECIMALS)
_POW = tuple(10 ** d for d in _DECIMALS)
_TIE = 1e-6
_HUGE = 1e15
# ASCII of 000..999, and of 0..999 with leading zeros as NUL bytes (dropped);
# kept as bytes and viewed as arrays per block: numpy arrays built at import
# raised the peak memory of every process importing cavcross by 0.3 MB
_DIGITS = b"".join(b"%03d" % k for k in range(1000))
_LEAD = b"".join(b"%3d" % k for k in range(1000)).replace(b" ", b"\0")


@functools.lru_cache(maxsize=None)
def _layout(groups):
    """Byte positions of the numbers of one row with ``groups`` 3-digit
    integer groups: (template with the dots and commas, sign positions,
    positions of each integer group, of each fraction group), the groups
    least significant first and each holding its digits column by column."""
    template, signs = [], []
    ints, fracs = [[] for _ in range(groups)], [[] for _ in range(3)]

    def put(target, count):
        target.extend(range(len(template), len(template) + count))
        template.extend([0] * count)

    for col, dec in enumerate(_DECIMALS):
        put(signs, 1)
        for k in reversed(range(groups)):
            put(ints[k], 3)
        template.append(ord("."))
        for k in reversed(range(dec // 3)):
            put(fracs[k], 3)
        if col < 3:
            template.append(ord(","))
    return (np.array(template, dtype=np.uint8), np.array(signs),
            [np.array(g) for g in ints], [np.array(g) for g in fracs])


def _format_rows(x, tails, arcs) -> bytes:
    """CSV bytes of the rows (t, p, v, u) of ``x``, row i ending in ``tails[arcs[i]]``.

    Every number is formatted as its f-string would be: fixed-point digits
    into a uint8 matrix with NUL bytes as padding, which are then dropped.
    """
    rows = x.shape[0]
    digits, unpadded = (np.frombuffer(t, dtype=np.uint8).reshape(1000, 3) for t in (_DIGITS, _LEAD))
    scaled = np.abs(x) * _SCALE
    odd = ~(scaled < _HUGE)            # also NaN and inf
    scaled[odd] = 0.0
    near_tie = np.abs(scaled - np.floor(scaled) - 0.5) <= _TIE
    fallback = np.flatnonzero((odd | near_tie).any(axis=1))
    ip, fp = np.divmod(np.rint(scaled).astype(np.int64), _POW)
    groups, largest = 1, int(ip.max(initial=0))
    while largest >= 1000 ** groups:
        groups += 1
    template, signs, ints, fracs = _layout(groups)
    mat = np.empty((rows, template.size + tails.shape[1]), dtype=np.uint8)
    mat[:, :template.size] = template
    mat[:, template.size:] = tails[arcs]
    mat[:, signs] = np.signbit(x) * ord("-")
    for pos in fracs[:2]:       # 6 decimals are two groups, u's 9 three
        fp, g = np.divmod(fp, 1000)
        mat[:, pos] = np.take(digits, g, axis=0).reshape(rows, -1)
    mat[:, fracs[2]] = np.take(digits, fp[:, 3], axis=0)
    # a number's leading group is printed without leading zeros, those above it not at all
    top = sum((ip >= 1000 ** k for k in range(1, groups)), np.zeros_like(ip))
    for k, pos in enumerate(ints):
        # group k, the most significant one being all that is left of ip
        ip, g = np.divmod(ip, 1000) if k + 1 < groups else (ip, ip)
        group = np.take(unpadded, g, axis=0)
        if groups > 1:
            group = np.where((top > k)[..., None], np.take(digits, g, axis=0), group)
            group[top < k] = 0
        mat[:, pos] = group.reshape(rows, -1)
    if not fallback.size:
        return mat[mat != 0].tobytes()
    mat[fallback] = 0
    ends = np.cumsum(np.count_nonzero(mat, axis=1)).tolist()
    data = mat[mat != 0].tobytes()
    out, at = [], 0
    for i in fallback.tolist():
        out += [data[at:ends[i]], _row_fstring(x[i], tails[arcs[i]])]
        at = ends[i]
    out.append(data[at:])
    return b"".join(out)


def _row_fstring(values, tail) -> bytes:
    """One row formatted by f-strings, for the rows ``_format_rows`` cannot
    format from digits; ``tail`` is NUL-padded."""
    t, p, v, u = values.tolist()
    return f"{t:.6f},{p:.6f},{v:.6f},{u:.9f}".encode() + tail.tobytes().rstrip(b"\0")


def write_trajectories(result: SimResult, path: str):
    """One row per sample time; ``arc_kind`` is the arc in force at t.

    Each trajectory is sampled once and formatted ``_ROWS`` rows at a time
    by ``_format_rows``; the bytes are those of one f-string per row.
    """
    step = result.scenario.run.sample_step
    with open(path, "wb") as fh:
        fh.write(b"t,p,v,u,arc_kind,cav_id\n")
        for run in result.runs:
            traj = run.trajectory
            if traj is None:
                continue
            ts = _sample_times(traj, step)
            x = np.stack((ts, *traj.sample(ts)), axis=1)
            ends = [f",{arc.kind},{run.arrival.id}\n".encode() for arc in traj.arcs]
            tails = np.zeros((len(ends), max(map(len, ends))), dtype=np.uint8)
            for row, end in zip(tails, ends):
                row[:len(end)] = np.frombuffer(end, dtype=np.uint8)
            arcs = traj.arc_indices(ts)
            for lo in range(0, ts.size, _ROWS):
                fh.write(_format_rows(x[lo:lo + _ROWS], tails, arcs[lo:lo + _ROWS]))


def write_summary(result: SimResult, path: str):
    gamma = result.scenario.config.gamma
    cols = ("cav_id,road,lane,t0,v0,tf,travel_time,energy,J,"
            "active,binding,terminal_mode,oracle_J,oracle_gap_pct")
    lines = [cols]
    for run in result.runs:
        arr = run.arrival
        if run.trajectory is None:
            lines.append(f"{arr.id},{arr.road},{arr.lane},{arr.t0:.3f},"
                         f"{arr.v0:.3f},,,,,failed,,,,")
            continue
        traj = run.trajectory
        cost = traj.cost(gamma)
        rep = run.report
        active = "|".join(rep.active) if rep.active else "none"
        binding = rep.binding or ""
        if run.oracle is not None:
            gap = 100.0 * (cost.objective - run.oracle.cost) / max(run.oracle.cost, 1e-12)
            ocols = f"{run.oracle.cost:.6f},{gap:+.3f}"
        else:
            ocols = ","
        lines.append(f"{arr.id},{arr.road},{arr.lane},{arr.t0:.3f},{arr.v0:.3f},"
                     f"{traj.tf:.6f},{cost.travel_time:.6f},{cost.energy:.6f},"
                     f"{cost.objective:.6f},{active},{binding},"
                     f"{rep.terminal_mode},{ocols}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_audit(result: SimResult, path: str, label: str = "scenario"):
    cfg = result.scenario.config
    out = [f"audit report: {label}",
           f"config: L={cfg.L} S={cfg.S} gamma={cfg.gamma} phi={cfg.phi} "
           f"delta0={cfg.delta0} v=[{cfg.v_min},{cfg.v_max}] "
           f"u=[{cfg.u_min},{cfg.u_max}] seed={cfg.rng_seed}",
           "queue: " + " -> ".join(
               f"{r.arrival.id}(t0={r.arrival.t0:g})" for r in result.runs), ""]
    for run in result.runs:
        arr = run.arrival
        ctx = ", ".join(f"{k}={v}" for k, v in run.context.items() if v is not None)
        out.append(f"== CAV {arr.id} (road {arr.road}, lane {arr.lane}, "
                   f"t0={arr.t0:g}, v0={arr.v0:g})" + (f" [{ctx}]" if ctx else ""))
        if run.error is not None:
            out.append(f"SOLVE FAILED: {run.error}")
            if run.report is not None:
                for step in run.report.steps:
                    out.append(f"  step: {step}")
            out.append("")
            continue
        rep = run.report
        out.append(f"terminal_mode={rep.terminal_mode} binding={rep.binding} "
                   f"active={rep.active or 'none'} tf={run.trajectory.tf:.6f} "
                   f"wall={rep.wall_time:.3f}s")
        if rep.window is not None:
            out.append(f"window: [{rep.window.t_lower:.6f}, "
                       f"{'inf' if rep.window.t_upper is None else f'{rep.window.t_upper:.6f}'}]"
                       f" binding={rep.window.binding}")
        for step in rep.steps:
            out.append(f"  step: {step}")
        if run.audit is not None:
            out.extend(str(run.audit).splitlines())
        if run.oracle is not None:
            out.append(f"oracle: cost={run.oracle.cost:.6f} "
                       f"tf={run.oracle.tf:.4f} "
                       f"max_violation={run.oracle.max_violation:.3e} "
                       f"feasible={run.oracle.feasible}")
        out.append("")
    out.append("== crossing guarantees")
    declined = [r for r in result.runs if r.error is not None]
    if declined:
        n_solved = sum(r.trajectory is not None for r in result.runs)
        out.append(f"evaluated on the {n_solved} CAVs solved before CAV "
                   f"{declined[0].arrival.id} declined")
    if result.guarantees.ok:
        out.append("all pairs ok (order, rear-end gap, merging-zone hold)")
    else:
        for kind, i, j, t, margin in result.guarantees.violations:
            out.append(f"FAIL {kind}: CAV {i} vs CAV {j} at t={t:.3f} "
                       f"(margin {margin:.3e})")
    out.append("")
    verdict = "PASS" if result.exit_code == 0 else f"FAIL ({result.failure})"
    out.append(f"verdict: {verdict}")
    out.append(f"wall time: {result.wall_time:.3f}s")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def write_outputs(result: SimResult, outdir: str, label: str = "scenario"):
    """Write the three result files; returns their paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "trajectories": os.path.join(outdir, "trajectories.csv"),
        "summary": os.path.join(outdir, "summary.csv"),
        "audit": os.path.join(outdir, "audit.txt"),
    }
    write_trajectories(result, paths["trajectories"])
    write_summary(result, paths["summary"])
    write_audit(result, paths["audit"], label)
    return paths

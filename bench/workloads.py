"""The three workloads, each a closed loop of whole rounds.

A round runs every operation of the workload once, in the order the run's
seed gives; every run makes whole rounds, so the share of failed operations
never depends on the seed or the run length.

- ``sweep``: one operation is one c7 scenario, run as ``cavcross run`` does:
  ``load_scenario``, ``run_simulation``, ``write_outputs``.
- ``lane_stream``: one operation is one 40-CAV single-lane stream, run the
  same way.
- ``oracle``: one operation is one c8 instance: its closed-form solve (and
  those of nine more instances of its family), then ``transcription_oracle``
  at c8's step. Every round repeats the same instances.

Each operation's result is checked by ``checks`` after its time is taken,
outside every span of a traced run.
"""
from __future__ import annotations

import collections
import contextlib
import os
import shutil
import time

from cavcross import sim, solver, verifier
from cavcross.model import ConfigError, DomainError, ScenarioConfig
from cavcross.solver import SolverError

import checks
import inputs

FAILURES = (SolverError, DomainError, ConfigError)


class CheckFailed(RuntimeError):
    """The program accepted a result that the benchmark's checks reject."""


class Tally:
    """What the timed rounds produced."""

    def __init__(self):
        self.op_s = []          # wall time of each operation
        self.plan_s = []        # planner calls that returned a trajectory
        self.vehicles = 0       # given a trajectory (oracle: instances judged)
        self.attempted = 0
        self.failed = 0
        self.reasons = collections.Counter()


class PlanTimer:
    """Times ``cavcross.sim.plan`` calls from outside; keeps the ones that return."""

    def __init__(self):
        self.times = []
        self._original = None

    def install(self):
        self._original = original = sim.plan
        times = self.times

        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            times.append(time.perf_counter() - start)
            return out

        sim.plan = timed

    def uninstall(self):
        sim.plan = self._original

    def take(self):
        out = list(self.times)
        self.times.clear()
        return out


def untraced(tracer):
    """Where the checks run: outside every span when the run is traced."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def decline_reason(failure: str) -> str:
    """'CAV 5: InfeasibleProblem: CAV 5: <reason>' -> '<reason>'."""
    return failure.rsplit(": ", 1)[-1]


class ScenarioWorkload:
    """Operations that run a scenario dict end to end and check the tables."""

    min_rounds = 1

    def __init__(self, scenarios, seed, workdir):
        self.scenarios = scenarios
        self.order = inputs.order(len(scenarios), seed)
        self.outdir = os.path.join(workdir, "out")
        self.timer = PlanTimer()

    def start(self):
        self.timer.install()

    def stop(self):
        self.timer.uninstall()

    def run_op(self, scn, tally, op_index, tracer=None):
        if tracer is not None:
            tracer.op = op_index
        shutil.rmtree(self.outdir, ignore_errors=True)
        start = time.perf_counter()
        result = sim.run_simulation(sim.load_scenario(scn))
        sim.write_outputs(result, self.outdir, "bench")
        took = time.perf_counter() - start
        solved = sum(1 for r in result.runs if r.trajectory is not None)
        tally.op_s.append(took)
        tally.plan_s.extend(self.timer.take())
        tally.attempted += 1
        tally.vehicles += solved
        if not result.ok:
            tally.failed += 1
            tally.reasons[decline_reason(result.failure or "no reason given")] += 1
        with untraced(tracer):
            bad, checked = checks.check_scenario(scn, self.outdir, result.ok)
        if checked != solved:
            bad.append(f"tables list {checked} solved CAVs, the program {solved}")
        if bad:
            label = f"scenario rng_seed={scn['config'].get('rng_seed')}"
            raise CheckFailed(f"{label}: " + "; ".join(bad[:5]))

    def round(self, r, tally, tracer=None):
        for n, k in enumerate(self.order):
            self.run_op(self.scenarios[k], tally, r * len(self.order) + n, tracer)

    def warmup(self):
        self.run_op(self.warmup_scenario(), Tally(), -1)
        self.timer.take()


class Sweep(ScenarioWorkload):
    name = "sweep"
    tail_pct = 97          # 411 plans a round: 12 beyond p97

    def __init__(self, seed, seed_base, workdir):
        super().__init__([inputs.sweep_scenario(seed_base + k)
                          for k in range(inputs.SWEEP_SCENARIOS)], seed, workdir)

    def warmup_scenario(self):
        return self.scenarios[self.order[0]]


class LaneStream(ScenarioWorkload):
    name = "lane_stream"
    tail_pct = 95          # 240 plans a round: 12 beyond p95
    warmup_vehicles = 5

    def __init__(self, seed, seed_base, workdir):
        super().__init__([inputs.lane_stream(seed_base + s) for s in inputs.STREAM_POOL],
                         seed, workdir)

    def warmup_scenario(self):
        scn = self.scenarios[self.order[-1]]
        return dict(scn, arrivals=scn["arrivals"][:self.warmup_vehicles])


class Oracle:
    """c8 instances judged by the transcription oracle, one per family a round.

    Every round takes the same instances, as ``sweep`` repeats its 100
    scenarios: c8 instances 0-9 of each family (plus the seed base). It
    judges instance 0 with the oracle and plans all ten, so the plan figures
    rest on 70 closed-form solves a round rather than 7. The seed orders the
    families within a round. The safety family's ten plans are
    ``solve_safety`` calls of about 0.2 s each, so the solver takes about a
    quarter of this workload and the verifier the rest.
    """

    name = "oracle"
    plans_per_op = 10
    min_rounds = 2         # 70 plans a round: 140 plans, 11 beyond p92
    tail_pct = 92

    def __init__(self, seed, seed_base, workdir):
        self.families = [inputs.ORACLE_FAMILIES[k]
                         for k in inputs.order(len(inputs.ORACLE_FAMILIES), seed)]
        self.instances = {fam: [inputs.oracle_instance(fam, seed_base + k)
                                for k in range(self.plans_per_op)]
                          for fam in self.families}
        self.configs = {name: ScenarioConfig(**cfg)
                        for name, cfg in inputs.ORACLE_CONFIGS.items()}

    def start(self):
        pass

    def stop(self):
        pass

    def closed_form(self, inst, cfg, plans):
        """The c8 family solve; returns (trajectory, oracle keywords)."""
        def timed(fn, *args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            plans.append(time.perf_counter() - start)
            return out

        fam, t0, v0 = inst["family"], inst["t0"], inst["v0"]
        if fam == "free":
            return timed(solver.solve_p0_free, t0, v0, cfg)[1], {}
        if fam == "fixed":
            base = timed(solver.solve_p0_free, t0, v0, cfg)[1]
            return timed(solver.solve_p1_fixed, t0, v0, base.tf + inst["extra_tf"], cfg)[1], {}
        if fam == "safety":
            lead = timed(solver.solve_p1_fixed, 0.0, inst["leader_v0"], inst["leader_tf"], cfg)[1]
            traj = timed(solver.solve_safety, t0, v0, lead, cfg, terminal="follower")[0]
            return traj, {"leader": lead}
        if fam == "lateral":
            traj = timed(solver.solve_lateral, t0, v0, inst["lateral_tm"], cfg,
                         terminal="fixed", tf_fixed=inst["tf"])[0]
            return traj, {"lateral_tm": inst["lateral_tm"]}
        traj = timed(solver.solve_limits, t0, v0, cfg, terminal="free",
                     sat_u=True, sat_v=True)[0]
        return traj, {"u_limits": inst["u_limits"]}

    def run_op(self, fam, tally, op_index, tracer=None):
        """Plan the family's instances, judge the first with the oracle."""
        if tracer is not None:
            tracer.op = op_index
        insts = self.instances[fam]
        cfg = self.configs[insts[0]["config"]]
        plans = []
        start = time.perf_counter()
        try:
            solved = [self.closed_form(inst, cfg, plans) for inst in insts]
        except FAILURES as exc:
            tally.op_s.append(time.perf_counter() - start)
            tally.attempted += 1
            tally.failed += 1
            tally.reasons[f"{fam}: {exc}"] += 1
            return
        inst, (traj, kw) = insts[0], solved[0]
        res = verifier.transcription_oracle(
            inst["t0"], inst["v0"], cfg, tf=None if fam == "free" else traj.tf,
            dt=inputs.ORACLE_DT, iters=inputs.ORACLE_ITERS[fam],
            seed=100 + inst["i"], **kw)
        took = time.perf_counter() - start
        tally.op_s.append(took)
        tally.plan_s.extend(plans)
        tally.attempted += 1
        if not res.feasible:
            tally.failed += 1
            tally.reasons[f"{fam}: oracle found no feasible control"] += 1
            return
        tally.vehicles += 1
        lim = checks.Limits.of(inputs.ORACLE_CONFIGS[inst["config"]])
        with untraced(tracer):
            bad = checks.check_oracle(inst, traj, traj.cost(cfg.gamma).objective, res, lim, **kw)
            for other, (o_traj, _) in zip(insts[1:], solved[1:]):
                bad += checks.check_closed_form(other, o_traj, o_traj.cost(cfg.gamma).objective,
                                                lim)
        if bad:
            raise CheckFailed("; ".join(bad))

    def round(self, r, tally, tracer=None):
        for n, fam in enumerate(self.families):
            self.run_op(fam, tally, r * len(self.families) + n, tracer)

    def warmup(self):
        self.run_op("fixed", Tally(), -1)


WORKLOADS = {w.name: w for w in (Sweep, LaneStream, Oracle)}


def build(name, seed, seed_base, workdir):
    return WORKLOADS[name](seed, seed_base, workdir)

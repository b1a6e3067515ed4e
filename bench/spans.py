"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each traced public name where its caller looks it
up: module attributes for functions (``cavcross.sim.plan``,
``cavcross.solver.solve_system``, ...) and class attributes for the
``Coordinator`` and ``PiecewiseTrajectory`` methods. Each call becomes a
span (name, start, end, parent, operation) kept in memory; ``write`` puts
them out as JSON lines when the run ends. Busy time counts a span only at
its outermost nesting, and self time is busy time less the child spans it
covers. Inside ``paused()`` the wrappers record nothing, so the benchmark's
own checks, which sample closed-form trajectories, add no span. ``uninstall``
puts every original back.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

from cavcross.model import ConfigError, DomainError
from cavcross.solver import SolverError

# span name -> (module, owner, attribute): owner is None for a module
# attribute and a class name for a method; a span may have several sites
SITES = {
    "sim.load_scenario": [("cavcross.sim", None, "load_scenario")],
    "sim.run_simulation": [("cavcross.sim", None, "run_simulation")],
    "sim.write_outputs": [("cavcross.sim", None, "write_outputs")],
    "coordinator.enqueue": [("cavcross.coordinator", "Coordinator", "enqueue")],
    "coordinator.view": [("cavcross.coordinator", "Coordinator", "view")],
    "coordinator.check_guarantees": [("cavcross.sim", None, "check_guarantees")],
    "bounds.composite_window": [("cavcross.solver", None, "composite_window")],
    "solver.plan": [("cavcross.sim", None, "plan")],
    "solver.scan_violations": [("cavcross.solver", None, "scan_violations")],
    "solver.solve_p0_free": [("cavcross.solver", None, "solve_p0_free")],
    "solver.solve_p1_fixed": [("cavcross.solver", None, "solve_p1_fixed")],
    "solver.solve_p1_follower": [("cavcross.solver", None, "solve_p1_follower")],
    "solver.solve_safety": [("cavcross.solver", None, "solve_safety")],
    "solver.solve_lateral": [("cavcross.solver", None, "solve_lateral")],
    "solver.solve_limits": [("cavcross.solver", None, "solve_limits")],
    "newton.solve_system": [("cavcross.solver", None, "solve_system")],
    "model.position_root": [("cavcross.model", "PiecewiseTrajectory", "position_root")],
    "model.sample": [("cavcross.model", "PiecewiseTrajectory", "sample")],
    "verifier.audit": [("cavcross.sim", None, "audit")],
    "verifier.transcription_oracle": [("cavcross.sim", None, "transcription_oracle"),
                                      ("cavcross.verifier", None, "transcription_oracle")],
}

COUNTERS = ("solver.plan.declined", "newton.solve_system.residual_evals",
            "newton.solve_system.iterations", "newton.solve_system.unconverged",
            "model.sample.points")

# what run_simulation counts as a declined vehicle when plan() raises it
DECLINES = (SolverError, DomainError, ConfigError)


class MissingName(RuntimeError):
    """A traced public name is not where the benchmark looks for it."""


def _resolve(module, owner, attr):
    where = f"{module}.{owner + '.' if owner else ''}{attr}"
    try:
        mod = importlib.import_module(module)
    except ImportError as exc:
        raise MissingName(f"traced name missing: {where} ({exc})") from None
    target = getattr(mod, owner, None) if owner else mod
    if target is None or not callable(getattr(target, attr, None)):
        raise MissingName(f"traced name missing: {where}")
    return target


class Tracer:
    def __init__(self):
        self.names = list(SITES)
        self.spans = []          # (name index, start, end, parent span, op)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._paused = False
        self._open = []          # [span index, child time] of the open spans
        self._depth = dict.fromkeys(SITES, 0)
        self._calls = dict.fromkeys(SITES, 0)
        self._busy = dict.fromkeys(SITES, 0.0)
        self._self = dict.fromkeys(SITES, 0.0)
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced site; fails naming the first one that is missing."""
        found = [(name, _resolve(*site), site[2])
                 for name, sites in SITES.items() for site in sites]
        for name, target, attr in found:
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original))

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def reset(self):
        """Forget what was recorded (after the warm-up operation)."""
        self.spans.clear()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._calls = dict.fromkeys(SITES, 0)
        self._busy = dict.fromkeys(SITES, 0.0)
        self._self = dict.fromkeys(SITES, 0.0)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: for the checks, which call traced names."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        idx = self.names.index(name)
        extra = _COUNTING.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = tracer._open[-1][0] if tracer._open else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer._open.append([sid, 0.0])
            tracer._depth[name] += 1
            start = time.perf_counter()
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                return extra(tracer, fn, args, kwargs)
            finally:
                end = time.perf_counter()
                _, child = tracer._open.pop()
                tracer._depth[name] -= 1
                took = end - start
                tracer.spans[sid] = (idx, start, end, parent, tracer.op)
                tracer._calls[name] += 1
                if tracer._depth[name] == 0:
                    tracer._busy[name] += took
                tracer._self[name] += took - child
                if tracer._open:
                    tracer._open[-1][1] += took
        return span

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = {"value": self._calls[name], "unit": "count"}
            out[f"{name}.s"] = {"value": self._busy[name], "unit": "s"}
            out[f"{name}.self_s"] = {"value": self._self[name], "unit": "s"}
        for name in COUNTERS:
            out[name] = {"value": self.counts[name], "unit": "count"}
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (idx, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[idx], "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


# -- counters recorded inside particular spans -------------------------------

def _plan(tracer, fn, args, kwargs):
    try:
        return fn(*args, **kwargs)
    except DECLINES:
        tracer.counts["solver.plan.declined"] += 1
        raise


def _solve_system(tracer, fn, args, kwargs):
    residual, rest = args[0], args[1:]

    def counted(x):
        tracer.counts["newton.solve_system.residual_evals"] += 1
        return residual(x)

    res = fn(counted, *rest, **kwargs)
    tracer.counts["newton.solve_system.iterations"] += int(res.iterations)
    if not res.converged:
        tracer.counts["newton.solve_system.unconverged"] += 1
    return res


def _sample(tracer, fn, args, kwargs):
    ts = args[1] if len(args) > 1 else kwargs["ts"]
    tracer.counts["model.sample.points"] += int(getattr(ts, "size", len(ts)))
    return fn(*args, **kwargs)


_COUNTING = {"solver.plan": _plan, "newton.solve_system": _solve_system,
             "model.sample": _sample}

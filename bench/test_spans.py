"""The traced run wraps every public name it reports, counts through the
wrappers, records nothing while the checks run, puts the originals back,
and refuses to run when a name is gone.

    python3 -m pytest bench/test_spans.py -q
"""
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import spans  # noqa: E402
from cavcross import model, solver  # noqa: E402


def test_missing_name_fails_naming_it(monkeypatch):
    monkeypatch.delattr(solver, "solve_system")
    tracer = spans.Tracer()
    with pytest.raises(spans.MissingName, match=r"cavcross\.solver\.solve_system"):
        tracer.install()
    assert tracer._saved == []  # nothing was wrapped


def test_spans_and_counters_then_restore():
    before = (solver.solve_system, model.PiecewiseTrajectory.sample)
    tracer = spans.Tracer()
    tracer.install()
    try:
        solver.solve_p1_follower(2.0, 12.0, solver.solve_p0_free(0.0, 10.0, model.ScenarioConfig())[1],
                                 model.ScenarioConfig())
    finally:
        tracer.uninstall()
    assert (solver.solve_system, model.PiecewiseTrajectory.sample) == before
    m = tracer.metrics()
    assert m["solver.solve_p1_follower.calls"]["value"] == 1
    assert m["newton.solve_system.calls"]["value"] >= 1
    assert m["newton.solve_system.residual_evals"]["value"] > m["newton.solve_system.calls"]["value"]
    outer = m["solver.solve_p1_follower.s"]["value"]
    assert 0.0 <= m["solver.solve_p1_follower.self_s"]["value"] <= outer
    assert len(tracer.spans) == sum(v["value"] for k, v in m.items() if k.endswith(".calls"))


def test_check_calls_add_no_span():
    cfg = model.ScenarioConfig()
    traj = solver.solve_p0_free(0.0, 10.0, cfg)[1]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.paused():
            checks.closed_form_cost(traj, checks.Limits())
        traj.sample(np.array([traj.t0, traj.tf]))
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["model.sample.calls"]["value"] == 1
    assert m["model.sample.points"]["value"] == 2
    assert len(tracer.spans) == 1

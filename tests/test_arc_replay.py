"""The one ``Arc`` replays the five arc classes it replaced.

Every arc of every trajectory planned for the six fixtures, the 100 c7
scenarios and the lane streams of ``bench/inputs.STREAM_POOL``, and the
cruise tail that ``PiecewiseTrajectory.extended`` appends to each of them
(as every follower's leader gets), is rebuilt in its old class by
``arc_reference.from_arc``. Scalar and vector p, v and u, the energy and the
v and u extrema must agree within 1e-9 (relative above 1).
"""
import os
import sys

import numpy as np
import pytest

from cavcross.fixtures import FIXTURES, fixture
from cavcross.model import Arc
from cavcross.sim import load_scenario, run_simulation
from arc_reference import CruiseArc, CubicArc, ExpTrackArc, SatArc, from_arc
from test_acceptance import _random_scenario

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import inputs  # noqa: E402

TOL = 1e-9
OLD_CLASS = {"cubic": CubicArc, "track": ExpTrackArc, "sat": SatArc, "cruise": CruiseArc}


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want))))


@pytest.fixture(scope="module")
def arcs():
    """Every planned arc and every extension tail, with where it came from."""
    scenarios = [(name, fixture(name)) for name in sorted(FIXTURES)]
    scenarios += [(f"c7 seed {seed}", _random_scenario(seed)) for seed in range(100)]
    scenarios += [(f"lane stream {s}", inputs.lane_stream(s)) for s in inputs.STREAM_POOL]
    out = []
    for label, raw in scenarios:
        for run in run_simulation(load_scenario(raw)).runs:
            if run.trajectory is None:
                continue
            where = f"{label}, CAV {run.arrival.id}"
            out += [(where, arc) for arc in run.trajectory.arcs]
            out.append((f"{where}, extension",
                        run.trajectory.extended(run.trajectory.tf + 20.0).arcs[-1]))
    return out


def test_every_kind_is_replayed(arcs):
    kinds = {arc.kind for _, arc in arcs}
    assert kinds == set(OLD_CLASS)
    assert all(isinstance(arc, Arc) for _, arc in arcs)
    assert sum(arc.kind == "track" for _, arc in arcs) > 100


def test_arc_matches_its_old_class(arcs):
    for where, arc in arcs:
        old = from_arc(arc)
        assert type(old) is OLD_CLASS[arc.kind], where
        ts = np.linspace(arc.t_start, arc.t_end, 17)
        for name in ("p", "v", "u"):
            new_fn, old_fn = getattr(arc, name), getattr(old, name)
            assert _close(new_fn(ts), old_fn(ts)), (where, name)
            for t in (arc.t_start, 0.5 * (arc.t_start + arc.t_end), arc.t_end):
                got = new_fn(t)
                assert isinstance(got, float) and _close(got, old_fn(t)), (where, name, t)
        assert _close(arc.energy(arc.t_start, arc.t_end),
                      old.energy(arc.t_start, arc.t_end)), where
        for ext in ("v_extrema", "u_extrema"):
            got, want = getattr(arc, ext)(), getattr(old, ext)()
            assert len(got) == len(want), (where, ext)
            assert _close(got, want), (where, ext)

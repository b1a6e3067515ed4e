"""The closed-form pinned cubic and merging-zone hold against their LU solves.

``solver.solve_p1_fixed`` and ``solver.solve_lateral`` write the optimality
conditions out by hand; ``lu_reference`` keeps the 4x4 and 8x8 linear
systems they replaced. Every call ``run_simulation`` makes to either over
the fixtures, the c7 sweep and seeded scenarios with varied caps (which
reach pinned-terminal holds) runs both, which must raise the same exception
class or agree on the exit time, every coefficient and the sampled
trajectory.
"""
import numpy as np
import pytest

import cavcross.solver as solver
from cavcross.fixtures import FIXTURES, fixture
from cavcross.model import ScenarioConfig
from cavcross.sim import load_scenario, run_simulation
from lu_reference import solve_lateral_lu, solve_p1_fixed_lu
from test_acceptance import _random_scenario
from test_plan_replay import _outcome, _varied_scenario

RTOL = 1e-9
VARIED_SCENARIOS = 100
CFG = ScenarioConfig(v_max=20.0)


def _close(x, ref):
    return abs(x - ref) <= RTOL * abs(ref)


def _same_trajectory(traj, ref):
    assert _close(traj.tf, ref.tf), (traj.tf, ref.tf)
    ts = np.linspace(traj.t0, min(traj.tf, ref.tf), 500)
    for x, y in zip(traj.sample(ts), ref.sample(ts)):
        assert np.all(np.abs(x - y) <= RTOL * np.maximum(np.abs(y), 1.0))


class LuReplay:
    """Wraps both solves; counts the calls that reached each branch."""

    def __init__(self, monkeypatch):
        self.counts = {"pinned": 0, "hold_fixed": 0, "hold_free": 0}
        self._fixed, self._lateral = solver.solve_p1_fixed, solver.solve_lateral
        monkeypatch.setattr(solver, "solve_p1_fixed", self.fixed)
        monkeypatch.setattr(solver, "solve_lateral", self.lateral)

    def _compare(self, new, ref):
        assert type(new) is type(ref), (new, ref)
        if isinstance(new, Exception):
            raise new

    def fixed(self, t0, v0, tf, cfg, report=None):
        new = _outcome(self._fixed, (t0, v0, tf, cfg), {"report": report})
        ref = _outcome(solve_p1_fixed_lu, (t0, v0, tf, cfg), {})
        self._compare(new, ref)
        (arc, traj), (params, ref_traj) = new, ref
        for name in "abcd":
            assert _close(getattr(arc, name), getattr(params, name)), name
        _same_trajectory(traj, ref_traj)
        self.counts["pinned"] += 1
        return new

    def lateral(self, t0, v0, tm, cfg, *, terminal="free", tf_fixed=None, report=None):
        # no caller pins a free hold's ladder
        assert terminal == "fixed" or tf_fixed is None
        kwargs = {"terminal": terminal, "tf_fixed": tf_fixed}
        new = _outcome(self._lateral, (t0, v0, tm, cfg), dict(kwargs, report=report))
        ref = _outcome(solve_lateral_lu, (t0, v0, tm, cfg), kwargs)
        self._compare(new, ref)
        (traj, info), (ref_traj, ref_info) = new, ref
        assert info.keys() == ref_info.keys()
        for name, x in info.items():
            assert _close(x, ref_info[name]), name
        _same_trajectory(traj, ref_traj)
        self.counts["hold_fixed" if terminal == "fixed" else "hold_free"] += 1
        return new


def test_closed_forms_match_the_lu_solves_on_every_call(monkeypatch):
    replay = LuReplay(monkeypatch)
    scenarios = [fixture(name) for name in sorted(FIXTURES)]
    scenarios += [_random_scenario(seed) for seed in range(100)]
    scenarios += [_varied_scenario(seed) for seed in range(VARIED_SCENARIOS)]
    for scn in scenarios:
        run_simulation(load_scenario(scn))
    assert all(replay.counts.values()), replay.counts


def test_pinned_cubic_and_holds_use_no_linear_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("numpy.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    arc, traj = solver.solve_p1_fixed(0.0, 10.0, 33.0, CFG)
    assert traj.eval(33.0)[0] == pytest.approx(400.0, abs=1e-10)
    assert arc.u(33.0) == 0.0
    _, info = solver.solve_lateral(2.0, 12.0, 32.027, CFG, terminal="fixed", tf_fixed=34.4)
    assert info["zeta"] == pytest.approx(0.007952001670355627, abs=1e-9)
    traj, _ = solver.solve_lateral(2.0, 12.0, 32.027, CFG, terminal="free")
    assert traj.tf == pytest.approx(34.40058553347205, abs=1e-6)

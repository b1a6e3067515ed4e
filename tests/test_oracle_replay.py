"""The oracle's Newton step, replayed against the solve it replaced.

``oracle_qp_reference`` keeps ``_transcription_qp`` as it was when cyclic
reduction went down to one block and both Mehrotra directions were refined.
The oracle is run twice on each instance, once with each QP, and every
interior-point solve it makes must take the same number of iterations; the
result must be equally feasible, at a cost within 1e-9 relative.

The instances are a subset of the c8 acceptance check (every family, fixed
horizon) and the five instance-0 judgements of the benchmark's ``oracle``
workload, whose ``free`` one is the free-horizon search.
"""
import os
import sys

import pytest

from cavcross import solver, verifier
from cavcross.model import ScenarioConfig
from oracle_qp_reference import _transcription_qp as reference_qp
from test_acceptance import ORACLE_ITER_CAP, _oracle_cases

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import inputs  # noqa: E402

COST_RTOL = 1e-9
C8_SUBSET = (1, 6, 12, 18, 24)


def _c8(name, i):
    mk = dict((n, mk) for n, mk, _ in _oracle_cases())[name]
    traj, cfg, kw = mk(i)
    return (traj.t0, traj.eval(traj.t0)[1], cfg,
            dict(kw, tf=traj.tf, dt=0.02, iters=ORACLE_ITER_CAP))


def _bench(fam):
    """Instance 0 of one family, judged as the ``oracle`` workload judges it."""
    inst = inputs.oracle_instance(fam, 0)
    cfg = ScenarioConfig(**inputs.ORACLE_CONFIGS[inst["config"]])
    t0, v0 = inst["t0"], inst["v0"]
    kw = {"dt": inputs.ORACLE_DT, "iters": inputs.ORACLE_ITERS[fam]}
    if fam == "free":
        return t0, v0, cfg, kw
    if fam == "fixed":
        base = solver.solve_p0_free(t0, v0, cfg)[1]
        traj = solver.solve_p1_fixed(t0, v0, base.tf + inst["extra_tf"], cfg)[1]
    elif fam == "safety":
        lead = solver.solve_p1_fixed(0.0, inst["leader_v0"], inst["leader_tf"], cfg)[1]
        traj = solver.solve_safety(t0, v0, lead, cfg, terminal="follower")[0]
        kw["leader"] = lead
    elif fam == "lateral":
        traj = solver.solve_lateral(t0, v0, inst["lateral_tm"], cfg, terminal="fixed",
                                    tf_fixed=inst["tf"])[0]
        kw["lateral_tm"] = inst["lateral_tm"]
    else:
        traj = solver.solve_limits(t0, v0, cfg, terminal="free", sat_u=True, sat_v=True)[0]
        kw["u_limits"] = inst["u_limits"]
    return t0, v0, cfg, dict(kw, tf=traj.tf)


def _judged(monkeypatch, qp, t0, v0, cfg, kw):
    """The oracle's result with ``qp`` as its solve, and each solve's iterations."""
    iterations = []

    def counted(*args):
        out = qp(*args)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(verifier, "_transcription_qp", counted)
    return verifier.transcription_oracle(t0, v0, cfg, **kw), iterations


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda name=name, i=i: _c8(name, i), id=f"c8_{name}_{i}")
      for name in inputs.ORACLE_FAMILIES for i in C8_SUBSET),
    *(pytest.param(lambda fam=fam: _bench(fam), id=f"bench_{fam}_0")
      for fam in inputs.ORACLE_FAMILIES),
])
def test_oracle_replays_the_refined_predictor_solve(monkeypatch, case):
    t0, v0, cfg, kw = case()
    res, its = _judged(monkeypatch, verifier._transcription_qp, t0, v0, cfg, kw)
    ref, ref_its = _judged(monkeypatch, reference_qp, t0, v0, cfg, kw)
    assert its == ref_its
    assert res.iterations == ref.iterations
    assert res.feasible == ref.feasible
    assert abs(res.cost - ref.cost) <= COST_RTOL * abs(ref.cost)

"""``solver.plan`` against ``plan_reference.plan_chain`` on every planner call.

The activation loop became two tables and one captured family solve; the
hand-written chain it replaced is kept in ``plan_reference``. Every call
``run_simulation`` makes to ``sim.plan`` over the fixtures, the c7 sweep and
seeded scenarios with varied caps runs both, which must return the same arcs
and report fields or raise the same exception with the same message. The
replay has to reach the rare paths too: a re-pin after an activation (the
random scenarios seldom reach one, so ``test_plan.REPIN_SCENARIO`` rides
along), a ``limits+rear_end`` or ``safety+control`` decline and a
merging-zone hold. Then the one empty terminal window the varied-caps
scenarios are known to reach, which must decline.
"""
import numpy as np

import cavcross.sim as sim
import cavcross.solver as solver
from cavcross.fixtures import FIXTURES, fixture
from plan_reference import plan_chain
from test_acceptance import _random_scenario
from test_plan import REPIN_SCENARIO

VARIED_SCENARIOS = 240
FAMILY_STEPS = {"relax_then_cruise", "saturate_then_relax", "saturate_blend_cruise",
                "gap_ride_with_departure", "gap_ride_to_exit", "position_cap"}
REPORT_FIELDS = ("steps", "active", "binding", "terminal_mode", "window")


def _varied_scenario(seed):
    """2-7 CAVs on four roads and two lanes, with caps drawn per scenario.

    v_min in {0, 3, 5}, u caps from 0.3 to 3, phi in {0.5, 1, 1.5}, delta0
    in {0, 2}; about one arrival in ten pins its terminal time.
    """
    rng = np.random.default_rng([9, seed])
    v_min = float(rng.choice([0.0, 3.0, 5.0]))
    v_max = float(rng.choice([12.0, 13.5, 16.0]))
    cfg = {"rng_seed": seed, "v_min": v_min, "v_max": v_max,
           "u_max": round(float(rng.uniform(0.3, 3.0)), 2),
           "u_min": -round(float(rng.uniform(0.3, 3.0)), 2),
           "phi": float(rng.choice([0.5, 1.0, 1.5])),
           "delta0": float(rng.choice([0.0, 2.0]))}
    n = int(rng.integers(2, 8))
    next_entry = {}
    arrivals = []
    for i in range(n):
        road, lane = "NSEW"[int(rng.integers(0, 4))], int(rng.integers(0, 2))
        t0 = max(next_entry.get((road, lane), 0.0), float(rng.uniform(0.0, 3.0 * n)))
        next_entry[road, lane] = t0 + float(rng.uniform(2.2, 6.0))
        v0 = round(float(rng.uniform(v_min + 0.5, v_max - 0.5)), 3)
        arr = dict(id=i + 1, t0=round(t0, 3), v0=v0, road=road, lane=lane)
        if rng.random() < 0.1:
            arr["force_tf"] = round(t0 + 400.0 / v0 * float(rng.uniform(0.8, 1.3)), 3)
        arrivals.append(arr)
    return {"schema_version": 1, "config": cfg, "arrivals": arrivals,
            "run": {"sample_step": 0.05, "seed": seed}}


def _outcome(fn, args, kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return exc


class Replay:
    """Runs both planners on each call and records what they reached."""

    def __init__(self):
        self.calls = 0
        self.repins = 0
        self.holds = 0
        self.declines = set()

    def __call__(self, *args, **kwargs):
        ref = _outcome(plan_chain, args, kwargs)
        new = _outcome(solver.plan, args, kwargs)
        self.calls += 1
        assert type(new) is type(ref), (new, ref)
        if isinstance(new, Exception):
            assert str(new) == str(ref)
            self.declines.add(str(new).split(": ", 1)[-1])
            rep, ref_rep = getattr(new, "report", None), getattr(ref, "report", None)
        else:
            (traj, rep), (ref_traj, ref_rep) = new, ref
            assert traj.arcs == ref_traj.arcs
        if rep is not None:
            for name in REPORT_FIELDS:
                assert getattr(rep, name) == getattr(ref_rep, name), name
            problems = [step["problem"] for step in rep.steps]
            self.repins += sum(p in FAMILY_STEPS for p in problems) > problems.count("violation")
            self.holds += "lateral" in rep.active
        if isinstance(new, Exception):
            raise new
        return new


def test_plan_matches_the_activation_chain_on_every_call(monkeypatch):
    replay = Replay()
    monkeypatch.setattr(sim, "plan", replay)
    scenarios = [fixture(name) for name in sorted(FIXTURES)] + [REPIN_SCENARIO]
    scenarios += [_random_scenario(seed) for seed in range(100)]
    scenarios += [_varied_scenario(seed) for seed in range(VARIED_SCENARIOS)]
    for scn in scenarios:
        sim.run_simulation(sim.load_scenario(scn))
    assert replay.calls >= 1000
    assert replay.repins and replay.holds
    assert replay.declines & {"combination limits+rear_end not supported",
                              "combination safety+control not supported"}


def test_an_empty_terminal_window_declines():
    """CAV 5 of varied-caps seed 330 must exit after a conflicting CAV
    (first in, first out) and by the end of its own full-brake crawl, and
    cannot do both."""
    result = sim.run_simulation(sim.load_scenario(_varied_scenario(330)))
    declined = [r for r in result.runs if r.error is not None]
    assert [r.arrival.id for r in declined] == [5]
    assert declined[0].error == "InfeasibleProblem: CAV 5: terminal window empty [107.190, 104.812]"

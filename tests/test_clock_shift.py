"""Clock-shift invariance of the c7 scenarios.

Moving every entry time by the same amount changes nothing physical, so the
plans must come out the same: equal exit codes and failure messages, and
travel times and costs within 1e-9 relative. The gap ride's exponential
amplitude carries exp(t/phi) in absolute time, which bounds how far the
shift holds today.
"""

import math

import pytest

from cavcross.sim import load_scenario, run_simulation
from test_acceptance import _random_scenario


def _shifted(seed, dt):
    """``_random_scenario(seed)`` with every entry time ``dt`` seconds later."""
    raw = _random_scenario(seed)
    for arrival in raw["arrivals"]:
        arrival["t0"] += dt
    return raw


@pytest.mark.parametrize("dt", [
    100.0,
    pytest.param(300.0, marks=pytest.mark.xfail(
        strict=True, reason="gap rides whose energy overflows to NaN now fail "
                            "the audit, so exit codes change: the ride's "
                            "amplitude and exponential are in absolute time")),
])
def test_c7_plans_do_not_depend_on_the_clock(dt):
    for seed in range(100):
        base = run_simulation(load_scenario(_random_scenario(seed)))
        moved = run_simulation(load_scenario(_shifted(seed, dt)))
        assert (moved.exit_code, moved.failure) == (base.exit_code, base.failure), \
            f"seed {seed}"
        gamma = base.scenario.config.gamma
        for r0, r1 in zip(base.runs, moved.runs):
            assert (r0.trajectory is None) == (r1.trajectory is None), f"seed {seed}"
            if r0.trajectory is None:
                continue
            cost = r1.trajectory.cost(gamma).objective
            assert math.isfinite(cost), f"seed {seed} CAV {r1.arrival.id}"
            assert cost == pytest.approx(r0.trajectory.cost(gamma).objective,
                                         rel=1e-9, abs=0.0)
            assert r1.trajectory.tf - r1.arrival.t0 == pytest.approx(
                r0.trajectory.tf - r0.arrival.t0, rel=1e-9, abs=0.0)


def test_c7_late_gap_rides_decline_instead_of_crashing():
    """Past about 709.8*phi s the ride's amplitude overflows a double; the
    plan declines there with a message naming the late start."""
    late = 0
    for seed in range(100):
        base = run_simulation(load_scenario(_random_scenario(seed)))
        moved = run_simulation(load_scenario(_shifted(seed, 700.0)))
        if moved.failure != base.failure:
            assert "gap ride starts too late" in moved.failure, f"seed {seed}"
            late += 1
    assert late > 0

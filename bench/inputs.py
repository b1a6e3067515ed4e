"""Input generators for the three benchmark workloads.

Every input is a plain value built from integer seeds, so the same seeds
always give the same inputs. Nothing here imports cavcross: the scenario
dicts and instance parameters are handed to the program by ``workloads.py``.
"""
from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# sweep: the c7 random multi-vehicle scenarios
# ---------------------------------------------------------------------------

SWEEP_SCENARIOS = 100


def sweep_scenario(seed: int) -> dict:
    """One c7 scenario: 2-10 CAVs on four approaches, default caps.

    Same draws, in the same order, as the c7 acceptance sweep's generator
    (``_random_scenario`` in ``tests/test_acceptance.py``).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    roads = ["N", "S", "E", "W"]
    per_road_next = {r: 0.0 for r in roads}
    arrivals = []
    for i in range(n):
        road = roads[int(rng.integers(0, 4))]
        t0 = max(per_road_next[road], float(rng.uniform(0.0, 3.0 * n)))
        per_road_next[road] = t0 + float(rng.uniform(2.2, 6.0))
        arrivals.append(dict(id=i + 1, t0=round(t0, 3),
                             v0=round(float(rng.uniform(6.0, 12.5)), 3),
                             road=road))
    return {"schema_version": 1, "config": {"rng_seed": seed},
            "arrivals": arrivals, "run": {"sample_step": 0.05, "seed": seed}}


# ---------------------------------------------------------------------------
# lane_stream: Poisson arrivals on one lane, loose caps
# ---------------------------------------------------------------------------

STREAM_CONFIG = {"v_max": 25.0, "u_min": -5.0, "u_max": 5.0}
STREAM_VEHICLES = 40
STREAM_MIN_HEADWAY = 2.2   # s between entries, before the exponential part
STREAM_MEAN_GAP = 1.5      # s, mean of the exponential part (Poisson arrivals)
STREAM_V0 = (6.0, 12.5)

# The first six stream seeds; every vehicle of each solves today. Other seeds
# can hit a seed-dependent decline (stream seed 10 declines its 7th CAV with
# "no osculating junction"), so the run's seed orders this fixed pool rather
# than drawing new streams.
STREAM_POOL = (0, 1, 2, 3, 4, 5)


def lane_stream(stream_seed: int, n: int = STREAM_VEHICLES) -> dict:
    """``n`` CAVs on road N, lane 0, entering by a headway-shifted Poisson process."""
    rng = np.random.default_rng([1, stream_seed])
    t = 0.0
    arrivals = []
    for i in range(n):
        arrivals.append(dict(id=i + 1, t0=round(t, 3),
                             v0=round(float(rng.uniform(*STREAM_V0)), 3),
                             road="N"))
        t += STREAM_MIN_HEADWAY + float(rng.exponential(STREAM_MEAN_GAP))
    return {"schema_version": 1,
            "config": dict(STREAM_CONFIG, rng_seed=stream_seed),
            "arrivals": arrivals,
            "run": {"sample_step": 0.05, "seed": stream_seed}}


# ---------------------------------------------------------------------------
# oracle: the five c8 closed-form families
# ---------------------------------------------------------------------------

ORACLE_DT = 0.02
ORACLE_FAMILIES = ("free", "fixed", "safety", "lateral", "limits")
# oracle iteration budget per family, as in the c8 acceptance check
ORACLE_ITERS = {"free": 1500, "fixed": 1500, "safety": 12000,
                "lateral": 6000, "limits": 3000}
ORACLE_CONFIGS = {"wide": {"v_max": 20.0},
                  "cap": {"u_max": 0.2, "u_min": -0.2, "v_max": 13.5}}


def oracle_instance(family: str, i: int) -> dict:
    """Entry state and terminal data of c8 instance ``i`` of one family.

    The draws match the c8 acceptance check; ``free`` is judged by the
    free-horizon search instead of at the closed-form exit time.
    """
    if family == "free":
        r = np.random.default_rng(200 + i)
        return {"family": family, "i": i, "config": "wide",
                "t0": 0.0, "v0": 8 + 4 * r.random()}
    if family == "fixed":
        r = np.random.default_rng(300 + i)
        v0 = 8 + 4 * r.random()
        return {"family": family, "i": i, "config": "wide",
                "t0": 0.0, "v0": v0, "extra_tf": 1 + 3 * r.random()}
    if family == "safety":
        r = np.random.default_rng(400 + i)
        leader_tf = 38.6 + 0.6 * r.random()
        t0 = 2.0 + 0.4 * r.random()
        return {"family": family, "i": i, "config": "wide",
                "t0": t0, "v0": 11.5 + 0.5 * r.random(),
                "leader_v0": 10.0, "leader_tf": leader_tf}
    if family == "lateral":
        r = np.random.default_rng(500 + i)
        tm = 31.8 + 0.4 * r.random()
        v0 = 11.9 + 0.5 * r.random()
        return {"family": family, "i": i, "config": "wide",
                "t0": 2.0, "v0": v0, "lateral_tm": tm,
                "tf": tm + 2.1 + 0.3 * r.random()}
    if family == "limits":
        r = np.random.default_rng(600 + i)
        return {"family": family, "i": i, "config": "cap",
                "t0": 0.0, "v0": 9.8 + 0.9 * r.random(),
                "u_limits": (-0.2, 0.2)}
    raise ValueError(f"unknown oracle family {family!r}")


def order(n: int, seed: int) -> list:
    """A seeded permutation of range(n): the run's operation order."""
    return [int(k) for k in np.random.default_rng([0, seed]).permutation(n)]

"""Sample grids, cached arc extrema and the trajectory writer.

``PiecewiseTrajectory.dense_times`` must give the plain ``np.unique`` grid,
gap-ride arcs must scan for their extrema once, and ``write_trajectories``
must write the bytes of the per-row reference writer, also on rounding ties,
signed zeros, large numbers and trajectories longer than one block.
"""
import os
import sys

import numpy as np
import pytest

from cavcross.coordinator import TIE_EPS, GuaranteeReport
from cavcross.fixtures import FIXTURES, fixture
from cavcross.model import Arc, PiecewiseTrajectory, ScenarioConfig, VehicleArrival
from cavcross.newton import bracket_roots
from cavcross import sim
from cavcross.sim import (CavRun, RunSettings, Scenario, SimResult, apply_overrides,
                          load_scenario, run_simulation, write_trajectories)
from test_acceptance import _random_scenario
from writer_reference import write_trajectories_per_row

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import inputs  # noqa: E402


@pytest.fixture(scope="module")
def results():
    """The six fixtures and the 100 c7 scenarios, run once for this module."""
    out = [(name, run_simulation(load_scenario(fixture(name))))
           for name in sorted(FIXTURES)]
    out += [(f"c7 seed {seed}", run_simulation(load_scenario(_random_scenario(seed))))
            for seed in range(100)]
    return out


def _dense_reference(traj, step, lo=None):
    """``dense_times`` as np.unique of the concatenated times."""
    t_lo = traj.t0 if lo is None else lo
    n = max(int(np.ceil((traj.tf - t_lo) / step)) + 1, 2)
    extra = [t for arc in traj.arcs for t, _ in arc.v_extrema() + arc.u_extrema()]
    ts = np.unique(np.concatenate([np.linspace(t_lo, traj.tf, n),
                                   np.array(traj.breakpoints), np.array(extra)]))
    return ts if lo is None else ts[(ts >= t_lo) & (ts <= traj.tf)]


def _same_grid(traj, step, lo=None):
    got = traj.dense_times(step) if lo is None else traj.dense_times(step, lo)
    want = _dense_reference(traj, step, lo)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


def _bytes_both(result, tmp_path):
    """(new writer's bytes, reference writer's bytes) for one result."""
    write_trajectories(result, str(tmp_path / "new.csv"))
    write_trajectories_per_row(result, str(tmp_path / "ref.csv"))
    return ((tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes())


def _result_of(trajs, step=0.05):
    """A SimResult holding hand-built trajectories, one CAV each."""
    cfg = ScenarioConfig(v_max=30.0)
    runs = []
    for i, traj in enumerate(trajs, start=1):
        arr = VehicleArrival(id=i, t0=traj.t0, v0=float(traj.arcs[0].v(traj.t0)), road="N")
        runs.append(CavRun(arrival=arr, index=i, trajectory=traj))
    scenario = Scenario(config=cfg, arrivals=[r.arrival for r in runs],
                        run=RunSettings(sample_step=step))
    return SimResult(scenario=scenario, runs=runs, guarantees=GuaranteeReport(ok=True),
                     exit_code=0)


def _cubic_then(t_split, tail, t_end):
    """A cubic accelerating from 10 m/s, then ``tail`` ('sat', 'cruise', 'zero')."""
    head = Arc(t_start=0.0, t_end=t_split, a=0.0, b=0.2, c=10.0, d=0.0)
    v, p = head.v(t_split), head.p(t_split)
    if tail == "zero":
        mid = Arc.through(t_split, t_split, p, v, 0.0, 0.0, kind="cruise")
        end = Arc.through(t_split, t_end, p, v, 0.0, 0.2, kind="sat")
        return PiecewiseTrajectory((head, mid, end))
    if tail == "sat":
        return PiecewiseTrajectory((head, Arc.through(t_split, t_end, p, v, 0.0, -1e-12,
                                                      kind="sat")))
    return PiecewiseTrajectory((head, Arc.through(t_split, t_end, p, v, 0.0, 0.0,
                                                  kind="cruise")))


def _dipping_track():
    """A gap-ride arc with two interior v extrema and one u minimum."""
    return Arc(t_start=0.0, t_end=20.0, a=0.02, b=-0.3, c=10.0, d=0.0,
               amp=(0.5,), phi=2.0, kind="track")


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

def test_writer_matches_reference_on_fixtures_and_c7(results, tmp_path):
    declined_rows = 0
    for name, result in results:
        new, ref = _bytes_both(result, tmp_path)
        assert new == ref, name
        if result.exit_code != 0:
            declined_rows += new.count(b"\n") - 1
    # the solved CAVs of declined c7 scenarios are written too
    assert declined_rows > 0


def test_writer_matches_reference_on_hand_built_trajectories(tmp_path):
    trajs = [
        _cubic_then(5.0, "zero", 9.0),      # zero-length arc at t=5
        _cubic_then(2.5, "cruise", 7.25),   # arc starts on the 0.05 s grid
        _cubic_then(3.0, "sat", 6.0),       # u = -1e-12 prints as -0.000000000
        PiecewiseTrajectory((_dipping_track(),)),
    ]
    for step in (0.05, 0.25, 0.5):
        result = _result_of(trajs, step)
        new, ref = _bytes_both(result, tmp_path)
        assert new == ref, step
        rows = new.decode().splitlines()
        assert ",-0.000000000,sat,3" in new.decode()
        # the zero-length arc gives way to the arc after it at its start
        assert "5.000000,52.500000,11.000000,0.200000000,sat,1" in rows
        assert "2.500000,25.625000,10.500000,0.000000000,cruise,2" in rows


@pytest.fixture
def fallbacks(monkeypatch):
    """The (t, p, v, u) of every row the writer formats by f-string."""
    rows = []
    original = sim._row_fstring

    def counted(values, tail):
        rows.append(tuple(values.tolist()))
        return original(values, tail)

    monkeypatch.setattr(sim, "_row_fstring", counted)
    return rows


def _cruise(t0, t1, v, p0, kind="cruise"):
    return PiecewiseTrajectory((Arc(t_start=t0, t_end=t1, a=0.0, b=0.0, c=v,
                                    d=p0 - v * t0, kind=kind),))


def test_writer_takes_the_fstring_on_exact_ties(tmp_path, fallbacks):
    # sampled 1/128 s apart: t and the cruise's p = t are k/128 and the
    # ramp's u = t/8 is k/1024, so every odd k is an exact tie at 6 decimals
    # (t, p) and at 9 (u), which the f-string rounds half to even
    ramp = PiecewiseTrajectory((Arc(t_start=0.0, t_end=4.0, a=0.125, b=0.0, c=1.0, d=0.0),))
    new, ref = _bytes_both(_result_of([_cruise(0.0, 4.0, 1.0, 0.0), ramp], 1 / 128), tmp_path)
    assert new == ref
    rows = new.decode().splitlines()
    assert "0.007812,0.007812,1.000000,0.000000000,cruise,1" in rows
    assert "0.023438,0.023438,1.000000,0.000000000,cruise,1" in rows
    assert any(row.startswith("0.007812,") and ",0.000976562,cubic,2" in row for row in rows)
    odd = {k / 128 for k in range(1, 512, 2)}
    assert {t for t, p, _, _ in fallbacks if p == t} == odd
    assert {t for t, _, _, u in fallbacks if u == t / 8} >= odd


def test_writer_matches_reference_within_1e_13_of_a_tie(tmp_path, fallbacks):
    # p = 5e-7 + k*1e-6 lies on a 6-decimal tie up to rounding, and shifted
    # by 1e-13 either way; u likewise around 9-decimal ties
    trajs = [_cruise(0.0, 20.0, 1e-6, 5e-7 + off) for off in (-1e-13, 0.0, 1e-13)]
    trajs += [PiecewiseTrajectory((Arc(t_start=0.0, t_end=20.0, a=0.0, b=u + off,
                                       c=10.0, d=0.0, kind="sat"),))
              for u in (5e-10, -1.5e-9, 2.0000005) for off in (-1e-13, 1e-13)]
    new, ref = _bytes_both(_result_of(trajs, 1.0), tmp_path)
    assert new == ref
    assert {"0.000000", "0.000001"} <= {row.split(",")[1] for row in new.decode().splitlines()}
    assert len(fallbacks) >= 3 * 21


def test_writer_keeps_signed_zeros_and_tiny_negatives(tmp_path):
    signed = PiecewiseTrajectory((Arc(t_start=0.0, t_end=20.0, a=-0.0, b=-0.0, c=-1e-8,
                                      d=-1e-9, kind="sat"),))
    creeping = _cruise(0.0, 20.0, 1e-10, -1e-9)    # p crosses 0 at t = 10
    new, ref = _bytes_both(_result_of([signed, creeping]), tmp_path)
    assert new == ref
    assert "0.000000,-0.000000,-0.000000,-0.000000000,sat,1" in new.decode().splitlines()
    assert {row.split(",")[1] for row in new.decode().splitlines()[1:]} >= {"-0.000000",
                                                                             "0.000000"}


def test_writer_matches_reference_on_large_numbers(tmp_path):
    # p over 1000 within a block of smaller ones, p and t past 10^6, a
    # negative speed over 1000
    trajs = [_cruise(0.0, 10.0, 250.0, 0.0), _cruise(1200.0, 1210.0, 300.0, 2e6 - 5.0),
             _cruise(0.0, 5.0, -1500.0, 0.0), _cruise(1.5e6, 1.5e6 + 2.0, 12.0, 1e9)]
    new, ref = _bytes_both(_result_of(trajs), tmp_path)
    assert new == ref
    rows = [row.split(",") for row in new.decode().splitlines()[1:]]
    assert {len(p.split(".")[0]) for _, p, _, _, _, _ in rows} >= {1, 3, 4, 7, 10}
    assert ["4.000000", "-6000.000000", "-1500.000000"] in [row[:3] for row in rows]


def test_writer_matches_reference_on_a_lane_stream_longer_than_one_block(tmp_path):
    scn = apply_overrides(load_scenario(inputs.lane_stream(0, n=6)), sample_step=0.005)
    result = run_simulation(scn)
    assert result.ok
    new, ref = _bytes_both(result, tmp_path)
    assert new == ref
    rows = [row.rsplit(",", 1)[1] for row in new.decode().splitlines()[1:]]
    assert max(rows.count(str(r.arrival.id)) for r in result.runs) > sim._ROWS


def test_row_formatter_matches_fstrings_on_random_values():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-1, 1, (2000, 4)) * 10.0 ** rng.integers(-12, 10, (2000, 4)),
                        np.round(rng.uniform(-500, 500, (2000, 4)), 7)])
    x[:5, 3] = [np.nan, np.inf, -np.inf, -0.0, 1e20]
    tails = np.zeros((2, 9), dtype=np.uint8)
    tails[0, :7] = np.frombuffer(b",sat,1\n", dtype=np.uint8)
    tails[1, :9] = np.frombuffer(b",track,2\n", dtype=np.uint8)
    arcs = rng.integers(0, 2, x.shape[0])
    want = "".join(f"{t:.6f},{p:.6f},{v:.6f},{u:.9f}{(',sat,1', ',track,2')[k]}\n"
                   for (t, p, v, u), k in zip(x.tolist(), arcs.tolist()))
    assert sim._format_rows(x, tails, arcs).decode() == want


def test_writer_makes_no_arc_at_calls(monkeypatch, tmp_path):
    calls = []
    original = PiecewiseTrajectory.arc_at

    def counted(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(PiecewiseTrajectory, "arc_at", counted)
    result = run_simulation(load_scenario(fixture("fig5_safety_exit")))
    calls.clear()
    write_trajectories(result, str(tmp_path / "new.csv"))
    assert calls == []
    write_trajectories_per_row(result, str(tmp_path / "ref.csv"))
    assert len(calls) == (tmp_path / "ref.csv").read_text().count("\n") - 1


def test_arc_indices_follow_arc_at():
    traj = _cubic_then(5.0, "zero", 9.0)
    ts = np.array([0.0, 2.0, 5.0 - 1e-12, 5.0, 5.0 + 1e-12, 9.0])
    assert traj.arc_indices(ts).tolist() == [
        traj.arcs.index(traj.arc_at(t)) for t in ts.tolist()]
    assert traj.arc_indices(ts).tolist() == [0, 0, 0, 2, 2, 2]


# ---------------------------------------------------------------------------
# dense grid
# ---------------------------------------------------------------------------

def test_dense_times_match_unique_on_fixtures_and_c7(results):
    n = 0
    for name, result in results:
        for run in result.runs:
            traj = run.trajectory
            if traj is None:
                continue
            _same_grid(traj, 1e-3)
            _same_grid(traj, 1e-3, traj.t0)
            _same_grid(traj, 1e-3, traj.t0 + TIE_EPS)
            _same_grid(traj, 1e-3, 0.5 * (traj.t0 + traj.tf))
            n += 1
    assert n > 400


def test_dense_times_edge_cases():
    # breakpoints on grid points, a zero-length arc (duplicate breakpoints)
    zero = _cubic_then(5.0, "zero", 9.0)
    ts = _same_grid(zero, 0.25)
    assert ts.tolist() == (0.25 * np.arange(37)).tolist()
    # extras off the grid, some outside [lo, tf] when lo is given
    track = PiecewiseTrajectory((_dipping_track(),))
    assert len(track.arcs[0].v_extrema()) == 2 and len(track.arcs[0].u_extrema()) == 1
    for lo in (None, 0.0, 3.3, 12.0, 19.999):
        _same_grid(track, 0.3, lo)
        _same_grid(track, 1e-3, lo)
    # a last arc ending 5e-10 s before it starts puts a breakpoint past tf
    head = Arc(t_start=0.0, t_end=5.0, a=0.0, b=0.2, c=10.0, d=0.0)
    short = PiecewiseTrajectory((head, Arc.through(5.0, 5.0 - 5e-10, head.p(5.0), head.v(5.0),
                                                   0.0, 0.0, kind="cruise")))
    assert short.breakpoints[-2] > short.tf
    for lo in (None, 0.0, 2.0):
        _same_grid(short, 1e-3, lo)
    # no extras beyond the grid's own ends
    plain = PiecewiseTrajectory((Arc(t_start=1.0, t_end=4.0, a=0.0, b=0.1,
                                     c=10.0, d=0.0),))
    assert _same_grid(plain, 0.5).tolist() == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    # a TIE_EPS tie, a zero-width window at tf and an empty one past it
    for lo in (1.0 + TIE_EPS, 4.0 - TIE_EPS, 4.0, 4.0 + TIE_EPS):
        _same_grid(plain, 1e-3, lo)
        _same_grid(zero, 1e-3, lo)
    assert plain.dense_times(1e-3, 4.0).tolist() == [4.0]
    assert plain.dense_times(1e-3, 4.0 + TIE_EPS).size == 0


# ---------------------------------------------------------------------------
# extrema
# ---------------------------------------------------------------------------

def test_gap_ride_extrema_scanned_once_per_arc(monkeypatch):
    scans = {}
    held = []     # keeps every scanned arc alive so its id stays unique
    original = Arc._interior_roots

    def counted(self, fn):
        held.append(self)
        key = (id(self), fn.__name__)
        scans[key] = scans.get(key, 0) + 1
        return original(self, fn)

    monkeypatch.setattr(Arc, "_interior_roots", counted)
    result = run_simulation(load_scenario(fixture("fig3_safety_ride")))
    assert result.exit_code == 0
    rides = [arc for run in result.runs for arc in run.trajectory.arcs
             if arc.kind == "track"]
    assert rides
    for arc in rides:
        # the plan's scan, the audit and the fleet check all asked
        assert scans[id(arc), "u"] == 1 and scans[id(arc), "du"] == 1
    assert max(scans.values()) == 1


def test_extrema_from_one_vectorised_evaluation_match_the_scalar_scan(results):
    """The 256 grid values come from one array call; the roots must not move."""
    rides = [arc for _, result in results for run in result.runs
             if run.trajectory is not None
             for arc in run.trajectory.arcs if arc.kind == "track"]
    assert len(rides) > 10
    for arc in rides + [_dipping_track()]:
        grid = np.linspace(arc.t_start, arc.t_end, 256)
        scalar = [t for t in bracket_roots(arc.u, grid)
                  if arc.t_start + 1e-9 < t < arc.t_end - 1e-9]
        got = [t for t, _ in arc.v_extrema()]
        assert len(got) == len(scalar)
        assert np.allclose(got, scalar, rtol=0.0, atol=1e-12)


def test_extrema_lists_are_fresh_copies():
    arc = _dipping_track()
    v_ext, u_ext = list(arc.v_extrema()), list(arc.u_extrema())
    assert len(v_ext) == 2 and len(u_ext) == 1
    arc.v_extrema().clear()
    arc.u_extrema().append((0.0, 0.0))
    got = arc.v_extrema()
    got[0] = (1.0, 1.0)
    assert arc.v_extrema() == v_ext and arc.u_extrema() == u_ext

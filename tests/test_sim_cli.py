import copy
import csv
import json
import time

import pytest

from cavcross.fixtures import FIXTURES, fixture
from cavcross.model import ConfigError, VehicleArrival
from cavcross.sim import (_forced_trajectory, apply_overrides, load_scenario,
                          run_simulation, write_outputs)
from cavcross import cli
from guarantee_reference import check_guarantees_all_pairs, coordinator_of, solved_entries
from test_acceptance import _random_scenario


def _base():
    return fixture("fig2_unconstrained")


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------

def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_base()))
    sc = load_scenario(str(path))
    assert sc.config.L == 370.0
    assert [a.id for a in sc.arrivals] == [1, 2]
    assert sc.run.sample_step == 0.05


def test_load_scenario_sorts_arrivals_by_entry_time():
    data = _base()
    data["arrivals"].reverse()
    sc = load_scenario(data)
    assert [a.t0 for a in sc.arrivals] == sorted(a.t0 for a in sc.arrivals)


@pytest.mark.parametrize("mutate, msg", [
    (lambda d: d.update(extra=1), "unknown top-level"),
    (lambda d: d["config"].update(speed_cap=9), "unknown config"),
    (lambda d: d["arrivals"][0].update(color="red"), "unknown arrival"),
    (lambda d: d["run"].update(fast=True), "unknown run"),
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.update(arrivals=[]), "non-empty"),
    (lambda d: d["arrivals"].append(dict(d["arrivals"][0])), "unique"),
    (lambda d: d["run"].update(sample_step=0.0), "positive"),
])
def test_load_scenario_rejects_bad_input(mutate, msg):
    data = _base()
    mutate(data)
    with pytest.raises(ConfigError, match=msg):
        load_scenario(data)


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(str(path))


def test_load_scenario_builds_conflict_pairs():
    data = _base()
    data["config"]["conflict_pairs"] = [[["N", "through"], ["E", "through"]]]
    sc = load_scenario(data)
    assert sc.config.conflict.conflicts(("N", "through"), ("E", "through"))
    with pytest.raises(ConfigError):
        sc.config.conflict.conflicts(("N", "through"), ("W", "left"))


def test_apply_overrides_touches_only_requested_fields():
    sc = load_scenario(_base())
    out = apply_overrides(sc, gamma=0.25, seed=7)
    assert out.config.gamma == 0.25
    assert out.config.rng_seed == 7
    assert out.run.seed == 7
    assert out.run.sample_step == sc.run.sample_step
    assert sc.config.gamma == 0.1    # original untouched


def test_forced_profile_must_match_entry_speed():
    arr = VehicleArrival(id=1, t0=0.0, v0=11.0, road="N", force_tf=41.0,
                         force_profile=(0.0, 0.0, 10.0, 0.0))
    with pytest.raises(ConfigError, match="entry speed"):
        _forced_trajectory(arr)


def test_forced_profile_must_start_at_the_entry():
    # fig5_safety_exit's leader, moved 5 m into the zone: same speed, p(0) = 5
    a = 6.0 * (400.0 - 415.0) / 41.0**3
    raw = fixture("fig5_safety_exit")
    raw["arrivals"] = [dict(raw["arrivals"][0], force_profile=[a, 0.0, 10.0, 5.0])]
    with pytest.raises(ConfigError, match="entry position"):
        _forced_trajectory(load_scenario(raw).arrivals[0])
    result = run_simulation(load_scenario(raw))
    assert result.exit_code == 2
    assert "entry position 5.000000 != 0" in result.failure


# ---------------------------------------------------------------------------
# end-to-end fixture runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_fixture_solves_clean(name):
    t = time.time()
    result = run_simulation(load_scenario(fixture(name)))
    elapsed = time.time() - t
    assert result.exit_code == 0, result.failure
    assert result.guarantees.ok
    assert all(r.audit.ok for r in result.runs)
    assert elapsed < 1.0
    ref = check_guarantees_all_pairs(coordinator_of(result))
    assert (result.guarantees.ok, result.guarantees.violations) == (ref.ok, ref.violations)


def test_rerun_is_byte_identical(tmp_path):
    sc = load_scenario(fixture("fig3_safety_ride"))
    a = write_outputs(run_simulation(sc), str(tmp_path / "a"))
    b = write_outputs(run_simulation(sc), str(tmp_path / "b"))
    # the audit diagnostic carries wall times; the data files must not
    for key in ("trajectories", "summary"):
        assert open(a[key], "rb").read() == open(b[key], "rb").read()


def test_summary_reports_both_terminal_modes(tmp_path):
    result = run_simulation(load_scenario(fixture("fig2_unconstrained")))
    paths = write_outputs(result, str(tmp_path))
    rows = list(csv.DictReader(open(paths["summary"])))
    by_mode = {r["terminal_mode"]: r for r in rows}
    assert float(by_mode["free"]["tf"]) == pytest.approx(32.03, abs=0.05)
    assert float(by_mode["fixed"]["tf"]) == pytest.approx(33.0, abs=1e-6)


def test_trajectory_file_contract(tmp_path):
    result = run_simulation(load_scenario(fixture("fig6_lateral")))
    paths = write_outputs(result, str(tmp_path))
    with open(paths["trajectories"]) as fh:
        header = fh.readline().strip()
        assert header == "t,p,v,u,arc_kind,cav_id"
        rows = [line.strip().split(",") for line in fh]
    # every breakpoint appears as an exact sample row; the merging-zone
    # entry of the pinned follower lands on the boundary to the metre
    assert ["32.027000", "370.000000"] in [[r[0], r[1]] for r in rows]
    kinds = {r[4] for r in rows}
    assert kinds <= {"cubic", "track", "sat", "cruise"}


def test_audit_file_carries_verdict(tmp_path):
    result = run_simulation(load_scenario(fixture("fig7_uvmax")))
    paths = write_outputs(result, str(tmp_path), label="fig7_uvmax")
    text = open(paths["audit"]).read()
    assert "PASS" in text
    assert "control upper bound" in text
    assert "fig7_uvmax" in text


def test_infeasible_run_reports_exit_two(tmp_path):
    data = fixture("fig2_unconstrained")
    data["arrivals"] = [dict(id=1, t0=0.0, v0=10.0, road="N", force_tf=10.0)]
    result = run_simulation(load_scenario(data))
    assert result.exit_code == 2
    assert result.failure
    paths = write_outputs(result, str(tmp_path))
    assert "violation" in open(paths["audit"]).read()


def test_declined_scenario_checks_the_solved_vehicles(tmp_path):
    # c7 seed 5 solves six CAVs, then CAV 8 declines
    result = run_simulation(load_scenario(_random_scenario(5)))
    assert result.exit_code == 2
    assert result.failure.endswith("combination safety+lateral not supported")
    solved = [r for r in result.runs if r.trajectory is not None]
    assert len(solved) == 6
    coord = coordinator_of(result)
    assert len(solved_entries(coord)) == 6
    ref = check_guarantees_all_pairs(coord)
    assert (result.guarantees.ok, result.guarantees.violations) == (ref.ok, ref.violations)
    assert result.guarantees.ok
    text = open(write_outputs(result, str(tmp_path))["audit"]).read()
    assert "evaluated on the 6 CAVs solved before CAV 8 declined" in text
    assert "all pairs ok" in text
    assert "not evaluated" not in text
    assert "verdict: FAIL (CAV 8: InfeasibleProblem" in text


# ---------------------------------------------------------------------------
# command-line entry point
# ---------------------------------------------------------------------------

def test_cli_fixture_run(tmp_path, capsys):
    code = cli.main(["run", "--fixture", "fig7_uvmax", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "summary.csv" in out
    assert (tmp_path / "summary.csv").exists()


def test_cli_scenario_file_run(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(fixture("fig3_safety_ride")))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "trajectories.csv").exists()


def test_cli_seed_override_changes_nothing_for_single_lane(tmp_path):
    base = tmp_path / "a"
    alt = tmp_path / "b"
    assert cli.main(["run", "--fixture", "fig3_safety_ride",
                     "--out", str(base)]) == 0
    assert cli.main(["run", "--fixture", "fig3_safety_ride",
                     "--out", str(alt), "--seed", "9"]) == 0
    assert open(base / "summary.csv").read() == open(alt / "summary.csv").read()


def test_cli_oracle_run_on_a_gap_ride(tmp_path, capsys):
    # the follower rides the rear-end gap bound to the exit; the oracle
    # solves each CAV's transcription at the default 0.01 s step
    start = time.perf_counter()
    code = cli.main(["run", "--fixture", "fig3_safety_ride", "--out", str(tmp_path),
                     "--oracle"])
    assert code == 0
    assert time.perf_counter() - start < 10.0
    capsys.readouterr()
    audit_lines = [line for line in (tmp_path / "audit.txt").read_text().splitlines()
                   if line.startswith("oracle:")]
    assert len(audit_lines) == 2
    assert all("feasible=True" in line for line in audit_lines)
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["active"] for r in rows] == ["none", "rear_end"]
    for row in rows:
        assert float(row["oracle_gap_pct"]) <= 0.5


def test_cli_rejects_bad_usage(tmp_path, capsys):
    assert cli.main(["run", "--fixture", "fig7_uvmax", "nope.json",
                     "--out", str(tmp_path)]) == 1
    assert cli.main(["run", "--out", str(tmp_path)]) == 1
    assert cli.main(["run", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 1
    assert cli.main(["run", "--fixture", "not_a_fixture"]) == 1
    capsys.readouterr()


def test_cli_propagates_solver_failure(tmp_path, capsys):
    path = tmp_path / "s.json"
    data = fixture("fig2_unconstrained")
    data["arrivals"] = [dict(id=1, t0=0.0, v0=10.0, road="N", force_tf=10.0)]
    path.write_text(json.dumps(data))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert "InfeasibleProblem" in captured.out
    assert "audit.txt" in captured.err

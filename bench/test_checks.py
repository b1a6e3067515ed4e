"""The benchmark's result checks pass on the program's output and fail on
each injected fault: a shifted exit time, a rear-end gap breach, a
merging-zone overlap and a perturbed cost.

    python3 -m pytest bench/test_checks.py -q
"""
import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
from cavcross import sim, solver, verifier  # noqa: E402
from cavcross.model import ScenarioConfig  # noqa: E402

# c7 scenario 63: six CAVs, all solved; CAV 6 rides the gap behind CAV 4 on
# road N, and CAV 1 (road E) holds until CAV 6 has left the merging zone
SEED = 63


def names(failures):
    return {f.split(":", 1)[0] for f in failures}


@pytest.fixture
def written(tmp_path):
    scn = inputs.sweep_scenario(SEED)
    result = sim.run_simulation(sim.load_scenario(scn))
    assert result.ok
    sim.write_outputs(result, str(tmp_path))
    return scn, str(tmp_path)


def edit(path, fn):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = [lines[0]] + [fn(line) for line in lines[1:]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def edit_field(outdir, table, cav, column, change):
    """Apply ``change`` to one column of every row of one CAV."""
    path = os.path.join(outdir, table)
    with open(path, encoding="utf-8") as fh:
        cols = fh.readline().strip().split(",")
    k, c = cols.index(column), cols.index("cav_id")

    def fn(line):
        cells = line.split(",")
        if int(cells[c]) == cav:
            cells[k] = repr(float(change(float(cells[k]))))
        return ",".join(cells)
    edit(path, fn)


def test_program_output_passes(written):
    scn, outdir = written
    bad, solved = checks.check_scenario(scn, outdir, accepted=True)
    assert bad == []
    assert solved == len(scn["arrivals"])


def test_shifted_exit_time_fails(written):
    scn, outdir = written
    edit_field(outdir, "summary.csv", 3, "tf", lambda tf: tf + 0.01)
    bad, _ = checks.check_scenario(scn, outdir, accepted=True)
    assert "exit time" in names(bad)


def test_gap_breach_fails(written):
    scn, outdir = written
    tracks = checks.read_tracks(os.path.join(outdir, "trajectories.csv"))
    lead, me = tracks[4], tracks[6]
    lim = checks.Limits.of(scn["config"])
    slack = checks.hermite(lead, me.t) - me.p - lim.phi * me.v
    # push CAV 6 forward by its smallest gap plus half a metre
    push = float(slack.min()) + 0.5
    edit_field(outdir, "trajectories.csv", 6, "p", lambda p: p + push)
    bad, _ = checks.check_scenario(scn, outdir, accepted=True)
    assert "rear-end gap" in names(bad)


def test_merging_zone_overlap_fails(written):
    scn, outdir = written
    tracks = checks.read_tracks(os.path.join(outdir, "trajectories.csv"))
    lim = checks.Limits.of(scn["config"])
    t_in = checks.crossing_time(tracks[1], lim.L)
    # stretch CAV 6's exit past CAV 1's merging-zone entry
    late = t_in + 0.5 - tracks[6].t[-1]
    assert late > 0
    t_last = float(tracks[6].t[-1])
    edit_field(outdir, "trajectories.csv", 6, "t",
               lambda t: t + late if t == t_last else t)
    bad, _ = checks.check_scenario(scn, outdir, accepted=True)
    assert "merging zone" in names(bad)


def test_perturbed_cost_fails(written):
    scn, outdir = written
    edit_field(outdir, "summary.csv", 2, "J", lambda J: J * 1.001)
    bad, _ = checks.check_scenario(scn, outdir, accepted=True)
    assert names(bad) == {"cost rebuilt by quadrature"}


def test_accepted_scenario_must_solve_every_cav(written):
    scn, outdir = written
    extra = dict(scn, arrivals=scn["arrivals"] + [dict(id=99, t0=99.0, v0=10.0, road="N")])
    bad, _ = checks.check_scenario(extra, outdir, accepted=True)
    assert any(b.startswith("accepted scenario") for b in bad)


@pytest.fixture(scope="module")
def oracle_case():
    inst = inputs.oracle_instance("fixed", 0)
    cfg = ScenarioConfig(**inputs.ORACLE_CONFIGS[inst["config"]])
    _, base = solver.solve_p0_free(inst["t0"], inst["v0"], cfg)
    _, traj = solver.solve_p1_fixed(inst["t0"], inst["v0"], base.tf + inst["extra_tf"], cfg)
    res = verifier.transcription_oracle(inst["t0"], inst["v0"], cfg, tf=traj.tf,
                                        dt=inputs.ORACLE_DT, iters=inputs.ORACLE_ITERS["fixed"],
                                        seed=100)
    lim = checks.Limits.of(inputs.ORACLE_CONFIGS[inst["config"]])
    return inst, traj, traj.cost(cfg.gamma).objective, res, lim


def test_oracle_result_passes(oracle_case):
    inst, traj, closed, res, lim = oracle_case
    assert checks.check_oracle(inst, traj, closed, res, lim) == []


def test_oracle_beaten_closed_form_fails(oracle_case):
    inst, traj, closed, res, lim = oracle_case
    bad = checks.check_oracle(inst, traj, closed * 1.01, res, lim)
    assert {"oracle bound", "cost rebuilt by quadrature"} <= names(bad)


def test_oracle_perturbed_cost_fails(oracle_case):
    inst, traj, closed, res, lim = oracle_case
    fake = dataclasses.replace(res, cost=res.cost * 0.99)
    assert "oracle cost" in names(checks.check_oracle(inst, traj, closed, fake, lim))


def test_oracle_shifted_exit_fails(oracle_case):
    inst, traj, closed, res, lim = oracle_case
    fake = dataclasses.replace(res, tf=res.tf + 0.5)
    assert "oracle feasibility" in names(checks.check_oracle(inst, traj, closed, fake, lim))

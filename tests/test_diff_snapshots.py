"""``tools/diff_snapshots.py`` on two hand-written snapshot trees."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "diff_snapshots.py")
_spec = importlib.util.spec_from_file_location("diff_snapshots", _PATH)
diff_snapshots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_snapshots)

SUMMARY = ("cav_id,road,lane,t0,v0,tf,travel_time,energy,J,active,binding,terminal_mode\n"
           "1,N,0,0.000,10.000,41.000000,41.000000,0.123456,4.223456,none,,free\n")
TRAJ = ("t,p,v,u,arc_kind,cav_id\n"
        "0.000000,0.000000,10.000000,0.100000000,cubic,1\n"
        "0.050000,0.500125,10.005000,0.099000000,cubic,1\n")
AUDIT = ("audit report: demo\n"
         "[ok ] rear-end gap: worst 1.137e-13 at t=31.678 (tol 1e-06)\n"
         "  step: {'problem': 'violation', 't': 6.873256622431047, 'round': 0}\n"
         "verdict: PASS\n")


def _tree(root, summary=SUMMARY, traj=TRAJ, audit=AUDIT):
    run = root / "fixtures" / "demo"
    run.mkdir(parents=True)
    for name, text in (("summary.csv", summary), ("trajectories.csv", traj),
                       ("audit.txt", audit)):
        if text is not None:
            (run / name).write_text(text)
    return str(root)


def _run(tmp_path, capsys, **after):
    code = diff_snapshots.main([_tree(tmp_path / "before"), _tree(tmp_path / "after", **after)])
    return code, capsys.readouterr().out


def _fields(out, kind, column):
    """(differing, compared, largest difference, same value in other text) of one column."""
    for line in out.splitlines():
        if line.startswith(kind) and line[18:62].strip() == column:
            differ, largest, retext = line[62:].split()
            n, total = differ.split("/")
            return int(n), int(total), float(largest), int(retext)
    raise AssertionError(f"no row for {kind} {column}:\n{out}")


def _row(out, kind, column):
    """(differing, compared, largest difference) of one printed column."""
    return _fields(out, kind, column)[:3]


def test_identical_trees_are_the_same(tmp_path, capsys):
    code, out = _run(tmp_path, capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("SAME: 0 non-numeric differences")
    assert _row(out, "summary.csv", "J") == (0, 1, 0.0)
    assert _row(out, "audit.txt", "rear-end gap: t=") == (0, 1, 0.0)
    assert _row(out, "audit.txt", "step: 't':") == (0, 1, 0.0)


def test_numbers_within_the_bound_pass(tmp_path, capsys):
    code, out = _run(tmp_path, capsys,
                     audit=AUDIT.replace("1.137e-13", "5.684e-14"),
                     summary=SUMMARY.replace("4.223456", "4.2234560000004"))
    assert code == 0
    assert _row(out, "audit.txt", "rear-end gap: worst") == (1, 1, pytest.approx(5.686e-14))
    assert _row(out, "summary.csv", "J") == (1, 1, pytest.approx(4e-13, rel=1e-3))
    assert "text " not in out


@pytest.mark.parametrize("after, column", [
    (dict(audit=AUDIT.replace("t=31.678", "t=43.300")), "rear-end gap: t="),
    (dict(traj=TRAJ.replace("0.500125", "0.500126")), "p"),
])
def test_a_number_beyond_the_bound_fails(tmp_path, capsys, after, column):
    code, out = _run(tmp_path, capsys, **after)
    assert code == 1
    assert _row(out, "audit.txt" if "audit" in after else "trajectories.csv",
                column)[0] == 1
    assert out.splitlines()[-1].startswith("DIFFERENT: 0 non-numeric differences")


@pytest.mark.parametrize("after, shown", [
    (dict(audit=AUDIT.replace("[ok ] rear-end", "[FAIL] rear-end")), "[FAIL] rear-end"),
    (dict(audit=AUDIT.replace("PASS", "FAIL")), "verdict: FAIL"),
    (dict(traj=TRAJ.replace("0.099000000,cubic", "0.099000000,track")), "'track'"),
    (dict(summary=SUMMARY.replace("none", "speed+")), "'speed+'"),
    (dict(traj=TRAJ + "0.100000,1.000500,10.010000,0.098000000,cubic,1\n"),
     "3 lines -> 4 lines"),
    (dict(audit=None), "only in"),
])
def test_every_non_numeric_difference_fails_and_is_printed(tmp_path, capsys, after, shown):
    code, out = _run(tmp_path, capsys, **after)
    assert code == 1
    assert any(line.startswith("text ") and shown in line for line in out.splitlines())
    assert out.splitlines()[-1].startswith("DIFFERENT: 1 non-numeric difference")


def test_numbers_equal_in_value_but_not_in_text_are_counted(tmp_path, capsys):
    # a zero that gained a sign, an exponent form, a trailing zero: all the
    # same values, so counted and listed but not failed
    traj = TRAJ.replace("0.000000,0.000000,10", "0.000000,-0.000000,10").replace(
        "0.100000000", "1.000e-01")
    code, out = _run(tmp_path, capsys, traj=traj,
                     audit=AUDIT.replace("t=31.678", "t=31.6780"))
    assert code == 0
    assert _fields(out, "trajectories.csv", "p") == (0, 2, 0.0, 1)
    assert _fields(out, "trajectories.csv", "u") == (0, 2, 0.0, 1)
    assert _fields(out, "trajectories.csv", "v") == (0, 2, 0.0, 0)
    assert _fields(out, "audit.txt", "rear-end gap: t=") == (0, 1, 0.0, 1)
    listed = [line for line in out.splitlines() if line.startswith("same value, other text")]
    assert listed == [
        "same value, other text  audit.txt rear-end gap: t=: fixtures/demo/audit.txt",
        "same value, other text  trajectories.csv p: fixtures/demo/trajectories.csv",
        "same value, other text  trajectories.csv u: fixtures/demo/trajectories.csv"]
    assert out.splitlines()[-1].startswith("SAME: 0 non-numeric differences")
    assert out.splitlines()[-1].endswith(", 3 numbers equal in value but not in text")


def test_usage(tmp_path, capsys):
    assert diff_snapshots.main([str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err

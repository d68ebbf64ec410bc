from pathlib import Path

import pytest

from evmarket.cli import main
from evmarket.dso_agent import ConvergenceError

SMALL = """
seed = 3
grid:
  slot_minutes = 15
  num_slots = 2
dso:
  quadratic_cost = 0.06
  linear_cost = 0.9
  power_max = 100
storage:
  power_min = -100
  power_max = 100
  energy_initial = 100
  energy_reference = 100
solver:
  initial_price = 16
ev:
  id = a
  arrival = 0
  departure = 2
  power_max = 22
  weight = 10
  energy = 6
ev:
  id = b
  arrival = 0
  departure = 2
  power_max = 22
  weight = 10
  energy = 3
"""

BROKEN = """
grid:
  slot_minutes = 15
  num_slots = 2
dso:
  quadratic_cost = 0.06
  linear_cost = 0.9
  power_max = 100
ev:
  id = a
  arrival = 0
  departure = 2
  power_max = 22
  weight = 10
  loss_fraction = 1.2
  energy = 6
"""


@pytest.fixture
def small_file(tmp_path) -> Path:
    path = tmp_path / "small.scenario"
    path.write_text(SMALL)
    return path


def test_run_writes_three_tables(tmp_path, small_file, capsys):
    out = tmp_path / "results"
    code = main(["run", str(small_file), "--out", str(out)])
    assert code == 0
    for name in ("slots.csv", "evs.csv", "summary.csv"):
        assert (out / name).exists()
    assert "2 slots" in capsys.readouterr().out


def test_uncontrolled_command(tmp_path, small_file):
    out = tmp_path / "u"
    assert main(["uncontrolled", str(small_file), "--out", str(out)]) == 0
    lines = (out / "slots.csv").read_text().splitlines()
    assert len(lines) == 3


def test_validate_broken_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.scenario"
    path.write_text(BROKEN)
    assert main(["validate", str(path)]) == 1
    assert "loss fraction" in capsys.readouterr().out


def test_validate_clean_scenario_exits_0(small_file, capsys):
    assert main(["validate", str(small_file)]) == 0
    assert "ok" in capsys.readouterr().out


def test_run_broken_scenario_exits_1(tmp_path, small_file):
    path = tmp_path / "broken.scenario"
    path.write_text(BROKEN)
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 1


def test_missing_file_exits_3(tmp_path):
    assert main(["run", str(tmp_path / "nope.scenario"), "--out", str(tmp_path)]) == 3


def test_verify_small_scenario_within_one_percent(small_file, capsys):
    code = main(["verify", str(small_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "gap" in out


def test_verify_respects_oracle_cap(small_file, capsys):
    # the one-slot instance has small welfare, so tighten the balance to keep
    # the relative gap meaningful
    code = main(
        [
            "verify",
            str(small_file),
            "--oracle-cap",
            "1",
            "--set",
            "solver.balance_tolerance=0.005",
        ]
    )
    assert code == 0
    assert "window 1 slots" in capsys.readouterr().out


def test_set_override_changes_solver(tmp_path, small_file, capsys):
    out = tmp_path / "o"
    code = main(
        [
            "run",
            str(small_file),
            "--out",
            str(out),
            "--set",
            "solver.max_iterations=1",
        ]
    )
    # one price update cannot clear the market here
    assert code == 2
    text = (out / "slots.csv").read_text()
    assert "false" in text


def test_set_override_validates(tmp_path, small_file):
    code = main(
        ["run", str(small_file), "--out", str(tmp_path / "x"), "--set", "dso.quadratic_cost=-1"]
    )
    assert code == 1


def test_bad_override_key_rejected(tmp_path, small_file):
    assert main(["run", str(small_file), "--out", str(tmp_path), "--set", "nope.key=1"]) == 1


def test_seed_is_inert_for_explicit_sessions(tmp_path, small_file):
    out_a = tmp_path / "sa"
    out_b = tmp_path / "sb"
    assert main(["run", str(small_file), "--out", str(out_a)]) == 0
    assert main(["run", str(small_file), "--out", str(out_b), "--seed", "99"]) == 0
    for name in ("slots.csv", "evs.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_generated_fleet(tmp_path, capsys):
    text = """
grid:
  slot_minutes = 15
  num_slots = 6
dso:
  quadratic_cost = 0.06
  linear_cost = 0.9
  power_max = 100
fleet:
  count = 3
  power_max = 22
  weight = 10
seed = 1
"""
    path = tmp_path / "fleet.scenario"
    path.write_text(text)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["run", str(path), "--out", str(out_a)]) in (0, 2)
    assert main(["run", str(path), "--out", str(out_b), "--seed", "1"]) in (0, 2)
    assert main(["run", str(path), "--out", str(out_c), "--seed", "2"]) in (0, 2)
    assert (out_a / "evs.csv").read_bytes() == (out_b / "evs.csv").read_bytes()
    assert (out_a / "evs.csv").read_bytes() != (out_c / "evs.csv").read_bytes()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_supplier_failure_exits_2(tmp_path, small_file, capsys, monkeypatch, command):
    import evmarket.coordinator

    def failing_supplier(*args, **kwargs):
        raise ConvergenceError("supplier solve stalled at residual 1.000e+00", 1.0)

    monkeypatch.setattr(evmarket.coordinator, "solve_dso", failing_supplier)
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(small_file), *extra]) == 2
    err = capsys.readouterr().err
    assert err == "error: supplier solve stalled at residual 1.000e+00\n"

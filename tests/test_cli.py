import math
import re
import warnings
from pathlib import Path

import pytest

from evmarket import parse_scenario, run
from evmarket.cli import main
from evmarket.dso_agent import ConvergenceError

from conftest import SCENARIO_DIR

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


def test_verify_small_scenario_within_one_percent(small_file, capsys, monkeypatch):
    """`verify` certifies the day `run` settles, slot by slot, with the
    iterations `run` takes, writes no file and reports a day gap within 1%."""
    import evmarket.cli

    negotiate_window = evmarket.cli.negotiate_window
    iterations = []

    def counted(state, config):
        result = negotiate_window(state, config)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(evmarket.cli, "negotiate_window", counted)
    monkeypatch.chdir(small_file.parent)
    assert main(["verify", str(small_file)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert sorted(p.name for p in small_file.parent.iterdir()) == ["small.scenario"]
    day = run(parse_scenario(small_file.read_bytes()))
    assert iterations == [rec.iterations for rec in day.records]
    head, sums, residuals = out.splitlines()
    assert head.startswith(f"2 slots, {sum(iterations)} dual iterations, ")
    assert head.endswith("flagged slots 0")
    relative = float(re.search(r"\(relative ([^)]+)\)", sums).group(1))
    assert 0.0 <= relative <= 0.01
    agents = [float(v) for v in re.findall(r"residual ([-+.e\d]+)", residuals)]
    assert len(agents) == 2 and max(agents) < 1e-9


def test_verify_names_slots_whose_demand_leaves_the_generation_box(small_file, capsys):
    """5 kW of generation cannot serve 9 kWh in two 15-minute slots: no price
    clears either slot, so `verify` certifies neither, names both with their
    overshoot and exits 2."""
    assert main(["verify", str(small_file), "--set", "dso.power_max=5"]) == 2
    out, err = capsys.readouterr()
    assert "flagged slots 2" in out
    named = re.findall(r"^error: slot (\d) not certified: demand leaves the generation box", err, re.M)
    assert named == ["0", "1"]



def test_verify_of_huge_powers_warns_nothing_and_keeps_its_numbers_short(capsys):
    """Powers near 1e300 leave every slot outside the generation box: `verify`
    certifies none and exits 2, its objectives overflow to inf without a
    RuntimeWarning (the suite makes one an error), and its overshoot and
    balance residual print in exponent form, not as numbers of 300 digits."""
    overrides = ["fleet.power_max=1e300", "dso.power_max=1e300", "solver.max_iterations=5"]
    args = [arg for entry in overrides for arg in ("--set", entry)]
    fleet = Path(__file__).parent / "data" / "fleet-run.scenario"
    assert main(["verify", str(fleet), *args]) == 2
    out, err = capsys.readouterr()
    assert "not certified" in err and "max balance residual" in out
    assert max(map(len, (out + err).split())) <= 20

@pytest.mark.parametrize(
    "args, message",
    [
        (["run"], "the following arguments are required: scenario"),
        (["run", "{small}", "--bogus"], "unrecognized arguments: --bogus"),
        (["run", "{small}", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["verify", "{small}", "--oracle-cap", "1"], "unrecognized arguments: --oracle-cap 1"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_errors_exit_1(small_file, capsys, args, message):
    """A usage error is invalid input (exit 1), never a flagged slot (exit 2);
    argparse's usage and error lines are still printed."""
    code = main([arg.format(small=small_file) for arg in args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage: evmarket")
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, args):
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("usage: evmarket")


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


def test_huge_prices_give_a_finite_summary(tmp_path, small_file, capsys):
    """A step of 1e300 drives the prices past 1e300, whose squares overflow;
    the summary's spread is still finite, and no RuntimeWarning is raised."""
    out = tmp_path / "o"
    args = ["--set", "solver.step_size=1e300", "--set", "solver.max_iterations=5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(small_file), "--out", str(out), *args]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    header, row = (out / "summary.csv").read_text().splitlines()
    summary = dict(zip(header.split(","), map(float, row.split(","))))
    assert summary["price_mean"] > 1e300
    assert all(math.isfinite(v) for v in summary.values())


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        (SCENARIO_DIR / "small.scenario", ["solver.step_size=1e300"]),
        (
            Path(__file__).parent / "data" / "fleet-run.scenario",
            ["fleet.power_max=1e300", "dso.power_max=1e300"],
        ),
    ],
    ids=["prices", "powers"],
)
def test_console_summary_keeps_its_numbers_short(tmp_path, capsys, scenario, overrides):
    """Prices near 1e301, or a peak demand near 1e302, print in exponent
    form, not as numbers of 300 digits."""
    args = [arg for entry in overrides for arg in ("--set", entry)]
    args += ["--set", "solver.max_iterations=5", "--out", str(tmp_path / "o")]
    assert main(["run", str(scenario), *args]) == 2
    tokens = capsys.readouterr().out.split()
    assert "mean" in tokens and max(map(len, tokens)) <= 20


def test_console_summary_of_a_normal_day(tmp_path, capsys):
    assert main(["run", str(SCENARIO_DIR / "small.scenario"), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 slots, peak demand 21.63 kW, delivered 9.00 kWh, unmet 0.0000 kWh",
        "price mean 8.526 stdev 0.690 cent/kWh, max dual iterations 90, non-converged slots 0",
    ]


def test_set_override_validates(tmp_path, small_file):
    code = main(
        ["run", str(small_file), "--out", str(tmp_path / "x"), "--set", "dso.quadratic_cost=-1"]
    )
    assert code == 1


def test_overrides_apply_before_validation(tmp_path, capsys):
    """An override can repair a file entry: the scenario is validated once
    the overrides are applied, not as the file is parsed."""
    text = (SCENARIO_DIR / "small.scenario").read_text()
    path = tmp_path / "negative-step.scenario"
    path.write_text(text.replace("  initial_price = 16\n", "  initial_price = 16\n  step_size = -1\n"))
    assert_rejected(path, capsys, "solver: step_size must be positive")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), "--set", "solver.step_size=0.001"]) == 0
    assert (out / "summary.csv").exists()


def test_run_validates_the_scenario_once(tmp_path, small_file, monkeypatch):
    """``evmarket run`` checks the invariants at one point, the simulation's
    start, wherever ``validate_scenario`` is imported."""
    import evmarket.cli
    import evmarket.model
    import evmarket.mpc_loop
    import evmarket.scenario_io

    calls = []
    validate = evmarket.model.validate_scenario

    def spied(scenario):
        calls.append(scenario)
        return validate(scenario)

    for module in (evmarket.cli, evmarket.model, evmarket.mpc_loop, evmarket.scenario_io):
        monkeypatch.setattr(module, "validate_scenario", spied)
    assert main(["run", str(small_file), "--out", str(tmp_path / "o"), "--seed", "4"]) == 0
    assert len(calls) == 1 and calls[0].seed == 4


def assert_rejected(path, capsys, message, *overrides):
    """``run`` exits 1 naming ``message`` on stderr and writes nothing."""
    out = path.parent / "out"
    assert main(["run", str(path), "--out", str(out), *overrides]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario\n") and message in err
    assert not out.exists()


@pytest.mark.parametrize("departure", ["3", "50", "99999999999999999999"])
def test_departure_after_the_horizon_is_rejected(tmp_path, capsys, departure):
    """A vehicle may stay to the end of the day, not past it: its windows
    would run past the last slot."""
    path = tmp_path / "late.scenario"
    path.write_text(SMALL.replace("  departure = 2\n", f"  departure = {departure}\n", 1))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "ev a: departure after the horizon\n"
    assert_rejected(path, capsys, "ev a: departure after the horizon")


def test_zero_vehicle_weight_is_rejected(tmp_path, capsys):
    """The water-filling solve divides by the weight, so a vehicle with
    weight 0 is invalid rather than run to the iteration cap."""
    path = tmp_path / "zero.scenario"
    path.write_text(SMALL.replace("  weight = 10\n  energy = 3\n", "  weight = 0\n  energy = 3\n"))
    assert main(["validate", str(path)]) == 1
    assert "ev b: weight must be positive" in capsys.readouterr().out
    assert_rejected(path, capsys, "ev b: weight must be positive")


def test_zero_fleet_weight_override_is_rejected(tmp_path, capsys):
    path = tmp_path / "fleet.scenario"
    path.write_text(SMALL + "fleet:\n  count = 3\n  power_max = 22\n  weight = 10\n")
    assert_rejected(path, capsys, "fleet: weight must be positive", "--set", "fleet.weight=0")


def test_zero_tracking_weight_override_is_rejected(tmp_path, capsys):
    path = tmp_path / "small.scenario"
    path.write_text(SMALL)
    message = "storage: tracking not strictly convex"
    assert_rejected(path, capsys, message, "--set", "storage.tracking_weight=0")


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


def test_late_supplier_failure_flags_the_slot(tmp_path, small_file, capsys, monkeypatch):
    """A supplier failure after a slot's first iteration settles that slot at
    the previous iteration; the run goes on, writes its tables and exits 2."""
    import evmarket.coordinator

    solve_dso = evmarket.coordinator.solve_dso
    calls = {}

    def supplier_failing_in_slot_1(sub, *args, **kwargs):
        slot = sub.window.start
        calls[slot] = calls.get(slot, 0) + 1
        if slot == 1 and calls[slot] == 11:
            raise ConvergenceError("supplier solve stalled at residual 1.000e+00", 1.0)
        return solve_dso(sub, *args, **kwargs)

    monkeypatch.setattr(evmarket.coordinator, "solve_dso", supplier_failing_in_slot_1)
    out = tmp_path / "out"
    assert main(["run", str(small_file), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "non-converged slots 1" in captured.out
    assert captured.err == (
        "error: slot 1 settled at iteration 9: supplier solve stalled at residual 1.000e+00\n"
    )
    for name in ("slots.csv", "evs.csv", "summary.csv"):
        assert (out / name).is_file()
    rows = [line.split(",") for line in (out / "slots.csv").read_text().splitlines()[1:]]
    # slot, iterations, converged: slot 1 settled at iteration 9.
    assert [(r[0], r[7], r[9]) for r in rows] == [("0", "90", "true"), ("1", "9", "false")]


def test_late_nan_imbalance_flags_the_slot(tmp_path, small_file, capsys, monkeypatch):
    """A NaN supplier answer after a slot's first iteration is settled like a
    supplier failure: the slot is flagged and the reason printed."""
    import evmarket.coordinator

    solve_dso = evmarket.coordinator.solve_dso
    calls = {}

    def supplier_nan_in_slot_1(sub, *args, **kwargs):
        slot = sub.window.start
        calls[slot] = calls.get(slot, 0) + 1
        sol = solve_dso(sub, *args, **kwargs)
        if slot == 1 and calls[slot] == 11:
            sol.generation_values = [math.nan] + sol.generation_values[1:]
        return sol

    monkeypatch.setattr(evmarket.coordinator, "solve_dso", supplier_nan_in_slot_1)
    out = tmp_path / "out"
    assert main(["run", str(small_file), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "non-converged slots 1" in captured.out
    assert captured.err == (
        "error: slot 1 settled at iteration 9: non-finite balance residual (nan) at iteration 10\n"
    )
    rows = [line.split(",") for line in (out / "slots.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[7], r[9]) for r in rows] == [("0", "90", "true"), ("1", "9", "false")]


def test_late_supplier_failure_in_verify_names_the_error(small_file, capsys, monkeypatch):
    """A supplier failure at the day's 11th call settles slot 0 at iteration
    9; `verify` flags that slot with `run`'s error line and exits 2."""
    import evmarket.coordinator

    solve_dso = evmarket.coordinator.solve_dso
    calls = 0

    def supplier_failing_on_call_11(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 11:
            raise ConvergenceError("supplier solve stalled at residual 1.000e+00", 1.0)
        return solve_dso(*args, **kwargs)

    monkeypatch.setattr(evmarket.coordinator, "solve_dso", supplier_failing_on_call_11)
    assert main(["verify", str(small_file)]) == 2
    captured = capsys.readouterr()
    assert "flagged slots 1" in captured.out
    assert captured.err == (
        "error: slot 0 settled at iteration 9: supplier solve stalled at residual 1.000e+00\n"
    )

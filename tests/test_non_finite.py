"""Non-finite numbers never reach the agents.

Scenario files cannot hold them (``test_robustness.py``), but a scenario built
in Python passes only through ``validate_scenario``, and the price loop can
overflow on its own: a huge step multiplies a finite imbalance into an
infinite price.  The suite turns every ``RuntimeWarning`` into an error, so
these tests also show that no agent is solved at an infinite price.
"""
import math
import re
from dataclasses import fields, replace

import pytest

from evmarket import (
    DSOSpec,
    DSOSubproblem,
    FleetSpec,
    ScenarioValidationError,
    SolverConfig,
    StorageSpec,
    TimeGrid,
    negotiate_slot,
    parse_scenario,
    run,
    validate_scenario,
)
from evmarket.cli import main

from conftest import SCENARIO_DIR

SMALL = SCENARIO_DIR / "small.scenario"
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def scenario():
    """small.scenario plus a generated fleet, so that every section is present."""
    base = parse_scenario(SMALL.read_bytes())
    fleet = FleetSpec(count=2, power_max=22.0, weight=10.0)
    scenario = replace(base, fleet=fleet)
    assert validate_scenario(scenario).ok
    return scenario


# Scenario attribute -> the label its validation lines start with.
SECTIONS = {
    "grid": "grid:",
    "dso": "dso:",
    "storage": "storage:",
    "solver": "solver:",
    "fleet": "fleet:",
    "evs": "ev a:",
}


def float_fields(scenario, attr):
    owner = getattr(scenario, attr)
    owner = owner[0] if attr == "evs" else owner
    return [f.name for f in fields(owner) if f.type == "float"]


def with_value(scenario, attr, name, value):
    owner = getattr(scenario, attr)
    if attr == "evs":
        return replace(scenario, evs=(replace(owner[0], **{name: value}),) + owner[1:])
    return replace(scenario, **{attr: replace(owner, **{name: value})})


def test_every_section_has_float_fields(scenario):
    assert all(float_fields(scenario, attr) for attr in SECTIONS)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("attr", SECTIONS)
def test_non_finite_floats_are_reported_by_section(scenario, attr, value):
    for name in float_fields(scenario, attr):
        changed = with_value(scenario, attr, name, value)
        if (attr, name, value) == ("dso", "power_max", math.inf):
            assert validate_scenario(changed).ok  # an unbounded supplier
            continue
        report = validate_scenario(changed)
        assert any(line.startswith(SECTIONS[attr]) for line in report.violations), name
        with pytest.raises(ScenarioValidationError):
            run(changed)


# A one-slot market with no vehicle, for the price loop's settings checks.
IDLE_SLOT = DSOSubproblem(
    DSOSpec(0.06, 0.9, 0.0, 100.0), StorageSpec(0.0, 0.0, 0.0, 0.0), 0.0, TimeGrid(0, 1, 0.25)
)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["step_size", "balance_tolerance", "max_iterations"])
def test_convergence_config_rejects_non_finite(name, value):
    """The price loop refuses loop settings that are not finite."""
    with pytest.raises(ValueError):
        negotiate_slot([], IDLE_SLOT, [1.0], SolverConfig(**{name: value}))


@pytest.mark.parametrize("value", [0.0, math.nan, -math.inf], ids=["zero", "nan", "-inf"])
@pytest.mark.parametrize("name", ["kkt_tolerance", "energy_tolerance"], ids=["kkt", "energy"])
def test_agent_tolerances_reject_zero_nan_and_minus_inf(name, value):
    """The price loop refuses an agent tolerance that is not positive, as
    ``loop_problems`` names it."""
    with pytest.raises(ValueError, match=f"^{name} must be positive$"):
        negotiate_slot([], IDLE_SLOT, [1.0], SolverConfig(**{name: value}))


def test_convergence_config_raises_the_first_rule_broken():
    """The price loop raises the first rule its settings break, before any
    agent is solved."""
    with pytest.raises(ValueError, match="^step_size must be positive$"):
        negotiate_slot([], IDLE_SLOT, [1.0], SolverConfig(step_size=0.0, balance_tolerance=0.0))
    with pytest.raises(ValueError, match="^step_schedule must be 'constant'$"):
        negotiate_slot([], IDLE_SLOT, [1.0], SolverConfig(step_schedule="adaptive"))
    with pytest.raises(ValueError, match="^max_iterations must be an integer$"):
        negotiate_slot([], IDLE_SLOT, [1.0], SolverConfig(max_iterations=2.5))


@pytest.mark.parametrize(
    "override",
    [
        "solver.initial_price=1e308",
        "grid.slot_minutes=1e308",
        "grid.slot_minutes=1e-308",
        "solver.step_size=5e306",
        "solver.step_size=1e300",
    ],
)
def test_extreme_valid_entries_warn_nothing_and_write_finite_numbers(tmp_path, capsys, override):
    """Prices near the float limit average without overflow, a price update
    that is finite per kW-slot but not per kWh is never recorded, and slots
    of 1e308 or 1e-308 minutes build the vehicles' rates quietly (the suite
    makes a RuntimeWarning an error).  Huge numbers are written in exponent
    form, not as some 300 digits."""
    out = tmp_path / "out"
    assert main(["run", str(SMALL), "--out", str(out), "--set", override]) in (0, 2)
    for table in out.glob("*.csv"):
        text = table.read_text()
        assert not re.search(r"\b(inf|nan)\b", text, re.IGNORECASE), (table.name, text)
        for cell in re.split(r"[,\n]", text):
            if re.fullmatch(r"-?[0-9.]+(e[+-][0-9]+)?", cell):
                assert len(cell) <= 20, (table.name, cell)


def flagged_slots(out):
    rows = [line.split(",") for line in (out / "slots.csv").read_text().splitlines()[1:]]
    return {int(row[0]) for row in rows if row[9] == "false"}


@pytest.mark.parametrize(
    "scenario_file, overrides",
    [
        (SMALL, []),
        (
            SCENARIO_DIR / "table1.scenario",
            ["--set", "storage.power_min=0", "--set", "storage.power_max=0"],
        ),
    ],
    ids=["small", "table1-nostorage"],
)
def test_overflowing_price_update_flags_the_slot(tmp_path, capsys, scenario_file, overrides):
    """A step that takes a price to inf settles the slot at its last iterate:
    the run writes all three tables, names each such slot and exits 2."""
    out = tmp_path / "out"
    args = ["run", str(scenario_file), "--out", str(out), "--set", "solver.step_size=1e308"]
    assert main(args + overrides) == 2
    err = capsys.readouterr().err.splitlines()
    flagged = flagged_slots(out)
    assert flagged and len(err) == len(flagged)
    for line, slot in zip(err, sorted(flagged)):
        settled = rf"error: slot {slot} settled at iteration (\d+): "
        assert re.fullmatch(settled + r"price update overflowed \(inf\) at iteration \1", line)
    for name in ("evs.csv", "summary.csv"):
        assert (out / name).is_file()


def test_overflowing_price_update_in_verify(capsys):
    """`verify` names each slot an overflowing price update settled with
    `run`'s error line, still prints finite figures and exits 2."""
    assert main(["verify", str(SMALL), "--set", "solver.step_size=1e308"]) == 2
    out, err = capsys.readouterr()
    assert "flagged slots 2" in out and not re.search(r"\b(inf|nan)\b", out)
    assert len(err.splitlines()) == 2
    for slot, line in enumerate(err.splitlines()):
        settled = rf"error: slot {slot} settled at iteration (\d+): "
        assert re.fullmatch(settled + r"price update overflowed \(inf\) at iteration \1", line)


def test_overflowing_warm_start_is_rejected(tmp_path, capsys):
    """120-minute slots take a 1e308 cent/kWh start to inf per kW-slot."""
    overrides = ["--set", "grid.slot_minutes=120", "--set", "solver.initial_price=1e308"]
    assert main(["run", str(SMALL), "--out", str(tmp_path / "out"), *overrides]) == 1
    assert capsys.readouterr().err == (
        "error: invalid scenario\nsolver: initial_price must be finite per kW-slot\n"
    )
    assert not (tmp_path / "out").exists()

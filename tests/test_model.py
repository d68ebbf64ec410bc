import math
import re
from dataclasses import replace

import numpy as np
import pytest

from evmarket import (
    PowerProfile,
    PriceVector,
    ScenarioValidationError,
    TimeGrid,
    parse_scenario,
    run,
    validate_scenario,
)
from evmarket.cli import main
from conftest import SCENARIO_DIR, make_session


def test_time_grid_invariants():
    grid = TimeGrid(3, 5, 0.25)
    assert list(grid.slots) == [3, 4, 5, 6, 7]
    assert grid.end == 8
    with pytest.raises(ValueError):
        TimeGrid(0, 0, 0.25)
    with pytest.raises(ValueError):
        TimeGrid(0, 4, 0.0)
    assert TimeGrid(np.int64(2), np.int32(3), 0.25).end == 5


@pytest.mark.parametrize(
    "start, length, hours, message",
    [
        (0, 3, math.nan, "slot duration must be positive and finite"),
        (0, 3, math.inf, "slot duration must be positive and finite"),
        (0, 2.5, 0.25, "window start and length must be integers"),
        (0.5, 2, 0.25, "window start and length must be integers"),
    ],
    ids=["nan hours", "inf hours", "fractional length", "fractional start"],
)
def test_time_grid_refuses_a_window_the_agents_cannot_solve(start, length, hours, message):
    """A NaN or infinite slot, or a fractional start or length, is refused
    when the window is built, not later inside an agent."""
    with pytest.raises(ValueError, match=message):
        TimeGrid(start, length, hours)


def test_price_vector_rejects_negative_and_is_readonly():
    with pytest.raises(ValueError):
        PriceVector(np.array([1.0, -0.1]))
    pv = PriceVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        pv.values[0] = 5.0
    assert len(pv) == 2 and pv[1] == 2.0


def test_power_profile_accepts_negative_but_not_nan():
    profile = PowerProfile(np.array([-3.0, 4.0]))
    assert profile[0] == -3.0
    with pytest.raises(ValueError):
        PowerProfile(np.array([np.nan]))


def test_remaining_energy_recursion():
    """The energy still needed after a slot at 4 kW, as the day applies it."""
    ses = make_session(energy=3.0)
    assert ses.energy_needed - ses.energy_rate(0.25) * 4.0 == pytest.approx(2.0)
    # lossy charging stores less
    ses = make_session(energy=3.0, loss_fraction=0.5)
    assert ses.energy_needed - ses.energy_rate(0.25) * 4.0 == pytest.approx(2.5)


def test_remaining_energy_never_increases_for_nonnegative_power():
    rng = np.random.default_rng(3)
    for _ in range(200):
        e = rng.uniform(0, 50)
        p = rng.uniform(0, 40)
        xi = rng.uniform(0, 0.99)
        tc = rng.uniform(0.05, 1.0)
        ses = make_session(energy=e, loss_fraction=xi)
        assert ses.energy_needed - ses.energy_rate(tc) * p <= e + 1e-12


def test_validate_table1_scenario_clean(table1_scenario):
    report = validate_scenario(table1_scenario)
    assert report.ok
    assert report.violations == ()


def test_validate_flags_nonconvex_cost(table1_scenario):
    from dataclasses import replace

    bad = replace(table1_scenario, dso=replace(table1_scenario.dso, cost_quadratic=-0.06))
    report = validate_scenario(bad)
    assert not report.ok
    assert any("cost not strictly convex" in v for v in report.violations)


def test_validate_flags_untracked_storage_that_can_move(table1_scenario):
    """With no tracking weight a movable storage is a free, unlimited
    source, and the supplier's maximizer is not unique; a pinned storage
    needs no tracking."""
    from dataclasses import replace

    untracked = replace(table1_scenario.storage, tracking_weight=0.0)
    report = validate_scenario(replace(table1_scenario, storage=untracked))
    assert not report.ok
    assert any(v.startswith("storage: tracking not strictly convex") for v in report.violations)
    pinned = replace(untracked, power_min=0.0, power_max=0.0)
    assert validate_scenario(replace(table1_scenario, storage=pinned)).ok


def test_validate_flags_empty_charging_window(table1_scenario):
    from dataclasses import replace

    ev = make_session(ev_id="bad", arrival=10, departure=5)
    bad = replace(table1_scenario, evs=(ev,))
    report = validate_scenario(bad)
    assert any("empty charging window" in v for v in report.violations)


def test_validate_flags_duplicate_ids(table1_scenario):
    from dataclasses import replace

    evs = (make_session(ev_id="x"), make_session(ev_id="x"))
    report = validate_scenario(replace(table1_scenario, evs=evs))
    assert any("duplicate id" in v for v in report.violations)


def test_validate_flags_a_negative_arrival(tmp_path, capsys):
    """An arrival is the index of a vehicle's first charging slot, so one
    before slot 0 is reported, by the report and by the command line, which
    refuses to run the day."""
    text = (SCENARIO_DIR / "small.scenario").read_text().replace("arrival = 0", "arrival = -5", 1)
    report = validate_scenario(parse_scenario(text))
    assert report.violations == ("ev a: arrival must be nonnegative",)
    path = tmp_path / "early.scenario"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "ev a: arrival must be nonnegative\n"
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "arrival must be nonnegative" in capsys.readouterr().err


SMALL_TEXT = (SCENARIO_DIR / "small.scenario").read_text()
# small.scenario with vehicle a renamed ev01, which a two-vehicle fleet
# generates too.
CLASH_TEXT = SMALL_TEXT.replace("id = a", "id = ev01") + (
    "\nfleet:\n  count = 2\n  power_max = 22\n  weight = 10\n"
)
CLASH = "ev ev01: duplicate id (the fleet generates it too)"


def test_validate_reports_an_id_the_fleet_generates_with_the_other_violations():
    """The validator itself names the clash, next to a broken rule of the
    same vehicle, and run refuses the day with the same report."""
    assert validate_scenario(parse_scenario(CLASH_TEXT)).violations == (CLASH,)
    text = CLASH_TEXT.replace("weight = 10", "weight = -1", 1)
    report = validate_scenario(parse_scenario(text))
    assert report.violations == (CLASH, "ev ev01: weight must be positive")
    with pytest.raises(ScenarioValidationError) as info:
        run(parse_scenario(text))
    assert str(info.value) == str(report)


def test_a_fleet_whose_count_fails_its_rule_is_not_checked_for_clashes():
    text = CLASH_TEXT.replace("count = 2", "count = -1")
    assert validate_scenario(parse_scenario(text)).violations == ("fleet: count must be nonnegative",)


HUGE = 10**400  # an integer too large for a float


@pytest.mark.parametrize(
    "section, attr, message",
    [
        ("dso", "cost_linear", "dso: quadratic_cost, linear_cost and power_min must be finite"),
        ("dso", "power_max", "dso: power_max must be finite or inf"),
        ("storage", "power_min", "storage: power bounds, energies and tracking_weight must be finite"),
        ("solver", "initial_price", "solver: initial_price must be finite per kW-slot"),
        ("solver", "step_size", "solver: step_size and balance_tolerance must be finite"),
        ("grid", "slot_minutes", "grid: slot_minutes must be finite"),
        ("ev", "weight", "ev a: power_max, weight and energy must be finite"),
        ("ev", "energy_needed", "ev a: power_max, weight and energy must be finite"),
    ],
)
def test_an_integer_too_large_for_a_float_is_reported_not_raised(section, attr, message):
    """A number built in Python past the float range fails the finiteness
    test like inf: the validator names it, and run refuses the day before
    any conversion could overflow."""
    scenario = parse_scenario(SMALL_TEXT)
    if section == "ev":
        first, *rest = scenario.evs
        bad = replace(scenario, evs=(replace(first, **{attr: HUGE}), *rest))
    else:
        owner = getattr(scenario, section)
        bad = replace(scenario, **{section: replace(owner, **{attr: -HUGE if attr == "power_min" else HUGE})})
    assert validate_scenario(bad).violations == (message,)
    with pytest.raises(ScenarioValidationError, match=re.escape(message)):
        run(bad)


def test_time_grid_refuses_slot_hours_too_large_for_a_float():
    with pytest.raises(ValueError, match="slot duration must be positive and finite"):
        TimeGrid(0, 3, HUGE)

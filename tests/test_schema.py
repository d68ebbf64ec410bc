"""The scenario schema table drives parsing, writing and ``--set``.

Every section type's fields are the table's rows, a written scenario parses
back to itself with every optional entry away from its default, and ``--set``
reaches every entry of a non-repeated section.
"""
import argparse
import dataclasses
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import (
    DSOSpec,
    EVSession,
    ScenarioFormatError,
    ScenarioValidationError,
    StorageSpec,
    negotiate_slot,
    parse_scenario,
    run,
    validate_scenario,
    write_scenario,
)
from evmarket.cli import _load_scenario, main
from evmarket.model import MAX_FLEET, MAX_ITERATIONS, MAX_SLOTS
from evmarket.scenario_io import (
    ENTRIES,
    REQUIRED,
    SCHEMA,
    SECTIONS,
    FleetSpec,
    GridConfig,
    Scenario,
    SolverConfig,
    parse_value,
)

from conftest import SCENARIO_DIR
from test_cli import SMALL
from test_dso_agent import make_sub as make_dso_sub

FLEET = "fleet:\n  count = 3\n  power_max = 22\n  weight = 10\n"


def rows(section):
    return [entry for entry in SCHEMA if entry.section == section]


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_type_fields_are_its_rows(section):
    _, kind, _ = SECTIONS[section]
    attrs = sorted(e.attr for e in rows(section))
    assert sorted(f.name for f in dataclasses.fields(kind)) == attrs
    assert len({e.key for e in rows(section)}) == len(attrs)


def test_scenario_fields_are_top_level_rows_and_sections():
    fields = {f.name for f in dataclasses.fields(Scenario)}
    sections = {attr for attr, _, _ in SECTIONS.values()}
    assert fields == sections | {e.attr for e in rows("")}
    # Exactly the sections without a default in Scenario are required.
    required = {attr for attr, _, presence in SECTIONS.values() if presence == "required"}
    no_default = {
        f.name for f in dataclasses.fields(Scenario) if f.default is dataclasses.MISSING
    }
    assert required == no_default


def own_default(entry):
    _, kind, _ = SECTIONS.get(entry.section, (None, Scenario, None))
    (field,) = [f for f in dataclasses.fields(kind) if f.name == entry.attr]
    return field.default


def test_no_row_restates_a_default_and_every_optional_row_has_one():
    """A row is required or takes its type's own default, so parsing fills
    no block with defaults: every optional row's field carries one."""
    assert {e.default for e in SCHEMA} == {None, REQUIRED}
    for entry in SCHEMA:
        if entry.default is None:
            assert own_default(entry) is not dataclasses.MISSING, entry.name


def test_a_vehicle_takes_its_optional_fields_by_keyword_only():
    session = EVSession("a", 0, 2, 22.0, 10.0, 3.0)
    assert (session.power_min, session.loss_fraction, session.energy_needed) == (0.0, 0.0, 3.0)
    with pytest.raises(TypeError):
        EVSession("a", 0, 2, 0.0, 22.0, 10.0, 0.0, 3.0)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


IDS = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=8)


@st.composite
def sessions(draw, ev_id):
    arrival = draw(st.integers(0, 20))
    power_min = draw(floats(0.1, 5.0))
    return EVSession(
        ev_id=ev_id,
        arrival=arrival,
        departure=arrival + draw(st.integers(0, 20)),
        power_min=power_min,
        power_max=power_min + draw(floats(0.0, 30.0)),
        weight=draw(floats(1e-3, 20.0)),
        loss_fraction=draw(floats(0.01, 0.9)),
        energy_needed=draw(floats(0.0, 100.0)),
    )


@st.composite
def scenarios(draw):
    """Valid scenarios with every section present and every optional entry
    away from its default."""
    dso_min = draw(floats(0.1, 50.0))
    ids = draw(st.lists(IDS, max_size=4, unique=True))
    return Scenario(
        grid=GridConfig(slot_minutes=draw(floats(0.5, 120.0)), num_slots=draw(st.integers(1, 96))),
        dso=DSOSpec(
            cost_quadratic=draw(floats(1e-3, 10.0)),
            cost_linear=draw(floats(-10.0, 10.0)),
            power_min=dso_min,
            power_max=draw(st.one_of(st.just(float("inf")), floats(dso_min, 500.0))),
        ),
        storage=StorageSpec(
            power_min=draw(floats(-100.0, 0.0)),
            power_max=draw(floats(0.0, 100.0)),
            energy_initial=draw(floats(0.0, 500.0)),
            energy_reference=draw(floats(0.0, 500.0)),
            throughput=draw(floats(0.01, 0.9)),
            tracking_weight=draw(floats(1.5, 10.0)),
        ),
        fleet=FleetSpec(
            count=draw(st.integers(0, 50)),
            power_min=draw(floats(0.1, 5.0)),
            power_max=draw(floats(5.0, 50.0)),
            weight=draw(floats(1e-3, 20.0)),
            loss_fraction=draw(floats(0.01, 0.9)),
        ),
        evs=tuple(draw(sessions(ev_id)) for ev_id in ids),
        solver=SolverConfig(
            initial_price=draw(floats(16.5, 50.0)),
            step_size=draw(floats(1e-4, 4e-3)),
            balance_tolerance=draw(floats(0.2, 5.0)),
            max_iterations=draw(st.integers(1, 1999)),
            kkt_tolerance=draw(floats(1e-12, 1e-7)),
            energy_tolerance=draw(floats(1e-12, 1e-7)),
        ),
        seed=draw(st.integers(1, 2**31)),
    )


def owners(scenario, section):
    attr, _, presence = SECTIONS[section]
    value = getattr(scenario, attr)
    return value if presence == "repeated" else (value,)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_written_scenario_parses_back_to_itself(scenario):
    for entry in SCHEMA:
        # step_schedule has one legal value, its default.
        if entry.default is REQUIRED or entry.key == "step_schedule":
            continue
        default = own_default(entry)
        section_owners = owners(scenario, entry.section) if entry.section else (scenario,)
        for owner in section_owners:
            assert getattr(owner, entry.attr) != default, entry.name
    assert parse_scenario(write_scenario(scenario)) == scenario


def changed(value):
    """A different value of the same type that keeps SMALL plus FLEET valid;
    the one string entry, step_schedule, has one legal value."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return value + 1
    return value / 2 if value else 0.25


def entry_values(scenario):
    out = {}
    for entry in SCHEMA:
        if entry.section == "ev":
            continue
        owner = getattr(scenario, SECTIONS[entry.section][0]) if entry.section else scenario
        out[entry.section, entry.key] = getattr(owner, entry.attr)
    return out


@pytest.mark.parametrize(
    "entry", [e for e in SCHEMA if e.section != "ev"], ids=lambda e: e.name
)
def test_set_changes_exactly_its_entry(tmp_path, entry):
    path = tmp_path / "all.scenario"
    path.write_text(SMALL + FLEET)
    args = argparse.Namespace(scenario=str(path), overrides=[], seed=None)
    before = entry_values(_load_scenario(args))
    value = changed(before[entry.section, entry.key])
    args.overrides = [f"{entry.name}={value}"]
    after = entry_values(_load_scenario(args))
    assert after == {**before, (entry.section, entry.key): value}


def test_set_seed_reports_through_the_entry(tmp_path, capsys):
    path = tmp_path / "small.scenario"
    path.write_text(SMALL)
    code = main(["run", str(path), "--out", str(tmp_path / "o"), "--set", "seed=abc"])
    assert code == 1
    assert capsys.readouterr().err == "error: cannot parse 'abc' as int for seed\n"


def test_negative_seed_is_rejected_by_its_entry(tmp_path, capsys):
    """A negative seed fails the entry's own check, before the fleet draws
    with it: at its line in a file, by name from ``--seed`` and ``--set``."""
    path = tmp_path / "fleet.scenario"
    path.write_text("seed = -1\n" + SMALL.replace("seed = 3\n", "") + FLEET)
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        assert main(command) == 1
        assert capsys.readouterr().err == "error: line 1: seed must be nonnegative, got '-1'\n"
    path.write_text(SMALL + FLEET)
    for override in (["--seed", "-1"], ["--set", "seed=-1"]):
        assert main(["run", str(path), "--out", str(tmp_path / "o"), *override]) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got '-1'\n"


def test_negative_seed_fails_validation_in_the_python_api():
    """The Python API runs the seed entry's rule too, so a scenario built in
    code with a negative seed never reaches the fleet's generator."""
    scenario = dataclasses.replace(parse_scenario(SMALL + FLEET), seed=-1)
    report = validate_scenario(scenario)
    assert report.violations == ("seed must be nonnegative",)
    with pytest.raises(ScenarioValidationError, match="seed must be nonnegative"):
        run(scenario)


def test_unknown_step_schedule_is_rejected_by_its_entry(tmp_path, capsys):
    """The step schedule's row and ``validate_scenario`` share one rule: a
    schedule other than ``constant`` fails at its line in a file, by name
    from ``--set`` and as a violation in the Python API."""
    text = (SCENARIO_DIR / "table1.scenario").read_text()
    path = tmp_path / "diminishing.scenario"
    path.write_text(text.replace("step_schedule = constant", "step_schedule = diminishing"))
    message = "solver.step_schedule must be 'constant', got 'diminishing'\n"
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        assert main(command) == 1
        assert capsys.readouterr().err == "error: line 26: " + message
    override = ["--set", "solver.step_schedule=diminishing"]
    small = str(SCENARIO_DIR / "small.scenario")
    assert main(["run", small, "--out", str(tmp_path / "o"), *override]) == 1
    assert capsys.readouterr().err == "error: " + message
    scenario = parse_scenario(text)
    solver = dataclasses.replace(scenario.solver, step_schedule="diminishing")
    report = validate_scenario(dataclasses.replace(scenario, solver=solver))
    assert report.violations == ("solver: step_schedule must be 'constant'",)


HUGE = "99999999999999999999"


def test_a_day_or_fleet_past_its_limit_is_rejected(tmp_path, capsys):
    """``grid.num_slots`` and ``fleet.count`` share one rule with
    ``validate_scenario``, so no accepted scenario asks for unbounded work:
    past its limit a count fails at its line in a file, by name from
    ``--set`` and as a violation in the Python API."""
    scenario = parse_scenario(SMALL + FLEET)
    grid, fleet = scenario.grid, scenario.fleet
    for section, changed, name in (
        ("grid", dataclasses.replace(grid, num_slots=MAX_SLOTS + 1), "grid: num_slots"),
        ("fleet", dataclasses.replace(fleet, count=MAX_FLEET + 1), "fleet: count"),
    ):
        report = validate_scenario(dataclasses.replace(scenario, **{section: changed}))
        assert report.violations == (f"{name} must be at most 100000",)
    at_limits = dataclasses.replace(
        scenario,
        grid=dataclasses.replace(grid, num_slots=MAX_SLOTS),
        fleet=dataclasses.replace(fleet, count=MAX_FLEET),
    )
    assert validate_scenario(at_limits).ok
    path = tmp_path / "huge.scenario"
    for name, text in (
        ("grid.num_slots", (SMALL + FLEET).replace("num_slots = 2", f"num_slots = {HUGE}")),
        ("fleet.count", (SMALL + FLEET).replace("count = 3", f"count = {HUGE}")),
    ):
        message = f"{name} must be at most 100000, got '{HUGE}'\n"
        line = text.splitlines().index(f"  {name.partition('.')[2]} = {HUGE}") + 1
        path.write_text(text)
        for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
            assert main(command) == 1
            assert capsys.readouterr().err == f"error: line {line}: {message}"
        path.write_text(SMALL + FLEET)
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--set", f"{name}={HUGE}"]) == 1
        assert capsys.readouterr().err == f"error: {message}"
    assert not (tmp_path / "o").exists()


def test_a_price_loop_past_its_limit_is_rejected(tmp_path, capsys):
    """``solver.max_iterations`` bounds the work of a slot that cannot clear,
    so it shares the count limit's rule: at its line in a file, by name from
    ``--set``, as a violation of ``validate_scenario`` and as a
    ``ValueError`` of ``negotiate_slot``."""
    scenario = parse_scenario(SMALL)
    for count, violations in (
        (MAX_ITERATIONS, ()),
        (MAX_ITERATIONS + 1, ("solver: max_iterations must be at most 100000",)),
    ):
        solver = dataclasses.replace(scenario.solver, max_iterations=count)
        report = validate_scenario(dataclasses.replace(scenario, solver=solver))
        assert report.violations == violations
    sub = make_dso_sub(1)
    with pytest.raises(ValueError, match="^max_iterations must be at most 100000$"):
        negotiate_slot([], sub, [1.0], dataclasses.replace(scenario.solver, max_iterations=10**20))
    message = f"solver.max_iterations must be at most 100000, got '{HUGE}'\n"
    text = SMALL.replace("initial_price = 16", f"initial_price = 16\n  max_iterations = {HUGE}")
    line = text.splitlines().index(f"  max_iterations = {HUGE}") + 1
    path = tmp_path / "endless.scenario"
    path.write_text(text)
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        assert main(command) == 1
        assert capsys.readouterr().err == f"error: line {line}: {message}"
    path.write_text(SMALL)
    setting = f"solver.max_iterations={HUGE}"
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--set", setting]) == 1
    assert capsys.readouterr().err == f"error: {message}"
    assert not (tmp_path / "o").exists()


# Values that int, float and str.strip may read differently; '\x1f' is
# whitespace to str.strip only, and a '#' starts a comment that the line loses.
FORMS = [
    " 7 ", "7.0", "1_000", "+3", "-0", "0x10", "\u0663", "\t2.5\t", "", "x",
    "1e400", "nan", " nan ", "inf", "-inf", HUGE, "\x1f7", "5e-324", "1.000e+00",
    "a,b", '"q"', "a#b", "#", " constant ",
]
# small.scenario and a fleet section, written with every row.
EVERY_ROW = write_scenario(parse_scenario(SMALL + FLEET)).splitlines()


def test_every_value_parses_as_parse_value_reads_it():
    """Plain numbers are converted inline and a string's check runs inline:
    for every entry line of a scenario that writes every row, each odd value
    parses to what ``parse_value`` returns for its stripped, comment-cut text,
    or fails with its message at its line."""
    section, vehicles = "", 0
    for i, line in enumerate(EVERY_ROW):
        if line.endswith(":"):
            section = line[:-1]
            vehicles += section == "ev"
            continue
        entry = ENTRIES[section][line.partition("=")[0].strip()]
        for raw in FORMS:
            written = f"{line.partition('=')[0]}={raw}"
            text = "\n".join([*EVERY_ROW[:i], written, *EVERY_ROW[i + 1:]])
            try:
                expected = parse_value(entry, raw.partition("#")[0].strip(), i + 1)
            except ScenarioFormatError as exc:
                with pytest.raises(ScenarioFormatError) as info:
                    parse_scenario(text)
                assert (str(info.value), info.value.line) == (str(exc), i + 1)
                continue
            scenario = parse_scenario(text)
            index = vehicles - 1 if section == "ev" else 0
            owner = owners(scenario, section)[index] if section else scenario
            got = getattr(owner, entry.attr)
            assert (type(got), repr(got)) == (type(expected), repr(expected)), (entry, raw)


def with_entry(scenario, entry, value):
    """``scenario`` with ``entry`` set to ``value``, on the first vehicle for
    a vehicle entry."""
    if not entry.section:
        return dataclasses.replace(scenario, **{entry.attr: value})
    attr, _, presence = SECTIONS[entry.section]
    first, *rest = owners(scenario, entry.section)
    owner = dataclasses.replace(first, **{entry.attr: value})
    return dataclasses.replace(scenario, **{attr: (owner, *rest) if presence == "repeated" else owner})


INTEGER_ENTRIES = [e for e in SCHEMA if e.kind is int]


@pytest.mark.parametrize("entry", INTEGER_ENTRIES, ids=lambda e: e.name)
def test_a_non_integral_integer_entry_is_reported(entry):
    """Files and ``--set`` parse integers, but the Python API takes any
    number: a float in an integer entry is a violation, so the run stops
    before its first slot; a NumPy integer is an integer."""
    scenario = parse_scenario(SMALL + FLEET)
    value = getattr(owners(scenario, entry.section)[0] if entry.section else scenario, entry.attr)
    for odd in (value + 0.5, float(value)):
        changed = with_entry(scenario, entry, odd)
        violations = validate_scenario(changed).violations
        integer = rf"\b{entry.key}\b.* must be (an integer|integers)$"
        assert any(re.search(integer, v) for v in violations), violations
        with pytest.raises(ScenarioValidationError):
            run(changed)
    assert validate_scenario(with_entry(scenario, entry, np.int64(value))).ok


@pytest.mark.parametrize("value", ["2", None])
@pytest.mark.parametrize("entry", SCHEMA, ids=lambda e: e.name)
def test_a_mistyped_field_is_reported_by_name(entry, value):
    """The Python API takes any value in any field.  A string in a number
    field (a number in a string field), or None in any field, is a violation
    that names the field, not an exception, and the run stops before its
    first slot.  Where a range test would raise on the value the report
    names the field's type; where it words the value's fault (an integer
    entry that is no integer, an unknown step schedule) it keeps that."""
    if entry.kind is str and value is not None:
        value = 2
    changed = with_entry(parse_scenario(SMALL + FLEET), entry, value)
    if entry.section == "ev":
        label = f"ev {value!r}: " if entry.attr == "ev_id" else "ev 'a': "
    else:
        label = f"{entry.section}: " if entry.section else ""
    kind = "a string" if entry.kind is str else "a number"
    mistyped = f"{label}{entry.attr} must be {kind}, not {type(value).__name__}"
    violations = validate_scenario(changed).violations
    if entry.name in ("solver.max_iterations", "solver.step_schedule"):
        assert violations[0].startswith(f"{label}{entry.attr} must be ")
    else:
        assert violations == (mistyped,)
    with pytest.raises(ScenarioValidationError):
        run(changed)


def test_numpy_integers_run_the_same_day():
    scenario = parse_scenario(SMALL + FLEET)
    numpy = scenario
    for entry in INTEGER_ENTRIES:
        value = getattr(owners(numpy, entry.section)[0] if entry.section else numpy, entry.attr)
        numpy = with_entry(numpy, entry, np.int64(value))
    assert run(numpy) == run(scenario)


def with_first_id(value):
    return SMALL.replace("  id = a\n", f"  id = {value}\n", 1)


@pytest.mark.parametrize("value", ["", "a,b", 'a"b', '"a"'])
def test_vehicle_id_that_breaks_evs_csv_is_rejected_with_its_line(tmp_path, capsys, value):
    text = with_first_id(value)
    line = text.splitlines().index(f"  id = {value}") + 1
    with pytest.raises(ScenarioFormatError, match=f"line {line}: ev.id must be non-empty") as info:
        parse_scenario(text)
    assert info.value.line == line
    path = tmp_path / "bad.scenario"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert f"line {line}: ev.id" in capsys.readouterr().err


def test_vehicle_id_with_punctuation_is_accepted():
    assert parse_scenario(with_first_id("car-01.x_y")).evs[0].ev_id == "car-01.x_y"


def with_ev_ids(scenario, *ev_ids):
    evs = tuple(dataclasses.replace(ev, ev_id=i) for ev, i in zip(scenario.evs, ev_ids))
    return dataclasses.replace(scenario, evs=evs + scenario.evs[len(evs):])


@pytest.mark.parametrize("value", ["a,b", "a#b", " a", "a\nb", 'a"b', ""])
def test_validation_refuses_an_id_that_evs_csv_or_the_scenario_text_breaks(value):
    """An id built in Python meets the rule of the id's schema row: a comma
    or a quote splits or quotes its ``evs.csv`` row, a '#', padding or a
    line break changes what its written scenario line parses back to.  Every
    message about such an id quotes it, so each stays on one line."""
    report = validate_scenario(with_ev_ids(parse_scenario(SMALL), value, value))
    rule = f"ev {value!r}: id must be non-empty, unpadded, one line and free of ',', '\"' and '#'"
    assert report.violations == (rule, rule, f"ev {value!r}: duplicate id")


@settings(max_examples=200, deadline=None)
@given(ev_id=st.text(min_size=1, max_size=8))
def test_every_id_the_rule_accepts_round_trips_through_the_text(ev_id):
    scenario = with_ev_ids(parse_scenario(SMALL), ev_id)
    if validate_scenario(scenario).ok:
        assert parse_scenario(write_scenario(scenario)) == scenario


def test_explicit_id_that_the_fleet_generates_is_rejected(tmp_path, capsys):
    path = tmp_path / "clash.scenario"
    path.write_text(with_first_id("ev02") + FLEET)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "ev ev02: duplicate id" in out
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario\n") and "ev ev02: duplicate id" in err
    assert not out_dir.exists()
    assert main(["uncontrolled", str(path), "--out", str(out_dir)]) == 1


@pytest.mark.parametrize("ev_id", ["ev01", "ev1"])
def test_an_id_the_fleet_generates_is_named_by_validate_and_run(tmp_path, capsys, ev_id):
    """A fleet of 2 generates ev01 and ev02: an explicit ev01 fails validate
    and run with exit 1 and the clash's message; ev1 is another id."""
    path = tmp_path / "clash.scenario"
    path.write_text(with_first_id(ev_id) + FLEET.replace("count = 3", "count = 2"))
    clash = ev_id == "ev01"
    message = f"ev {ev_id}: duplicate id (the fleet generates it too)\n"
    assert main(["validate", str(path)]) == (1 if clash else 0)
    assert capsys.readouterr().out == (message if clash else "scenario ok\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == (1 if clash else 0)
    err = capsys.readouterr().err
    assert err == ("error: invalid scenario\n" + message if clash else "")


def test_explicit_ids_next_to_a_fleet_are_accepted(tmp_path, capsys):
    path = tmp_path / "fleet.scenario"
    path.write_text(SMALL + FLEET)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "scenario ok\n"


def small_with(slot_minutes: str, loss_fraction: str = "0") -> str:
    """small.scenario with its slot length and both vehicles' losses set."""
    text = (SCENARIO_DIR / "small.scenario").read_text()
    text = text.replace("slot_minutes = 15", f"slot_minutes = {slot_minutes}")
    return text.replace("loss_fraction = 0\n", f"loss_fraction = {loss_fraction}\n")


NO_ENERGY = "loss fraction leaves no stored energy in a slot of slot_minutes"


@pytest.mark.parametrize(
    "text,violations",
    [
        # 5e-324 minutes is 0 hours.
        (small_with("5e-324"), ("grid: slot_minutes must be positive in hours",)),
        # (1 - 0.9999999999999999) * 1e-310 / 60 underflows to 0 kWh per kW.
        (small_with("1e-310", "0.9999999999999999"), (f"ev a: {NO_ENERGY}", f"ev b: {NO_ENERGY}")),
    ],
    ids=["zero-hours", "zero-rate"],
)
def test_a_slot_that_stores_no_energy_per_kw_is_refused_by_its_entry(
    tmp_path, capsys, text, violations
):
    """Each entry passes its own rule, but the slot gives a vehicle no energy
    per kW, which every energy-to-power division reads: the scenario is
    refused with exit 1 on every command, naming the entry, with no traceback."""
    assert validate_scenario(parse_scenario(text)).violations == violations
    path = tmp_path / "tiny.scenario"
    path.write_text(text)
    out_dir = tmp_path / "out"
    for command in (["validate"], ["run", "--out", str(out_dir)],
                    ["uncontrolled", "--out", str(out_dir)], ["verify"]):
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        report = captured.out if command == ["validate"] else captured.err
        assert report.splitlines()[-len(violations):] == list(violations)
    assert not out_dir.exists()


def test_a_fleet_whose_slot_stores_no_energy_is_refused_by_its_label():
    text = small_with("1e-310") + FLEET + "  loss_fraction = 0.9999999999999999\n"
    assert validate_scenario(parse_scenario(text)).violations == (f"fleet: {NO_ENERGY}",)

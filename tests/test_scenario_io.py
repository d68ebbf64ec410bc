import hashlib
import pickle
import runpy
from dataclasses import replace

import pytest

from evmarket import (
    ScenarioFormatError,
    generate_evs,
    parse_scenario,
    resolve_sessions,
    validate_scenario,
    write_scenario,
    write_trace,
)
from evmarket.cli import main
from evmarket.scenario_io import FleetSpec, GridConfig
from evmarket.model import EVSession, SlotRecord
from evmarket.mpc_loop import SimulationTrace, TraceSummary

from conftest import SCENARIO_DIR

MINIMAL = """
grid:
  slot_minutes = 15
  num_slots = 8
dso:
  quadratic_cost = 0.06
  linear_cost = 0.9
  power_max = 100
"""


def test_parse_table1_values(table1_scenario):
    scn = table1_scenario
    assert scn.grid.num_slots == 48
    assert scn.grid.slot_minutes == 15
    assert scn.dso.cost_quadratic == 0.06
    assert scn.dso.cost_linear == 0.9
    assert scn.dso.power_max == 100
    assert scn.storage.power_min == -100 and scn.storage.power_max == 100
    assert scn.storage.energy_initial == 100 and scn.storage.energy_reference == 100
    assert scn.solver.initial_price == 16
    sessions = resolve_sessions(scn)
    assert len(sessions) == 20
    assert all(s.power_max == 22 and s.weight == 10 for s in sessions)


def test_minimal_scenario_gets_defaults():
    scn = parse_scenario(MINIMAL)
    assert scn.storage is None
    assert scn.fleet is None
    assert scn.solver.step_size == 0.005
    assert scn.solver.balance_tolerance == 0.1
    assert scn.solver.max_iterations == 2000
    assert scn.dso.power_min == 0.0
    assert scn.seed == 0


def test_empty_file_reports_missing_grid():
    with pytest.raises(ScenarioFormatError, match="missing required key: grid"):
        parse_scenario("")


def test_missing_required_key_names_the_line_of_its_section(tmp_path, capsys):
    """table1 has 20 vehicle sections; without the third one's energy, the
    error names that section's header line."""
    lines = (SCENARIO_DIR / "table1.scenario").read_text().splitlines(keepends=True)
    assert lines[45] == "ev:\n" and lines[53] == "  energy = 4.91\n"
    path = tmp_path / "table1.scenario"
    path.write_text("".join(lines[:53] + lines[54:]))
    message = "line 46: missing required key: ev.energy"
    with pytest.raises(ScenarioFormatError, match=f"^{message}$") as info:
        parse_scenario(path.read_bytes())
    assert info.value.line == 46
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_key_is_an_error():
    text = MINIMAL + "\nsolver:\n  warp_factor = 9\n"
    with pytest.raises(ScenarioFormatError, match="unknown key 'warp_factor'"):
        parse_scenario(text)


def test_unknown_section_is_an_error():
    with pytest.raises(ScenarioFormatError, match="unknown section"):
        parse_scenario(MINIMAL + "\nmystery:\n  x = 1\n")


def test_syntax_error_carries_line_and_column():
    text = "grid:\n  slot_minutes = 15\n  num_slots = 8\n  what even is this\n"
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert info.value.line == 4
    assert info.value.column == 3
    assert "line 4" in str(info.value)


def test_invalid_loss_fraction_is_invariant_violation():
    text = MINIMAL + (
        "\nev:\n  id = a\n  arrival = 0\n  departure = 2\n"
        "  power_max = 22\n  weight = 10\n  loss_fraction = 1.2\n  energy = 2\n"
    )
    # Parsing checks no invariant; validation names the broken one.
    scn = parse_scenario(text)
    assert scn.evs[0].loss_fraction == 1.2
    assert validate_scenario(scn).violations == ("ev a: loss fraction must lie in [0, 1)",)


def test_duplicate_section_rejected():
    with pytest.raises(ScenarioFormatError, match="duplicate section"):
        parse_scenario(MINIMAL + "\ngrid:\n  slot_minutes = 15\n  num_slots = 4\n")


def test_bad_number_reports_line():
    text = "grid:\n  slot_minutes = fifteen\n  num_slots = 8\n"
    with pytest.raises(ScenarioFormatError, match="line 2"):
        parse_scenario(text)


def test_roundtrip_through_canonical_writer(table1_scenario):
    text = write_scenario(table1_scenario)
    again = parse_scenario(text)
    assert again == table1_scenario


def test_roundtrip_with_explicit_ev_and_no_storage():
    text = MINIMAL + (
        "\nseed = 9\nev:\n  id = a\n  arrival = 1\n  departure = 3\n"
        "  power_max = 22\n  weight = 10\n  energy = 2.5\n"
    )
    scn = parse_scenario(text)
    assert parse_scenario(write_scenario(scn)) == scn


EV = (
    "ev:\n  id = {}\n  arrival = 0\n  departure = 2\n"
    "  power_max = 22\n  weight = 10\n  energy = 2\n"
)


def test_a_line_repeated_in_one_block_is_a_duplicate_at_its_line():
    """A line that earlier blocks also hold is a duplicate key when it
    repeats inside one block, at the repeat's line."""
    text = MINIMAL + EV.format("a") + EV.format("b") + "  weight = 10\n"
    line = text.count("\n")
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert str(info.value) == f"line {line}, column 3: duplicate key 'weight' in section 'ev'"


def test_the_same_line_under_two_sections_sets_each_sections_field():
    text = MINIMAL.replace("  power_max = 100\n", "  power_max = 100\n  power_min = 5\n")
    text += EV.format("a").replace("  energy", "  power_min = 5\n  energy")
    scn = parse_scenario(text)
    assert scn.dso.power_min == scn.evs[0].power_min == 5.0
    # A line accepted in one section is still unknown in another.
    fleet = "fleet:\n  count = 1\n  power_max = 22\n  weight = 10\n"
    text = MINIMAL + fleet + "solver:\n  weight = 10\n"
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    line = text.count("\n")
    assert str(info.value) == f"line {line}, column 3: unknown key 'weight' in section 'solver'"


@pytest.mark.parametrize("top", ["seed = 3\n", ""])
def test_a_repeated_seed_inside_a_section_is_a_duplicate(top):
    """``seed`` may be set once, at the top or inside a block; the same line
    inside a later block is a duplicate of the top-level key."""
    once = top + MINIMAL + EV.format("a") + ("" if top else "  seed = 3\n")
    assert parse_scenario(once).seed == 3
    line = once.count("\n") + EV.format("b").count("\n") + 1
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(once + EV.format("b") + "  seed = 3\n")
    assert str(info.value) == f"line {line}, column 3: duplicate key 'seed'"


def fleet_200_texts():
    """The benchmark's fleet-200 scenario text of seeds 1-10."""
    fleet_200 = runpy.run_path(str(SCENARIO_DIR.parent / "bench" / "workloads.py"))["fleet_200"]
    return {f"fleet-200/{seed}": fleet_200(seed).encode() for seed in range(1, 11)}


# SHA-256 (first 16 digits) of the repr of each parsed scenario, taken when
# every vehicle was built by EVSession's constructor: the vehicles parsing
# builds without it are the same, bit for bit.
PARSED = {
    "scenarios/small.scenario": "d23aef5263e9c3a6",
    "scenarios/table1.scenario": "60b8df5d9668fdf7",
    "tests/data/fleet-run.scenario": "859aa38e781ed234",
    "fleet-200/1": "016ea3904a9b2ef1",
    "fleet-200/2": "76db27d2c4c2e57c",
    "fleet-200/3": "866954659b35f3be",
    "fleet-200/4": "0e3cfb3187f65764",
    "fleet-200/5": "a4dc95b89f7d300c",
    "fleet-200/6": "8fdbc681637b05cc",
    "fleet-200/7": "ad05d10fe4ab867a",
    "fleet-200/8": "d9a62e714cd93153",
    "fleet-200/9": "1eab8e3947039f8e",
    "fleet-200/10": "ae5c09032013bb59",
}


def test_scenarios_parse_to_their_pinned_values():
    root = SCENARIO_DIR.parent
    texts = {name: (root / name).read_bytes() for name in PARSED if name.endswith(".scenario")}
    texts.update(fleet_200_texts())
    digests = {
        name: hashlib.sha256(repr(parse_scenario(text)).encode()).hexdigest()[:16]
        for name, text in texts.items()
    }
    assert digests == PARSED


BOM = b"\xef\xbb\xbf"


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    text = (SCENARIO_DIR / "small.scenario").read_bytes()
    assert parse_scenario(BOM + text) == parse_scenario(text)
    # Text read with encoding="utf-8" (Path.read_text) keeps the mark as U+FEFF.
    assert parse_scenario((BOM + text).decode()) == parse_scenario(text)
    path = tmp_path / "bom.scenario"
    path.write_bytes(BOM + text)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"# Two", BOM + BOM + b"# Two", "line 1, column 1: expected 'key = value' or 'section:'"),
        (b"grid:", BOM + b"grid:", "line 2, column 1: unknown section '\\ufeffgrid'"),
        (b"  num_slots", b"  " + BOM + b"num_slots",
         "line 4, column 3: unknown key '\\ufeffnum_slots' in section 'grid'"),
    ],
)
def test_a_byte_order_mark_anywhere_else_names_its_line(old, new, message):
    text = (SCENARIO_DIR / "small.scenario").read_bytes().replace(old, new, 1)
    for given in (text, text.decode()):
        with pytest.raises(ScenarioFormatError) as info:
            parse_scenario(given)
        assert str(info.value) == message


def test_a_decoding_error_after_a_mark_counts_the_mark():
    text = BOM + (SCENARIO_DIR / "small.scenario").read_bytes()
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text + b"\xff")
    assert f"position {len(text)}:" in str(info.value)


# The characters other than line feed and carriage return at which
# str.splitlines breaks a line.
OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", OTHER_BREAKS, ids=[f"U+{ord(c):04X}" for c in OTHER_BREAKS])
def test_a_comment_may_hold_any_character(char):
    """Only a line feed or a carriage return ends a line: a page break in a
    comment leaves the file as it was, and a later error keeps its line.  A
    vehicle id still may not hold the character, which evs.csv would split."""
    text = (SCENARIO_DIR / "small.scenario").read_text()
    commented = f"# page{char}break, see: notes\n" + text.split("\n", 1)[1]
    assert parse_scenario(commented) == parse_scenario(text)
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(commented.replace("num_slots = 2", "num_slots = x"))
    assert str(info.value) == "line 4: cannot parse 'x' as int"
    with pytest.raises(ScenarioFormatError, match="^line 22: ev.id must be non-empty"):
        parse_scenario(commented.replace("id = a", f"id = a{char}b"))


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_carriage_returns_end_lines_as_line_feeds_do(ending):
    text = (SCENARIO_DIR / "small.scenario").read_text()
    assert parse_scenario(text.replace("\n", ending)) == parse_scenario(text)
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text.replace("num_slots = 2", "num_slots = x").replace("\n", ending))
    assert str(info.value) == "line 4: cannot parse 'x' as int"


def test_a_parsed_vehicle_is_the_one_its_constructor_builds():
    """Parsing fills a new session's ``__dict__`` instead of calling the frozen
    constructor, which holds only while the class has no ``__post_init__``
    and no ``__slots__``."""
    assert not hasattr(EVSession, "__post_init__")
    assert "__slots__" not in vars(EVSession)
    small = parse_scenario((SCENARIO_DIR / "small.scenario").read_bytes())
    # EV omits the optional power_min and loss_fraction, which take defaults.
    for ev in small.evs + parse_scenario(MINIMAL + EV.format("a")).evs:
        built = EVSession(**vars(ev))
        assert (ev, hash(ev), repr(ev)) == (built, hash(built), repr(built))
        assert vars(ev) == vars(built)
        assert pickle.loads(pickle.dumps(ev)) == replace(ev) == built


def test_generate_evs_deterministic_and_feasible():
    grid = GridConfig(slot_minutes=15, num_slots=48)
    fleet = FleetSpec(count=20, power_max=22.0, weight=10.0)
    a = generate_evs(20, grid, fleet, seed=5)
    b = generate_evs(20, grid, fleet, seed=5)
    assert a == b
    c = generate_evs(20, grid, fleet, seed=6)
    assert c != a
    for ses in a:
        assert 0 <= ses.arrival < ses.departure <= 48
        cap = ses.energy_rate(grid.slot_hours) * ses.power_max * (ses.departure - ses.arrival)
        assert 0.0 <= ses.energy_needed <= cap


def test_generate_evs_empty():
    grid = GridConfig(slot_minutes=15, num_slots=8)
    assert generate_evs(0, grid, FleetSpec(0, 22.0, 10.0), seed=1) == ()


def _tiny_trace(converged=True):
    record = SlotRecord(
        slot=0,
        price_applied=0.0,
        demand_total=0.0,
        generation=0.0,
        storage_power=0.0,
        storage_energy=0.0,
        per_ev={},
        iterations=0,
        residual=0.0,
        converged=converged,
    )
    summary = TraceSummary(0.0, 0.0, 0.0, 0.0, 0.0)
    return SimulationTrace(
        records=(record,), slot_hours=0.25, final_energy={}, summary=summary
    )


def test_write_trace_formats_fixed_decimals(tmp_path):
    write_trace(_tiny_trace(), tmp_path)
    lines = (tmp_path / "slots.csv").read_text().splitlines()
    assert lines[0] == (
        "slot,time_hours,price_applied,demand_total_kw,p_l_kw,p_s_kw,"
        "storage_soc_kwh,iterations,residual_kw,converged"
    )
    assert lines[1] == "0,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0,0.000000,true"
    assert (tmp_path / "evs.csv").read_text().splitlines()[0] == "slot,ev_id,power_kw,soc_error_kwh"
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "price_mean,price_stdev,peak_demand_kw,energy_delivered_kwh,energy_unmet_kwh"


def test_write_trace_flags_nonconverged_row(tmp_path):
    write_trace(_tiny_trace(converged=False), tmp_path)
    assert (tmp_path / "slots.csv").read_text().splitlines()[1].endswith(",false")


def test_write_trace_prints_no_negative_zero(tmp_path):
    """A cell that rounds to zero reads ``0.000000`` whatever its sign."""
    trace = _tiny_trace()
    record = replace(trace.records[0], storage_power=-1e-9, per_ev={"a": (-0.0, -1e-9)})
    write_trace(replace(trace, records=(record,)), tmp_path)
    assert "-0.000000" not in (tmp_path / "slots.csv").read_text()
    assert (tmp_path / "slots.csv").read_text().splitlines()[1].split(",")[5] == "0.000000"
    assert (tmp_path / "evs.csv").read_text().splitlines()[1] == "0,a,0.000000,0.000000"

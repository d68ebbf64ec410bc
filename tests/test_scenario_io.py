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
from evmarket.model import SlotRecord
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

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import (
    ScenarioValidationError,
    Tolerances,
    compute_window,
    parse_scenario,
    run,
    simulate_uncontrolled,
    step,
)
from evmarket.mpc_loop import SimulationState
from evmarket.scenario_io import GridConfig, Scenario, SolverConfig

from conftest import SCENARIO_DIR, SLOT_HOURS, TABLE1_DSO, TABLE1_STORAGE, make_session
from test_verify import scenarios


def small_scenario(evs, storage=None, num_slots=8, **solver_kw) -> Scenario:
    return Scenario(
        grid=GridConfig(slot_minutes=15, num_slots=num_slots),
        dso=TABLE1_DSO,
        storage=storage,
        evs=tuple(evs),
        solver=SolverConfig(**solver_kw),
    )


def test_compute_window_max_departure():
    active = [make_session(ev_id="a", arrival=0, departure=6), make_session(ev_id="b", arrival=0, departure=10)]
    grid = compute_window(active, 2, SLOT_HOURS)
    assert grid.length == 8
    assert grid.start == 2


def test_compute_window_idle_is_one_slot():
    assert compute_window([], 5, SLOT_HOURS).length == 1


def test_compute_window_departing_next_slot():
    active = [make_session(arrival=0, departure=4)]
    assert compute_window(active, 3, SLOT_HOURS).length == 1


def test_step_applies_first_sample_and_updates_energy():
    ses = make_session(ev_id="a", arrival=0, departure=4, energy=3.0)
    state = SimulationState(
        slot=0, active=(), pending=(ses,), storage_energy=0.0, last_price=4.0
    )
    new_state, record = step(state, small_scenario([]))
    power, energy_left = record.per_ev["a"]
    assert energy_left == pytest.approx(3.0 - 0.25 * power, abs=1e-12)
    assert new_state.slot == 1
    assert new_state.active[0].energy_needed == pytest.approx(energy_left)
    assert record.converged


def test_idle_slot_with_storage_settles_at_dso_solution():
    state = SimulationState(
        slot=0, active=(), pending=(), storage_energy=100.0, last_price=4.0
    )
    new_state, record = step(state, small_scenario([], storage=TABLE1_STORAGE))
    assert record.demand_total == 0.0
    # supplier sells nothing once the price settles, and the storage sits at
    # the stationary point of its own terms (independent of the price here)
    assert record.generation <= 0.1 + 1e-9
    assert record.storage_power == pytest.approx(0.9 / (2 * 0.06 + 2 * 0.0625), abs=0.05)
    assert new_state.storage_energy == pytest.approx(
        100.0 - record.storage_power * 0.25, abs=1e-9
    )


def test_completed_vehicle_leaves_market():
    # terminal equality was met early: the vehicle must not negotiate again
    ses = make_session(ev_id="a", arrival=0, departure=8, energy=1e-9)
    state = SimulationState(
        slot=2, active=(ses,), pending=(), storage_energy=0.0, last_price=1.0
    )
    _, record = step(state, small_scenario([]))
    assert "a" not in record.per_ev
    assert record.demand_total == 0.0


def test_run_rejects_invalid_scenario():
    bad = small_scenario([make_session(arrival=5, departure=2)])
    with pytest.raises(ScenarioValidationError):
        run(bad)


def test_empty_scenario_all_slots_quiet():
    scn = small_scenario([], num_slots=6)
    trace = run(scn)
    assert len(trace.records) == 6
    assert all(rec.demand_total == 0.0 for rec in trace.records)
    assert trace.summary.peak_demand == 0.0
    assert trace.summary.energy_unmet == 0.0


def test_energy_conservation_exact_per_vehicle():
    evs = [
        make_session(ev_id="a", arrival=0, departure=5, energy=6.0),
        make_session(ev_id="b", arrival=2, departure=7, energy=4.0, loss_fraction=0.1),
    ]
    scn = small_scenario(evs)
    trace = run(scn)
    for ses in evs:
        delivered = 0.0
        for rec in trace.records:
            if ses.ev_id in rec.per_ev:
                power, _ = rec.per_ev[ses.ev_id]
                delivered += (1.0 - ses.loss_fraction) * SLOT_HOURS * power
        assert ses.energy_needed == pytest.approx(
            delivered + trace.final_energy[ses.ev_id], abs=1e-9
        )


def test_storage_ledger_exact():
    evs = [make_session(ev_id="a", arrival=0, departure=6, energy=8.0)]
    scn = small_scenario(evs, storage=TABLE1_STORAGE)
    trace = run(scn)
    moved = sum(rec.storage_power for rec in trace.records)
    expected = TABLE1_STORAGE.energy_initial - TABLE1_STORAGE.throughput * SLOT_HOURS * moved
    assert trace.records[-1].storage_energy == pytest.approx(expected, abs=1e-9)


def test_applied_balance_or_flagged():
    evs = [
        make_session(ev_id="a", arrival=0, departure=5, energy=6.0),
        make_session(ev_id="b", arrival=1, departure=6, energy=7.0),
    ]
    trace = run(small_scenario(evs, storage=TABLE1_STORAGE))
    for rec in trace.records:
        if rec.converged:
            assert abs(rec.generation - rec.demand_total) <= 0.1 + 1e-9


def test_nonconvergence_degrades_but_completes():
    evs = [make_session(ev_id="a", arrival=0, departure=3, energy=10.0)]
    scn = small_scenario(evs, num_slots=4, max_iterations=2)
    trace = run(scn)
    assert len(trace.records) == 4
    assert not trace.converged
    assert any(not rec.converged for rec in trace.records)


def test_flagged_slots_apply_no_more_than_each_vehicle_needs():
    """A price step near the float limit caps both of ``small``'s slots at
    prices past 1e300.  Each flagged slot applies its powers clipped as the
    uncontrolled baseline clips them, so the day delivers the 9 kWh needed,
    not more."""
    scenario = parse_scenario((SCENARIO_DIR / "small.scenario").read_bytes())
    trace = run(replace(scenario, solver=replace(scenario.solver, step_size=1e300)))
    assert not any(rec.converged for rec in trace.records)
    powers = [power for rec in trace.records for power, _ in rec.per_ev.values()]
    assert powers == pytest.approx([22.0, 12.0, 2.0])
    eps = Tolerances().energy
    assert all(left >= -eps for rec in trace.records for _, left in rec.per_ev.values())
    assert trace.summary.energy_delivered == pytest.approx(9.0)


def assert_finite_records(trace):
    """Every slot, flagged or not, records finite numbers and a price >= 0."""
    for rec in trace.records:
        powers = [power for power, _ in rec.per_ev.values()]
        numbers = [rec.demand_total, rec.generation, rec.storage_power, rec.storage_energy]
        assert all(map(math.isfinite, numbers + powers)), rec
        assert math.isfinite(rec.price_applied) and rec.price_applied >= 0, rec


@settings(max_examples=100, deadline=None)
@given(
    scenario=scenarios(),
    step_size=st.sampled_from([None, 1e300, 2e306, 5e306]),
    max_iterations=st.sampled_from([1, 5, 500]),
    power_max=st.sampled_from([None, math.inf]),
)
def test_every_settled_slot_is_finite(scenario, step_size, max_iterations, power_max):
    """The slot is settled from the price loop's float lists, which no
    validated vector checks: every slot the loop settles, including those
    flagged after a capped loop, an overflowing price update or a supplier
    failure, must still record finite numbers."""
    solver = replace(
        scenario.solver,
        step_size=step_size or scenario.solver.step_size,
        max_iterations=max_iterations,
    )
    dso = replace(scenario.dso, power_max=power_max or scenario.dso.power_max)
    assert_finite_records(run(replace(scenario, solver=solver, dso=dso)))


@pytest.mark.parametrize(
    "step_size, unbounded, reason",
    [(1e300, False, None), (2e306, True, "supplier closed form left residual nan")],
    ids=["capped", "supplier failure"],
)
def test_small_at_extreme_steps_records_finite_numbers(step_size, unbounded, reason):
    """``small`` at five price updates a slot, capped at prices near 1e302,
    or failing in an unbounded supplier's closed form after the first."""
    scenario = parse_scenario((SCENARIO_DIR / "small.scenario").read_bytes())
    if unbounded:
        dso = replace(scenario.dso, power_max=math.inf)
        scenario = replace(scenario, dso=dso, storage=None)
    solver = replace(scenario.solver, step_size=step_size, max_iterations=5)
    trace = run(replace(scenario, solver=solver))
    assert not trace.converged
    assert trace.records[0].supplier_error == reason
    assert_finite_records(trace)


def test_uncontrolled_sums_maxima():
    evs = [
        make_session(ev_id=f"e{i}", arrival=1, departure=5, energy=20.0) for i in range(3)
    ]
    trace = simulate_uncontrolled(small_scenario(evs))
    assert trace.records[1].demand_total == pytest.approx(66.0)
    assert trace.records[0].demand_total == 0.0


def test_uncontrolled_clips_final_energy():
    evs = [make_session(ev_id="a", arrival=0, departure=4, energy=1.0)]
    trace = simulate_uncontrolled(small_scenario(evs))
    assert trace.records[0].per_ev["a"][0] == pytest.approx(4.0)
    assert trace.final_energy["a"] == pytest.approx(0.0, abs=1e-12)


def test_uncontrolled_peak_at_least_controlled(table1_scenario):
    scn = replace(
        table1_scenario,
        grid=GridConfig(15, 12),
        fleet=None,
        evs=tuple(
            make_session(ev_id=f"e{i}", arrival=1 + i, departure=8 + i, energy=10.0)
            for i in range(3)
        ),
    )
    controlled = run(scn)
    uncontrolled = simulate_uncontrolled(scn)
    assert controlled.summary.peak_demand <= uncontrolled.summary.peak_demand + 1e-9


def test_warm_start_carries_first_price():
    evs = [make_session(ev_id="a", arrival=0, departure=4, energy=5.0)]
    trace = run(small_scenario(evs, num_slots=4))
    state_prices = [rec.price_applied for rec in trace.records]
    assert all(p >= 0 for p in state_prices)

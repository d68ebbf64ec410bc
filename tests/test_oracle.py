import numpy as np
import pytest

from evmarket import DSOSpec, DSOSubproblem, TimeGrid, negotiate_slot

from bruteforce import random_feasible_ev
from conftest import SLOT_HOURS, TABLE1_DSO, TABLE1_STORAGE, make_session
from oracle import CentralProblem, solve_central, welfare


def make_problem(sessions, window_len=None, dso=TABLE1_DSO, storage=TABLE1_STORAGE):
    if window_len is None:
        window_len = max(s.departure for s in sessions) if sessions else 1
    return CentralProblem(
        sessions=tuple(sessions),
        dso=dso,
        storage=storage,
        energy_now=storage.energy_initial,
        window=TimeGrid(0, window_len, SLOT_HOURS),
    )


def test_cap_is_enforced():
    sessions = tuple(
        make_session(ev_id=f"e{i}", departure=2, energy=1.0) for i in range(5)
    )
    with pytest.raises(ValueError):
        make_problem(sessions, window_len=2)
    with pytest.raises(ValueError):
        make_problem([make_session(departure=9, energy=1.0)], window_len=9)


def test_empty_market_welfare_zero():
    dso = DSOSpec(0.06, 0.0, 0.0, 100.0)
    sol = solve_central(make_problem([], window_len=2, dso=dso))
    assert sol.welfare == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(sol.generation.values, 0.0, atol=1e-7)
    np.testing.assert_allclose(sol.storage_power.values, 0.0, atol=1e-6)


def test_single_forced_vehicle_matches_1d_scan():
    # one slot, vehicle pinned at 22 kW: only the storage power is free
    ses = make_session(departure=1, energy=5.5)
    sol = solve_central(make_problem([ses], window_len=1))
    np.testing.assert_allclose(sol.ev_profiles[0].values, [22.0], atol=1e-9)

    axis = np.arange(TABLE1_STORAGE.power_min, TABLE1_STORAGE.power_max + 0.0005, 0.001)
    values = (
        10.0 * np.log1p(22.0)
        - (0.06 * (22.0 - axis) ** 2 + 0.9 * (22.0 - axis))
        - (0.25 * axis) ** 2
    )
    best = int(np.argmax(values))
    assert sol.welfare == pytest.approx(float(values[best]), abs=1e-6)
    assert sol.storage_power[0] == pytest.approx(float(axis[best]), abs=2e-3)


def test_balance_holds_exactly_by_construction():
    sessions = [
        make_session(ev_id="a", departure=2, energy=4.0),
        make_session(ev_id="b", departure=3, energy=6.0),
    ]
    sol = solve_central(make_problem(sessions, window_len=3))
    demand = np.zeros(3)
    for ses, prof in zip(sessions, sol.ev_profiles):
        demand[: len(prof)] += prof.values
    np.testing.assert_allclose(sol.generation.values, demand, rtol=0, atol=0)


def test_energy_requirements_met():
    sessions = [
        make_session(ev_id="a", departure=3, energy=7.0, loss_fraction=0.1),
        make_session(ev_id="b", departure=2, energy=5.0),
    ]
    sol = solve_central(make_problem(sessions, window_len=3))
    for ses, prof in zip(sessions, sol.ev_profiles):
        rate = ses.energy_rate(SLOT_HOURS)
        assert rate * prof.values.sum() == pytest.approx(ses.energy_needed, abs=1e-7)


def test_infeasible_vehicle_reported_and_pinned():
    sessions = [make_session(ev_id="greedy", departure=1, energy=50.0)]
    sol = solve_central(make_problem(sessions, window_len=1))
    assert sol.ev_feasible == (False,)
    np.testing.assert_allclose(sol.ev_profiles[0].values, [22.0])


def test_oracle_beats_random_feasible_points():
    rng = np.random.default_rng(77)
    sessions = [
        make_session(ev_id="a", departure=2, energy=5.0),
        make_session(ev_id="b", departure=2, energy=8.0),
    ]
    problem = make_problem(sessions, window_len=2)
    sol = solve_central(problem)
    window = problem.window
    for _ in range(2000):
        profiles = [random_feasible_ev(rng, ses, window) for ses in sessions]
        storage_power = rng.uniform(
            TABLE1_STORAGE.power_min, TABLE1_STORAGE.power_max, size=2
        )
        value = welfare(
            list(zip(sessions, profiles)),
            np.sum(profiles, axis=0),
            storage_power,
            TABLE1_DSO,
            TABLE1_STORAGE,
            100.0,
            window,
        )
        assert value <= sol.welfare + 1e-7


def test_matches_negotiated_welfare_within_one_percent():
    sessions = [
        make_session(ev_id="a", departure=2, energy=6.0),
        make_session(ev_id="b", departure=2, energy=3.0),
    ]
    problem = make_problem(sessions, window_len=2)
    central = solve_central(problem)

    warm = 16.0 * SLOT_HOURS
    dso_sub = DSOSubproblem(
        dso=TABLE1_DSO, storage=TABLE1_STORAGE, energy_now=100.0, window=problem.window
    )
    result = negotiate_slot(sessions, dso_sub, [warm] * 2)
    assert result.converged
    negotiated = welfare(
        [(ses, sol.power) for ses, sol in zip(sessions, result.ev_solutions)],
        result.demand_values,
        result.dso_solution.storage_values,
        TABLE1_DSO,
        TABLE1_STORAGE,
        100.0,
        problem.window,
    )
    assert abs(negotiated - central.welfare) <= 0.01 * abs(central.welfare)

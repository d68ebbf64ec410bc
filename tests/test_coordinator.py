import inspect
import math

import numpy as np
import pytest

from evmarket import (
    DSOSpec,
    DSOSubproblem,
    SolverConfig,
    StorageSpec,
    TimeGrid,
    coordinator,
    evaluate_dual,
    negotiate_slot,
    update_price,
)
from evmarket.dso_agent import ConvergenceError, DSOSolution

from bruteforce import random_feasible_ev
from conftest import SLOT_HOURS, TABLE1_DSO, TABLE1_STORAGE, make_session
from oracle import welfare


def make_dso_sub(
    slots, dso=TABLE1_DSO, storage=TABLE1_STORAGE, energy_now=100.0, slot_hours=SLOT_HOURS
):
    return DSOSubproblem(
        dso=dso, storage=storage, energy_now=energy_now, window=TimeGrid(0, slots, slot_hours)
    )


def test_update_price_moves_against_imbalance():
    np.testing.assert_allclose(update_price([16.0], [-50.0], 0.01), [16.5])


def test_update_price_balance_is_fixed_point():
    prices = [3.0, 7.0, 0.5]
    np.testing.assert_allclose(update_price(prices, [0.0] * 3, 0.05), prices)


def test_update_price_projects_at_zero():
    np.testing.assert_allclose(update_price([0.1], [100.0], 0.01), [0.0])


def test_update_price_refuses_lists_of_two_lengths():
    with pytest.raises(ValueError, match="price and residual lengths differ"):
        update_price([16.0, 16.0], [1.0], 0.01)


def test_prices_stay_nonnegative_through_updates():
    rng = np.random.default_rng(8)
    prices = rng.uniform(0, 5, size=4).tolist()
    for _ in range(50):
        residual = rng.normal(0, 80, size=4).tolist()
        prices = update_price(prices, residual, 0.01)
        assert min(prices) >= 0


def test_empty_market_dual_is_zero():
    dso = DSOSpec(0.06, 0.0, 0.0, 100.0)
    state = evaluate_dual([0.0, 0.0], [], make_dso_sub(2, dso=dso))
    np.testing.assert_allclose(state.demand_values, 0.0)
    np.testing.assert_allclose(state.supply_values, 0.0, atol=1e-6)
    np.testing.assert_allclose(state.residual_values, 0.0, atol=1e-6)
    assert state.dual_value == pytest.approx(0.0, abs=1e-8)


def test_satisfied_vehicle_adds_nothing():
    dso = DSOSpec(0.06, 0.0, 0.0, 100.0)
    ev = make_session(departure=2, energy=0.0)
    state = evaluate_dual([0.0, 0.0], [ev], make_dso_sub(2, dso=dso))
    np.testing.assert_allclose(state.demand_values, 0.0, atol=1e-9)
    np.testing.assert_allclose(state.supply_values, 0.0, atol=1e-6)


def test_residual_is_supply_minus_demand():
    ev = make_session(departure=2, energy=4.0)
    state = evaluate_dual([2.0, 3.0], [ev], make_dso_sub(2))
    np.testing.assert_allclose(
        state.residual_values, np.subtract(state.supply_values, state.demand_values)
    )


def test_weak_duality_against_sampled_feasible_points():
    rng = np.random.default_rng(21)
    lam = [16.0 * SLOT_HOURS] * 2
    evs = [
        make_session(departure=2, energy=6.0),
        make_session(departure=2, energy=3.5, power_max=20.0),
    ]
    dso_sub = make_dso_sub(2)
    state = evaluate_dual(lam, evs, dso_sub)
    window = dso_sub.window
    for _ in range(1000):
        profiles = [random_feasible_ev(rng, ses, window) for ses in evs]
        assert all(p is not None for p in profiles)
        demand = np.sum(profiles, axis=0)
        if np.any(demand > TABLE1_DSO.power_max) or np.any(demand < TABLE1_DSO.power_min):
            continue
        storage_power = rng.uniform(
            TABLE1_STORAGE.power_min, TABLE1_STORAGE.power_max, size=2
        )
        value = welfare(
            list(zip(evs, profiles)),
            demand,
            storage_power,
            TABLE1_DSO,
            TABLE1_STORAGE,
            100.0,
            window,
        )
        assert value <= state.dual_value + 1e-6


def test_dual_gradient_matches_finite_differences():
    solver = SolverConfig(kkt_tolerance=1e-10, energy_tolerance=1e-10)
    evs = [
        make_session(departure=2, energy=5.0),
        make_session(departure=2, energy=2.0),
    ]
    dso_sub = make_dso_sub(2)
    rng = np.random.default_rng(40)
    h = 1e-4
    for _ in range(10):
        lam = rng.uniform(0.3, 5.0, size=2)
        base = evaluate_dual(lam.tolist(), evs, dso_sub, solver=solver)
        slot = int(rng.integers(0, 2))
        bumped = lam.copy()
        bumped[slot] += h
        up = evaluate_dual(bumped.tolist(), evs, dso_sub, solver=solver)
        fd = (up.dual_value - base.dual_value) / h
        target = base.residual_values[slot]
        assert fd == pytest.approx(target, rel=0.01, abs=0.02)


def test_negotiation_trivially_converged_at_balance():
    dso = DSOSpec(0.06, 0.0, 0.0, 100.0)
    result = negotiate_slot([], make_dso_sub(1, dso=dso), [0.0])
    assert result.converged
    assert result.iterations == 0
    np.testing.assert_allclose(result.price_values, [0.0])
    np.testing.assert_allclose(result.residual_values, 0.0, atol=1e-6)


def test_negotiation_finds_supply_curve_crossing():
    # one vehicle pinned at 22 kW: the settled price must put the supplier
    # exactly there, which has a closed form from its stationarity conditions
    ev = make_session(departure=1, energy=5.5)
    result = negotiate_slot([ev], make_dso_sub(1), [4.0])
    assert result.converged
    analytic = (22.0 + 0.9 / (2 * 0.06)) / (1 / (2 * 0.06) + 1 / (2 * 0.25 * 0.25))
    assert result.price_values[0] == pytest.approx(analytic, abs=0.02)
    assert result.supply_values[0] == pytest.approx(22.0, abs=0.1)
    assert result.demand_values[0] == pytest.approx(22.0, abs=1e-6)


def test_nonconvergence_is_flagged_not_raised():
    ev = make_session(departure=1, energy=5.5)
    solver = SolverConfig(step_size=0.005, max_iterations=3)
    result = negotiate_slot([ev], make_dso_sub(1), [4.0], solver=solver)
    assert not result.converged
    assert result.iterations == 3
    assert len(result.residual_history) == 4


REFUSED_STARTS = {
    "nan": ([math.nan, 1.0], "finite and nonnegative"),
    "inf": ([1.0, math.inf], "finite and nonnegative"),
    "-inf": ([-math.inf, 1.0], "finite and nonnegative"),
    "negative": ([1.0, -3.0], "finite and nonnegative"),
    "past the float range": ([10**400, 1.0], "finite and nonnegative"),
    "short": ([1.0], "length must equal the window length"),
    "long": ([1.0] * 3, "length must equal the window length"),
}


@pytest.mark.parametrize("case", REFUSED_STARTS)
@pytest.mark.parametrize("storage", [TABLE1_STORAGE, StorageSpec(0.0, 0.0, 0.0, 0.0)])
def test_start_that_is_not_a_window_price_list_is_refused(monkeypatch, case, storage):
    """No agent is asked at a start entry that is negative or not finite, or
    at a start of another length than the window: the slot is refused
    before the first broadcast."""
    calls = []
    monkeypatch.setattr(coordinator, "solve_dso", lambda *args: calls.append(args))
    start, message = REFUSED_STARTS[case]
    ev = make_session(departure=2, energy=2.0)
    with pytest.raises(ValueError, match=message):
        negotiate_slot([ev], make_dso_sub(2, storage=storage), start)
    assert calls == []


def test_start_is_the_first_broadcast(monkeypatch):
    """A start that is not flat reaches the agents as it is: it is the first
    evaluation's price list, and the caller's list is left alone."""
    original, states = coordinator.evaluate_dual, []

    def spy(*args, **kwargs):
        states.append(original(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(coordinator, "evaluate_dual", spy)
    start = [0.5, 4.0, 2.25]
    negotiate_slot([make_session(departure=3, energy=5.0)], make_dso_sub(3), start)
    assert states[0].price_values == [0.5, 4.0, 2.25]
    assert start == [0.5, 4.0, 2.25] and len(states) > 1


def scripted_supplier(levels):
    """A supplier stub offering ``levels[i]`` kW in every slot at its call
    ``i``, and failing at a ``None``."""
    calls = []

    def supplier(sub, prices, kkt_tolerance, start):
        level = levels[len(calls)]
        calls.append(prices)
        if level is None:
            raise ConvergenceError("supplier solve stalled", 1.0)
        n = sub.window.length
        return DSOSolution([level] * n, [0.0] * n, 0.0, sub, prices)

    return supplier


# Each way the price loop ends: the supplier's script (None: the real
# agents), the loop settings and the evaluation the slot settles at, counted
# from the last one.
EXITS = [
    ("converged", None, SolverConfig(), -1),
    ("capped", None, SolverConfig(max_iterations=3), -1),
    ("supplier failure", [5.0, 5.0, None], SolverConfig(), -1),
    ("non-finite", [5.0, 5.0, math.nan], SolverConfig(), -2),
    ("overflow", [-1.0, -1.0, -1e10], SolverConfig(step_size=1e300), -1),
]


@pytest.mark.parametrize(
    "exit, levels, solver, settled", [pytest.param(*case, id=case[0]) for case in EXITS]
)
def test_negotiation_returns_the_state_it_settled_at(monkeypatch, exit, levels, solver, settled):
    """One state per evaluation: every evaluation after the first is started
    from the state accepted before it, and the slot's outcome is the very
    state of the evaluation it settled at, whichever way the loop ends."""
    original = coordinator.evaluate_dual
    lasts, states = [], []

    def spy(*args, **kwargs):
        lasts.append(inspect.signature(original).bind(*args, **kwargs).arguments.get("last"))
        states.append(original(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(coordinator, "evaluate_dual", spy)
    if levels is None:
        n, evs = 1, [make_session(departure=1, energy=5.5)]
    else:
        n, evs = 2, []
        monkeypatch.setattr(coordinator, "solve_dso", scripted_supplier(levels))
    result = negotiate_slot(evs, make_dso_sub(n), [4.0] * n, solver=solver)

    assert result is states[settled]
    assert result.converged == (exit == "converged")
    assert (result.supplier_error is None) == (exit in ("converged", "capped"))
    assert result.iterations == len(states) + settled
    assert lasts[0] is None
    assert all(last is state for last, state in zip(lasts[1:], states))
    assert len(lasts) == len(states) + (exit == "supplier failure")
    assert result.iterations == len(result.residual_history) - 1
    assert result.residual_norm == result.residual_history[-1]
    assert result.residual_norm == np.abs(result.residual_values).max()

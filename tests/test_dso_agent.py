import warnings

import numpy as np
import pytest

from evmarket import (
    DSOSpec,
    DSOSubproblem,
    SolverConfig,
    StorageSpec,
    TimeGrid,
    generation_cost,
    parse_scenario,
    solve_dso,
    storage_tracking_penalty,
)
from evmarket import dso_agent
from evmarket.dso_agent import ConvergenceError

from bruteforce import dso_bruteforce_1slot, dso_bruteforce_storage, dso_objective
from conftest import SCENARIO_DIR, SLOT_HOURS, TABLE1_DSO, TABLE1_STORAGE


def make_sub(slots, dso=TABLE1_DSO, storage=TABLE1_STORAGE, energy_now=None, slot_hours=SLOT_HOURS):
    """The supplier over a window of ``slots`` slots."""
    if energy_now is None:
        energy_now = storage.energy_reference
    return DSOSubproblem(
        dso=dso, storage=storage, energy_now=energy_now, window=TimeGrid(0, slots, slot_hours)
    )


def test_generation_cost_values():
    assert generation_cost(10.0, 0.06, 0.9) == pytest.approx(15.0)
    assert generation_cost(0.0, 0.06, 0.9) == 0.0
    # vertex of the quadratic at -b/(2a)
    assert generation_cost(-7.5, 0.06, 0.9) == pytest.approx(-3.375)


def test_tracking_penalty_hand_cases():
    grid1 = TimeGrid(0, 1, 0.25)
    assert storage_tracking_penalty(100.0, np.array([0.0]), TABLE1_STORAGE, grid1) == 0.0
    assert storage_tracking_penalty(100.0, np.array([4.0]), TABLE1_STORAGE, grid1) == pytest.approx(1.0)
    grid2 = TimeGrid(0, 2, 0.25)
    # one step out, one step back: deviations 1 then 0
    assert storage_tracking_penalty(
        100.0, np.array([4.0, -4.0]), TABLE1_STORAGE, grid2
    ) == pytest.approx(1.0)
    # any number of idle slots at the reference cost nothing
    grid5 = TimeGrid(0, 5, 0.25)
    assert storage_tracking_penalty(100.0, np.zeros(5), TABLE1_STORAGE, grid5) == 0.0


def test_tracking_penalty_refuses_a_profile_of_another_length():
    with pytest.raises(ValueError, match="profile length must equal the window length"):
        storage_tracking_penalty(100.0, [0.0, 0.0], TABLE1_STORAGE, TimeGrid(0, 3, 0.25))


def test_rounds_on_a_singular_active_set_stall_at_once():
    """With no tracking weight, free storage and free generation leave the
    Newton system singular: validation refuses such a supplier, so the
    subproblem is built directly, and its first round raises."""
    storage = StorageSpec(-10.0, 10.0, 50.0, 50.0, tracking_weight=0.0)
    sub = make_sub(2, storage=storage)
    active = dso_agent._ActiveSet(sub, (0, 0, 0, 0))
    assert active.newton([16.0, 16.0], sub.lin) is None
    with pytest.raises(ConvergenceError, match=r"stalled at residual inf in round 1 of") as info:
        dso_agent._rounds(sub, active, [16.0, 16.0], 1e-6)
    assert info.value.residual == np.inf


def test_zero_price_zero_linear_cost_stays_idle():
    dso = DSOSpec(0.06, 0.0, 0.0, 100.0)
    sol = solve_dso(make_sub(3, dso=dso), [0.0] * 3)
    np.testing.assert_allclose(sol.generation_values, 0.0, atol=1e-6)
    np.testing.assert_allclose(sol.storage_values, 0.0, atol=1e-6)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_one_slot_zero_price_hand_kkt():
    sol = solve_dso(make_sub(1), [0.0])
    # generation pinned at zero, storage at the stationary point of
    # -a*ps^2 + b*ps - (throughput*slot_hours*ps)^2
    expected_ps = 0.9 / (2 * 0.06 + 2 * 0.25 * 0.25)
    np.testing.assert_allclose(sol.generation_values, [0.0], atol=1e-7)
    np.testing.assert_allclose(sol.storage_values, [expected_ps], atol=1e-6)
    gen, ps, value = dso_bruteforce_1slot(make_sub(1), [0.0])
    assert sol.objective == pytest.approx(value, abs=1e-3)


def test_one_slot_table1_price_against_grid():
    sub, prices = make_sub(1), [16.0 * SLOT_HOURS]
    sol = solve_dso(sub, prices)
    gen, ps, value = dso_bruteforce_1slot(sub, prices)
    assert sol.objective == pytest.approx(value, rel=1e-6, abs=1e-3)
    np.testing.assert_allclose(sol.generation_values, [gen], atol=0.02)
    np.testing.assert_allclose(sol.storage_values, [ps], atol=0.02)


def test_two_slot_matches_reduced_grid_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        lam = rng.uniform(0.0, 6.0, size=2)
        sub = make_sub(2, energy_now=float(rng.uniform(95.0, 105.0)))
        sol = solve_dso(sub, lam)
        _, _, ref = dso_bruteforce_storage(sub, lam)
        rel = abs(sol.objective - ref) / max(1.0, abs(ref))
        assert rel <= 1e-3
        assert sol.objective >= ref - 1e-3


def test_solution_respects_boxes_and_stationarity():
    rng = np.random.default_rng(9)
    kkt_tolerance = SolverConfig.kkt_tolerance
    for _ in range(100):
        n = int(rng.integers(1, 7))
        dso = DSOSpec(
            cost_quadratic=float(rng.uniform(0.01, 0.3)),
            cost_linear=float(rng.uniform(0.0, 2.0)),
            power_min=0.0,
            power_max=float(rng.uniform(30.0, 150.0)),
        )
        bound = float(rng.uniform(10.0, 120.0))
        storage = StorageSpec(
            power_min=-bound,
            power_max=bound,
            energy_initial=100.0,
            energy_reference=float(rng.uniform(80.0, 120.0)),
            throughput=float(rng.uniform(0.1, 1.0)),
            tracking_weight=float(rng.uniform(0.1, 2.0)),
        )
        prices = rng.uniform(0.0, 8.0, size=n)
        sub = make_sub(n, dso=dso, storage=storage, energy_now=float(rng.uniform(80.0, 120.0)))
        sol = solve_dso(sub, prices, kkt_tolerance)
        assert sol.kkt_residual <= 1e-4
        assert np.all(np.array(sol.generation_values) >= dso.power_min - 1e-9)
        assert np.all(np.array(sol.generation_values) <= dso.power_max + 1e-9)
        assert np.all(np.array(sol.storage_values) >= storage.power_min - 1e-9)
        assert np.all(np.array(sol.storage_values) <= storage.power_max + 1e-9)


def test_returned_point_beats_random_feasible_points():
    rng = np.random.default_rng(31)
    prices = rng.uniform(0.0, 5.0, size=2)
    sub = make_sub(2)
    sol = solve_dso(sub, prices)
    best = sol.objective
    for _ in range(10_000):
        gen = rng.uniform(sub.dso.power_min, sub.dso.power_max, size=2)
        ps = rng.uniform(sub.storage.power_min, sub.storage.power_max, size=2)
        assert dso_objective(sub, prices, gen, ps) <= best + 1e-9


def test_uniform_price_raise_never_reduces_supply():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        lam = rng.uniform(0.0, 4.0, size=n)
        bump = float(rng.uniform(0.05, 2.0))
        low = np.sum(solve_dso(make_sub(n), lam).generation_values)
        high = np.sum(solve_dso(make_sub(n), lam + bump).generation_values)
        assert high >= low - 1e-6


def test_warm_start_does_not_change_answer():
    rng = np.random.default_rng(4)
    lam = rng.uniform(0.0, 5.0, size=6)
    sub = make_sub(6)
    cold = solve_dso(sub, lam)
    other = solve_dso(sub, lam + 1.0)
    warm = solve_dso(sub, lam, start=(other.generation_values, other.storage_values))
    np.testing.assert_allclose(cold.generation_values, warm.generation_values, atol=1e-5)
    np.testing.assert_allclose(cold.storage_values, warm.storage_values, atol=1e-5)


def test_start_solved_on_another_subproblem_raises():
    """A solution lends its active set only to the subproblem it was solved
    on; an equal subproblem built anew is another one."""
    settled = solve_dso(make_sub(3), [6.0, 30.0, 2.0])
    with pytest.raises(ValueError, match="another subproblem"):
        solve_dso(make_sub(3), [6.0, 30.0, 2.0], start=settled)


def test_nonconvergence_raises_with_residual(monkeypatch):
    """From scratch this call takes 6 rounds; bounded at one round per entry
    of the point, it stops in the fourth and reports the last residual read."""
    monkeypatch.setattr(dso_agent, "_ROUNDS_PER_ENTRY", 1)
    sub = make_sub(2)
    with pytest.raises(ConvergenceError, match="in round 4 of 4$") as info:
        solve_dso(sub, [4.0, 18.0])
    assert info.value.residual > 0


def test_wrong_length_prices_raise():
    """One price for a 3-slot window would otherwise give one generation
    entry, with five storage entries on the projected-Newton path."""
    pinned = StorageSpec(0.0, 0.0, 0.0, 0.0)
    for storage in (TABLE1_STORAGE, pinned):
        for prices in ([4.0], [4.0] * 4):
            with pytest.raises(ValueError, match="window length"):
                solve_dso(make_sub(3, storage=storage), prices)


def test_prices_near_the_float_limit_settle_on_the_cap():
    """At 1e307 the objective's value overflows.  From scratch and
    warm-started, the rounds hold generation on its cap and answer there,
    without a warning."""
    small = parse_scenario((SCENARIO_DIR / "small.scenario").read_bytes())
    sub = DSOSubproblem(small.dso, small.storage, 100.0, TimeGrid(0, 2, 0.25))
    cap = [small.dso.power_max] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moderate = solve_dso(sub, [10.0, 12.0])
        cold = solve_dso(sub, [1e307, 1e307])
        warm = solve_dso(sub, [1e307, 1e307], start=moderate)
    for sol in (cold, warm):
        assert sol.generation_values == cap
        assert sol.kkt_residual <= SolverConfig.kkt_tolerance

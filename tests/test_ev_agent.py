import math

import numpy as np
import pytest

from evmarket import Tolerances, solve_ev, solve_ev_batch, utility
from evmarket.ev_agent import EVBatchWorkspace, stationarity_residual

from bruteforce import ev_bruteforce, ev_objective
from conftest import SLOT_HOURS, make_ev_subproblem, random_ev_subproblem


def test_utility_values():
    assert utility(0.0, 10.0) == 0.0
    assert utility(math.e - 1.0, 10.0) == pytest.approx(10.0, abs=1e-12)
    assert utility(22.0, 10.0) == pytest.approx(10.0 * math.log(23.0), abs=1e-12)


def test_utility_rejects_negative_power():
    with pytest.raises(ValueError):
        utility(-0.5, 10.0)


def test_utility_concave_increasing():
    grid = np.linspace(0.0, 40.0, 200)
    vals = np.array([utility(p, 7.0) for p in grid])
    diffs = np.diff(vals)
    assert np.all(diffs >= 0)
    assert np.all(np.diff(diffs) <= 1e-12)


def test_zero_requirement_charges_nothing():
    sub = make_ev_subproblem(3, energy=0.0)
    sol = solve_ev(sub, [3.0, 8.0, 1.0])
    assert sol.feasible
    np.testing.assert_allclose(sol.profile.values, 0.0, atol=1e-9)


def test_single_slot_unique_feasible_point_ignores_price():
    for price in (0.0, 4.0, 50.0):
        sub = make_ev_subproblem(1, energy=5.5)
        sol = solve_ev(sub, [price])
        assert sol.feasible
        np.testing.assert_allclose(sol.profile.values, [22.0], atol=1e-7)


def test_two_slot_example_against_bruteforce():
    sub = make_ev_subproblem(2, energy=3.0)
    sol = solve_ev(sub, [16.0, 32.0])
    assert sol.feasible
    profile = sol.profile.values
    assert profile[0] > profile[1]
    delivered = SLOT_HOURS * profile.sum()
    assert delivered == pytest.approx(3.0, abs=1e-6)
    ref_profile, ref_value = ev_bruteforce(sub, [16.0, 32.0])
    np.testing.assert_allclose(profile, ref_profile, atol=5e-3)
    assert sol.objective == pytest.approx(ref_value, rel=1e-4)


def test_infeasible_requirement_saturates_and_flags():
    sub = make_ev_subproblem(2, energy=50.0)
    sol = solve_ev(sub, [1.0, 1.0])
    assert not sol.feasible
    np.testing.assert_allclose(sol.profile.values, 22.0)


def test_objective_matches_bruteforce_on_small_windows():
    rng = np.random.default_rng(11)
    for _ in range(25):
        sub, prices = random_ev_subproblem(rng, max_slots=3)
        sol = solve_ev(sub, prices)
        assert sol.feasible
        _, ref_value = ev_bruteforce(sub, prices)
        rel = abs(sol.objective - ref_value) / max(1.0, abs(ref_value))
        assert rel <= 1e-4


def test_kkt_conditions_on_random_inputs():
    rng = np.random.default_rng(7)
    eps = Tolerances()
    for _ in range(100):
        sub, prices = random_ev_subproblem(rng)
        sol = solve_ev(sub, prices, eps=eps)
        assert sol.feasible
        rate = sub.session.energy_rate(SLOT_HOURS)
        delivered = rate * sol.profile.values.sum()
        assert abs(delivered - sub.session.energy_needed) <= eps.energy
        assert stationarity_residual(sub, sol) <= 1e-6
        lo, hi = sub.session.power_min, sub.session.power_max
        assert np.all(sol.profile.values >= lo - 1e-9)
        assert np.all(sol.profile.values <= hi + 1e-9)


def test_raising_one_price_never_raises_that_slot_power():
    rng = np.random.default_rng(23)
    for _ in range(40):
        sub, prices = random_ev_subproblem(rng, max_slots=5)
        base = solve_ev(sub, prices).profile.values
        slot = int(rng.integers(0, sub.window.length))
        bumped = list(prices)
        bumped[slot] += rng.uniform(0.1, 3.0)
        after = solve_ev(sub, bumped).profile.values
        # slack on the scale of the bisection's energy tolerance
        assert after[slot] <= base[slot] + 1e-4


def test_batch_matches_individual_solves():
    rng = np.random.default_rng(5)
    subs = [random_ev_subproblem(rng)[0] for _ in range(8)]
    window = rng.uniform(0.1, 8.0, size=6).tolist()
    batch = solve_ev_batch(subs, window)
    singles = [solve_ev(sub, window) for sub in subs]
    for joint, single in zip(batch, singles):
        np.testing.assert_allclose(joint.profile.values, single.profile.values, atol=1e-7)


def test_previous_start_does_not_change_solutions():
    """A solve started from the solution at other prices equals a cold solve."""
    rng = np.random.default_rng(17)
    ws = EVBatchWorkspace([random_ev_subproblem(rng)[0] for _ in range(6)])
    window = rng.uniform(0.1, 8.0, size=6)
    ws.load_prices(window + 0.37)
    previous = ws.solve()
    ws.load_prices(window)
    cold, warm = ws.solve(), ws.solve(previous=previous)
    for a, b in zip(cold, warm):
        np.testing.assert_allclose(a.profile.values, b.profile.values, atol=1e-5)


def test_objective_value_is_the_priced_utility():
    sub = make_ev_subproblem(2, energy=4.0)
    sol = solve_ev(sub, [2.0, 3.0])
    assert sol.objective == pytest.approx(
        ev_objective(sub, [2.0, 3.0], sol.profile.values), abs=1e-9
    )


def test_solves_reject_a_price_list_shorter_than_a_window():
    """A 3-slot vehicle given one price would make the two kernels disagree
    (the scalar one reads one slot, the array one pads to three)."""
    sub = make_ev_subproblem(3, energy=2.0)
    with pytest.raises(ValueError, match="shorter than the longest vehicle window"):
        solve_ev(sub, [2.0])
    ws = EVBatchWorkspace([sub])
    with pytest.raises(ValueError, match="shorter than the longest vehicle window"):
        ws.load_prices([2.0])
    # A longer window list is the coordinator's broadcast: the vehicle sees
    # its leading slots.
    np.testing.assert_array_equal(
        solve_ev(sub, [2.0, 3.0, 4.0, 9.0]).power, solve_ev(sub, [2.0, 3.0, 4.0]).power
    )

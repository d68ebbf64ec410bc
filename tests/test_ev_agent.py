import numpy as np
import pytest

from evmarket import EVBatchWorkspace, SolverConfig, TimeGrid, solve_ev, solve_ev_batch
from evmarket.ev_agent import stationarity_residual

from bruteforce import ev_bruteforce, ev_objective
from conftest import SLOT_HOURS, assert_identical, make_session, make_vehicle, random_vehicle


def test_zero_requirement_charges_nothing():
    sol = solve_ev(*make_vehicle(3, energy=0.0), [3.0, 8.0, 1.0])
    assert sol.feasible
    np.testing.assert_allclose(sol.power, 0.0, atol=1e-9)


def test_single_slot_unique_feasible_point_ignores_price():
    for price in (0.0, 4.0, 50.0):
        sol = solve_ev(*make_vehicle(1, energy=5.5), [price])
        assert sol.feasible
        np.testing.assert_allclose(sol.power, [22.0], atol=1e-7)


def test_two_slot_example_against_bruteforce():
    ses, window = make_vehicle(2, energy=3.0)
    sol = solve_ev(ses, window, [16.0, 32.0])
    assert sol.feasible
    profile = sol.power
    assert profile[0] > profile[1]
    delivered = SLOT_HOURS * profile.sum()
    assert delivered == pytest.approx(3.0, abs=1e-6)
    ref_profile, ref_value = ev_bruteforce(ses, window, [16.0, 32.0])
    np.testing.assert_allclose(profile, ref_profile, atol=5e-3)
    assert sol.objective == pytest.approx(ref_value, rel=1e-4)


def test_infeasible_requirement_saturates_and_flags():
    sol = solve_ev(*make_vehicle(2, energy=50.0), [1.0, 1.0])
    assert not sol.feasible
    np.testing.assert_allclose(sol.power, 22.0)


def test_objective_matches_bruteforce_on_small_windows():
    rng = np.random.default_rng(11)
    for _ in range(25):
        ses, window, prices = random_vehicle(rng, max_slots=3)
        sol = solve_ev(ses, window, prices)
        assert sol.feasible
        _, ref_value = ev_bruteforce(ses, window, prices)
        rel = abs(sol.objective - ref_value) / max(1.0, abs(ref_value))
        assert rel <= 1e-4


def test_kkt_conditions_on_random_inputs():
    rng = np.random.default_rng(7)
    energy_tolerance = SolverConfig.energy_tolerance
    for _ in range(100):
        ses, window, prices = random_vehicle(rng)
        sol = solve_ev(ses, window, prices, energy_tolerance)
        assert sol.feasible
        rate = ses.energy_rate(SLOT_HOURS)
        delivered = rate * sol.power.sum()
        assert abs(delivered - ses.energy_needed) <= energy_tolerance
        assert stationarity_residual(sol) <= 1e-6
        lo, hi = ses.power_min, ses.power_max
        assert np.all(sol.power >= lo - 1e-9)
        assert np.all(sol.power <= hi + 1e-9)


def test_raising_one_price_never_raises_that_slot_power():
    rng = np.random.default_rng(23)
    for _ in range(40):
        ses, window, prices = random_vehicle(rng, max_slots=5)
        base = solve_ev(ses, window, prices).power
        slot = int(rng.integers(0, window.length))
        bumped = list(prices)
        bumped[slot] += rng.uniform(0.1, 3.0)
        after = solve_ev(ses, window, bumped).power
        # slack on the scale of the bisection's energy tolerance
        assert after[slot] <= base[slot] + 1e-4


def test_batch_matches_individual_solves():
    rng = np.random.default_rng(5)
    sessions = [random_vehicle(rng)[0] for _ in range(8)]
    prices = rng.uniform(0.1, 8.0, size=6).tolist()
    window = TimeGrid(0, 6, SLOT_HOURS)
    batch = solve_ev_batch(sessions, window, prices)
    singles = [solve_ev(ses, window, prices) for ses in sessions]
    for joint, single in zip(batch, singles):
        np.testing.assert_allclose(joint.power, single.power, atol=1e-7)


def test_previous_start_does_not_change_solutions():
    """A solve started from the solution at other prices equals a cold solve."""
    rng = np.random.default_rng(17)
    sessions = [random_vehicle(rng)[0] for _ in range(6)]
    ws = EVBatchWorkspace(sessions, TimeGrid(0, 6, SLOT_HOURS))
    prices = rng.uniform(0.1, 8.0, size=6)
    ws.load_prices(prices + 0.37)
    previous = ws.solve()
    ws.load_prices(prices)
    cold, warm = ws.solve(), ws.solve(previous=previous)
    for a, b in zip(cold, warm):
        np.testing.assert_allclose(a.power, b.power, atol=1e-5)


def test_objective_value_is_the_priced_utility():
    ses, window = make_vehicle(2, energy=4.0)
    sol = solve_ev(ses, window, [2.0, 3.0])
    assert sol.objective == pytest.approx(
        ev_objective(ses, [2.0, 3.0], sol.power), abs=1e-9
    )


def test_solves_reject_a_price_list_shorter_than_a_window():
    """A 3-slot vehicle given one price would make the two kernels disagree
    (the scalar one reads one slot, the array one pads to three)."""
    ses, window = make_vehicle(3, energy=2.0)
    with pytest.raises(ValueError, match="must equal the window length"):
        solve_ev(ses, window, [2.0])
    ws = EVBatchWorkspace([ses], window)
    with pytest.raises(ValueError, match="must equal the window length"):
        ws.load_prices([2.0])
    # A vehicle that departs before the window ends charges on its leading
    # slots.
    longer = TimeGrid(0, 4, SLOT_HOURS)
    np.testing.assert_array_equal(
        solve_ev(ses, longer, [2.0, 3.0, 4.0, 9.0]).power,
        solve_ev(ses, window, [2.0, 3.0, 4.0]).power,
    )


def test_load_prices_rejects_a_price_list_longer_than_the_window():
    ses, window = make_vehicle(3, energy=2.0)
    ws = EVBatchWorkspace([ses], window)
    with pytest.raises(ValueError, match="must equal the window length"):
        ws.load_prices([2.0, 3.0, 4.0, 9.0])


def test_an_empty_batch_applies_the_length_rule():
    window = TimeGrid(0, 3, SLOT_HOURS)
    assert solve_ev_batch([], window, [1.0, 2.0, 3.0]) == []
    with pytest.raises(ValueError, match="must equal the window length"):
        solve_ev_batch([], window, [1.0])


@pytest.mark.parametrize("departure", [3, 5, 9])
def test_vehicles_must_depart_inside_the_window(departure):
    """The window is slots 5-7: a vehicle leaving at or before its start, or
    after its end, has no place in it."""
    window = TimeGrid(5, 3, SLOT_HOURS)
    inside = make_session(ev_id="in", arrival=5, departure=8)
    outside = make_session(ev_id="out", arrival=0, departure=departure)
    with pytest.raises(ValueError, match="vehicle out does not depart inside the window"):
        EVBatchWorkspace([inside, outside], window)
    with pytest.raises(ValueError, match="does not depart inside the window"):
        solve_ev(outside, window, [1.0, 2.0, 3.0])


def test_each_batch_row_matches_the_vehicle_solved_alone_on_the_window():
    """A batch on a window that starts at slot 5 prices every vehicle by the
    window's own list: each row is that vehicle solved alone on the window,
    whenever it departs in it, and a vehicle present to the end charges most
    in the cheapest slot, the last one."""
    rng = np.random.default_rng(31)
    window = TimeGrid(5, 3, SLOT_HOURS)
    sessions = [make_session(ev_id="full", arrival=5, departure=8, energy=3.0)] + [
        make_session(
            ev_id=f"ev{i}",
            arrival=5,
            departure=int(rng.integers(6, 9)),
            power_max=float(rng.uniform(5.0, 30.0)),
            weight=float(rng.uniform(1.0, 20.0)),
            energy=float(rng.uniform(0.1, 1.0)),
        )
        for i in range(5)
    ]
    prices = [3.0, 2.0, 1.0]
    batch = solve_ev_batch(sessions, window, prices)
    np.testing.assert_allclose(batch[0].power, [2.023, 3.333, 6.645], atol=1e-3)
    for ses, joint in zip(sessions, batch, strict=True):
        alone = solve_ev(ses, window, prices)
        assert joint.power.size == ses.departure - window.start
        np.testing.assert_array_equal(joint.power, alone.power)
        assert joint.energy_multiplier == alone.energy_multiplier


def test_kernels_agree_on_huge_prices():
    """Prices from 1e29 to 5e31, which a huge price step can reach: each
    vehicle gets its bracket from its own prices alone on either kernel, so
    the two agree bit for bit."""
    rng = np.random.default_rng(29)
    for _ in range(100):
        width = int(rng.integers(2, 8))
        sessions = []
        for _ in range(int(rng.integers(2, 9))):
            n = int(rng.integers(1, width + 1))
            power_max = float(rng.uniform(0.5, 30.0))
            sessions.append(
                make_session(
                    departure=n,
                    power_max=power_max,
                    weight=float(rng.uniform(0.5, 20.0)),
                    energy=float(rng.uniform(0.01, 0.99)) * SLOT_HOURS * power_max * n,
                )
            )
        ws = EVBatchWorkspace(sessions, TimeGrid(0, width, SLOT_HOURS))
        ws.load_prices(rng.uniform(1e29, 5e31, size=width))
        scalar, array = ws._solve_scalar(200), ws._solve_array(200)
        assert_identical(scalar, array)

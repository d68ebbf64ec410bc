"""The scalar EV kernel evaluates a searching vehicle at its start before it
builds the saturation bracket, and keeps that evaluation when the start is
certified inside the bracket.  Re-solved from a previous solution with free
slots after a price move, small or large, at magnitudes on both sides of the
certificate's bound, it still gives the array kernel's answer bit for bit,
and it builds no bracket for a vehicle whose start meets the tolerance."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evmarket import TimeGrid, ev_agent
from evmarket.ev_agent import EVBatchWorkspace

from conftest import SLOT_HOURS, assert_identical, make_session, one_of, start_at

# Price and weight scales: the certificate's bound, 2**40 rates, is about
# 2.7e11 cent per kWh at 15-minute slots, so the first two keep |mu * rate|
# and the clamp prices below it and the rest carry them above it.
SCALES = (1.0, 1e10, 1e11, 1e12, 1e13, 1e15, 1e100, 1e300)
POWER_MIN = (st.just(0.0), st.floats(0.1, 5.0))
SPAN = st.floats(0.5, 30.0)
LOSS = (st.just(0.0), st.floats(0.0, 0.3))
SHARE = st.floats(0.05, 0.95)
WEIGHT = st.floats(0.5, 20.0)


@st.composite
def batches(draw):
    """A workspace on a window of 1-7 slots with vehicles whose requirements
    lie inside their boxes, its prices and weights scaled together (so the
    answers have free slots at every scale) or its prices alone."""
    width = draw(st.integers(1, 7))
    scale = draw(st.sampled_from(SCALES))
    weight_scale = draw(st.sampled_from((scale, scale, 1.0)))
    stays = st.integers(1, width)
    sessions = []
    for k in range(draw(st.integers(1, 8))):
        n = draw(stays)
        power_min = one_of(draw, *POWER_MIN)
        power_max = power_min + draw(SPAN)
        loss = one_of(draw, *LOSS)
        rate = (1.0 - loss) * SLOT_HOURS
        share = draw(SHARE)
        sessions.append(
            make_session(
                ev_id=f"ev{k}",
                departure=n,
                power_min=power_min,
                power_max=power_max,
                weight=weight_scale * draw(WEIGHT),
                loss_fraction=loss,
                energy=rate * n * (power_min + share * (power_max - power_min)),
            )
        )
    prices = [scale * p for p in draw(st.lists(st.floats(0.0, 8.0), min_size=width, max_size=width))]
    ws = EVBatchWorkspace(sessions, TimeGrid(0, width, SLOT_HOURS))
    ws.load_prices(prices)
    return ws


def moved(draw, prices, size):
    """``prices`` each scaled by a factor near 1 (a small move, after which
    most starts meet the tolerance) or between 0.05 and 4 (a large one,
    which can carry the start of a vehicle with no free slot, its previous
    multiplier, out of its bracket)."""
    spread = draw(st.sampled_from((1e-4, 1e-3, 3.0)))
    low = max(0.05, 1.0 - spread)
    factors = draw(st.lists(st.floats(low, 1.0 + spread), min_size=size, max_size=size))
    return [p * f for p, f in zip(prices, factors)]


def has_free_slot(solution):
    ws = solution.workspace
    ws._matrices()
    power = np.asarray(solution.rows)
    return bool(np.any(ws.mask & (power > ws.lo) & (power < ws.hi)))


@settings(max_examples=400, deadline=None)
@given(ws=batches(), data=st.data(), max_iter=st.sampled_from([0, 1, 200]))
def test_scalar_kernel_matches_array_kernel_after_a_move(ws, data, max_iter):
    before = ws._solve_scalar(200)
    assert_identical(before, ws._solve_array(200))
    assume(has_free_slot(before))
    ws.load_prices(moved(data.draw, ws.prices, len(ws.prices)))
    array = ws._solve_array(max_iter, before)
    assert_identical(ws._solve_scalar(max_iter, before), array)
    assert_identical(ws._solve_scalar(max_iter), ws._solve_array(max_iter))


def bracket_builds(monkeypatch):
    """Record the scalar kernel's bracket builds, each as the bracket built."""
    built = []
    bracket = ev_agent._bracket

    def recorded(*args):
        built.append(bracket(*args))
        return built[-1]

    monkeypatch.setattr(ev_agent, "_bracket", recorded)
    return built


def test_a_start_that_meets_the_tolerance_builds_no_bracket(monkeypatch):
    """Two searching vehicles: the first charges in every slot, the second
    needs one full slot out of two and fills the cheaper one, so its row has
    no free slot and its start is its previous multiplier.  After a 0.1%
    price move both starts meet the tolerance and no bracket is built.  A
    tangent start off free slots keeps the top slot's effective price above
    a weighted mean of theirs, and the bottom slot's below it, so it stays
    inside the bracket: after a rise of 100 in every price only the second
    vehicle builds one, and its start lies above the bracket, whose clamp
    moves it."""
    sessions = [
        make_session(ev_id="a", departure=3, power_max=10.0, weight=10.0, energy=3.0),
        make_session(ev_id="b", departure=2, power_max=10.0, weight=10.0, energy=2.5),
    ]
    ws = EVBatchWorkspace(sessions, TimeGrid(0, 3, SLOT_HOURS))
    ws.load_prices([1.0, 20.0, 10.0])
    before = ws._solve_scalar(200)
    assert has_free_slot(before) and before.rows[1] == [10.0, 0.0, 0.0]
    built = bracket_builds(monkeypatch)
    ws.load_prices([1.001, 20.02, 10.01])
    assert_identical(ws._solve_scalar(200, before), ws._solve_array(200, before))
    assert built == []
    ws.load_prices([101.0, 120.0, 110.0])
    after = ws._solve_scalar(200, before)
    assert_identical(after, ws._solve_array(200, before))
    [(mu_low, mu_high)] = built
    assert before.multipliers[1] > mu_high >= after.multipliers[1] >= mu_low


def test_a_start_past_the_magnitude_bound_is_clamped():
    """Prices near 5.5e25 against clamp prices near 1: the start puts the
    first slot on its upper face and the second on its lower one, so its row
    total differs from both all-bound totals and meets the tolerance, yet it
    lies one rounding unit below the bracket, whose clamp moves it there.
    Only the bound on ``|mu * rate|`` keeps the certificate from accepting
    it."""
    session = make_session(
        departure=2,
        power_max=22.676826853294294,
        weight=1.4404424624486647,
        loss_fraction=0.07165472381674073,
        energy=5.26298127202036,
    )
    ws = EVBatchWorkspace([session], TimeGrid(0, 2, SLOT_HOURS))
    ws.load_prices([5.467517122715472e25, 5.467517122715473e25])
    previous = start_at(ws, [-2.3558119001560625e26])
    for max_iter in (0, 1, 200):
        array = ws._solve_array(max_iter, previous)
        assert array.multipliers[0] != -2.3558119001560625e26
        assert_identical(ws._solve_scalar(max_iter, previous), array)

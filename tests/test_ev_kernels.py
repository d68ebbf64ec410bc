"""The scalar and the array EV kernels give bit-identical results on the
window price list, from the even spread or from the tangent prediction off a
previous solution (a previous solution with every slot on a bound starts each
vehicle exactly at its multiplier), and ``EVBatchWorkspace.solve`` sends each
batch to the kernel its size rule names."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import TimeGrid, ev_agent
from evmarket.ev_agent import EVBatchSolution, EVBatchWorkspace, solve_ev_batch

from conftest import SLOT_HOURS, assert_identical, make_session, make_vehicle, start_at, window_of

# Where the requirement sits relative to the energy the box can deliver.
NEEDS = ("zero", "interior", "full", "floor", "over", "under")


PRICE = st.one_of(st.just(0.0), st.floats(0.0, 8.0))


@st.composite
def vehicles(draw, width):
    """One vehicle departing within ``width`` slots of slot 0."""
    n = draw(st.integers(1, width))
    power_min = draw(st.one_of(st.just(0.0), st.floats(0.1, 5.0)))
    power_max = power_min + draw(st.floats(0.5, 30.0))
    loss = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
    # Small weights with wide boxes put the saturation bound where some
    # effective prices q are nonpositive.
    weight = draw(st.one_of(st.floats(0.01, 0.2), st.floats(0.5, 20.0)))
    rate = (1.0 - loss) * SLOT_HOURS
    floor, cap = rate * power_min * n, rate * power_max * n
    share = draw(st.floats(0.01, 0.99))
    energy = {
        "zero": 0.0,
        "interior": floor + share * (cap - floor),
        "full": cap,
        "floor": floor,
        "over": cap * (1.0 + share) + 0.01,
        "under": floor * share,
    }[draw(st.sampled_from(NEEDS))]
    return make_session(
        departure=n,
        power_min=power_min,
        power_max=power_max,
        weight=weight,
        loss_fraction=loss,
        energy=energy,
    )


@st.composite
def batches(draw):
    """A workspace loaded with the window list the coordinator broadcasts,
    which may be longer than every stay."""
    width = draw(st.integers(1, 7))
    window = draw(st.lists(PRICE, min_size=width, max_size=width))
    sessions = draw(st.lists(vehicles(width), min_size=1, max_size=8))
    ws = EVBatchWorkspace(sessions, TimeGrid(0, width, SLOT_HOURS))
    ws.load_prices(window)
    return ws


# Starts: cold, or a previous solution with every slot on a bound, drawn per
# vehicle, whose multipliers are the exact starts: finite (near zero, or far
# below the saturation bound, where every slot is clamped at its upper bound
# and the slope is zero) or non-finite.
STARTS = st.one_of(
    st.none(),
    st.tuples(
        st.lists(
            st.one_of(
                st.floats(-10.0, 10.0),
                st.just(-1e6),
                st.just(1e6),
                st.sampled_from([np.nan, np.inf, -np.inf]),
            ),
            min_size=8,
            max_size=8,
        ),
        st.lists(st.booleans(), min_size=8, max_size=8),
    ),
)


def assert_same(ws, start, max_iter, nan=False):
    """Both kernels agree from ``start``: None (cold), or multipliers and,
    per vehicle, whether its previous slots sat on the upper bound."""
    previous = None
    if start is not None:
        count = len(ws.lengths)
        previous = start_at(ws, start[0][:count], start[1][:count])
    scalar = ws._solve_scalar(max_iter, previous)
    assert_identical(scalar, ws._solve_array(max_iter, previous), nan)


@settings(max_examples=500, deadline=None)
@given(ws=batches(), start=STARTS, max_iter=st.sampled_from([200, 200, 1, 3]))
def test_scalar_kernel_matches_array_kernel(ws, start, max_iter):
    assert_same(ws, start, max_iter)


@st.composite
def moves(draw, ws):
    """The window list before and after a move: a small step, a step large
    enough to carry slots across the box faces (the free set changes), or
    either with a NaN slot before or after in a slot some vehicle sees."""
    now = np.array(ws.prices)
    kind = draw(st.sampled_from(("small", "large", "nan before", "nan after")))
    scale = 0.05 if kind == "small" else 3.0
    step = draw(st.lists(st.floats(-scale, scale), min_size=now.size, max_size=now.size))
    before = np.maximum(now + step, 0.0)
    if kind.startswith("nan"):
        i = draw(st.integers(0, len(ws.lengths) - 1))
        target = before if kind == "nan before" else now
        target[draw(st.integers(0, ws.lengths[i] - 1))] = np.nan
    return kind, before, now


@settings(max_examples=300, deadline=None)
@given(ws=batches(), data=st.data(), max_iter=st.sampled_from([200, 200, 0, 1, 3]))
def test_kernels_match_on_the_predicted_start(ws, data, max_iter):
    kind, before, now = data.draw(moves(ws))
    nan = kind.startswith("nan")
    ws.load_prices(before)
    scalar_before = ws._solve_scalar(200)
    array_before = ws._solve_array(200)
    assert_identical(scalar_before, array_before, nan)
    ws.load_prices(now)
    array = ws._solve_array(max_iter, array_before)
    assert_identical(ws._solve_scalar(max_iter, scalar_before), array, nan)
    assert_same(ws, None, max_iter, nan)


@st.composite
def short_stays(draw):
    """Vehicles on a window of 2-12 slots, the first of which departs before
    its end, and two window lists: one before a move and one after it."""
    width = draw(st.integers(2, 12))
    first = draw(vehicles(width - 1))
    sessions = [first, *draw(st.lists(vehicles(width), min_size=1, max_size=30))]
    before, now = (draw(st.lists(PRICE, min_size=width, max_size=width)) for _ in range(2))
    return sessions, TimeGrid(0, width, SLOT_HOURS), before, now


def first_answer(solution):
    """The first vehicle's row, multiplier, flag and objective, as bytes."""
    return (
        np.asarray(solution.rows[0]).tobytes(),
        np.asarray(solution.multipliers, dtype=float)[0].tobytes(),
        bool(solution.flags[0]),
        solution.objective[0].tobytes(),
    )


@settings(max_examples=100, deadline=None)
@given(
    batch=short_stays(),
    past=st.sampled_from([0.0, 1e300, math.nan]),
    warm=st.booleans(),
    kernel=st.sampled_from(["_solve_scalar", "_solve_array"]),
)
def test_a_vehicle_reads_only_its_own_prices(batch, past, warm, kernel):
    """Prices past a vehicle's departure (0, 1e300 or NaN, where its weight
    and box are zero) leave its row, multiplier, flag and objective the same
    bit for bit on either kernel: solved cold, or from the tangent
    prediction off a previous solution whose prices moved there too."""
    sessions, window, before, now = batch
    n = sessions[0].departure - window.start
    answers = []
    for lists in ((before, now), [p[:n] + [past] * (len(p) - n) for p in (before, now)]):
        ws = EVBatchWorkspace(sessions, window)
        previous = None
        if warm:
            ws.load_prices(lists[0])
            previous = getattr(ws, kernel)(200)
        ws.load_prices(lists[1])
        answers.append(first_answer(getattr(ws, kernel)(200, previous)))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("kernel", ["_solve_scalar", "_solve_array"])
def test_a_price_past_departure_adds_no_free_slot(kernel):
    """At multiplier 0 a price equal to the weight puts the level at 0, on
    a zero box.  Past a departure the weight is 0 too, so the level there is
    -1 and the first Newton step's slope is the same as at a price of 0."""
    sessions = [
        make_session(departure=1, power_max=10.0, weight=5.0, energy=0.5),
        make_session(ev_id="b", departure=2, power_max=10.0, weight=5.0, energy=1.0),
    ]
    answers = []
    for past in (0.0, 5.0):
        ws = EVBatchWorkspace(sessions, TimeGrid(0, 2, SLOT_HOURS))
        ws.load_prices([1.0, past])
        answers.append(first_answer(getattr(ws, kernel)(1, start_at(ws, [0.0, 0.0]))))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("start", [None, ([0.0, 0.0], [False, False])])
def test_kernels_agree_on_the_sign_of_zero_past_a_departure(start):
    """A box of ``[-0.0, -0.0]``, which validation accepts, holds the power
    at -0.0 during the stay; past the departure both kernels pad with 0.0."""
    sessions = [
        make_session(departure=1, power_min=-0.0, power_max=-0.0, energy=0.0),
        make_session(ev_id="b", departure=3, power_max=10.0, energy=1.0),
    ]
    ws = EVBatchWorkspace(sessions, TimeGrid(0, 3, SLOT_HOURS))
    ws.load_prices([1.0, 2.0, 3.0])
    assert_same(ws, start, 200)
    assert np.signbit(ws._solve_array(200).rows[0]).tolist() == [True, False, False]


def starts(ws, previous, nan=False):
    """Each kernel's starting multipliers (``max_iter=0``) from ``previous``."""
    scalar = ws._solve_scalar(0, previous)
    array = ws._solve_array(0, previous)
    assert_identical(scalar, array, nan)
    return scalar.multipliers


def one_vehicle(before, row, mu, energy=2.0, now=(2.1, 2.9, 4.5)):
    """A 3-slot vehicle (box [0, 20]) loaded with ``now``, and a previous
    solution at ``before`` with powers ``row`` and multiplier ``mu``."""
    ses, window = make_vehicle(3, power_max=20.0, energy=energy)
    ws = EVBatchWorkspace([ses], window)
    ws.load_prices(list(now))
    previous = EVBatchSolution(ws, list(before), [list(row)], [mu], [True], list(row))
    return ws, previous


@pytest.mark.parametrize("last", [4.0, math.nan, math.inf])
def test_predicted_start_is_the_tangent_step(last):
    """Only the slots strictly inside the box enter the step, whatever the
    previous price of a slot on a face (20 kW is the upper one)."""
    ws, previous = one_vehicle([2.0, 3.0, last], [1.5, 0.5, 20.0], 0.3)
    sq0, sq1 = 2.5 * 2.5, 1.5 * 1.5
    num = 0.0 + sq0 * (2.1 - 2.0) + sq1 * (2.9 - 3.0)
    assert starts(ws, previous) == [0.3 - num / (SLOT_HOURS * (sq0 + sq1))]


def test_no_free_slot_starts_from_the_previous_multiplier():
    ws, previous = one_vehicle([2.0, 3.0, 4.0], [20.0, 0.0, 0.0], 0.3)
    assert starts(ws, previous) == [0.3]


def test_non_finite_prediction_starts_at_the_bracket_midpoint():
    """A NaN previous price on a free slot makes the step NaN."""
    ws, previous = one_vehicle([2.0, math.nan, 4.0], [1.5, 0.5, 20.0], 0.3)
    start = starts(ws, previous)
    mu_low = (ws.clamp_hi_price - 4.5) / ws.rate - 1.0
    mu_high = (ws.clamp_lo_price - 2.1) / ws.rate + 1.0
    assert start == (0.5 * (mu_low + mu_high)).tolist()


def test_nan_price_gives_a_nan_start_on_either_kernel():
    """A NaN price makes the saturation bracket NaN, as NumPy's row maximum
    does, wherever it sits in the row; the vehicle ends at its upper bound."""
    for now in ((math.nan, 2.9, 4.5), (2.1, math.nan, 4.5), (2.1, 2.9, math.nan)):
        ws, previous = one_vehicle([2.0, 3.0, 4.0], [1.5, 0.5, 20.0], 0.3, now=now)
        assert math.isnan(starts(ws, previous, nan=True)[0])
        array = ws._solve_array(200, previous)
        assert_identical(ws._solve_scalar(200, previous), array, nan=True)
        assert array.rows.tolist() == [[20.0] * 3]
        assert_same(ws, None, 200, nan=True)


def test_saturated_requirement_ignores_the_prediction():
    """A requirement at the upper face starts (and stays) at the bracket's
    lower end, where every slot is at 20 kW."""
    ws, previous = one_vehicle([2.0, 3.0, 4.0], [1.5, 0.5, 20.0], 0.3, energy=15.0)
    assert starts(ws, previous) == ((ws.clamp_hi_price - 4.5) / ws.rate - 1.0).tolist()


def test_nonpositive_effective_price_and_zero_slope():
    """A start far below the saturation bound puts every slot at the upper
    bound, some at q <= 0; the zero slope there makes the first step bisect."""
    ses, window = make_vehicle(3, power_max=30.0, weight=0.1, energy=10.0)
    ws = EVBatchWorkspace([ses], window)
    ws.load_prices([0.0, 3.0, 1.0])
    ws._matrices()
    lam = np.asarray(ws.prices)
    mu_low = (ws.clamp_hi_price - lam.max()) / ws.rate - 1.0
    q = lam + (mu_low * ws.rate)[:, None]
    assert (q <= 0).any()
    slope = ws._slope(*ws._power_at(mu_low, lam)[:2])
    assert slope[0] == 0.0
    for max_iter in (1, 2, 200):
        assert_same(ws, ([-1e6], [True]), max_iter)
    assert all(ws.solve(previous=start_at(ws, [-1e6])).flags)


def batch(vehicles, width):
    sessions = [make_session(departure=width, power_max=20.0, energy=2.0)] * vehicles
    ws = EVBatchWorkspace(sessions, window_of(sessions))
    ws.load_prices(np.linspace(1.0, 3.0, width))
    return ws


def kernel_used(ws):
    """The kernels ``ws.solve`` calls, spied on the class: a workspace has
    no instance dictionary to patch."""
    used = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_solve_scalar", "_solve_array"):

            def spy(*args, _name=name, _kernel=getattr(EVBatchWorkspace, name)):
                used.append(_name)
                return _kernel(*args)

            mp.setattr(EVBatchWorkspace, name, spy)
        ws.solve()
    return used


def test_size_rule_picks_the_kernel():
    width, vehicles = ev_agent._SCALAR_WIDTH, ev_agent._SCALAR_VEHICLES
    assert kernel_used(batch(vehicles, width)) == ["_solve_scalar"]
    assert kernel_used(batch(vehicles, 1)) == ["_solve_scalar"]
    # Small batches with wide rows, where the scalar kernel is the faster one.
    for count, slots in ((16, 4), (12, 5), (20, 3), (12, 7)):
        assert kernel_used(batch(count, slots)) == ["_solve_scalar"]
    # One vehicle past the cutoff, or one slot past the width.
    assert kernel_used(batch(vehicles + 1, 1)) == ["_solve_array"]
    assert kernel_used(batch(vehicles + 1, width)) == ["_solve_array"]
    assert kernel_used(batch(1, width + 1)) == ["_solve_array"]


@pytest.mark.parametrize("count", range(1, ev_agent._SCALAR_VEHICLES + 1))
def test_one_slot_batches_sum_their_column_like_numpy(count):
    """NumPy sums the single column of a one-slot batch pairwise from eight
    vehicles on; the scalar kernel's demand must be that sum, bit for bit."""
    rng = np.random.default_rng(count)
    sessions = [
        make_session(
            departure=1,
            power_max=float(rng.uniform(5.0, 30.0)),
            energy=float(rng.uniform(0.1, 1.0)),
        )
        for _ in range(count)
    ]
    ws = EVBatchWorkspace(sessions, window_of(sessions))
    ws.load_prices(np.array([float(rng.uniform(0.5, 4.0))]))
    assert_same(ws, None, 200)


def test_cached_saturation_flags_are_read_only():
    """An array batch builds its face flags with the workspace, a scalar
    batch on its first array solve; either builds them once."""
    array_batch, scalar_batch = batch(ev_agent._SCALAR_VEHICLES + 1, 4), batch(3, 4)
    assert scalar_batch._saturation is None
    scalar_batch._solve_array(200)
    for ws in (array_batch, scalar_batch):
        flags = ws._saturation
        for array in flags[:3]:
            with pytest.raises(ValueError):
                array &= False
        ws._solve_array(200)
        assert ws._saturation is flags


@pytest.mark.parametrize("slots", [5, ev_agent._SCALAR_WIDTH, ev_agent._SCALAR_WIDTH + 3])
def test_a_batch_spans_a_window_longer_than_every_stay(slots):
    """A batch answers over the window it is given, not over its longest
    stay: through either kernel and through ``solve_ev_batch``, every row and
    the demand have the window's length and are zero past each departure.
    On a window the scalar kernel may take, the kernels agree bit for bit."""
    sessions = [
        make_session(ev_id="a", departure=1, energy=2.0),
        make_session(ev_id="b", departure=3, energy=5.0),
        make_session(ev_id="c", departure=4, energy=0.5),
    ]
    window = TimeGrid(0, slots, SLOT_HOURS)
    prices = np.linspace(1.0, 3.0, slots).tolist()
    ws = EVBatchWorkspace(sessions, window)
    ws.load_prices(prices)
    scalar, array = ws._solve_scalar(200), ws._solve_array(200)
    for solution in (scalar, array, solve_ev_batch(sessions, window, prices)):
        assert np.shape(solution.rows) == (len(sessions), slots)
        assert len(solution.demand) == slots
        for row, ses in zip(solution.rows, sessions):
            assert list(row[ses.departure :]) == [0.0] * (slots - ses.departure)
        assert solution.demand[4:] == [0.0] * (slots - 4)
        assert all(solution.flags)
    if slots <= ev_agent._SCALAR_WIDTH:
        assert_identical(scalar, array)
        assert_same(ws, ([0.5, -1e6, 1e6], [False, True, False]), 200)

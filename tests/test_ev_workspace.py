"""The vehicle workspace's set-up: a scalar batch's per-vehicle constants,
built in plain floats, are the NumPy derivation's bit for bit, and a
workspace gains no attribute after its constructor."""
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import DSOSubproblem, StorageSpec, TimeGrid, ev_agent, negotiate_slot
from evmarket.ev_agent import EVBatchWorkspace, stationarity_residual

from conftest import SLOT_HOURS, TABLE1_DSO, make_session


@np.errstate(over="ignore", invalid="ignore")
def numpy_constants(ws: EVBatchWorkspace) -> list[tuple]:
    """The scalar kernel's constants derived from the workspace's matrices
    with NumPy: each vehicle's length, weight, box, rate, slope coefficient,
    requirement, even spread and clamp prices, its face, its all-upper and
    all-lower row totals and its certificate bound."""
    ws._matrices()
    at_hi, at_lo = ws._saturation[:2]
    rows = np.arange(len(ws.lengths))
    rate = np.where((ws.rate > 2.0**-1000) & (ws.rate < 2.0**900), ws.rate, 0.0)
    limit = ev_agent._CERTIFIED * rate
    inside = (np.abs(ws.clamp_lo_price) < limit) & (np.abs(ws.clamp_hi_price) < limit)
    columns = (
        ws.lengths, ws.weight, ws.lo[:, 0], ws.hi[:, 0], ws.rate,
        ws.slope_coef, ws.need, ws.even, ws.clamp_lo_price,
        ws.clamp_hi_price, np.where(at_hi, 1, np.where(at_lo, -1, 0)),
        np.cumsum(ws.hi, 1)[rows, ws.last], np.cumsum(ws.lo, 1)[rows, ws.last],
        np.where(inside, limit, 0.0),
    )
    return list(zip(*(c.tolist() for c in columns)))


def bits(constants: list[tuple]) -> list[tuple]:
    """Each entry as its type and, for a float, its exact bits (the sign of
    a zero and NaN included)."""
    return [
        tuple((type(x), x.hex() if isinstance(x, float) else x) for x in row)
        for row in constants
    ]


# Slot lengths from ordinary to ones whose rates, or their squares and
# products, underflow (to subnormals, or to 0 at loss fractions above 1/2
# with the smallest subnormal) or overflow.
HOURS = st.one_of(
    st.sampled_from([SLOT_HOURS, 1.0, 1e-160, 1e-300, 1e-310, 5e-324, 1e160, 1e300, 1.7e308]),
    st.floats(5e-324, 1.7e308),
)
LOSS = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def vehicle(draw, width, hours):
    """A vehicle of a window of ``width`` slots of ``hours``, its requirement
    on or near a box face (within the tolerance or not), inside the box,
    beyond it, or zero of either sign."""
    n = draw(st.integers(1, width))
    power_min = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 50.0)))
    power_max = power_min + draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
    loss = draw(LOSS)
    weight = draw(st.one_of(st.floats(0.01, 20.0), st.sampled_from([5e-324, 1e-300, 1e300])))
    rate = (1.0 - loss) * hours
    floor, cap = rate * power_min * n, rate * power_max * n
    tol = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
    share = draw(st.floats(0.0, 1.0))
    energy = draw(
        st.sampled_from([
            0.0, -0.0, floor, cap, floor + tol, floor - tol, cap + tol, cap - tol,
            floor + share * (cap - floor), 2.0 * cap + 1.0,
        ])
    )
    return make_session(
        departure=n,
        power_min=power_min,
        power_max=power_max,
        weight=weight,
        loss_fraction=loss,
        energy=energy if energy >= 0 else 0.0,
    )


@st.composite
def workspaces(draw):
    """A scalar-sized workspace: 1-7 slots, 1-24 vehicles."""
    width = draw(st.integers(1, ev_agent._SCALAR_WIDTH))
    hours = draw(HOURS)
    count = draw(st.integers(1, ev_agent._SCALAR_VEHICLES))
    sessions = draw(st.lists(vehicle(width, hours), min_size=count, max_size=count))
    tolerance = draw(st.sampled_from([1e-6, 1e-3, 0.0]))
    return EVBatchWorkspace(sessions, TimeGrid(0, width, hours), tolerance)


@settings(max_examples=400, deadline=None)
@given(ws=workspaces())
def test_plain_float_constants_are_numpys_bit_for_bit(ws):
    """A batch with a zero rate, where Python's division raises and NumPy's
    gives an inf or a NaN, goes to the array kernel instead."""
    hours = ws.window.slot_hours
    if any(s.energy_rate(hours) == 0.0 for s in ws.sessions):
        assert ws._constants is None and ws._saturation is not None
        return
    assert bits(ws._constants) == bits(numpy_constants(ws))


@pytest.mark.parametrize(
    "fields",
    [dict(weight=0.0), dict(power_min=-1.0, power_max=0.0), dict(loss_fraction=0.75)],
)
def test_a_zero_divisor_sends_a_small_batch_to_the_array_kernel(fields):
    """A zero weight, a ``power_min`` of -1 or a zero rate (a quarter of
    the smallest subnormal slot) would divide by zero in plain floats; the
    batch is solved by the array kernel, which answers with NumPy's inf or
    NaN."""
    hours = 5e-324 if "loss_fraction" in fields else SLOT_HOURS
    ws = EVBatchWorkspace([make_session(departure=2, **fields)], TimeGrid(0, 2, hours))
    assert ws._constants is None
    ws.load_prices([1.0, 2.0])
    assert isinstance(ws.solve().multipliers, np.ndarray)  # the array kernel's


def test_no_attribute_is_added_after_construction(monkeypatch):
    """A workspace is re-solved at every dual evaluation of its negotiation,
    and each solve reads it many times.  On CPython 3.11 an attribute added
    after construction (a ``functools.cached_property`` writes one straight
    into the instance ``__dict__``) makes every later attribute read on the
    instance about 3 times slower (9.5 to 27 ns) and every write about 4
    times (12 to 45 ns).  So the class defines no cached property, and after
    a negotiation's solves and verify's readers (the dual value, each
    vehicle's stationarity residual) on a scalar and an array batch, the
    workspace holds exactly the names its constructor set."""
    for klass in EVBatchWorkspace.__mro__:
        assert not any(isinstance(v, cached_property) for v in vars(klass).values())
    constructed = []
    init = EVBatchWorkspace.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        constructed.append((self, set(vars(self))))

    monkeypatch.setattr(EVBatchWorkspace, "__init__", recorded)
    window = TimeGrid(0, 4, SLOT_HOURS)
    dso_sub = DSOSubproblem(TABLE1_DSO, StorageSpec(0.0, 0.0, 0.0, 0.0), 0.0, window)
    for count in (3, ev_agent._SCALAR_VEHICLES + 1):
        sessions = [
            make_session(ev_id=f"ev{k}", departure=1 + k % 4, energy=0.5 + 0.1 * k)
            for k in range(count)
        ]
        result = negotiate_slot(sessions, dso_sub, [3.0] * 4)
        assert result.iterations > 1
        assert np.isfinite(result.dual_value)
        assert max(map(stationarity_residual, result.ev_solutions)) < 1e-6
        [(ws, names)] = constructed
        assert ws is result.ev_solutions.workspace
        assert set(vars(ws)) == names
        constructed.clear()

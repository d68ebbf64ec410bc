"""The vehicle workspace's set-up: each vehicle's constants are derived once,
in plain floats, and they and the array kernel's vectors stacked from them
are the NumPy derivation's bit for bit; a vehicle whose constants would
divide by zero is refused by name; and a workspace's attributes are its
class's fixed slots."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import DSOSubproblem, StorageSpec, TimeGrid, ev_agent, negotiate_slot
from evmarket.ev_agent import EVBatchWorkspace, solve_ev_batch

from conftest import SLOT_HOURS, TABLE1_DSO, make_session


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def numpy_reference(sessions, window: TimeGrid, tol: float) -> dict:
    """The per-vehicle constants and the array kernel's matrices, derived
    from the sessions with NumPy: each vehicle's length, weight, box, rate,
    slope coefficient, requirement, even spread, clamp prices and face, its
    all-upper and all-lower row totals and its certificate bound, and the
    mask over the window with the weights and boxes, zero past each
    departure."""
    lengths = np.array([s.departure - window.start for s in sessions])
    width = window.length
    weight = np.array([s.weight for s in sessions])
    lo = np.array([s.power_min for s in sessions])
    hi = np.array([s.power_max for s in sessions])
    rate = np.array([s.energy_rate(window.slot_hours) for s in sessions])
    need = np.array([s.energy_needed for s in sessions])
    mask = np.arange(width)[None, :] < lengths[:, None]
    at_hi = need >= rate * hi * lengths - tol
    at_lo = need <= rate * lo * lengths + tol
    clamp_lo, clamp_hi = weight / (1.0 + lo), weight / (1.0 + hi)
    rows = np.arange(len(lengths))
    last = lengths - 1
    tiny_or_huge = (rate > 2.0**-1000) & (rate < 2.0**900)
    limit = ev_agent._CERTIFIED * np.where(tiny_or_huge, rate, 0.0)
    inside = (np.abs(clamp_lo) < limit) & (np.abs(clamp_hi) < limit)
    columns = (
        lengths, weight, lo, hi, rate, -rate**2 / weight, need,
        np.clip(need / (rate * lengths), lo, hi), clamp_lo, clamp_hi,
        np.where(at_hi, 1, np.where(at_lo, -1, 0)),
        np.cumsum(hi[:, None] * mask, 1)[rows, last],
        np.cumsum(lo[:, None] * mask, 1)[rows, last],
        np.where(inside, limit, 0.0),
    )
    return dict(
        constants=list(zip(*(c.tolist() for c in columns))),
        lengths=lengths, mask=mask, last=last, weight=weight,
        weight_col=np.where(mask, weight[:, None], 0.0),
        lo=np.where(mask, lo[:, None], 0.0), hi=np.where(mask, hi[:, None], 0.0), rate=rate,
        slope_coef=columns[5], need=need, even=columns[7],
        clamp_lo_price=clamp_lo, clamp_hi_price=clamp_hi,
        # The kernel reads the lower face only where the upper one is not.
        faces=(at_hi, at_lo & ~at_hi, ~(at_hi | at_lo)),
        saturated=bool((at_hi | at_lo).any()),
    )


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
def batches(draw):
    """The sessions, window and tolerance of a workspace: scalar-sized (1-7
    slots, 1-24 vehicles) or array-sized (8-12 slots, 1-40 vehicles)."""
    if draw(st.integers(0, 3)):
        width = draw(st.integers(1, ev_agent._SCALAR_WIDTH))
        count = draw(st.integers(1, ev_agent._SCALAR_VEHICLES))
    else:
        width = draw(st.integers(ev_agent._SCALAR_WIDTH + 1, 12))
        count = draw(st.integers(1, 40))
    hours = draw(HOURS)
    sessions = draw(st.lists(vehicle(width, hours), min_size=count, max_size=count))
    tolerance = draw(st.sampled_from([1e-6, 1e-3, 0.0]))
    return sessions, TimeGrid(0, width, hours), tolerance


def assert_same_bits(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert bits([actual.ravel().tolist()]) == bits([expected.ravel().tolist()])


@settings(max_examples=300, deadline=None)
@given(batch=batches())
def test_plain_float_constants_are_numpys_bit_for_bit(batch):
    """Every vehicle's constants, built once in plain floats, are the NumPy
    derivation's bit for bit, and so are the array kernel's vectors stacked
    from them (built with an array batch, on first read for a scalar one).
    A batch with a zero rate, which Python's division refuses and NumPy
    would answer with an inf or a NaN, is refused."""
    sessions, window, tol = batch
    if any(s.energy_rate(window.slot_hours) == 0.0 for s in sessions):
        with pytest.raises(ValueError, match="divides by zero"):
            EVBatchWorkspace(sessions, window, tol)
        return
    ws = EVBatchWorkspace(sessions, window, tol)
    reference = numpy_reference(sessions, window, tol)
    assert bits(ws._constants) == bits(reference["constants"])
    assert (ws.mask is None) == ws._scalar
    ws._matrices()
    for name in (
        "lengths", "mask", "last", "weight", "weight_col", "lo", "hi", "rate",
        "slope_coef", "need", "even", "clamp_lo_price", "clamp_hi_price",
    ):
        assert_same_bits(getattr(ws, name), reference[name])
    for flags, expected in zip(ws._saturation, reference["faces"]):
        assert_same_bits(flags, expected)
    assert ws._saturation[3] is reference["saturated"]


@pytest.mark.parametrize("count", [1, ev_agent._SCALAR_VEHICLES + 1])
@pytest.mark.parametrize(
    "fields",
    [dict(weight=0.0), dict(power_min=-1.0, power_max=0.0), dict(loss_fraction=0.75)],
)
def test_a_zero_divisor_is_refused_naming_the_vehicle(fields, count):
    """A zero weight, a ``power_min`` of -1 or a zero rate (a quarter of
    the smallest subnormal slot) would divide by zero in a vehicle's
    constants: a workspace, a batch solve and a negotiation refuse the
    vehicle by name, on a scalar-sized batch and an array-sized one."""
    hours = 5e-324 if "loss_fraction" in fields else SLOT_HOURS
    window = TimeGrid(0, 2, hours)
    sessions = [make_session(ev_id=f"ev{k}") for k in range(count - 1)]
    sessions.append(make_session(ev_id="bad", **fields))
    dso_sub = DSOSubproblem(TABLE1_DSO, StorageSpec(0.0, 0.0, 0.0, 0.0), 0.0, window)
    refused = pytest.raises(ValueError, match="^vehicle bad divides by zero")
    with refused:
        EVBatchWorkspace(sessions, window)
    with refused:
        solve_ev_batch(sessions, window, [1.0, 2.0])
    with refused:
        negotiate_slot(sessions, dso_sub, [3.0, 3.0])


def test_no_attribute_is_added_after_construction():
    """A workspace is re-solved at every dual evaluation of its negotiation,
    and each solve reads it many times, so its layout is fixed by the
    class's ``__slots__``: on a scalar and an array batch the constructor
    sets every slot, the instance has no ``__dict__`` and no ``width``
    (``window.length`` is its one length), and a new name cannot be set."""
    for count in (3, ev_agent._SCALAR_VEHICLES + 1):
        sessions = [make_session(ev_id=f"ev{k}", departure=1 + k % 4) for k in range(count)]
        ws = EVBatchWorkspace(sessions, TimeGrid(0, 4, SLOT_HOURS))
        assert ws._scalar == (count == 3)
        for name in EVBatchWorkspace.__slots__:
            getattr(ws, name)
        assert not hasattr(ws, "__dict__") and not hasattr(ws, "width")
        with pytest.raises(AttributeError):
            ws.width = 4

"""The price loop runs on plain floats with NumPy's arithmetic.

NaN must propagate as it does through ``np.maximum`` and ``np.max``: Python's
``max`` and ``min`` drop a NaN that is not their first argument, which would
let a NaN residual read as converged or a NaN supplier price pass its
certificate.  And the loop must give the same prices, powers, multipliers and
iteration counts bit for bit whichever EV kernel solves its batches.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import (
    DSOSpec,
    DSOSubproblem,
    SolverConfig,
    StorageSpec,
    TimeGrid,
    coordinator,
    ev_agent,
    mpc_loop,
    negotiate_slot,
    resolve_sessions,
    update_price,
)
from evmarket.coordinator import DualIterationState
from evmarket.dso_agent import ConvergenceError, DSOSolution, _pinned_dispatch, solve_dso
from evmarket.model import max_abs

from conftest import SLOT_HOURS, TABLE1_DSO, TABLE1_STORAGE, make_session

NO_STORAGE = StorageSpec(0.0, 0.0, 0.0, 0.0)
NAN = math.nan


def dso_sub(n, dso=TABLE1_DSO, storage=NO_STORAGE):
    return DSOSubproblem(
        dso=dso,
        storage=storage,
        energy_now=storage.energy_initial,
        window=TimeGrid(0, n, SLOT_HOURS),
    )


def same_bits(floats, array):
    """Equal as IEEE values: NaN where NaN, and the same sign on zeros."""
    array = np.asarray(array, dtype=float)
    floats = np.asarray(floats, dtype=float)
    return np.array_equal(floats, array, equal_nan=True) and np.array_equal(
        np.signbit(floats), np.signbit(array)
    )


@pytest.mark.parametrize("prices", [[4.0, NAN], [NAN, 4.0], [2.0, NAN, 6.0]])
def test_closed_form_raises_on_a_nan_price(prices):
    with pytest.raises(ConvergenceError, match="closed form"):
        solve_dso(dso_sub(len(prices)), prices)


def test_update_price_follows_np_maximum():
    prices = [1.0, 2.0, -0.0, 0.5, 3.0]
    residual = [50.0, NAN, 0.0, 1000.0, NAN]
    expected = np.maximum(np.array(prices) - 0.01 * np.array(residual), 0.0)
    assert same_bits(update_price(prices, residual, 0.01), expected)


# Any float, the special values drawn often.
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, NAN, math.inf, -math.inf]))


@settings(max_examples=500, deadline=None)
@given(
    pairs=st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=7),
    step=st.one_of(st.floats(min_value=0.0, exclude_min=True), st.just(0.0005)),
)
def test_update_price_on_lists_is_np_maximum_bit_for_bit(pairs, step):
    prices, residual = [p for p, _ in pairs], [r for _, r in pairs]
    with np.errstate(all="ignore"):
        expected = np.maximum(np.array(prices) - step * np.array(residual), 0.0)
    assert same_bits(update_price(prices, residual, step), expected)


@settings(max_examples=500, deadline=None)
@given(
    prices=st.lists(FLOATS, min_size=1, max_size=7),
    lin=FLOATS,
    lo=FLOATS,
    hi=FLOATS,
    pin=st.one_of(st.sampled_from([0.0, -0.0]), FLOATS),
    quad=st.floats(min_value=0.0, exclude_min=True),
)
def test_pinned_dispatch_is_the_numpy_closed_form_bit_for_bit(prices, lin, lo, hi, pin, quad):
    """Generation and residual of the float closed form equal the NumPy
    clip and reduction on any input, NaN, infinities and signed zeros
    included; a NaN residual raises.  No residual target is set, so every
    other residual is returned."""
    sub = dso_sub(len(prices), DSOSpec(quad, lin, lo, hi), StorageSpec(pin, pin, 0.0, 0.0))
    with np.errstate(all="ignore"):
        margin = np.array(prices) - lin
        scale = 2.0 * quad
        gen = np.minimum(np.maximum(pin + margin / scale, lo), hi)
        moved = np.minimum(np.maximum(gen + (margin - scale * (gen - pin)), lo), hi)
        residual = np.abs(gen - moved).max()
    if math.isnan(residual):
        with pytest.raises(ConvergenceError, match="closed form"):
            _pinned_dispatch(sub, prices, math.inf)
        return
    values, storage, kkt = _pinned_dispatch(sub, prices, math.inf)
    assert same_bits(values, gen)
    assert same_bits([kkt], [residual])
    assert same_bits(storage, [pin] * len(prices))


def test_residual_norm_follows_np_max():
    rng = np.random.default_rng(5)
    for _ in range(200):
        values = rng.normal(0.0, 10.0, size=int(rng.integers(1, 8)))
        values[rng.uniform(size=values.size) < 0.3] = NAN
        values[rng.uniform(size=values.size) < 0.2] = -0.0
        expected = np.abs(values).max()
        assert same_bits([max_abs(values.tolist())], [expected])
    state = DualIterationState(0, [0.0] * 3, [0.0] * 3, [0.0] * 3, [0.5, NAN, 0.2], (), None)
    assert math.isnan(max_abs(state.residual_values))


def supplier_turning(last, calls):
    """A supplier stub offering 5 kW per slot, then ``last`` in the last slot
    from its second call on; ``calls`` collects the prices it is asked at."""

    def supplier(sub, prices, kkt_tolerance, start):
        calls.append(prices)
        gen = [5.0, 5.0] if len(calls) == 1 else [5.0, last]
        return DSOSolution(gen, [0.0, 0.0], 0.0, sub, prices)

    return supplier


def test_nan_residual_never_reads_as_converged(monkeypatch):
    """A supplier answer with a NaN slot after the first iteration settles the
    slot at the previous iteration, flagged and with the reason, and stops
    asking the agents."""
    calls = []
    monkeypatch.setattr(coordinator, "solve_dso", supplier_turning(NAN, calls))
    solver = SolverConfig(max_iterations=3)
    result = negotiate_slot([], dso_sub(2), [1.0, 1.0], solver=solver)
    assert not result.converged
    assert result.iterations == 0
    assert result.supplier_error == "non-finite balance residual (nan) at iteration 1"
    assert result.residual_history == (5.0,)
    assert max_abs(result.residual_values) == 5.0
    np.testing.assert_array_equal(result.price_values, [1.0, 1.0])
    np.testing.assert_array_equal(result.supply_values, [5.0, 5.0])
    assert len(calls) == 2


def test_infinite_residual_settles_the_slot(monkeypatch):
    """An infinite supply is settled like a NaN one, at the previous iteration."""
    calls = []
    monkeypatch.setattr(coordinator, "solve_dso", supplier_turning(math.inf, calls))
    result = negotiate_slot([], dso_sub(2), [1.0, 1.0], solver=SolverConfig(max_iterations=3))
    assert (result.converged, result.iterations) == (False, 0)
    assert result.supplier_error == "non-finite balance residual (inf) at iteration 1"
    assert len(calls) == 2


def test_nan_residual_at_the_first_iteration_raises(monkeypatch):
    """With no finite iterate to settle at, a NaN imbalance raises, as a
    supplier failure at the first iteration does."""
    calls = []

    def supplier(sub, prices, kkt_tolerance, start):
        calls.append(prices)
        return DSOSolution([0.0, NAN], [0.0, 0.0], 0.0, sub, prices)

    monkeypatch.setattr(coordinator, "solve_dso", supplier)
    solver = SolverConfig(max_iterations=3)
    with pytest.raises(ConvergenceError, match="non-finite balance residual"):
        negotiate_slot([], dso_sub(2), [0.0, 0.0], solver=solver)
    assert len(calls) == 1


@st.composite
def markets(draw):
    n = draw(st.integers(1, 6))
    # Up to twelve vehicles, so that one-slot windows reach the batch sizes
    # whose single column NumPy sums pairwise.
    count = draw(st.integers(0, 12))
    sessions = []
    for _ in range(count):
        m = draw(st.integers(1, n))
        power_max = draw(st.floats(2.0, 30.0))
        sessions.append(
            make_session(
                departure=m,
                power_min=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
                power_max=power_max,
                weight=draw(st.floats(1.0, 20.0)),
                loss_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
                energy=draw(st.floats(0.0, 1.1)) * SLOT_HOURS * power_max * m,
            )
        )
    storage = draw(st.sampled_from([NO_STORAGE, TABLE1_STORAGE]))
    dso = DSOSpec(draw(st.floats(0.02, 0.3)), 0.9, 0.0, draw(st.floats(30.0, 150.0)))
    solver = SolverConfig(
        step_size=draw(st.sampled_from([0.0005, 0.002, 0.01])),
        max_iterations=draw(st.integers(1, 40)),
    )
    warm = [draw(st.floats(0.0, 8.0))] * n
    return sessions, dso_sub(n, dso=dso, storage=storage), warm, solver


@settings(max_examples=150, deadline=None)
@given(market=markets())
def test_loop_is_bit_identical_on_either_kernel(market):
    sessions, dso, warm, solver = market
    routed = negotiate_slot(sessions, dso, warm, solver=solver)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev_agent, "_SCALAR_VEHICLES", 0)
        forced = negotiate_slot(sessions, dso, warm, solver=solver)
    assert routed.iterations == forced.iterations
    assert routed.converged == forced.converged
    assert np.array_equal(routed.residual_history, forced.residual_history)
    assert np.array_equal(routed.price_values, forced.price_values)
    assert np.array_equal(routed.demand_values, forced.demand_values)
    assert np.array_equal(routed.supply_values, forced.supply_values)
    for a, b in zip(routed.ev_solutions, forced.ev_solutions, strict=True):
        assert np.array_equal(a.power, b.power)
        assert a.energy_multiplier == b.energy_multiplier
        assert a.feasible == b.feasible


def test_every_dual_evaluation_passes_the_benchmark_entry_points(table1_scenario, monkeypatch):
    """The names the benchmark's traced run wraps stay on the price loop's
    path: per slot, the loop is entered once through ``mpc_loop``, each dual
    evaluation calls ``evaluate_dual``, the supplier and the vehicles'
    ``load_prices`` and ``solve`` once, and each price update calls
    ``update_price`` once.  Table1's slots up to its first arrival (slot 5)
    cover idle slots and a slot with vehicles."""
    workspace = ev_agent.EVBatchWorkspace
    entry_points = (
        (mpc_loop, "negotiate_slot"),
        (coordinator, "evaluate_dual"),
        (coordinator, "update_price"),
        (coordinator, "solve_dso"),
        (workspace, "load_prices"),
        (workspace, "solve"),
    )
    calls = dict.fromkeys((name for _, name in entry_points), 0)
    for owner, name in entry_points:

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    state = mpc_loop.initial_state(table1_scenario, resolve_sessions(table1_scenario))
    for slot in range(6):
        calls.update(dict.fromkeys(calls, 0))
        state, record = mpc_loop.step(state, table1_scenario)
        assert record.converged and record.supplier_error is None
        evaluations = record.iterations + 1
        vehicles = slot == 5
        assert bool(record.per_ev) == vehicles
        assert calls == {
            "negotiate_slot": 1,
            "evaluate_dual": evaluations,
            "update_price": record.iterations,
            "solve_dso": evaluations,
            "load_prices": evaluations * vehicles,
            "solve": evaluations * vehicles,
        }, slot

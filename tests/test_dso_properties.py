"""Property tests of the supplier's solvers: the closed form for a pinned
storage box and the primal-dual active-set rounds, with their certificate in
plain floats and their Newton point on an active set.

The closed form must agree with the rounds, which solve the same problem with
the storage treated as a general box.  The closed form is exact; the rounds
stop once the stationarity residual is within ``REFERENCE_EPS``, so on a
supplier box narrower than that they may stop one box width short of the
optimum.  The closed-form objective is therefore bounded on both sides: below
by the reference, above by the reference plus the reference's shortfall,
which concavity bounds by the reference gradient times the step to the
closed-form point.

A warm start must give the cold answer to the same point bound, whether from
the answer for nearby or far prices or a random point.  Cold solves on
windows as long as table1's, with tracking weights over seven decades, are
certified within the round bound, the least-index phase included.  The certificate, written out
from Q's structure, must read the dense residual
``max |z - clip(z + g - Q z)|`` to rounding, and NaN wherever the dense one
is NaN.  The Newton point of an active set, a Riccati sweep of a
tridiagonal system, must match the dense formula
``inverse @ (g_F - Q_FX z_X)`` on the Hessian Q written out below and call
the same sets singular, and a negotiation's store of active sets must stay
bounded without changing an answer.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evmarket import (
    DSOSpec,
    DSOSubproblem,
    SolverConfig,
    StorageSpec,
    TimeGrid,
    Tolerances,
    coordinator,
    dso_agent,
    mpc_loop,
    resolve_sessions,
)
from evmarket.dso_agent import (
    ConvergenceError,
    DSOWorkspace,
    _objective,
    solve_dso,
)

from conftest import SLOT_HOURS, TABLE1_DSO, TABLE1_STORAGE

EPS = Tolerances()
# The reference solve is run to a much tighter residual than the check.
REFERENCE_EPS = Tolerances(kkt=1e-12)


def _residual(point, grad, lo, hi):
    """Dense projected-stationarity residual: how far a gradient step moves
    ``point``."""
    return float(np.abs(point - np.minimum(np.maximum(point + grad, lo), hi)).max())


def quadratic_form(sub):
    """The supplier's dense Hessian: the problem is ``max g.z - z.Q.z / 2``
    on ``z = (P_l, P_s)``, and ``Q z = (c (P_l - P_s), -c (P_l - P_s) + r
    overlap @ P_s)`` with ``c = 2 quad``, ``r = 2 rho dtc^2`` and
    ``overlap[i, j] = n - max(i, j)``."""
    n = sub.window.length
    dtc = sub.storage.throughput * sub.window.slot_hours
    eye = np.eye(n)
    q_mat = 2.0 * sub.dso.cost_quadratic * np.block([[eye, -eye], [-eye, eye]])
    idx = np.arange(n)
    overlap = n - np.maximum(idx[:, None], idx[None, :])
    q_mat[n:, n:] += 2.0 * sub.storage.tracking_weight * dtc * dtc * overlap
    return q_mat


def newton_system(sub, free):
    """``(free, fixed, Q_free_fixed, inverse of Q_free_free)`` for the mask
    ``free``, or None if the free block is singular: rank deficient, since
    LU in floats may miss an exactly zero pivot by a rounding."""
    q_mat = quadratic_form(sub)
    free, fixed = np.flatnonzero(free), np.flatnonzero(~free)
    block = q_mat[np.ix_(free, free)]
    if np.linalg.matrix_rank(block) < len(free):
        return None
    return free, fixed, q_mat[np.ix_(free, fixed)], np.linalg.inv(block)


def dense_problem(ws, prices):
    """``g`` at ``prices`` and the box's lower and upper bounds, as arrays."""
    g = np.concatenate([np.asarray(prices) - ws.lin, ws.storage_g])
    return g, np.array(ws.lower), np.array(ws.upper)


@st.composite
def pinned_subproblems(draw):
    n = draw(st.integers(1, 12))
    quad = draw(st.floats(0.01, 1.0))
    lin = draw(st.floats(0.0, 5.0))
    power_min = draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0)))
    power_max = draw(st.one_of(st.just(math.inf), st.floats(power_min, power_min + 150.0)))
    # Prices from below the linear cost to beyond the price that reaches the cap.
    cap = power_max if math.isfinite(power_max) else power_min + 150.0
    top = lin + 2.0 * quad * cap + 5.0
    prices = draw(st.lists(st.floats(0.0, top), min_size=n, max_size=n))
    storage = StorageSpec(
        power_min=0.0,
        power_max=0.0,
        energy_initial=draw(st.floats(0.0, 200.0)),
        energy_reference=draw(st.floats(0.0, 200.0)),
        throughput=draw(st.floats(0.5, 1.0)),
        tracking_weight=draw(st.floats(0.0, 2.0)),
    )
    sub = DSOSubproblem(
        dso=DSOSpec(quad, lin, power_min, power_max),
        storage=storage,
        energy_now=storage.energy_initial,
        window=TimeGrid(0, n, SLOT_HOURS),
    )
    return sub, prices


# A supplier box as wide as the reference residual: the rounds stop at
# the lower bound with residual 1e-12 and objective 0, the optimum is the cap.
NARROW_BOX = DSOSubproblem(
    dso=DSOSpec(1.0, 0.0, 0.0, 1e-12),
    storage=StorageSpec(0.0, 0.0, 0.0, 0.0),
    energy_now=0.0,
    window=TimeGrid(0, 1, SLOT_HOURS),
)

# A subnormal tracking weight on a pinned storage box: a set that freed the
# storage would step to inf or NaN, so the rounds must keep it held.
SUBNORMAL_TRACKING = DSOSubproblem(
    dso=DSOSpec(1.0, 0.0, 0.0, math.inf),
    storage=StorageSpec(0.0, 0.0, 0.0, 0.0, 1.0, 1.1125369292536007e-308),
    energy_now=0.0,
    window=TimeGrid(0, 2, SLOT_HOURS),
)


@settings(max_examples=300, deadline=None)
@given(market=pinned_subproblems())
@example(market=(NARROW_BOX, [2.0]))
@example(market=(SUBNORMAL_TRACKING, [0.0, 1.0]))
def test_closed_form_matches_projected_newton(market):
    """Against the active-set rounds, a semismooth Newton method on the
    projection (Hintermüller, Ito & Kunisch 2002), from the zero point's set
    on the pinned box."""
    sub, prices = market
    lam = np.array(prices)
    sol = solve_dso(sub, prices, eps=EPS)
    ws = DSOWorkspace(sub)
    zero_set = ws.active_set([0.0] * (2 * ws.n))
    point, _, _ = dso_agent._rounds(ws, zero_set, prices, REFERENCE_EPS)
    point = np.array(point)
    np.testing.assert_allclose(sol.point, point, rtol=0.0, atol=1e-9)
    gen = np.array(sol.generation_values)
    assert np.all(gen >= sub.dso.power_min) and np.all(gen <= sub.dso.power_max)
    np.testing.assert_array_equal(sol.storage_values, 0.0)
    n = sub.window.length
    assert sol.objective == _objective(sub, lam, sol.point[:n], sol.point[n:])
    reference = _objective(sub, lam, point[:n], point[n:])
    # Storage is pinned on both sides, so only generation moves the objective:
    # f(closed form) - f(reference) <= grad f(reference) . (step).
    grad = lam - sub.dso.cost_linear - 2.0 * sub.dso.cost_quadratic * (point[:n] - point[n:])
    shortfall = max(float(grad @ (sol.point[:n] - point[:n])), 0.0)
    rounding = 1e-12 + 1e-9 * abs(reference)
    assert reference - rounding <= sol.objective <= reference + shortfall + rounding
    assert sol.kkt_residual <= EPS.kkt


def test_closed_form_raises_on_a_non_finite_residual():
    sub = DSOSubproblem(
        dso=DSOSpec(0.06, 0.9, 0.0, math.nan),
        storage=StorageSpec(0.0, 0.0, 0.0, 0.0),
        energy_now=0.0,
        window=TimeGrid(0, 2, SLOT_HOURS),
    )
    with pytest.raises(ConvergenceError, match="closed form"):
        solve_dso(sub, [4.0, 2.0])


@st.composite
def storage_subproblems(draw, max_slots=6, weights=st.floats(0.05, 2.0)):
    n = draw(st.integers(1, max_slots))
    quad = draw(st.floats(0.01, 1.0))
    lin = draw(st.floats(0.0, 5.0))
    power_min = draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0)))
    power_max = draw(st.one_of(st.just(math.inf), st.floats(power_min + 1.0, power_min + 150.0)))
    cap = power_max if math.isfinite(power_max) else power_min + 150.0
    top = lin + 2.0 * quad * cap + 5.0
    prices = draw(st.lists(st.floats(0.0, top), min_size=n, max_size=n))
    storage = StorageSpec(
        power_min=-draw(st.floats(1.0, 120.0)),
        power_max=draw(st.floats(1.0, 120.0)),
        energy_initial=draw(st.floats(0.0, 200.0)),
        energy_reference=draw(st.floats(0.0, 200.0)),
        throughput=draw(st.floats(0.1, 1.0)),
        tracking_weight=draw(weights),
    )
    sub = DSOSubproblem(
        dso=DSOSpec(quad, lin, power_min, power_max),
        storage=storage,
        energy_now=storage.energy_initial,
        window=TimeGrid(0, n, SLOT_HOURS),
    )
    return sub, prices


def check_warm_against_cold(sub, prices, start):
    """Run to ``REFERENCE_EPS``, warm and cold answers agree to the closed-form
    test's point bound.  (At ``EPS`` either may stop up to the residual target
    short of the optimum, the cold one often at its zero start.)  At ``EPS``
    the warm answer is certified and in the boxes."""
    warm = solve_dso(sub, prices, eps=REFERENCE_EPS, start=start)
    cold = solve_dso(sub, prices, eps=REFERENCE_EPS)
    np.testing.assert_allclose(warm.point, cold.point, rtol=0.0, atol=1e-9)
    warm = solve_dso(sub, prices, eps=EPS, start=start)
    assert warm.kkt_residual <= EPS.kkt
    gen, ps = np.array(warm.generation_values), np.array(warm.storage_values)
    assert np.all(gen >= sub.dso.power_min) and np.all(gen <= sub.dso.power_max)
    assert np.all(ps >= sub.storage.power_min) and np.all(ps <= sub.storage.power_max)


@settings(max_examples=300, deadline=None)
@given(market=storage_subproblems(), data=st.data())
def test_warm_start_near_the_answer_matches_the_cold_solve(market, data):
    """Started from the answer at slightly moved prices, as in the price loop."""
    sub, prices = market
    n = sub.window.length
    shift = data.draw(st.lists(st.floats(-0.01, 0.01), min_size=n, max_size=n))
    nearby = solve_dso(sub, np.maximum(np.array(prices) + shift, 0.0).tolist(), eps=EPS)
    check_warm_against_cold(sub, prices, (nearby.generation_values, nearby.storage_values))


@settings(max_examples=300, deadline=None)
@given(market=storage_subproblems(), data=st.data())
def test_random_warm_start_matches_the_cold_solve(market, data):
    sub, prices = market
    n = sub.window.length
    coords = st.lists(st.floats(-150.0, 250.0), min_size=n, max_size=n)
    check_warm_against_cold(sub, prices, (data.draw(coords), data.draw(coords)))


# Eight slots whose block rounds from the zero point's set propose a set
# met before in round 7; least-index pivots settle the call in round 11.
CYCLING_BLOCK_ROUNDS = DSOSubproblem(
    dso=DSOSpec(0.31, 2.2, 0.0, math.inf),
    storage=StorageSpec(-15.0, 115.0, 195.0, 190.0, 0.1, 50.11872336272722),
    energy_now=195.0,
    window=TimeGrid(0, 8, SLOT_HOURS),
)


@settings(max_examples=200, deadline=None)
@given(
    market=storage_subproblems(48, st.floats(-4.0, 3.0).map(lambda e: 10.0**e)),
)
@example(market=(CYCLING_BLOCK_ROUNDS, [33.6, 48.4, 12.7, 9.7, 27.1, 73.7, 5.5, 15.5]))
def test_cold_solves_on_long_windows_settle_within_the_round_bound(market):
    """Windows up to table1's longest, tracking weights over seven decades:
    each cold solve is certified and in the box within the round bound.
    A round whose set is not the one ``next_sides`` proposed took a single
    pivot in place of a block of changes; the pinned example takes two."""
    sub, prices = market
    taken, proposed = [], []
    newton, next_sides = dso_agent._ActiveSet.newton, DSOWorkspace.next_sides

    def spied_newton(active, lam, lin):
        taken.append(active.sides)
        return newton(active, lam, lin)

    def spied_next_sides(ws, active, point, lam):
        proposed.append(next_sides(ws, active, point, lam))
        return proposed[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dso_agent._ActiveSet, "newton", spied_newton)
        patch.setattr(DSOWorkspace, "next_sides", spied_next_sides)
        sol = solve_dso(sub, prices, eps=EPS)
    assert sol.kkt_residual <= EPS.kkt
    gen, ps = np.array(sol.generation_values), np.array(sol.storage_values)
    assert np.all(gen >= sub.dso.power_min) and np.all(gen <= sub.dso.power_max)
    assert np.all(ps >= sub.storage.power_min) and np.all(ps <= sub.storage.power_max)
    assert len(taken) <= dso_agent._ROUNDS_PER_ENTRY * 2 * sub.window.length
    pivots = sum(sides != taken[k + 1] for k, sides in enumerate(proposed))
    if sub is CYCLING_BLOCK_ROUNDS:
        assert pivots == 2 and len(taken) == 11


# Zero prices and no linear cost: the optimum holds generation at 0 with a
# zero gradient on slots 1-4.  A Newton point that puts those entries a
# rounding either side of the bound makes the rounds cycle; one that solved
# for the suffix sums of the storage's prefix sums did, by 2e-15.
DEGENERATE_OPTIMUM = DSOSubproblem(
    dso=DSOSpec(0.5, 0.0, 0.0, math.inf),
    storage=StorageSpec(-1.0, 4.0, 78.0, 77.0, 1.0, 0.5942549756094643),
    energy_now=78.0,
    window=TimeGrid(0, 5, SLOT_HOURS),
)


@pytest.mark.parametrize("eps", [EPS, REFERENCE_EPS])
def test_rounds_settle_an_optimum_on_a_bound_with_a_zero_gradient(eps):
    sol = solve_dso(DEGENERATE_OPTIMUM, [0.0] * 5, eps=eps)
    assert sol.kkt_residual <= eps.kkt
    assert sol.generation_values == [4.0, 0.0, 0.0, 0.0, 0.0]


# The loop's shipped price step.  Scaled by 100, one round moves a price by
# at most this step times an imbalance as wide as the generation box.
SHIPPED_STEP = SolverConfig().step_size


@settings(max_examples=300, deadline=None)
@given(market=storage_subproblems(), data=st.data())
def test_rounds_after_a_large_price_move_match_the_cold_solve(market, data):
    """Started from the answer at prices one round of a step 100 times the
    shipped one away, the active-set rounds return the cold solve's answer,
    certified and in the box."""
    sub, prices = market
    n = sub.window.length
    dso = sub.dso
    cap = dso.power_max if math.isfinite(dso.power_max) else dso.power_min + 150.0
    reach = 100.0 * SHIPPED_STEP * (cap - dso.power_min)
    shift = data.draw(st.lists(st.floats(-reach, reach), min_size=n, max_size=n))
    moved = np.maximum(np.array(prices) + shift, 0.0).tolist()
    start = solve_dso(sub, moved, eps=REFERENCE_EPS)
    ws = start.workspace
    point, residual, active = dso_agent._rounds(ws, start.active, prices, REFERENCE_EPS)
    assert residual <= REFERENCE_EPS.kkt
    assert all(lo <= v <= hi for lo, v, hi in zip(ws.lower, point, ws.upper))
    assert active.sides == ws.active_set(point).sides
    cold = solve_dso(sub, prices, eps=REFERENCE_EPS)
    np.testing.assert_allclose(point, cold.point, rtol=0.0, atol=1e-9)
    check_warm_against_cold(sub, prices, start)


def storage_sub(slots):
    return DSOSubproblem(
        dso=TABLE1_DSO,
        storage=TABLE1_STORAGE,
        energy_now=TABLE1_STORAGE.energy_reference,
        window=TimeGrid(0, slots, SLOT_HOURS),
    )


def count_newton_points(monkeypatch):
    """A one-entry list counting the Newton points taken, one per round."""
    taken = [0]
    newton = dso_agent._ActiveSet.newton

    def counted(*args):
        taken[0] += 1
        return newton(*args)

    monkeypatch.setattr(dso_agent._ActiveSet, "newton", counted)
    return taken


def test_warm_step_leaving_the_box_falls_back(monkeypatch):
    """From an interior start every entry is free.  At this price the Newton
    point on all of them lies 5e-7 kW beyond the generation cap, closer than
    the residual target, so its residual passes and only the box check sends
    the call on.  The second round holds generation on the cap and answers
    there."""
    sub = storage_sub(1)
    inverse = np.linalg.inv(quadratic_form(sub))
    # Unconstrained optimum Q^-1 g with g = (price - linear, linear).
    lin = TABLE1_DSO.cost_linear
    price = lin + (TABLE1_DSO.power_max + 5e-7 - inverse[0, 1] * lin) / inverse[0, 0]
    rounds = count_newton_points(monkeypatch)
    sol = solve_dso(sub, [price], start=([50.0], [0.0]))
    assert rounds == [2]
    assert sol.generation_values == [TABLE1_DSO.power_max]
    check_warm_against_cold(sub, [price], ([50.0], [0.0]))


def test_warm_start_with_a_nan_price_raises():
    sub = storage_sub(2)
    cold = solve_dso(sub, [4.0, 2.0])
    start = (cold.generation_values, cold.storage_values)
    with pytest.raises(ConvergenceError):
        solve_dso(sub, [4.0, math.nan], start=start)


def test_warm_start_with_a_nan_price_on_a_held_slot_raises(monkeypatch):
    """The NaN-priced slot's generation is held at 0, so the Newton point on
    the free entries is finite and in the box; only a certificate whose max
    keeps the NaN refuses it.  No side is left to change, so the first round
    raises with that NaN."""
    sub = storage_sub(2)
    cold = solve_dso(sub, [4.0, 0.0])
    assert cold.generation_values[1] == sub.dso.power_min
    rounds = count_newton_points(monkeypatch)
    read = []
    certificate = DSOWorkspace.certificate

    def spied(ws, point, lam):
        read.append(certificate(ws, point, lam))
        return read[-1]

    monkeypatch.setattr(DSOWorkspace, "certificate", spied)
    for start in (cold, (cold.generation_values, cold.storage_values)):
        read.clear()
        rounds[0] = 0
        with pytest.raises(ConvergenceError, match="stalled at residual nan in round 1 of") as info:
            solve_dso(sub, [4.0, math.nan], start=start)
        assert math.isnan(info.value.residual)
        assert rounds == [1] and len(read) == 1 and math.isnan(read[0])


def count_rounds(monkeypatch):
    """Per supplier call of the price loop, ``[rounds, failed]``: the Newton
    points taken, and whether the call raised."""
    calls = []
    newton, solve = dso_agent._ActiveSet.newton, coordinator.solve_dso

    def counted_newton(*args):
        calls[-1][0] += 1
        return newton(*args)

    def counted_solve(*args, **kwargs):
        calls.append([0, True])
        sol = solve(*args, **kwargs)
        calls[-1][1] = False
        return sol

    monkeypatch.setattr(dso_agent._ActiveSet, "newton", counted_newton)
    monkeypatch.setattr(coordinator, "solve_dso", counted_solve)
    return calls


def test_warm_step_settles_most_table1_supplier_calls(table1_scenario, monkeypatch):
    """On table1's first slot the rounds must answer every call, most warm
    calls in the first round; rounds that silently took many more would
    still pass every other test.  The day's cold first call takes 3."""
    calls = count_rounds(monkeypatch)
    state = mpc_loop.initial_state(table1_scenario, resolve_sessions(table1_scenario))
    _, record = mpc_loop.step(state, table1_scenario)
    assert record.converged
    assert len(calls) - 1 == record.iterations >= 50
    assert calls[0] == [3, False]
    assert all(not failed for _, failed in calls[1:])
    assert sum(rounds > 1 for rounds, _ in calls) <= len(calls) // 10


def test_table1_day_supplier_calls_split_as_before(table1_scenario, monkeypatch):
    """A table1 day's 4,314 supplier calls: 4,149 certify in the first round
    and 165 in later rounds, and none fails.  Each slot's first call starts
    from the zero point; 43 of the 48 take more than one round, 218 Newton
    points in all."""
    calls = count_rounds(monkeypatch)
    mpc_loop.run(table1_scenario)
    first = sum(rounds == 1 and not failed for rounds, failed in calls)
    later = sum(rounds > 1 and not failed for rounds, failed in calls)
    failures = sum(failed for _, failed in calls)
    assert (first, later, failures) == (4149, 165, 0)


@st.composite
def certificate_cases(draw):
    """A storage supplier whose boxes may hold generation or storage on a
    bound (an empty box), a point in the boxes with entries on their bounds,
    and prices that may hold one NaN."""
    n = draw(st.integers(1, 8))
    gen_min = draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0)))
    gen_max = draw(
        st.one_of(st.just(gen_min), st.just(math.inf), st.floats(gen_min, gen_min + 150.0))
    )
    st_min = -draw(st.one_of(st.just(0.0), st.floats(1.0, 120.0)))
    st_max = draw(st.one_of(st.just(0.0), st.floats(1.0, 120.0)))
    storage = StorageSpec(
        power_min=st_min,
        power_max=st_max,
        energy_initial=draw(st.floats(0.0, 200.0)),
        energy_reference=draw(st.floats(0.0, 200.0)),
        throughput=draw(st.floats(0.1, 1.0)),
        tracking_weight=draw(st.floats(0.05, 2.0)),
    )
    sub = DSOSubproblem(
        dso=DSOSpec(draw(st.floats(0.01, 1.0)), draw(st.floats(0.0, 5.0)), gen_min, gen_max),
        storage=storage,
        energy_now=draw(st.floats(0.0, 200.0)),
        window=TimeGrid(0, n, SLOT_HOURS),
    )

    def entries(lo, hi):
        top = min(hi, lo + 150.0)
        inside = st.floats(lo, top) if lo < top else st.just(lo)
        ends = [st.just(lo)] + ([st.just(hi)] if math.isfinite(hi) else [])
        return st.lists(st.one_of(inside, *ends), min_size=n, max_size=n)

    point = draw(entries(gen_min, gen_max)) + draw(entries(st_min, st_max))
    prices = draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
    nan_slot = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if nan_slot is not None:
        prices[nan_slot] = math.nan
    return sub, point, prices


@settings(max_examples=500, deadline=None)
@given(case=certificate_cases())
def test_float_certificate_matches_the_dense_residual(case):
    sub, point, prices = case
    ws = DSOWorkspace(sub)
    q_mat = quadratic_form(sub)
    g, lo, hi = dense_problem(ws, prices)
    z = np.array(point)
    dense = _residual(z, g - q_mat @ z, lo, hi)
    fast = ws.certificate(point, prices)
    if any(math.isnan(p) for p in prices):
        assert math.isnan(fast) and math.isnan(dense)
    else:
        assert abs(fast - dense) <= 1e-12 * (1.0 + float(np.abs(g).max()))


@st.composite
def active_set_cases(draw):
    """A storage supplier on a window of up to 48 slots, possibly with no
    generation cap or no tracking (whose all-free set is singular), tracking
    weights over seven decades, random sides and random prices."""
    n = draw(st.integers(1, 48))
    gen_min = draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0)))
    gen_max = draw(st.one_of(st.just(math.inf), st.floats(gen_min + 1.0, gen_min + 150.0)))
    storage = StorageSpec(
        power_min=-draw(st.floats(1.0, 120.0)),
        power_max=draw(st.floats(1.0, 120.0)),
        energy_initial=draw(st.floats(0.0, 200.0)),
        energy_reference=draw(st.floats(0.0, 200.0)),
        throughput=draw(st.floats(0.1, 1.0)),
        tracking_weight=draw(
            st.one_of(st.just(0.0), st.floats(-4.0, 3.0).map(lambda e: 10.0**e))
        ),
    )
    sub = DSOSubproblem(
        dso=DSOSpec(draw(st.floats(0.01, 1.0)), draw(st.floats(0.0, 5.0)), gen_min, gen_max),
        storage=storage,
        energy_now=draw(st.floats(0.0, 200.0)),
        window=TimeGrid(0, n, SLOT_HOURS),
    )
    # No entry is held on an infinite bound: the rounds hold an entry only
    # on a bound it crossed.
    gen_sides = (-1, 0, 1) if math.isfinite(gen_max) else (-1, 0)
    sides = tuple(
        draw(st.lists(st.sampled_from(gen_sides), min_size=n, max_size=n))
        + draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    )
    prices = draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
    return sub, sides, prices


# How far the sweep's Newton point may be from the dense formula's, relative
# to the largest entry: float64's 2.2e-16 times the free blocks' condition
# numbers, up to about 1e8 at a tracking weight of 1e-4 on 48 slots.  3,000
# draws of the strategy below came within 1.1e-9, where an exact rational
# solve put the dense formula 1.0e-9 and the sweep 1.5e-10 from the answer.
NEWTON_TOL = 1e-8


@settings(max_examples=500, deadline=None)
@given(case=active_set_cases())
def test_active_set_newton_point_matches_the_dense_formula(case):
    """Held entries from ``np.where`` on the bounds, free entries from
    ``inverse @ (g_F - Q_FX z_X)`` through ``newton_system``: the formula the
    supplier used before its Newton point became a Riccati sweep.  Both
    call the same sets singular, and the points agree within ``NEWTON_TOL``
    relative to the largest entry."""
    sub, sides, prices = case
    ws = DSOWorkspace(sub)
    fast = dso_agent._ActiveSet(ws, sides).newton(prices, ws.lin)
    at_lo, at_hi = np.array(sides) < 0, np.array(sides) > 0
    system = newton_system(sub, ~(at_lo | at_hi))
    assert (fast is None) == (system is None)
    if system is None:
        return
    idx, fixed, q_fixed, inverse = system
    g, lo, hi = dense_problem(ws, prices)
    dense = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
    dense[idx] = inverse @ (g[idx] - q_fixed @ dense[fixed])
    fast = np.array(fast)
    assert np.all(np.abs(fast - dense) <= NEWTON_TOL * (1.0 + np.abs(dense).max()))

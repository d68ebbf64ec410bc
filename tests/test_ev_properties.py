"""Property tests of the batch vehicle solver on generated batches."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import SolverConfig, TimeGrid
from evmarket.ev_agent import EVBatchWorkspace, stationarity_residual

from conftest import SLOT_HOURS, make_session, random_vehicle, start_at, window_of

EPS = SolverConfig()

# Where the requirement sits relative to the energy the box can deliver.
NEEDS = ("zero", "interior", "full", "floor", "over", "under")


@st.composite
def vehicles(draw):
    n = draw(st.integers(1, 6))
    power_min = draw(st.one_of(st.just(0.0), st.floats(0.1, 5.0)))
    power_max = power_min + draw(st.floats(0.5, 30.0))
    loss = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
    weight = draw(st.floats(0.5, 20.0))
    rate = (1.0 - loss) * SLOT_HOURS
    floor, cap = rate * power_min * n, rate * power_max * n
    kind = draw(st.sampled_from(NEEDS))
    share = draw(st.floats(0.01, 0.99))
    energy = {
        "zero": 0.0,
        "interior": floor + share * (cap - floor),
        "full": cap,
        "floor": floor,
        "over": cap * (1.0 + share) + 0.01,
        "under": floor * share,
    }[kind]
    return make_session(
        departure=n,
        power_min=power_min,
        power_max=power_max,
        weight=weight,
        loss_fraction=loss,
        energy=energy,
    )


def solve(ws, start):
    """Solve ``ws`` from a start of the requested kind: cold, from the exact
    multipliers moved by ``1e-3 * noise`` or from bad ones (a previous
    solution with every slot on a bound starts each vehicle exactly there),
    or from the tangent prediction off the solution at prices moved by
    ``0.1 * noise`` in alternating directions."""
    kind, noise = start
    if kind == "none":
        return ws.solve()
    prices = ws.prices
    if kind == "predicted":
        signs = (-1.0) ** np.arange(len(prices))
        ws.load_prices(np.maximum(np.array(prices) + 0.1 * noise * signs, 0.0))
        previous = ws.solve()
        ws.load_prices(prices)
        return ws.solve(previous=previous)
    if kind == "good":
        mu = np.asarray(ws.solve().multipliers) + noise * 1e-3
    else:
        mu = np.resize([noise * 1e6, -noise * 1e6, np.nan, np.inf], len(ws.lengths))
    return ws.solve(previous=start_at(ws, mu))


PRICES = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)), min_size=6, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    sessions=st.lists(vehicles(), min_size=1, max_size=6),
    prices=PRICES,
    start=st.tuples(st.sampled_from(("none", "good", "bad", "predicted")), st.floats(0.1, 10.0)),
)
def test_batch_solutions_are_optimal_and_in_the_box(sessions, prices, start):
    ws = EVBatchWorkspace(sessions, TimeGrid(0, 6, SLOT_HOURS), EPS.energy_tolerance)
    ws.load_prices(prices)
    batch = solve(ws, start)
    assert len(batch) == len(sessions)
    for ses, sol in zip(sessions, batch):
        rate = ses.energy_rate(SLOT_HOURS)
        n = ses.departure
        floor, cap = rate * ses.power_min * n, rate * ses.power_max * n
        delivered = rate * sol.power.sum()
        assert sol.power.shape == (n,)
        assert np.all(sol.power >= ses.power_min - 1e-9)
        assert np.all(sol.power <= ses.power_max + 1e-9)
        assert stationarity_residual(sol) <= 1e-6
        if floor <= ses.energy_needed <= cap:
            assert sol.feasible
        if sol.feasible:
            assert abs(delivered - ses.energy_needed) <= EPS.energy_tolerance * (1 + 1e-9)
        else:
            assert abs(delivered - ses.energy_needed) > EPS.energy_tolerance * (1 - 1e-9)
            bound = ses.power_max if ses.energy_needed > cap else ses.power_min
            np.testing.assert_allclose(sol.power, bound)


def test_warm_started_solves_need_few_energy_evaluations():
    """Along a price-loop-like sequence of small price moves, warm-started
    solves average at most five energy evaluations.  The evaluations are
    counted on the array kernel, called directly; the scalar kernel takes the
    same steps (``test_ev_kernels.py``)."""
    rng = np.random.default_rng(3)
    solves = evaluations = 0
    power_at = EVBatchWorkspace._power_at

    def counted(self, m, lam):
        nonlocal evaluations
        evaluations += 1
        return power_at(self, m, lam)

    for _ in range(60):
        count = int(rng.integers(1, 8))
        sessions = []
        for _ in range(count):
            n = int(rng.integers(1, 7))
            power_max = float(rng.uniform(5.0, 30.0))
            sessions.append(
                make_session(
                    departure=n,
                    power_max=power_max,
                    weight=float(rng.uniform(1.0, 20.0)),
                    energy=float(rng.uniform(0.0, 1.0)) * SLOT_HOURS * power_max * n,
                )
            )
        ws = EVBatchWorkspace(sessions, window_of(sessions))
        width = ws.window.length
        prices = rng.uniform(0.5, 4.0, size=width)
        ws.load_prices(prices)
        batch = ws._solve_array(200)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(EVBatchWorkspace, "_power_at", counted)
            for _ in range(10):
                prices = np.maximum(prices + rng.normal(0.0, 0.02, size=width), 0.0)
                ws.load_prices(prices)
                batch = ws._solve_array(200, batch)
                assert all(batch.flags)
                solves += 1
    assert evaluations / solves <= 5.0, evaluations / solves


def test_predicted_start_meets_the_tolerance_more_often_than_the_last_multiplier():
    """The tangent start's mechanism, with no timing: after a price-loop-sized
    move (one step of 0.002 on a few kW), the predicted start meets the energy
    tolerance before any Newton step (a cap of 0) for strictly more vehicles
    of a fixed 30-vehicle batch, solved on the array kernel, than the
    previous multiplier does."""
    rng = np.random.default_rng(0)
    sessions = [random_vehicle(rng)[0] for _ in range(30)]
    ws = EVBatchWorkspace(sessions, window_of(sessions))
    prices = rng.uniform(0.1, 8.0, size=ws.window.length)
    ws.load_prices(prices)
    previous = ws.solve()
    ws.load_prices(np.maximum(prices + rng.normal(0.0, 0.005, size=prices.size), 0.0))
    predicted = np.count_nonzero(ws._solve_array(0, previous).flags)
    plain = ws._solve_array(0, start_at(ws, previous.multipliers))
    assert predicted > np.count_nonzero(plain.flags)

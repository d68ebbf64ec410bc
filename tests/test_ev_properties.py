"""Property tests of the batch vehicle solver on generated batches."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import Tolerances
from evmarket.ev_agent import EVBatchWorkspace, stationarity_residual

from conftest import SLOT_HOURS, make_ev_subproblem

EPS = Tolerances()

# Where the requirement sits relative to the energy the box can deliver.
NEEDS = ("zero", "interior", "full", "floor", "over", "under")


@st.composite
def vehicles(draw):
    n = draw(st.integers(1, 6))
    prices = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 8.0)), min_size=n, max_size=n
        )
    )
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
    return make_ev_subproblem(
        prices,
        power_min=power_min,
        power_max=power_max,
        weight=weight,
        loss_fraction=loss,
        energy=energy,
    )


def hint_values(hints, count, mu):
    """Hints of the requested quality for a batch whose exact multipliers are ``mu``."""
    kind, noise = hints
    if kind == "none":
        return None
    if kind == "good":
        return mu + noise * 1e-3
    return np.resize(np.array([noise * 1e6, -noise * 1e6, np.nan, np.inf]), count)


def solve(subs, hints=None):
    ws = EVBatchWorkspace(subs)
    rows = np.zeros((len(subs), ws.width))
    for row, sub in zip(rows, subs):
        row[: sub.window.length] = sub.prices.values
    ws.load_prices(rows)
    return ws.solve(eps=EPS, mu_hints=hints)


@settings(max_examples=300, deadline=None)
@given(
    subs=st.lists(vehicles(), min_size=1, max_size=6),
    hints=st.tuples(st.sampled_from(("none", "good", "bad")), st.floats(0.1, 10.0)),
)
def test_batch_solutions_are_optimal_and_in_the_box(subs, hints):
    reference = solve(subs)
    batch = solve(subs, hint_values(hints, len(subs), reference.energy_multiplier))
    assert len(batch) == len(subs)
    for sub, sol in zip(subs, batch):
        ses = sub.session
        rate = ses.energy_rate(SLOT_HOURS)
        n = sub.window.length
        floor, cap = rate * ses.power_min * n, rate * ses.power_max * n
        delivered = rate * sol.profile.values.sum()
        assert sol.profile.values.shape == (n,)
        assert np.all(sol.profile.values >= ses.power_min - 1e-9)
        assert np.all(sol.profile.values <= ses.power_max + 1e-9)
        assert stationarity_residual(sub, sol) <= 1e-6
        if floor <= ses.energy_needed <= cap:
            assert sol.feasible
        if sol.feasible:
            assert abs(delivered - ses.energy_needed) <= EPS.energy * (1 + 1e-9)
        else:
            assert abs(delivered - ses.energy_needed) > EPS.energy * (1 - 1e-9)
            bound = ses.power_max if ses.energy_needed > cap else ses.power_min
            np.testing.assert_allclose(sol.profile.values, bound)


def test_warm_started_solves_need_few_energy_evaluations():
    """Along a price-loop-like sequence of small price moves, warm-started
    solves average at most five energy evaluations."""
    rng = np.random.default_rng(3)
    solves = evaluations = 0
    for _ in range(60):
        count = int(rng.integers(1, 8))
        subs = []
        for _ in range(count):
            n = int(rng.integers(1, 7))
            power_max = float(rng.uniform(5.0, 30.0))
            subs.append(
                make_ev_subproblem(
                    rng.uniform(0.0, 8.0, size=n),
                    power_max=power_max,
                    weight=float(rng.uniform(1.0, 20.0)),
                    energy=float(rng.uniform(0.0, 1.0)) * SLOT_HOURS * power_max * n,
                )
            )
        ws = EVBatchWorkspace(subs)
        width = ws.width
        prices = rng.uniform(0.5, 4.0, size=width)
        ws.load_prices(prices)
        mu = ws.solve(eps=EPS).energy_multiplier
        energy_at = ws._energy_at

        def counted(m):
            nonlocal evaluations
            evaluations += 1
            return energy_at(m)

        ws._energy_at = counted
        for _ in range(10):
            prices = np.maximum(prices + rng.normal(0.0, 0.02, size=width), 0.0)
            ws.load_prices(prices)
            batch = ws.solve(eps=EPS, mu_hints=mu)
            assert batch.feasible.all()
            mu = batch.energy_multiplier
            solves += 1
    assert evaluations / solves <= 5.0, evaluations / solves

"""Property tests of the supplier's closed form for a pinned storage box.

The closed form must agree with the projected-Newton iteration, which solves
the same problem with the storage treated as a general box.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import DSOSpec, DSOSubproblem, PriceVector, StorageSpec, TimeGrid, Tolerances
from evmarket.dso_agent import ConvergenceError, _objective, _projected_newton, solve_dso

from conftest import SLOT_HOURS

EPS = Tolerances()
# The reference iteration is run to a much tighter residual than the check.
REFERENCE_EPS = Tolerances(kkt=1e-12)


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
    return DSOSubproblem(
        dso=DSOSpec(quad, lin, power_min, power_max),
        storage=storage,
        energy_now=storage.energy_initial,
        window=TimeGrid(0, n, SLOT_HOURS),
        prices=PriceVector(np.array(prices)),
    )


@settings(max_examples=300, deadline=None)
@given(sub=pinned_subproblems())
def test_closed_form_matches_projected_newton(sub):
    lam = sub.prices.values
    sol = solve_dso(sub, eps=EPS)
    point, _ = _projected_newton(sub, lam, REFERENCE_EPS, 100_000, None)
    np.testing.assert_allclose(sol.point, point, rtol=0.0, atol=1e-9)
    n = sub.window.length
    reference = _objective(sub, lam, point[:n], point[n:])
    assert sol.objective == pytest.approx(reference, rel=1e-9, abs=1e-12)
    assert sol.kkt_residual <= EPS.kkt
    np.testing.assert_array_equal(sol.storage_power.values, 0.0)


def test_closed_form_raises_on_a_non_finite_residual():
    sub = DSOSubproblem(
        dso=DSOSpec(0.06, 0.9, 0.0, math.nan),
        storage=StorageSpec(0.0, 0.0, 0.0, 0.0),
        energy_now=0.0,
        window=TimeGrid(0, 2, SLOT_HOURS),
        prices=PriceVector(np.array([4.0, 2.0])),
    )
    with pytest.raises(ConvergenceError, match="closed form"):
        solve_dso(sub)

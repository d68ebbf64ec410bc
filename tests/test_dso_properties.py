"""Property tests of the supplier's closed form for a pinned storage box.

The closed form must agree with the projected-Newton iteration, which solves
the same problem with the storage treated as a general box.  The closed form
is exact; the iteration stops once its stationarity residual is within
``REFERENCE_EPS``, so on a supplier box narrower than that it may stop one box
width short of the optimum.  The closed-form objective is therefore bounded on
both sides: below by the reference, above by the reference plus the
reference's shortfall, which concavity bounds by the reference gradient times
the step to the closed-form point.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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


# A supplier box as wide as the reference residual: the iteration stops at
# the lower bound with residual 1e-12 and objective 0, the optimum is the cap.
NARROW_BOX = DSOSubproblem(
    dso=DSOSpec(1.0, 0.0, 0.0, 1e-12),
    storage=StorageSpec(0.0, 0.0, 0.0, 0.0),
    energy_now=0.0,
    window=TimeGrid(0, 1, SLOT_HOURS),
    prices=PriceVector(np.array([2.0])),
)


@settings(max_examples=300, deadline=None)
@given(sub=pinned_subproblems())
@example(sub=NARROW_BOX)
def test_closed_form_matches_projected_newton(sub):
    lam = sub.prices.values
    sol = solve_dso(sub, eps=EPS)
    point, _ = _projected_newton(sub, lam, REFERENCE_EPS, 100_000, None)
    np.testing.assert_allclose(sol.point, point, rtol=0.0, atol=1e-9)
    gen = sol.generation.values
    assert np.all(gen >= sub.dso.power_min) and np.all(gen <= sub.dso.power_max)
    np.testing.assert_array_equal(sol.storage_power.values, 0.0)
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
        prices=PriceVector(np.array([4.0, 2.0])),
    )
    with pytest.raises(ConvergenceError, match="closed form"):
        solve_dso(sub)

"""How far two converged negotiations of one slot may settle apart.

The residual ``supply - demand`` is the gradient of the dual function.  While
the supplier's generation stays strictly inside its box, its part of the dual
is (1/(2q))-strongly convex, q being ``dso.quadratic_cost``, and the
vehicles' and the storage's parts are convex.  So two negotiations of the
same slot that both end with ``max |r| <= tol`` settle at prices with

    ||p - p'||_2 <= 2 q ||r - r'||_2 <= 4 q tol sqrt(n)

over a window of n slots, prices per kW-slot.  The residuals are those of
the agents' answers, which are exact only to their own solve tolerances: a
vehicle solved to ``energy_tolerance`` kWh may draw that much energy too much
or too little, ``energy_tolerance / rate`` kW summed over its slots, in each
negotiation.  The bound adds that slack.  The supplier's answer, certified to
``kkt_tolerance``, is taken as exact.  The bound is tight: a one-slot slot of
inelastic vehicles settled from either side sits on it.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from evmarket import DSOSpec, DSOSubproblem, SolverConfig, StorageSpec, TimeGrid, negotiate_slot

from conftest import SLOT_HOURS, TABLE1_STORAGE, make_session

NO_STORAGE = StorageSpec(0.0, 0.0, 0.0, 0.0)


def price_bound(sessions, dso_sub, solver):
    """The largest ``||p - p'||_2`` two converged negotiations of the slot
    may settle apart, per kW-slot, the vehicles' solve tolerance included."""
    q, n = dso_sub.dso.cost_quadratic, dso_sub.window.length
    hours = dso_sub.window.slot_hours
    slack = sum(solver.energy_tolerance / ses.energy_rate(hours) for ses in sessions)
    return 2 * q * (2 * solver.balance_tolerance * math.sqrt(n) + 2 * slack)


def inside_the_box(result, dso):
    """The premise: the settled generation is strictly inside the supplier's box."""
    return all(dso.power_min < g < dso.power_max for g in result.supply_values)


@st.composite
def slots(draw):
    n = draw(st.integers(1, 4))
    sessions = []
    for i in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, n))
        power_max = draw(st.floats(2.0, 22.0))
        sessions.append(
            make_session(
                ev_id=f"ev{i}",
                departure=m,
                power_max=power_max,
                weight=draw(st.floats(1.0, 20.0)),
                loss_fraction=draw(st.sampled_from([0.0, 0.1])),
                energy=draw(st.floats(0.05, 1.0)) * SLOT_HOURS * power_max * m,
            )
        )
    dso = DSOSpec(draw(st.floats(0.02, 0.1)), 0.9, 0.0, 150.0)
    storage = draw(st.sampled_from([NO_STORAGE, TABLE1_STORAGE]))
    window = TimeGrid(0, n, SLOT_HOURS)
    start = draw(st.lists(st.floats(0.0, 8.0), min_size=n, max_size=n))
    return sessions, DSOSubproblem(dso, storage, storage.energy_initial, window), start


@settings(max_examples=80, deadline=None)
@given(slot=slots(), flat=st.floats(0.0, 8.0))
def test_two_converged_negotiations_settle_within_the_price_bound(slot, flat):
    """A flat start at step 5e-4 and a start drawn per slot at step 2e-3."""
    sessions, dso_sub, start = slot
    n = dso_sub.window.length
    slow, fast = SolverConfig(step_size=5e-4), SolverConfig(step_size=2e-3)
    a = negotiate_slot(sessions, dso_sub, [flat] * n, slow)
    b = negotiate_slot(sessions, dso_sub, start, fast)
    if not (a.converged and b.converged):
        return
    if not (inside_the_box(a, dso_sub.dso) and inside_the_box(b, dso_sub.dso)):
        return
    gap = math.dist(a.price_values, b.price_values)
    assert gap <= price_bound(sessions, dso_sub, slow)

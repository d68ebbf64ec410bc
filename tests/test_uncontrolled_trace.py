"""The uncontrolled baseline's trace is pinned byte for byte.

``data/table1-uncontrolled/`` holds the three tables that ``evmarket
uncontrolled scenarios/table1.scenario`` writes.  The baseline involves no
solver, so nothing may move it: any change to admission, the apply step or
the bookkeeping of the slot loop shows here.
"""
from pathlib import Path

import pytest

from evmarket import GridConfig, Scenario, step
from evmarket.cli import main
from evmarket.mpc_loop import SimulationState, uncontrolled

from conftest import SCENARIO_DIR, TABLE1_DSO, make_session

REFERENCE = Path(__file__).resolve().parent / "data" / "table1-uncontrolled"


@pytest.fixture(scope="module")
def uncontrolled_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1-uncontrolled")
    assert main(["uncontrolled", str(SCENARIO_DIR / "table1.scenario"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["slots.csv", "evs.csv", "summary.csv"])
def test_uncontrolled_trace_is_byte_identical(uncontrolled_dir, name):
    assert (uncontrolled_dir / name).read_bytes() == (REFERENCE / name).read_bytes()


def test_uncontrolled_power_is_clipped_to_the_box():
    """A remainder below the power box draws ``power_min``; a large one is
    capped at ``power_max``.  The grid serves the demand at price 0."""
    scenario = Scenario(grid=GridConfig(slot_minutes=15, num_slots=2), dso=TABLE1_DSO)
    # 0.5 kWh over one slot is 2 kW, below the 5 kW floor.
    low = make_session(ev_id="a", departure=4, power_min=5.0, energy=0.5)
    high = make_session(ev_id="b", departure=4, power_max=22.0, energy=50.0)
    state = SimulationState(0, (), (low, high), 100.0, [4.0])
    new_state, record = step(state, scenario, uncontrolled)
    assert record.per_ev == {"a": (5.0, -0.75), "b": (22.0, 44.5)}
    assert record.generation == record.demand_total == 27.0
    assert (record.price_applied, record.storage_power, record.storage_energy) == (0.0, 0.0, 100.0)
    assert (record.iterations, record.residual, record.converged) == (0, 0.0, True)
    # The satisfied vehicle leaves; the other keeps drawing its maximum.
    _, record = step(new_state, scenario, uncontrolled)
    assert record.per_ev == {"b": (22.0, 39.0)}

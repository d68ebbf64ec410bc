import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from evmarket import (
    DSOSpec,
    EVSession,
    EVSubproblem,
    PriceVector,
    Scenario,
    StorageSpec,
    TimeGrid,
    parse_scenario,
    run,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

SLOT_HOURS = 0.25
TABLE1_DSO = DSOSpec(cost_quadratic=0.06, cost_linear=0.9, power_min=0.0, power_max=100.0)
TABLE1_STORAGE = StorageSpec(
    power_min=-100.0, power_max=100.0, energy_initial=100.0, energy_reference=100.0
)


@pytest.fixture(scope="session")
def table1_scenario() -> Scenario:
    return parse_scenario((SCENARIO_DIR / "table1.scenario").read_bytes())


@pytest.fixture(scope="session")
def table1_run_no_storage(table1_scenario):
    """The table1 day with the storage pinned at zero power (simulated once)."""
    scn = replace(
        table1_scenario,
        storage=replace(table1_scenario.storage, power_min=0.0, power_max=0.0),
    )
    return run(scn)


def make_session(
    ev_id="ev",
    arrival=0,
    departure=2,
    power_min=0.0,
    power_max=22.0,
    weight=10.0,
    loss_fraction=0.0,
    energy=3.0,
) -> EVSession:
    return EVSession(
        ev_id=ev_id,
        arrival=arrival,
        departure=departure,
        power_min=power_min,
        power_max=power_max,
        weight=weight,
        loss_fraction=loss_fraction,
        energy_needed=energy,
    )


def make_ev_subproblem(prices, start=0, slot_hours=SLOT_HOURS, **kwargs) -> EVSubproblem:
    prices = np.asarray(prices, dtype=float)
    session = make_session(departure=start + prices.size, arrival=start, **kwargs)
    return EVSubproblem(
        session=session,
        window=TimeGrid(start, prices.size, slot_hours),
        prices=PriceVector(prices),
    )


def random_ev_subproblem(rng: np.random.Generator, max_slots=6) -> EVSubproblem:
    n = int(rng.integers(1, max_slots + 1))
    prices = rng.uniform(0.1, 8.0, size=n)
    power_max = float(rng.uniform(5.0, 30.0))
    loss = float(rng.uniform(0.0, 0.3))
    weight = float(rng.uniform(1.0, 20.0))
    rate = (1.0 - loss) * SLOT_HOURS
    energy = float(rng.uniform(0.05, 0.98)) * rate * power_max * n
    return make_ev_subproblem(
        prices,
        power_max=power_max,
        weight=weight,
        loss_fraction=loss,
        energy=energy,
    )

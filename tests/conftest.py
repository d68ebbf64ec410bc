import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from evmarket import (
    DSOSpec,
    EVBatchSolution,
    EVSession,
    Scenario,
    StorageSpec,
    TimeGrid,
    parse_scenario,
    run,
)
from evmarket.ev_agent import EVBatchWorkspace

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


def make_vehicle(slots, **kwargs) -> tuple[EVSession, TimeGrid]:
    """A vehicle present for ``slots`` slots from slot 0, and that window."""
    return make_session(departure=slots, **kwargs), TimeGrid(0, slots, SLOT_HOURS)


def random_vehicle(
    rng: np.random.Generator, max_slots=6
) -> tuple[EVSession, TimeGrid, list[float]]:
    """A random vehicle, its window and the window's prices."""
    n = int(rng.integers(1, max_slots + 1))
    prices = rng.uniform(0.1, 8.0, size=n)
    power_max = float(rng.uniform(5.0, 30.0))
    loss = float(rng.uniform(0.0, 0.3))
    weight = float(rng.uniform(1.0, 20.0))
    rate = (1.0 - loss) * SLOT_HOURS
    energy = float(rng.uniform(0.05, 0.98)) * rate * power_max * n
    session, window = make_vehicle(
        n, power_max=power_max, weight=weight, loss_fraction=loss, energy=energy
    )
    return session, window, prices.tolist()


def window_of(sessions) -> TimeGrid:
    """The window from slot 0 to the last departure of ``sessions``."""
    return TimeGrid(0, max(s.departure for s in sessions), SLOT_HOURS)


def start_at(ws: EVBatchWorkspace, multipliers, upper=None) -> EVBatchSolution:
    """A previous solution of ``ws`` with every slot on a bound (the lower
    one, or the upper one for the vehicles ``upper`` flags): no slot is free,
    so each vehicle's solve from it starts exactly at its multiplier, a
    non-finite one included (the bracket midpoint)."""
    ws._matrices()
    rows = ws.lo if upper is None else np.where(np.asarray(upper)[:, None], ws.hi, ws.lo)
    rows = rows.tolist()
    flags = [True] * len(rows)
    return EVBatchSolution(ws, ws.prices, rows, [float(mu) for mu in multipliers], flags, rows[0])


def signs(values) -> np.ndarray:
    """The sign bit of each value, a NaN's read as set."""
    values = np.asarray(values, dtype=float)
    return np.signbit(values) | np.isnan(values)


def assert_identical(scalar: EVBatchSolution, array: EVBatchSolution, nan=False):
    """The two EV kernels' answers are bit-identical: the rows byte for byte
    with their dtype and shape, the multipliers, flags and demand equal with
    the sign of every zero; ``nan=True`` lets a NaN multiplier match a NaN in
    the same place, which only a NaN price may cause."""
    rows, other = np.asarray(scalar.rows), np.asarray(array.rows)
    assert rows.dtype == other.dtype and rows.shape == other.shape
    assert rows.tobytes() == other.tobytes()
    mus, other_mus = np.asarray(scalar.multipliers), np.asarray(array.multipliers)
    assert mus.dtype == other_mus.dtype
    assert np.array_equal(mus, other_mus, equal_nan=nan)
    assert np.array_equal(signs(mus), signs(other_mus))
    flags, other_flags = np.asarray(scalar.flags), np.asarray(array.flags)
    assert flags.dtype == other_flags.dtype and np.array_equal(flags, other_flags)
    assert scalar.demand == array.demand == other.sum(axis=0).tolist()
    assert np.array_equal(signs(scalar.demand), signs(array.demand))

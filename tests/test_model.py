import numpy as np
import pytest

from evmarket import (
    PowerProfile,
    PriceVector,
    TimeGrid,
    validate_scenario,
)
from conftest import make_session


def test_time_grid_invariants():
    grid = TimeGrid(3, 5, 0.25)
    assert list(grid.slots) == [3, 4, 5, 6, 7]
    assert grid.end == 8
    with pytest.raises(ValueError):
        TimeGrid(0, 0, 0.25)
    with pytest.raises(ValueError):
        TimeGrid(0, 4, 0.0)


def test_price_vector_rejects_negative_and_is_readonly():
    with pytest.raises(ValueError):
        PriceVector(np.array([1.0, -0.1]))
    pv = PriceVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        pv.values[0] = 5.0
    assert len(pv) == 2 and pv[1] == 2.0


def test_power_profile_accepts_negative_but_not_nan():
    profile = PowerProfile(np.array([-3.0, 4.0]))
    assert profile[0] == -3.0
    with pytest.raises(ValueError):
        PowerProfile(np.array([np.nan]))


def test_remaining_energy_recursion():
    """The energy still needed after a slot at 4 kW, as the day applies it."""
    ses = make_session(energy=3.0)
    assert ses.energy_needed - ses.energy_rate(0.25) * 4.0 == pytest.approx(2.0)
    # lossy charging stores less
    ses = make_session(energy=3.0, loss_fraction=0.5)
    assert ses.energy_needed - ses.energy_rate(0.25) * 4.0 == pytest.approx(2.5)


def test_remaining_energy_never_increases_for_nonnegative_power():
    rng = np.random.default_rng(3)
    for _ in range(200):
        e = rng.uniform(0, 50)
        p = rng.uniform(0, 40)
        xi = rng.uniform(0, 0.99)
        tc = rng.uniform(0.05, 1.0)
        ses = make_session(energy=e, loss_fraction=xi)
        assert ses.energy_needed - ses.energy_rate(tc) * p <= e + 1e-12


def test_validate_table1_scenario_clean(table1_scenario):
    report = validate_scenario(table1_scenario)
    assert report.ok
    assert report.violations == ()


def test_validate_flags_nonconvex_cost(table1_scenario):
    from dataclasses import replace

    bad = replace(table1_scenario, dso=replace(table1_scenario.dso, cost_quadratic=-0.06))
    report = validate_scenario(bad)
    assert not report.ok
    assert any("cost not strictly convex" in v for v in report.violations)


def test_validate_flags_untracked_storage_that_can_move(table1_scenario):
    """With no tracking weight a movable storage is a free, unlimited
    source, and the supplier's maximizer is not unique; a pinned storage
    needs no tracking."""
    from dataclasses import replace

    untracked = replace(table1_scenario.storage, tracking_weight=0.0)
    report = validate_scenario(replace(table1_scenario, storage=untracked))
    assert not report.ok
    assert any(v.startswith("storage: tracking not strictly convex") for v in report.violations)
    pinned = replace(untracked, power_min=0.0, power_max=0.0)
    assert validate_scenario(replace(table1_scenario, storage=pinned)).ok


def test_validate_flags_empty_charging_window(table1_scenario):
    from dataclasses import replace

    ev = make_session(ev_id="bad", arrival=10, departure=5)
    bad = replace(table1_scenario, evs=(ev,))
    report = validate_scenario(bad)
    assert any("empty charging window" in v for v in report.violations)


def test_validate_flags_duplicate_ids(table1_scenario):
    from dataclasses import replace

    evs = (make_session(ev_id="x"), make_session(ev_id="x"))
    report = validate_scenario(replace(table1_scenario, evs=evs))
    assert any("duplicate id" in v for v in report.violations)

"""`evmarket verify` on random small scenarios: it never raises, exits 0 or 2,
prints only finite numbers, and on every slot whose demand lies in the
generation box the dual value bounds the welfare of the recovered point, as
the centralized oracle's welfare function evaluates it."""
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evmarket.cli
from evmarket import (
    DSOSpec,
    EVSession,
    GridConfig,
    Scenario,
    SolverConfig,
    StorageSpec,
    compute_window,
    write_scenario,
)
from evmarket.cli import main

from oracle import welfare


@st.composite
def scenarios(draw) -> Scenario:
    """1-4 slots of 15 minutes, 0-6 vehicles, with or without storage."""
    slots = draw(st.integers(1, 4))
    unit = st.floats(0.05, 0.95)
    evs = []
    for i in range(draw(st.integers(0, 6))):
        arrival = draw(st.integers(0, slots - 1))
        departure = draw(st.integers(arrival + 1, slots))
        power_max = draw(st.floats(3.0, 22.0))
        loss = draw(st.sampled_from([0.0, 0.1]))
        cap = (1.0 - loss) * 0.25 * power_max * (departure - arrival)
        evs.append(
            EVSession(
                ev_id=f"ev{i}",
                arrival=arrival,
                departure=departure,
                power_min=0.0,
                power_max=power_max,
                weight=draw(st.floats(1.0, 20.0)),
                loss_fraction=loss,
                energy_needed=round(draw(unit) * cap, 3),
            )
        )
    storage = draw(
        st.none()
        | st.builds(
            StorageSpec,
            power_min=st.floats(-50.0, 0.0),
            power_max=st.floats(1.0, 50.0),
            energy_initial=st.just(100.0),
            energy_reference=st.just(100.0),
            throughput=st.floats(0.05, 1.0),
            tracking_weight=st.floats(0.1, 2.0),
        )
    )
    return Scenario(
        grid=GridConfig(slot_minutes=15, num_slots=slots),
        dso=DSOSpec(0.06, 0.9, 0.0, draw(st.sampled_from([40.0, 100.0]))),
        storage=storage,
        evs=tuple(evs),
        solver=SolverConfig(
            step_size=draw(st.sampled_from([0.002, 0.005])), max_iterations=500
        ),
    )


# Each example overwrites one scenario file and reads its own output, so the
# function-scoped fixtures are safe to share between examples.
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(scenario=scenarios())
def test_verify_certifies_random_small_days(tmp_path, capsys, monkeypatch, scenario):
    path = tmp_path / "day.scenario"
    path.write_text(write_scenario(scenario))
    negotiate_window = evmarket.cli.negotiate_window
    slots = []

    def spied(state, day):
        result = negotiate_window(state, day)
        slots.append((state, day, result))
        return result

    monkeypatch.setattr(evmarket.cli, "negotiate_window", spied)
    code = main(["verify", str(path)])
    monkeypatch.undo()
    assert code in (0, 2)
    text = "".join(capsys.readouterr())
    assert not re.search(r"\b(inf|nan)\b", text, re.IGNORECASE), text
    assert len(slots) == scenario.grid.num_slots
    for state, day, result in slots:
        demand = result.demand_values
        if not all(day.dso.power_min <= d <= day.dso.power_max for d in demand):
            continue
        window = compute_window(state.active, state.slot, day.grid.slot_hours)
        recovered = welfare(
            [(s, sol.power) for s, sol in zip(state.active, result.ev_solutions)],
            demand,
            result.dso_solution.storage_values,
            day.dso,
            day.storage or StorageSpec(0.0, 0.0, 0.0, 0.0),
            state.storage_energy,
            window,
        )
        gap = result.dual_value - recovered
        assert gap >= -1e-9 * max(1.0, abs(recovered))
        assert gap == pytest.approx(result.duality_gap, rel=1e-9, abs=1e-9)

"""Receding-horizon driver over a simulated day.

Each slot the driver admits arrivals, builds the prediction window up to the
latest departure among active vehicles, negotiates prices for the whole
window, applies only the first sample of every power profile, advances the
battery states and moves on.  The first element of the settled price vector
seeds the next slot's negotiation.

Prices inside the loop are per kW-slot; they are converted back to euro cent
per kWh when recorded, so traces carry scenario units.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .coordinator import ConvergenceConfig, negotiate_slot
from .dso_agent import DSOSubproblem
from .ev_agent import EVSubproblem
from .model import (
    DSOSpec,
    EVSession,
    PriceVector,
    ScenarioValidationError,
    SlotRecord,
    StorageSpec,
    TimeGrid,
    Tolerances,
    remaining_energy_after,
    validate_scenario,
)
from .scenario_io import Scenario, resolve_sessions

__all__ = [
    "SimulationState",
    "SimulationConfig",
    "TraceSummary",
    "SimulationTrace",
    "compute_window",
    "step",
    "run",
    "simulate_uncontrolled",
]

# Storage of a scenario without one: pinned at zero power, which the supplier
# solves in closed form.
_NO_STORAGE = StorageSpec(
    power_min=0.0, power_max=0.0, energy_initial=0.0, energy_reference=0.0
)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything the per-slot step needs besides the evolving state."""

    dso: DSOSpec
    storage: StorageSpec
    slot_hours: float
    convergence: ConvergenceConfig
    eps: Tolerances


@dataclass(frozen=True)
class SimulationState:
    """Closed-loop state between slots.

    ``active`` holds vehicles currently plugged in and still needing energy;
    ``pending`` holds future arrivals ordered by arrival slot.  ``last_price``
    is the warm start for the next negotiation, in per-kW-slot units.
    """

    slot: int
    active: tuple[EVSession, ...]
    pending: tuple[EVSession, ...]
    storage_energy: float
    last_price: float


@dataclass(frozen=True)
class TraceSummary:
    price_mean: float
    price_stdev: float
    peak_demand: float
    energy_delivered: float
    energy_unmet: float


@dataclass(frozen=True)
class SimulationTrace:
    records: tuple[SlotRecord, ...]
    slot_hours: float
    final_energy: dict[str, float]
    summary: TraceSummary

    @property
    def converged(self) -> bool:
        return all(rec.converged for rec in self.records)


def compute_window(active: Sequence[EVSession], slot: int, slot_hours: float) -> TimeGrid:
    """Prediction window from ``slot`` to the latest active departure.

    With no active vehicle the market still clears a one-slot window, so the
    next warm-start price stays meaningful.
    """
    if active:
        length = max(ses.departure - slot for ses in active)
    else:
        length = 1
    return TimeGrid(start=slot, length=length, slot_hours=slot_hours)


def _admit(state: SimulationState) -> tuple[tuple[EVSession, ...], tuple[EVSession, ...]]:
    arrived = tuple(s for s in state.pending if s.arrival <= state.slot)
    waiting = tuple(s for s in state.pending if s.arrival > state.slot)
    return state.active + arrived, waiting


def step(state: SimulationState, config: SimulationConfig) -> tuple[SimulationState, SlotRecord]:
    """Negotiate one slot, apply the first control sample, advance all states."""
    slot = state.slot
    active, pending = _admit(state)
    # Vehicles past departure or already satisfied leave the market.
    active = tuple(
        s
        for s in active
        if s.departure > slot and s.energy_needed > config.eps.energy
    )

    window = compute_window(active, slot, config.slot_hours)
    warm = max(state.last_price, 0.0)
    ev_subs = [
        EVSubproblem(
            session=s,
            window=TimeGrid(slot, s.departure - slot, config.slot_hours),
            prices=PriceVector.constant(warm, s.departure - slot),
        )
        for s in active
    ]
    dso_sub = DSOSubproblem(
        dso=config.dso,
        storage=config.storage,
        energy_now=state.storage_energy,
        window=window,
        prices=PriceVector.constant(warm, window.length),
    )

    result = negotiate_slot(
        ev_subs,
        dso_sub,
        warm_start_price=state.last_price,
        config=config.convergence,
        eps=config.eps,
    )

    applied_price = float(result.prices[0])
    generation = float(result.supply[0])
    storage_power = float(result.storage_power[0])

    per_ev: dict[str, tuple[float, float]] = {}
    new_active = []
    for ses, profile in zip(active, result.ev_profiles):
        power = float(profile[0])
        energy_left = remaining_energy_after(
            ses.energy_needed, power, ses.loss_fraction, config.slot_hours
        )
        per_ev[ses.ev_id] = (power, energy_left)
        new_active.append(replace(ses, energy_needed=energy_left))

    demand_total = float(sum(p for p, _ in per_ev.values()))
    storage_energy = (
        state.storage_energy
        - storage_power * config.storage.throughput * config.slot_hours
    )

    record = SlotRecord(
        slot=slot,
        price_applied=applied_price / config.slot_hours,
        demand_total=demand_total,
        generation=generation,
        storage_power=storage_power,
        storage_energy=storage_energy,
        per_ev=per_ev,
        iterations=result.iterations,
        residual=result.residual_norm,
        converged=result.converged,
        supplier_error=result.supplier_error,
    )

    next_state = SimulationState(
        slot=slot + 1,
        active=tuple(new_active),
        pending=pending,
        storage_energy=storage_energy,
        last_price=applied_price,
    )
    return next_state, record


def _summarize(
    records: Sequence[SlotRecord], sessions: Sequence[EVSession], final_energy: dict[str, float]
) -> TraceSummary:
    prices = np.array([rec.price_applied for rec in records]) if records else np.zeros(1)
    demand = np.array([rec.demand_total for rec in records]) if records else np.zeros(1)
    initial = sum(s.energy_needed for s in sessions)
    # An overshoot within the energy tolerance leaves a slightly negative
    # remainder; it counts as met, not as negative unmet energy.
    return TraceSummary(
        price_mean=float(prices.mean()),
        price_stdev=float(prices.std()),
        peak_demand=float(demand.max()),
        energy_delivered=initial - sum(final_energy.values()),
        energy_unmet=sum(max(left, 0.0) for left in final_energy.values()),
    )


def _initial_state(scenario: Scenario, sessions: Sequence[EVSession]) -> SimulationState:
    storage = scenario.storage if scenario.storage is not None else _NO_STORAGE
    return SimulationState(
        slot=0,
        active=(),
        pending=tuple(sorted(sessions, key=lambda s: (s.arrival, s.ev_id))),
        storage_energy=storage.energy_initial,
        last_price=scenario.solver.initial_price * scenario.grid.slot_hours,
    )


def _config_of(scenario: Scenario) -> SimulationConfig:
    sv = scenario.solver
    return SimulationConfig(
        dso=scenario.dso,
        storage=scenario.storage if scenario.storage is not None else _NO_STORAGE,
        slot_hours=scenario.grid.slot_hours,
        convergence=ConvergenceConfig(
            step_size=sv.step_size,
            balance_tolerance=sv.balance_tolerance,
            max_iterations=sv.max_iterations,
            step_schedule=sv.step_schedule,
        ),
        eps=Tolerances(kkt=sv.kkt_tolerance, energy=sv.energy_tolerance),
    )


def _final_energy(
    sessions: Sequence[EVSession], records: Sequence[SlotRecord]
) -> dict[str, float]:
    """Remaining required energy per vehicle; the last record wins."""
    out = {s.ev_id: s.energy_needed for s in sessions}
    for rec in records:
        for ev_id, (_, energy_left) in rec.per_ev.items():
            out[ev_id] = energy_left
    return out


def run(scenario: Scenario) -> SimulationTrace:
    """Simulate the whole horizon under negotiated prices."""
    report = validate_scenario(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    sessions = resolve_sessions(scenario)
    config = _config_of(scenario)
    state = _initial_state(scenario, sessions)
    records: list[SlotRecord] = []
    for _ in range(scenario.grid.num_slots):
        state, record = step(state, config)
        records.append(record)
    final_energy = _final_energy(sessions, records)
    return SimulationTrace(
        records=tuple(records),
        slot_hours=scenario.grid.slot_hours,
        final_energy=final_energy,
        summary=_summarize(records, sessions, final_energy),
    )


def simulate_uncontrolled(scenario: Scenario) -> SimulationTrace:
    """Baseline without pricing: every plugged-in vehicle draws maximum power.

    Power is clipped so a battery never overshoots its requirement; the grid
    is assumed to serve whatever is drawn, so generation equals demand and the
    storage idles.
    """
    report = validate_scenario(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    sessions = resolve_sessions(scenario)
    storage = scenario.storage if scenario.storage is not None else _NO_STORAGE
    slot_hours = scenario.grid.slot_hours
    eps = Tolerances(
        kkt=scenario.solver.kkt_tolerance, energy=scenario.solver.energy_tolerance
    )

    state = _initial_state(scenario, sessions)
    records: list[SlotRecord] = []
    for slot in range(scenario.grid.num_slots):
        active, pending = _admit(state)
        active = tuple(
            s for s in active if s.departure > slot and s.energy_needed > eps.energy
        )
        per_ev: dict[str, tuple[float, float]] = {}
        new_active = []
        for ses in active:
            rate = ses.energy_rate(slot_hours)
            power = min(ses.power_max, ses.energy_needed / rate)
            power = max(power, ses.power_min)
            energy_left = remaining_energy_after(
                ses.energy_needed, power, ses.loss_fraction, slot_hours
            )
            per_ev[ses.ev_id] = (power, energy_left)
            new_active.append(replace(ses, energy_needed=energy_left))
        demand = float(sum(p for p, _ in per_ev.values()))
        records.append(
            SlotRecord(
                slot=slot,
                price_applied=0.0,
                demand_total=demand,
                generation=demand,
                storage_power=0.0,
                storage_energy=state.storage_energy,
                per_ev=per_ev,
                iterations=0,
                residual=0.0,
                converged=True,
            )
        )
        state = SimulationState(
            slot=slot + 1,
            active=tuple(new_active),
            pending=pending,
            storage_energy=state.storage_energy,
            last_price=state.last_price,
        )

    final_energy = _final_energy(sessions, records)
    return SimulationTrace(
        records=tuple(records),
        slot_hours=slot_hours,
        final_energy=final_energy,
        summary=_summarize(records, sessions, final_energy),
    )

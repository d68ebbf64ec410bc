"""Receding-horizon driver over a simulated day.

Each slot :func:`step` admits arrivals, lets a power policy settle the slot,
applies only the first sample of every vehicle's power, advances the battery
states and moves on.  The step and the policies read the supplier, the grid
and the negotiation's settings from the :class:`~evmarket.scenario_io.Scenario`
itself.  Two policies share that step, and :func:`run` drives a day with
either.  :func:`negotiated` is the market: it builds the prediction window
up to the latest departure among active vehicles and negotiates prices for
the whole window, starting from the price list the previous slot settled
at.  Only that list and the agents' own states cross from one slot to the
next.  :func:`uncontrolled` is the baseline: maximum power at price 0.

Prices inside the loop are per kW-slot; they are converted back to euro cent
per kWh when recorded, so traces carry scenario units.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .coordinator import DualIterationState, negotiate_slot
from .dso_agent import DSOSubproblem
from .model import (
    EVSession,
    ScenarioValidationError,
    SlotRecord,
    StorageSpec,
    TimeGrid,
    validate_scenario,
)
from .scenario_io import Scenario, resolve_sessions

__all__ = [
    "SimulationState",
    "TraceSummary",
    "SimulationTrace",
    "Settlement",
    "compute_window",
    "initial_state",
    "negotiate_window",
    "settle",
    "negotiated",
    "uncontrolled",
    "step",
    "run",
]

# Storage of a scenario without one: pinned at zero power, which the supplier
# solves in closed form.
_NO_STORAGE = StorageSpec(
    power_min=0.0, power_max=0.0, energy_initial=0.0, energy_reference=0.0
)


@dataclass(frozen=True)
class SimulationState:
    """Closed-loop state between slots.

    ``active`` holds vehicles currently plugged in and still needing energy;
    ``pending`` holds future arrivals in ``(arrival, ev_id)`` order, as
    :func:`initial_state` builds it: :func:`step` relies on that order to
    admit a slot's arrivals with one binary search, not a scan.  ``prices``
    is the price list, per kW-slot, that the previous slot settled at.
    ``storage_energy`` is the supplier's private state, its stored energy.
    """

    slot: int
    active: tuple[EVSession, ...]
    pending: tuple[EVSession, ...]
    storage_energy: float
    prices: list[float]


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
    next slot's start stays meaningful.
    """
    length = max((ses.departure - slot for ses in active), default=1)
    return TimeGrid(start=slot, length=length, slot_hours=slot_hours)


class Settlement(NamedTuple):
    """One slot as a power policy settles it: the window's price list (per
    kW-slot), the first power sample of every active vehicle in order, the
    supply and the outcome of the price loop."""

    prices: list[float]
    powers: list[float]
    generation: float
    storage_power: float
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True
    supplier_error: str | None = None


def negotiate_window(state: SimulationState, scenario: Scenario) -> DualIterationState:
    """Run the price loop over the window of ``state.active`` from ``state.slot``,
    started flat at ``state.prices[0]``: the one place a state becomes a start."""
    window = compute_window(state.active, state.slot, scenario.grid.slot_hours)
    storage = scenario.storage or _NO_STORAGE
    dso_sub = DSOSubproblem(scenario.dso, storage, state.storage_energy, window)
    start = [state.prices[0]] * window.length
    return negotiate_slot(state.active, dso_sub, start, scenario.solver)


def settle(result: DualIterationState) -> Settlement:
    """The settled price list and the first sample of a negotiation's window,
    with its outcome, read from the settled state's float lists."""
    evs = result.ev_solutions
    return Settlement(
        result.price_values,
        [float(row[0]) for row in evs.rows] if evs else [],
        result.supply_values[0],
        result.dso_solution.storage_values[0],
        result.iterations,
        result.residual_history[-1],
        result.converged,
        result.supplier_error,
    )


def negotiated(state: SimulationState, scenario: Scenario) -> Settlement:
    """The market: settle at the first sample of the window's negotiation."""
    return settle(negotiate_window(state, scenario))


def _within_need(ses: EVSession, power: float, slot_hours: float) -> float:
    """``power`` clipped so the battery never overshoots its requirement,
    and not below the vehicle's ``power_min``."""
    return max(min(power, ses.energy_needed / ses.energy_rate(slot_hours)), ses.power_min)


def uncontrolled(state: SimulationState, scenario: Scenario) -> Settlement:
    """The baseline without pricing: every vehicle draws its maximum power,
    clipped so its battery never overshoots the requirement; the grid serves
    whatever is drawn and the storage idles."""
    hours = scenario.grid.slot_hours
    powers = [_within_need(s, s.power_max, hours) for s in state.active]
    return Settlement(prices=[0.0], powers=powers, generation=float(sum(powers)), storage_power=0.0)


def step(
    state: SimulationState, scenario: Scenario, policy=negotiated
) -> tuple[SimulationState, SlotRecord]:
    """Admit arrivals, settle the slot with ``policy``, apply its first power
    samples and advance all states.

    ``policy(state, scenario)`` sees the slot's state with arrivals admitted
    and finished vehicles dropped, and returns a :class:`Settlement`.  A slot
    whose price loop did not converge applies each power clipped as
    :func:`uncontrolled` clips it, so no battery overshoots its requirement.
    Without a storage section the stored energy stays where it is.
    """
    slot, hours = state.slot, scenario.grid.slot_hours
    energy_tolerance = scenario.solver.energy_tolerance
    split = bisect_right(state.pending, slot, key=lambda s: s.arrival)
    arrived, pending = state.pending[:split], state.pending[split:]
    # Vehicles past departure or already satisfied leave the market.
    active = tuple(
        s
        for s in state.active + arrived
        if s.departure > slot and s.energy_needed > energy_tolerance
    )
    settled = policy(replace(state, active=active, pending=pending), scenario)

    per_ev: dict[str, tuple[float, float]] = {}
    new_active = []
    for ses, power in zip(active, settled.powers):
        if not settled.converged:
            power = _within_need(ses, power, hours)
        energy_left = ses.energy_needed - ses.energy_rate(hours) * power
        per_ev[ses.ev_id] = (power, energy_left)
        new_active.append(replace(ses, energy_needed=energy_left))

    throughput = (scenario.storage or _NO_STORAGE).throughput
    storage_energy = state.storage_energy - settled.storage_power * throughput * hours
    record = SlotRecord(
        slot=slot,
        price_applied=settled.prices[0] / hours,
        demand_total=float(sum(p for p, _ in per_ev.values())),
        generation=settled.generation,
        storage_power=settled.storage_power,
        storage_energy=storage_energy,
        per_ev=per_ev,
        iterations=settled.iterations,
        residual=settled.residual,
        converged=settled.converged,
        supplier_error=settled.supplier_error,
    )
    next_state = SimulationState(
        slot=slot + 1,
        active=tuple(new_active),
        pending=pending,
        storage_energy=storage_energy,
        prices=settled.prices,
    )
    return next_state, record


def _summarize(
    records: Sequence[SlotRecord], sessions: Sequence[EVSession], final_energy: dict[str, float]
) -> TraceSummary:
    prices = np.array([rec.price_applied for rec in records])
    demand = np.array([rec.demand_total for rec in records])
    initial = sum(s.energy_needed for s in sessions)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stdev = float(prices.mean()), float(prices.std())
        if not (np.isfinite(mean) and np.isfinite(stdev)):
            # Sums of prices near 1e308, and squares past 1e154, overflow:
            # scale the prices to 1 first.
            scale = float(np.abs(prices).max())
            scaled = prices / scale
            mean, stdev = scale * float(scaled.mean()), scale * float(scaled.std())
    # An overshoot within the energy tolerance leaves a slightly negative
    # remainder; it counts as met, not as negative unmet energy.
    return TraceSummary(
        price_mean=mean,
        price_stdev=stdev,
        peak_demand=float(demand.max()),
        energy_delivered=initial - sum(final_energy.values()),
        energy_unmet=sum(max(left, 0.0) for left in final_energy.values()),
    )


def initial_state(scenario: Scenario, sessions: Sequence[EVSession]) -> SimulationState:
    """The state before slot 0: every session pending, the storage at its
    initial energy and the price list at ``initial_price`` per kW-slot."""
    return SimulationState(
        slot=0,
        active=(),
        pending=tuple(sorted(sessions, key=lambda s: (s.arrival, s.ev_id))),
        storage_energy=(scenario.storage or _NO_STORAGE).energy_initial,
        prices=[scenario.solver.initial_price * scenario.grid.slot_hours],
    )


def run(scenario: Scenario, policy=negotiated) -> SimulationTrace:
    """Simulate the whole horizon of ``scenario``, each slot settled by
    ``policy`` (see :func:`step`): negotiated prices by default, or
    :func:`uncontrolled` for the maximum-power baseline.  Every command that
    simulates validates the scenario here, and only here, before resolving
    its sessions."""
    report = validate_scenario(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    sessions = resolve_sessions(scenario)
    state = initial_state(scenario, sessions)
    # Remaining required energy per vehicle: its last record's.
    final_energy = {s.ev_id: s.energy_needed for s in sessions}
    records: list[SlotRecord] = []
    for _ in range(scenario.grid.num_slots):
        state, record = step(state, scenario, policy)
        records.append(record)
        for ev_id, (_, energy_left) in record.per_ev.items():
            final_energy[ev_id] = energy_left
    return SimulationTrace(
        records=tuple(records),
        slot_hours=scenario.grid.slot_hours,
        final_energy=final_energy,
        summary=_summarize(records, sessions, final_energy),
    )

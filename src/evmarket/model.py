"""Domain types shared by every part of the charging-market simulator.

Unit conventions used throughout the package:

* power in kW, energy in kWh,
* scenario-level prices in euro cent per kWh,
* window-level prices (the vectors exchanged during a negotiation) in
  euro cent per kW held for one slot, i.e. the scenario price multiplied
  by the slot duration in hours.  Agent objectives charge ``price * power``
  per slot, so this keeps per-slot money amounts consistent.

All types here are immutable after construction and safe to share between
concurrently running agent solves.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from math import inf
from numbers import Integral, Real
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "TimeGrid",
    "EVSession",
    "DSOSpec",
    "StorageSpec",
    "PriceVector",
    "PowerProfile",
    "SlotRecord",
    "SolverConfig",
    "ValidationReport",
    "ScenarioValidationError",
    "validate_scenario",
]

_MAX = sys.float_info.max  # the largest float


@dataclass(frozen=True)
class TimeGrid:
    """A planning window: ``length`` slots of ``slot_hours`` each, starting at
    slot ``start``.  ``start`` and ``length`` must be integers (NumPy's
    included), ``length`` at least 1 and ``slot_hours`` positive and finite,
    else ``ValueError``."""

    start: int
    length: int
    slot_hours: float

    def __post_init__(self) -> None:
        if not (_integral(self.start) and _integral(self.length)):
            raise ValueError("window start and length must be integers")
        if self.length < 1:
            raise ValueError("window must contain at least one slot")
        if not 0 < self.slot_hours <= _MAX:
            raise ValueError("slot duration must be positive and finite")

    @property
    def end(self) -> int:
        return self.start + self.length

    def price_list(self, prices) -> list[float]:
        """The window's price list, the one length rule of both agents: any
        list is kept as it is, its entries unconverted, anything else is
        converted once to a list of floats, and another length than the
        window's raises ``ValueError``."""
        prices = prices if type(prices) is list else np.asarray(prices, dtype=float).tolist()
        if len(prices) != self.length:
            raise ValueError("price list length must equal the window length")
        return prices


@dataclass(frozen=True)
class EVSession:
    """One vehicle's charging request.

    ``energy_needed`` is the energy (kWh) that still has to reach the battery
    before ``departure``; it shrinks as power is applied.  ``loss_fraction``
    is the share of drawn power lost in conversion, so one slot at ``p`` kW
    stores ``(1 - loss_fraction) * slot_hours * p`` kWh.  The two optional
    fields, ``power_min`` and ``loss_fraction``, are keyword-only with a 0.0
    default.

    Invariants (checked by :func:`validate_scenario`, not the constructor):
    integer 0 <= arrival <= departure <= the day's slot count (a vehicle
    charges in the slots ``[arrival, departure)``), 0 <= power_min <=
    power_max, energy_needed >= 0, 0 <= loss_fraction < 1, weight > 0 (the
    utility's slope at zero power, by which the water-filling solve divides).
    """

    ev_id: str
    arrival: int
    departure: int
    power_min: float = field(default=0.0, kw_only=True)
    power_max: float
    weight: float
    loss_fraction: float = field(default=0.0, kw_only=True)
    energy_needed: float

    def energy_rate(self, slot_hours: float) -> float:
        """kWh stored per kW drawn during one slot."""
        return (1.0 - self.loss_fraction) * slot_hours


@dataclass(frozen=True)
class DSOSpec:
    """Generation cost and bounds of the single supplier.

    Producing net power ``q`` for one slot costs ``cost_quadratic * q**2 +
    cost_linear * q``.  ``cost_quadratic`` must be positive so the cost is
    strictly convex.
    """

    cost_quadratic: float
    cost_linear: float
    power_min: float = 0.0
    power_max: float = float("inf")


@dataclass(frozen=True)
class StorageSpec:
    """Storage element operated by the supplier.

    Positive ``storage_power`` discharges toward generation; the stored energy
    follows ``x' = x - throughput * slot_hours * storage_power``.  The supplier
    objective penalises deviation from ``energy_reference`` with weight
    ``tracking_weight`` per squared kWh.
    """

    power_min: float
    power_max: float
    energy_initial: float
    energy_reference: float
    throughput: float = 1.0
    tracking_weight: float = 1.0


def _as_readonly_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    arr.setflags(write=False)
    return arr


# PriceVector and PowerProfile are kept only because bench/run.py's
# instrument wraps their __post_init__ by name; the program builds neither.
@dataclass(frozen=True, eq=False)
class PriceVector:
    """Nonnegative per-slot prices over one planning window."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_readonly_vector(self.values)
        if arr.size == 0:
            raise ValueError("price vector must not be empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("prices must be finite")
        if np.any(arr < 0):
            raise ValueError("prices must be nonnegative")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, idx):
        return self.values[idx]


@dataclass(frozen=True, eq=False)
class PowerProfile:
    """A per-slot power sequence (kW) over one planning window."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_readonly_vector(self.values)
        if not np.all(np.isfinite(arr)):
            raise ValueError("powers must be finite")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, idx):
        return self.values[idx]


@dataclass(frozen=True)
class SlotRecord:
    """Applied closed-loop outcome for one time slot.

    ``price_applied`` is in euro cent per kWh (scenario units), powers in kW,
    ``storage_energy`` is the stored energy after the slot.  ``per_ev`` maps
    vehicle id to ``(applied power kW, remaining energy kWh)``.
    ``supplier_error`` is the message of a supplier failure, a non-finite
    imbalance or an overflowing price update that settled the slot early,
    else ``None``.
    """

    slot: int
    price_applied: float
    demand_total: float
    generation: float
    storage_power: float
    storage_energy: float
    per_ev: Mapping[str, tuple[float, float]]
    iterations: int
    residual: float
    converged: bool
    supplier_error: str | None = None


# The price loop's step schedules; ``constant`` steps by ``step_size`` at
# every iteration.
(CONSTANT,) = STEP_SCHEDULES = ("constant",)


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the negotiation, the scenario's ``solver`` section.

    The first slot's price loop starts at ``initial_price`` (euro cent per
    kWh).  The loop steps by ``step_size``, in price units per kW of
    imbalance, until the worst per-slot imbalance is within
    ``balance_tolerance`` or ``max_iterations`` (at most
    :data:`MAX_ITERATIONS`) price updates are spent.  The supplier solves to
    the residual ``kkt_tolerance``, each vehicle to ``energy_tolerance`` kWh;
    the agents' defaults are these fields, and ``inf`` sets no target in a
    direct agent call.  The supplier's certificate rounds at about 1e-12 on
    windows of 20-48 slots, so a ``kkt_tolerance`` below that can flag a
    slot (table1 at 1e-15) or fail a day's first supplier call, which has no
    state to settle at (table1 at 1e-16).
    :func:`loop_problems` names what is wrong with the settings;
    :func:`~evmarket.coordinator.negotiate_slot` raises the first.
    """

    initial_price: float = 16.0
    step_size: float = 0.005
    balance_tolerance: float = 0.1
    max_iterations: int = 2000
    step_schedule: str = CONSTANT
    kkt_tolerance: float = 1e-6
    energy_tolerance: float = 1e-6


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of scenario validation; empty ``violations`` means well-formed."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "scenario ok"
        return "\n".join(self.violations)


class ScenarioValidationError(ValueError):
    """Raised when an operation requires a well-formed scenario but got violations."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


def finite(value) -> bool:
    """Whether a number lies within +-the largest float (so NaN, +-inf and
    ``10**400`` fail, and nothing raises); after a sign test, ``<= _MAX``."""
    return -_MAX <= value <= _MAX


def finite_or_inf(value: float) -> str | None:
    """What is wrong with ``dso.power_max``, else None (its row's and the validator's rule)."""
    return None if finite(value) or value == inf else "must be finite or inf"


def nonnegative(value: int) -> str | None:
    """What is wrong with a scenario ``seed``, else None: the seed's schema
    row and :func:`validate_scenario` both check it with this rule."""
    return None if value >= 0 else "must be nonnegative"


def fleet_id(number: int) -> str:
    """The id of a fleet's ``number``-th generated vehicle, from 1: ``ev01``, ..."""
    return f"ev{number:02d}"


def csv_field(value: str) -> str | None:
    """What is wrong with a vehicle id, else None: the id's schema row and
    :func:`validate_scenario` check that ``evs.csv`` and the scenario text keep it."""
    if value.isalnum():  # the usual id, settled at once
        return None
    ok = value.splitlines() == [value.strip()] == [value] and not set(',"#') & set(value)
    return None if ok else "must be non-empty, unpadded, one line and free of ',', '\"' and '#'"


# The most slots a day, vehicles a fleet and price updates a slot may have,
# which bound the work of any accepted scenario: at about 50 us an idle slot,
# a day at the limit takes seconds, generate_evs draws that many sessions in
# under a second, and a slot of a few vehicles at the iteration limit takes
# about a second.
MAX_SLOTS = 100_000
MAX_FLEET = 100_000
MAX_ITERATIONS = 100_000


def at_most(limit: int) -> Callable[[int], str | None]:
    """The rule that a count is at most ``limit``, which the schema rows of
    ``grid.num_slots``, ``fleet.count`` and ``solver.max_iterations``,
    :func:`validate_scenario` and :func:`loop_problems` use."""
    return lambda value: None if value <= limit else f"must be at most {limit}"


def known_schedule(value: str) -> str | None:
    """What is wrong with a ``step_schedule``, else None: its schema row and
    :func:`loop_problems` both check it with this rule."""
    return None if value in STEP_SCHEDULES else f"must be {' or '.join(map(repr, STEP_SCHEDULES))}"


def _integral(value) -> bool:
    """Whether ``value`` is an integer, NumPy's included; an exact ``int``
    skips the slower abstract-class check."""
    return type(value) is int or isinstance(value, Integral)


def loop_problems(solver: SolverConfig) -> list[str]:
    """Every broken rule of the negotiation's settings but ``initial_price``,
    whose rule reads the grid (see :func:`validate_scenario`); each test
    holds for legal values, so NaN fails it."""
    out = []
    if not solver.step_size > 0:
        out.append("step_size must be positive")
    if not solver.balance_tolerance > 0:
        out.append("balance_tolerance must be positive")
    if not (solver.step_size <= _MAX and solver.balance_tolerance <= _MAX):
        out.append("step_size and balance_tolerance must be finite")
    if not _integral(solver.max_iterations):
        out.append("max_iterations must be an integer")
    elif not solver.max_iterations >= 1:
        out.append("max_iterations must be at least 1")
    elif problem := at_most(MAX_ITERATIONS)(solver.max_iterations):
        out.append(f"max_iterations {problem}")
    if problem := known_schedule(solver.step_schedule):
        out.append(f"step_schedule {problem}")
    if not solver.kkt_tolerance > 0:
        out.append("kkt_tolerance must be positive")
    if not solver.energy_tolerance > 0:
        out.append("energy_tolerance must be positive")
    if not (solver.kkt_tolerance <= _MAX and solver.energy_tolerance <= _MAX):
        out.append("kkt_tolerance and energy_tolerance must be finite")
    return out


def _mistyped(obj, label: str = "") -> list[str]:
    """A violation naming each field of the dataclass ``obj``, or of its
    sections and vehicles, not of its annotated kind: a real number for
    ``int`` and ``float`` (integrality is a range test), a string for
    ``str``, an instance of the annotated class for a section (or None where
    the annotation allows it), and a tuple or list of :class:`EVSession` for
    ``evs``, whose other items are named by position."""
    out = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        got = type(value).__name__
        if f.type in ("int", "float", "str"):
            kind, noun = (str, "a string") if f.type == "str" else (Real, "a number")
            if not isinstance(value, kind):
                out.append(f"{label}{f.name} must be {noun}, not {got}")
        elif f.name == "evs":
            if not isinstance(value, (tuple, list)):
                out.append(f"evs must be a tuple of EVSession, not {got}")
                continue
            for i, ev in enumerate(value):
                if isinstance(ev, EVSession):
                    out += _mistyped(ev, f"ev {ev.ev_id!r}: ")
                else:
                    out.append(f"evs[{i}] must be an EVSession, not {type(ev).__name__}")
        elif got == f.type.partition(" ")[0]:
            out += _mistyped(value, f"{f.name}: ")
        elif value is not None or not f.type.endswith("| None"):
            out.append(f"{f.name} must be {f.type.replace(' | ', ' or ')}, not {got}")
    return out


def _check_box(spec, label: str, out: list[str], hours: float, energy: float = 0.0) -> None:
    """Checks of a session's or a fleet's power box, utility and losses; a
    positive slot of ``hours`` must store some energy per kW drawn."""
    if not spec.power_min >= 0:
        out.append(f"{label}: power_min must be nonnegative")
    if not spec.power_max >= spec.power_min:
        out.append(f"{label}: power_max below power_min")
    if not energy >= 0:
        out.append(f"{label}: energy must be nonnegative")
    if not 0 <= spec.loss_fraction < 1:
        out.append(f"{label}: loss fraction must lie in [0, 1)")
    elif (1.0 - spec.loss_fraction) * hours == 0 and hours > 0:
        out.append(f"{label}: loss fraction leaves no stored energy in a slot of slot_minutes")
    if not spec.weight > 0:
        out.append(f"{label}: weight must be positive")
    if not (spec.power_max <= _MAX and spec.weight <= _MAX and energy <= _MAX):
        out.append(f"{label}: power_max, weight and energy must be finite")


def validate_scenario(scenario) -> ValidationReport:
    """Collect every invariant violation in ``scenario``; empty report iff well-formed.

    Accepts any dataclass with the :class:`~evmarket.scenario_io.Scenario`
    field layout (so the model layer stays free of parsing concerns).  Every
    number must pass :func:`finite`, except ``dso.power_max``, which may be
    ``inf``; each test holds for legal values, so NaN fails it.  No explicit
    vehicle may take an id that the fleet generates.  A field of the wrong
    type (in a scenario built in Python) that makes a test raise is reported
    by name instead; a well-typed scenario pays nothing for that check.
    """
    try:
        return ValidationReport(tuple(_violations(scenario)))
    except (TypeError, AttributeError, ValueError):
        if mistyped := _mistyped(scenario):
            return ValidationReport(tuple(mistyped))
        raise


def _violations(scenario) -> list[str]:
    """The tests of :func:`validate_scenario`, each broken one worded."""
    out: list[str] = []
    if not _integral(scenario.seed):
        out.append("seed must be an integer")
    if problem := nonnegative(scenario.seed):
        out.append(f"seed {problem}")

    grid = scenario.grid
    hours = 0.0  # until slot_minutes passes its tests
    if not _integral(grid.num_slots):
        out.append("grid: num_slots must be an integer")
    if not grid.num_slots >= 1:
        out.append("grid: num_slots must be at least 1")
    elif problem := at_most(MAX_SLOTS)(grid.num_slots):
        out.append(f"grid: num_slots {problem}")
    if not grid.slot_minutes > 0:
        out.append("grid: slot_minutes must be positive")
    elif not grid.slot_minutes <= _MAX:
        out.append("grid: slot_minutes must be finite")
    elif (hours := grid.slot_hours) == 0:
        out.append("grid: slot_minutes must be positive in hours")

    dso = scenario.dso
    if not dso.cost_quadratic > 0:
        out.append("dso: cost not strictly convex (quadratic coefficient must be positive)")
    if not dso.power_min <= dso.power_max:
        out.append("dso: power_min above power_max")
    elif problem := finite_or_inf(dso.power_max):
        out.append(f"dso: power_max {problem}")
    if not all(map(finite, (dso.cost_quadratic, dso.cost_linear, dso.power_min))):
        out.append("dso: quadratic_cost, linear_cost and power_min must be finite")

    storage = scenario.storage
    if storage is not None:
        if not (storage.power_min <= 0 <= storage.power_max):
            out.append("storage: power bounds must straddle zero")
        if not storage.energy_initial >= 0:
            out.append("storage: energy_initial must be nonnegative")
        if not storage.energy_reference >= 0:
            out.append("storage: energy_reference must be nonnegative")
        if not 0 < storage.throughput <= 1:
            out.append("storage: throughput must lie in (0, 1]")
        if not storage.tracking_weight >= 0:
            out.append("storage: tracking_weight must be nonnegative")
        elif storage.tracking_weight == 0 and storage.power_min < storage.power_max:
            out.append(
                "storage: tracking not strictly convex "
                "(tracking_weight must be positive when the power bounds differ)"
            )
        if not all(map(finite, (storage.power_min, storage.power_max, storage.energy_initial,
                                storage.energy_reference, storage.tracking_weight))):
            out.append("storage: power bounds, energies and tracking_weight must be finite")

    solver = scenario.solver
    if not solver.initial_price >= 0:
        out.append("solver: initial_price must be nonnegative")
    elif not (solver.initial_price <= _MAX and solver.initial_price * hours <= _MAX):
        # The price loop starts from initial_price per kW-slot.
        out.append("solver: initial_price must be finite per kW-slot")
    out += [f"solver: {problem}" for problem in loop_problems(solver)]

    fleet = scenario.fleet
    if fleet is not None:
        if not _integral(fleet.count):
            out.append("fleet: count must be an integer")
        if not fleet.count >= 0:
            out.append("fleet: count must be nonnegative")
        elif problem := at_most(MAX_FLEET)(fleet.count):
            out.append(f"fleet: count {problem}")
        elif _integral(fleet.count) and (explicit := {ev.ev_id for ev in scenario.evs}):
            out += [f"ev {ev_id}: duplicate id (the fleet generates it too)"
                    for ev_id in map(fleet_id, range(1, fleet.count + 1)) if ev_id in explicit]
        _check_box(fleet, "fleet", out, hours)

    seen: set[str] = set()
    for ev in scenario.evs:
        problem = csv_field(ev.ev_id)
        label = f"ev {ev.ev_id!r}" if problem else f"ev {ev.ev_id}"
        if problem:
            out.append(f"{label}: id {problem}")
        if ev.ev_id in seen:
            out.append(f"{label}: duplicate id")
        seen.add(ev.ev_id)
        if not (_integral(ev.arrival) and _integral(ev.departure)):
            out.append(f"{label}: arrival and departure must be integers")
        if not ev.arrival >= 0:
            out.append(f"{label}: arrival must be nonnegative")
        if not ev.departure >= ev.arrival:
            out.append(f"{label}: empty charging window (departure before arrival)")
        if not ev.departure <= grid.num_slots:
            out.append(f"{label}: departure after the horizon")
        _check_box(ev, label, out, hours, ev.energy_needed)
    return out


"""Scenario files, seeded fleet generation and trace serialization.

Scenario files are a small key/value tree, UTF-8, one entry per line::

    # comment
    grid:
      slot_minutes = 15
      num_slots = 48
    dso:
      quadratic_cost = 0.06
      linear_cost = 0.9
      power_max = 100
    seed = 7

Sections: ``grid`` (required), ``dso`` (required), ``storage`` (optional; a
missing section means no storage, i.e. both power bounds zero), ``solver``
(optional, defaults below), ``fleet`` (optional, randomly generated sessions)
and repeatable ``ev`` sections for explicit sessions.  ``seed`` is the only
top-level key.  Unknown sections or keys are errors, as are missing required
keys and invariant violations.

Everything downstream is deterministic: one seeded generator, fixed iteration
order, fixed numeric formatting, so traces are byte-identical across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    DSOSpec,
    EVSession,
    ScenarioValidationError,
    StorageSpec,
    validate_scenario,
)

if TYPE_CHECKING:  # pragma: no cover
    from .mpc_loop import SimulationTrace

__all__ = [
    "SECTION_KEYS",
    "GridConfig",
    "FleetSpec",
    "SolverConfig",
    "Scenario",
    "ScenarioFormatError",
    "parse_value",
    "parse_scenario",
    "write_scenario",
    "generate_evs",
    "resolve_sessions",
    "write_trace",
]


@dataclass(frozen=True)
class GridConfig:
    slot_minutes: float
    num_slots: int

    @property
    def slot_hours(self) -> float:
        return self.slot_minutes / 60.0


@dataclass(frozen=True)
class FleetSpec:
    """Bounds for randomly generated charging sessions."""

    count: int
    power_max: float
    weight: float
    power_min: float = 0.0
    loss_fraction: float = 0.0


@dataclass(frozen=True)
class SolverConfig:
    """Negotiation settings; ``initial_price`` is in euro cent per kWh."""

    initial_price: float = 16.0
    step_size: float = 0.005
    balance_tolerance: float = 0.1
    max_iterations: int = 2000
    step_schedule: str = "constant"
    kkt_tolerance: float = 1e-6
    energy_tolerance: float = 1e-6


@dataclass(frozen=True)
class Scenario:
    grid: GridConfig
    dso: DSOSpec
    storage: StorageSpec | None = None
    fleet: FleetSpec | None = None
    evs: tuple[EVSession, ...] = ()
    solver: SolverConfig = SolverConfig()
    seed: int = 0


class ScenarioFormatError(ValueError):
    """Malformed scenario text; carries the offending line and column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column


SECTION_KEYS = {
    "grid": {"slot_minutes": float, "num_slots": int},
    "dso": {
        "quadratic_cost": float,
        "linear_cost": float,
        "power_min": float,
        "power_max": float,
    },
    "storage": {
        "power_min": float,
        "power_max": float,
        "energy_initial": float,
        "energy_reference": float,
        "throughput": float,
        "tracking_weight": float,
    },
    "solver": {
        "initial_price": float,
        "step_size": float,
        "balance_tolerance": float,
        "max_iterations": int,
        "step_schedule": str,
        "kkt_tolerance": float,
        "energy_tolerance": float,
    },
    "fleet": {
        "count": int,
        "power_min": float,
        "power_max": float,
        "weight": float,
        "loss_fraction": float,
    },
    "ev": {
        "id": str,
        "arrival": int,
        "departure": int,
        "power_min": float,
        "power_max": float,
        "weight": float,
        "loss_fraction": float,
        "energy": float,
    },
}

_REQUIRED = {
    "grid": ("slot_minutes", "num_slots"),
    "dso": ("quadratic_cost", "linear_cost", "power_max"),
    "storage": ("power_min", "power_max", "energy_initial", "energy_reference"),
    "solver": (),
    "fleet": ("count", "power_max", "weight"),
    "ev": ("id", "arrival", "departure", "power_max", "weight", "energy"),
}


def parse_value(kind, raw: str, section: str, key: str, line: int | None = None):
    """Convert the text of entry ``section.key`` to ``kind``.

    Numbers must be finite; only ``dso.power_max`` may be ``inf``, its
    unbounded default.
    """
    try:
        value = raw if kind is str else kind(raw)
    except ValueError:
        raise ScenarioFormatError(f"cannot parse {raw!r} as {kind.__name__}", line) from None
    if kind is float and not math.isfinite(value):
        if (section, key) != ("dso", "power_max"):
            raise ScenarioFormatError(f"{section}.{key} must be finite, got {raw!r}", line)
        if value != math.inf:
            raise ScenarioFormatError(f"dso.power_max must be finite or inf, got {raw!r}", line)
    return value


def _parse_tree(text: str) -> tuple[dict, list[dict], int | None]:
    """Return (sections, ev_blocks, seed); raises on any malformed line."""
    sections: dict[str, dict] = {}
    ev_blocks: list[dict] = []
    current: dict | None = None
    current_name = ""
    seed: int | None = None

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        col = len(stripped) - len(stripped.lstrip()) + 1
        body = stripped.strip()
        if body.endswith(":") and "=" not in body:
            name = body[:-1].strip()
            if name not in SECTION_KEYS:
                raise ScenarioFormatError(f"unknown section {name!r}", lineno, col)
            block: dict = {}
            if name == "ev":
                ev_blocks.append(block)
            else:
                if name in sections:
                    raise ScenarioFormatError(f"duplicate section {name!r}", lineno, col)
                sections[name] = block
            current = block
            current_name = name
            continue
        if "=" not in body:
            raise ScenarioFormatError("expected 'key = value' or 'section:'", lineno, col)
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "seed":
            if seed is not None:
                raise ScenarioFormatError("duplicate key 'seed'", lineno, col)
            seed = parse_value(int, raw, "", "seed", lineno)
            continue
        if current is None:
            raise ScenarioFormatError(
                f"key {key!r} outside any section (only 'seed' may be top level)", lineno, col
            )
        allowed = SECTION_KEYS[current_name]
        if key not in allowed:
            raise ScenarioFormatError(
                f"unknown key {key!r} in section {current_name!r}", lineno, col
            )
        if key in current:
            raise ScenarioFormatError(
                f"duplicate key {key!r} in section {current_name!r}", lineno, col
            )
        current[key] = parse_value(allowed[key], raw, current_name, key, lineno)

    return sections, ev_blocks, seed


def _require(block: dict, section: str) -> None:
    for key in _REQUIRED[section]:
        if key not in block:
            raise ScenarioFormatError(f"missing required key: {section}.{key}")


def parse_scenario(text: str | bytes, validate: bool = True) -> Scenario:
    """Parse scenario text; with ``validate`` raise on invariant violations."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"not valid UTF-8: {exc}") from None

    sections, ev_blocks, seed = _parse_tree(text)

    for required_section in ("grid", "dso"):
        if required_section not in sections:
            raise ScenarioFormatError(f"missing required key: {required_section}")

    _require(sections["grid"], "grid")
    grid = GridConfig(**sections["grid"])

    _require(sections["dso"], "dso")
    d = sections["dso"]
    dso = DSOSpec(
        cost_quadratic=d["quadratic_cost"],
        cost_linear=d["linear_cost"],
        power_min=d.get("power_min", 0.0),
        power_max=d["power_max"],
    )

    storage = None
    if "storage" in sections:
        _require(sections["storage"], "storage")
        s = sections["storage"]
        storage = StorageSpec(
            power_min=s["power_min"],
            power_max=s["power_max"],
            energy_initial=s["energy_initial"],
            energy_reference=s["energy_reference"],
            throughput=s.get("throughput", 1.0),
            tracking_weight=s.get("tracking_weight", 1.0),
        )

    solver = SolverConfig(**sections.get("solver", {}))

    fleet = None
    if "fleet" in sections:
        _require(sections["fleet"], "fleet")
        f = sections["fleet"]
        fleet = FleetSpec(
            count=f["count"],
            power_max=f["power_max"],
            weight=f["weight"],
            power_min=f.get("power_min", 0.0),
            loss_fraction=f.get("loss_fraction", 0.0),
        )

    evs = []
    for block in ev_blocks:
        _require(block, "ev")
        evs.append(
            EVSession(
                ev_id=block["id"],
                arrival=block["arrival"],
                departure=block["departure"],
                power_min=block.get("power_min", 0.0),
                power_max=block["power_max"],
                weight=block["weight"],
                loss_fraction=block.get("loss_fraction", 0.0),
                energy_needed=block["energy"],
            )
        )

    scenario = Scenario(
        grid=grid,
        dso=dso,
        storage=storage,
        fleet=fleet,
        evs=tuple(evs),
        solver=solver,
        seed=seed if seed is not None else 0,
    )

    if validate:
        report = validate_scenario(scenario)
        if not report.ok:
            raise ScenarioValidationError(report)
    return scenario


def _value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_scenario(scenario: Scenario) -> str:
    """Canonical text form; ``parse_scenario`` of the output equals the input."""
    lines: list[str] = []
    lines.append(f"seed = {scenario.seed}")
    lines.append("grid:")
    lines.append(f"  slot_minutes = {_value(scenario.grid.slot_minutes)}")
    lines.append(f"  num_slots = {scenario.grid.num_slots}")
    lines.append("dso:")
    lines.append(f"  quadratic_cost = {_value(scenario.dso.cost_quadratic)}")
    lines.append(f"  linear_cost = {_value(scenario.dso.cost_linear)}")
    lines.append(f"  power_min = {_value(scenario.dso.power_min)}")
    lines.append(f"  power_max = {_value(scenario.dso.power_max)}")
    if scenario.storage is not None:
        st = scenario.storage
        lines.append("storage:")
        lines.append(f"  power_min = {_value(st.power_min)}")
        lines.append(f"  power_max = {_value(st.power_max)}")
        lines.append(f"  energy_initial = {_value(st.energy_initial)}")
        lines.append(f"  energy_reference = {_value(st.energy_reference)}")
        lines.append(f"  throughput = {_value(st.throughput)}")
        lines.append(f"  tracking_weight = {_value(st.tracking_weight)}")
    sv = scenario.solver
    lines.append("solver:")
    lines.append(f"  initial_price = {_value(sv.initial_price)}")
    lines.append(f"  step_size = {_value(sv.step_size)}")
    lines.append(f"  balance_tolerance = {_value(sv.balance_tolerance)}")
    lines.append(f"  max_iterations = {sv.max_iterations}")
    lines.append(f"  step_schedule = {sv.step_schedule}")
    lines.append(f"  kkt_tolerance = {_value(sv.kkt_tolerance)}")
    lines.append(f"  energy_tolerance = {_value(sv.energy_tolerance)}")
    if scenario.fleet is not None:
        fl = scenario.fleet
        lines.append("fleet:")
        lines.append(f"  count = {fl.count}")
        lines.append(f"  power_min = {_value(fl.power_min)}")
        lines.append(f"  power_max = {_value(fl.power_max)}")
        lines.append(f"  weight = {_value(fl.weight)}")
        lines.append(f"  loss_fraction = {_value(fl.loss_fraction)}")
    for ev in scenario.evs:
        lines.append("ev:")
        lines.append(f"  id = {ev.ev_id}")
        lines.append(f"  arrival = {ev.arrival}")
        lines.append(f"  departure = {ev.departure}")
        lines.append(f"  power_min = {_value(ev.power_min)}")
        lines.append(f"  power_max = {_value(ev.power_max)}")
        lines.append(f"  weight = {_value(ev.weight)}")
        lines.append(f"  loss_fraction = {_value(ev.loss_fraction)}")
        lines.append(f"  energy = {_value(ev.energy_needed)}")
    return "\n".join(lines) + "\n"


def generate_evs(
    count: int, grid: GridConfig, bounds: FleetSpec, seed: int
) -> tuple[EVSession, ...]:
    """Deterministically draw ``count`` sessions, each feasible for its stay.

    Arrivals are uniform over the slots, departures uniform over the remaining
    horizon, and the required energy uniform over what the stay can deliver
    inside the power box.
    """
    rng = np.random.default_rng(seed)
    slot_hours = grid.slot_hours
    rate = (1.0 - bounds.loss_fraction) * slot_hours
    sessions = []
    for i in range(count):
        arrival = int(rng.integers(0, grid.num_slots))
        departure = int(rng.integers(arrival + 1, grid.num_slots + 1))
        stay = departure - arrival
        floor = rate * bounds.power_min * stay
        cap = rate * bounds.power_max * stay
        energy = floor + float(rng.uniform(0.0, 1.0)) * (cap - floor)
        sessions.append(
            EVSession(
                ev_id=f"ev{i + 1:02d}",
                arrival=arrival,
                departure=departure,
                power_min=bounds.power_min,
                power_max=bounds.power_max,
                weight=bounds.weight,
                loss_fraction=bounds.loss_fraction,
                energy_needed=energy,
            )
        )
    return tuple(sessions)


def resolve_sessions(scenario: Scenario) -> tuple[EVSession, ...]:
    """Explicit sessions plus the generated fleet, in deterministic order."""
    generated: tuple[EVSession, ...] = ()
    if scenario.fleet is not None:
        generated = generate_evs(
            scenario.fleet.count, scenario.grid, scenario.fleet, scenario.seed
        )
    return scenario.evs + generated


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_trace(trace: "SimulationTrace", out_dir: str | Path) -> None:
    """Write the three result tables (slots, per-vehicle, summary) as CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    slot_lines = [
        "slot,time_hours,price_applied,demand_total_kw,p_l_kw,p_s_kw,"
        "storage_soc_kwh,iterations,residual_kw,converged"
    ]
    ev_lines = ["slot,ev_id,power_kw,soc_error_kwh"]
    for rec in trace.records:
        slot_lines.append(
            ",".join(
                [
                    str(rec.slot),
                    _fmt(rec.slot * trace.slot_hours),
                    _fmt(rec.price_applied),
                    _fmt(rec.demand_total),
                    _fmt(rec.generation),
                    _fmt(rec.storage_power),
                    _fmt(rec.storage_energy),
                    str(rec.iterations),
                    _fmt(rec.residual),
                    "true" if rec.converged else "false",
                ]
            )
        )
        for ev_id in sorted(rec.per_ev):
            power, soc_error = rec.per_ev[ev_id]
            ev_lines.append(
                ",".join([str(rec.slot), ev_id, _fmt(power), _fmt(soc_error)])
            )

    summary = trace.summary
    summary_lines = [
        "price_mean,price_stdev,peak_demand_kw,energy_delivered_kwh,energy_unmet_kwh",
        ",".join(
            [
                _fmt(summary.price_mean),
                _fmt(summary.price_stdev),
                _fmt(summary.peak_demand),
                _fmt(summary.energy_delivered),
                _fmt(summary.energy_unmet),
            ]
        ),
    ]

    for name, lines in (
        ("slots.csv", slot_lines),
        ("evs.csv", ev_lines),
        ("summary.csv", summary_lines),
    ):
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

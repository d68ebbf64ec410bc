"""Scenario files, seeded fleet generation and trace serialization.

Scenario files are a small key/value tree, UTF-8 (one leading byte-order
mark is dropped), one entry per line::

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
(optional, the negotiation's :class:`~evmarket.model.SolverConfig`),
``fleet`` (optional, randomly generated sessions) and repeatable ``ev``
sections for explicit sessions.  ``seed`` is the only top-level key.
Every entry is one row of :data:`SCHEMA`, which parsing, writing and the
command line's ``--set`` all read.  Unknown sections or keys are errors, as
are missing required keys and values that fail their entry's check.  The
invariants are not parsing's concern: :func:`~evmarket.model.validate_scenario`
checks them when a run starts, after the command line's overrides.
Parsing reads tables built once from the schema: one lookup finds a line's
entry, and one finds a repeated section's header written without padding;
any other header text takes the header checks.  An ``int`` or finite
``float`` whose row has no check is converted inline, and a ``str`` row's
check runs inline on the stripped text.  Every other value, and every failed
conversion or check, goes through :func:`parse_value`, the one place that
words a conversion error.  A block needs no defaults filled in: an optional
entry's default is its type's own.  Each ``ev`` block becomes its
:class:`~evmarket.model.EVSession` the way pickle rebuilds one, by filling
the new instance's ``__dict__``: the frozen constructor's eight
``object.__setattr__`` calls cost about a third of a vehicle's parse, and it
checks nothing (:func:`~evmarket.model.validate_scenario` does).

Everything downstream is deterministic: one seeded generator, fixed iteration
order, fixed numeric formatting, so traces are byte-identical across runs.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .model import (
    MAX_FLEET,
    MAX_ITERATIONS,
    MAX_SLOTS,
    DSOSpec,
    EVSession,
    ScenarioValidationError,
    SolverConfig,
    StorageSpec,
    ValidationReport,
    at_most,
    csv_field,
    known_schedule,
    nonnegative,
    validate_scenario,  # noqa: F401 -- bench/run.py wraps it here by name
)

if TYPE_CHECKING:  # pragma: no cover
    from .mpc_loop import SimulationTrace

__all__ = [
    "SECTIONS",
    "SCHEMA",
    "Entry",
    "GridConfig",
    "FleetSpec",
    "Scenario",
    "ScenarioFormatError",
    "parse_value",
    "parse_scenario",
    "write_scenario",
    "generate_evs",
    "resolve_sessions",
    "write_trace",
    "format_number",
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


REQUIRED = object()


class Entry(NamedTuple):
    """One scenario entry: ``key`` in ``section`` ("" for the top level) sets
    attribute ``attr`` of the section's type to a ``kind`` value.

    ``default`` is :data:`REQUIRED` or ``None``, for the type's own default;
    no row restates a default.  ``check`` names what is wrong with a parsed
    value, else returns ``None``; numbers without one must be finite.
    """

    section: str
    key: str
    attr: str
    kind: type
    default: object = None
    check: Callable[[object], str | None] | None = None

    @property
    def name(self) -> str:
        return f"{self.section}.{self.key}" if self.section else self.key


def _finite(value: float) -> str | None:
    return None if math.isfinite(value) else "must be finite"


def _finite_or_inf(value: float) -> str | None:
    return None if math.isfinite(value) or value == math.inf else "must be finite or inf"


# Section name -> (Scenario attribute, type, presence).
SECTIONS = {
    "grid": ("grid", GridConfig, "required"),
    "dso": ("dso", DSOSpec, "required"),
    "storage": ("storage", StorageSpec, "optional"),
    "solver": ("solver", SolverConfig, "optional"),
    "fleet": ("fleet", FleetSpec, "optional"),
    "ev": ("evs", EVSession, "repeated"),
}

# Every entry, in the canonical order of write_scenario.
SCHEMA = (
    Entry("", "seed", "seed", int, None, nonnegative),
    Entry("grid", "slot_minutes", "slot_minutes", float, REQUIRED),
    Entry("grid", "num_slots", "num_slots", int, REQUIRED, at_most(MAX_SLOTS)),
    Entry("dso", "quadratic_cost", "cost_quadratic", float, REQUIRED),
    Entry("dso", "linear_cost", "cost_linear", float, REQUIRED),
    Entry("dso", "power_min", "power_min", float),
    Entry("dso", "power_max", "power_max", float, REQUIRED, _finite_or_inf),
    Entry("storage", "power_min", "power_min", float, REQUIRED),
    Entry("storage", "power_max", "power_max", float, REQUIRED),
    Entry("storage", "energy_initial", "energy_initial", float, REQUIRED),
    Entry("storage", "energy_reference", "energy_reference", float, REQUIRED),
    Entry("storage", "throughput", "throughput", float),
    Entry("storage", "tracking_weight", "tracking_weight", float),
    Entry("solver", "initial_price", "initial_price", float),
    Entry("solver", "step_size", "step_size", float),
    Entry("solver", "balance_tolerance", "balance_tolerance", float),
    Entry("solver", "max_iterations", "max_iterations", int, None, at_most(MAX_ITERATIONS)),
    Entry("solver", "step_schedule", "step_schedule", str, None, known_schedule),
    Entry("solver", "kkt_tolerance", "kkt_tolerance", float),
    Entry("solver", "energy_tolerance", "energy_tolerance", float),
    Entry("fleet", "count", "count", int, REQUIRED, at_most(MAX_FLEET)),
    Entry("fleet", "power_min", "power_min", float),
    Entry("fleet", "power_max", "power_max", float, REQUIRED),
    Entry("fleet", "weight", "weight", float, REQUIRED),
    Entry("fleet", "loss_fraction", "loss_fraction", float),
    Entry("ev", "id", "ev_id", str, REQUIRED, csv_field),
    Entry("ev", "arrival", "arrival", int, REQUIRED),
    Entry("ev", "departure", "departure", int, REQUIRED),
    Entry("ev", "power_min", "power_min", float),
    Entry("ev", "power_max", "power_max", float, REQUIRED),
    Entry("ev", "weight", "weight", float, REQUIRED),
    Entry("ev", "loss_fraction", "loss_fraction", float),
    Entry("ev", "energy", "energy_needed", float, REQUIRED),
)
_ROWS = {name: tuple(e for e in SCHEMA if e.section == name) for name in ("", *SECTIONS)}
# Section name ("" for the top level) -> key -> entry.
ENTRIES = {name: {e.key: e for e in rows} for name, rows in _ROWS.items()}
# Parsing's tables.  Section name -> key -> (entry, attribute, whether the
# entry is top-level, the kind of a number converted inline or None, the check
# of a string run inline or None); a section also holds the top-level keys.
_KEYS = {
    name: {e.key: (e, e.attr, not e.section,
                   e.kind if e.check is None and e.kind in (int, float) else None,
                   e.check if e.kind is str else None)
           for e in (*rows, *_ROWS[""])}
    for name, rows in _ROWS.items()
}
# Header text -> section name, for a repeated section's header written
# without padding.
_HEADERS = {f"{name}:": name for name, (_, _, p) in SECTIONS.items() if p == "repeated"}
# Section name -> the attributes of its required entries.
_FILLS = {name: frozenset(e.attr for e in rows if e.default is REQUIRED)
          for name, rows in _ROWS.items()}


def parse_value(entry: Entry, raw: str, line: int | None = None):
    """Convert the text of ``entry`` to its type and check it; without a
    ``line`` (a command-line override) the messages name the entry."""
    kind, check = entry.kind, entry.check
    try:
        value = kind(raw)
    except ValueError:
        where = "" if line is not None else f" for {entry.name}"
        raise ScenarioFormatError(f"cannot parse {raw!r} as {kind.__name__}{where}", line) from None
    if check is None:
        if kind is not float or math.isfinite(value):
            return value
        check = _finite
    problem = check(value)
    if problem is not None:
        raise ScenarioFormatError(f"{entry.name} {problem}, got {raw!r}", line)
    return value


def _parse_tree(text: str) -> dict[str, list[tuple[int | None, dict]]]:
    """Each section's blocks, "" holding the top level: the line of the
    block's header (None for the top level) and its parsed values by
    attribute; raises on any malformed line."""
    keys, section = _KEYS[""], ""
    top_block: dict = {}
    blocks: dict[str, list[tuple[int | None, dict]]] = {"": [(None, top_block)]}
    current: dict | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        key, eq, raw = line.partition("=")
        if eq:
            key = key.strip()
            row = keys.get(key)
            if row is not None:
                entry, attr, top, plain, check = row
                block = top_block if top else current
                if attr not in block:
                    if plain is not None:
                        try:
                            value = plain(raw)
                            if value - value == 0:  # finite
                                block[attr] = value
                                continue
                        except ValueError:
                            pass
                    elif check is not None:
                        value = raw.strip()
                        if check(value) is None:
                            block[attr] = value
                            continue
                    block[attr] = parse_value(entry, raw.strip(), lineno)
                    continue
                inside = "" if top else f" in section {section!r}"
                problem = f"duplicate key {key!r}{inside}"
            elif current is None:
                problem = f"key {key!r} outside any section (only 'seed' may be top level)"
            else:
                problem = f"unknown key {key!r} in section {section!r}"
        else:
            body = line.strip()
            name, problem = _HEADERS.get(body), None
            if name is None:
                if not body:
                    continue
                name = body[:-1].strip()
                if not body.endswith(":"):
                    problem = "expected 'key = value' or 'section:'"
                elif name not in SECTIONS:
                    problem = f"unknown section {name!r}"
                elif name in blocks and SECTIONS[name][2] != "repeated":
                    problem = f"duplicate section {name!r}"
            if problem is None:
                section, keys, current = name, _KEYS[name], {}
                blocks.setdefault(name, []).append((lineno, current))
                continue
        # Only a malformed line gets here; the column is that of its text.
        raise ScenarioFormatError(problem, lineno, len(line) - len(line.lstrip()) + 1)
    return blocks


def _arguments(section: str, line: int | None, block: dict) -> dict:
    """One parsed block, the keyword arguments of the section's type, once it
    holds every required key; a missing one is reported at ``line``, the
    block's header."""
    if not block.keys() >= _FILLS[section]:
        entry = next(e for e in _ROWS[section] if e.default is REQUIRED and e.attr not in block)
        raise ScenarioFormatError(f"missing required key: {entry.name}", line)
    return block


# The defaults of EVSession's optional fields, which an ``ev`` block may omit.
_EV_DEFAULTS = {f.name: f.default for f in fields(EVSession) if f.default is not MISSING}


def _session(args: dict) -> EVSession:
    """``EVSession(**args)`` built as pickle rebuilds it (see the module notes)."""
    ev = object.__new__(EVSession)
    ev.__dict__.update(_EV_DEFAULTS, **args)
    return ev


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse scenario text, raising :class:`ScenarioFormatError` on the first
    malformed line; the scenario is not validated (see the module notes)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"not valid UTF-8: {exc}") from None

    blocks = _parse_tree(text.removeprefix("\ufeff"))
    for name, (_, _, presence) in SECTIONS.items():
        if presence == "required" and name not in blocks:
            raise ScenarioFormatError(f"missing required key: {name}")
    kwargs = _arguments("", *blocks[""][0])
    for name, (attr, kind, presence) in SECTIONS.items():
        args = [_arguments(name, *block) for block in blocks.get(name, ())]
        if presence == "repeated":
            kwargs[attr] = tuple(map(_session, args))  # ev, the one repeated section
        elif args:
            kwargs[attr] = kind(**args[0])
    return Scenario(**kwargs)


def _entry_lines(section: str, owner, indent: str = "  ") -> list[str]:
    # A float's str is its repr, which parses back to the same float.
    return [f"{indent}{e.key} = {getattr(owner, e.attr)}" for e in _ROWS[section]]


def write_scenario(scenario: Scenario) -> str:
    """Canonical text form; ``parse_scenario`` of the output equals the input."""
    lines = _entry_lines("", scenario, indent="")
    for name, (attr, _, presence) in SECTIONS.items():
        value = getattr(scenario, attr)
        for owner in value if presence == "repeated" else () if value is None else (value,):
            lines.append(f"{name}:")
            lines += _entry_lines(name, owner)
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
    """Explicit sessions plus the generated fleet, in deterministic order.

    Raises :class:`ScenarioValidationError` when an explicit id is also one
    that the fleet generates.
    """
    if scenario.fleet is None:
        return scenario.evs
    generated = generate_evs(scenario.fleet.count, scenario.grid, scenario.fleet, scenario.seed)
    explicit = {ses.ev_id for ses in scenario.evs}
    clashes = [f"ev {ses.ev_id}: duplicate id (the fleet generates it too)"
               for ses in generated if ses.ev_id in explicit]
    if clashes:
        raise ScenarioValidationError(ValidationReport(tuple(clashes)))
    return scenario.evs + generated


# From this magnitude on a float's spacing passes 0.1, and numbers are
# written in exponent form: the trace's cells and the console's figures.
_EXPONENT_FROM = 1e15


def format_number(x: float, decimals: int = 6) -> str:
    """``x`` to ``decimals`` places, or in exponent form from a magnitude of
    ``_EXPONENT_FROM`` on, as the trace's cells (six places, at most 23
    characters) and the console's figures are written, so none runs to
    hundreds of digits; a value that rounds to zero is written without a
    sign, so round-off in a sign never moves a byte."""
    text = ("%.*f" if -_EXPONENT_FROM < x < _EXPONENT_FROM else "%.*e") % (decimals, x)
    return text if text[0] != "-" or text.strip("-0.") else text[1:]



# Each table's columns: the header and the function that prints a row's cell
# under it; a row is the tuple of that function's arguments.
_SLOT_COLUMNS = (
    ("slot", lambda rec, hours: str(rec.slot)),
    ("time_hours", lambda rec, hours: format_number(rec.slot * hours)),
    ("price_applied", lambda rec, hours: format_number(rec.price_applied)),
    ("demand_total_kw", lambda rec, hours: format_number(rec.demand_total)),
    ("p_l_kw", lambda rec, hours: format_number(rec.generation)),
    ("p_s_kw", lambda rec, hours: format_number(rec.storage_power)),
    ("storage_soc_kwh", lambda rec, hours: format_number(rec.storage_energy)),
    ("iterations", lambda rec, hours: str(rec.iterations)),
    ("residual_kw", lambda rec, hours: format_number(rec.residual)),
    ("converged", lambda rec, hours: "true" if rec.converged else "false"),
)
_EV_COLUMNS = (
    ("slot", lambda slot, ev_id, power, soc_error: str(slot)),
    ("ev_id", lambda slot, ev_id, power, soc_error: ev_id),
    ("power_kw", lambda slot, ev_id, power, soc_error: format_number(power)),
    ("soc_error_kwh", lambda slot, ev_id, power, soc_error: format_number(soc_error)),
)
_SUMMARY_COLUMNS = (
    ("price_mean", lambda s: format_number(s.price_mean)),
    ("price_stdev", lambda s: format_number(s.price_stdev)),
    ("peak_demand_kw", lambda s: format_number(s.peak_demand)),
    ("energy_delivered_kwh", lambda s: format_number(s.energy_delivered)),
    ("energy_unmet_kwh", lambda s: format_number(s.energy_unmet)),
)


def write_trace(trace: "SimulationTrace", out_dir: str | Path) -> None:
    """Write the three result tables (slots, per-vehicle, summary) as CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = trace.records
    for name, columns, rows in (
        ("slots.csv", _SLOT_COLUMNS, [(rec, trace.slot_hours) for rec in records]),
        ("evs.csv", _EV_COLUMNS, [
            (rec.slot, ev_id, *rec.per_ev[ev_id]) for rec in records for ev_id in sorted(rec.per_ev)
        ]),
        ("summary.csv", _SUMMARY_COLUMNS, [(trace.summary,)]),
    ):
        lines = [",".join([header for header, _ in columns])]
        lines += [",".join([cell(*row) for _, cell in columns]) for row in rows]
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

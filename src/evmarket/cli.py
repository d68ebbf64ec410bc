"""Batch command-line interface.

Commands:

* ``run``           simulate the scenario under negotiated prices
* ``uncontrolled``  simulate the maximum-power baseline
* ``verify``        compare one negotiation against the centralized solver
* ``validate``      print the scenario validation report

Exit codes: 0 success, 1 validation failure (a usage error included),
2 runtime non-convergence (a flagged slot, a ``verify`` gap above 1% or a
failed supplier solve), 3 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .dso_agent import ConvergenceError
from .model import EVSession, ScenarioValidationError, validate_scenario
from .mpc_loop import compute_window, config_of, initial_state, negotiate_window
from .mpc_loop import run as run_simulation
from .mpc_loop import simulate_uncontrolled
from .oracle import CentralProblem, solve_central, welfare
from .scenario_io import (
    ENTRIES,
    SECTIONS,
    Scenario,
    ScenarioFormatError,
    parse_scenario,
    parse_value,
    resolve_sessions,
    write_trace,
)

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmarket",
        description="Decentralized price-coordinated charging market simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario file path")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a scenario entry by dotted path, e.g. solver.step_size=0.002",
        )

    for name, text in (
        ("run", "simulate under negotiated prices"),
        ("uncontrolled", "simulate the maximum-power baseline"),
    ):
        p_sim = sub.add_parser(name, help=text)
        p_sim.set_defaults(handler=_cmd_simulate)
        common(p_sim)
        p_sim.add_argument("--out", default="out", help="output directory (default: out)")

    p_ver = sub.add_parser("verify", help="negotiation vs centralized solver on a small window")
    p_ver.set_defaults(handler=_cmd_verify)
    common(p_ver)
    p_ver.add_argument(
        "--oracle-cap", type=int, default=6, help="slot cap for the centralized solver"
    )

    p_val = sub.add_parser("validate", help="print the validation report")
    p_val.set_defaults(handler=_cmd_validate)
    p_val.add_argument("scenario", help="scenario file path")

    return parser


def _apply_override(scenario: Scenario, spec: str) -> Scenario:
    if "=" not in spec:
        raise ValueError(f"override {spec!r} is not KEY=VALUE")
    path, _, raw = spec.partition("=")
    path = path.strip()
    section, dot, key = path.partition(".")
    if not dot:
        section, key = "", path
        if key not in ENTRIES[""]:
            raise ValueError(f"override key {path!r} must be section.key or 'seed'")
    # Vehicles are repeatable sections and have no single entry to override.
    elif section not in SECTIONS or SECTIONS[section][2] == "repeated":
        raise ValueError(f"unknown override section {section!r}")
    elif key not in ENTRIES[section]:
        raise ValueError(f"unknown override key {path!r}")
    entry = ENTRIES[section][key]
    attr = SECTIONS[section][0] if section else None
    target = getattr(scenario, attr) if attr else scenario
    if target is None:
        raise ValueError(f"scenario has no {section!r} section to override")
    changed = replace(target, **{entry.attr: parse_value(entry, raw.strip())})
    return replace(scenario, **{attr: changed}) if attr else changed


def _load_scenario(args) -> Scenario:
    text = Path(args.scenario).read_bytes()
    scenario = parse_scenario(text)
    for spec in getattr(args, "overrides", []):
        scenario = _apply_override(scenario, spec)
    if getattr(args, "seed", None) is not None:
        scenario = _apply_override(scenario, f"seed={args.seed}")
    report = validate_scenario(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    return scenario


def _truncate_for_oracle(scenario: Scenario, slot_cap: int) -> tuple[EVSession, ...]:
    """Shift the earliest sessions the oracle takes to a common start inside the slot cap."""
    slots = min(slot_cap, scenario.grid.num_slots)
    earliest = sorted(resolve_sessions(scenario), key=lambda s: (s.arrival, s.ev_id))
    shifted = []
    for ses in earliest[: CentralProblem.max_evs]:
        stay = max(1, min(ses.departure - ses.arrival, slots))
        cap = ses.energy_rate(scenario.grid.slot_hours) * ses.power_max * stay
        energy = min(ses.energy_needed, cap)
        shifted.append(replace(ses, arrival=0, departure=stay, energy_needed=energy))
    return tuple(shifted)


def _cmd_verify(args) -> int:
    if args.oracle_cap < 1:
        raise ValueError(f"--oracle-cap must be at least 1, got {args.oracle_cap}")
    scenario = _load_scenario(args)
    sessions = _truncate_for_oracle(scenario, args.oracle_cap)
    config = config_of(scenario)
    storage, eps = config.storage, config.eps
    window = compute_window(sessions, 0, config.slot_hours)
    result = negotiate_window(replace(initial_state(scenario, ()), active=sessions), config)

    problem = CentralProblem(
        sessions=sessions,
        dso=scenario.dso,
        storage=storage,
        energy_now=storage.energy_initial,
        window=window,
        max_slots=window.length,
    )
    central = solve_central(problem, eps=eps)

    negotiated_welfare = welfare(
        [(s, prof.values) for s, prof in zip(sessions, result.ev_profiles)],
        result.demand.values,
        result.storage_power.values,
        scenario.dso,
        storage,
        storage.energy_initial,
        window,
    )
    gap = abs(negotiated_welfare - central.welfare) / max(abs(central.welfare), 1e-9)
    print(
        f"window {window.length} slots, {len(sessions)} vehicles, "
        f"{result.iterations} dual iterations, "
        f"max balance residual {result.residual_norm:.4f} kW"
    )
    print(
        f"negotiated welfare {negotiated_welfare:.6f}, "
        f"centralized welfare {central.welfare:.6f}, gap {100 * gap:.3f}%"
    )
    if result.supplier_error is not None:
        print(
            f"error: settled at iteration {result.iterations}: {result.supplier_error}",
            file=sys.stderr,
        )
    if not result.converged or gap > 0.01:
        return 2
    return 0


def _cmd_validate(args) -> int:
    # main reports unreadable files (exit 3) and malformed text (exit 1).
    scenario = parse_scenario(Path(args.scenario).read_bytes(), validate=False)
    report = validate_scenario(scenario)
    if report.ok:
        try:
            resolve_sessions(scenario)
        except ScenarioValidationError as exc:
            report = exc.report
    print(report)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and its error line, or the help.
        return 1 if exc.code else 0
    try:
        return args.handler(args)
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ScenarioValidationError as exc:
        print(f"error: invalid scenario\n{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    if args.command == "run":
        trace = run_simulation(scenario)
    else:
        trace = simulate_uncontrolled(scenario)
    write_trace(trace, args.out)
    for rec in trace.records:
        if rec.supplier_error is not None:
            print(
                f"error: slot {rec.slot} settled at iteration {rec.iterations}: "
                f"{rec.supplier_error}",
                file=sys.stderr,
            )
    s = trace.summary
    flagged = sum(1 for rec in trace.records if not rec.converged)
    max_iters = max((rec.iterations for rec in trace.records), default=0)
    print(
        f"{len(trace.records)} slots, peak demand {s.peak_demand:.2f} kW, "
        f"delivered {s.energy_delivered:.2f} kWh, unmet {s.energy_unmet:.4f} kWh"
    )
    print(
        f"price mean {s.price_mean:.3f} stdev {s.price_stdev:.3f} cent/kWh, "
        f"max dual iterations {max_iters}, non-converged slots {flagged}"
    )
    if flagged:
        return 2
    return 0


def entry() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()

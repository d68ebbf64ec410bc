"""Batch command-line interface.

Commands:

* ``run``           simulate the scenario under negotiated prices
* ``uncontrolled``  simulate the maximum-power baseline
* ``verify``        compare one negotiation against the centralized solver
* ``validate``      print the scenario validation report

Exit codes: 0 success, 1 validation failure, 2 runtime non-convergence
(a flagged slot, a ``verify`` gap above 1% or a failed supplier solve),
3 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .coordinator import ConvergenceConfig, negotiate_slot
from .dso_agent import ConvergenceError, DSOSubproblem
from .ev_agent import EVSubproblem
from .model import (
    EVSession,
    PriceVector,
    ScenarioValidationError,
    TimeGrid,
    Tolerances,
    validate_scenario,
)
from .mpc_loop import _NO_STORAGE
from .mpc_loop import run as run_simulation
from .mpc_loop import simulate_uncontrolled
from .oracle import CentralProblem, solve_central, welfare
from .scenario_io import (
    SECTION_KEYS,
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

    p_run = sub.add_parser("run", help="simulate under negotiated prices")
    common(p_run)
    p_run.add_argument("--out", default="out", help="output directory (default: out)")

    p_unc = sub.add_parser("uncontrolled", help="simulate the maximum-power baseline")
    common(p_unc)
    p_unc.add_argument("--out", default="out", help="output directory (default: out)")

    p_ver = sub.add_parser("verify", help="negotiation vs centralized solver on a small window")
    common(p_ver)
    p_ver.add_argument(
        "--oracle-cap", type=int, default=6, help="slot cap for the centralized solver"
    )

    p_val = sub.add_parser("validate", help="print the validation report")
    p_val.add_argument("scenario", help="scenario file path")

    return parser


# Scenario fields whose name differs from their key in the file.
_FIELD_NAMES = {"dso.quadratic_cost": "cost_quadratic", "dso.linear_cost": "cost_linear"}


def _apply_override(scenario: Scenario, spec: str) -> Scenario:
    if "=" not in spec:
        raise ValueError(f"override {spec!r} is not KEY=VALUE")
    path, _, raw = spec.partition("=")
    path = path.strip()
    raw = raw.strip()
    if path == "seed":
        return replace(scenario, seed=int(raw))
    if "." not in path:
        raise ValueError(f"override key {path!r} must be section.key or 'seed'")
    section, _, key = path.partition(".")
    # Vehicles are repeatable sections and have no single entry to override.
    if section not in SECTION_KEYS or section == "ev":
        raise ValueError(f"unknown override section {section!r}")
    keys = SECTION_KEYS[section]
    if key not in keys:
        raise ValueError(f"unknown override key {path!r}")
    target = getattr(scenario, section)
    if target is None:
        raise ValueError(f"scenario has no {section!r} section to override")
    value = parse_value(keys[key], raw, section, key)
    field_name = _FIELD_NAMES.get(path, key)
    return replace(scenario, **{section: replace(target, **{field_name: value})})


def _load_scenario(args) -> Scenario:
    text = Path(args.scenario).read_bytes()
    scenario = parse_scenario(text)
    for spec in getattr(args, "overrides", []):
        scenario = _apply_override(scenario, spec)
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    report = validate_scenario(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    return scenario


def _truncate_for_oracle(
    scenario: Scenario, slot_cap: int, ev_cap: int = 4
) -> tuple[list[EVSession], TimeGrid]:
    """Shift the earliest sessions to a common start inside the oracle cap."""
    slots = max(1, min(slot_cap, scenario.grid.num_slots))
    picked = sorted(resolve_sessions(scenario), key=lambda s: (s.arrival, s.ev_id))[:ev_cap]
    shifted = []
    for ses in picked:
        stay = max(1, min(ses.departure - ses.arrival, slots))
        rate = ses.energy_rate(scenario.grid.slot_hours)
        cap = rate * ses.power_max * stay
        shifted.append(
            replace(
                ses,
                arrival=0,
                departure=stay,
                energy_needed=min(ses.energy_needed, cap),
            )
        )
    length = max([s.departure for s in shifted], default=1)
    return shifted, TimeGrid(0, length, scenario.grid.slot_hours)


def _cmd_verify(args) -> int:
    scenario = _load_scenario(args)
    sessions, window = _truncate_for_oracle(scenario, args.oracle_cap)
    storage = scenario.storage if scenario.storage is not None else _NO_STORAGE
    sv = scenario.solver
    eps = Tolerances(kkt=sv.kkt_tolerance, energy=sv.energy_tolerance)
    config = ConvergenceConfig(
        step_size=sv.step_size,
        balance_tolerance=sv.balance_tolerance,
        max_iterations=sv.max_iterations,
        step_schedule=sv.step_schedule,
    )
    warm = sv.initial_price * scenario.grid.slot_hours

    ev_subs = [
        EVSubproblem(
            session=s,
            window=TimeGrid(0, s.departure, scenario.grid.slot_hours),
            prices=PriceVector.constant(warm, s.departure),
        )
        for s in sessions
    ]
    dso_sub = DSOSubproblem(
        dso=scenario.dso,
        storage=storage,
        energy_now=storage.energy_initial,
        window=window,
        prices=PriceVector.constant(warm, window.length),
    )
    result = negotiate_slot(ev_subs, dso_sub, warm, config, eps)

    problem = CentralProblem(
        sessions=tuple(sessions),
        dso=scenario.dso,
        storage=storage,
        energy_now=storage.energy_initial,
        window=window,
        max_slots=window.length,
        max_evs=max(4, len(sessions)),
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
    if not result.converged or gap > 0.01:
        return 2
    return 0


def _cmd_validate(args) -> int:
    try:
        text = Path(args.scenario).read_bytes()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        scenario = parse_scenario(text, validate=False)
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = validate_scenario(scenario)
    print(report)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command in ("run", "uncontrolled"):
            return _cmd_simulate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise AssertionError(f"unhandled command {args.command}")
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

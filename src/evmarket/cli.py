"""Batch command-line interface.

Commands:

* ``run``           simulate the scenario under negotiated prices
* ``uncontrolled``  simulate the maximum-power baseline
* ``verify``        certify every slot of the ``run`` day by weak duality
* ``validate``      print the scenario validation report

Exit codes: 0 success, 1 validation failure (a usage error included),
2 runtime non-convergence (a flagged slot, a failed supplier solve, or in
``verify`` a slot not certified, a gap below -1e-9 max(1, |W|) or a day gap
above 1% of max(1, |sum W|)), 3 I/O error.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .dso_agent import ConvergenceError
from .ev_agent import stationarity_residual
from .model import ScenarioValidationError, validate_scenario
from .mpc_loop import negotiate_window, negotiated, settle, uncontrolled
from .mpc_loop import run as run_simulation
from .scenario_io import (
    ENTRIES,
    SECTIONS,
    Scenario,
    format_number,
    parse_scenario,
    parse_value,
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

    for name, text, policy in (
        ("run", "simulate under negotiated prices", negotiated),
        ("uncontrolled", "simulate the maximum-power baseline", uncontrolled),
    ):
        p_sim = sub.add_parser(name, help=text)
        p_sim.set_defaults(handler=_cmd_simulate, policy=policy)
        common(p_sim)
        p_sim.add_argument("--out", default="out", help="output directory (default: out)")

    p_ver = sub.add_parser("verify", help="certify every slot of the negotiated day")
    p_ver.set_defaults(handler=_cmd_verify)
    common(p_ver)

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
    """The scenario file with the overrides applied; the simulation validates it."""
    scenario = parse_scenario(Path(args.scenario).read_bytes())
    for spec in getattr(args, "overrides", []):
        scenario = _apply_override(scenario, spec)
    if getattr(args, "seed", None) is not None:
        scenario = _apply_override(scenario, f"seed={args.seed}")
    return scenario


def _cmd_verify(args) -> int:
    """Run the day as ``run`` does, writing nothing, and certify each slot by
    weak duality: its dual value D bounds the welfare from above, and D minus
    the gap, the supplier's loss at generating the demand, is the welfare W of
    that point, a lower bound on the optimum if the demand is in the box."""
    scenario = _load_scenario(args)
    slots = []  # (slot, D, gap, demand overshoot in kW, EV and supplier residuals)

    def certified(state, scenario):
        result = negotiate_window(state, scenario)
        lo, hi = scenario.dso.power_min, scenario.dso.power_max
        over = max(max(d - hi, lo - d) for d in result.demand_values)
        ev = max(map(stationarity_residual, result.ev_solutions), default=0.0)
        kkt = result.dso_solution.kkt_residual
        slots.append((state.slot, result.dual_value, result.duality_gap, over, ev, kkt))
        return settle(result)

    trace = run_simulation(scenario, certified)
    flagged = _report_flagged(trace)
    failed = flagged > 0
    dual = welfare = gap = worst = 0.0
    worst_slot = "-"
    for slot, d, g, over, _, _ in slots:
        w = d - g
        if over > 0 or not math.isfinite(w):
            why = (
                f"demand leaves the generation box by {format_number(over, 4)} kW"
                if over > 0
                else f"D = {d}"
            )
            print(f"error: slot {slot} not certified: {why}", file=sys.stderr)
            failed = True
            continue
        share = g / max(1.0, abs(w))
        if share < -1e-9:
            print(f"error: slot {slot} has a negative gap {g:.3e}", file=sys.stderr)
            failed = True
        dual, welfare, gap = dual + d, welfare + w, gap + g
        if share > worst:
            worst, worst_slot = share, slot
    relative = gap / max(1.0, abs(welfare))
    recs = trace.records
    print(
        f"{len(recs)} slots, {sum(r.iterations for r in recs)} dual iterations, "
        f"max balance residual {format_number(max(r.residual for r in recs), 4)} kW, "
        f"flagged slots {flagged}"
    )
    print(
        f"dual value {format_number(dual)}, recovered welfare {format_number(welfare)}, "
        f"gap {gap:.3e} (relative {relative:.2e}), worst slot {worst_slot} at {worst:.2e}"
    )
    print(
        f"max EV stationarity residual {max(s[4] for s in slots):.2e}, "
        f"max supplier kkt residual {max(s[5] for s in slots):.2e}"
    )
    return 2 if failed or relative > 0.01 else 0


def _cmd_validate(args) -> int:
    # main reports unreadable files (exit 3) and malformed text (exit 1).
    report = validate_scenario(parse_scenario(Path(args.scenario).read_bytes()))
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
    trace = run_simulation(_load_scenario(args), args.policy)
    write_trace(trace, args.out)
    flagged = _report_flagged(trace)
    s = trace.summary
    max_iters = max((rec.iterations for rec in trace.records), default=0)
    print(
        f"{len(trace.records)} slots, peak demand {format_number(s.peak_demand, 2)} kW, "
        f"delivered {format_number(s.energy_delivered, 2)} kWh, "
        f"unmet {format_number(s.energy_unmet, 4)} kWh"
    )
    print(
        f"price mean {format_number(s.price_mean, 3)} "
        f"stdev {format_number(s.price_stdev, 3)} cent/kWh, "
        f"max dual iterations {max_iters}, non-converged slots {flagged}"
    )
    return 2 if flagged else 0


def _report_flagged(trace) -> int:
    """Name each slot a failure settled early on stderr; return the number
    of slots that did not converge."""
    for rec in trace.records:
        if rec.supplier_error is not None:
            print(
                f"error: slot {rec.slot} settled at iteration {rec.iterations}: "
                f"{rec.supplier_error}",
                file=sys.stderr,
            )
    return sum(1 for rec in trace.records if not rec.converged)


def entry() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()

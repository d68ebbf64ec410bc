"""Benchmark of the evmarket charging-market simulator.

Run from the root of a source checkout:

    python3 bench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` and drives the same public calls as
``evmarket run``: ``parse_scenario`` -> ``validate_scenario`` /
``resolve_sessions`` -> ``mpc_loop.run`` -> ``write_trace``, one simulated day
after another in this single process.  Every day's output is checked.

``--trace 0`` measures the end-to-end metrics with tracing off: whole days
until ``--seconds`` have passed (at least the workload's ``min_days``).  Its
times are in reference seconds, scaled by a speed probe run between slots
(see ``speed.py``); the unscaled wall-clock figures are printed as well.
``--trace 1`` simulates one day untraced and then one day with a span around
every public entry point of every layer, and reports the per-layer metrics;
it ignores ``--seconds``, and its times are unscaled wall clock.  The last
line of standard output is one JSON object: correct, slots attempted and
failed, and the metrics.

``--seed`` only changes fleet-200's vehicles; the table1 days are fixed.
Seeds 1-10 were used while the benchmark was tuned, so check a claimed gain
on a held-out seed as well (``baseline.json`` records fleet-200's trace for
seed 1009).
"""
from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported: the
# benchmark runs one sequential process and the default is one per core.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACE_FILES = ("slots.csv", "evs.csv", "summary.csv")
# A vehicle whose requirement fits its power box must end this close to it.
ENERGY_CHECK_KWH = 1e-3
# Storage power may leave its bounds by rounding only.
BOUND_SLACK = 1e-9

clock = time.perf_counter


# The program's modules, set by load_program().
coordinator = ev_agent = model = mpc_loop = scenario_io = None


def load_program() -> None:
    """Import ``evmarket`` from this checkout's ``src/``, never from elsewhere."""
    global coordinator, ev_agent, model, mpc_loop, scenario_io
    if not (SRC / "evmarket" / "__init__.py").is_file():
        raise SystemExit(f"error: no evmarket sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import evmarket
    from evmarket import coordinator, ev_agent, model, mpc_loop, scenario_io

    if Path(evmarket.__file__).resolve().parent != SRC / "evmarket":
        raise SystemExit(f"error: imported evmarket from {evmarket.__file__}, not {SRC}")


def host_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("evmarket/*.py")
    )


# -- the program's public calls ---------------------------------------------


def setup(text: bytes):
    """Scenario bytes to a validated scenario plus its resolved sessions."""
    scenario = scenario_io.parse_scenario(text)
    report = model.validate_scenario(scenario)
    if not report.ok:
        raise model.ScenarioValidationError(report)
    return scenario, scenario_io.resolve_sessions(scenario)


def simulate_day(scenario, out_dir: Path):
    trace = mpc_loop.run(scenario)
    scenario_io.write_trace(trace, out_dir)
    return trace


# -- output checks ------------------------------------------------------------


def check_day(scenario, sessions, trace) -> list[str]:
    """Every violated output invariant of one simulated day, as text."""
    problems = []
    tol = scenario.solver.balance_tolerance
    storage = scenario.storage
    lo, hi = (storage.power_min, storage.power_max) if storage is not None else (0.0, 0.0)
    if [rec.slot for rec in trace.records] != list(range(scenario.grid.num_slots)):
        problems.append("trace does not hold one record per slot")
    for rec in trace.records:
        if rec.converged and not rec.residual <= tol:
            problems.append(f"slot {rec.slot}: converged with residual {rec.residual}")
        if not rec.price_applied >= 0:
            problems.append(f"slot {rec.slot}: price {rec.price_applied}")
        if not lo - BOUND_SLACK <= rec.storage_power <= hi + BOUND_SLACK:
            problems.append(f"slot {rec.slot}: storage power {rec.storage_power}")
    slot_hours = scenario.grid.slot_hours
    for ses in sessions:
        stay = ses.departure - ses.arrival
        rate = ses.energy_rate(slot_hours)
        feasible = rate * ses.power_min * stay <= ses.energy_needed <= rate * ses.power_max * stay
        left = trace.final_energy[ses.ev_id]
        if feasible and not abs(left) <= ENERGY_CHECK_KWH:
            problems.append(f"vehicle {ses.ev_id}: {left:.6f} kWh left")
    return problems


def trace_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in TRACE_FILES:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def reference_digest(workload: str, seed: int) -> str | None:
    """SHA-256 of the trace the seed commit wrote for this input, if recorded."""
    ref = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))["trace_sha256"]
    entry = ref.get(workload)
    if isinstance(entry, dict):
        return entry.get(str(seed))
    return entry


class Outcome:
    """Slots attempted and failed, output problems and trace digests of a run."""

    def __init__(self, scenario, sessions, out_dir: Path):
        self.scenario, self.sessions, self.out_dir = scenario, sessions, out_dir
        self.attempted = 0
        self.failed = 0
        self.capped = 0
        # Dual iterations of the last simulated day, all and in capped slots.
        self.iterations = 0
        self.capped_iterations = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def run_day(self, simulate=simulate_day) -> float:
        """Simulate and check one day and return the seconds ``simulate`` took.

        An exception fails all the day's slots; the time is then the time
        until it was raised.
        """
        slots = self.scenario.grid.num_slots
        self.attempted += slots
        t0 = clock()
        try:
            trace = simulate(self.scenario, self.out_dir)
        except Exception as exc:  # noqa: BLE001 - a failed day is a result
            elapsed = clock() - t0
            self.failed += slots
            self.problems.append(f"day raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = clock() - t0
        flagged = [rec for rec in trace.records if not rec.converged]
        self.failed += len(flagged)
        self.capped += len(flagged)
        self.capped_iterations = sum(rec.iterations for rec in flagged)
        self.iterations = sum(rec.iterations for rec in trace.records)
        self.problems.extend(check_day(self.scenario, self.sessions, trace))
        self.digests.add(trace_digest(self.out_dir))
        return elapsed

    @property
    def correct(self) -> bool:
        # Every workload clears all its slots, so a capped or raised slot is
        # a wrong result as well.
        return (
            self.failed == 0
            and not self.problems
            and len(self.digests) == 1
        )

    def report(self, workload: str, seed: int) -> None:
        ref = reference_digest(workload, seed)
        digest = next(iter(self.digests), None)
        if ref is None:
            changed = "unknown (no reference for this input)"
        else:
            changed = str(digest != ref).lower()
        print(f"slots attempted {self.attempted}, failed {self.failed} "
              f"(capped at max_iterations {self.capped})")
        print(f"trace sha256 {digest} trace_changed {changed}")
        if len(self.digests) > 1:
            print("FAIL: repeated days wrote different traces")
        for problem in self.problems[:20]:
            print(f"FAIL: {problem}")
        print(f"checks: {'all passed' if self.correct else 'FAILED'}")


# -- untraced run: end-to-end metrics ---------------------------------------


def tail_quantile(workload) -> float:
    """Highest quantile with ten slot samples beyond it in every run."""
    return 1.0 - 10.0 / (workload.slots_per_day * workload.min_days)


def hd_quantile(samples, q: float, grid: int = 64) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics
    (Harrell & Davis, Biometrika 1982).  Slot costs cluster, so the single
    order statistic that a plain percentile picks can jump between clusters
    from run to run; the weighted mean moves smoothly.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    edges = np.linspace(0.0, 1.0, grid * n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    weight = np.exp(log_pdf - log_pdf.max()).reshape(n, grid).sum(axis=1)
    return float(weight @ x / weight.sum())


def measure(workload, text: bytes, seconds: float, out_dir: Path):
    """Simulate whole days and report end-to-end times in reference seconds.

    A speed probe runs before the first slot and after every slot, and the
    set-up is repeated after each probe, so that set-up samples spread over
    the whole run.  Both happen outside the slot spans and are subtracted from
    the day's time.  Each slot is scaled by the mean of the probes on either
    side of it, each set-up by the probe just before it, and the rest of the
    day (validation, summary, trace writing) by the day's mean probe.
    """
    scenario, sessions = setup(text)
    outcome = Outcome(scenario, sessions, out_dir)
    setup_ref: list[float] = []
    day_ref: list[float] = []
    day_wall: list[float] = []
    slot_ref: list[float] = []
    slot_wall: list[float] = []
    kernel_times: list[float] = []
    t_start = clock()
    while len(day_wall) < workload.min_days or clock() - t_start < seconds:
        probes = [speed.probe()]

        def between_slots(args, result):
            probes.append(speed.probe())
            t0 = clock()
            setup(text)
            setup_ref.append(speed.to_reference(clock() - t0, probes[-1]))

        with Recorder() as rec:
            rec.patch(mpc_loop, "step", "mpc_loop.step", after=between_slots)
            elapsed = outcome.run_day()
        wall = elapsed - sum(rec.wrap)
        slots = rec.durations("mpc_loop.step")
        k = np.array(probes)
        around = 0.5 * (k[: len(slots)] + np.append(k[1:], k[-1])[: len(slots)])
        scaled = speed.to_reference(slots, around)
        day_wall.append(wall)
        day_ref.append(float(scaled.sum()) + speed.to_reference(wall - slots.sum(), k.mean()))
        slot_ref.extend(scaled)
        slot_wall.extend(slots)
        kernel_times.extend(probes)

    # A day that raised before its first slot leaves only its time to failure.
    slot_ref = slot_ref or day_ref
    slot_wall = slot_wall or day_wall
    setup_ref = setup_ref or [0.0]
    q = tail_quantile(workload)
    print(f"days {len(day_wall)}, wall day times {' '.join(f'{t:.3f}' for t in day_wall)} s")
    print(f"speed probe: {len(kernel_times)} samples, median kernel "
          f"{1e3 * statistics.median(kernel_times):.4f} ms "
          f"(reference {1e3 * speed.REFERENCE_S} ms)")
    print(f"wall clock, unscaled: run_s {statistics.median(day_wall):.4f} s, "
          f"slot_p50_ms {1e3 * hd_quantile(slot_wall, 0.5):.3f}, "
          f"slot_tail_ms {1e3 * hd_quantile(slot_wall, q):.3f}")
    print(f"set-up samples {len(setup_ref)}, slot samples {len(slot_ref)}, "
          f"tail = p{100 * q:.2f} ({len(slot_ref) * (1 - q):.1f} samples beyond)")
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "run_s": (statistics.median(day_ref), "s"),
        "slot_p50_ms": (1e3 * hd_quantile(slot_ref, 0.5), "ms"),
        "slot_tail_ms": (1e3 * hd_quantile(slot_ref, q), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return outcome, metrics


# -- traced run: per-layer metrics --------------------------------------------


def instrument(rec: Recorder) -> None:
    """Wrap the public entry point of every layer the simulation passes through."""
    counts = rec.counts

    def negotiation(args):
        counts["mpc_loop.active_total"] += len(args[0])
        counts["mpc_loop.window_total"] += args[1].window.length

    def ev_batch(args):
        counts["ev_agent.vehicle_slots"] += int(args[0].lengths.sum())

    def ev_result(args, result):
        counts["ev_agent.infeasible"] += sum(1 for sol in result if not sol.feasible)

    def dso_window(args):
        counts["dso_agent.window_slots"] += args[0].window.length

    workspace = ev_agent.EVBatchWorkspace
    rec.patch(scenario_io, "parse_scenario", "scenario_io.parse_scenario")
    for owner in (model, scenario_io, mpc_loop):
        rec.patch(owner, "validate_scenario", "model.validate_scenario")
    for owner in (scenario_io, mpc_loop):
        rec.patch(owner, "resolve_sessions", "scenario_io.resolve_sessions")
    rec.patch(scenario_io, "write_trace", "scenario_io.write_trace")
    rec.patch(model.PriceVector, "__post_init__", "model.PriceVector")
    rec.patch(model.PowerProfile, "__post_init__", "model.PowerProfile")
    rec.patch(mpc_loop, "run", "mpc_loop.run")
    rec.patch(mpc_loop, "step", "mpc_loop.step", slot_of=lambda args: args[0].slot)
    rec.patch(mpc_loop, "negotiate_slot", "coordinator.negotiate_slot", before=negotiation)
    rec.patch(coordinator, "evaluate_dual", "coordinator.evaluate_dual")
    rec.patch(coordinator, "update_price", "coordinator.update_price")
    rec.patch(coordinator, "solve_dso", "dso_agent.solve_dso", before=dso_window)
    rec.patch(workspace, "__init__", "ev_agent.EVBatchWorkspace")
    rec.patch(workspace, "load_prices", "ev_agent.load_prices")
    rec.patch(workspace, "solve", "ev_agent.solve", before=ev_batch, after=ev_result)


LAYERS = ("mpc_loop", "coordinator", "ev_agent", "dso_agent", "model", "scenario_io", "bench")


def layer_metrics(rec: Recorder, outcome: Outcome, untraced_s: float) -> dict:
    a = rec.arrays()
    names = np.array(rec.names)[a["name"]]
    layer = np.array([n.split(".", 1)[0] for n in names])
    day = int(np.flatnonzero(names == "bench.day")[0])
    in_day = np.arange(len(names)) >= day
    in_setup = ~in_day
    traced_s = float(a["duration"][day])
    wrapper_s = float(a["wrap"][in_day].sum() - a["wrap"][day])

    def self_s(lay: str) -> float:
        return float(a["self"][in_day & (layer == lay)].sum())

    def busy_s(lay: str) -> float:
        # Time inside the layer's outermost spans, nested calls included.
        parent_layer = np.where(a["parent"] >= 0, layer[a["parent"]], "")
        top = in_day & (layer == lay) & (parent_layer != lay)
        return float(a["duration"][top].sum())

    def calls(name: str) -> int:
        return int(np.count_nonzero(names == name))

    def p50_us(name: str) -> float:
        durations = a["duration"][names == name]
        return 1e6 * float(np.median(durations)) if durations.size else 0.0

    def per(total: float, count: int) -> float:
        # A day that raised early may leave a layer uncalled.
        return total / count if count else 0.0

    def named_self_s(name: str, where: np.ndarray) -> float:
        return float(a["self"][where & (names == name)].sum())

    evaluations = calls("coordinator.evaluate_dual")
    negotiations = calls("coordinator.negotiate_slot")
    ev_busy, dso_busy = busy_s("ev_agent"), busy_s("dso_agent")
    negotiate = float(a["duration"][names == "coordinator.negotiate_slot"].sum())
    split = {
        "EV": per(ev_busy, negotiate),
        "DSO": per(dso_busy, negotiate),
        "coordinator": per(negotiate - ev_busy - dso_busy, negotiate),
    }
    selfs = {lay: self_s(lay) for lay in LAYERS}
    counts = rec.counts
    metrics = {
        "coordinator.dual_iterations": (outcome.iterations, "count"),
        "coordinator.dual_evaluations": (evaluations, "count"),
        "coordinator.self_s": (selfs["coordinator"], "s"),
        "coordinator.iteration_us": (1e6 * per(selfs["coordinator"], evaluations), "us"),
        "ev_agent.calls": (calls("ev_agent.solve"), "count"),
        "ev_agent.busy_s": (ev_busy, "s"),
        "ev_agent.self_s": (selfs["ev_agent"], "s"),
        "ev_agent.call_p50_us": (p50_us("ev_agent.solve"), "us"),
        "ev_agent.vehicle_slots": (counts["ev_agent.vehicle_slots"], "count"),
        "ev_agent.ns_per_vehicle_slot": (
            1e9 * per(ev_busy, counts["ev_agent.vehicle_slots"]), "ns"),
        "dso_agent.calls": (calls("dso_agent.solve_dso"), "count"),
        "dso_agent.busy_s": (dso_busy, "s"),
        "dso_agent.self_s": (selfs["dso_agent"], "s"),
        "dso_agent.call_p50_us": (p50_us("dso_agent.solve_dso"), "us"),
        "dso_agent.window_slots": (counts["dso_agent.window_slots"], "count"),
        "model.vectors_built": (calls("model.PriceVector") + calls("model.PowerProfile"), "count"),
        "model.validate_s": (named_self_s("model.validate_scenario", in_setup), "s"),
        "model.self_s": (selfs["model"], "s"),
        "mpc_loop.self_s": (selfs["mpc_loop"], "s"),
        "mpc_loop.window_mean": (per(counts["mpc_loop.window_total"], negotiations), "slots"),
        "mpc_loop.active_mean": (per(counts["mpc_loop.active_total"], negotiations), "count"),
        "scenario_io.parse_s": (named_self_s("scenario_io.parse_scenario", in_setup), "s"),
        "scenario_io.write_trace_s": (named_self_s("scenario_io.write_trace", in_day), "s"),
        "scenario_io.trace_bytes": (
            sum((outcome.out_dir / f).stat().st_size for f in TRACE_FILES), "B"),
        "trace.run_s": (traced_s, "s"),
        "trace.wrapper_s": (wrapper_s, "s"),
    }
    print(f"traced run_s {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
          f"tracing overhead {traced_s - untraced_s:+.4f} s "
          f"({100 * per(traced_s - untraced_s, untraced_s):+.1f}% of untraced)")
    print("self time per layer, share of traced run_s:")
    for lay in LAYERS[:-1]:
        print(f"  {lay:<12} {selfs[lay]:10.4f} s {100 * selfs[lay] / traced_s:6.2f}%")
    print(f"  {'bench glue':<12} {selfs['bench']:10.4f} s {100 * selfs['bench'] / traced_s:6.2f}%")
    print(f"  {'wrappers':<12} {wrapper_s:10.4f} s {100 * wrapper_s / traced_s:6.2f}%")
    accounted = sum(selfs.values()) + wrapper_s
    print(f"  {'sum':<12} {accounted:10.4f} s (traced run_s {traced_s:.4f} s)")
    print(f"split of negotiate_slot time ({negotiate:.4f} s): "
          + ", ".join(f"{part} {100 * share:.1f}%" for part, share in split.items()))
    print(f"capped slots {outcome.capped} over both days, iterations in capped slots "
          f"{outcome.capped_iterations} of {outcome.iterations} on the traced day, "
          f"infeasible EV solutions {counts['ev_agent.infeasible']}, "
          f"DSO ConvergenceError {counts['dso_agent.solve_dso:ConvergenceError']}")
    return metrics


def traced_run(text: bytes, out_dir: Path):
    scenario, sessions = setup(text)
    outcome = Outcome(scenario, sessions, out_dir)
    untraced_s = outcome.run_day()

    with Recorder() as rec:
        instrument(rec)
        rec.wrap_call("bench.setup", setup)(text)
        outcome.run_day(rec.wrap_call("bench.day", simulate_day))
    rec.write(out_dir / "spans.csv")
    print(f"{len(rec.start)} spans written to {out_dir / 'spans.csv'}")
    return outcome, layer_metrics(rec, outcome, untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    load_program()

    workload = WORKLOADS[args.workload]
    text = workload.build(args.seed).encode("utf-8")
    out_dir = OUT / f"{workload.name}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"host {json.dumps(host_facts())}, src/ lines {src_lines()}")

    if args.trace:
        outcome, metrics = traced_run(text, out_dir)
    else:
        outcome, metrics = measure(workload, text, args.seconds, out_dir)
    outcome.report(workload.name, args.seed)
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6f} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value if isinstance(value, int) else float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    if any(isinstance(v, float) and not math.isfinite(v) for v, _ in metrics.values()):
        raise SystemExit("error: a metric is not finite")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

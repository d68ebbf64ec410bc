"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""
import time

import numpy as np
import pytest

from evmarket import (
    DSOSubproblem,
    SolverConfig,
    TimeGrid,
    evaluate_dual,
    negotiate_slot,
    run,
    solve_dso,
    solve_ev,
    uncontrolled,
    write_trace,
)
from evmarket.ev_agent import stationarity_residual

from conftest import (
    SLOT_HOURS,
    TABLE1_DSO,
    TABLE1_STORAGE,
    make_session,
    random_vehicle,
)
from oracle import CentralProblem, solve_central, welfare
from test_dso_agent import make_sub as make_dso_sub


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def table1_run(table1_scenario):
    start = time.perf_counter()
    trace = run(table1_scenario)
    return trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def table1_uncontrolled(table1_scenario):
    return run(table1_scenario, uncontrolled)


def _random_instance(rng: np.random.Generator):
    # moderate energies keep the welfare scale healthy, so a relative gap
    # comparison stays meaningful
    n_ev = int(rng.integers(1, 4))
    n_slots = int(rng.integers(1, 5))
    sessions = []
    for i in range(n_ev):
        departure = int(rng.integers(1, n_slots + 1))
        cap = SLOT_HOURS * 22.0 * departure
        energy = round(float(rng.uniform(0.15, 0.5)) * cap, 3)
        sessions.append(
            make_session(
                ev_id=f"ev{i}", arrival=0, departure=departure, energy=energy
            )
        )
    window = TimeGrid(0, max(s.departure for s in sessions), SLOT_HOURS)
    return tuple(sessions), window


def _negotiate_instance(sessions, window):
    warm = 16.0 * SLOT_HOURS
    dso_sub = DSOSubproblem(
        dso=TABLE1_DSO,
        storage=TABLE1_STORAGE,
        energy_now=TABLE1_STORAGE.energy_initial,
        window=window,
    )
    return negotiate_slot(sessions, dso_sub, [warm] * window.length)


def test_a1_oracle_equivalence():
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_residual = 0.0
    bracketed, gap_error = True, 0.0
    for _ in range(25):
        sessions, window = _random_instance(rng)
        result = _negotiate_instance(sessions, window)
        assert result.converged
        central = solve_central(
            CentralProblem(
                sessions=sessions,
                dso=TABLE1_DSO,
                storage=TABLE1_STORAGE,
                energy_now=TABLE1_STORAGE.energy_initial,
                window=window,
            )
        )
        # evaluate the recovered feasible point: balance is enforced by
        # substituting generation with total demand, exactly as the
        # centralized solver does
        negotiated = welfare(
            [(s, sol.power) for s, sol in zip(sessions, result.ev_solutions)],
            result.demand_values,
            result.dso_solution.storage_values,
            TABLE1_DSO,
            TABLE1_STORAGE,
            TABLE1_STORAGE.energy_initial,
            window,
        )
        gap = abs(negotiated - central.welfare) / abs(central.welfare)
        worst_gap = max(worst_gap, gap)
        worst_residual = max(worst_residual, float(np.abs(result.residual_values).max()))
        # Weak duality brackets the optimum: D >= W* >= W, and the gap the
        # supplier reports is D - W.
        dual = result.dual_value
        bracketed = bracketed and dual >= central.welfare >= negotiated
        gap_error = max(gap_error, abs(dual - negotiated - result.duality_gap) / abs(negotiated))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 0.01 and worst_residual <= 0.1 and bracketed and gap_error <= 1e-12
    report(
        "A1 oracle equivalence",
        ok,
        f"25 instances, max welfare gap {100 * worst_gap:.3f}%, "
        f"max residual {worst_residual:.3f} kW, D >= W* >= W {bracketed}, "
        f"reported gap off by {gap_error:.1e}, {elapsed:.1f} s",
    )


def test_a2_driver_satisfaction(table1_run):
    trace, elapsed = table1_run
    worst = max(trace.final_energy.values())
    ok = len(trace.final_energy) == 20 and worst <= 1e-3
    report(
        "A2 driver satisfaction",
        ok,
        f"20 vehicles, worst final requirement {worst:.2e} kWh, run took {elapsed:.1f} s",
    )


def test_a3_dual_convergence(table1_run):
    trace, _ = table1_run
    max_iters = max(rec.iterations for rec in trace.records)
    worst_residual = max(rec.residual for rec in trace.records)
    ok = trace.converged and max_iters <= 2000 and worst_residual <= 0.1
    report(
        "A3 dual convergence",
        ok,
        f"all {len(trace.records)} slots converged, max iterations {max_iters}, "
        f"worst residual {worst_residual:.3f} kW",
    )


def test_a4_storage_price_smoothing(table1_run, table1_run_no_storage):
    trace, _ = table1_run
    baseline = table1_run_no_storage
    ratio = trace.summary.price_stdev / baseline.summary.price_stdev
    ok = ratio <= 0.5
    report(
        "A4 storage price smoothing",
        ok,
        f"price stdev {trace.summary.price_stdev:.2f} vs "
        f"{baseline.summary.price_stdev:.2f} cent/kWh, ratio {ratio:.3f}",
    )


def test_a5_peak_shaving(table1_run, table1_uncontrolled):
    trace, _ = table1_run
    peak_c = trace.summary.peak_demand
    peak_u = table1_uncontrolled.summary.peak_demand
    overlap = max(len(rec.per_ev) for rec in table1_uncontrolled.records)
    ok = peak_c <= peak_u and (overlap < 2 or peak_c < peak_u)
    report(
        "A5 peak shaving",
        ok,
        f"controlled peak {peak_c:.1f} kW vs uncontrolled {peak_u:.1f} kW, "
        f"max simultaneous vehicles {overlap}",
    )


def test_a6_subgradient_identity():
    solver = SolverConfig(kkt_tolerance=1e-9, energy_tolerance=1e-9)
    evs = [
        make_session(departure=2, energy=5.0),
        make_session(departure=2, energy=2.5),
    ]
    dso_sub = make_dso_sub(2)
    rng = np.random.default_rng(66)
    h = 1e-4
    worst = 0.0
    for _ in range(20):
        lam = rng.uniform(0.3, 5.0, size=2)
        slot = int(rng.integers(0, 2))
        base = evaluate_dual(lam.tolist(), evs, dso_sub, solver=solver)
        bumped = lam.copy()
        bumped[slot] += h
        up = evaluate_dual(bumped.tolist(), evs, dso_sub, solver=solver)
        fd = (up.dual_value - base.dual_value) / h
        target = base.residual_values[slot]
        rel = abs(fd - target) / max(abs(target), 0.1)
        worst = max(worst, rel)
    ok = worst <= 0.01
    report(
        "A6 subgradient identity",
        ok,
        f"20 price points, worst finite-difference mismatch {100 * worst:.3f}%",
    )


def test_a7_kkt_suites():
    rng = np.random.default_rng(99)
    solver = SolverConfig()
    worst_ev = 0.0
    for _ in range(100):
        ses, window, prices = random_vehicle(rng)
        sol = solve_ev(ses, window, prices, energy_tolerance=solver.energy_tolerance)
        worst_ev = max(worst_ev, stationarity_residual(sol))

    from evmarket import DSOSpec, StorageSpec

    worst_dso = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        dso = DSOSpec(
            cost_quadratic=float(rng.uniform(0.01, 0.3)),
            cost_linear=float(rng.uniform(0.0, 2.0)),
            power_min=0.0,
            power_max=float(rng.uniform(30.0, 150.0)),
        )
        bound = float(rng.uniform(10.0, 120.0))
        storage = StorageSpec(
            power_min=-bound,
            power_max=bound,
            energy_initial=100.0,
            energy_reference=float(rng.uniform(80.0, 120.0)),
            throughput=float(rng.uniform(0.1, 1.0)),
            tracking_weight=float(rng.uniform(0.1, 2.0)),
        )
        sub = DSOSubproblem(
            dso=dso,
            storage=storage,
            energy_now=float(rng.uniform(80.0, 120.0)),
            window=TimeGrid(0, n, SLOT_HOURS),
        )
        prices = rng.uniform(0.0, 8.0, size=n)
        worst_dso = max(worst_dso, solve_dso(sub, prices, solver.kkt_tolerance).kkt_residual)

    ok = worst_ev <= 1e-4 and worst_dso <= 1e-4
    report(
        "A7 KKT suites",
        ok,
        f"100+100 random inputs, worst vehicle residual {worst_ev:.2e}, "
        f"worst supplier residual {worst_dso:.2e}",
    )


def test_a8_determinism(table1_scenario, tmp_path):
    first = run(table1_scenario)
    second = run(table1_scenario)
    write_trace(first, tmp_path / "a")
    write_trace(second, tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("slots.csv", "evs.csv", "summary.csv")
    )
    report("A8 determinism", same, "two runs produced byte-identical trace files")

"""Centralized ground-truth solver of the welfare problem on small instances.

The oracle maximizes total vehicle utility minus generation cost minus the
storage tracking penalty, with the per-slot balance handled by substituting
generation with total demand.  Each vehicle's delivered-energy equality is
enforced inside the projection step by an exact per-vehicle shift.  It is
deliberately capped to a few slots and vehicles: it is the reference the
tests hold the negotiated market against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from evmarket.dso_agent import generation_cost, storage_tracking_penalty
from evmarket.model import DSOSpec, EVSession, PowerProfile, SolverConfig, StorageSpec, TimeGrid

__all__ = ["CentralProblem", "CentralSolution", "solve_central", "welfare"]

# Accelerated gradient iterations before the oracle gives up on the residual.
_MAX_ITER = 200_000


@dataclass(frozen=True)
class CentralProblem:
    """Joint welfare problem over one window with all vehicles present.

    Every session must be active at ``window.start``; a vehicle charges on the
    slots from the window start up to its departure (clipped to the window).
    """

    sessions: tuple[EVSession, ...]
    dso: DSOSpec
    storage: StorageSpec
    energy_now: float
    window: TimeGrid
    max_slots: int = 6
    max_evs: int = 4

    def __post_init__(self) -> None:
        if self.window.length > self.max_slots:
            raise ValueError(f"oracle capped at {self.max_slots} slots")
        if len(self.sessions) > self.max_evs:
            raise ValueError(f"oracle capped at {self.max_evs} vehicles")
        for ses in self.sessions:
            if ses.arrival > self.window.start:
                raise ValueError(f"ev {ses.ev_id} is not active at the window start")
            if ses.departure <= self.window.start:
                raise ValueError(f"ev {ses.ev_id} departs before the window starts")

    def slots_of(self, ses: EVSession) -> int:
        return min(ses.departure - self.window.start, self.window.length)


@dataclass(frozen=True, eq=False)
class CentralSolution:
    ev_profiles: tuple[PowerProfile, ...]
    generation: PowerProfile
    storage_power: PowerProfile
    welfare: float
    kkt_residual: float
    ev_feasible: tuple[bool, ...]


def welfare(
    ev_points: Sequence[tuple[EVSession, np.ndarray]],
    generation: np.ndarray,
    storage_power: np.ndarray,
    dso: DSOSpec,
    storage: StorageSpec,
    energy_now: float,
    window: TimeGrid,
) -> float:
    """Global objective at an arbitrary point: utilities minus costs."""
    total = 0.0
    for ses, profile in ev_points:
        profile = np.asarray(profile, dtype=float)
        total += float(np.sum(ses.weight * np.log(1.0 + profile)))
    net = np.asarray(generation, dtype=float) - np.asarray(storage_power, dtype=float)
    total -= float(np.sum(generation_cost(net, dso.cost_quadratic, dso.cost_linear)))
    total -= storage.tracking_weight * storage_tracking_penalty(
        energy_now, np.asarray(storage_power, dtype=float), storage, window
    )
    return total


def _project_rows_to_energy(
    point: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    targets: np.ndarray,
    eq_rows: np.ndarray,
) -> np.ndarray:
    """Project each row onto its box, with a fixed row sum where required.

    Rows with an equality get ``clip(v + shift)``.  The row sum is piecewise
    linear and nondecreasing in the shift, with a breakpoint wherever an
    entry meets a bound, so the shift that hits the target is interpolated
    exactly between the two breakpoints around it (the nearer end when the
    target is out of the box's reach).  Plain rows are clipped only.
    """
    out = np.clip(point, lo, hi)
    if not eq_rows.any():
        return out
    knots = np.sort(np.concatenate([lo - point, hi - point], axis=1), axis=1)
    sums = np.clip(point[:, None, :] + knots[:, :, None], lo[:, None, :], hi[:, None, :]).sum(axis=2)
    rows = np.arange(len(point))
    # The breakpoints at or below the target bracket it from the left.
    upper = np.clip((sums < targets[:, None]).sum(axis=1), 1, knots.shape[1] - 1)
    s0, s1 = knots[rows, upper - 1], knots[rows, upper]
    f0, f1 = sums[rows, upper - 1], sums[rows, upper]
    rise = f1 - f0
    frac = np.clip((targets - f0) / np.where(rise > 0, rise, 1.0), 0.0, 1.0)
    shifted = np.clip(point + (s0 + frac * (s1 - s0))[:, None], lo, hi)
    return np.where(eq_rows[:, None], shifted, out)


def solve_central(
    problem: CentralProblem,
    solver: SolverConfig = SolverConfig(),
) -> CentralSolution:
    """Maximize welfare subject to boxes, balance and per-vehicle energy.

    Accelerated projected gradient on the reduced problem (generation
    eliminated through the balance), with the energy equalities handled inside
    the projection.  Vehicles whose requirement exceeds their window capacity
    are pinned at full power and reported infeasible, mirroring the market
    agents' best-effort policy.  ``solver``'s tolerances are read as the
    agents read them: the energy one at the box faces, the kkt one as the
    stopping residual.
    """
    window = problem.window
    n = window.length
    sessions = problem.sessions
    count = len(sessions)
    st = problem.storage
    rho = st.tracking_weight
    dtc = st.throughput * window.slot_hours
    quad, lin = problem.dso.cost_quadratic, problem.dso.cost_linear
    drift = problem.energy_now - st.energy_reference

    lengths = np.array([problem.slots_of(s) for s in sessions], dtype=int)
    col = np.arange(n)[None, :]
    mask = col < lengths[:, None] if count else np.zeros((0, n), dtype=bool)
    lo = np.where(mask, np.array([s.power_min for s in sessions])[:, None], 0.0) if count else np.zeros((0, n))
    hi = np.where(mask, np.array([s.power_max for s in sessions])[:, None], 0.0) if count else np.zeros((0, n))
    weight = np.array([s.weight for s in sessions])[:, None] if count else np.zeros((0, 1))
    rate = np.array([s.energy_rate(window.slot_hours) for s in sessions]) if count else np.zeros(0)

    targets = np.zeros(count)
    eq_rows = np.zeros(count, dtype=bool)
    feasible = [True] * count
    for i, ses in enumerate(sessions):
        cap = rate[i] * float(hi[i].sum()) if count else 0.0
        floor = rate[i] * float(lo[i].sum())
        if ses.energy_needed > cap + solver.energy_tolerance:
            lo[i] = hi[i]
            feasible[i] = False
        elif ses.energy_needed < floor - solver.energy_tolerance:
            hi[i] = lo[i]
            feasible[i] = False
        else:
            targets[i] = ses.energy_needed / rate[i]
            eq_rows[i] = True

    ps_lo = np.full(n, st.power_min)
    ps_hi = np.full(n, st.power_max)

    def grad(p: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        net = p.sum(axis=0) - ps
        marginal = 2.0 * quad * net + lin
        g_p = (weight / (1.0 + p) - marginal[None, :]) * mask if count else np.zeros((0, n))
        dev = drift - dtc * np.cumsum(ps)
        g_ps = marginal + 2.0 * rho * dtc * np.cumsum(dev[::-1])[::-1]
        return g_p, g_ps

    def value(p: np.ndarray, ps: np.ndarray) -> float:
        pts = [(ses, p[i, : lengths[i]]) for i, ses in enumerate(sessions)]
        return welfare(pts, p.sum(axis=0), ps, problem.dso, st, problem.energy_now, window)

    def project(p: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p_new = (
            _project_rows_to_energy(p, lo, hi, targets, eq_rows) if count else p
        )
        return p_new, np.clip(ps, ps_lo, ps_hi)

    # Gradient Lipschitz bound: utility curvature plus the largest eigenvalue
    # of the quadratic part (built densely; instances are tiny by the cap).
    dim = count * n + n
    hess = np.zeros((dim, dim))
    for t in range(n):
        u = np.zeros(dim)
        for i in range(count):
            if t < lengths[i]:
                u[i * n + t] = 1.0
        u[count * n + t] = -1.0
        hess += 2.0 * quad * np.outer(u, u)
    idx = np.arange(n)
    overlap = n - np.maximum(idx[:, None], idx[None, :])
    hess[count * n :, count * n :] += 2.0 * rho * dtc * dtc * overlap
    lipschitz = float(np.linalg.eigvalsh(hess)[-1]) if dim else 1.0
    if count:
        lipschitz += float((weight[:, 0] / (1.0 + lo.min(axis=1)) ** 2).max())
    inv_l = 1.0 / max(lipschitz, 1e-12)

    p, ps = project(np.zeros((count, n)), np.zeros(n))
    yp, yps = p.copy(), ps.copy()
    momentum = 1.0
    residual = math.inf
    for _ in range(_MAX_ITER):
        g_p, g_ps = grad(yp, yps)
        p_new, ps_new = project(yp + inv_l * g_p, yps + inv_l * g_ps)
        g2_p, g2_ps = grad(p_new, ps_new)
        r_p, r_ps = project(p_new + g2_p, ps_new + g2_ps)
        residual = max(
            float(np.abs(r_p - p_new).max()) if count else 0.0,
            float(np.abs(r_ps - ps_new).max()),
        )
        if residual <= solver.kkt_tolerance:
            p, ps = p_new, ps_new
            break
        ascent = float((g_p * (p_new - p)).sum() + g_ps @ (ps_new - ps))
        if ascent < 0.0:
            momentum = 1.0
            yp, yps = p_new.copy(), ps_new.copy()
        else:
            momentum_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
            beta = (momentum - 1.0) / momentum_new
            yp = p_new + beta * (p_new - p)
            yps = ps_new + beta * (ps_new - ps)
            momentum = momentum_new
        p, ps = p_new, ps_new

    demand = p.sum(axis=0) if count else np.zeros(n)
    if np.any(demand > problem.dso.power_max + 1e-6) or np.any(
        demand < problem.dso.power_min - 1e-6
    ):
        raise ValueError(
            "aggregate demand leaves the generation box; the reduced oracle "
            "does not support instances with an active generation bound"
        )

    return CentralSolution(
        ev_profiles=tuple(PowerProfile(p[i, : lengths[i]]) for i in range(count)),
        generation=PowerProfile(demand),
        storage_power=PowerProfile(ps),
        welfare=value(p, ps),
        kkt_residual=residual,
        ev_feasible=tuple(feasible),
    )

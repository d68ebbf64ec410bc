"""Supplier subproblem: joint generation and storage dispatch at given prices.

The supplier maximizes ``sum_t [price(t) * P_l(t) - C(P_l(t) - P_s(t))]`` minus
a quadratic penalty for letting the stored energy drift away from its
reference, over box bounds on both generation ``P_l`` and storage power
``P_s``.  The objective is a strictly concave quadratic.

When the storage box is pinned (``power_min == power_max``; validation forces
both to 0, as for a scenario without storage) the problem separates per slot
and is solved in closed form: ``P_s`` sits at the pinned value and
``P_l = clip(P_s + (price - linear_cost) / (2 * quadratic_cost))`` on the
generation box.  Otherwise it is solved by projected Newton: each iteration
guesses the active bounds from the gradient, solves the Newton system on the
free variables (cached per free set) and searches along the projection arc,
else takes a projected-gradient step of length ``1/L``.  Either way the point
is certified by its projected-stationarity residual, and the objective value
is computed only when it is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import DSOSpec, PowerProfile, PriceVector, StorageSpec, TimeGrid, Tolerances

__all__ = [
    "DSOSubproblem",
    "DSOSolution",
    "ConvergenceError",
    "generation_cost",
    "storage_tracking_penalty",
    "solve_dso",
]


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested stationarity residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DSOSubproblem:
    """Supplier data for one negotiation window; ``energy_now`` is the stored energy."""

    dso: DSOSpec
    storage: StorageSpec
    energy_now: float
    window: TimeGrid
    prices: PriceVector

    def __post_init__(self) -> None:
        if len(self.prices) != self.window.length:
            raise ValueError("price vector length must equal the window length")


@dataclass(frozen=True, eq=False)
class DSOSolution:
    """Optimal dispatch; ``point`` stacks the generation and the storage power.

    ``objective`` is evaluated on first access, at ``prices`` (the broadcast
    the point was solved for).
    """

    point: np.ndarray
    kkt_residual: float
    sub: DSOSubproblem
    prices: np.ndarray

    @cached_property
    def objective(self) -> float:
        n = self.point.size // 2
        return _objective(self.sub, self.prices, self.point[:n], self.point[n:])

    @cached_property
    def generation(self) -> PowerProfile:
        return PowerProfile(self.point[: self.point.size // 2])

    @cached_property
    def storage_power(self) -> PowerProfile:
        return PowerProfile(self.point[self.point.size // 2 :])


def generation_cost(net_power, quad_coeff: float, lin_coeff: float):
    """Cost of producing ``net_power`` for one slot: ``quad*q**2 + lin*q``."""
    return quad_coeff * net_power * net_power + lin_coeff * net_power


def storage_tracking_penalty(
    energy_now: float, storage_power, storage: StorageSpec, grid: TimeGrid
) -> float:
    """Sum over the window of squared deviation of stored energy from reference.

    The stored energy after slot ``j`` is ``energy_now`` minus the cumulative
    discharged energy ``throughput * slot_hours * sum_{i<=j} P_s(i)``.
    """
    values = storage_power.values if isinstance(storage_power, PowerProfile) else np.asarray(
        storage_power, dtype=float
    )
    if values.size != grid.length:
        raise ValueError("profile length must equal the window length")
    moved = storage.throughput * grid.slot_hours * np.cumsum(values)
    dev = energy_now - moved - storage.energy_reference
    return float(np.dot(dev, dev))


# Halvings of the Newton step tried along the projection arc before falling
# back to a projected-gradient step.
_ARC_STEPS = 8

# Quadratic forms, boxes and free-set Newton systems are reused across
# negotiation iterations, keyed by the window length and cost parameters
# (prices and stored energy only shift the linear term), the bounds, or the
# free set.  The caches are bounded so a long-running process stays small.

@lru_cache(maxsize=64)
def _quadratic_form(n: int, quad: float, rho: float, dtc: float) -> tuple[np.ndarray, float]:
    eye = np.eye(n)
    top = np.hstack([eye, -eye])
    bot = np.hstack([-eye, eye])
    q_mat = 2.0 * quad * np.vstack([top, bot])
    idx = np.arange(n)
    overlap = n - np.maximum(idx[:, None], idx[None, :])
    q_mat[n:, n:] += 2.0 * rho * dtc * dtc * overlap
    lipschitz = float(np.linalg.eigvalsh(q_mat)[-1])
    q_mat.setflags(write=False)
    return q_mat, lipschitz


@lru_cache(maxsize=64)
def _box(n: int, *bounds: float) -> np.ndarray:
    """Rows of lower and upper bounds on the stacked point (read-only)."""
    box = np.repeat(np.reshape(bounds, (2, 2)), n, axis=1)
    box.setflags(write=False)
    return box


@lru_cache(maxsize=512)
def _newton_system(n: int, quad: float, rho: float, dtc: float, free_key: bytes):
    """``(free, fixed, Q_free_fixed, inverse of Q_free_free)``, or None if singular."""
    q_mat, _ = _quadratic_form(n, quad, rho, dtc)
    mask = np.frombuffer(free_key, dtype=bool)
    free, fixed = np.flatnonzero(mask), np.flatnonzero(~mask)
    try:
        inverse = np.linalg.inv(q_mat[np.ix_(free, free)])
    except np.linalg.LinAlgError:
        return None
    return free, fixed, q_mat[np.ix_(free, fixed)], inverse


def solve_dso(
    sub: DSOSubproblem,
    eps: Tolerances = Tolerances(),
    max_iter: int = 100_000,
    start: tuple[np.ndarray, np.ndarray] | None = None,
    prices: np.ndarray | None = None,
) -> DSOSolution:
    """Return the unique maximizer of the supplier objective on the boxes.

    A pinned storage box is solved in closed form, any other by projected
    Newton.  ``start`` warm-starts the iteration (used by the coordinator
    across price updates); it never changes the answer beyond the
    stationarity tolerance.  ``prices``, a plain array over the window,
    replaces ``sub.prices`` (the price loop passes each broadcast this way).
    Raises :class:`ConvergenceError` if the residual target is not met
    (within ``max_iter`` iterations), or at once if the residual is not
    finite.
    """
    lam = sub.prices.values if prices is None else prices
    if sub.storage.power_min == sub.storage.power_max and sub.dso.cost_quadratic > 0:
        point, residual = _pinned_dispatch(sub, lam, eps)
    else:
        point, residual = _projected_newton(sub, lam, eps, max_iter, start)
    return DSOSolution(point=point, kkt_residual=residual, sub=sub, prices=lam)


def _pinned_dispatch(
    sub: DSOSubproblem, lam: np.ndarray, eps: Tolerances
) -> tuple[np.ndarray, float]:
    """Closed form when storage cannot move: every slot clears on its own."""
    n = sub.window.length
    pin = sub.storage.power_min
    quad, lin = sub.dso.cost_quadratic, sub.dso.cost_linear
    lo, hi = sub.dso.power_min, sub.dso.power_max
    point = np.full(2 * n, pin)
    margin = lam - lin
    gen = np.minimum(np.maximum(pin + margin / (2.0 * quad), lo), hi, out=point[:n])
    # The storage block sits on its pinned bounds, so its residual is zero.
    grad = margin - 2.0 * quad * (gen - pin)
    residual = float(np.abs(gen - np.minimum(np.maximum(gen + grad, lo), hi)).max())
    if not residual <= eps.kkt:
        raise ConvergenceError(f"supplier closed form left residual {residual:.3e}", residual)
    return point, residual


def _projected_newton(
    sub: DSOSubproblem,
    lam: np.ndarray,
    eps: Tolerances,
    max_iter: int,
    start: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, float]:
    """Projected Newton on the stacked point; returns it with its residual."""
    n = sub.window.length
    quad, lin = sub.dso.cost_quadratic, sub.dso.cost_linear
    st = sub.storage
    rho = st.tracking_weight
    dtc = st.throughput * sub.window.slot_hours
    drift = sub.energy_now - st.energy_reference

    q_mat, lipschitz = _quadratic_form(n, quad, rho, dtc)
    g = np.empty(2 * n)
    g[:n] = lam - lin
    g[n:] = lin + 2.0 * rho * dtc * drift * np.arange(n, 0, -1)
    lo, hi = _box(n, sub.dso.power_min, st.power_min, sub.dso.power_max, st.power_max)

    def clip(point: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(point, lo), hi)

    def value(point: np.ndarray) -> float:
        return float(point @ (g - 0.5 * (q_mat @ point)))

    z = clip(np.concatenate(start) if start is not None else np.zeros(2 * n))

    # Projected gradient guarantees monotone ascent; a Newton step on the
    # estimated free set, searched along the projection arc and accepted only
    # when it improves the objective, makes the active set settle in a handful
    # of iterations.  Convergence is always certified by the
    # projected-stationarity residual, never assumed.
    inv_l = 1.0 / lipschitz
    span = max(sub.dso.power_max - sub.dso.power_min, st.power_max - st.power_min)
    span = span if math.isfinite(span) else 1.0
    best = value(z)
    residual = math.inf
    converged = False
    it = 0
    for it in range(max_iter):
        grad = g - q_mat @ z
        residual = float(np.abs(z - clip(z + grad)).max())
        if residual <= eps.kkt:
            converged = True
            break
        if not math.isfinite(residual):
            break
        act_tol = min(1e-4 * (1.0 + span), residual)
        at_lo = (z - lo <= act_tol) & (grad < 0)
        at_hi = (hi - z <= act_tol) & (grad > 0)
        free = ~(at_lo | at_hi)
        system = _newton_system(n, quad, rho, dtc, free.tobytes())
        improved = False
        if system is not None:
            idx, fixed, q_fixed, inverse = system
            newton = np.where(at_lo, lo, np.where(at_hi, hi, z))
            newton[idx] = inverse @ (g[idx] - q_fixed @ newton[fixed])
            step = newton - z
            for _ in range(_ARC_STEPS):
                trial = clip(z + step)
                trial_value = value(trial)
                improved = trial_value > best + 1e-14 * (1.0 + abs(best))
                if improved:
                    z, best = trial, trial_value
                    break
                step *= 0.5
        if not improved:
            z = clip(z + inv_l * grad)
            best = value(z)
    if not converged:
        raise ConvergenceError(
            f"supplier solve stalled at residual {residual:.3e} "
            f"in iteration {it + 1} of {max_iter}",
            residual,
        )

    return z, residual


def _objective(sub: DSOSubproblem, lam: np.ndarray, gen: np.ndarray, ps: np.ndarray) -> float:
    net = gen - ps
    revenue = float(lam @ gen)
    cost = float(np.sum(generation_cost(net, sub.dso.cost_quadratic, sub.dso.cost_linear)))
    tracking = storage_tracking_penalty(sub.energy_now, ps, sub.storage, sub.window)
    return revenue - cost - sub.storage.tracking_weight * tracking


def dso_objective(sub: DSOSubproblem, generation, storage_power) -> float:
    """Evaluate the supplier objective at an arbitrary point (used by tests)."""
    gen = generation.values if isinstance(generation, PowerProfile) else np.asarray(generation)
    ps = storage_power.values if isinstance(storage_power, PowerProfile) else np.asarray(
        storage_power
    )
    return _objective(sub, sub.prices.values, gen, ps)

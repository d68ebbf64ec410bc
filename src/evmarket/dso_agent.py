"""Supplier subproblem: joint generation and storage dispatch at given prices.

The supplier maximizes ``sum_t [price(t) * P_l(t) - C(P_l(t) - P_s(t))]`` minus
a quadratic penalty for letting the stored energy drift away from its
reference, over box bounds on both generation ``P_l`` and storage power
``P_s``.  The objective is a strictly concave quadratic.

When the storage box is pinned (``power_min == power_max``; validation forces
both to 0, as for a scenario without storage) the problem separates per slot
and is solved in closed form, in plain floats: ``P_s`` sits at the pinned value
and ``P_l = clip(P_s + (price - linear_cost) / (2 * quadratic_cost))`` on the
generation box, the clip written out with NumPy's rules for ties, signed zeros
and NaN.  Otherwise it is solved by projected Newton on arrays.  A warm start
(in the price loop, the last round's answer) is first tried as the active set:
one Newton solve on its free variables, accepted if the point stays in the box
and meets the residual target.  Prices move little between rounds, so this
usually settles the call.  Failing that, each iteration guesses the active
bounds from the gradient, solves the Newton system on the free variables
(cached per free set) and searches along the projection arc, else takes a
projected-gradient step of length ``1/L``.  Either way the point is certified
by its projected-stationarity residual and handed back as float lists; the
stacked array, the validated profiles and the objective value are built only
when they are read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .model import DSOSpec, PowerProfile, StorageSpec, TimeGrid, Tolerances

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
    """Supplier data for one negotiation window; ``energy_now`` is the stored
    energy.  It holds no prices: each solve is given the window list."""

    dso: DSOSpec
    storage: StorageSpec
    energy_now: float
    window: TimeGrid


@dataclass(eq=False)
class DSOSolution:
    """Optimal dispatch at ``prices`` (the broadcast it was solved for).

    ``generation_values`` and ``storage_values`` are float lists over the
    window; the price loop reads only the former.  ``point`` (the two stacked
    as an array), the validated profiles and ``objective`` are built on first
    access.  One is made per dual iteration, so it is a plain dataclass: a
    frozen one takes about three times as long to construct.
    """

    generation_values: list[float]
    storage_values: list[float]
    kkt_residual: float
    sub: DSOSubproblem
    prices: Sequence[float]

    @cached_property
    def point(self) -> np.ndarray:
        return np.array(self.generation_values + self.storage_values)

    @cached_property
    def objective(self) -> float:
        n = len(self.generation_values)
        return _objective(self.sub, np.asarray(self.prices), self.point[:n], self.point[n:])

    @cached_property
    def generation(self) -> PowerProfile:
        return PowerProfile(self.generation_values)

    @cached_property
    def storage_power(self) -> PowerProfile:
        return PowerProfile(self.storage_values)


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

# Projected-Newton iterations before a supplier solve is reported as stalled.
_MAX_ITER = 100_000

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
    prices: Sequence[float],
    eps: Tolerances = Tolerances(),
    start: tuple[Sequence[float], Sequence[float]] | None = None,
) -> DSOSolution:
    """Return the unique maximizer of the supplier objective on the boxes at
    ``prices``, the window list (converted once unless it is a list of
    floats; another length raises ``ValueError``).

    A pinned storage box is solved in closed form, any other by projected
    Newton.  ``start`` warm-starts projected Newton (the coordinator passes
    the last price round's answer): one Newton solve on the start's free set
    is returned if it passes the certificate, else the iteration runs from
    ``start``.  It never changes the answer beyond the stationarity
    tolerance.  Raises :class:`ConvergenceError` if the residual target is
    not met, or at once if the residual is not finite.
    """
    lam = prices if type(prices) is list else np.asarray(prices, dtype=float).tolist()
    if len(lam) != sub.window.length:
        raise ValueError("price list length must equal the window length")
    if sub.storage.power_min == sub.storage.power_max and sub.dso.cost_quadratic > 0:
        gen, storage, residual = _pinned_dispatch(sub, lam, eps)
    else:
        point, residual = _projected_newton(sub, np.asarray(lam), eps, _MAX_ITER, start)
        n = len(lam)
        gen, storage = point[:n].tolist(), point[n:].tolist()
    return DSOSolution(gen, storage, residual, sub, lam)


def _pinned_dispatch(
    sub: DSOSubproblem, lam: Sequence[float], eps: Tolerances
) -> tuple[list[float], list[float], float]:
    """Closed form when storage cannot move: every slot clears on its own.

    Plain floats, slot by slot, with the clip written out as NumPy's
    ``np.minimum(np.maximum(x, lo), hi)``: a NaN stays NaN, a tie takes the
    bound.  The residual is ``np.abs(gaps).max()``, NaN if any gap is, and a
    NaN price or bound gives a NaN residual, which raises.
    """
    dso, pin = sub.dso, sub.storage.power_min
    lin, lo, hi = dso.cost_linear, dso.power_min, dso.power_max
    scale = 2.0 * dso.cost_quadratic
    gen = []
    residual = 0.0
    for price in lam:
        margin = price - lin
        g = pin + margin / scale
        g = g if g > lo or g != g else lo
        g = g if g < hi or g != g else hi
        gen.append(g)
        # One clipped gradient step; the storage block sits on its pinned
        # bounds, so its residual is zero.
        x = g + (margin - scale * (g - pin))
        x = x if x > lo or x != x else lo
        x = x if x < hi or x != x else hi
        gap = abs(g - x)
        if not gap <= residual and residual == residual:
            residual = gap
    if not residual <= eps.kkt:
        raise ConvergenceError(f"supplier closed form left residual {residual:.3e}", residual)
    return gen, [pin] * len(gen), residual


def _projected_newton(
    sub: DSOSubproblem,
    lam: np.ndarray,
    eps: Tolerances,
    max_iter: int,
    start: tuple[Sequence[float], Sequence[float]] | None,
) -> tuple[np.ndarray, float]:
    """Projected Newton on the stacked point; returns it with its residual.

    A warm ``start`` (the last price round's answer) is first tried as an
    active set: its entries strictly inside the box are free, those on a bound
    stay there, and one Newton solve on that free set gives a candidate.  It
    is returned if it lies in the box and its projected-stationarity residual
    is within ``eps.kkt``, the certificate every answer carries.  Prices move
    little between rounds, so the bounds rarely change and this is the common
    case.  Otherwise :func:`_iterate` runs from ``start`` (or from zero).
    """
    n = sub.window.length
    st = sub.storage
    dtc = st.throughput * sub.window.slot_hours
    key = (n, sub.dso.cost_quadratic, st.tracking_weight, dtc)
    lin = sub.dso.cost_linear
    drift = sub.energy_now - st.energy_reference

    g = np.empty(2 * n)
    g[:n] = lam - lin
    g[n:] = lin + 2.0 * st.tracking_weight * dtc * drift * np.arange(n, 0, -1)
    lo, hi = _box(n, sub.dso.power_min, st.power_min, sub.dso.power_max, st.power_max)
    if start is None:
        z = _clip(np.zeros(2 * n), lo, hi)
    else:
        z = _clip(np.concatenate(start), lo, hi)
        system = _newton_system(*key, ((lo < z) & (z < hi)).tobytes())
        if system is not None:
            free, fixed, q_fixed, inverse = system
            newton = z.copy()
            newton[free] = inverse @ (g[free] - q_fixed @ z[fixed])
            if ((lo <= newton) & (newton <= hi)).all():
                q_mat, _ = _quadratic_form(*key)
                residual = _residual(newton, g - q_mat @ newton, lo, hi)
                if residual <= eps.kkt:
                    return newton, residual

    span = max(sub.dso.power_max - sub.dso.power_min, st.power_max - st.power_min)
    span = span if math.isfinite(span) else 1.0
    return _iterate(z, g, key, lo, hi, span, eps, max_iter)


def _clip(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(point, lo), hi)


def _residual(point: np.ndarray, grad: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Projected-stationarity residual: how far a gradient step moves ``point``."""
    return float(np.abs(point - _clip(point + grad, lo, hi)).max())


def _iterate(
    z: np.ndarray,
    g: np.ndarray,
    key: tuple[int, float, float, float],
    lo: np.ndarray,
    hi: np.ndarray,
    span: float,
    eps: Tolerances,
    max_iter: int,
) -> tuple[np.ndarray, float]:
    """Projected-Newton iterations from ``z`` on ``max g.z - z.Q.z / 2``.

    ``key`` is ``(n, quadratic_cost, tracking_weight, throughput * slot_hours)``,
    which fixes ``Q``; ``span`` is the widest box, for the activity rule.
    """
    q_mat, lipschitz = _quadratic_form(*key)

    def value(point: np.ndarray) -> float:
        return float(point @ (g - 0.5 * (q_mat @ point)))

    # Projected gradient guarantees monotone ascent; a Newton step on the
    # estimated free set, searched along the projection arc and accepted only
    # when it improves the objective, makes the active set settle in a handful
    # of iterations.  Convergence is always certified by the
    # projected-stationarity residual, never assumed.
    inv_l = 1.0 / lipschitz
    best = value(z)
    residual = math.inf
    converged = False
    it = 0
    for it in range(max_iter):
        grad = g - q_mat @ z
        residual = _residual(z, grad, lo, hi)
        if residual <= eps.kkt:
            converged = True
            break
        if not math.isfinite(residual):
            break
        act_tol = min(1e-4 * (1.0 + span), residual)
        at_lo = (z - lo <= act_tol) & (grad < 0)
        at_hi = (hi - z <= act_tol) & (grad > 0)
        free = ~(at_lo | at_hi)
        system = _newton_system(*key, free.tobytes())
        improved = False
        if system is not None:
            idx, fixed, q_fixed, inverse = system
            newton = np.where(at_lo, lo, np.where(at_hi, hi, z))
            newton[idx] = inverse @ (g[idx] - q_fixed @ newton[fixed])
            step = newton - z
            for _ in range(_ARC_STEPS):
                trial = _clip(z + step, lo, hi)
                trial_value = value(trial)
                improved = trial_value > best + 1e-14 * (1.0 + abs(best))
                if improved:
                    z, best = trial, trial_value
                    break
                step *= 0.5
        if not improved:
            z = _clip(z + inv_l * grad, lo, hi)
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

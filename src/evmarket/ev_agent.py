"""Per-vehicle subproblem: maximize charging utility minus energy cost.

Each vehicle maximizes ``sum_t [w * ln(1 + p(t)) - price(t) * p(t)]`` over its
remaining window, subject to its power box and the requirement that the energy
still needed is fully delivered by departure.  The optimizer has water-filling
structure: ``p(t) = clamp(w / (price(t) + mu * rate) - 1, p_min, p_max)`` for a
scalar multiplier ``mu`` on the terminal-energy constraint.  The delivered
energy ``E(mu)`` is decreasing, with slope ``-rate**2 * sum_free w / q**2`` over
the slots strictly inside the box (``q`` the effective price), so ``mu`` is
found by Newton's method safeguarded by the saturation bracket, warm-started
from the previous multiplier when the caller has one.  Objective values are
computed only when they are read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import EVSession, PowerProfile, PriceVector, TimeGrid, Tolerances

__all__ = [
    "EVSubproblem", "EVSolution", "EVBatchSolution", "utility", "solve_ev", "solve_ev_batch"
]

# Padding price for slots past a vehicle's departure: above any real price, so
# a row's minimum price is its minimum over the vehicle's own slots.
_PAD_PRICE = 1e30


@dataclass(frozen=True)
class EVSubproblem:
    """One vehicle's data over its remaining window ``[window.start, departure)``."""

    session: EVSession
    window: TimeGrid
    prices: PriceVector

    def __post_init__(self) -> None:
        if len(self.prices) != self.window.length:
            raise ValueError("price vector length must equal the window length")
        if self.window.length != self.session.departure - self.window.start:
            raise ValueError("window must span exactly the slots up to departure")


@dataclass(frozen=True, eq=False)
class EVSolution:
    """Optimal charging power (kW per slot) plus the terminal-energy multiplier.

    ``energy_multiplier`` prices one kWh of required energy in the same money
    unit as the slot prices.  ``feasible`` is False when the requirement cannot
    be met inside the box, in which case the profile is the best-effort
    saturation at the violated bound.
    """

    power: np.ndarray
    energy_multiplier: float
    objective: float
    feasible: bool

    @cached_property
    def profile(self) -> PowerProfile:
        return PowerProfile(self.power)


def utility(power: float, weight: float, offset: float = 1.0) -> float:
    """Charging satisfaction ``weight * ln(offset + power)``: concave, increasing, 0 at 0."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    return weight * math.log(offset + power)


@dataclass(frozen=True, eq=False)
class EVBatchSolution(Sequence[EVSolution]):
    """Solutions of one batch solve, kept as arrays.

    ``power`` is the padded ``vehicles x width`` matrix, zero past each
    departure, and ``prices`` the padded prices it was solved at; the other
    arrays hold one entry per vehicle.  ``objective`` is evaluated on first
    access.  Indexing builds one vehicle's :class:`EVSolution`.
    """

    power: np.ndarray
    lengths: np.ndarray
    energy_multiplier: np.ndarray
    feasible: np.ndarray
    prices: np.ndarray
    weight: np.ndarray
    offset: float

    @cached_property
    def objective(self) -> np.ndarray:
        mask = np.arange(self.power.shape[1]) < self.lengths[:, None]
        term = self.weight[:, None] * np.log(self.offset + self.power) - self.prices * self.power
        return np.where(mask, term, 0.0).sum(axis=1)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> EVSolution:
        return EVSolution(
            power=self.power[i, : self.lengths[i]],
            energy_multiplier=float(self.energy_multiplier[i]),
            objective=float(self.objective[i]),
            feasible=bool(self.feasible[i]),
        )


class EVBatchWorkspace:
    """Precomputed arrays for repeatedly solving the same set of vehicles.

    The coordinator keeps one workspace per negotiation and re-solves it at
    every price update; only the prices change between calls, so everything
    else the solve needs is built here once.
    """

    def __init__(self, subproblems: Sequence[EVSubproblem], offset: float = 1.0):
        if not subproblems:
            raise ValueError("workspace needs at least one subproblem")
        slot_hours = subproblems[0].window.slot_hours
        for sub in subproblems:
            if sub.window.slot_hours != slot_hours:
                raise ValueError("subproblems must share the slot duration")
        self.offset = offset
        self.lengths = np.array([s.window.length for s in subproblems])
        self.width = int(self.lengths.max())
        self.mask = np.arange(self.width)[None, :] < self.lengths[:, None]
        self.weight = np.array([s.session.weight for s in subproblems])
        self.weight_col = self.weight[:, None]
        lo = np.array([s.session.power_min for s in subproblems])
        hi = np.array([s.session.power_max for s in subproblems])
        # Box bounds per slot, zero past departure so padded slots carry no power.
        self.lo = lo[:, None] * self.mask
        self.hi = hi[:, None] * self.mask
        self.rate = np.array([s.session.energy_rate(slot_hours) for s in subproblems])
        self.slope_coef = -self.rate**2 / self.weight
        self.need = np.array([s.session.energy_needed for s in subproblems])
        self.cap_lo = self.rate * lo * self.lengths
        self.cap_hi = self.rate * hi * self.lengths
        self.even = np.clip(self.need / (self.rate * self.lengths), lo, hi)
        self.clamp_lo_price = self.weight / (offset + lo)
        self.clamp_hi_price = self.weight / (offset + hi)
        # Padding that hides slots past departure from a row maximum.
        self.max_pad = np.where(self.mask, 0.0, -np.inf)
        self._saturation: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.lam = np.full((len(subproblems), self.width), _PAD_PRICE)

    def load_prices(self, prices: np.ndarray) -> None:
        """Set the prices: one window vector whose leading slots every vehicle
        sees, or one padded row per vehicle.  The previous price matrix is
        left as it was, for the solutions that refer to it."""
        self.lam = np.where(self.mask, prices[..., : self.width], _PAD_PRICE)

    def _saturated(self, energy_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Requirements at (or beyond) the upper and the lower box face, and the rest."""
        flags = self._saturation.get(energy_tol)
        if flags is None:
            at_hi = self.need >= self.cap_hi - energy_tol
            at_lo = self.need <= self.cap_lo + energy_tol
            flags = self._saturation[energy_tol] = (at_hi, at_lo, ~(at_hi | at_lo))
        return flags

    def _energy_at(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Water-filling power, delivered energy and its slope in ``mu``."""
        q = self.lam + (mu * self.rate)[:, None]
        # w/q - offset, or +inf (the upper bound) at a nonpositive price.
        level = np.where(q > 0, self.weight_col / q, np.inf) - self.offset
        power = np.minimum(np.maximum(level, self.lo), self.hi)
        # On free slots w/q**2 = (power + offset)**2 / w.
        free_sq = np.square(power + self.offset) * (power == level)
        slope = self.slope_coef * free_sq.sum(axis=1)
        return power, self.rate * power.sum(axis=1), slope

    @np.errstate(divide="ignore", invalid="ignore")
    def solve(
        self,
        eps: Tolerances = Tolerances(),
        mu_hints: np.ndarray | None = None,
        max_iter: int = 200,
    ) -> EVBatchSolution:
        lam, need, rate = self.lam, self.need, self.rate

        # Saturation bounds: below mu_low every slot sits at the upper bound,
        # above mu_high every slot sits at the lower bound.
        lam_max = (lam + self.max_pad).max(axis=1)
        mu_low = (self.clamp_hi_price - lam_max) / rate - 1.0
        mu_high = (self.clamp_lo_price - lam.min(axis=1)) / rate + 1.0

        # Start from the hints, else from the multiplier that spreads the
        # requirement evenly at the mean price (exact for flat prices).
        if mu_hints is None:
            mean_lam = np.where(self.mask, lam, 0.0).sum(axis=1) / self.lengths
            mu = (self.weight / (self.offset + self.even) - mean_lam) / rate
        else:
            mu = np.where(np.isfinite(mu_hints), mu_hints, 0.5 * (mu_low + mu_high))

        # Requirements at (or beyond) a box face get the saturated profile.
        at_hi, at_lo, active = self._saturated(eps.energy)
        inner = np.minimum(np.maximum(mu, mu_low), mu_high)
        mu = np.where(at_hi, mu_low, np.where(at_lo, mu_high, inner))

        # Safeguarded Newton on the decreasing energy E(mu) inside the shrinking
        # bracket [mu_low, mu_high]: a step that leaves it, meets a zero slope or
        # follows one that failed to halve the gap (cycling at a kink) bisects.
        power, energy, slope = self._energy_at(mu)
        last_gap = np.inf
        for _ in range(max_iter):
            gap = energy - need
            abs_gap = np.abs(gap)
            active = active & (abs_gap > eps.energy)
            if not active.any():
                break
            mu_low = np.where(gap > 0, mu, mu_low)
            mu_high = np.where(gap < 0, mu, mu_high)
            newton = mu - gap / slope
            inside = (newton > mu_low) & (newton < mu_high) & (abs_gap <= 0.5 * last_gap)
            mu = np.where(active, np.where(inside, newton, 0.5 * (mu_low + mu_high)), mu)
            last_gap = abs_gap
            power, energy, slope = self._energy_at(mu)

        feasible = np.abs(energy - need) <= eps.energy
        return EVBatchSolution(power, self.lengths, mu, feasible, lam, self.weight, self.offset)


def solve_ev_batch(
    subproblems: Sequence[EVSubproblem],
    eps: Tolerances = Tolerances(),
    mu_hints: np.ndarray | None = None,
    max_iter: int = 200,
    offset: float = 1.0,
) -> Sequence[EVSolution]:
    """Solve several vehicle subproblems at once (vectorized Newton).

    All subproblems must share the slot duration.  ``mu_hints`` optionally
    warm-starts the multipliers from a previous solution.
    """
    if not subproblems:
        return []
    ws = EVBatchWorkspace(subproblems, offset=offset)
    rows = np.zeros((len(subproblems), ws.width))
    rows[ws.mask] = np.concatenate([sub.prices.values for sub in subproblems])
    ws.load_prices(rows)
    return ws.solve(eps=eps, mu_hints=mu_hints, max_iter=max_iter)


def solve_ev(
    sub: EVSubproblem,
    eps: Tolerances = Tolerances(),
    offset: float = 1.0,
) -> EVSolution:
    """Solve one vehicle's subproblem; see :func:`solve_ev_batch`."""
    return solve_ev_batch([sub], eps=eps, offset=offset)[0]


def stationarity_residual(
    sub: EVSubproblem, solution: EVSolution, offset: float = 1.0
) -> float:
    """Largest violation of the first-order optimality conditions.

    Interior slots must satisfy ``w/(offset+p) = price + mu*rate`` exactly;
    slots at a bound only need the sign of that gradient to point outward.
    """
    p = solution.power
    lam = sub.prices.values
    ses = sub.session
    rate = ses.energy_rate(sub.window.slot_hours)
    grad = ses.weight / (offset + p) - lam - solution.energy_multiplier * rate
    width = ses.power_max - ses.power_min
    edge = 1e-9 * max(1.0, width)
    at_lo = p <= ses.power_min + edge
    at_hi = p >= ses.power_max - edge
    res = np.abs(grad)
    res = np.where(at_lo, np.maximum(grad, 0.0), res)
    res = np.where(at_hi, np.maximum(-grad, 0.0), res)
    return float(res.max()) if res.size else 0.0

"""Vehicle agents: maximize charging utility minus energy cost.

A negotiation has one window, the supplier's, and one price list over it.
Each vehicle charges on the window's first ``departure - window.start`` slots
and maximizes ``sum_t [w * ln(1 + p(t)) - price(t) * p(t)]`` over them,
subject to its power box and the requirement that the energy still needed is
fully delivered by departure.  The optimizer has water-filling structure:
``p(t) = clamp(w / (price(t) + mu * rate) - 1, p_min, p_max)`` for a
scalar multiplier ``mu`` on the terminal-energy constraint.  The delivered
energy ``E(mu)`` is decreasing, with slope ``-rate**2 * sum_free w / q**2`` over
the slots strictly inside the box (``q`` the effective price), so ``mu`` is
found by Newton's method safeguarded by the saturation bracket.  In the price
loop each vehicle starts from a tangent prediction off its previous solution:
differentiating ``E(mu, price) = need`` along the price move gives
``mu_prev - sum_free (p+1)**2 * dprice / (rate * sum_free (p+1)**2)`` over
the slots where the previous power ``p`` was strictly inside the box (``w``
cancels), which already meets the energy tolerance for most vehicles when
prices move a little.  Without a previous solution the start is the
multiplier that spreads the requirement evenly at the mean price.  Objective
values are computed only when they are read.

``EVBatchWorkspace.solve`` runs that Newton iteration in one of two kernels
with the same steps: an array kernel that advances the whole batch with one
NumPy pass per step, and a scalar kernel that solves one vehicle at a time in
plain floats, for batches of at most ``_SCALAR_WIDTH`` slots and
``_SCALAR_VEHICLES`` vehicles, where NumPy's per-call overhead outweighs the
arithmetic; a workspace picks its kernel once, when it is built.  Both take
each vehicle's saturation bracket from the extremes of its own prices and
hand back the batch's demand (its column sums) as floats.  The array kernel
reads those extremes from the window list's running maximum and minimum at
each vehicle's last slot, pads the prices into rows once on entry, evaluates
power and energy at the start, and only while some row is still searching
runs a Newton pass, which takes the slope of the evaluation it starts from;
it converts the column sums once on exit.  The scalar kernel builds no
array: cold or started from a previous answer, it runs one per-vehicle path
in loops over lists with a counter.  The two give bit-identical powers,
multipliers, flags and demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import EVSession, TimeGrid, Tolerances

__all__ = ["EVSolution", "EVBatchSolution", "utility", "solve_ev", "solve_ev_batch"]

# Padding price for slots past a vehicle's departure, whose box is [0, 0]:
# it only keeps the power there at zero.  The bracket never reads it.
_PAD_PRICE = 1e30

# Size rule for the scalar kernel.  Its row sums run left to right, which is
# NumPy's order only for rows of at most seven entries.  Its cost grows with
# the vehicles, the array kernel's hardly at all: on the measured grid of 1-7
# slots by 8-40 vehicles the scalar kernel is the faster one at every width up
# to 20 vehicles and, averaged over the widths, up to 26 (0.92-0.98 of the
# array kernel's time at 24); from 28 on the array kernel is.
_SCALAR_WIDTH = 7
_SCALAR_VEHICLES = 24

# Newton steps per vehicle solve before it is left where it stands.
_MAX_ITER = 200


class EVSolution:
    """One vehicle of a batch solve: its optimal charging power (kW per slot,
    an array up to its departure) plus the terminal-energy multiplier.

    ``energy_multiplier`` prices one kWh of required energy in the same money
    unit as the slot prices.  ``feasible`` is False when the requirement cannot
    be met inside the box, in which case ``power`` is the best-effort
    saturation at the violated bound.  Each field is read from the batch when
    it is accessed, so reading a flag builds no array.
    """

    def __init__(self, batch: EVBatchSolution, index: int):
        self._batch = batch
        self._index = index

    @cached_property
    def power(self) -> np.ndarray:
        batch, i = self._batch, self._index
        return np.array(batch.rows[i][: batch.workspace.lengths[i]])

    @property
    def energy_multiplier(self) -> float:
        return float(self._batch.multipliers[self._index])

    @property
    def objective(self) -> float:
        return float(self._batch.objective[self._index])

    @property
    def feasible(self) -> bool:
        return bool(self._batch.flags[self._index])


def utility(power: float, weight: float) -> float:
    """Charging satisfaction ``weight * ln(1 + power)``: concave, increasing, 0 at 0."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    return weight * math.log(1.0 + power)


@dataclass(eq=False)
class EVBatchSolution(Sequence[EVSolution]):
    """Solutions of one batch solve, as the kernel returned them.

    The price loop reads ``demand`` (the column sums over the batch width, as
    floats) and hands the whole solution to the next solve, which predicts its
    start from ``prices``, ``rows`` and ``multipliers``.  ``power`` (the
    padded ``vehicles x width`` matrix, zero past each departure),
    ``energy_multiplier``, ``feasible`` and ``lam`` (the padded prices) are
    arrays built on first access, ``objective`` is evaluated on first access
    at ``prices`` (the window list the batch was loaded with), and indexing
    gives one vehicle's :class:`EVSolution`.  One is made per dual iteration,
    so it is a plain dataclass: a frozen one takes about three times as long
    to construct.
    """

    workspace: EVBatchWorkspace
    prices: Sequence
    rows: Sequence
    multipliers: Sequence[float]
    flags: Sequence[bool]
    demand: list[float]

    @cached_property
    def power(self) -> np.ndarray:
        return np.asarray(self.rows)

    @cached_property
    def energy_multiplier(self) -> np.ndarray:
        return np.asarray(self.multipliers)

    @cached_property
    def feasible(self) -> np.ndarray:
        return np.asarray(self.flags)

    @cached_property
    def lam(self) -> np.ndarray:
        """``prices`` as the padded ``vehicles x width`` matrix."""
        return self.workspace.padded(self.prices)

    @cached_property
    def objective(self) -> np.ndarray:
        ws = self.workspace
        term = ws.weight_col * np.log(1.0 + self.power) - self.lam * self.power
        return np.where(ws.mask, term, 0.0).sum(axis=1)

    def __len__(self) -> int:
        return len(self.multipliers)

    def __getitem__(self, i: int) -> EVSolution:
        return EVSolution(self, range(len(self.multipliers))[i])


class EVBatchWorkspace:
    """Precomputed arrays for repeatedly solving the same vehicles on one window.

    The coordinator keeps one workspace per negotiation and re-solves it at
    every price update; only the prices change between calls, so everything
    else the solve needs is built here once.  Every vehicle must depart inside
    the window: ``window.start < departure <= window.end``, else ``ValueError``.
    Extreme slot lengths overflow the precomputed rates quietly, as in the
    solve.
    """

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def __init__(self, sessions: Sequence[EVSession], window: TimeGrid):
        if not sessions:
            raise ValueError("workspace needs at least one vehicle")
        start, end = window.start, window.end
        for s in sessions:
            if not start < s.departure <= end:
                raise ValueError(f"vehicle {s.ev_id} does not depart inside the window")
        self.sessions, self.window = sessions, window
        self.lengths = np.array([s.departure - start for s in sessions])
        self.width = int(self.lengths.max())
        self.mask = np.arange(self.width)[None, :] < self.lengths[:, None]
        self.weight = np.array([s.weight for s in sessions])
        self.weight_col = self.weight[:, None]
        lo = np.array([s.power_min for s in sessions])
        hi = np.array([s.power_max for s in sessions])
        # Box bounds per slot, zero past departure so padded slots carry no power.
        self.lo = lo[:, None] * self.mask
        self.hi = hi[:, None] * self.mask
        self.rate = np.array([s.energy_rate(window.slot_hours) for s in sessions])
        self.slope_coef = -self.rate**2 / self.weight
        self.need = np.array([s.energy_needed for s in sessions])
        self.cap_lo = self.rate * lo * self.lengths
        self.cap_hi = self.rate * hi * self.lengths
        self.even = np.clip(self.need / (self.rate * self.lengths), lo, hi)
        self.clamp_lo_price = self.weight / (1.0 + lo)
        self.clamp_hi_price = self.weight / (1.0 + hi)
        # Each vehicle's last slot, where the window list's running maximum
        # and minimum hold the extremes of its own prices.
        self.last = self.lengths - 1
        # Saturation flags per energy tolerance, and whether any row is at a face.
        self._saturation: dict[float, tuple[tuple[np.ndarray, ...], bool]] = {}
        # The kernel, chosen once: the price loop re-solves the same batch.
        self._scalar = self.width <= _SCALAR_WIDTH and len(sessions) <= _SCALAR_VEHICLES

    def load_prices(self, prices) -> None:
        """Set the prices, the window list (see
        :meth:`~evmarket.model.TimeGrid.price_list`).  The previous prices are
        left as they were, for the solutions that refer to them."""
        self.prices = self.window.price_list(prices)

    def padded(self, prices) -> np.ndarray:
        """The window list ``prices`` as a ``vehicles x width`` matrix, padded
        past departure."""
        return np.where(self.mask, np.asarray(prices)[: self.width], _PAD_PRICE)

    def _saturated(self, energy_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Requirements at (or beyond) the upper and the lower box face, and the
        rest.  The flags are cached per tolerance, so they are read-only."""
        entry = self._saturation.get(energy_tol)
        if entry is None:
            at_hi = self.need >= self.cap_hi - energy_tol
            at_lo = self.need <= self.cap_lo + energy_tol
            flags = (at_hi, at_lo, ~(at_hi | at_lo))
            for array in flags:
                array.setflags(write=False)
            saturated = bool(np.count_nonzero(flags[2]) < len(self.need))
            entry = self._saturation[energy_tol] = (flags, saturated)
        return entry[0]

    def _power_at(
        self, mu: np.ndarray, lam: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Water-filling power, its unclamped level and the delivered energy at
        the padded prices ``lam``."""
        q = lam + (mu * self.rate)[:, None]
        # w/q - 1, or +inf (the upper bound) at a nonpositive price.
        level = np.where(q > 0, self.weight_col / q, np.inf) - 1.0
        power = np.minimum(np.maximum(level, self.lo), self.hi)
        return power, level, self.rate * np.add.reduce(power, 1)

    def _slope(self, power: np.ndarray, level: np.ndarray) -> np.ndarray:
        """Slope of the delivered energy in ``mu``: on free slots (where the
        power is its level) w/q**2 = (power + 1)**2 / w."""
        return self.slope_coef * np.add.reduce(np.square(power + 1.0) * (power == level), 1)

    def solve(
        self, eps: Tolerances = Tolerances(), previous: EVBatchSolution | None = None
    ) -> EVBatchSolution:
        """Solve every vehicle at the loaded prices, in the kernel the size
        rule picked when the workspace was built (see the module docstring).

        Each vehicle starts from the even spread of its requirement, or, given
        ``previous``, a solution of this workspace at other prices, from the
        tangent prediction of the module docstring off its own previous
        multiplier (that multiplier itself when no slot was free).
        """
        if self._scalar:
            return self._solve_scalar(eps, _MAX_ITER, previous)
        return self._solve_array(eps, _MAX_ITER, previous)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def _solve_array(
        self, eps: Tolerances, max_iter: int, previous: EVBatchSolution | None = None
    ) -> EVBatchSolution:
        """Array kernel: all vehicles advance together, one NumPy pass per step.

        The bracket comes from the window list's running maximum and minimum
        at each vehicle's last slot.  The start is evaluated without its
        slope; a Newton pass runs only while some row is still searching, and
        takes the slope of the evaluation it starts from.  On batches this
        small NumPy's per-call overhead outweighs the arithmetic, so each row
        or column sum is one ``np.add.reduce``, and the rare fixes (a
        non-finite prediction, a saturated requirement) run only when some row
        needs them."""
        need, rate, tol = self.need, self.rate, eps.energy
        prices = np.asarray(self.prices)
        lam = self.padded(prices)

        # Saturation bounds: below mu_low every slot sits at the upper bound,
        # above mu_high every slot sits at the lower bound.  A running max or
        # min keeps a NaN, as a row max or min does.
        top = np.maximum.accumulate(prices)[self.last]
        bottom = np.minimum.accumulate(prices)[self.last]
        mu_low = (self.clamp_hi_price - top) / rate - 1.0
        mu_high = (self.clamp_lo_price - bottom) / rate + 1.0

        # Start from the multiplier that spreads the requirement evenly at the
        # mean price (exact for flat prices), or from the tangent prediction
        # off the previous solution over its free slots.  A non-finite
        # prediction falls to the bracket midpoint.
        if previous is None:
            mean_lam = np.add.reduce(np.where(self.mask, lam, 0.0), 1) / self.lengths
            mu = (self.weight / (1.0 + self.even) - mean_lam) / rate
        else:
            prev = np.asarray(previous.rows)
            free = (prev > self.lo) & (prev < self.hi)
            sq = np.where(free, np.square(prev + 1.0), 0.0)
            num = np.add.reduce(np.where(free, sq * (lam - previous.lam), 0.0), 1)
            den = np.add.reduce(sq, 1)
            mu = np.asarray(previous.multipliers, dtype=float)
            mu = np.where(den > 0, mu - num / (rate * den), mu)
            finite = np.isfinite(mu)
            if np.count_nonzero(finite) < finite.size:
                mu = np.where(finite, mu, 0.5 * (mu_low + mu_high))

        # Requirements at (or beyond) a box face get the saturated profile.
        at_hi, at_lo, active = self._saturated(tol)
        mu = np.minimum(np.maximum(mu, mu_low), mu_high)
        if self._saturation[tol][1]:  # some requirement is at a face
            mu = np.where(at_hi, mu_low, np.where(at_lo, mu_high, mu))

        # Safeguarded Newton on the decreasing energy E(mu) inside the shrinking
        # bracket [mu_low, mu_high]: a step that leaves it, meets a zero slope or
        # follows one that failed to halve the gap (cycling at a kink) bisects.
        power, level, energy = self._power_at(mu, lam)
        gap = energy - need
        abs_gap = np.abs(gap)
        last_gap = np.inf
        for _ in range(max_iter):
            active = active & (abs_gap > tol)
            if not np.count_nonzero(active):
                break
            slope = self._slope(power, level)
            mu_low = np.where(gap > 0, mu, mu_low)
            mu_high = np.where(gap < 0, mu, mu_high)
            newton = mu - gap / slope
            inside = (newton > mu_low) & (newton < mu_high) & (abs_gap <= 0.5 * last_gap)
            mu = np.where(active, np.where(inside, newton, 0.5 * (mu_low + mu_high)), mu)
            last_gap = abs_gap
            power, level, energy = self._power_at(mu, lam)
            gap = energy - need
            abs_gap = np.abs(gap)

        solution = EVBatchSolution(
            self, self.prices, power, mu, abs_gap <= tol, np.add.reduce(power, 0).tolist()
        )
        solution.lam = lam  # the padded prices, for the next solve's prediction
        return solution

    @cached_property
    def _constants(self) -> list[tuple]:
        """Per-vehicle constants as plain floats, for the scalar kernel.  The
        box bounds are read from the first slot, which every vehicle has."""
        columns = (
            self.lengths, self.weight, self.lo[:, 0], self.hi[:, 0], self.rate,
            self.slope_coef, self.need, self.cap_lo, self.cap_hi, self.even,
            self.clamp_lo_price, self.clamp_hi_price,
        )
        return list(zip(*(c.tolist() for c in columns)))

    def _solve_scalar(
        self, eps: Tolerances, max_iter: int, previous: EVBatchSolution | None = None
    ) -> EVBatchSolution:
        """Scalar kernel: the array kernel's steps, one vehicle at a time in
        plain floats.  Row sums run left to right, as NumPy's do for rows of
        at most seven entries, and the column sums vehicle by vehicle, as
        NumPy's do over a strided axis; where NumPy would divide by a zero
        slope the step bisects, which is where NumPy's inf or nan leads."""
        tol, width = eps.energy, self.width
        inf, isfinite = math.inf, math.isfinite
        prices = self.prices
        # Either start (the even spread or the prediction) reaches the one
        # vehicle loop below, whose loops run over lists with a counter: on
        # short rows a range, zip or comprehension costs more than the
        # arithmetic.
        if previous is not None:
            previous_mus, previous_rows, previous_prices = (
                previous.multipliers, previous.rows, previous.prices
            )
            if type(previous_mus) is not list:  # a solution of the array kernel
                previous_mus, previous_rows = previous_mus.tolist(), previous_rows.tolist()
        rows, mus, feasible = [], [], []
        i = 0
        for length, w, lo, hi, rate, coef, need, cap_lo, cap_hi, even, clamp_lo, clamp_hi in (
            self._constants
        ):
            lam = prices[:length]
            top, bottom = max(lam), min(lam)
            mu_low = (clamp_hi - top) / rate - 1.0
            mu_high = (clamp_lo - bottom) / rate + 1.0
            # Requirements at (or beyond) a box face get the saturated profile.
            searching = False
            if need >= cap_hi - tol:
                mu = mu_low
            elif need <= cap_lo + tol:
                mu = mu_high
            else:
                searching = True
                if previous is None:
                    total = 0.0
                    for x in lam:
                        total += x
                    mu = (w / (1.0 + even) - total / length) / rate
                else:
                    # The tangent step over the previously free slots.
                    mu = previous_mus[i]
                    previous_row = previous_rows[i]
                    num = den = 0.0
                    j = 0
                    for x in lam:
                        p = previous_row[j]
                        if lo < p < hi:
                            sq = (p + 1.0) * (p + 1.0)
                            num += sq * (x - previous_prices[j])
                            den += sq
                        j += 1
                    if den > 0:
                        mu -= num / (rate * den)
                    if not isfinite(mu):
                        mu = 0.5 * (mu_low + mu_high)
                # The bracket clamp; a NaN bracket gives a NaN start, as in NumPy.
                if mu < mu_low or mu_low != mu_low:
                    mu = mu_low
                elif mu > mu_high:
                    mu = mu_high

            last_gap = inf
            k = 0
            nan_q = False
            while True:
                # Water-filling power, delivered energy and its slope at mu.
                shift = mu * rate
                power = []
                total = free = 0.0
                for x in lam:
                    q = x + shift
                    if q > 0:
                        level = w / q - 1.0
                    else:
                        level = inf
                        nan_q = nan_q or q != q
                    p = level if level > lo else lo
                    if p > hi:
                        p = hi
                    power.append(p)
                    total += p
                    if p == level:
                        free += (p + 1.0) * (p + 1.0)
                gap = rate * total - need
                abs_gap = abs(gap)
                if nan_q and mu == mu and any(x != x for x in lam):
                    # A NaN price (it makes q NaN) makes NumPy's row max and
                    # min, not Python's, the bracket and mu NaN: every slot at
                    # its upper bound, evaluated once more.
                    mu, searching = math.nan, False
                    continue
                if not (searching and abs_gap > tol) or k == max_iter:
                    break
                k += 1
                if gap > 0:
                    mu_low = mu
                elif gap < 0:
                    mu_high = mu
                slope = coef * free
                newton = mu - gap / slope if slope != 0 else inf
                if mu_low < newton < mu_high and abs_gap <= 0.5 * last_gap:
                    mu = newton
                else:
                    mu = 0.5 * (mu_low + mu_high)
                last_gap = abs_gap
            if length < width:
                power += [0.0] * (width - length)
            rows.append(power)
            mus.append(mu)
            feasible.append(abs_gap <= tol)
            i += 1

        if width == 1 and len(rows) > _SCALAR_WIDTH:
            # NumPy sums a one-slot batch's column pairwise, not in order.
            demand = [float(np.sum([power[0] for power in rows]))]
        elif len(rows) == 1:
            demand = rows[0]
        else:
            demand = rows[0][:]
            for power in rows[1:]:
                j = 0
                for p in power:
                    demand[j] += p
                    j += 1
        return EVBatchSolution(self, prices, rows, mus, feasible, demand)


def solve_ev_batch(
    sessions: Sequence[EVSession],
    window: TimeGrid,
    prices: Sequence[float],
    eps: Tolerances = Tolerances(),
) -> Sequence[EVSolution]:
    """Solve several vehicles on ``window`` at its price list ``prices``.

    Every vehicle must depart inside the window, and ``prices`` must have
    the window's length (else ``ValueError``).
    """
    if not sessions:
        window.price_list(prices)
        return []
    ws = EVBatchWorkspace(sessions, window)
    ws.load_prices(prices)
    return ws.solve(eps)


def solve_ev(
    session: EVSession, window: TimeGrid, prices: Sequence[float], eps: Tolerances = Tolerances()
) -> EVSolution:
    """Solve one vehicle; see :func:`solve_ev_batch`."""
    return solve_ev_batch([session], window, prices, eps)[0]


def stationarity_residual(solution: EVSolution) -> float:
    """Largest violation of the first-order optimality conditions, at the
    prices the solution was solved at.

    Interior slots must satisfy ``w/(1+p) = price + mu*rate`` exactly;
    slots at a bound only need the sign of that gradient to point outward.
    """
    p = solution.power
    batch, i = solution._batch, solution._index
    lam = np.asarray(batch.prices[: p.size])
    ses = batch.workspace.sessions[i]
    rate = float(batch.workspace.rate[i])
    grad = ses.weight / (1.0 + p) - lam - solution.energy_multiplier * rate
    width = ses.power_max - ses.power_min
    edge = 1e-9 * max(1.0, width)
    at_lo = p <= ses.power_min + edge
    at_hi = p >= ses.power_max - edge
    res = np.abs(grad)
    res = np.where(at_lo, np.maximum(grad, 0.0), res)
    res = np.where(at_hi, np.maximum(-grad, 0.0), res)
    return float(res.max()) if res.size else 0.0

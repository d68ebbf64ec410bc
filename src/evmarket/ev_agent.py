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
each vehicle's saturation bracket from the extremes of its own prices, read
its face (a requirement at or beyond a box face, or one to search for) from
flags found when the workspace is built, evaluate only power and energy,
sum the slope only before a Newton step, and hand back the rows and the
batch's demand (its column sums) over the whole window, as floats.  The array
kernel reads those extremes from the window list's running maximum and
minimum at each vehicle's last slot, broadcasts the window list as one row of
prices against the whole batch and converts the column sums once on exit.
Past a vehicle's departure its box and its weight are zero, so its level
there is -1 (or +inf where the effective price is not positive, or NaN): the
power is clamped to 0 and is never free, so the prices there never move the
vehicle's answer.  The scalar
kernel builds no array: cold or started from a previous answer, it runs one
per-vehicle path in loops over lists with a counter, on the window list
itself for a stay that spans all of it, and builds a searching vehicle's
bracket only when its start misses the tolerance or cannot be certified
inside the bracket (see :meth:`EVBatchWorkspace._solve_scalar`).  The two
give bit-identical powers, multipliers, flags and demand.

A workspace derives each vehicle's constants once, in plain floats, and both
kernels read them: the array kernel's NumPy vectors are stacked from their
columns.  A vehicle whose constants would divide by zero is refused, and a
workspace's attributes are its fixed ``__slots__`` (see
:class:`EVBatchWorkspace`).  A batch's answer is held once, as the kernel
returned it: rows, multipliers and flags (see :class:`EVBatchSolution`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import EVSession, SolverConfig, TimeGrid

__all__ = ["EVSolution", "EVBatchSolution", "EVBatchWorkspace", "solve_ev", "solve_ev_batch"]

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

# The scalar kernel certifies a start inside the bracket only while
# ``|mu * rate|`` and the clamp prices stay below this many rates: there
# rounding moves each bracket side by far less than its margin of 1.
_CERTIFIED = 2.0**40


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


@dataclass(eq=False)
class EVBatchSolution(Sequence[EVSolution]):
    """Solutions of one batch solve, as the kernel returned them, each held
    once: the scalar kernel gives lists, the array kernel arrays.

    ``rows`` holds each vehicle's powers over the window (zero past its
    departure), ``multipliers`` its terminal-energy multiplier and ``flags``
    whether it met its requirement.  The price loop reads ``demand`` (the
    column sums over the window, as floats) and hands the whole solution to
    the next solve, which predicts its start from ``prices``, ``rows`` and
    ``multipliers``.  ``objective`` is evaluated on first access at
    ``prices`` (the window list the batch was loaded with, one row for every
    vehicle, read only up to each departure), and indexing gives one
    vehicle's :class:`EVSolution`.  Reading ``objective`` builds a scalar
    batch's workspace matrices, which it is read with.  The kernel sets every
    field when it builds one.  One is made per dual iteration, so it is a
    plain dataclass: a frozen one takes about three times as long to
    construct.
    """

    workspace: EVBatchWorkspace
    prices: Sequence
    rows: Sequence
    multipliers: Sequence[float]
    flags: Sequence[bool]
    demand: list[float]

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def objective(self) -> np.ndarray:
        ws = self.workspace
        ws._matrices()
        power, lam = np.asarray(self.rows), np.asarray(self.prices)
        term = ws.weight_col * np.log(1.0 + power) - lam * power
        return np.where(ws.mask, term, 0.0).sum(axis=1)

    def __len__(self) -> int:
        return len(self.multipliers)

    def __getitem__(self, i: int) -> EVSolution:
        return EVSolution(self, range(len(self.multipliers))[i])


class EVBatchWorkspace:
    """Precomputed data for repeatedly solving the same vehicles on one window.

    The coordinator keeps one workspace per negotiation and re-solves it at
    every price update; only the prices change between calls, so everything
    else the solve needs is built here once, the tolerance too: each vehicle
    is solved to ``energy_tolerance`` kWh of its requirement.  Every vehicle
    must depart inside the window: ``window.start < departure <= window.end``,
    else ``ValueError``.  Rows and demand span the window, ``window.length``
    slots.

    Each vehicle's constants are derived here once, in plain floats (see
    :func:`_scalar_constants`): a weight of 0, a ``power_min`` of -1 or a
    slot that stores no energy raises ``ValueError`` naming the vehicle.
    The size rule then picks the kernel.  The array kernel's matrices and
    vectors (``mask``, ``lo``, ``hi``, ``weight_col``, ``rate``,
    ``_saturation`` and the rest), stacked from the constants' columns, are
    built here for an array batch and, for a scalar batch, the first time
    an array solve or a solution's ``objective`` needs them; until then
    they are None.  Each vehicle's departure is recorded there once: its
    weight and box are zero past it.  The attributes are the class's
    ``__slots__``, all set in the constructor: a workspace has no
    ``__dict__``, so none can be added later.  Extreme slot lengths overflow
    the precomputed rates quietly, as in the solve.
    """

    __slots__ = (
        "window", "energy_tolerance", "prices", "lengths", "_constants", "_scalar",
        "mask", "weight", "weight_col", "lo", "hi", "rate", "slope_coef", "need", "even", "last",
        "clamp_lo_price", "clamp_hi_price", "_saturation",
    )

    def __init__(
        self,
        sessions: Sequence[EVSession],
        window: TimeGrid,
        energy_tolerance: float = SolverConfig.energy_tolerance,
    ):
        if not sessions:
            raise ValueError("workspace needs at least one vehicle")
        start, end = window.start, window.end
        lengths = []
        for s in sessions:
            if not start < s.departure <= end:
                raise ValueError(f"vehicle {s.ev_id} does not depart inside the window")
            lengths.append(s.departure - start)
        self.window, self.energy_tolerance = window, energy_tolerance
        self.prices = None
        self.lengths = np.array(lengths)
        self._constants = _scalar_constants(sessions, lengths, window.slot_hours, energy_tolerance)
        self.mask = self.weight = self.weight_col = self.lo = self.hi = None
        self.rate = self.slope_coef = self.need = self.even = self.last = None
        self.clamp_lo_price = self.clamp_hi_price = self._saturation = None
        # The kernel, chosen once: the price loop re-solves the same batch.
        self._scalar = window.length <= _SCALAR_WIDTH and len(sessions) <= _SCALAR_VEHICLES
        if not self._scalar:
            self._matrices()

    def _matrices(self) -> None:
        """Stack the array kernel's matrices and vectors from the columns of
        the per-vehicle constants, once."""
        if self.mask is not None:
            return
        lengths = self.lengths
        (
            _, weight, lo, hi, self.rate, self.slope_coef, self.need, self.even,
            self.clamp_lo_price, self.clamp_hi_price, face,
        ) = np.array(list(zip(*self._constants))[:11])
        self.mask = mask = np.arange(self.window.length)[None, :] < lengths[:, None]
        # Weight and box per slot, zero past departure: there the level is
        # -1 or +inf whatever the price, so the power is clamped to 0 and
        # the slope never counts the slot.
        self.weight, self.weight_col = weight, np.where(mask, weight[:, None], 0.0)
        self.lo = np.where(mask, lo[:, None], 0.0)
        self.hi = np.where(mask, hi[:, None], 0.0)
        # Each vehicle's last slot, where the window list's running maximum
        # and minimum hold the extremes of its own prices.
        self.last = lengths - 1
        # Requirements at (or beyond) the upper and the lower box face, the
        # rest, and whether some requirement is at a face.  Every solve reads
        # the flags, so they are read-only.
        faces = (face == 1, face == -1, face == 0)
        for array in faces:
            array.setflags(write=False)
        self._saturation = (*faces, bool(np.count_nonzero(faces[2]) < len(lengths)))

    def load_prices(self, prices) -> None:
        """Set the prices, the window list (see
        :meth:`~evmarket.model.TimeGrid.price_list`): a list of the window's
        length is kept as it is, without the call.  The previous prices are
        left as they were, for the solutions that refer to them."""
        if type(prices) is not list or len(prices) != self.window.length:
            prices = self.window.price_list(prices)
        self.prices = prices

    def _power_at(
        self, mu: np.ndarray, lam: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Water-filling power, its unclamped level and the delivered energy at
        the row of prices ``lam``, the window list.
        Past a departure the weight is 0, so the level is -1, or +inf where
        ``q`` is not positive or is NaN, and the zero box clamps it."""
        q = lam + (mu * self.rate)[:, None]
        # w/q - 1, or +inf (the upper bound) at a nonpositive price.
        level = np.where(q > 0, self.weight_col / q, np.inf) - 1.0
        power = np.minimum(np.maximum(level, self.lo), self.hi)
        return power, level, self.rate * np.add.reduce(power, 1)

    def _slope(self, power: np.ndarray, level: np.ndarray) -> np.ndarray:
        """Slope of the delivered energy in ``mu``: on free slots (where the
        power is its level) w/q**2 = (power + 1)**2 / w."""
        return self.slope_coef * np.add.reduce(np.square(power + 1.0) * (power == level), 1)

    def solve(self, previous: EVBatchSolution | None = None) -> EVBatchSolution:
        """Solve every vehicle at the loaded prices, in the kernel the size
        rule picked when the workspace was built (see the module docstring).

        Each vehicle starts from the even spread of its requirement, or, given
        ``previous``, a solution of this workspace at other prices, from the
        tangent prediction of the module docstring off its own previous
        multiplier (that multiplier itself when no slot was free).
        """
        if self._scalar:
            return self._solve_scalar(_MAX_ITER, previous)
        return self._solve_array(_MAX_ITER, previous)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def _solve_array(
        self, max_iter: int, previous: EVBatchSolution | None = None
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
        self._matrices()
        lam = np.asarray(self.prices)
        need, rate, tol = self.need, self.rate, self.energy_tolerance

        # Saturation bounds: below mu_low every slot sits at the upper bound,
        # above mu_high every slot sits at the lower bound.  A running max or
        # min keeps a NaN, as a row max or min does.
        top = np.maximum.accumulate(lam)[self.last]
        bottom = np.minimum.accumulate(lam)[self.last]
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
            move = lam - np.asarray(previous.prices)
            num = np.add.reduce(np.where(free, sq * move, 0.0), 1)
            den = np.add.reduce(sq, 1)
            mu = np.asarray(previous.multipliers, dtype=float)
            mu = np.where(den > 0, mu - num / (rate * den), mu)
            finite = np.isfinite(mu)
            if np.count_nonzero(finite) < finite.size:
                mu = np.where(finite, mu, 0.5 * (mu_low + mu_high))

        # Requirements at (or beyond) a box face get the saturated profile.
        at_hi, at_lo, active, saturated = self._saturation
        mu = np.minimum(np.maximum(mu, mu_low), mu_high)
        if saturated:
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

        return EVBatchSolution(
            self, self.prices, power, mu, abs_gap <= tol, np.add.reduce(power, 0).tolist()
        )

    def _solve_scalar(
        self, max_iter: int, previous: EVBatchSolution | None = None
    ) -> EVBatchSolution:
        """Scalar kernel: the array kernel's steps, one vehicle at a time in
        plain floats.  Each vehicle's face is read from its constants, built
        with the workspace, a stay over the whole window reads the window list
        itself, and each energy evaluation sums only the powers: the slope
        over the free slots is summed, as the array kernel's is, only before
        a Newton step.  Row sums run left to right, as NumPy's do for rows of
        at most seven entries, and the column sums vehicle by vehicle, as
        NumPy's do over a strided axis; where NumPy would divide by a zero
        slope the step bisects, which is where NumPy's inf or nan leads.

        A searching vehicle is evaluated at its start before its bracket is
        built.  When that evaluation meets the tolerance and certifies the
        start inside the bracket, the clamp would leave the start where it
        is, and the vehicle is done without a bracket.  The certificate takes
        no per-slot work: (1) the row total differs from the all-upper and
        the all-lower totals of ``_constants``, so some slot is below ``hi``
        (its ``q`` above ``clamp_hi``: the start lies above ``mu_low``, with
        a margin of 1) and some slot above ``lo`` (the start lies below
        ``mu_high``); (2) no ``q`` is NaN; (3) ``|mu * rate|`` and the clamp
        prices are below ``_CERTIFIED`` rates.  Under (3) rounding moves a
        bracket end by far less than its margin, or the price extreme is so
        far out that the end is out of the start's reach.  Otherwise the
        bracket is built and clamps the start, which is evaluated again only
        if the clamp moved it."""
        tol = self.energy_tolerance
        inf, isfinite = math.inf, math.isfinite
        prices = self.prices
        n = len(prices)
        # Either start (the even spread or the prediction) reaches the one
        # vehicle loop below, whose loops run over lists with a counter: on
        # short rows a range, zip or comprehension costs more than the
        # arithmetic.
        if previous is not None:
            previous_mus, previous_rows, previous_prices = (
                previous.multipliers, previous.rows, previous.prices
            )
        rows, mus, feasible = [], [], []
        i = 0
        for (
            length, w, lo, hi, rate, coef, need, even, clamp_lo, clamp_hi, face,
            upper, lower, limit,
        ) in self._constants:
            lam = prices if length == n else prices[:length]
            # Requirements at (or beyond) a box face get the saturated
            # profile; a search starts unbracketed.
            bracketed = face != 0
            searching = not bracketed
            if face:
                mu_low, mu_high = _bracket(lam, rate, clamp_lo, clamp_hi)
                mu = mu_low if face > 0 else mu_high
            elif previous is None:
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

            last_gap = inf
            k = 0
            nan_q = False
            while True:
                # Water-filling power and delivered energy at mu.
                shift = mu * rate
                power = []
                total = 0.0
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
                gap = rate * total - need
                abs_gap = abs(gap)
                if nan_q and mu == mu and any(x != x for x in lam):
                    # A NaN price (it makes q NaN) makes NumPy's row max and
                    # min, not Python's, the bracket and mu NaN: every slot at
                    # its upper bound, evaluated once more.
                    mu, searching, bracketed = math.nan, False, True
                    continue
                if not bracketed:
                    if (
                        abs_gap <= tol and not nan_q and -limit < shift < limit
                        and total != upper and total != lower
                    ):
                        break  # the start, certified inside the bracket
                    bracketed = True
                    mu_low, mu_high = _bracket(lam, rate, clamp_lo, clamp_hi)
                    start = mu
                    if previous is not None and not isfinite(mu):
                        mu = 0.5 * (mu_low + mu_high)
                    # The bracket clamp; a NaN bracket gives a NaN start, as
                    # in NumPy.  A start it leaves keeps its evaluation.
                    if mu < mu_low or mu_low != mu_low:
                        mu = mu_low
                    elif mu > mu_high:
                        mu = mu_high
                    if mu != start:
                        continue
                if not (searching and abs_gap > tol) or k == max_iter:
                    break
                k += 1
                if gap > 0:
                    mu_low = mu
                elif gap < 0:
                    mu_high = mu
                # The slope at mu, over the slots where the power is its level.
                free = 0.0
                j = 0
                for x in lam:
                    q = x + shift
                    p = power[j]
                    if p == (w / q - 1.0 if q > 0 else inf):
                        free += (p + 1.0) * (p + 1.0)
                    j += 1
                slope = coef * free
                newton = mu - gap / slope if slope != 0 else inf
                if mu_low < newton < mu_high and abs_gap <= 0.5 * last_gap:
                    mu = newton
                else:
                    mu = 0.5 * (mu_low + mu_high)
                last_gap = abs_gap
            if length < n:
                power += [0.0] * (n - length)
            rows.append(power)
            mus.append(mu)
            feasible.append(abs_gap <= tol)
            i += 1

        if n == 1 and len(rows) > _SCALAR_WIDTH:
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


def _bracket(lam: list[float], rate: float, clamp_lo: float, clamp_hi: float):
    """One vehicle's saturation bracket at its prices ``lam``, for the scalar
    kernel: below the first bound every slot sits at its upper bound, above
    the second at its lower bound."""
    return (clamp_hi - max(lam)) / rate - 1.0, (clamp_lo - min(lam)) / rate + 1.0


def _scalar_constants(
    sessions: Sequence[EVSession], lengths: list[int], hours: float, tol: float
) -> list[tuple]:
    """Each vehicle's constants in plain floats, the one derivation both
    kernels read (the array kernel stacks its vectors from the columns):
    length, weight, box, rate, slope coefficient, requirement, even spread,
    clamp prices, face (1 at the upper, -1 at the lower, 0 searching) and
    the scalar kernel's start certificate: the all-upper and the all-lower
    row totals, summed left to right as the kernel sums a row, and the bound
    on ``|mu * rate|``, 0 (never certified) where a clamp price reaches it
    or the rate is too small or too large for the rounding argument.  Each
    is NumPy's elementwise value bit for bit: ``rate * rate`` is NumPy's
    square, and the even spread is clipped by NumPy's clip rule, under which
    a tie keeps the bound (``-0.0`` against ``0.0``) and a NaN keeps itself.
    A zero divisor raises ``ValueError`` naming the vehicle."""
    constants = []
    for s, length in zip(sessions, lengths):
        w, lo, hi, need = s.weight, s.power_min, s.power_max, s.energy_needed
        rate = s.energy_rate(hours)
        try:
            even = need / (rate * length)
            clamp_lo, clamp_hi = w / (1.0 + lo), w / (1.0 + hi)
            coef = -(rate * rate) / w
        except ZeroDivisionError:
            raise ValueError(
                f"vehicle {s.ev_id} divides by zero: a weight of 0, a power bound"
                " of -1 or a slot that stores no energy"
            ) from None
        if not (even > lo or even != even):
            even = lo
        if not (even < hi or even != even):
            even = hi
        if need >= rate * hi * length - tol:
            face = 1
        else:
            face = -1 if need <= rate * lo * length + tol else 0
        upper, lower = hi, lo
        for _ in range(length - 1):
            upper += hi
            lower += lo
        limit = _CERTIFIED * rate if 2.0**-1000 < rate < 2.0**900 else 0.0
        if not (abs(clamp_lo) < limit and abs(clamp_hi) < limit):
            limit = 0.0
        constants.append((
            length, w, lo, hi, rate, coef, need, even, clamp_lo, clamp_hi,
            face, upper, lower, limit,
        ))
    return constants


def solve_ev_batch(
    sessions: Sequence[EVSession],
    window: TimeGrid,
    prices: Sequence[float],
    energy_tolerance: float = SolverConfig.energy_tolerance,
) -> Sequence[EVSolution]:
    """Solve several vehicles on ``window`` at its price list ``prices``, each
    to ``energy_tolerance`` kWh of its requirement.

    Every vehicle must depart inside the window, and ``prices`` must have
    the window's length (else ``ValueError``); see :class:`EVBatchWorkspace`
    for the vehicles it refuses.
    """
    if not sessions:
        window.price_list(prices)
        return []
    ws = EVBatchWorkspace(sessions, window, energy_tolerance)
    ws.load_prices(prices)
    return ws.solve()


def solve_ev(
    session: EVSession,
    window: TimeGrid,
    prices: Sequence[float],
    energy_tolerance: float = SolverConfig.energy_tolerance,
) -> EVSolution:
    """Solve one vehicle; see :func:`solve_ev_batch`."""
    return solve_ev_batch([session], window, prices, energy_tolerance)[0]


def stationarity_residual(solution: EVSolution) -> float:
    """Largest violation of the first-order optimality conditions, at the
    prices the solution was solved at, with the weight, box and rate of the
    workspace's constants.

    Interior slots must satisfy ``w/(1+p) = price + mu*rate`` exactly;
    slots at a bound only need the sign of that gradient to point outward.
    """
    p = solution.power
    batch, i = solution._batch, solution._index
    lam = np.asarray(batch.prices[: p.size])
    _, w, lo, hi, rate = batch.workspace._constants[i][:5]
    grad = w / (1.0 + p) - lam - solution.energy_multiplier * rate
    edge = 1e-9 * max(1.0, hi - lo)
    at_lo = p <= lo + edge
    at_hi = p >= hi - edge
    res = np.abs(grad)
    res = np.where(at_lo, np.maximum(grad, 0.0), res)
    res = np.where(at_hi, np.maximum(-grad, 0.0), res)
    return float(res.max()) if res.size else 0.0

"""Supplier subproblem: joint generation and storage dispatch at given prices.

The supplier maximizes ``sum_t [price(t) * P_l(t) - C(P_l(t) - P_s(t))]`` minus
a quadratic penalty for letting the stored energy drift away from its
reference, over box bounds on both generation ``P_l`` and storage power
``P_s``.  The objective is a strictly concave quadratic.

When the storage box is pinned (``power_min == power_max``; validation forces
both to 0, as for a scenario without storage) the problem separates per slot
and :func:`solve_dso` solves it in closed form itself, in plain floats:
``P_s`` sits at the pinned value and ``P_l = clip(P_s + (price -
linear_cost) / (2 * quadratic_cost))`` on the generation box, the clip written
out with NumPy's rules for ties, signed zeros and NaN.  Otherwise primal-dual
active-set rounds solve it (Hintermüller, Ito & Kunisch, SIAM J. Optim.
2002).  A negotiation's :class:`DSOSubproblem`, built once for its window,
holds what every solve on it shares: the pinned test, and the linear cost,
the boxes as float lists, the coupling and the storage block's linear term,
which the closed form and the rounds both read.  Each round's active set
(:class:`_ActiveSet`) holds its free and held entries and the elimination of
its Newton system.  In the stored energy after each slot and its costate,
that system is tridiagonal, one row per slot, the structure fast MPC solvers
exploit (Rao, Wright & Rawlings, J. Optim. Theory Appl. 1998).  A Riccati
recursion eliminates it from the last slot as the set is built, so on an
active set the one Newton step is one backward and one forward sweep in
plain floats: O(n), with no matrix built or inverted.

The first set comes from the start: the last price round's solution carries
its own, and a slot's first call reads it off the zero point, each entry
outside the box held on the bound it crossed; nothing outlives a negotiation.
Each round takes the Newton step on its set and returns the point if it lies
in the box and passes the certificate.  Otherwise the next set holds each
free entry that left the box on the bound it crossed, and releases each held
entry whose gradient ``g - Q z`` points into the box.  Prices move little
between rounds, so the first round usually settles a warm call, and the
bookkeeping of later rounds is set up only when it does not.  When a set
repeats, or after twice as many rounds as the point has entries, each round
makes only the lowest-index of those changes (Júdice & Pires, Comput. Oper.
Res. 1994).  The rounds are bounded by the window length; a singular set, a
NaN entry, no change left or the bound raises :class:`ConvergenceError`.
Every answer is certified by one O(n) plain-float check of its
projected-stationarity residual, written from the Hessian's structure, and
handed back as float lists, held once; the objective value is computed only
when it is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import DSOSpec, SolverConfig, StorageSpec, TimeGrid

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
    energy.  It holds no prices: each solve is given the window list.

    What every solve on it shares is derived once, when it is built, as plain
    attributes: every solve reads them, and a cached property reads slower.
    ``pinned`` is whether the closed form solves it (a pinned storage box and
    a strictly convex cost).  The rest describes the problem ``max g.z -
    z.Q.z / 2`` on the stacked point ``z = (P_l, P_s)`` with ``g = (price -
    lin, storage_g)``, which the active-set rounds solve; ``lower`` and
    ``upper`` are its box and ``coupling`` twice the quadratic cost.  The
    closed form reads the pinned storage power ``lower[n]``, ``lin``, the
    generation box ``lower[0]`` and ``upper[0]``, and ``coupling``.
    """

    dso: DSOSpec
    storage: StorageSpec
    energy_now: float
    window: TimeGrid

    def __post_init__(self) -> None:
        dso, st = self.dso, self.storage
        n = self.window.length
        # ``rate`` is the energy one kW of storage power moves in a slot,
        # ``drift`` the stored energy's deviation from its reference and
        # ``weight`` the tracking penalty's gradient per kWh of deviation.
        rate = st.throughput * self.window.slot_hours
        drift = self.energy_now - st.energy_reference
        weight = 2.0 * st.tracking_weight * rate
        scale = weight * drift
        lin = dso.cost_linear
        # Q z = (c (P_l - P_s), -c (P_l - P_s) + r overlap @ P_s): ``coupling``
        # is c, ``tracking`` is r and ``overlap[i, j] = n - max(i, j)``.
        coupling = 2.0 * dso.cost_quadratic
        derived = dict(
            pinned=st.power_min == st.power_max and dso.cost_quadratic > 0,
            n=n, lin=lin, rate=rate, drift=drift, weight=weight, coupling=coupling,
            lower=[dso.power_min] * n + [st.power_min] * n,
            upper=[dso.power_max] * n + [st.power_max] * n,
            storage_g=[lin + scale * k for k in range(n, 0, -1)],
            tracking=weight * rate,
        )
        # One by one: writing through ``__dict__`` would slow every later read.
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def active_set(self, point: list[float]) -> _ActiveSet:
        """The active set of ``point``: each entry on or past a bound held
        on it, the rest free (a NaN entry too), so a point and its clip to
        the box have one set."""
        lower, upper = self.lower, self.upper
        sides = tuple(
            -1 if v <= lower[i] else 1 if v >= upper[i] else 0 for i, v in enumerate(point)
        )
        return _ActiveSet(self, sides)

    def certificate(self, point: list[float], lam: list[float]) -> float:
        """The projected-stationarity residual of ``point`` at ``lam``:
        ``max |z - clip(z + g - Q z)|``, NaN if any entry's is.

        O(n) in plain floats: ``Q z`` is written out from Q's structure, the
        product of the tracking block's ``overlap`` with ``P_s`` as the suffix
        sums of the prefix sums of ``P_s``.  The clip and the max follow
        NumPy's rules for ties and NaN.
        """
        n, lin, coupling, tracking = self.n, self.lin, self.coupling, self.tracking
        g_storage = self.storage_g
        gen_lo, gen_hi = self.lower[0], self.upper[0]
        st_lo, st_hi = self.lower[n], self.upper[n]
        prefix = []
        acc = 0.0
        i = n
        while i < 2 * n:
            acc += point[i]
            prefix.append(acc)
            i += 1
        # Slot by slot from the last, with the suffix sum of the prefix sums.
        residual = 0.0
        tail = 0.0
        i = n - 1
        while i >= 0:
            tail += prefix[i]
            x, s = point[i], point[n + i]
            d = coupling * (x - s)
            y = x + (lam[i] - lin - d)
            y = y if y > gen_lo or y != y else gen_lo
            y = y if y < gen_hi or y != y else gen_hi
            gap = abs(x - y)
            if not gap <= residual and residual == residual:
                residual = gap
            y = s + (g_storage[i] + d - tracking * tail)
            y = y if y > st_lo or y != y else st_lo
            y = y if y < st_hi or y != y else st_hi
            gap = abs(s - y)
            if not gap <= residual and residual == residual:
                residual = gap
            i -= 1
        return residual

    def slope(self, point: list[float], lam: list[float]) -> list[float]:
        """The gradient ``g - Q z`` of the objective at ``point``, a float
        list over the stacked entries, with :meth:`certificate`'s algebra."""
        n, lin, coupling, tracking = self.n, self.lin, self.coupling, self.tracking
        g_storage = self.storage_g
        prefix = []
        acc = 0.0
        for v in point[n:]:
            acc += v
            prefix.append(acc)
        out = [0.0] * (2 * n)
        tail = 0.0
        for i in range(n - 1, -1, -1):
            tail += prefix[i]
            d = coupling * (point[i] - point[n + i])
            out[i] = lam[i] - lin - d
            out[n + i] = g_storage[i] + d - tracking * tail
        return out

    def next_sides(
        self, active: _ActiveSet, point: list[float], lam: list[float]
    ) -> tuple[int, ...] | None:
        """The sides of the round after ``active``'s Newton point ``point``:
        each free entry that left the box held on the bound it crossed, each
        held entry whose gradient points into the box released; an entry
        whose box is one point stays held.  None if a free entry is NaN."""
        lower, upper = self.lower, self.upper
        sides = list(active.sides)
        for i in active.free:
            v = point[i]
            if v < lower[i]:
                sides[i] = -1
            elif v > upper[i]:
                sides[i] = 1
            elif v != v:
                return None
        slope = self.slope(point, lam)
        for i, side in enumerate(active.sides):
            if (side < 0 and slope[i] > 0 or side > 0 and slope[i] < 0) and lower[i] < upper[i]:
                sides[i] = 0
        return tuple(sides)


@dataclass(eq=False)
class DSOSolution:
    """Optimal dispatch at ``prices`` (the broadcast it was solved for).

    ``generation_values`` and ``storage_values`` are float lists over the
    window, the answer's one copy; the price loop reads the former, and a
    settled slot the first entry of both.  ``objective`` is computed on
    first access.  A solve with storage also sets ``active``,
    the active set of the point: passed back as ``start`` on the same
    subproblem, the solution starts the next round from it.  One is made per
    dual iteration, so it is a plain dataclass: a frozen one takes about
    three times as long to construct.
    """

    generation_values: list[float]
    storage_values: list[float]
    kkt_residual: float
    sub: DSOSubproblem
    prices: Sequence[float]
    active: _ActiveSet | None = None

    @cached_property
    def objective(self) -> float:
        return _objective(
            self.sub,
            np.asarray(self.prices),
            np.asarray(self.generation_values),
            np.asarray(self.storage_values),
        )

    def loss_at(self, generation: Sequence[float]) -> float:
        """What the supplier gives up by generating ``generation`` instead of
        its answer, its storage kept: ``objective`` minus the objective there."""
        lam, other = np.asarray(self.prices), np.asarray(generation, dtype=float)
        return self.objective - _objective(self.sub, lam, other, np.asarray(self.storage_values))


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
    values = np.asarray(storage_power, dtype=float)
    if values.size != grid.length:
        raise ValueError("profile length must equal the window length")
    moved = storage.throughput * grid.slot_hours * np.cumsum(values)
    dev = energy_now - moved - storage.energy_reference
    return float(np.dot(dev, dev))


# Active-set rounds per entry of the point before a supplier solve is
# reported as stalled (see :func:`_rounds`).  Cold solves on windows of 1-96
# slots, with tracking weights from 1e-4 to 1e3, took at most 3.3 per entry:
# 309 rounds on a 47-slot window.
_ROUNDS_PER_ENTRY = 8


class _ActiveSet:
    """One active set of a negotiation and the elimination of its Newton
    system, which does not move with the prices.

    ``sides`` holds entry ``i`` on its lower bound where it is -1, on its
    upper bound where it is 1 and free where it is 0; ``free`` lists the
    free entries in ascending order and ``base`` is a point with the held
    entries on their bounds.  The Newton point sets the free
    entries' gradient to zero.  Write ``e_t`` for the stored energy's
    deviation after slot ``t`` (``e_t = e_(t-1) - d s_t`` from ``e_-1``, the
    subproblem's ``drift``, with ``d`` its ``rate``) and ``P_t = q (e_t + ... +
    e_(n-1))`` for the costate, ``q`` the subproblem's ``weight``.  The storage
    entry's gradient is then ``lin + P_t + c (x_t - s_t)``, so slot ``t``
    gives one relation:

    - storage and generation free: ``P_t = -lam_t``;
    - generation held on ``x_t``: ``s_t = x_t + (lin + P_t) / c``;
    - storage held on ``s_t``: none, ``s_t`` is known.

    Free generation follows as ``s_t + (lam_t - lin) / c``.  With ``P_t = M_t
    e_t + k_(t+1)``, ``M_t = K_(t+1) + q``, eliminating from the last slot
    (a Riccati recursion on this tridiagonal system) gives ``P_t = K_t e_(t-1)
    + k_t``, where only ``k`` moves with the prices: ``k_t = -lam_t`` on a
    free slot and ``a_t k_(t+1) + b_t`` on the others.  ``rows`` holds, per
    slot, ``(priced, K_t, a_t, b_t, 1 / M_t)``, priced on a free slot.  It is
    None if the set is singular, ``M_t`` zero on a free slot (only a zero
    tracking weight gives one), or if an entry is free and ``c`` is zero.
    """

    __slots__ = ("sides", "free", "base", "rows", "generation", "coupling", "rate", "drift")

    def __init__(self, sub: DSOSubproblem, sides: tuple[int, ...]):
        n, c, rate, q = sub.n, sub.coupling, sub.rate, sub.weight
        lower, upper = sub.lower, sub.upper
        base = [
            lower[i] if side < 0 else upper[i] if side > 0 else 0.0 for i, side in enumerate(sides)
        ]
        self.sides, self.base = sides, base
        self.coupling, self.rate, self.drift = c, rate, sub.drift
        self.free = tuple(i for i, side in enumerate(sides) if side == 0)
        self.generation = tuple(t for t in range(n) if sides[t] == 0)
        rows = [None] * n
        gain = 0.0
        try:
            for t in range(n - 1, -1, -1):
                m = gain + q
                if sides[n + t]:
                    gain = m
                    rows[t] = (False, gain, 1.0, -m * rate * base[n + t], 0.0)
                elif sides[t]:
                    h = c / (c + m * rate)
                    gain = m * h
                    rows[t] = (False, gain, h, -h * m * rate * (base[t] + sub.lin / c), 0.0)
                else:
                    gain = 0.0
                    rows[t] = (True, gain, 0.0, 0.0, 1.0 / m)
        except ZeroDivisionError:
            rows = None
        self.rows = rows if c or not self.free else None

    def newton(self, lam: list[float], lin: float) -> list[float] | None:
        """The Newton point at the window list ``lam``: ``base`` with the free
        entries from one backward sweep for ``k`` and one forward sweep for
        ``e``; None if the set is singular.  Plain floats, so prices near the
        float limit may give infinite or NaN entries, without a warning."""
        rows = self.rows
        if rows is None:
            return None
        n = len(rows)
        k = [0.0] * (n + 1)
        for t in range(n - 1, -1, -1):
            priced, _, a, b, _ = rows[t]
            k[t] = -lam[t] if priced else a * k[t + 1] + b
        c, rate, sides = self.coupling, self.rate, self.sides
        point = self.base[:]
        e = self.drift
        for t, (priced, gain, _, _, inverse) in enumerate(rows):
            if priced:
                after = (-lam[t] - k[t + 1]) * inverse
                point[n + t] = (e - after) / rate
                e = after
            else:
                if not sides[n + t]:
                    point[n + t] = point[t] + (lin + (gain * e + k[t])) / c
                e = e - rate * point[n + t]
        for t in self.generation:
            point[t] = point[n + t] + (lam[t] - lin) / c
        return point


def solve_dso(
    sub: DSOSubproblem,
    prices: Sequence[float],
    kkt_tolerance: float = SolverConfig.kkt_tolerance,
    start: DSOSolution | tuple[Sequence[float], Sequence[float]] | None = None,
) -> DSOSolution:
    """Return the unique maximizer of the supplier objective on the boxes at
    ``prices``, the window list (see :meth:`~evmarket.model.TimeGrid.price_list`):
    a list of the window's length is kept as it is, without the call.

    A pinned storage box is solved here in closed form, slot by slot, with the
    clip written out as ``np.minimum(np.maximum(x, lo), hi)`` (a NaN stays NaN,
    a tie takes the bound); its residual, of one clipped gradient step, is
    ``np.abs(gaps).max()``, NaN if any gap is.  Any other box is solved by
    primal-dual active-set rounds (see :func:`_rounds`).  ``start`` names the
    rounds' first set: the coordinator passes the last price round's solution
    on ``sub``, whose active set carries over, and nothing for a slot's first
    call, whose set is read off the zero point; a solution on another
    subproblem raises ``ValueError``.  A ``(generation, storage)`` pair over
    the window has its set read off its point, each entry outside the box held
    on the bound it crossed.  Nothing is built per call: the rounds read the
    data ``sub`` derived when it was built.  The first point that lies in the
    box and whose certificate is within ``kkt_tolerance`` is returned, so
    ``start`` never changes the answer beyond that tolerance.
    Raises :class:`ConvergenceError` if the rounds stall or reach their bound
    of ``_ROUNDS_PER_ENTRY`` per entry of the point, or if the closed form's
    residual misses ``kkt_tolerance`` or is not finite.
    """
    lam, n = prices, sub.n
    if type(lam) is not list or len(lam) != n:
        lam = sub.window.price_list(prices)
    if sub.pinned:
        pin, lin, lo, hi, scale = sub.lower[n], sub.lin, sub.lower[0], sub.upper[0], sub.coupling
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
        if not residual <= kkt_tolerance:
            raise ConvergenceError(f"supplier closed form left residual {residual:.3e}", residual)
        return DSOSolution(gen, [pin] * n, residual, sub, lam)
    if type(start) is DSOSolution:
        if start.sub is not sub:
            raise ValueError("start was solved on another subproblem")
        active = start.active
    else:
        point = [0.0] * (2 * n) if start is None else [*start[0], *start[1]]
        active = sub.active_set(point)
    point, residual, active = _rounds(sub, active, lam, kkt_tolerance)
    return DSOSolution(point[:n], point[n:], residual, sub, lam, active)


def _rounds(
    sub: DSOSubproblem, active: _ActiveSet, lam: list[float], kkt_tolerance: float
) -> tuple[list[float], float, _ActiveSet]:
    """Primal-dual active-set rounds from ``active`` at ``lam``.

    Each round takes its set's Newton point and returns it, with its residual
    (:meth:`DSOSubproblem.certificate`) and its active set (the round's,
    unless a free entry landed on a bound), if it lies in the box and the
    residual is within ``kkt_tolerance``.  Otherwise the next round's set comes
    from :meth:`DSOSubproblem.next_sides`, all its changes at once, until a
    set repeats or twice as many sets as the point has entries were met.
    From then on each round makes only the lowest-index change of
    ``next_sides``: the least-index single pivot, which Júdice & Pires
    (Comput. Oper. Res. 1994) use to safeguard block pivoting, is finite on a
    positive definite Q, though not in a number of rounds linear in ``n``.
    Raises :class:`ConvergenceError` with the last residual read (inf if
    none was) when the set is singular, a free entry is NaN, no side
    is left to change, or after ``_ROUNDS_PER_ENTRY`` rounds per entry of
    the point.  Most warm calls settle in the first round, so the repeat
    set and the round bound are set up only once it misses.
    """
    lower, upper = sub.lower, sub.upper
    seen = None
    single = False
    residual = math.inf
    rounds = 1
    while True:
        point = active.newton(lam, sub.lin)
        if point is None:
            break
        interior = True
        for i in active.free:
            v = point[i]
            if not lower[i] < v < upper[i]:
                interior = False
                if not lower[i] <= v <= upper[i]:
                    break
        else:
            residual = sub.certificate(point, lam)
            if residual <= kkt_tolerance:
                return point, residual, active if interior else sub.active_set(point)
        if seen is None:
            bound, seen = _ROUNDS_PER_ENTRY * len(lower), set()
        if rounds == bound:
            break
        sides = sub.next_sides(active, point, lam)
        if sides is None:
            break
        seen.add(active.sides)
        single = single or sides in seen or len(seen) == 2 * len(lower)
        if single:
            for i, side in enumerate(active.sides):
                if sides[i] != side:
                    sides = active.sides[:i] + (sides[i],) + active.sides[i + 1 :]
                    break
            else:
                break
        active = _ActiveSet(sub, sides)
        rounds += 1
    raise ConvergenceError(
        f"supplier solve stalled at residual {residual:.3e} in round {rounds} of "
        f"{_ROUNDS_PER_ENTRY * len(lower)}",
        residual,
    )


@np.errstate(over="ignore", invalid="ignore")
def _objective(sub: DSOSubproblem, lam: np.ndarray, gen: np.ndarray, ps: np.ndarray) -> float:
    net = gen - ps
    revenue = float(lam @ gen)
    cost = float(np.sum(generation_cost(net, sub.dso.cost_quadratic, sub.dso.cost_linear)))
    tracking = storage_tracking_penalty(sub.energy_now, ps, sub.storage, sub.window)
    return revenue - cost - sub.storage.tracking_weight * tracking

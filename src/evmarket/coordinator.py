"""Price coordination for one time slot.

The coordinator broadcasts a price vector, collects the vehicles' demand and
the supplier's offer, and moves the prices against the balance violation
``supply - demand`` (which is exactly the gradient of the dual function),
projecting onto nonnegative prices.  It stops when the worst per-slot
imbalance falls below the balance tolerance.

Only prices flow toward the agents and only power curves (plus the private
objective values summed into the dual value) flow back; the coordinator never
sees utilities, costs or battery states.  The loop itself reads only the
imbalance, so the agents' objectives and the dual value are computed on first
access, and only for a state that is read.  Agent solves within one iteration
are independent of each other and could run concurrently; they are evaluated
in a fixed order here so that runs stay bit-reproducible.

Windows are a few slots long, so inside the loop the broadcast prices, the
demand, the supply and the residual are lists of floats, and the loop makes
two float passes over the window per evaluation with NumPy's arithmetic, NaN
included: the residual pass, which also takes the residual norm, and the
price update, its clip at zero written out inline.  On lists this short a
zip, a range or a comprehension costs more than the arithmetic, so these
loops index with a counter.
One :class:`DualIterationState` per evaluation holds the lists, the norm
and the agents' solutions; the loop warm-starts each evaluation from the last
one and returns the state it settled at, whose lists the slot is settled
from.  The agents' arrays and objectives are built on first access from that
state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .dso_agent import ConvergenceError, DSOSolution, DSOSubproblem, solve_dso
from .ev_agent import EVBatchWorkspace, EVSolution
from .model import EVSession, SolverConfig
from .model import loop_problems

__all__ = [
    "DualIterationState",
    "update_price",
    "evaluate_dual",
    "negotiate_slot",
]


@dataclass(eq=False)
class DualIterationState:
    """One evaluation of the dual function, and the state a negotiation settles at.

    The prices, demand, supply and residual are lists of floats over the
    window, and ``ev_solutions`` and ``dso_solution`` the agents' answers at
    those prices; ``dual_value``, the sum of the agents' objectives, and
    ``duality_gap`` are built on first access.  ``iterations`` counts the
    price updates before this evaluation, and ``residual_norm`` is the worst
    per-slot imbalance, ``np.abs(residual_values).max()`` (NaN if any entry
    is, and NaN on a state built without it).
    :func:`negotiate_slot` sets the outcome fields on the state it returns:
    ``residual_history`` holds the residual norm of every accepted iteration,
    and ``supplier_error`` is the message of a supplier failure, a non-finite
    imbalance or an overflowing price update that ended the loop early, else
    ``None``.  One is made per dual iteration, so it is a plain dataclass.
    """

    iterations: int
    price_values: list[float]
    demand_values: list[float]
    supply_values: list[float]
    residual_values: list[float]
    ev_solutions: Sequence[EVSolution]
    dso_solution: DSOSolution
    residual_norm: float = math.nan
    converged: bool = False
    residual_history: tuple[float, ...] = ()
    supplier_error: str | None = None

    @cached_property
    def dual_value(self) -> float:
        ev_value = float(self.ev_solutions.objective.sum()) if self.ev_solutions else 0.0
        return self.dso_solution.objective + ev_value

    @cached_property
    def duality_gap(self) -> float:
        """``dual_value`` minus the welfare of the recovered point: the
        vehicles' powers, the supplier's storage and generation equal to the
        demand.  The supplier reports it as its loss at that generation, so
        no cost reaches the coordinator.  With every answer optimal and the
        demand inside the generation box, the point is feasible and the gap
        bounds its distance to the optimum (weak duality)."""
        return self.dso_solution.loss_at(self.demand_values)


def update_price(prices: list[float], residual: list[float], step: float) -> list[float]:
    """Move prices against the balance violation, clipped at zero.

    The clip is ``np.maximum(v, 0.0)`` written out: a NaN imbalance gives a
    NaN price, and a tie (either zero) gives ``0.0``.
    """
    if len(prices) != len(residual):
        raise ValueError("price and residual lengths differ")
    out = []
    i = 0
    for x in prices:
        v = x - step * residual[i]
        out.append(v if v > 0.0 or v != v else 0.0)
        i += 1
    return out


def evaluate_dual(
    prices: list[float],
    sessions: Sequence[EVSession],
    dso_sub: DSOSubproblem,
    solver: SolverConfig = SolverConfig(),
    last: DualIterationState | None = None,
) -> DualIterationState:
    """Solve every agent at ``prices`` and assemble the imbalance.

    Of ``solver`` only the agents' tolerances are read: the supplier solves to
    ``solver.kkt_tolerance`` and a vehicle workspace built here to
    ``solver.energy_tolerance``.  ``prices`` is the float list broadcast over
    ``dso_sub.window``, the one window of the supplier and the vehicles; a list
    of another length raises ``ValueError`` from the solves.  The vehicles
    answer over the whole window, each zero past its departure.  The pass
    that forms the residual also takes its norm by NumPy's rule: Python's
    ``max`` drops a NaN that is not its first argument, so the norm is
    written out, and a NaN imbalance, once met, stays the norm and never reads
    as a small number.  The dual value is the sum of the agents' optimal
    objectives, computed when it is first read.  ``last``, the previous
    iteration's state on the same agents, lends its vehicle workspace and its
    iteration count plus one, and warm-starts the agents: each vehicle's
    multiplier search from a tangent prediction along the price move (see
    :mod:`evmarket.ev_agent`), the supplier from its last solution, whose
    active set carries over (see :mod:`evmarket.dso_agent`).  Without it the
    vehicle workspace is built, each vehicle starts from the even spread of
    its requirement and the supplier from the zero point.
    """
    if sessions:
        workspace = last.ev_solutions.workspace if last else EVBatchWorkspace(
            sessions, dso_sub.window, solver.energy_tolerance
        )
        workspace.load_prices(prices)
        ev_solutions = workspace.solve(last and last.ev_solutions)
        demand = ev_solutions.demand
    else:
        ev_solutions, demand = (), [0.0] * dso_sub.window.length
    dso_solution = solve_dso(dso_sub, prices, solver.kkt_tolerance, last and last.dso_solution)

    supply = dso_solution.generation_values
    residual = []
    norm = 0.0
    i = 0
    for g in supply:
        r = g - demand[i]
        residual.append(r)
        r = abs(r)
        if not r <= norm and norm == norm:
            norm = r
        i += 1
    iterations = last.iterations + 1 if last else 0
    return DualIterationState(
        iterations, prices, demand, supply, residual, ev_solutions, dso_solution, norm
    )


def negotiate_slot(
    sessions: Sequence[EVSession],
    dso_sub: DSOSubproblem,
    start: Sequence[float],
    solver: SolverConfig = SolverConfig(),
) -> DualIterationState:
    """Run the price loop for one slot from the price list ``start``.

    The vehicles ``sessions`` and the supplier share ``dso_sub.window``.  The
    first rule of :func:`~evmarket.model.loop_problems` that ``solver``
    breaks, or a ``start`` that is not a window price list of finite,
    nonnegative entries, raises ``ValueError``.  The list is the first
    broadcast and all the loop takes from earlier slots: the agents' first
    solves start from scratch, to ``solver``'s tolerances.  Iterates agent
    solves and price updates by ``solver.step_size`` until the worst
    per-slot imbalance is within ``solver.balance_tolerance`` or
    ``solver.max_iterations`` price updates have been spent, and returns the
    state of the iteration it settled at, with its outcome fields set.  The
    returned powers and dual value therefore always come from a full agent
    solve at the returned prices.
    Non-convergence is flagged, never raised, and the caller decides policy: a
    supplier solve that fails with
    :class:`~evmarket.dso_agent.ConvergenceError`, or a non-finite imbalance,
    at iteration ``k >= 1`` returns the state of iteration ``k - 1`` with
    ``converged=False`` and the failure's message in ``supplier_error``.  A
    failure at iteration 0 leaves no state to settle at and propagates as
    :class:`~evmarket.dso_agent.ConvergenceError`.  A price update after
    iteration ``k`` that overflows to ``inf``, or whose first price does in
    the per-kWh unit a slot is recorded in (over
    ``dso_sub.window.slot_hours``), is never broadcast: the state of
    iteration ``k`` is returned, flagged the same way.
    """
    for problem in loop_problems(solver):
        raise ValueError(problem)
    prices = dso_sub.window.price_list(start)
    if not all(0.0 <= price < math.inf for price in prices):
        raise ValueError(f"start prices must be finite and nonnegative, not {prices}")
    tolerance, hours = solver.balance_tolerance, dso_sub.window.slot_hours
    cap, step, inf = solver.max_iterations, solver.step_size, math.inf
    history: list[float] = []
    state = None
    supplier_error = None
    for k in range(cap + 1):
        try:
            next_state = evaluate_dual(prices, sessions, dso_sub, solver, state)
            norm = next_state.residual_norm
            if not norm <= tolerance and (norm != norm or norm == inf):
                message = f"non-finite balance residual ({norm}) at iteration {k}"
                raise ConvergenceError(message, norm)
        except ConvergenceError as exc:
            # A supplier failure or a non-finite imbalance after the first
            # iteration settles the slot at the previous iteration, flagged as
            # not converged.
            if state is None:
                raise
            supplier_error = str(exc)
            break
        state = next_state
        history.append(norm)
        if norm <= tolerance or k == cap:
            break
        prices = update_price(prices, state.residual_values, step)
        if inf in prices or not prices[0] / hours < inf:
            # No agent is solved at an infinite price, and no slot records
            # one per kWh: the slot settles here.
            supplier_error = f"price update overflowed (inf) at iteration {k}"
            break

    assert state is not None
    state.converged = history[-1] <= tolerance
    state.residual_history = tuple(history)
    state.supplier_error = supplier_error
    return state

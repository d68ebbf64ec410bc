"""Price coordination for one time slot.

The coordinator broadcasts a price vector, collects the vehicles' demand and
the supplier's offer, and moves the prices against the balance violation
``supply - demand`` (which is exactly the gradient of the dual function),
projecting onto nonnegative prices.  It stops when the worst per-slot
imbalance falls below the balance tolerance.

Only prices flow toward the agents and only power curves (plus the private
objective values summed into the dual value) flow back; the coordinator never
sees utilities, costs or battery states.  The loop itself reads only the
imbalance, so the agents' objectives and the dual value are computed once per
negotiation, for the state that is returned.  Agent solves within one iteration
are independent of each other and could run concurrently; they are evaluated
in a fixed order here so that runs stay bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dso_agent import DSOSolution, DSOSubproblem, solve_dso
from .ev_agent import EVBatchWorkspace, EVSolution, EVSubproblem
from .model import PowerProfile, PriceVector, Tolerances

__all__ = [
    "ConvergenceConfig",
    "DualIterationState",
    "NegotiationResult",
    "update_price",
    "evaluate_dual",
    "negotiate_slot",
]


@dataclass(frozen=True)
class ConvergenceConfig:
    """Settings of the price-adjustment loop.

    ``step_size`` is in price units per kW of imbalance.  With the
    ``diminishing`` schedule the step at iteration ``k`` is
    ``step_size / sqrt(k + 1)``.
    """

    step_size: float = 0.005
    balance_tolerance: float = 0.1
    max_iterations: int = 2000
    step_schedule: str = "constant"

    def __post_init__(self) -> None:
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.balance_tolerance <= 0:
            raise ValueError("balance_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.step_schedule not in ("constant", "diminishing"):
            raise ValueError("step_schedule must be 'constant' or 'diminishing'")

    def step_at(self, k: int) -> float:
        if self.step_schedule == "diminishing":
            return self.step_size / math.sqrt(k + 1)
        return self.step_size


@dataclass(frozen=True, eq=False)
class DualIterationState:
    """Everything produced by one evaluation of the dual function, as plain
    arrays; ``demand``, ``supply`` and ``residual`` wrap them on access, and
    ``dual_value`` sums the agents' objectives on first access."""

    iteration: int
    price_values: np.ndarray
    demand_values: np.ndarray
    supply_values: np.ndarray
    residual_values: np.ndarray
    ev_solutions: Sequence[EVSolution]
    dso_solution: DSOSolution

    @cached_property
    def dual_value(self) -> float:
        ev_value = float(self.ev_solutions.objective.sum()) if self.ev_solutions else 0.0
        return self.dso_solution.objective + ev_value

    @property
    def demand(self) -> PowerProfile:
        return PowerProfile(self.demand_values)

    @property
    def supply(self) -> PowerProfile:
        return PowerProfile(self.supply_values)

    @property
    def residual(self) -> PowerProfile:
        return PowerProfile(self.residual_values)

    @property
    def residual_norm(self) -> float:
        return float(np.abs(self.residual_values).max())


@dataclass(frozen=True, eq=False)
class NegotiationResult:
    """Final state of one slot's negotiation."""

    prices: PriceVector
    demand: PowerProfile
    supply: PowerProfile
    storage_power: PowerProfile
    ev_profiles: tuple[PowerProfile, ...]
    ev_solutions: tuple[EVSolution, ...]
    iterations: int
    residual: PowerProfile
    residual_norm: float
    converged: bool
    dual_value: float
    residual_history: tuple[float, ...]


def update_price(prices, residual, step: float):
    """Move prices against the balance violation, clipped at zero.

    Plain arrays in give an array out (as in the price loop); a
    :class:`PriceVector` in gives a :class:`PriceVector` out.
    """
    lam = getattr(prices, "values", prices)
    imbalance = getattr(residual, "values", residual)
    if len(lam) != len(imbalance):
        raise ValueError("price and residual lengths differ")
    out = np.maximum(lam - step * imbalance, 0.0)
    return PriceVector(out) if isinstance(prices, PriceVector) else out


def _check_windows(ev_subs: Sequence[EVSubproblem], dso_sub: DSOSubproblem) -> None:
    for sub in ev_subs:
        if sub.window.start != dso_sub.window.start or sub.window.length > dso_sub.window.length:
            raise ValueError("vehicle windows must be embedded in the coordination window")


def evaluate_dual(
    prices,
    ev_subs: Sequence[EVSubproblem],
    dso_sub: DSOSubproblem,
    eps: Tolerances = Tolerances(),
    iteration: int = 0,
    mu_hints: np.ndarray | None = None,
    dso_start: tuple[np.ndarray, np.ndarray] | None = None,
    workspace: EVBatchWorkspace | None = None,
) -> DualIterationState:
    """Solve every agent subproblem at ``prices`` and assemble the imbalance.

    ``prices`` is a :class:`PriceVector` or a plain array over the
    coordination window.  Vehicle subproblems see the leading slice covering
    their own window (the carried price fields are replaced); vehicles
    contribute zero demand past their departure.  The dual value is the sum of
    the agents' optimal objectives, computed when it is first read.  A caller
    passing ``workspace`` has already checked that it holds ``ev_subs`` inside
    the window.
    """
    lam = getattr(prices, "values", prices)
    n = dso_sub.window.length
    if len(lam) != n:
        raise ValueError("price vector length must equal the coordination window")

    demand = np.zeros(n)
    ev_solutions: Sequence[EVSolution] = ()
    if ev_subs:
        if workspace is None:
            _check_windows(ev_subs, dso_sub)
            workspace = EVBatchWorkspace(ev_subs)
        workspace.load_prices(lam)
        ev_solutions = workspace.solve(eps=eps, mu_hints=mu_hints)
        demand[: workspace.width] = ev_solutions.power.sum(axis=0)
    dso_solution = solve_dso(dso_sub, eps=eps, start=dso_start, prices=lam)

    supply = dso_solution.point[:n]
    return DualIterationState(
        iteration=iteration,
        price_values=lam,
        demand_values=demand,
        supply_values=supply,
        residual_values=supply - demand,
        ev_solutions=ev_solutions,
        dso_solution=dso_solution,
    )


def negotiate_slot(
    ev_subs: Sequence[EVSubproblem],
    dso_sub: DSOSubproblem,
    warm_start_price: float,
    config: ConvergenceConfig = ConvergenceConfig(),
    eps: Tolerances = Tolerances(),
) -> NegotiationResult:
    """Run the price loop for one slot from a constant warm-start vector.

    Iterates agent solves and price updates until the worst per-slot imbalance
    is within ``config.balance_tolerance`` or ``config.max_iterations`` price
    updates have been spent.  The returned powers and dual value always come
    from a full agent solve at the returned prices.  Non-convergence of the
    price loop is flagged, never raised, and the caller decides policy; a
    supplier solve that fails raises :class:`~evmarket.dso_agent.ConvergenceError`,
    which propagates.
    """
    n = dso_sub.window.length
    prices = np.full(n, max(warm_start_price, 0.0))

    _check_windows(ev_subs, dso_sub)
    history: list[float] = []
    workspace = EVBatchWorkspace(ev_subs) if ev_subs else None
    mu_hints: np.ndarray | None = None
    dso_start: tuple[np.ndarray, np.ndarray] | None = None
    state = None
    converged = False
    iterations = 0
    for k in range(config.max_iterations + 1):
        state = evaluate_dual(
            prices,
            ev_subs,
            dso_sub,
            eps=eps,
            iteration=k,
            mu_hints=mu_hints,
            dso_start=dso_start,
            workspace=workspace,
        )
        norm = state.residual_norm
        history.append(norm)
        iterations = k
        if norm <= config.balance_tolerance:
            converged = True
            break
        if k == config.max_iterations:
            break
        prices = update_price(prices, state.residual_values, config.step_at(k))
        if workspace is not None:
            mu_hints = state.ev_solutions.energy_multiplier
        point = state.dso_solution.point
        dso_start = (point[:n], point[n:])

    assert state is not None
    ev_solutions = tuple(state.ev_solutions)
    return NegotiationResult(
        prices=PriceVector(state.price_values),
        demand=state.demand,
        supply=state.supply,
        storage_power=state.dso_solution.storage_power,
        ev_profiles=tuple(sol.profile for sol in ev_solutions),
        ev_solutions=ev_solutions,
        iterations=iterations,
        residual=state.residual,
        residual_norm=history[-1],
        converged=converged,
        dual_value=state.dual_value,
        residual_history=tuple(history),
    )

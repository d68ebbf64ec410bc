"""Independent brute-force optimizers used as ground truth in tests.

Everything here searches feasible sets directly (grids, random sampling,
refinement) and never calls the production solvers, so agreement between the
two is meaningful.
"""
from __future__ import annotations

import numpy as np

from evmarket import DSOSubproblem, EVSession, TimeGrid
from evmarket.dso_agent import _objective


def dso_objective(
    sub: DSOSubproblem, prices, generation: np.ndarray, storage_power: np.ndarray
) -> float:
    """The supplier objective at any point, at the window's ``prices``."""
    return _objective(sub, np.asarray(prices, dtype=float), generation, storage_power)


def ev_objective(ses: EVSession, prices, profile: np.ndarray) -> float:
    """The vehicle objective of ``profile`` at the leading ``prices``."""
    lam = np.asarray(prices, dtype=float)[: len(profile)]
    return float(np.sum(ses.weight * np.log(1.0 + profile) - lam * profile))


def ev_bruteforce(
    ses: EVSession, window: TimeGrid, prices, step: float = 0.001
) -> tuple[np.ndarray, float]:
    """Grid search over the energy-feasible set of a vehicle charging on 1..3
    slots of ``window``, at the window's ``prices``."""
    lam = np.asarray(prices, dtype=float)
    n = ses.departure - window.start
    rate = ses.energy_rate(window.slot_hours)
    total = ses.energy_needed / rate
    lo, hi = ses.power_min, ses.power_max

    if n == 1:
        profile = np.array([total])
        return profile, ev_objective(ses, lam, profile)

    axis = np.arange(lo, hi + step / 2, step)
    if n == 2:
        p0 = axis
        p1 = total - p0
        ok = (p1 >= lo - 1e-12) & (p1 <= hi + 1e-12)
        p0, p1 = p0[ok], np.clip(p1[ok], lo, hi)
        values = (
            ses.weight * (np.log1p(p0) + np.log1p(p1))
            - lam[0] * p0
            - lam[1] * p1
        )
        best = int(np.argmax(values))
        profile = np.array([p0[best], p1[best]])
        return profile, float(values[best])

    if n == 3:
        coarse = np.arange(lo, hi + 0.02, 0.04)
        g0, g1 = np.meshgrid(coarse, coarse, indexing="ij")
        g2 = total - g0 - g1
        ok = (g2 >= lo - 1e-12) & (g2 <= hi + 1e-12)
        values = np.where(
            ok,
            ses.weight * (np.log1p(g0) + np.log1p(g1) + np.log1p(np.clip(g2, lo, hi)))
            - lam[0] * g0
            - lam[1] * g1
            - lam[2] * np.clip(g2, lo, hi),
            -np.inf,
        )
        flat = int(np.argmax(values))
        c0, c1 = np.unravel_index(flat, values.shape)
        # refine around the coarse optimum
        fine0 = np.arange(max(lo, coarse[c0] - 0.05), min(hi, coarse[c0] + 0.05) + step, step)
        fine1 = np.arange(max(lo, coarse[c1] - 0.05), min(hi, coarse[c1] + 0.05) + step, step)
        f0, f1 = np.meshgrid(fine0, fine1, indexing="ij")
        f2 = total - f0 - f1
        ok = (f2 >= lo - 1e-12) & (f2 <= hi + 1e-12)
        values = np.where(
            ok,
            ses.weight * (np.log1p(f0) + np.log1p(f1) + np.log1p(np.clip(f2, lo, hi)))
            - lam[0] * f0
            - lam[1] * f1
            - lam[2] * np.clip(f2, lo, hi),
            -np.inf,
        )
        flat = int(np.argmax(values))
        b0, b1 = np.unravel_index(flat, values.shape)
        profile = np.array([f0[b0, b1], f1[b0, b1], np.clip(f2[b0, b1], lo, hi)])
        return profile, float(values[b0, b1])

    raise ValueError("brute force supports at most 3 slots")


def dso_bruteforce_1slot(
    sub: DSOSubproblem, prices, step: float = 0.01
) -> tuple[float, float, float]:
    """Two-stage grid over the (generation, storage) box of a 1-slot problem
    at the window's ``prices``."""
    lam = float(prices[0])
    lo_g, hi_g = sub.dso.power_min, sub.dso.power_max
    lo_s, hi_s = sub.storage.power_min, sub.storage.power_max

    def sweep(g_axis, s_axis):
        gg, ss = np.meshgrid(g_axis, s_axis, indexing="ij")
        net = gg - ss
        cost = sub.dso.cost_quadratic * net * net + sub.dso.cost_linear * net
        dev = sub.energy_now - ss * sub.storage.throughput * sub.window.slot_hours \
            - sub.storage.energy_reference
        value = lam * gg - cost - sub.storage.tracking_weight * dev * dev
        flat = int(np.argmax(value))
        i, j = np.unravel_index(flat, value.shape)
        return float(gg[i, j]), float(ss[i, j]), float(value[i, j])

    coarse = 0.5
    g, s, _ = sweep(
        np.arange(lo_g, hi_g + coarse / 2, coarse), np.arange(lo_s, hi_s + coarse / 2, coarse)
    )
    g_axis = np.arange(max(lo_g, g - coarse), min(hi_g, g + coarse) + step / 2, step)
    s_axis = np.arange(max(lo_s, s - coarse), min(hi_s, s + coarse) + step / 2, step)
    return sweep(g_axis, s_axis)


def dso_bruteforce_storage(
    sub: DSOSubproblem, prices, step: float = 0.01
) -> tuple[np.ndarray, np.ndarray, float]:
    """Brute force over the storage plane of a 2-slot problem at the
    window's ``prices``.

    Generation is reduced out exactly: for fixed storage powers the objective
    is separable and quadratic in each generation sample, so the optimum is
    the clipped vertex.  The remaining search is an honest 2-D grid, each
    sweep one array over it with the objective written out for two slots;
    the chosen point is the grid's first maximum with ``s0`` the outer axis,
    and the value reported is :func:`dso_objective` there.
    """
    if sub.window.length != 2:
        raise ValueError("this oracle is for 2-slot problems")
    dso, storage = sub.dso, sub.storage
    lo_s, hi_s = storage.power_min, storage.power_max
    a, b = dso.cost_quadratic, dso.cost_linear
    lam = np.asarray(prices, dtype=float)
    rate = storage.throughput * sub.window.slot_hours

    def sweep(axis0, axis1):
        s0, s1 = np.meshgrid(axis0, axis1, indexing="ij")
        shift = (lam - b) / (2.0 * a)
        g0 = np.clip(s0 + shift[0], dso.power_min, dso.power_max)
        g1 = np.clip(s1 + shift[1], dso.power_min, dso.power_max)
        net0, net1 = g0 - s0, g1 - s1
        cost = (a * net0 * net0 + b * net0) + (a * net1 * net1 + b * net1)
        dev0 = sub.energy_now - rate * s0 - storage.energy_reference
        dev1 = sub.energy_now - rate * (s0 + s1) - storage.energy_reference
        value = (lam[0] * g0 + lam[1] * g1) - cost
        value = value - storage.tracking_weight * (dev0 * dev0 + dev1 * dev1)
        i, j = np.unravel_index(int(np.argmax(value)), value.shape)
        gen, ps = np.array([g0[i, j], g1[i, j]]), np.array([s0[i, j], s1[i, j]])
        return gen, ps, dso_objective(sub, lam, gen, ps)

    coarse_axis = np.arange(lo_s, hi_s + 0.25, 0.5)
    _, ps_c, _ = sweep(coarse_axis, coarse_axis)
    fine0 = np.arange(max(lo_s, ps_c[0] - 0.5), min(hi_s, ps_c[0] + 0.5) + step / 2, step)
    fine1 = np.arange(max(lo_s, ps_c[1] - 0.5), min(hi_s, ps_c[1] + 0.5) + step / 2, step)
    return sweep(fine0, fine1)


def random_feasible_ev(
    rng: np.random.Generator, ses: EVSession, window: TimeGrid
) -> np.ndarray | None:
    """A random point of the vehicle's feasible set on ``window`` (box and
    exact energy)."""
    n = ses.departure - window.start
    rate = ses.energy_rate(window.slot_hours)
    total = ses.energy_needed / rate
    lo, hi = ses.power_min, ses.power_max
    if not (n * lo - 1e-9 <= total <= n * hi + 1e-9):
        return None
    draw = rng.uniform(lo, hi, size=n)
    # project onto the sum constraint by bisecting a shift
    shift_lo, shift_hi = lo - hi - 1.0, hi - lo + 1.0
    for _ in range(80):
        mid = 0.5 * (shift_lo + shift_hi)
        s = np.clip(draw + mid, lo, hi).sum()
        if s > total:
            shift_hi = mid
        else:
            shift_lo = mid
    return np.clip(draw + 0.5 * (shift_lo + shift_hi), lo, hi)

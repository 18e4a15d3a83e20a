"""Exact social-optimum baseline: projected gradient over per-resource simplexes.

The feasibility set factors into one scaled simplex per resource (column sums
fixed at capacity, entries non-negative), so projection is cheap and the
strictly convex objective admits a unique minimizer. A brute-force grid search
validates the solver on tiny instances.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, PolyBatch

ACTIVE_TOL = 1e-6   # an agent at or below this share of a resource sits on its boundary


@dataclass(frozen=True)
class OptimalAllocation:
    x_star: np.ndarray      # (n, m)
    total_cost: float
    kkt_residual: float
    boundary_agents: tuple = ()   # (i, j) pairs pinned at zero, if any


def project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {y >= 0, sum(y) = total}."""
    if total <= 0:
        raise ConfigurationError("simplex total must be > 0")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    rho = np.nonzero(u > css / np.arange(1, v.size + 1))[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def kkt_residual(batch: PolyBatch, x: np.ndarray, capacities: np.ndarray) -> float:
    """Max per-resource spread of partials over active agents plus feasibility gap."""
    grads = batch.gradient(x)
    residual = 0.0
    for j in range(x.shape[1]):
        active = x[:, j] > ACTIVE_TOL
        if active.any():
            g = grads[active, j]
            residual = max(residual, float(g.max() - g.min()))
        residual = max(residual, abs(float(x[:, j].sum()) - float(capacities[j])))
    return residual


def solve_optimum(costs, resources, tol: float = 1e-7, max_iter: int = 500_000) -> OptimalAllocation:
    """Projected gradient descent with a 1/L step; fails loudly on non-convergence."""
    n, m = len(costs), len(resources)
    capacities = np.array([r.capacity for r in resources], dtype=float)
    batch = PolyBatch(costs)
    x = np.tile(capacities / n, (n, 1))   # feasible symmetric start

    # Lipschitz bound: curvature is monotone in each coordinate for positive
    # polynomials, so the max over the feasible box sits at the capacity corner.
    lip = max(float(batch.second_partial(capacities, j).max()) for j in range(m))
    if not math.isfinite(lip):
        raise RuntimeError(f"baseline solver: curvature bound {lip} is not finite")
    step = 1.0 / max(lip, 1e-12)

    residual = math.inf
    for it in range(max_iter):
        moved = x - step * batch.gradient(x)
        if not np.isfinite(moved).all():
            raise RuntimeError(f"baseline solver: non-finite gradient step at iteration {it}")
        before = x.copy() if it % 50 == 0 else None
        for j in range(m):
            x[:, j] = project_simplex(moved[:, j], capacities[j])
        if it % 50 == 0:
            residual = kkt_residual(batch, x, capacities)
            # a fixed point of the iteration keeps this residual for good
            if residual <= tol or np.array_equal(x, before):
                break
    else:
        residual = kkt_residual(batch, x, capacities)
    if residual > 1e-6:
        raise RuntimeError(
            f"baseline solver did not converge: KKT residual {residual:.3e} > 1e-6"
        )
    boundary = tuple(
        (i, j) for i in range(n) for j in range(m) if x[i, j] <= ACTIVE_TOL
    )
    return OptimalAllocation(
        x_star=x, total_cost=float(batch.value(x).sum()),
        kkt_residual=residual, boundary_agents=boundary,
    )


def _simplex_grid_columns(n: int, capacity: float, resolution: float) -> np.ndarray:
    """All length-n grid columns with entries in resolution steps summing to capacity."""
    g = int(round(capacity / resolution))
    cols = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            cols.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], g, n)
    return np.asarray(cols, dtype=float) * resolution


def _count_columns(n: int, capacity: float, resolution: float) -> int:
    g = int(round(capacity / resolution))
    return math.comb(g + n - 1, n - 1)


def solve_grid_oracle(costs, resources, resolution: float) -> OptimalAllocation:
    """Exhaustive search over the discretized feasible set (tiny instances only)."""
    n, m = len(costs), len(resources)
    if n * m > 4:
        raise ConfigurationError("grid oracle limited to n * m <= 4")
    capacities = np.array([r.capacity for r in resources])
    if resolution <= 0 or resolution > capacities.min():
        raise ConfigurationError("resolution must be positive and finer than the capacities")
    total_points = 1
    for j in range(m):
        total_points *= _count_columns(n, capacities[j], resolution)
    if total_points > 10 ** 7:
        raise ConfigurationError(f"grid too large ({total_points} points > 1e7)")

    col_sets = [_simplex_grid_columns(n, capacities[j], resolution) for j in range(m)]
    batch = PolyBatch(costs)
    best_cost = math.inf
    best = None
    if m == 1:
        xs = col_sets[0][:, :, None]          # (P, n, 1)
        total = batch.value(xs).sum(axis=1)
        idx = int(np.argmin(total))
        best, best_cost = xs[idx], float(total[idx])
    elif m == 2:
        # batch over the second resource's columns for each first-resource column
        b_cols = col_sets[1]
        p2 = b_cols.shape[0]
        x_batch = np.empty((p2, n, 2))
        x_batch[:, :, 1] = b_cols
        for a_col in col_sets[0]:
            x_batch[:, :, 0] = a_col
            total = batch.value(x_batch).sum(axis=1)
            idx = int(np.argmin(total))
            if total[idx] < best_cost:
                best_cost, best = float(total[idx]), x_batch[idx].copy()
    else:
        # n * m <= 4 with m > 2 forces n = 1, so the product is tiny anyway
        for combo in itertools.product(*col_sets):
            x = np.column_stack(combo)
            c = float(batch.value(x).sum())
            if c < best_cost:
                best_cost, best = c, x
    residual = kkt_residual(batch, best, capacities)
    return OptimalAllocation(x_star=np.asarray(best, dtype=float),
                             total_cost=best_cost, kkt_residual=residual)

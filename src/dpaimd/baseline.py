"""Exact social-optimum baseline: projected gradient over per-resource simplexes.

The feasibility set factors into one scaled simplex per resource (column sums
fixed at capacity, entries non-negative), so projection is cheap and the
strictly convex objective admits a unique minimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, PolyBatch

ACTIVE_TOL = 1e-6   # an agent at or below this share of a resource sits on its boundary
KKT_TOL = 1e-7      # a solve stops once its KKT residual is this small


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


def solve_optimum(costs, resources, max_iter: int = 500_000) -> OptimalAllocation:
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
            if residual <= KKT_TOL or np.array_equal(x, before):
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

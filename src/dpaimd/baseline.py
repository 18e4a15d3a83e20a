"""Exact social-optimum baseline: water-filling over per-resource simplexes.

The feasibility set factors into one scaled simplex per resource (column sums
fixed at capacity, entries non-negative). At the optimum every agent holding a
share of resource j has the same partial derivative mu_j, and every agent at
zero has a partial no smaller (Boyd & Vandenberghe, *Convex Optimization*,
5.5.3). Costs have positive coefficients, so with the other columns held
fixed each agent's partial in x_ij is increasing and convex: its demand at a
price mu is a Newton root-find that falls monotonically from above, and mu_j
is the price at which the demands fill the capacity. Costs without
cross-resource monomials are solved in one pass over the resources; coupled
costs take Gauss-Seidel passes until the KKT residual certifies the point.
That certificate is for a stationary point, which is the optimum only for
convex costs: a cross term such as x1*x2 can break convexity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, PolyBatch

ACTIVE_TOL = 1e-6   # an agent at or below this share of a resource sits on its boundary
KKT_TOL = 1e-10     # passes stop once the KKT residual is this small
KKT_LIMIT = 1e-6    # a solve whose residual stays above this has not converged
MAX_PASSES = 100    # Gauss-Seidel passes over the resources
MAX_STEPS = 200     # Newton or bisection steps of one root-find


@dataclass(frozen=True)
class OptimalAllocation:
    x_star: np.ndarray      # (n, m)
    total_cost: float
    kkt_residual: float


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
    """Largest violation of the optimality conditions, per resource.

    The spread of partials over active agents, how far an agent at zero has a
    partial below the active agents' largest, and the feasibility gap.
    """
    grads = batch.gradient(x)
    residual = 0.0
    for j in range(x.shape[1]):
        active = x[:, j] > ACTIVE_TOL
        if active.any():
            g = grads[active, j]
            residual = max(residual, float(g.max() - g.min()))
            if not active.all():
                residual = max(residual, float(g.max() - grads[~active, j].min()))
        residual = max(residual, abs(float(x[:, j].sum()) - float(capacities[j])))
    return residual


def _demand(batch: PolyBatch, point: np.ndarray, j: int, mu: float, g0: np.ndarray,
            top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each agent's x_ij at which its partial equals mu, and the curvature there.

    Newton starts at ``top``, which lies at or above every root, and falls
    monotonically to it; an agent whose partial at zero already reaches mu
    takes 0, and one whose partial at ``top`` stays below mu keeps ``top``.
    ``point`` holds the other columns and is overwritten in column j.
    """
    t = np.where(g0 < mu, top, 0.0)
    for _ in range(MAX_STEPS):
        point[:, j] = t
        excess = batch.partial(point, j) - mu
        curvature = batch.second_partial(point, j)
        step = np.divide(excess, curvature, out=np.zeros_like(t),
                         where=(excess > 0) & (curvature > 0))
        lower = np.maximum(t - step, 0.0)
        if not (lower < t).any():
            break
        t = np.minimum(lower, t)
    return t, curvature


def _fill(batch: PolyBatch, x: np.ndarray, j: int, capacity: float) -> np.ndarray:
    """Column j of the optimum with the other columns held at x."""
    point = x.copy()
    point[:, j] = 0.0
    g0 = batch.partial(point, j)
    point[:, j] = capacity
    g_top = batch.partial(point, j)
    if not (np.isfinite(g0).all() and np.isfinite(g_top).all()):
        raise RuntimeError(f"baseline solver: partials on resource {j} are not finite")
    # a cost that is linear in x_ij, or ignores it, has a constant partial g0
    flat = batch.second_partial(point, j) == 0
    top = np.where(flat, 0.0, capacity)
    price = float(g0[flat].min(initial=math.inf))
    # at hi some agent takes the whole capacity, unless the flat agents are cheaper
    hi = min(price, float(g_top[~flat].min(initial=math.inf)))
    x_hi, curvature = _demand(batch, point, j, hi, g0, top)
    if x_hi.sum() < capacity:
        # the cheapest flat agents take what the others leave at their price
        tied = flat & (g0 == price)
        x_hi[tied] = (capacity - x_hi.sum()) / tied.sum()
        return x_hi

    lo = float(g0[~flat].min())     # every demand is 0 at this price
    x_lo, d_lo, d_hi = np.zeros_like(x_hi), 0.0, float(x_hi.sum())
    x, mu, d = x_hi, hi, d_hi
    tol = 4.0 * x.size * np.finfo(float).eps * capacity
    for _ in range(MAX_STEPS):
        if abs(d - capacity) <= tol:
            break
        interior = (x > 0) & (x < capacity)
        slope = float(np.divide(1.0, curvature, out=np.zeros_like(x),
                                where=interior & (curvature > 0)).sum())
        mu = mu + (capacity - d) / slope if slope > 0 else math.nan
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
            if not lo < mu < hi:    # the bracket is down to adjacent floats
                break
        x, curvature = _demand(batch, point, j, mu, g0, x_hi)
        d = float(x.sum())
        if d < capacity:
            lo, x_lo, d_lo = mu, x, d
        else:
            hi, x_hi, d_hi = mu, x, d
    # every agent's partial lies in [lo, hi] anywhere between the two demands
    return x_lo + (capacity - d_lo) / (d_hi - d_lo) * (x_hi - x_lo)


def solve_optimum(costs, resources) -> OptimalAllocation:
    """Water-filling, one resource at a time; fails loudly on non-convergence."""
    n, m = len(costs), len(resources)
    capacities = np.array([r.capacity for r in resources], dtype=float)
    batch = PolyBatch(costs)
    x = np.tile(capacities / n, (n, 1))   # feasible symmetric start

    residual = math.inf
    # overflow and 0/0 surface below as non-finite partials, columns, residuals or costs
    with np.errstate(all="ignore"):
        for _ in range(MAX_PASSES):
            before = x.copy()
            for j in range(m):
                column = _fill(batch, x, j, capacities[j])
                if not np.isfinite(column).all():
                    raise RuntimeError(f"baseline solver: resource {j} has a non-finite share")
                x[:, j] = project_simplex(column, capacities[j])
            residual = kkt_residual(batch, x, capacities)
            # without cross-resource terms a second pass repeats the first
            if residual <= KKT_TOL or np.array_equal(x, before):
                break
        total_cost = float(batch.value(x).sum())
    if not residual <= KKT_LIMIT:
        raise RuntimeError(
            f"baseline solver did not converge: KKT residual {residual:.3e} > {KKT_LIMIT:g}"
        )
    if not math.isfinite(total_cost):
        raise RuntimeError(f"baseline solver: the optimal total cost is {total_cost}")
    return OptimalAllocation(x_star=x, total_cost=total_cost, kkt_residual=residual)

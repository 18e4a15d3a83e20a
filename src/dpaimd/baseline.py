"""Exact social-optimum baseline: water-filling over per-resource simplexes.

The feasibility set factors into one scaled simplex per resource (column sums
fixed at capacity, entries non-negative). At the optimum every agent holding a
share of resource j has the same partial derivative mu_j, and every agent at
zero has a partial no smaller (Boyd & Vandenberghe, *Convex Optimization*,
5.5.3). With the other columns fixed, an agent's partial in x_ij is a posynomial,
log-convex in log x_ij: its demand at a price mu is Newton in log x_ij, falling
monotonically from above, and mu_j is the price at which the demands fill the
capacity. Costs without cross-resource monomials take one pass over the
resources, coupled costs Gauss-Seidel passes. A relative duality gap
(``certify``) accepts the answer: it bounds (f - f*) / f for a separable cost,
and for a coupled one certifies a stationary point, the optimum if it is convex.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, PolyBatch

GAP_TOL = 1e-10     # a solve whose relative duality gap stays above this has not converged
PASS_TOL = 1e-15    # passes stop once it is this small: a gap is quadratic in the distance to x*
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


def certify(batch: PolyBatch, x: np.ndarray, capacities, prices) -> tuple[float, float]:
    """f(x) and its relative duality gap, sum_j |f(x) - L_j(mu_j)| / f(x), where
    L_j(mu_j) = mu_j C_j + sum_i min over 0 <= t <= C_j of f_i(t) - mu_j t, with the
    other columns held at x. On a feasible x it bounds (f(x) - f*) / f(x) for a separable
    cost (weak duality), and is 0 at a stationary point of a coupled one. A gap of
    exactly 0 reads 0, and any other over a cost of 0 reads inf."""
    values = batch.value(x)
    total, gap = float(values.sum()), 0.0
    with np.errstate(all="ignore"):     # Newton's masked-off lanes may divide by 0
        for j, (mu, capacity) in enumerate(zip(prices, capacities)):
            point = x.copy()
            point[:, j] = 0.0
            demand = _demand(batch, point, j, mu, batch.partial(point, j), capacity)[0]
            point[:, j] = demand
            gap += abs(float((values - batch.value(point)).sum())
                       - mu * (capacity - float(demand.sum())))
    return total, 0.0 if gap == 0 else gap / total if total > 0 else math.inf


def _demand(batch: PolyBatch, point: np.ndarray, j: int, mu: float, g0: np.ndarray,
            top: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Each agent's x_ij at which its partial equals mu, and the curvature there.

    Newton on log(partial) = log(mu) in log x_ij falls monotonically from ``top``, at or
    above every root, to it; g / mu and g / (t c) carry no units. An agent whose partial
    at zero reaches mu takes 0, and one whose partial at ``top`` stays below mu keeps
    ``top``. ``point`` holds the other columns and is overwritten in column j.
    """
    t = np.where(g0 < mu, top, 0.0)
    for _ in range(MAX_STEPS):
        point[:, j] = t
        g = batch.partial(point, j)
        curvature = batch.second_partial(point, j)
        falls = (g > mu) & (curvature > 0) & (t > 0)
        log_ratio = np.log(np.minimum(g / mu, np.finfo(float).max))     # an overflow steps short
        lower = np.where(falls, t * np.exp(-log_ratio * (g / (t * curvature))), t)
        if not (lower < t).any():   # log and exp resolve t to an ulp: end by a step in x_ij
            normal = (np.finfo(float).tiny <= g) & (g < np.inf) & (curvature > 0) & (t > 0)
            t = np.where(normal & (t < top), t - (g - mu) / curvature, t)
            break
        t = lower
    return t, curvature


def _fill(batch: PolyBatch, x: np.ndarray, j: int, capacity: float) -> tuple[np.ndarray, float]:
    """Column j of the optimum with the other columns held at x, and the price it ends at."""
    point = x.copy()
    point[:, j] = 0.0
    g0 = batch.partial(point, j)
    point[:, j] = capacity
    g_top = batch.partial(point, j)
    if not (np.isfinite(g0).all() and np.isfinite(g_top).all()):
        raise RuntimeError(f"baseline solver: partials on resource {j} are not finite")
    # a cost linear in x_ij, or ignoring it, has a constant partial g0, and so in floats
    # does one whose growth up to the capacity rounds or underflows away
    flat = (batch.second_partial(point, j) == 0) | (g_top == g0)
    top = np.where(flat, 0.0, capacity)
    price = float(g0[flat].min(initial=math.inf))
    # at hi some agent takes the whole capacity, unless the flat agents are cheaper
    hi = min(price, float(g_top[~flat].min(initial=math.inf)))
    x_hi, curvature = _demand(batch, point, j, hi, g0, top)
    if x_hi.sum() < capacity:
        # the cheapest flat agents take what the others leave at their price
        tied = flat & (g0 == price)
        x_hi[tied] = (capacity - x_hi.sum()) / tied.sum()
        return x_hi, hi

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
    return x_lo + (capacity - d_lo) / (d_hi - d_lo) * (x_hi - x_lo), mu


def solve_optimum(costs, resources) -> OptimalAllocation:
    """Water-filling, one resource at a time; fails loudly on non-convergence."""
    n, m = len(costs), len(resources)
    capacities = np.array([r.capacity for r in resources], dtype=float)
    batch = PolyBatch(costs)
    x = np.tile(capacities / n, (n, 1))   # feasible symmetric start
    prices = np.zeros(m)

    # overflow and 0/0 surface below as non-finite partials, columns, gaps or costs
    with np.errstate(all="ignore"):
        for _ in range(MAX_PASSES):
            before = x.copy()
            for j in range(m):
                x[:, j], prices[j] = _fill(batch, x, j, capacities[j])
                if not np.isfinite(x[:, j]).all():
                    raise RuntimeError(f"baseline solver: resource {j} has a non-finite share")
            total_cost, gap = certify(batch, x, capacities, prices)
            # without cross-resource terms a second pass repeats the first
            if gap <= PASS_TOL or np.array_equal(x, before):
                break
    if not math.isfinite(total_cost):
        raise RuntimeError(f"baseline solver: the optimal total cost is {total_cost}")
    if not gap <= GAP_TOL:
        raise RuntimeError(f"baseline solver did not converge: relative duality gap {gap:.3e}"
                           f" > {GAP_TOL:g}")
    return OptimalAllocation(x_star=x, total_cost=total_cost, kkt_residual=gap)

"""Independent oracles the tests check the package against; no run uses them.

- ``solve_grid_oracle``: brute-force search over a grid of the feasible set,
  for the baseline solver on tiny instances.
- ``solve_pgd_oracle``: projected gradient descent, the baseline solver that
  water-filling replaced, for differential tests on small instances. It stops
  on its own certificate, the Frank-Wolfe gap (``frank_wolfe_gap``).
- ``dual_bound_oracle``: the Lagrangian dual bound of a separable cost, in
  ``decimal`` at 60 digits, and the demands at its price.
- ``empirical_dp_ratio`` and ``empirical_dp_violation_fraction``: histogram
  checks of the privacy bound against the mechanisms' own draws.
- ``linear_fit_r2``: how close the cumulative broadcast bits are to a line.
- ``DensePolyBatch``: the padded polynomial kernel that the compacted
  ``PolyBatch`` replaced, every partial evaluated over all T terms.
- ``PerEventSensitivity``: the sensitivity tracker as it was before the loop
  fed it blocks of event steps, one call per event.
- ``simulate_oracle``: the engine loop as it was before noise was drawn in
  blocks, one draw per agent stream at each noisy event, on the dense kernel, with
  ``PerEventSensitivity`` at each event and its own event rule and back-off.
- ``write_trace_csv_oracle``: the trace CSV writer as it was before it wrote
  in chunks, one ``csv.writer`` row per (step, agent, resource) cell.
"""
from __future__ import annotations

import csv
import decimal
import functools
import itertools
import math
from decimal import Decimal

import numpy as np

from dpaimd.baseline import OptimalAllocation, project_simplex
from dpaimd.engine import LAMBDA_MIN, Trace, series_grid
from dpaimd.model import NOISE_STREAM, ConfigurationError, NumericError, PolyBatch
from dpaimd.privacy import NoiseKind


# ---------------------------------------------------------------------------
# Baseline grid search
# ---------------------------------------------------------------------------

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
    return OptimalAllocation(x_star=np.asarray(best, dtype=float), total_cost=best_cost,
                             kkt_residual=frank_wolfe_gap(batch, best, capacities))


# ---------------------------------------------------------------------------
# Baseline by projected gradient
# ---------------------------------------------------------------------------

PGD_TOL = 1e-9      # projected gradient stops once its relative Frank-Wolfe gap is this small


def frank_wolfe_gap(batch: PolyBatch, x: np.ndarray, capacities: np.ndarray) -> float:
    """Relative Frank-Wolfe gap, sum_j (sum_i g_ij x_ij - C_j min_i g_ij) / f(x).

    On a feasible x of a convex cost it bounds (f(x) - f*) / f(x) (Jaggi, ICML
    2013). An agent at x_ij = 0 adds nothing to the first sum, whatever its partial.
    """
    g = batch.gradient(x)
    held = np.multiply(g, x, out=np.zeros_like(x), where=x > 0).sum(axis=0)
    return float((held - capacities * g.min(axis=0)).sum() / batch.value(x).sum())


def solve_pgd_oracle(costs, resources, max_iter: int = 500_000) -> OptimalAllocation:
    """Projected gradient descent with a 1/L step; fails loudly on non-convergence."""
    n, m = len(costs), len(resources)
    capacities = np.array([r.capacity for r in resources], dtype=float)
    batch = PolyBatch(costs)
    x = np.tile(capacities / n, (n, 1))   # feasible symmetric start

    # Lipschitz bound: curvature is monotone in each coordinate for positive
    # polynomials, so the max over the feasible box sits at the capacity corner.
    corner = np.tile(capacities, (n, 1))
    lip = max(float(batch.second_partial(corner, j).max()) for j in range(m))
    if not math.isfinite(lip):
        raise RuntimeError(f"baseline solver: curvature bound {lip} is not finite")
    step = 1.0 / max(lip, 1e-12)

    gap = math.inf
    for it in range(max_iter):
        moved = x - step * batch.gradient(x)
        if not np.isfinite(moved).all():
            raise RuntimeError(f"baseline solver: non-finite gradient step at iteration {it}")
        before = x.copy() if it % 50 == 0 else None
        for j in range(m):
            x[:, j] = project_simplex(moved[:, j], capacities[j])
        if it % 50 == 0:
            gap = frank_wolfe_gap(batch, x, capacities)
            # a fixed point of the iteration keeps this gap for good
            if gap <= PGD_TOL or np.array_equal(x, before):
                break
    else:
        gap = frank_wolfe_gap(batch, x, capacities)
    if gap > 1e-6:
        raise RuntimeError(f"baseline solver did not converge: Frank-Wolfe gap {gap:.3e} > 1e-6")
    return OptimalAllocation(x_star=x, total_cost=float(batch.value(x).sum()), kkt_residual=gap)


# ---------------------------------------------------------------------------
# Baseline by the Lagrangian dual, in decimal
# ---------------------------------------------------------------------------

DUAL_DIGITS = 60
DUAL_STEPS = 400    # geometric bisection steps on the price


def _column_terms(costs, j: int) -> list:
    """Per agent, {exponent: coefficient} of its terms in x_j alone."""
    columns = []
    for f in costs:
        terms = {}
        for c, e in zip(f.coeffs, f.exponents):
            if np.count_nonzero(e) > 1:
                raise ConfigurationError("dual bound oracle: the cost is not separable")
            if e[j] > 0:
                terms[int(e[j])] = terms.get(int(e[j]), Decimal(0)) + Decimal(float(c))
        if not terms:
            raise ConfigurationError(f"dual bound oracle: an agent ignores resource {j}")
        columns.append(terms)
    return columns


def _slope(terms: dict, t: Decimal) -> Decimal:
    return sum(e * c * t ** (e - 1) for e, c in terms.items())


def _argmin(terms: dict, mu: Decimal, capacity: Decimal) -> Decimal:
    """argmin over 0 <= t <= capacity of sum c t^e - mu t, in closed form: one term
    of degree e >= 2 besides a linear one, or degrees 2 and 4 (Cardano)."""
    q = mu - terms.get(1, Decimal(0))
    rest = {e: c for e, c in terms.items() if e != 1}
    if q <= 0:
        return Decimal(0)
    if not rest:
        return capacity
    if len(rest) == 1:
        [(e, c)] = rest.items()
        t = (q / (e * c)) ** (Decimal(1) / (e - 1))
    elif set(rest) == {2, 4}:
        # t^3 + p t = r; with u^3 = r/2 + sqrt(r^2/4 + p^3/27) and v = p / (3u), the
        # root u - v = r / (u^2 + uv + v^2) is a sum of positive terms
        p, r = rest[2] / (2 * rest[4]), q / (4 * rest[4])
        u = (r / 2 + (r * r / 4 + p ** 3 / 27).sqrt()) ** (Decimal(1) / 3)
        t = r / (u * u + p / 3 + (p / (3 * u)) ** 2)
    else:
        raise ConfigurationError(f"dual bound oracle: no closed form for degrees {sorted(terms)}")
    return min(t, capacity)


def dual_bound_oracle(costs, capacities) -> tuple[Decimal, np.ndarray]:
    """max over mu of the Lagrangian dual L(mu) of a separable cost, and the demands there.

    Per resource, L_j(mu) = mu C_j + sum_i min over 0 <= t <= C_j of f_ij(t) - mu t,
    each inner minimum in closed form (``_argmin``), at 60 digits. L_j is concave,
    and its slope C_j - sum_i t_i(mu) changes sign at the optimal price: a geometric
    bisection between a price at which every demand is below C_j / n and one at
    which every demand is C_j finds it. Any price gives a lower bound on f*, and for
    convex costs the best one equals it (Boyd & Vandenberghe, *Convex Optimization*,
    5.2 and 5.5).
    """
    n = len(costs)
    bound, x = Decimal(0), np.empty((n, len(capacities)))
    with decimal.localcontext() as ctx:
        ctx.prec = DUAL_DIGITS
        # rounded to the context, so that a sum of demands compares with it at 60 digits
        for j, capacity in enumerate(+Decimal(float(c)) for c in capacities):
            columns = _column_terms(costs, j)

            def demands(mu):
                return [_argmin(terms, mu, capacity) for terms in columns]

            def dual(mu, ts):
                return mu * capacity + sum(sum(c * t ** e for e, c in terms.items()) - mu * t
                                           for terms, t in zip(columns, ts))

            lo = min(_slope(terms, capacity / n) for terms in columns)
            hi = 2 * max(_slope(terms, capacity) for terms in columns)
            for _ in range(DUAL_STEPS):
                mid = (lo * hi).sqrt()
                if mid in (lo, hi):
                    break
                if sum(demands(mid)) < capacity:
                    lo = mid
                else:
                    hi = mid
            t_lo, t_hi = demands(lo), demands(hi)
            bound += max(dual(lo, t_lo), dual(hi, t_hi))
            x[:, j] = [float(t) for t in t_hi]
    return bound, x


# ---------------------------------------------------------------------------
# Empirical privacy checks
# ---------------------------------------------------------------------------

def _mechanism_draws(kind: NoiseKind, scale: float, center: float, samples: int,
                     rng: np.random.Generator) -> np.ndarray:
    if kind is NoiseKind.NONE:
        return np.full(samples, center)
    if kind is NoiseKind.LAPLACE:
        return center + rng.laplace(0.0, scale, size=samples)
    return center + rng.normal(0.0, scale, size=samples)


def empirical_dp_ratio(kind: NoiseKind, scale: float, dq: float, bins: int,
                       samples: int, rng: np.random.Generator | None = None,
                       min_count: int = 50) -> float:
    """Max binned |log density ratio| between mechanism outputs at v and v + dq.

    Draws ``samples`` outputs at both inputs, histograms them on shared bins
    spanning at least six scale-widths, and returns the max |log(count ratio)|
    over bins where both counts reach ``min_count``. Deterministic mechanisms
    (kind NONE with dq > 0) return inf. If no bin has enough samples the bin
    count is halved and the histograms recomputed (documented fallback).
    """
    kind = NoiseKind(kind)
    if samples < 10 ** 5:
        raise ConfigurationError("empirical_dp_ratio needs at least 1e5 samples")
    if dq == 0:
        return 0.0
    if kind is NoiseKind.NONE:
        return math.inf
    rng = rng if rng is not None else np.random.default_rng(0)
    a = _mechanism_draws(kind, scale, 0.0, samples, rng)
    b = _mechanism_draws(kind, scale, dq, samples, rng)
    half = 3.0 * scale
    lo, hi = -half, dq + half
    while bins >= 4:
        edges = np.linspace(lo, hi, bins + 1)
        c1, _ = np.histogram(a, edges)
        c2, _ = np.histogram(b, edges)
        valid = (c1 >= min_count) & (c2 >= min_count)
        if valid.any():
            ratios = np.abs(np.log(c1[valid] / c2[valid]))
            return float(ratios.max())
        bins //= 2
    raise ConfigurationError("no bin reached the minimum sample count")


def empirical_dp_violation_fraction(kind: NoiseKind, scale: float, dq: float,
                                    epsilon: float, bins: int, samples: int,
                                    rng: np.random.Generator | None = None,
                                    min_count: int = 50) -> float:
    """Fraction of first-mechanism mass landing where the exp(epsilon) bound fails.

    Bins outside the histogram range or with too few samples to estimate the
    ratio are counted as violating, so the estimate is conservative. For a
    properly calibrated Gaussian mechanism this should stay below delta plus
    statistical slack.
    """
    kind = NoiseKind(kind)
    if kind is NoiseKind.NONE:
        return 1.0 if dq != 0 else 0.0
    rng = rng if rng is not None else np.random.default_rng(0)
    a = _mechanism_draws(kind, scale, 0.0, samples, rng)
    b = _mechanism_draws(kind, scale, dq, samples, rng)
    half = 5.0 * scale
    edges = np.linspace(-half, dq + half, bins + 1)
    c1, _ = np.histogram(a, edges)
    c2, _ = np.histogram(b, edges)
    out_of_range = samples - c1.sum()
    violating = float(out_of_range)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.maximum(c1, 1) / np.maximum(c2, 1))
    for idx in range(bins):
        if c1[idx] == 0:
            continue
        if c1[idx] < min_count or c2[idx] < min_count or abs(log_ratio[idx]) > epsilon:
            violating += c1[idx]
    return violating / samples


# ---------------------------------------------------------------------------
# Communication cost
# ---------------------------------------------------------------------------

def linear_fit_r2(series: np.ndarray) -> float:
    """R^2 of a straight-line fit of a series against its step index."""
    steps = np.arange(series.shape[0], dtype=float)
    y = series.astype(float)
    if y.size < 2 or np.allclose(y, y[0]):
        return 1.0
    slope, intercept = np.polyfit(steps, y, 1)
    resid = y - (slope * steps + intercept)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Dense polynomial kernel, per-event sensitivity and per-event-draw engine loop
# ---------------------------------------------------------------------------

def _dense_sum_terms(x, weights, exponents):
    """Every padded term, summed left to right."""
    mono = np.prod(x[..., None, :] ** exponents, axis=-1)
    total = weights[..., 0] * mono[..., 0]
    for t in range(1, weights.shape[-1]):
        total = total + weights[..., t] * mono[..., t]
    return total


class DensePolyBatch:
    """Every agent padded to (n, T, m) terms; each partial sums all T of them."""

    def __init__(self, costs):
        n, m = len(costs), costs[0].n_resources
        t_max = max(f.coeffs.shape[0] for f in costs)
        self.coeffs = np.zeros((n, t_max))
        self.exps = np.ones((n, t_max, m), dtype=int)
        for i, f in enumerate(costs):
            t = f.coeffs.shape[0]
            self.coeffs[i, :t] = f.coeffs
            self.exps[i, :t] = f.exponents
        self.m = m

    def _terms(self, j, order):
        ej = self.exps[..., j]
        weights = self.coeffs
        for k in range(order):
            weights = weights * np.maximum(ej - k, 0)
        reduced = self.exps.copy()
        reduced[..., j] = np.maximum(ej - order, 0)
        return weights, reduced

    def value(self, x):
        return _dense_sum_terms(x, self.coeffs, self.exps)

    def partial(self, x, j):
        return _dense_sum_terms(x, *self._terms(j, 1))

    def second_partial(self, x, j):
        return _dense_sum_terms(x, *self._terms(j, 2))

    def gradient(self, x):
        return np.stack([self.partial(x, j) for j in range(self.m)], axis=-1)


class PerEventSensitivity:
    """Running max per resource of the largest change of an agent's partial
    between consecutive events, past the burn-in; one ``update`` per event."""

    def __init__(self, n_agents: int, n_resources: int, burn_in_events: int):
        self.last_derivative = np.zeros((n_agents, n_resources))
        self.running_max = np.zeros(n_resources)
        self.events_seen = [0] * n_resources
        self.first_counted = max(burn_in_events, 2)

    def update(self, j: int, derivatives: np.ndarray) -> float:
        """Feed one event of resource j; returns the spread max - min of the partials."""
        if not np.isfinite(derivatives).all() or (derivatives < 0).any():
            raise NumericError(f"non-finite or negative derivative for resource {j}")
        self.events_seen[j] += 1
        if self.events_seen[j] >= self.first_counted:
            jump = np.abs(derivatives - self.last_derivative[:, j]).max()
            self.running_max[j] = max(self.running_max[j], jump)
        self.last_derivative[:, j] = derivatives
        return derivatives.max() - derivatives.min()


def simulate_oracle(config) -> Trace:
    """``engine._simulate`` with one ``rng.laplace(0, s)`` or ``rng.normal(0, s)``
    per agent stream at each noisy event, on the dense kernel, and the
    sensitivity fed one event at a time; the event rule and the back-off are
    written out here, so the engine's own definitions are checked, not shared.
    It keeps every per-step series and takes the trace's grid values from them:
    each resource's last event at or before a step by a running max of event
    steps, and the events so far by a cumsum of the bits."""
    n, m = config.n_agents, config.n_resources
    steps = config.steps
    scales = np.array([spec.noise_scale(j) for j, spec in enumerate(config.noise)])
    capacities = np.array([r.capacity for r in config.resources], dtype=float)
    alpha = np.array([r.alpha for r in config.resources], dtype=float)
    beta = np.array([r.beta for r in config.resources], dtype=float)
    gamma = np.array([r.gamma for r in config.resources], dtype=float)

    batch = DensePolyBatch(config.agents)
    # one stream per agent and noise kind; the first noisy kind keeps the untagged one
    kinds = dict.fromkeys(spec.kind for spec in config.noise if spec.kind is not NoiseKind.NONE)
    rngs = {kind: [np.random.default_rng(np.random.SeedSequence(
                config.seed, spawn_key=(NOISE_STREAM, aid) + ((tag,) if tag else ())))
                   for aid in config.agent_ids] for tag, kind in enumerate(kinds)}
    tracker = PerEventSensitivity(n, m, config.burn_in_events)

    x = np.zeros((n, m))
    xbar = np.zeros((n, m))
    x_sum = np.zeros((n, m))
    tr_x = np.empty((steps, n, m))
    tr_bits = np.empty((steps, m), dtype=np.uint8)
    tr_nderiv = np.full((steps, n, m), np.nan)
    tr_spread = np.full((steps, m), np.nan)
    tr_dq = np.empty((steps, m))

    for nu in range(steps):
        aggregate = functools.reduce(np.add, x)     # left to right over the agents
        if not np.isfinite(aggregate).all():
            raise NumericError(f"non-finite aggregate demand at step {nu}")
        bits = (aggregate >= capacities).astype(np.uint8)
        fired = np.nonzero(bits)[0]
        if fired.size:
            grads = batch.gradient(xbar)
            if not np.isfinite(grads).all():
                raise NumericError(f"non-finite derivative at step {nu}")
            for j in fired:
                tr_spread[nu, j] = tracker.update(j, grads[:, j])
                kind = config.noise[j].kind
                if kind is NoiseKind.NONE:
                    d = np.zeros(n)
                elif kind is NoiseKind.LAPLACE:
                    d = np.array([rng.laplace(0.0, scales[j]) for rng in rngs[kind]])
                else:
                    d = np.array([rng.normal(0.0, scales[j]) for rng in rngs[kind]])
                tr_nderiv[nu, :, j] = grads[:, j] + d
                lam = np.clip(gamma[j] * np.abs(grads[:, j] + d) / xbar[:, j], LAMBDA_MIN, 1.0)
                x[:, j] = (lam * beta[j] + (1 - lam)) * x[:, j]
        grow = bits == 0
        if grow.any():
            x[:, grow] += alpha[grow]
        if not np.isfinite(x).all():
            raise NumericError(f"non-finite demand at step {nu}")
        x_sum += x
        np.divide(x_sum, nu + 2, out=xbar)
        tr_x[nu] = x
        tr_bits[nu] = bits
        tr_dq[nu] = tracker.running_max

    grid = series_grid(steps)
    last = np.maximum.accumulate(np.where(tr_bits == 1, np.arange(steps)[:, None], -1), axis=0)[grid]
    return Trace(
        steps=steps, x=tr_x, final_xbar=xbar, final_sensitivity=tracker.running_max,
        event_bits=tr_bits, noisy_derivative=tr_nderiv, sensitivity=tr_dq,
        grid_sensitivity=tr_dq[grid], grid_events=np.cumsum(tr_bits, axis=0, dtype=np.int64)[grid],
        grid_spread=np.where(last >= 0, tr_spread[last, np.arange(m)], np.nan), grid_spread_step=last,
        noise_scales=scales, gamma=gamma,
    )


# ---------------------------------------------------------------------------
# Per-cell trace CSV writer
# ---------------------------------------------------------------------------

def write_trace_csv_oracle(trace: Trace, path):
    """Full per-step trace, one row per (step, agent, resource), 17 sig digits."""
    fmt = lambda v: "" if np.isnan(v) else f"{v:.17g}"
    # a derived view is recomputed on each read: read each once, lambda-hat first (lower peak)
    lambda_hat, xbar, cum_bits = trace.lambda_hat, trace.xbar, trace.cum_bits
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "agent", "resource", "x", "xbar", "event_bit",
                        "lambda_hat", "noisy_derivative", "sensitivity", "cum_bits"])
        for nu in range(trace.steps):
            for i in range(trace.n_agents):
                for j in range(trace.n_resources):
                    writer.writerow([
                        nu, i, j,
                        fmt(float(trace.x[nu, i, j])),
                        fmt(float(xbar[nu, i, j])),
                        int(trace.event_bits[nu, j]),
                        fmt(float(lambda_hat[nu, i, j])),
                        fmt(float(trace.noisy_derivative[nu, i, j])),
                        fmt(float(trace.sensitivity[nu, j])),
                        int(cum_bits[nu]),
                    ])

"""Domain types: polynomial costs and their stacked evaluator, resources, run configuration.

Cost functions are positive-coefficient multivariate polynomials: increasing on
the non-negative orthant, convex unless a monomial mixes resources (x1*x2 is not),
and with exact partial derivatives (no numeric differentiation in the loop).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ConfigurationError(ValueError):
    """Raised for invalid configuration values or dimension mismatches."""


class NumericError(RuntimeError):
    """Raised when a non-finite value shows up mid-run; the message names the step."""


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Sum of monomials: cost(x) = sum_t coeffs[t] * prod_j x_j ** exponents[t, j].

    Every coefficient must be positive and every term must contain at least one
    positive exponent, so the function is finite, non-negative and increasing on
    x >= 0; it is convex too unless a term mixes resources, as x1*x2 does.
    """

    coeffs: np.ndarray      # shape (T,)
    exponents: np.ndarray   # shape (T, m), non-negative integers

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        exps = np.asarray(self.exponents, dtype=int)
        if coeffs.size == 0:
            raise ConfigurationError("cost function needs at least one term")
        if coeffs.ndim != 1 or exps.ndim != 2 or exps.shape[0] != coeffs.shape[0]:
            raise ConfigurationError("cost terms malformed: need (T,) coeffs and (T, m) exponents")
        if np.any(coeffs <= 0):
            raise ConfigurationError("every cost coefficient must be > 0")
        if np.any(exps < 0):
            raise ConfigurationError("exponents must be non-negative integers")
        if np.any(exps.sum(axis=1) == 0):
            raise ConfigurationError("every term must have at least one positive exponent")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "exponents", exps)

    @property
    def n_resources(self) -> int:
        return self.exponents.shape[1]

    def partial(self, x, j: int) -> float | np.ndarray:
        """Analytic partial derivative with respect to resource j, through
        ``PolyBatch`` (last axis of x indexes resources; batching allowed)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_resources:
            raise ConfigurationError(f"point has {x.shape[-1]} components, not {self.n_resources}")
        if not 0 <= j < self.n_resources:
            raise ConfigurationError(f"resource index {j} out of range")
        out = PolyBatch([self]).partial(x[..., None, :], j)[..., 0]
        return float(out) if out.ndim == 0 else out


def _differentiate(coeffs: np.ndarray, exponents: np.ndarray, order: int):
    """Weights and exponents of the terms of d^order f / dx_j^order, stacked over j.

    (n, T) ``coeffs`` and (n, T, m) ``exponents`` give (m, n, T) weights and
    (m, n, T, m) exponents; exponents that drop below zero are clamped, and
    their terms get weight 0.
    """
    ej = np.moveaxis(exponents, -1, 0)     # (m, n, T): each term's exponent of x_j
    weights = coeffs
    for k in range(order):
        weights = weights * np.maximum(ej - k, 0)
    unit = np.eye(exponents.shape[-1], dtype=int)[:, None, None]    # (m, 1, 1, m): 1 at j
    return weights, np.maximum(exponents - order * unit, 0)


def _merged(x: np.ndarray) -> np.ndarray:     # an (..., n, m) point as a kernel reads it
    return x.swapaxes(-1, -2).reshape(x.shape[:-2] + (-1,))


def _power_rows(exponents: np.ndarray):
    """Each row's exponent, ascending, and the (row, row, out row) multiplies that fill
    rows 2 on: x ** 0 = 1 and x, the squares x ** 2, x ** 4, ... up to the largest
    exponent E, and one row for each other exponent used, the product of the squares
    for its set bits, lowest bit first: about log2 E + popcount(e) rows and multiplies."""
    top = int(exponents.max(initial=1))
    powers = sorted({0, 1, *(1 << k for k in range(1, top.bit_length())), *exponents.ravel().tolist()})
    row, fills = {e: r for r, e in enumerate(powers)}, []
    for r, e in enumerate(powers[2:], 2):
        bits = [row[1 << k] for k in range(e.bit_length()) if e >> k & 1]
        bits = bits if len(bits) > 1 else [row[e >> 1]] * 2     # a square: the row of e / 2 twice
        fills += [(bits[0], bits[1], r)] + [(r, b, r) for b in bits[2:]]
    return powers, fills


def _sum_terms(weights: np.ndarray, exponents: np.ndarray, index: np.ndarray, width: int):
    """kernel(flat) = sum_t weights[..., t] * prod_k flat[..., index[..., t, k]] ** exponents[..., t, k].

    The one polynomial evaluator, bound once to a support table of ``_compact`` as
    ``kernel(flat, out=None)``, ``flat`` a point (..., n, m) merged resource-major to
    (..., width). It raises by multiplication alone, into the rows of ``_power_rows``,
    gathers each factor, cell row * width + point, by one ``take``, multiplies over the
    support axis (none when s = 1), weighs the T' term rows by one multiply and sums
    them left to right, so a point gives the same bits alone or in a batch. A lone
    point is raised into a table and a block bound with the kernel: two threads must
    not call one kernel at once."""
    powers, fills = _power_rows(exponents)
    index = np.searchsorted(powers, exponents) * width + index
    product = index.shape[-1] > 1   # more than one factor a term: a product over the support axis
    weights = np.ascontiguousarray(np.moveaxis(weights, -1, 0))
    index = np.ascontiguousarray(np.moveaxis(index, -2, 0) if product else np.moveaxis(index[..., 0], -1, 0))
    table = np.ones((len(powers), width))      # the power table of a lone point; row 0 stays 1
    table_rows, cells = list(table), table.reshape(-1)
    lone = np.empty(weights.shape)      # the raised, then weighted, terms at a lone point
    lone_rows, weight, more = list(lone), weights[0], range(2, len(weights))
    at = [(..., t) + (slice(None),) * (weights.ndim - 1) for t in range(len(weights))]

    def kernel(flat, out=None):
        rows, raised, block = table_rows, cells, lone
        if flat.ndim > 1:       # a batch: a table of its own, whose rows are (..., width)
            rows = list(np.moveaxis(raised := np.ones(flat.shape[:-1] + table.shape), -2, 0))
            raised, block = raised.reshape(flat.shape[:-1] + (-1,)), None
        rows[1][...] = flat
        for a, b, r in fills:
            np.multiply(rows[a], rows[b], out=rows[r])
        # every index is in range: "clip" only spares ``out`` numpy's buffered copy
        block = (np.multiply.reduce(raised.take(index, axis=-1), axis=-1, out=block) if product
                 else raised.take(index, axis=-1, out=block, mode="clip"))
        rows = lone_rows if block is lone else [block[t] for t in at]
        if len(rows) == 1:
            return np.multiply(weight, rows[0], out=out)
        np.multiply(weights, block, out=block)
        out = np.add(rows[0], rows[1], out=out)
        for t in more:
            np.add(out, rows[t], out=out)
        return out
    return kernel


def _compact(weights: np.ndarray, exponents: np.ndarray):
    """Support table of (..., n, T) weights and (..., n, T, m) exponents.

    Terms of weight 0 are dropped; kept terms stay in order, and each row is
    padded to T', the largest kept count but at least 1, with weight-0 terms
    (x ** 0 where no term is kept), which add exactly 0 at any point. Each kept
    term keeps only its positive exponents, in resource order, padded to s, the
    largest such count, with exponent 0; ``index`` points each factor into the merged,
    resource-major (m * n) axis. A dropped factor is x ** 0 = 1.0, so the product keeps
    its bits. Returns (..., n, T') weights and the (..., n, T', s) exponents and index.
    """
    n = exponents.shape[-3]
    keep = weights != 0
    order = np.argsort(~keep, axis=-1, kind="stable")[..., :max(1, int(keep.sum(axis=-1).max()))]
    pad = ~np.take_along_axis(keep, order, axis=-1)
    weights = np.where(pad, 0.0, np.take_along_axis(weights, order, axis=-1))
    exponents = np.where(pad[..., None], 0, np.take_along_axis(exponents, order[..., None], axis=-2))
    positive = exponents > 0
    s = int(positive.sum(axis=-1).max(initial=1))
    support = np.argsort(~positive, axis=-1, kind="stable")[..., :s]   # positives first, in order
    index = support * n + np.arange(n)[:, None, None]
    return weights, np.take_along_axis(exponents, support, axis=-1), index


class PolyBatch:
    """All agents' cost functions stacked into support tables.

    Evaluates every agent at once: a point array (..., n, m) gives (..., n)
    values or partials, one per agent, or an (..., n, m) gradient. Each table is
    built by ``_compact`` on first use: an (n, T', s) table for the value, and
    per derivative order one stacked (m, n, T', s) table whose row j holds only
    the terms of d f / dx_j with a weight other than 0, each with only its
    positive exponents. The gradient is one kernel call over all m partials.
    """

    def __init__(self, costs):
        n, m = len(costs), costs[0].n_resources
        t_max = max(f.coeffs.shape[0] for f in costs)
        self._bind = lambda *table: _sum_terms(*table, m * n)     # a table's kernel, m * n wide
        self._coeffs = np.zeros((n, t_max))
        self._exps = np.zeros((n, t_max, m), dtype=int)
        for i, f in enumerate(costs):
            self._coeffs[i, :f.coeffs.size], self._exps[i, :f.coeffs.size] = f.coeffs, f.exponents

    @cached_property
    def _value(self):
        return self._bind(*_compact(self._coeffs, self._exps))

    @cached_property
    def _first(self):
        return self._derivative(1)

    @cached_property
    def _second(self):
        return self._derivative(2)

    def _derivative(self, order: int):
        # a huge coefficient times its exponent overflows to inf; callers check finiteness
        with np.errstate(over="ignore"):
            table = _compact(*_differentiate(self._coeffs, self._exps, order))
        return self._bind(*table), [self._bind(*(t[j] for t in table)) for j in range(len(table[0]))]

    def value(self, x) -> np.ndarray:
        return self._value(_merged(x))

    def partial(self, x, j: int) -> np.ndarray:
        return self._first[1][j](_merged(x))

    def second_partial(self, x, j: int) -> np.ndarray:
        return self._second[1][j](_merged(x))

    def gradient(self, x) -> np.ndarray:
        """(..., n, m) points -> (..., n, m) partial derivatives."""
        return self._first[0](_merged(x)).swapaxes(-1, -2)

    def gradient_kernel(self):
        """The gradient's bound kernel: (..., m * n) resource-major points -> (..., m, n) rows."""
        return self._first[0]


@dataclass(frozen=True)
class ResourceConfig:
    """Per-resource constants: capacity, AI step, MD factor, normalization."""

    capacity: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not self.capacity > 0:
            raise ConfigurationError(f"capacity must be > 0, got {self.capacity}")
        if not 0 < self.alpha <= self.capacity:
            raise ConfigurationError(f"alpha must be in (0, capacity], got {self.alpha}")
        if not 0 <= self.beta < 1:
            raise ConfigurationError(f"beta must be in [0, 1), got {self.beta}")
        if not self.gamma > 0:
            raise ConfigurationError(f"gamma must be > 0, got {self.gamma}")


@dataclass
class SystemConfig:
    """Everything a single simulation run needs."""

    agents: list            # list[CostFunction]
    resources: list         # list[ResourceConfig]
    noise: list             # list[NoiseSpec], one per resource
    steps: int
    seed: int
    burn_in_events: int = 5
    agent_ids: list | None = None

    def __post_init__(self):
        if len(self.agents) < 1:
            raise ConfigurationError("need at least one agent")
        if len(self.resources) < 1:
            raise ConfigurationError("need at least one resource")
        if len(self.noise) != len(self.resources):
            raise ConfigurationError("need one noise spec per resource")
        if not 0 <= self.steps < 2**53:     # so x-bar's float64 divisor, steps + 1 at most, is exact
            raise ConfigurationError("steps must be >= 0 and below 2**53")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.burn_in_events < 0:
            raise ConfigurationError("burn_in_events must be >= 0")
        m = len(self.resources)
        for f in self.agents:
            if f.n_resources != m:
                raise ConfigurationError("cost function dimensionality does not match resource count")
        if self.agent_ids is None:
            self.agent_ids = list(range(len(self.agents)))
        elif len(self.agent_ids) != len(self.agents):
            raise ConfigurationError("agent_ids length must match agents")
        # an id keys the agent's noise stream: equal ids would draw equal noise
        if len(set(self.agent_ids)) != len(self.agent_ids) or min(self.agent_ids) < 0:
            raise ConfigurationError(f"agent_ids must be distinct and >= 0, got {self.agent_ids}")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_resources(self) -> int:
        return len(self.resources)


# ---------------------------------------------------------------------------
# Reference cost-function families (two-resource experiments)
# ---------------------------------------------------------------------------

def quad_quartic_cost(a: float, b: float) -> CostFunction:
    """f(x1, x2) = a/2 x1^2 + b/4 x1^4 + b/2 x2^2 + a/4 x2^4."""
    return CostFunction(
        coeffs=np.array([a / 2, b / 4, b / 2, a / 4]),
        exponents=np.array([[2, 0], [4, 0], [0, 2], [0, 4]]),
    )


def quadratic_cost(b: float) -> CostFunction:
    """f(x1, x2) = b/2 x1^2 + b/4 x2^2."""
    return CostFunction(
        coeffs=np.array([b / 2, b / 4]),
        exponents=np.array([[2, 0], [0, 2]]),
    )


def quartic_cost(b: float) -> CostFunction:
    """f(x1, x2) = b/2 x1^4 + b/3 x2^4."""
    return CostFunction(
        coeffs=np.array([b / 2, b / 3]),
        exponents=np.array([[4, 0], [0, 4]]),
    )


# Sub-stream tags so agent coefficient draws and noise draws never collide.
_COEFF_STREAM = 0
NOISE_STREAM = 1


def reference_agent_costs(seed: int) -> list:
    """Build the canonical six-agent, two-resource cost mix.

    Agents cycle through three families in consecutive pairs; coefficients are
    integer-uniform a in [10, 30], b in [15, 35], drawn from a per-agent
    sub-stream of the run seed so the configuration is reproducible.
    """
    families = (quad_quartic_cost, lambda a, b: quadratic_cost(b), lambda a, b: quartic_cost(b))
    costs = []
    for i in range(6):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_COEFF_STREAM, i)))
        a, b = int(rng.integers(10, 31)), int(rng.integers(15, 36))
        costs.append(families[(i // 2) % 3](a, b))
    return costs

"""Domain types: polynomial costs and their stacked evaluator, resources, run configuration.

Cost functions are positive-coefficient multivariate polynomials: increasing on
the non-negative orthant, convex unless a monomial mixes resources (x1*x2 is not),
and with exact partial derivatives (no numeric differentiation in the loop).
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _sum_terms(x: np.ndarray, weights: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """sum_t weights[..., t] * prod_j x[..., j] ** exponents[..., t, j].

    The one polynomial evaluator: ``x`` (..., m) broadcasts against
    ``exponents`` (..., T, m), and the term axis is reduced with ``einsum``.
    """
    mono = (x[..., None, :] ** exponents).prod(axis=-1)
    return np.einsum("...t,...t->...", weights, mono)


def _compact(weights: np.ndarray, exponents: np.ndarray):
    """Drop the zero-weight terms of (..., T) weights and (..., T, m) exponents.

    Kept terms stay in their order; each row is padded to T', the largest kept
    count, with weight-0 terms of exponent 0, which add exactly 0 at any point.
    """
    keep = weights != 0
    order = np.argsort(~keep, axis=-1, kind="stable")[..., :int(keep.sum(axis=-1).max())]
    pad = ~np.take_along_axis(keep, order, axis=-1)
    weights = np.where(pad, 0.0, np.take_along_axis(weights, order, axis=-1))
    exponents = np.where(pad[..., None], 0, np.take_along_axis(exponents, order[..., None], axis=-2))
    return weights, exponents


class PolyBatch:
    """All agents' cost functions stacked into term tables.

    Evaluates every agent at once: a point array (..., n, m) gives (..., n)
    values or partials, one per agent, or an (..., n, m) gradient. Each table is
    built once by ``_compact``, which pads every row with weight-0 terms of
    exponent 0: an (n, T, m) table for the value, and per derivative order one
    stacked (m, n, T', m) table whose row j holds only the terms of d f / dx_j
    with a weight other than 0. The gradient is one kernel call over all m partials.
    """

    def __init__(self, costs):
        n, m = len(costs), costs[0].n_resources
        t_max = max(f.coeffs.shape[0] for f in costs)
        coeffs = np.zeros((n, t_max))
        exps = np.zeros((n, t_max, m), dtype=int)
        for i, f in enumerate(costs):
            coeffs[i, :f.coeffs.size], exps[i, :f.coeffs.size] = f.coeffs, f.exponents
        self._value = _compact(coeffs, exps)
        # a huge coefficient times its exponent overflows to inf; callers check finiteness
        with np.errstate(over="ignore"):
            self._first, self._second = [_compact(*_differentiate(coeffs, exps, order))
                                         for order in (1, 2)]

    def value(self, x) -> np.ndarray:
        return _sum_terms(x, *self._value)

    def partial(self, x, j: int) -> np.ndarray:
        weights, exponents = self._first
        return _sum_terms(x, weights[j], exponents[j])

    def second_partial(self, x, j: int) -> np.ndarray:
        weights, exponents = self._second
        return _sum_terms(x, weights[j], exponents[j])

    def gradient(self, x) -> np.ndarray:
        """(..., n, m) points -> (..., n, m) partial derivatives."""
        return _sum_terms(x[..., None, :, :], *self._first).swapaxes(-1, -2)


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
        if self.steps < 0:
            raise ConfigurationError("steps must be >= 0")
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

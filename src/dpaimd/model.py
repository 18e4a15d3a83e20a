"""Domain types: polynomial costs and their stacked evaluator, resources, run configuration.

Cost functions are positive-coefficient multivariate polynomials, which keeps
them strictly convex and increasing on the non-negative orthant and makes the
partial derivatives exact (no numeric differentiation in the simulation loop).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised for invalid configuration values or dimension mismatches."""


class NumericError(RuntimeError):
    """Raised when a non-finite value shows up mid-run."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Sum of monomials: cost(x) = sum_t coeffs[t] * prod_j x_j ** exponents[t, j].

    Every coefficient must be positive and every term must contain at least one
    positive exponent, so the function is finite, non-negative, convex and
    increasing on x >= 0.
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

    def _evaluate(self, method: str, x, *j) -> float | np.ndarray:
        """One ``PolyBatch`` method on this cost alone (last axis of x indexes resources)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_resources:
            raise ConfigurationError(f"point has {x.shape[-1]} components, not {self.n_resources}")
        if j and not 0 <= j[0] < self.n_resources:
            raise ConfigurationError(f"resource index {j[0]} out of range")
        out = getattr(PolyBatch([self]), method)(x[..., None, :], *j)[..., 0]
        return float(out) if out.ndim == 0 else out

    def value(self, x) -> float | np.ndarray:
        """Evaluate the cost at x (last axis indexes resources; batching allowed)."""
        return self._evaluate("value", x)

    def partial(self, x, j: int) -> float | np.ndarray:
        """Analytic partial derivative with respect to resource j."""
        return self._evaluate("partial", x, j)

    def second_partial(self, x, j: int) -> float | np.ndarray:
        """d^2 f / dx_j^2."""
        return self._evaluate("second_partial", x, j)


def _differentiate(coeffs: np.ndarray, exponents: np.ndarray, j: int, order: int):
    """Weights and exponents of the terms of d^order f / dx_j^order.

    ``coeffs`` has shape (..., T) and ``exponents`` (..., T, m); exponents that
    drop below zero are clamped, and their terms get weight 0.
    """
    ej = exponents[..., j]
    weights = coeffs
    for k in range(order):
        weights = weights * np.maximum(ej - k, 0)
    reduced = exponents.copy()
    reduced[..., j] = np.maximum(ej - order, 0)
    return weights, reduced


def _sum_terms(x: np.ndarray, weights: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """sum_t weights[..., t] * prod_j x[..., j] ** exponents[..., t, j].

    The one polynomial evaluator: ``x`` (..., m) broadcasts against
    ``exponents`` (..., T, m), and the term axis is reduced with ``einsum``.
    """
    mono = np.prod(x[..., None, :] ** exponents, axis=-1)
    return np.einsum("...t,...t->...", weights, mono)


class PolyBatch:
    """All agents' cost functions stacked into padded (n, T, m) term tensors.

    Evaluates every agent at once: a point array (..., n, m) gives (..., n)
    values or partials, one per agent. Agents with fewer than T terms are
    padded with zero-weight terms of exponent 1, so powers stay finite.
    """

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
        self._terms = {(j, order): _differentiate(self.coeffs, self.exps, j, order)
                       for j in range(m) for order in (1, 2)}

    def value(self, x) -> np.ndarray:
        return _sum_terms(x, self.coeffs, self.exps)

    def partial(self, x, j: int) -> np.ndarray:
        return _sum_terms(x, *self._terms[j, 1])

    def second_partial(self, x, j: int) -> np.ndarray:
        return _sum_terms(x, *self._terms[j, 2])

    def gradient(self, x) -> np.ndarray:
        """(..., n, m) points -> (..., n, m) partial derivatives."""
        return np.stack([self.partial(x, j) for j in range(self.m)], axis=-1)


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
    per_agent_sensitivity: bool = False
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


def agent_coefficient_rng(seed: int, agent_id: int) -> np.random.Generator:
    """Dedicated coefficient sub-stream per agent, keyed by identity."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_COEFF_STREAM, agent_id)))


def reference_agent_costs(seed: int, n: int = 6) -> list:
    """Build the canonical six-agent, two-resource cost mix.

    Agents cycle through three families in consecutive pairs; coefficients are
    integer-uniform a in [10, 30], b in [15, 35], drawn from a per-agent
    sub-stream of the run seed so the configuration is reproducible.
    """
    costs = []
    for i in range(n):
        rng = agent_coefficient_rng(seed, i)
        a = int(rng.integers(10, 31))
        b = int(rng.integers(15, 36))
        family = (i // 2) % 3
        if family == 0:
            costs.append(quad_quartic_cost(a, b))
        elif family == 1:
            costs.append(quadratic_cost(b))
        else:
            costs.append(quartic_cost(b))
    return costs

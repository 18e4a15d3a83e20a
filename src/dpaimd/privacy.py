"""Sensitivity tracking, noise calibration, and the Laplace/Gaussian mechanisms.

The scale of the additive noise is calibrated from the realized sensitivity of
the partial derivatives: Laplace uses scale = dq / epsilon (pure epsilon-LDP),
Gaussian uses sigma = (dq / epsilon) * sqrt(2 ln(1.25 / delta)) for
(epsilon, delta)-LDP. ``empirical_dp_ratio`` provides a histogram-based check
of the privacy bound against the mechanisms as actually implemented.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import ConfigurationError, NumericError


class NoiseKind(str, Enum):
    NONE = "none"
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"


class ScaleMode(str, Enum):
    FIXED = "fixed"
    CALIBRATED = "calibrated"


@dataclass(frozen=True)
class NoiseSpec:
    """Mechanism choice plus privacy parameters for one resource."""

    kind: NoiseKind = NoiseKind.NONE
    epsilon: float | None = None
    delta: float | None = None
    scale_mode: ScaleMode = ScaleMode.FIXED
    scale: float | None = None          # fixed scale (sigma or Laplace b)
    sensitivity: float | None = None    # optional fixed dq overriding the tracker

    def __post_init__(self):
        object.__setattr__(self, "kind", NoiseKind(self.kind))
        object.__setattr__(self, "scale_mode", ScaleMode(self.scale_mode))
        if self.kind is NoiseKind.NONE:
            return
        if self.scale_mode is ScaleMode.FIXED:
            if self.scale is None or not self.scale > 0:
                raise ConfigurationError("fixed scale mode needs scale > 0")
        else:
            if self.epsilon is None or not self.epsilon > 0:
                raise ConfigurationError("calibrated mode needs epsilon > 0")
        if self.kind is NoiseKind.GAUSSIAN and self.scale_mode is ScaleMode.CALIBRATED:
            if self.delta is None or not 0 < self.delta < 1:
                raise ConfigurationError("Gaussian calibration needs delta in (0, 1)")
            # sigma = dq sqrt(2 ln(1.25 / delta)) / epsilon is proven only for
            # epsilon < 1 (Dwork & Roth 2014, Theorem A.1)
            if not self.epsilon < 1:
                raise ConfigurationError("Gaussian calibration needs epsilon < 1")
        if self.sensitivity is not None and not self.sensitivity > 0:
            raise ConfigurationError("sensitivity override must be > 0")


def laplace_scale(dq: float, epsilon: float) -> float:
    """Laplace scale parameter b = dq / epsilon."""
    if not dq > 0 or not epsilon > 0:
        raise ConfigurationError("laplace_scale needs dq > 0 and epsilon > 0")
    return dq / epsilon


def gaussian_sigma(dq: float, epsilon: float, delta: float) -> float:
    """Minimal admissible sigma = (dq / epsilon) * sqrt(2 ln(1.25 / delta))."""
    if not dq > 0 or not epsilon > 0:
        raise ConfigurationError("gaussian_sigma needs dq > 0 and epsilon > 0")
    if not 0 < delta < 1.25:
        raise ConfigurationError("gaussian_sigma needs 0 < delta < 1.25")
    return (dq / epsilon) * math.sqrt(2.0 * math.log(1.25 / delta))


def sample_noise(kind: NoiseKind, scale: float, rngs) -> np.ndarray:
    """One draw per agent stream, in stream order; zeros for ``NoiseKind.NONE``."""
    if kind is NoiseKind.NONE:
        return np.zeros(len(rngs))
    if kind is NoiseKind.LAPLACE:
        return np.array([rng.laplace(0.0, scale) for rng in rngs])
    return np.array([rng.normal(0.0, scale) for rng in rngs])


@dataclass
class SensitivityTracker:
    """Running max of consecutive-event derivative differences.

    For scalar per-event differences the l1 and l2 norms coincide with the
    absolute difference, so one value serves both calibration formulas. The
    first ``burn_in_events`` events per resource are excluded because early
    derivatives reflect initialization, not dynamics. By default the max is
    shared across agents per resource; ``per_agent`` keeps separate maxima.
    """

    n_agents: int
    n_resources: int
    burn_in_events: int = 5
    per_agent: bool = False
    last_derivative: np.ndarray = field(init=False)
    running_max: np.ndarray = field(init=False)
    events_seen: np.ndarray = field(init=False)

    def __post_init__(self):
        self.last_derivative = np.zeros((self.n_agents, self.n_resources))
        shape = (self.n_agents, self.n_resources) if self.per_agent else (self.n_resources,)
        self.running_max = np.zeros(shape)
        self.events_seen = np.zeros(self.n_resources, dtype=int)

    def current(self, j: int):
        return self.running_max[:, j].copy() if self.per_agent else float(self.running_max[j])

    def update_all(self, j: int, derivatives: np.ndarray):
        """Feed every agent's noiseless partial for resource j at one event.

        Each call counts as one event of resource j. Returns the current max
        for j (per agent with ``per_agent``).
        """
        derivatives = np.asarray(derivatives, dtype=float)
        if not np.isfinite(derivatives).all() or (derivatives < 0).any():
            raise NumericError(f"non-finite or negative derivative for resource {j}")
        self.events_seen[j] += 1
        # all agents are fed together, so a second event means every agent has a previous one
        if self.events_seen[j] >= max(self.burn_in_events, 2):
            diffs = np.abs(derivatives - self.last_derivative[:, j])
            if self.per_agent:
                self.running_max[:, j] = np.maximum(self.running_max[:, j], diffs)
            else:
                self.running_max[j] = max(self.running_max[j], float(diffs.max()))
        self.last_derivative[:, j] = derivatives
        return self.current(j)


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

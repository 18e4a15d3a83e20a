"""Sensitivity tracking, noise calibration, and the Laplace/Gaussian mechanisms.

Each resource's NoiseSpec turns the sensitivity dq of the partial derivatives
into its noise scale: Laplace uses scale = dq / epsilon (pure epsilon-LDP),
Gaussian uses sigma = (dq / epsilon) * sqrt(2 ln(1.25 / delta)) for
(epsilon, delta)-LDP. ``noise_sources`` draws every noise column: each agent's
noise comes from its own stream, one per noise kind, drawn ahead in blocks of
scale-1 draws; an event takes the next column, times the resource's scale.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import NOISE_STREAM, ConfigurationError, NumericError, SystemConfig

NOISE_BLOCK = 1024      # draws per agent stream taken ahead at a time


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
        for name, choice in (("kind", NoiseKind), ("scale_mode", ScaleMode)):
            try:    # Enum's own message would echo a long value whole
                object.__setattr__(self, name, choice(getattr(self, name)))
            except ValueError:
                raise ConfigurationError(f"{name} must be one of {[c.value for c in choice]}, "
                                         f"got {reprlib.repr(getattr(self, name))}") from None
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

    @property
    def needs_pilot(self) -> bool:
        """Calibrated without a sensitivity override, so a noiseless pilot must measure dq."""
        return (self.kind is not NoiseKind.NONE and self.scale_mode is ScaleMode.CALIBRATED
                and self.sensitivity is None)

    def noise_scale(self, pilot_dq: float, resource: int) -> float:
        """The scale to draw with on ``resource``: 0 without noise, the fixed scale,
        or the calibration formula on the sensitivity override, else on ``pilot_dq``."""
        if self.kind is NoiseKind.NONE:
            return 0.0
        if self.scale_mode is ScaleMode.FIXED:
            return float(self.scale)
        dq = pilot_dq if self.sensitivity is None else self.sensitivity
        if not dq > 0:
            raise ConfigurationError(f"calibration found no positive sensitivity for resource {resource}")
        if self.kind is NoiseKind.LAPLACE:
            return dq / self.epsilon
        return (dq / self.epsilon) * math.sqrt(2.0 * math.log(1.25 / self.delta))


def unit_noise(kind: NoiseKind, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` scale-1 Laplace or Gaussian draws from ``rng``.

    Times s, they equal ``size`` successive ``rng.laplace(0, s)`` or
    ``rng.normal(0, s)`` draws bit for bit: numpy computes those as
    ``0 - s * log(...)`` and ``0 + s * z`` from the same uniform or normal.
    """
    if kind is NoiseKind.LAPLACE:
        return rng.laplace(0.0, 1.0, size)
    return rng.standard_normal(size)


def _noise_columns(kind: NoiseKind, rngs: list, limit: int):
    """Yield each agent stream's next scale-1 draw of ``kind``, one (n,) column at a time.

    Blocks of up to NOISE_BLOCK draws per stream are taken ahead, lazily and
    at most ``limit`` per stream in all.
    """
    while limit > 0:
        size = min(NOISE_BLOCK, limit)
        limit -= size
        yield from np.stack([unit_noise(kind, rng, size) for rng in rngs], axis=1)


def noise_sources(config: SystemConfig) -> list:
    """Per resource, the iterator of its scale-1 noise columns, or None without noise.

    Each agent has one stream per noise kind, which the resources of that kind
    share in event order. The first noisy resource's kind keeps the agent's
    original stream, so a config with one kind draws as per-event draws would.
    """
    kinds = [spec.kind for spec in config.noise]
    noisy = dict.fromkeys(kind for kind in kinds if kind is not NoiseKind.NONE)   # first seen first
    sources = {}
    for stream, kind in enumerate(noisy):
        tag = (stream,) if stream else ()
        rngs = [np.random.default_rng(np.random.SeedSequence(
                    config.seed, spawn_key=(NOISE_STREAM, aid) + tag)) for aid in config.agent_ids]
        sources[kind] = _noise_columns(kind, rngs, config.steps * kinds.count(kind))
    return [sources.get(kind) for kind in kinds]


class SensitivityTracker:
    """Running max per resource of consecutive-event derivative differences.

    For scalar per-event differences the l1 and l2 norms coincide with the
    absolute difference, so one value serves both calibration formulas. The
    first ``burn_in_events`` events per resource are excluded because early
    derivatives reflect initialization, not dynamics. The max is shared across
    agents, because each resource has one noise scale for every agent.
    """

    def __init__(self, n_agents: int, n_resources: int, burn_in_events: int):
        self.last_derivative = np.zeros((n_agents, n_resources))
        self.running_max = np.zeros(n_resources)
        self.events_seen = [0] * n_resources
        # all agents are fed together, so a second event means every agent has a previous one
        self.first_counted = max(burn_in_events, 2)

    def update_all(self, j: int, derivatives: np.ndarray) -> float:
        """Feed every agent's noiseless partial for resource j at one event.

        Each call counts as one event of resource j and may raise
        ``running_max[j]``. Returns the spread max - min of the partials.
        """
        derivatives = np.asarray(derivatives, dtype=float)
        lo, hi = derivatives.min(), derivatives.max()
        # one comparison each way rejects NaN, infinities and negatives
        if not (0 <= lo and hi < math.inf):
            raise NumericError(f"non-finite or negative derivative for resource {j}")
        self.events_seen[j] += 1
        if self.events_seen[j] >= self.first_counted:
            diffs = np.abs(derivatives - self.last_derivative[:, j])
            self.running_max[j] = max(self.running_max[j], diffs.max())
        self.last_derivative[:, j] = derivatives
        return hi - lo

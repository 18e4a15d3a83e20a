"""Sensitivity tracking, noise calibration, and the Laplace/Gaussian mechanisms.

Each resource's NoiseSpec turns the sensitivity dq of the partial derivatives
into its noise scale: Laplace uses scale = dq / epsilon (pure epsilon-LDP),
Gaussian uses sigma = (dq / epsilon) * sqrt(2 ln(1.25 / delta)) for
(epsilon, delta)-LDP. ``noise_sources`` draws all noise: each agent's noise
comes from its own stream, one per noise kind, drawn ahead in blocks of scale-1
draws, which each resource of the kind scales once; an event takes the next row.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import NOISE_STREAM, ConfigurationError, NumericError, SystemConfig

NOISE_BLOCK = 1024      # draws per agent stream taken ahead at a time
SCALED_ROWS = 64        # rows of a block scaled at a time, once per resource of the kind


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
    sensitivity: float | None = None    # dq to calibrate on, set or filled in by a pilot

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
            if self.scale is None or not 0 < self.scale < math.inf:
                raise ConfigurationError("fixed scale mode needs a finite scale > 0")
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

    def noise_scale(self, resource: int) -> float:
        """The scale to draw with on ``resource``: 0 without noise, the fixed scale, or the
        calibration on ``sensitivity``; NumericError on overflow."""
        if self.kind is NoiseKind.NONE:
            return 0.0
        if self.scale_mode is ScaleMode.FIXED:
            return float(self.scale)
        if self.sensitivity is None:
            raise ConfigurationError(f"calibration found no positive sensitivity for resource {resource}")
        scale = self.sensitivity / self.epsilon * (
            1.0 if self.kind is NoiseKind.LAPLACE else math.sqrt(2.0 * math.log(1.25 / self.delta)))
        if not scale < math.inf:
            raise NumericError(f"calibration overflows the noise scale of resource {resource}")
        return scale


def unit_noise(kind: NoiseKind, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` scale-1 Laplace or Gaussian draws from ``rng``.

    Times s, they equal ``size`` successive ``rng.laplace(0, s)`` or
    ``rng.normal(0, s)`` draws bit for bit: numpy computes those as
    ``0 - s * log(...)`` and ``0 + s * z`` from the same uniform or normal.
    """
    if kind is NoiseKind.LAPLACE:
        return rng.laplace(0.0, 1.0, size)
    return rng.standard_normal(size)


def _scaled_rows(kind: NoiseKind, rngs: list, limit: int, scales: dict):
    """Generator whose ``send(j)`` returns resource j's next (n,) row of ``kind`` noise.

    (size, n) blocks of up to NOISE_BLOCK draws per agent stream are drawn lazily,
    at most ``limit`` per stream in all. Each resource j of the kind scales them
    once, by ``scales[j]``, SCALED_ROWS rows at a time, and takes the rows its events reach."""
    j = yield
    while limit > 0:
        size = min(NOISE_BLOCK, limit)
        limit -= size
        unit = np.stack([unit_noise(kind, rng, size) for rng in rngs], axis=1)
        for part in np.split(unit, range(SCALED_ROWS, size, SCALED_ROWS)):
            rows = {r: part * scale for r, scale in scales.items()}
            for i in range(len(part)):
                j = yield rows[j][i]
        del unit, part      # free this block before the next one is drawn


def noise_sources(config: SystemConfig, scales) -> list:
    """Per resource, the ``_scaled_rows`` of its kind on ``scales``, primed, or None.

    Each agent has one stream per noise kind, which the resources of that kind
    share in event order. The first noisy resource's kind keeps the agent's
    original stream, so a config with one kind draws as per-event draws would."""
    kinds = [spec.kind for spec in config.noise]
    noisy = dict.fromkeys(kind for kind in kinds if kind is not NoiseKind.NONE)   # first seen first
    sources = {}
    for stream, kind in enumerate(noisy):
        tag = (stream,) if stream else ()
        rngs = [np.random.default_rng(np.random.SeedSequence(
                    config.seed, spawn_key=(NOISE_STREAM, aid) + tag)) for aid in config.agent_ids]
        sources[kind] = _scaled_rows(kind, rngs, config.steps * kinds.count(kind),
                                     {j: scales[j] for j, k in enumerate(kinds) if k is kind})
        next(sources[kind])
    return [sources.get(kind) for kind in kinds]


class SensitivityTracker:
    """Running max per resource of consecutive-event derivative differences.

    For scalar per-event differences the l1 and l2 norms coincide with the
    absolute difference, so one value serves both calibration formulas. The
    first ``burn_in_events`` events per resource are excluded because early
    derivatives reflect initialization, not dynamics. The max is shared across
    agents, because each resource has one noise scale for every agent.
    Nothing in the step loop reads it, so the loop feeds it a block of event
    steps at a time. At each step of the increasing ``grid`` it records, per
    resource, the running max, the events so far, and the spread max - min of
    the partials at the last event and its step (NaN and -1 before the first).
    """

    def __init__(self, n_agents: int, n_resources: int, burn_in_events: int, grid: np.ndarray):
        self.last_derivative = np.zeros((n_agents, n_resources))
        self.running_max = np.zeros(n_resources)
        self.events_seen = [0] * n_resources
        # all agents are fed together, so a second event means every agent has a previous one
        self.first_counted = max(burn_in_events, 2)
        self.grid, shape = grid, (len(grid), n_resources)
        self.grid_sensitivity, self.grid_spread = np.zeros(shape), np.full(shape, np.nan)
        self.grid_events, self.grid_spread_step = np.zeros(shape, np.int64), np.full(shape, -1, np.int64)

    def update_all(self, steps: np.ndarray, derivatives: np.ndarray, bits: np.ndarray,
                   dq: np.ndarray | None = None):
        """Feed every agent's noiseless partials at a block of event steps, in step order.

        Row i of the (k, m, n) ``derivatives`` holds the partials at step
        ``steps[i]``, and row i of the (k, m) ``bits`` the resources that fired
        there; the partials of the others are not read. Each fired cell (i, j)
        is one event of resource j, and may raise ``running_max[j]``. Column j
        of the grid record is rewritten from the block's first event of j on,
        so a later block overwrites what this one wrote past its own first
        event. ``dq``, if given, receives the running max after each fired cell
        at row ``steps[i]``, column j; its other cells keep their values. A
        non-finite or negative partial raises NumericError, naming the lowest
        such step and then the lowest resource, before any state changes.
        """
        fired = np.asarray(bits, dtype=bool)
        lo, hi = np.minimum.reduce(derivatives, axis=2), np.maximum.reduce(derivatives, axis=2)
        # one comparison each way rejects NaN, infinities and negatives
        bad = fired & ~((0 <= lo) & (hi < math.inf))
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            raise NumericError(f"non-finite or negative derivative for resource {j} at step {steps[i]}")
        for j in range(fired.shape[1]):
            rows = np.flatnonzero(fired[:, j])
            if not rows.size:
                continue
            at = steps[rows]
            # each event's partials after the previous event's, the block's first after the last fed
            partials = np.concatenate([self.last_derivative[None, :, j], derivatives[rows, j]])
            diffs = np.subtract(partials[1:], partials[:-1])
            jumps = np.maximum.reduce(np.abs(diffs, out=diffs), axis=1)
            jumps[:max(self.first_counted - 1 - self.events_seen[j], 0)] = 0.0     # burn-in events
            np.maximum.accumulate(jumps, out=jumps)
            np.maximum(jumps, self.running_max[j], out=jumps)
            if dq is not None:
                dq[at, j] = jumps
            # the grid steps from the block's first event on, and the last event at or before each
            tail = slice(np.searchsorted(self.grid, at[0]), None)
            last = np.searchsorted(at, self.grid[tail], side="right") - 1
            self.grid_sensitivity[tail, j] = jumps[last]
            self.grid_events[tail, j] = last + (self.events_seen[j] + 1)
            self.grid_spread[tail, j] = hi[rows[last], j] - lo[rows[last], j]
            self.grid_spread_step[tail, j] = at[last]
            self.running_max[j] = jumps[-1]
            self.last_derivative[:, j] = partials[-1]
            self.events_seen[j] += rows.size

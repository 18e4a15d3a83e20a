"""Synchronous discrete-time simulation of the private AIMD allocation loop.

Each step: the server compares the previous step's aggregate demand per
resource against capacity and broadcasts one event bit per saturated resource;
agents holding a 1-bit back off multiplicatively using a noisy scaling factor
computed from their average allocation (the running mean of their demand over
every step so far), all other demands grow additively.
Runs are deterministic given the config and seed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigurationError, NumericError, PolyBatch, SystemConfig, NOISE_STREAM
from .privacy import (
    NoiseKind,
    NoiseSpec,
    ScaleMode,
    SensitivityTracker,
    gaussian_sigma,
    laplace_scale,
    sample_noise,
)

LAMBDA_MIN = 1e-9


def server_step(capacities: np.ndarray, aggregate: np.ndarray) -> np.ndarray:
    """Event bits S_j = 1 iff aggregate_j >= C_j."""
    if not np.isfinite(aggregate).all():
        raise NumericError("non-finite aggregate demand")
    return (aggregate >= capacities).astype(np.uint8)


def compute_lambda_hat(gamma, derivative, noise, xbar):
    """Noisy back-off factor gamma * |f' + d| / xbar, clamped into [LAMBDA_MIN, 1].

    Elementwise over agents. Needs xbar > 0, which holds at every event: no
    event fires at step 0, so xbar >= alpha / (nu + 1) by then.
    """
    return np.clip(gamma * np.abs(derivative + noise) / xbar, LAMBDA_MIN, 1.0)


def multiplicative_decrease(x, lam, beta):
    """Back-off x <- (lam * beta + 1 - lam) * x, elementwise over agents."""
    return (lam * beta + (1.0 - lam)) * x


@dataclass
class Trace:
    """Struct-of-arrays record of a full run, each fact stored once.

    x-bar, lambda-hat and the bit counts are derived on each read, bit for bit
    the values the engine used.
    """

    x: np.ndarray                   # (steps, n, m)
    event_bits: np.ndarray          # (steps, m) uint8
    noisy_derivative: np.ndarray    # (steps, n, m), NaN off-event
    partial_spread: np.ndarray      # (steps, m) max - min of noiseless partials, NaN off-event
    sensitivity: np.ndarray         # (steps, m) running max dq
    noise_scales: np.ndarray        # (m,) scales actually used (0 where none)
    gamma: np.ndarray               # (m,) back-off normalization per resource

    @property
    def xbar(self) -> np.ndarray:               # (steps, n, m), after the step's update
        xbar = np.cumsum(self.x, axis=0)
        return np.divide(xbar, np.arange(2, self.steps + 2)[:, None, None], out=xbar)

    @property
    def lambda_hat(self) -> np.ndarray:         # (steps, n, m), NaN off-event
        prev = np.concatenate([np.zeros_like(self.x[:1]), self.xbar[:-1]])   # x-bar used
        return compute_lambda_hat(self.gamma, self.noisy_derivative, 0.0, prev)

    @property
    def event_counts(self) -> np.ndarray:       # (m,) events K_j per resource
        return self.event_bits.sum(axis=0, dtype=np.int64)

    @property
    def cum_bits(self) -> np.ndarray:           # (steps,) cumulative broadcast bits
        return np.cumsum(self.event_bits.sum(axis=1, dtype=np.int64))

    @property
    def broadcast_bits_total(self) -> int:
        return int(self.event_bits.sum(dtype=np.int64))

    @property
    def steps(self) -> int:
        return self.x.shape[0]

    @property
    def n_agents(self) -> int:
        return self.x.shape[1]

    @property
    def n_resources(self) -> int:
        return self.x.shape[2]


def _agent_rngs(config: SystemConfig) -> list:
    return [
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(NOISE_STREAM, aid)))
        for aid in config.agent_ids
    ]


def resolve_noise_scales(config: SystemConfig) -> np.ndarray:
    """Per-resource noise scales; calibrated specs run a noiseless pilot first.

    The pilot reuses the config's seed and step count, measures the realized
    sensitivity with burn-in, then the calibration formula converts it to a
    scale. A per-spec sensitivity override skips the pilot for that resource.
    """
    m = config.n_resources
    scales = np.zeros(m)
    needs_pilot = [
        j for j, spec in enumerate(config.noise)
        if spec.kind is not NoiseKind.NONE
        and spec.scale_mode is ScaleMode.CALIBRATED
        and spec.sensitivity is None
    ]
    pilot_dq = None
    if needs_pilot:
        pilot_cfg = replace(
            config,
            noise=[NoiseSpec(kind=NoiseKind.NONE) for _ in range(m)],
            agent_ids=list(config.agent_ids),
        )
        pilot = _simulate(pilot_cfg, np.zeros(m))
        pilot_dq = pilot.sensitivity[-1] if pilot.steps else np.zeros(m)
    for j, spec in enumerate(config.noise):
        if spec.kind is NoiseKind.NONE:
            continue
        if spec.scale_mode is ScaleMode.FIXED:
            scales[j] = spec.scale
            continue
        dq = spec.sensitivity if spec.sensitivity is not None else float(pilot_dq[j])
        if not dq > 0:
            raise ConfigurationError(
                f"calibration found no positive sensitivity for resource {j}"
            )
        if spec.kind is NoiseKind.LAPLACE:
            scales[j] = laplace_scale(dq, spec.epsilon)
        else:
            scales[j] = gaussian_sigma(dq, spec.epsilon, spec.delta)
    return scales


def run(config: SystemConfig, scales: np.ndarray | None = None) -> Trace:
    """Full simulation run; deterministic given config and seed.

    ``scales`` are the per-resource noise scales to use; by default
    ``resolve_noise_scales(config)`` works them out, running its pilot if needed.
    """
    return _simulate(config, resolve_noise_scales(config) if scales is None else scales)


def _simulate(config: SystemConfig, scales: np.ndarray) -> Trace:
    n, m = config.n_agents, config.n_resources
    steps = config.steps
    capacities = np.array([r.capacity for r in config.resources], dtype=float)
    alpha = np.array([r.alpha for r in config.resources], dtype=float)
    beta = np.array([r.beta for r in config.resources], dtype=float)
    gamma = np.array([r.gamma for r in config.resources], dtype=float)

    batch = PolyBatch(config.agents)
    rngs = _agent_rngs(config)
    tracker = SensitivityTracker(n_agents=n, n_resources=m, burn_in_events=config.burn_in_events)

    x = np.zeros((n, m))
    xbar = np.zeros((n, m))
    x_sum = np.zeros((n, m))            # x(0) + x(1) + ... + x(nu + 1) after step nu

    try:
        tr_x = np.empty((steps, n, m))
        tr_bits = np.empty((steps, m), dtype=np.uint8)
        tr_nderiv = np.full((steps, n, m), np.nan)
        tr_spread = np.full((steps, m), np.nan)
        tr_dq = np.empty((steps, m))
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"steps={steps} gives a trace numpy cannot allocate: {exc}") from exc

    for nu in range(steps):
        bits = server_step(capacities, x.sum(axis=0))
        fired = np.nonzero(bits)[0]
        if fired.size:
            grads = batch.gradient(xbar)
            if not np.isfinite(grads).all():
                raise NumericError(f"non-finite derivative at step {nu}", step=nu)
            for j in fired:
                tracker.update_all(j, grads[:, j])
                tr_spread[nu, j] = grads[:, j].max() - grads[:, j].min()
                d = sample_noise(config.noise[j].kind, scales[j], rngs)
                tr_nderiv[nu, :, j] = grads[:, j] + d
                lam = compute_lambda_hat(gamma[j], grads[:, j], d, xbar[:, j])
                x[:, j] = multiplicative_decrease(x[:, j], lam, beta[j])
        grow = bits == 0
        if grow.any():
            x[:, grow] += alpha[grow]
        if not np.isfinite(x).all():
            raise NumericError(f"non-finite demand at step {nu}", step=nu)
        # running mean of the demand over every step, x(0) = 0 included
        x_sum += x
        np.divide(x_sum, nu + 2, out=xbar)
        tr_x[nu] = x
        tr_bits[nu] = bits
        tr_dq[nu] = tracker.running_max

    return Trace(
        x=tr_x, event_bits=tr_bits, noisy_derivative=tr_nderiv, partial_spread=tr_spread,
        sensitivity=tr_dq, noise_scales=scales.copy(), gamma=gamma,
    )

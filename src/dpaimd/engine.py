"""Synchronous discrete-time simulation of the private AIMD allocation loop.

Each step: the server compares the previous step's aggregate demand per
resource against capacity and broadcasts one event bit per saturated resource;
agents holding a 1-bit back off multiplicatively using a noisy scaling factor
computed from their average allocation (the running mean of their demand over
every step so far), all other demands grow additively.
Runs are deterministic given the config and seed. At an event the engine adds
the resource's noise scale times the next column of its ``privacy.noise_sources``
iterator; it never branches on the mechanism.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigurationError, NumericError, PolyBatch, SystemConfig
from .privacy import NoiseSpec, SensitivityTracker, noise_sources

LAMBDA_MIN = 1e-9


def server_step(capacities: np.ndarray, aggregate: np.ndarray) -> np.ndarray:
    """Event bits S_j = 1 iff aggregate_j >= C_j."""
    if not np.isfinite(aggregate).all():
        raise NumericError("non-finite aggregate demand")
    return (aggregate >= capacities).view(np.uint8)


def compute_lambda_hat(gamma, noisy_derivative, xbar):
    """Noisy back-off factor gamma * |f' + d| / xbar, clamped into [LAMBDA_MIN, 1].

    Takes the noisy derivative f' + d (f' alone without noise). Elementwise
    over agents; a NaN derivative (off-event in a trace) stays NaN. Needs
    xbar > 0, which holds at every event: no event fires at step 0, so
    xbar >= alpha / (nu + 1) by then.
    """
    return np.minimum(np.maximum(gamma * np.abs(noisy_derivative) / xbar, LAMBDA_MIN), 1.0)


def multiplicative_decrease(x, lam, beta):
    """Back-off x <- (lam * beta + 1 - lam) * x, elementwise over agents."""
    return (lam * beta + (1.0 - lam)) * x


@dataclass
class Trace:
    """Struct-of-arrays record of a run, each fact stored once.

    The dense per-agent series ``x`` and ``noisy_derivative`` are kept only by
    a run with ``dense=True`` and are None otherwise; a summary reads only the
    loop's own final x-bar and the (steps, m) arrays. x-bar, lambda-hat and the
    bit counts are derived on each read, bit for bit the values the engine used.
    """

    x: np.ndarray | None                 # (steps, n, m), None unless dense
    final_xbar: np.ndarray               # (n, m) x-bar after the last step, zeros at 0 steps
    event_bits: np.ndarray               # (steps, m) uint8
    noisy_derivative: np.ndarray | None  # (steps, n, m), NaN off-event, None unless dense
    partial_spread: np.ndarray           # (steps, m) max - min of noiseless partials, NaN off-event
    sensitivity: np.ndarray              # (steps, m) running max dq
    noise_scales: np.ndarray             # (m,) scales actually used (0 where none)
    gamma: np.ndarray                    # (m,) back-off normalization per resource

    def views(self, rows: int):
        """Iterate (span, xbar, lambda_hat) over consecutive blocks of up to ``rows`` steps.

        ``xbar`` is x-bar after each step of the block; ``lambda_hat`` (NaN
        off-event) comes from the recorded noisy derivative and the x-bar the
        step started from. The sum of x carries from block to block and cumsum
        adds in order, so every block holds the bits the engine used. A run of
        0 steps gives one empty block. A lean trace raises ValueError at once.
        """
        if self.x is None:
            raise ValueError("this trace keeps no per-agent series: run with dense=True "
                             "to derive x-bar, lambda-hat or the trace CSV")

        def blocks():
            carry = np.zeros(self.x.shape[1:])     # sum of x over the steps before the block
            for lo in range(0, max(self.steps, 1), rows):
                span = slice(lo, lo + rows)
                sums = np.concatenate([carry[None], self.x[span]])
                np.cumsum(sums, axis=0, out=sums)   # row 0, the carry, starts the sum
                carry = sums[-1].copy()
                sums /= np.arange(lo + 1, lo + 1 + len(sums))[:, None, None]   # now means
                yield span, sums[1:], compute_lambda_hat(self.gamma, self.noisy_derivative[span],
                                                         sums[:-1])
        return blocks()

    @property
    def xbar(self) -> np.ndarray:               # (steps, n, m), after the step's update
        [(_, xbar, _)] = self.views(max(self.steps, 1))
        return xbar

    @property
    def lambda_hat(self) -> np.ndarray:         # (steps, n, m), NaN off-event
        [(_, _, lambda_hat)] = self.views(max(self.steps, 1))
        return lambda_hat

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
        return self.event_bits.shape[0]

    @property
    def n_agents(self) -> int:
        return self.final_xbar.shape[0]

    @property
    def n_resources(self) -> int:
        return self.final_xbar.shape[1]


def resolve_noise_scales(config: SystemConfig) -> np.ndarray:
    """Per-resource noise scales, each from its spec; if a spec needs it, a
    noiseless pilot with the config's seed and steps first measures dq."""
    m = config.n_resources
    dq = np.zeros(m)
    if any(spec.needs_pilot for spec in config.noise):
        pilot = _simulate(replace(config, noise=[NoiseSpec()] * m), np.zeros(m))
        if pilot.steps:
            dq = pilot.sensitivity[-1]
    return np.array([spec.noise_scale(float(dq[j]), j) for j, spec in enumerate(config.noise)])


def run(config: SystemConfig, scales: np.ndarray | None = None, *, dense: bool = False) -> Trace:
    """Full simulation run; deterministic given config and seed.

    ``scales`` are the per-resource noise scales to use; by default
    ``resolve_noise_scales(config)`` works them out, running its pilot if needed.
    The trace keeps the (steps, n, m) series ``x`` and ``noisy_derivative``
    only with ``dense=True``; without it the run holds O(n m + steps m) memory
    and every other field, the summary's inputs, has the same bits.
    """
    return _simulate(config, resolve_noise_scales(config) if scales is None else scales,
                     dense=dense)


def _simulate(config: SystemConfig, scales: np.ndarray, *, dense: bool = False) -> Trace:
    """The step loop, each check once a step: ``server_step`` rejects a non-finite
    aggregate, ``update_all`` a fired resource's non-finite partial, and one check
    after the loop the last demand; the NumericError names the step it failed at.
    ``sensitivity`` is written on event steps and forward-filled after the loop."""
    n, m, steps = config.n_agents, config.n_resources, config.steps
    capacities = np.array([r.capacity for r in config.resources], dtype=float)
    alpha = np.array([r.alpha for r in config.resources], dtype=float)
    gamma = np.array([r.gamma for r in config.resources], dtype=float)
    # per resource, as Python floats: gamma, beta, the noise scale and the noise source
    backoff = list(zip(gamma.tolist(), [float(r.beta) for r in config.resources],
                       scales.tolist(), noise_sources(config)))

    gradient = PolyBatch(config.agents).gradient
    tracker = SensitivityTracker(n_agents=n, n_resources=m, burn_in_events=config.burn_in_events)

    x = np.zeros((n, m))
    grown = np.empty((n, m))            # x + alpha, then the back-offs: the next x
    xbar = np.zeros((n, m))
    x_sum = np.zeros((n, m))            # x(0) + x(1) + ... + x(nu + 1) after step nu

    tr_x = tr_nderiv = None
    try:
        tr_bits = np.empty((steps, m), dtype=np.uint8)
        tr_spread = np.full((steps, m), np.nan)
        tr_dq = np.zeros((steps, m))
        if dense:
            tr_x = np.empty((steps, n, m))
            tr_nderiv = np.full((steps, n, m), np.nan)
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"steps={steps} gives a trace numpy cannot allocate: {exc}") from exc

    with np.errstate(over="ignore"):   # lambda-hat clamps an overflow; the checks catch the rest
        try:
            for nu in range(steps):
                tr_bits[nu] = bits = server_step(capacities, x.sum(axis=0))
                np.add(x, alpha, out=grown)     # additive increase, replaced where an event fired
                fired = [j for j, bit in enumerate(bits.tolist()) if bit]
                if fired:
                    grads = gradient(xbar)
                    for j in fired:
                        gamma_j, beta_j, scale_j, source = backoff[j]
                        g = grads[:, j]
                        tr_spread[nu, j] = tracker.update_all(j, g)
                        nd = g if source is None else g + scale_j * next(source)
                        if dense:
                            tr_nderiv[nu, :, j] = nd
                        lam = compute_lambda_hat(gamma_j, nd, xbar[:, j])
                        grown[:, j] = multiplicative_decrease(x[:, j], lam, beta_j)
                    tr_dq[nu] = tracker.running_max
                x, grown = grown, x
                # running mean of the demand over every step, x(0) = 0 included
                x_sum += x
                np.divide(x_sum, nu + 2, out=xbar)
                if dense:
                    tr_x[nu] = x
        except NumericError as exc:
            raise NumericError(f"{exc} at step {nu}") from exc
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite demand at step {steps - 1}")
    # the running max starts at 0 and never falls, so the max so far fills the event-free steps
    np.maximum.accumulate(tr_dq, axis=0, out=tr_dq)

    return Trace(
        x=tr_x, final_xbar=xbar, event_bits=tr_bits, noisy_derivative=tr_nderiv,
        partial_spread=tr_spread, sensitivity=tr_dq, noise_scales=scales.copy(), gamma=gamma,
    )

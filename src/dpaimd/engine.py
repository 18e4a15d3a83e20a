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
TRACKER_BLOCK_CELLS = 1 << 16    # partials the loop holds for the sensitivity tracker
# 0-d float64 operands: a Python float's bits, without its NEP 50 conversion on every call
_LAMBDA_MIN, _ONE = np.array(LAMBDA_MIN), np.array(1.0)


def server_step(capacities: np.ndarray, aggregate: np.ndarray) -> np.ndarray:
    """Event bits S_j = 1 iff aggregate_j >= C_j.

    A sum of demands x >= 0 is never negative, so NaN and +inf are its only
    failures, and one comparison of its max rejects both.
    """
    if not float(np.maximum.reduce(aggregate)) < np.inf:
        raise NumericError("non-finite aggregate demand")
    return (aggregate >= capacities).view(np.uint8)


def compute_lambda_hat(gamma, noisy_derivative, xbar, out=None):
    """Noisy back-off factor gamma * |f' + d| / xbar, clamped into [LAMBDA_MIN, 1].

    Takes the noisy derivative f' + d (f' alone without noise). Elementwise
    over agents; a NaN derivative (off-event in a trace) stays NaN. Needs
    xbar > 0, which holds at every event: no event fires at step 0, so
    xbar >= alpha / (nu + 1) by then. ``out``, if given, receives the result,
    and may be ``noisy_derivative`` itself.
    """
    lam = np.abs(noisy_derivative, out=out)
    lam = np.multiply(gamma, lam, out=out)
    lam = np.divide(lam, xbar, out=out)
    lam = np.maximum(lam, _LAMBDA_MIN, out=out)
    return np.minimum(lam, _ONE, out=out)


def multiplicative_decrease(x, lam, beta, out=None):
    """Back-off x <- (lam * beta + 1 - lam) * x, elementwise over agents.

    ``out``, if given, receives the result; it must not be ``x`` or ``lam``.
    """
    factor = np.multiply(lam, beta, out=out)
    factor = np.add(factor, np.subtract(_ONE, lam), out=out)
    return np.multiply(factor, x, out=out)


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


def resolve_noise_scales(config: SystemConfig, noise_lists: list) -> list:
    """Each list of noise specs in ``noise_lists``, with every spec that needs a
    pilot given the pilot's dq on its resource as its ``sensitivity``. One
    noiseless pilot with the config's agents, resources, steps and burn-in
    (never its seed: it draws no noise) serves all lists. Each spec's scale is
    worked out once here, so a missing dq or an overflow fails before any run."""
    dq = np.zeros(config.n_resources)
    if any(spec.needs_pilot for noise in noise_lists for spec in noise):
        pilot = _simulate(replace(config, noise=[NoiseSpec()] * config.n_resources))
        if pilot.steps:
            dq = pilot.sensitivity[-1]
    resolved = [[replace(spec, sensitivity=float(dq[j])) if spec.needs_pilot and dq[j] > 0
                 else spec for j, spec in enumerate(noise)] for noise in noise_lists]
    for noise in resolved:
        for j, spec in enumerate(noise):
            spec.noise_scale(j)
    return resolved


def run(config: SystemConfig, *, dense: bool = False) -> Trace:
    """Full simulation run; deterministic given config and seed.

    A calibrated spec without a ``sensitivity`` gets one from
    ``resolve_noise_scales``, which runs its pilot. The trace keeps the
    (steps, n, m) series ``x`` and ``noisy_derivative`` only with
    ``dense=True``; without it the run holds O(n m + steps m) memory and every
    other field, the summary's inputs, has the same bits.
    """
    if any(spec.needs_pilot for spec in config.noise):
        [noise] = resolve_noise_scales(config, [config.noise])
        config = replace(config, noise=noise)
    return _simulate(config, dense=dense)


def _simulate(config: SystemConfig, *, dense: bool = False) -> Trace:
    """The step loop on the noise scales of the config's specs, each check once
    a step: ``server_step`` rejects a non-finite aggregate, the tracker a fired
    resource's non-finite partial, and one check after the loop the last
    demand; the NumericError names the step it failed at.

    Nothing in the loop reads the sensitivity, so each event step only copies
    its partials into a block that the tracker takes in one pass when it is
    full, when ``server_step`` fails and after the loop: a partial that failed
    first still wins. The tracker writes ``partial_spread`` and ``sensitivity``
    on event steps, and ``sensitivity`` is forward-filled after the loop. Each
    per-step call takes operands made once per run, and x-bar is divided out
    only where it is read: at event steps and after the loop."""
    n, m, steps = config.n_agents, config.n_resources, config.steps
    sources = noise_sources(config)
    scales = np.array([spec.noise_scale(j) for j, spec in enumerate(config.noise)])
    capacities = np.array([r.capacity for r in config.resources], dtype=float)
    # every agent's step, so the additive increase is a same-shape add
    alpha = np.tile(np.array([r.alpha for r in config.resources], dtype=float), (n, 1))
    gamma = np.array([r.gamma for r in config.resources], dtype=float)
    beta = np.array([r.beta for r in config.resources], dtype=float)
    # per resource, as 0-d arrays: gamma, beta and the noise scale; then the noise source
    backoff = [(gamma[j, ...], beta[j, ...], scales[j, ...], sources[j]) for j in range(m)]

    gradient_rows = PolyBatch(config.agents).gradient_rows
    tracker = SensitivityTracker(n_agents=n, n_resources=m, burn_in_events=config.burn_in_events)

    x = np.zeros((n, m))
    grown = np.empty((n, m))            # x + alpha, then the back-offs: the next x
    xbar_flat = np.zeros(n * m)         # x-bar as the kernel reads it
    xbar = xbar_flat.reshape(n, m)      # up to date at event steps and after the loop
    x_sum = np.zeros((n, m))            # x(0) + x(1) + ... + x(nu + 1) after step nu
    count = np.array(1.0)               # how many x the sum holds, at an event step
    lam = np.empty(n)                   # a fired resource's noisy partials, then lambda-hat
    # per resource, the columns of x-bar, x and the next x, for each order of the two buffers
    cols, cols_next = (list(zip(xbar.T, a.T, b.T)) for a, b in ((x, grown), (grown, x)))

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

    # the partials of the event steps the tracker has not taken yet
    block = np.empty((max(1, min(steps, TRACKER_BLOCK_CELLS // (n * m))), n, m))
    event_steps = []

    def feed_tracker():
        if event_steps:
            rows = np.array(event_steps)
            event_steps.clear()
            tracker.update_all(rows, block[:rows.size], tr_bits[rows], tr_spread, tr_dq)

    # lambda-hat clamps an overflow and the checks catch the rest, among them the
    # NaN of an inf partial plus -inf noise, which the tracker rejects with its block
    with np.errstate(over="ignore", invalid="ignore"):
        for nu in range(steps):
            try:
                tr_bits[nu] = bits = server_step(capacities, np.add.reduce(x))
            except NumericError as exc:
                feed_tracker()              # a partial that failed at an earlier step wins
                raise NumericError(f"{exc} at step {nu}") from exc
            np.add(x, alpha, out=grown)     # additive increase, replaced where an event fired
            fired = [j for j, bit in enumerate(bits.tolist()) if bit]
            if fired:
                # the running mean of the demand over every step so far, x(0) = 0 included
                count[...] = nu + 1
                np.divide(x_sum, count, out=xbar)
                grads = gradient_rows(xbar_flat)
                block[len(event_steps)] = grads.T
                event_steps.append(nu)
                for j in fired:
                    gamma_j, beta_j, scale_j, source = backoff[j]
                    xbar_j, x_j, grown_j = cols[j]
                    g = grads[j]
                    nd = g
                    if source is not None:
                        nd = np.multiply(next(source), scale_j, out=lam)
                        nd += g
                    if dense:
                        tr_nderiv[nu, :, j] = nd
                    compute_lambda_hat(gamma_j, nd, xbar_j, out=lam)
                    multiplicative_decrease(x_j, lam, beta_j, out=grown_j)
                if len(event_steps) == len(block):
                    feed_tracker()
            x, grown, cols, cols_next = grown, x, cols_next, cols
            x_sum += x
            if dense:
                tr_x[nu] = x
        feed_tracker()
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite demand at step {steps - 1}")
    np.divide(x_sum, steps + 1, out=xbar)
    # the running max starts at 0 and never falls, so the max so far fills the event-free steps
    np.maximum.accumulate(tr_dq, axis=0, out=tr_dq)

    return Trace(
        x=tr_x, final_xbar=xbar, event_bits=tr_bits, noisy_derivative=tr_nderiv,
        partial_spread=tr_spread, sensitivity=tr_dq, noise_scales=scales, gamma=gamma,
    )

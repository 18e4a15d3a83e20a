"""Synchronous discrete-time simulation of the private AIMD allocation loop.

Each step: the server compares the previous step's aggregate demand per
resource against capacity and broadcasts one event bit per saturated resource;
agents holding a 1-bit back off multiplicatively using a noisy scaling factor
computed from their average allocation (the running mean of their demand over
every step so far), all other demands grow additively.
Runs are deterministic given the config and seed. At an event the engine adds
the resource's next noise row from its ``privacy.noise_sources`` iterator, zeros
where it has no noise; it never branches on the mechanism.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigurationError, NumericError, PolyBatch, SystemConfig
from .privacy import NoiseSpec, SensitivityTracker, noise_sources

LAMBDA_MIN = 1e-9
TRACKER_BLOCK_CELLS = 1 << 16    # partials the loop holds for the sensitivity tracker
MAX_SERIES_POINTS = 512         # most steps at which a run records, and a summary reads, its series
# 0-d float64 operands: a Python float's bits, without its NEP 50 conversion on every call
_LAMBDA_MIN, _ONE = np.array(LAMBDA_MIN), np.array(1.0)


def series_grid(steps: int) -> np.ndarray:
    """Every step, or MAX_SERIES_POINTS steps evenly from the first to the last, which
    then never repeat: no ``np.unique``, which in numpy 2.4 imports numpy.ma."""
    if steps <= MAX_SERIES_POINTS:
        return np.arange(steps)
    return np.linspace(0, steps - 1, MAX_SERIES_POINTS).astype(int)


def server_step(limits, aggregate, pair, patterns, n_agents) -> tuple:
    """(fired resources, uint8 event bits, back-off mask) with S_j = 1 iff aggregate_j >= C_j.

    One compare with ``limits``, the capacities over +inf, fills the (2, m) bool ``pair``: the bits'
    complement over the finiteness check (a sum of x >= 0 fails only as NaN or +inf). ``patterns``
    caches answers by the bytes of an all-finite ``pair``, so a non-finite aggregate never hits it.
    The mask is the fired rows of the (m, n) state, or True when every resource fired."""
    np.less(aggregate, limits, out=pair)
    found = patterns.get(pair.tobytes())
    if found is None:
        if not pair[1].all():
            raise NumericError("non-finite aggregate demand")
        bits = np.logical_not(pair[0]).view(np.uint8)
        where = True if bits.all() else np.repeat(bits.view(bool)[:, None], n_agents, axis=1)
        found = patterns[pair.tobytes()] = (np.flatnonzero(bits).tolist(), bits, where)
    return found


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


def multiplicative_decrease(x, lam, beta, out=None, where=True, factor=None):
    """Back-off x <- (lam * beta + 1 - lam) * x, elementwise over agents.

    ``out``, if given, receives the result where ``where`` is True. ``factor``,
    if given, an array of lam's shape, takes the factor in place of fresh
    temporaries, and then ``lam`` is spent: it holds 1 - lam.
    """
    spent = None if factor is None else lam
    return np.multiply(np.add(np.multiply(lam, beta, out=factor), np.subtract(_ONE, lam, out=spent),
                              out=factor), x, out=out, where=where)


@dataclass
class Trace:
    """Struct-of-arrays record of a run, each fact stored once.

    A run with ``dense=True`` keeps the per-step series, the event bits among
    them, None otherwise; a summary reads only the loop's own final x-bar and the
    values at the g steps of ``series_grid(steps)``, whose last is the last step:
    the event counts and the final sensitivity are the grid's there. x-bar,
    lambda-hat and the cumulative bits are derived on each read, bit for bit the
    values the engine used.
    """

    steps: int
    x: np.ndarray | None                 # (steps, n, m), None unless dense
    final_xbar: np.ndarray               # (n, m) x-bar after the last step, zeros at 0 steps
    event_bits: np.ndarray | None        # (steps, m) uint8, None unless dense
    noisy_derivative: np.ndarray | None  # (steps, n, m), NaN off-event, None unless dense
    sensitivity: np.ndarray | None       # (steps, m) running max dq, None unless dense
    grid_sensitivity: np.ndarray         # (g, m) running max dq
    grid_events: np.ndarray              # (g, m) int64 events so far
    grid_spread: np.ndarray              # (g, m) max - min of noiseless partials at the last event
    grid_spread_step: np.ndarray         # (g, m) int64 its step; NaN and -1 before the first
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
            raise ValueError("this trace keeps no per-step series: run with dense=True to "
                             "derive x-bar, lambda-hat, the cumulative bits or the trace CSV")

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
    def event_counts(self) -> np.ndarray:       # (m,) events K_j per resource, at the last step
        return self.grid_events[-1] if self.steps else np.zeros(self.n_resources, np.int64)

    @property
    def final_sensitivity(self) -> np.ndarray:  # (m,) running max dq after the last step
        return self.grid_sensitivity[-1] if self.steps else np.zeros(self.n_resources)

    @property
    def cum_bits(self) -> np.ndarray:           # (steps,) cumulative broadcast bits, dense only
        self.views(1)                           # raises the lean trace's ValueError
        return np.cumsum(self.event_bits.sum(axis=1, dtype=np.int64))

    @property
    def broadcast_bits_total(self) -> int:
        return int(self.event_counts.sum())

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
        dq = _simulate(replace(config, noise=[NoiseSpec()] * config.n_resources)).final_sensitivity
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
    per-step series, ``event_bits`` among them, only with ``dense=True``;
    without it the run holds O(n m + MAX_SERIES_POINTS m) memory whatever its
    horizon, and every other field, the summary's inputs, has the same bits.
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

    Nothing in the loop reads the sensitivity, so each event step writes its
    gradient and its bits into blocks that the tracker takes in one pass when
    full, when ``server_step`` fails and after the loop: a partial that failed
    first still wins. The tracker keeps the ``grid_`` values, the event counts
    among them; a dense run's ``sensitivity`` is written on event steps and
    forward-filled after the loop, and its bits on every step. Each
    per-step call takes operands made once per run, and x-bar is divided out
    only where it is read: at event steps and after the loop."""
    n, m, steps = config.n_agents, config.n_resources, config.steps
    scales = np.array([spec.noise_scale(j) for j, spec in enumerate(config.noise)])
    sources = noise_sources(config, scales)
    limits = np.array([[r.capacity for r in config.resources], [np.inf] * m])
    pair, patterns = np.empty((2, m), dtype=bool), {}
    alpha, gamma, beta = (np.repeat([[float(getattr(r, name))] for r in config.resources], n, axis=1)
                          for name in ("alpha", "gamma", "beta"))   # over each resource's agents
    sums = np.empty((m, n))             # running sums over each row's agents, left to right
    aggregate = sums[:, -1]

    gradient = PolyBatch(config.agents).gradient_kernel()

    x = np.zeros((m, n))                # resource-major: row j is resource j's agents
    grown = np.empty((m, n))            # x + alpha, then the back-offs: the next x
    xbar_flat = np.zeros(m * n)         # x-bar as the kernel reads it
    xbar = xbar_flat.reshape(m, n)      # up to date at event steps and after the loop
    x_sum = np.zeros((m, n))            # x(0) + x(1) + ... + x(nu + 1) after step nu
    count = np.array(1.0)               # how many x the sum holds, at an event step
    lam = np.zeros((m, n))              # the noisy partials, then lambda-hat, of the fired rows
    factor = np.empty((m, n))           # the back-off factor

    tr_x = tr_bits = tr_nderiv = tr_dq = None
    if dense:
        try:
            tr_x, tr_bits = np.empty((steps, n, m)), np.empty((steps, m), dtype=np.uint8)
            tr_nderiv, tr_dq = np.full((steps, n, m), np.nan), np.zeros((steps, m))
        except (ValueError, MemoryError) as exc:
            raise ConfigurationError(f"steps={steps} gives a trace numpy cannot allocate: {exc}") from exc
    tracker = SensitivityTracker(n, m, config.burn_in_events, series_grid(steps))

    # the (m, n) partials and the (m,) bits of the event steps the tracker has not taken yet
    block = np.empty((max(1, min(steps, TRACKER_BLOCK_CELLS // (n * m))), m, n))
    block_bits = np.empty((len(block), m), dtype=np.uint8)
    event_steps = []

    def feed_tracker():
        if event_steps:
            rows = np.array(event_steps)
            event_steps.clear()
            tracker.update_all(rows, block[:rows.size], block_bits[:rows.size], tr_dq)

    # lambda-hat clamps an overflow and the checks catch the rest, among them the
    # NaN of an inf partial plus -inf noise, which the tracker rejects with its block
    with np.errstate(over="ignore", invalid="ignore"):
        for nu in range(steps):
            np.add.accumulate(x, 1, None, sums)
            try:
                fired, bits, where = server_step(limits, aggregate, pair, patterns, n)
            except NumericError as exc:
                feed_tracker()              # a partial that failed at an earlier step wins
                raise NumericError(f"{exc} at step {nu}") from exc
            if where is not True:           # additive increase: the back-off writes only fired rows
                np.add(x, alpha, out=grown)
            if fired:
                # the running mean of the demand over every step so far, x(0) = 0 included
                count[...] = nu + 1
                np.divide(x_sum, count, out=xbar)
                grads = gradient(xbar_flat, block[len(event_steps)])
                block_bits[len(event_steps)] = bits
                event_steps.append(nu)
                for j in fired:             # each fired row's partials plus its next noise row
                    np.add(grads[j], next(sources[j]), out=lam[j])
                if dense:
                    np.copyto(tr_nderiv[nu].T, lam, where=where)
                # every row at once; the mask keeps x + alpha in the rows that did not fire
                compute_lambda_hat(gamma, lam, xbar, out=lam)
                multiplicative_decrease(x, lam, beta, out=grown, where=where, factor=factor)
                if len(event_steps) == len(block):
                    feed_tracker()
            x, grown = grown, x
            x_sum += x
            if dense:
                tr_x[nu], tr_bits[nu] = x.T, bits
        feed_tracker()
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite demand at step {steps - 1}")
    np.divide(x_sum, steps + 1, out=xbar)
    if dense:   # the running max starts at 0 and never falls: the max so far fills the other steps
        np.maximum.accumulate(tr_dq, axis=0, out=tr_dq)

    return Trace(
        steps=steps, x=tr_x, event_bits=tr_bits, noisy_derivative=tr_nderiv, sensitivity=tr_dq,
        final_xbar=np.ascontiguousarray(xbar.T), grid_sensitivity=tracker.grid_sensitivity,
        grid_events=tracker.grid_events, grid_spread=tracker.grid_spread,
        grid_spread_step=tracker.grid_spread_step, noise_scales=scales, gamma=gamma[:, 0].copy(),
    )

"""Post-processing of simulation traces: errors, cost ratio, consensus, bits.

All functions are pure over immutable traces; the derivative-spread series is
computed from noiseless partials at the averages the agents used at each
event, the noisy values they actually used stay available in the trace for
privacy-side analysis. Functions taking ``costs`` accept a list of cost
functions or their ``PolyBatch``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import OptimalAllocation
from .engine import Trace
from .model import PolyBatch


@dataclass
class RunSummary:
    final_xbar: np.ndarray                  # (n, m)
    abs_error: np.ndarray | None            # (n, m) |xbar - x*|, None without a baseline
    cost_ratio: float | None                # None when some resource saw no event
    comm_bits_cumulative: np.ndarray        # (steps,)
    sensitivity_series: np.ndarray          # (steps, m)
    derivative_spread: dict                 # resource -> (event_steps, spread)
    event_counts: np.ndarray                # (m,)
    broadcast_bits_total: int
    noise_scales: np.ndarray                # (m,)


def cost_ratio(trace: Trace, costs, optimum: OptimalAllocation) -> float | None:
    """Achieved total cost at the final averages over the optimal total cost.

    The averages are running means of the demand over every step, so the final
    recorded average vector is each agent's mean allocation over the whole run.
    Returns None if any resource never fired.
    """
    if trace.steps == 0 or (trace.event_counts == 0).any():
        return None
    total = float(PolyBatch.of(costs).value(trace.xbar[-1]).sum())
    return total / optimum.total_cost


def derivative_spread(trace: Trace, costs) -> dict:
    """Per resource: event step indices and max-min of noiseless partials there.

    The partials are taken at the average each agent used for its back-off at
    the event, which is the one recorded for the step before: no event fires
    at step 0, so that index exists.
    """
    batch = PolyBatch.of(costs)
    # events per kernel call, so its (events, n, T, m) temporaries stay near 0.5 MB
    block = max(1, (1 << 16) // batch.exps.size)
    out = {}
    for j in range(trace.n_resources):
        event_steps = np.nonzero(trace.event_bits[:, j])[0]
        spread = np.empty(event_steps.size)
        for start in range(0, event_steps.size, block):
            steps = event_steps[start:start + block]
            partials = batch.partial(trace.xbar[steps - 1], j)      # (events, n)
            spread[start:start + block] = partials.max(axis=1) - partials.min(axis=1)
        out[j] = (event_steps, spread)
    return out


def comm_cost_series(trace: Trace) -> np.ndarray:
    """Cumulative broadcast bits per step (already accumulated by the server)."""
    return trace.cum_bits.copy()


def linear_fit_r2(series: np.ndarray) -> float:
    """R^2 of a straight-line fit of a series against its step index."""
    steps = np.arange(series.shape[0], dtype=float)
    y = series.astype(float)
    if y.size < 2 or np.allclose(y, y[0]):
        return 1.0
    slope, intercept = np.polyfit(steps, y, 1)
    resid = y - (slope * steps + intercept)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def summarize(trace: Trace, costs, optimum: OptimalAllocation | None = None) -> RunSummary:
    final_xbar = trace.xbar[-1].copy() if trace.steps else np.zeros((trace.n_agents, trace.n_resources))
    batch = PolyBatch(costs)
    abs_error = None
    ratio = None
    if optimum is not None:
        abs_error = np.abs(final_xbar - optimum.x_star)
        ratio = cost_ratio(trace, batch, optimum)
    return RunSummary(
        final_xbar=final_xbar,
        abs_error=abs_error,
        cost_ratio=ratio,
        comm_bits_cumulative=comm_cost_series(trace),
        sensitivity_series=trace.sensitivity.copy(),
        derivative_spread=derivative_spread(trace, batch),
        event_counts=trace.event_counts.copy(),
        broadcast_bits_total=trace.broadcast_bits_total,
        noise_scales=trace.noise_scales.copy(),
    )

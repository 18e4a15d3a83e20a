"""Post-processing of simulation traces: errors, cost ratio, consensus, bits.

All functions are pure over immutable traces. The trace holds every fact of a
run once, so a summary reads it rather than copying it: the derivative spread
is the one the engine recorded from the noiseless partials at the averages the
agents used at each event, and the noisy values they actually used stay
available in the trace for privacy-side analysis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import OptimalAllocation
from .engine import Trace
from .model import PolyBatch


@dataclass
class RunSummary:
    trace: Trace                            # bits, sensitivity and noise scales are read here
    final_xbar: np.ndarray                  # (n, m)
    abs_error: np.ndarray                   # (n, m) |xbar - x*|
    cost_ratio: float | None                # None when some resource saw no event
    derivative_spread: dict                 # resource -> (event_steps, spread)


def cost_ratio(trace: Trace, costs: list, optimum: OptimalAllocation) -> float | None:
    """Achieved total cost at the final averages over the optimal total cost.

    The averages are running means of the demand over every step, so the final
    recorded average vector is each agent's mean allocation over the whole run.
    Returns None if any resource never fired.
    """
    if trace.steps == 0:
        return None
    return _cost_ratio(trace, trace.xbar[-1], costs, optimum)


def _cost_ratio(trace: Trace, final_xbar: np.ndarray, costs: list,
                optimum: OptimalAllocation) -> float | None:
    """``cost_ratio`` with the final averages already derived from the trace."""
    if (trace.event_counts == 0).any():
        return None
    return float(PolyBatch(costs).value(final_xbar).sum()) / optimum.total_cost


def derivative_spread(trace: Trace) -> dict:
    """Per resource: event step indices and max-min of noiseless partials there.

    The engine records the spread of the partials each agent used for its
    back-off at the event, taken at the average it held before that step.
    """
    out = {}
    for j in range(trace.n_resources):
        event_steps = np.nonzero(trace.event_bits[:, j])[0]
        out[j] = (event_steps, trace.partial_spread[event_steps, j])
    return out


def summarize(trace: Trace, costs: list, optimum: OptimalAllocation) -> RunSummary:
    final_xbar = trace.xbar[-1].copy() if trace.steps else np.zeros((trace.n_agents, trace.n_resources))
    return RunSummary(
        trace=trace,
        final_xbar=final_xbar,
        abs_error=np.abs(final_xbar - optimum.x_star),
        cost_ratio=_cost_ratio(trace, final_xbar, costs, optimum),
        derivative_spread=derivative_spread(trace),
    )

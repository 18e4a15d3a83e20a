"""Post-processing of simulation traces: errors, cost ratio, consensus, bits.

All functions are pure over immutable traces and read only a trace's (n, m)
arrays, its event bits and its values on the summary's grid, never a per-step
series: the errors and the cost ratio come from the engine's final averages,
and the derivative spread is the one it recorded from the noiseless partials
at the averages the agents used at the events the grid samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import OptimalAllocation
from .engine import Trace
from .model import PolyBatch


@dataclass
class RunSummary:
    trace: Trace                            # final averages, bits, sensitivity, scales
    abs_error: np.ndarray                   # (n, m) |xbar - x*|
    cost_ratio: float | None                # None when some resource saw no event
    derivative_spread: dict                 # resource -> (event_steps, spread) on the grid


def cost_ratio(trace: Trace, costs: list, optimum: OptimalAllocation) -> float | None:
    """Achieved total cost at the final averages over the optimal total cost.

    The final averages are each agent's mean allocation over every step, the
    ramp up from x(0) = 0 included: on a short run their sum falls short of the
    capacity, and the ratio can read below 1 (0.92 after 1,000 steps).
    Returns None if any resource never fired, as in a run of 0 steps, or if
    the optimal total cost is 0 (it underflows when the capacities do).
    """
    if (trace.event_counts == 0).any() or optimum.total_cost == 0:
        return None
    with np.errstate(over="ignore"):    # an overflow reads inf, which the summary rejects
        return float(PolyBatch(costs).value(trace.final_xbar).sum()) / optimum.total_cost


def derivative_spread(trace: Trace) -> dict:
    """Per resource: the steps of the last events at or before the grid steps,
    each once (every event if the grid is every step), and max-min of noiseless partials there.

    The engine records the spread of the partials each agent used for its
    back-off at the event, taken at the average it held before that step.
    """
    out = {}
    for j in range(trace.n_resources):
        steps_j = trace.grid_spread_step[:, j]
        new = np.diff(steps_j, prepend=-1) > 0     # -1 marks the grid steps before the first event
        out[j] = (steps_j[new], trace.grid_spread[new, j])
    return out


def summarize(trace: Trace, costs: list, optimum: OptimalAllocation) -> RunSummary:
    return RunSummary(
        trace=trace,
        abs_error=np.abs(trace.final_xbar - optimum.x_star),
        cost_ratio=cost_ratio(trace, costs, optimum),
        derivative_spread=derivative_spread(trace),
    )

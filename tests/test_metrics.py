import numpy as np
import pytest

import dpaimd
from dpaimd.metrics import (
    comm_cost_series,
    cost_ratio,
    derivative_spread,
    linear_fit_r2,
    summarize,
)
from dpaimd.model import CostFunction, ResourceConfig, SystemConfig
from dpaimd.privacy import NoiseKind, NoiseSpec


def tiny_run(steps):
    cfg = SystemConfig(
        agents=[CostFunction(np.array([1.0]), np.array([[2]])),
                CostFunction(np.array([2.0]), np.array([[2]]))],
        resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5, gamma=1e-3)],
        noise=[NoiseSpec(kind=NoiseKind.NONE)],
        steps=steps,
        seed=0,
    )
    return cfg, dpaimd.run(cfg)


class TestCostRatio:
    def test_none_without_steps(self):
        cfg, trace = tiny_run(0)
        opt = dpaimd.solve_optimum(cfg.agents, cfg.resources)
        assert cost_ratio(trace, cfg.agents, opt) is None

    def test_none_without_events(self):
        cfg, trace = tiny_run(3)
        assert trace.event_counts[0] == 0
        opt = dpaimd.solve_optimum(cfg.agents, cfg.resources)
        assert cost_ratio(trace, cfg.agents, opt) is None

    def test_matches_direct_computation(self, short_reference_run):
        config, trace, optimum = short_reference_run
        ratio = cost_ratio(trace, config.agents, optimum)
        xbar = trace.xbar[-1]
        direct = sum(float(f.value(xbar[i])) for i, f in enumerate(config.agents))
        assert ratio == pytest.approx(direct / optimum.total_cost)

    def test_never_beats_the_optimum(self, short_reference_run):
        config, trace, optimum = short_reference_run
        assert cost_ratio(trace, config.agents, optimum) >= 1.0 - 1e-9


class TestDerivativeSpread:
    def test_one_entry_per_event(self, short_reference_run):
        config, trace, _ = short_reference_run
        spread = derivative_spread(trace, config.agents)
        for j in range(trace.n_resources):
            steps_j, values = spread[j]
            assert steps_j.size == trace.event_counts[j]
            assert values.shape == steps_j.shape
            assert (values >= 0).all()

    def test_spread_shrinks_under_no_noise(self, short_reference_run):
        config, trace, _ = short_reference_run
        spread = derivative_spread(trace, config.agents)
        for j in range(trace.n_resources):
            _, values = spread[j]
            head = values[:10].mean()
            tail = values[-10:].mean()
            assert tail < 0.1 * head

    def test_spread_of_partials_the_agents_used(self, short_reference_run):
        """Noiseless, the spread is max - min of the partials behind each event's lambda-hat."""
        config, trace, _ = short_reference_run
        spread = derivative_spread(trace, config.agents)
        for j in range(trace.n_resources):
            steps_j, values = spread[j]
            used = trace.noisy_derivative[steps_j, :, j]
            assert np.array_equal(values, used.max(axis=1) - used.min(axis=1))

    def test_empty_without_events(self):
        cfg, trace = tiny_run(3)
        spread = derivative_spread(trace, cfg.agents)
        steps_j, values = spread[0]
        assert steps_j.size == 0 and values.size == 0


class TestCommCost:
    def test_series_matches_trace(self, short_reference_run):
        _, trace, _ = short_reference_run
        series = comm_cost_series(trace)
        assert np.array_equal(series, trace.cum_bits)
        series[0] = -1
        assert trace.cum_bits[0] != -1       # defensive copy

    def test_linear_fit_r2_exact_line(self):
        assert linear_fit_r2(3.0 * np.arange(100) + 2.0) == pytest.approx(1.0)

    def test_linear_fit_r2_constant(self):
        assert linear_fit_r2(np.full(50, 7.0)) == 1.0

    def test_linear_fit_r2_penalizes_curvature(self):
        assert linear_fit_r2(np.arange(100.0) ** 2) < 0.99

    def test_cum_bits_nearly_linear(self, short_reference_run):
        _, trace, _ = short_reference_run
        assert linear_fit_r2(trace.cum_bits) >= 0.99


class TestSummarize:
    def test_with_baseline(self, short_reference_run):
        config, trace, optimum = short_reference_run
        s = summarize(trace, config.agents, optimum)
        assert s.abs_error.shape == (config.n_agents, config.n_resources)
        assert np.allclose(s.abs_error, np.abs(trace.xbar[-1] - optimum.x_star))
        assert s.cost_ratio is not None
        assert s.broadcast_bits_total == trace.broadcast_bits_total
        assert np.array_equal(s.event_counts, trace.event_counts)

    def test_without_baseline(self, short_reference_run):
        config, trace, _ = short_reference_run
        s = summarize(trace, config.agents)
        assert s.abs_error is None and s.cost_ratio is None
        assert np.array_equal(s.final_xbar, trace.xbar[-1])

    def test_zero_step_trace(self):
        cfg, trace = tiny_run(0)
        s = summarize(trace, cfg.agents)
        assert s.final_xbar.shape == (2, 1)
        assert (s.final_xbar == 0).all()

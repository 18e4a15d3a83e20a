import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpaimd
from dpaimd.cli import reference_system_config
from dpaimd.engine import multiplicative_decrease
from dpaimd.metrics import (
    cost_ratio,
    derivative_spread,
    linear_fit_r2,
    summarize,
)
from dpaimd.model import CostFunction, PolyBatch, ResourceConfig, SystemConfig
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode


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
        spread = derivative_spread(trace)
        for j in range(trace.n_resources):
            steps_j, values = spread[j]
            assert steps_j.size == trace.event_counts[j]
            assert values.shape == steps_j.shape
            assert (values >= 0).all()

    def test_spread_shrinks_under_no_noise(self, short_reference_run):
        config, trace, _ = short_reference_run
        spread = derivative_spread(trace)
        for j in range(trace.n_resources):
            _, values = spread[j]
            head = values[:10].mean()
            tail = values[-10:].mean()
            assert tail < 0.1 * head

    def test_spread_of_partials_the_agents_used(self, short_reference_run):
        """Noiseless, the spread is max - min of the partials behind each event's lambda-hat."""
        config, trace, _ = short_reference_run
        spread = derivative_spread(trace)
        for j in range(trace.n_resources):
            steps_j, values = spread[j]
            used = trace.noisy_derivative[steps_j, :, j]
            assert np.array_equal(values, used.max(axis=1) - used.min(axis=1))

    def test_empty_without_events(self):
        cfg, trace = tiny_run(3)
        spread = derivative_spread(trace)
        steps_j, values = spread[0]
        assert steps_j.size == 0 and values.size == 0


def kernel_spread(config, trace, j):
    """Per event of resource j: max - min of the noiseless partials at the x-bar used then."""
    steps_j = np.nonzero(trace.event_bits[:, j])[0]
    partials = PolyBatch(config.agents).partial(trace.xbar[steps_j - 1], j)
    return steps_j, partials.max(axis=1) - partials.min(axis=1)


def assert_spread_matches_kernel(config, trace):
    spread = derivative_spread(trace)
    assert trace.event_counts.all()
    for j in range(trace.n_resources):
        steps_j, expected = kernel_spread(config, trace, j)
        assert np.array_equal(spread[j][0], steps_j)
        assert np.array_equal(spread[j][1], expected)


def noisy_pair(kind, s1, s2):
    return [NoiseSpec(kind=kind, scale_mode=ScaleMode.FIXED, scale=s) for s in (s1, s2)]


def wide_config(steps):
    """16 agents, 3 resources, separable quadratic-plus-quartic costs, per-agent dq."""
    n, m = 16, 3
    agents = []
    for i in range(n):
        a = 10 + (i + 3 * np.arange(m)) % n
        b = 15 + (5 * i + np.arange(m)) % n
        coeffs = np.stack([a / 2, b / 4], axis=1).ravel()            # per resource: quad, quartic
        exps = np.kron(np.eye(m, dtype=int), [[2], [4]])              # (2m, m)
        agents.append(CostFunction(coeffs, exps))
    return SystemConfig(
        agents=agents,
        resources=[ResourceConfig(capacity=0.3 * n * (1 + 0.1 * j), alpha=0.01,
                                  beta=0.7 - 0.05 * j, gamma=1e-3) for j in range(m)],
        noise=[NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=40.0)] * m,
        steps=steps,
        seed=5,
        per_agent_sensitivity=True,
    )


def assert_backoff_replays_lambda_hat(config, trace):
    """At every event, the derived lambda-hat backs x off to the demand the engine reached."""
    lambda_hat = trace.lambda_hat
    for j, r in enumerate(config.resources):
        steps_j = np.nonzero(trace.event_bits[:, j])[0]
        replay = multiplicative_decrease(trace.x[steps_j - 1, :, j], lambda_hat[steps_j, :, j],
                                         r.beta)
        assert np.array_equal(replay, trace.x[steps_j, :, j])


noisy_reference_runs = pytest.mark.parametrize("noise", [
    noisy_pair(NoiseKind.GAUSSIAN, 20.50, 39.31),
    noisy_pair(NoiseKind.LAPLACE, 59.0, 63.4),
], ids=["gaussian", "laplace"])


class TestRecordedSpreadMatchesKernel:
    """The spread the engine records equals a fresh kernel pass, bit for bit."""

    @noisy_reference_runs
    def test_noisy_reference_runs(self, noise):
        config = reference_system_config(noise, seed=20230601, steps=3_000)
        assert_spread_matches_kernel(config, dpaimd.run(config))

    def test_wide_per_agent_sensitivity(self):
        config = wide_config(steps=2_000)
        assert_spread_matches_kernel(config, dpaimd.run(config))

    def test_off_event_steps_are_nan(self, short_reference_run):
        _, trace, _ = short_reference_run
        assert np.array_equal(np.isnan(trace.partial_spread), trace.event_bits == 0)


@st.composite
def small_configs(draw):
    """2-4 agents with distinct term counts and cross-resource terms, random noise."""
    m = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4, unique=True))
    exponent_row = st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)
    agents = [
        CostFunction(np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=t, max_size=t))),
                     np.array(draw(st.lists(exponent_row, min_size=t, max_size=t))))
        for t in counts
    ]
    kind = draw(st.sampled_from(list(NoiseKind)))
    spec = (NoiseSpec(kind=kind) if kind is NoiseKind.NONE
            else NoiseSpec(kind=kind, scale_mode=ScaleMode.FIXED, scale=draw(st.floats(0.1, 5.0))))
    return SystemConfig(
        agents=agents,
        resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5, gamma=1e-3)] * m,
        noise=[spec] * m,
        steps=300,
        seed=draw(st.integers(0, 2**16)),
    )


@given(small_configs())
@settings(max_examples=40, deadline=None)
def test_recorded_spread_matches_kernel_on_random_configs(config):
    assert_spread_matches_kernel(config, dpaimd.run(config))


@noisy_reference_runs
def test_recorded_backoff_replays_on_reference_runs(noise):
    config = reference_system_config(noise, seed=20230601, steps=3_000)
    assert_backoff_replays_lambda_hat(config, dpaimd.run(config))


@given(small_configs())
@settings(max_examples=40, deadline=None)
def test_recorded_backoff_replays_on_random_configs(config):
    assert_backoff_replays_lambda_hat(config, dpaimd.run(config))


class TestCommCost:
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
        assert s.trace is trace

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

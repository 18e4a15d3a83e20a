import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpaimd
from dpaimd import cli, engine, model
from dpaimd.cli import reference_system_config
from dpaimd.engine import Trace, multiplicative_decrease
from dpaimd.metrics import (
    cost_ratio,
    derivative_spread,
    summarize,
)
from dpaimd.model import CostFunction, PolyBatch, ResourceConfig, SystemConfig
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode
from oracles import DensePolyBatch, linear_fit_r2


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
        direct = float(DensePolyBatch(config.agents).value(xbar).sum())
        assert ratio == pytest.approx(direct / optimum.total_cost)

    def test_never_beats_the_optimum(self, short_reference_run):
        config, trace, optimum = short_reference_run
        assert cost_ratio(trace, config.agents, optimum) >= 1.0 - 1e-9


def test_a_run_and_a_summary_each_build_only_the_table_they_read(monkeypatch):
    """The run reads the gradient table, the summary the value table; the other
    tables of their PolyBatch are never built."""
    config = reference_system_config([NoiseSpec(), NoiseSpec()], seed=4, steps=500)
    optimum = dpaimd.solve_optimum(config.agents, config.resources)
    built = []
    compact = model._compact
    monkeypatch.setattr(model, "_compact", lambda *tables: built.append(1) or compact(*tables))
    trace = engine.run(config)
    assert len(built) == 1
    built.clear()
    assert summarize(trace, config.agents, optimum).cost_ratio is not None
    assert len(built) == 1


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
    """16 agents, 3 resources, separable quadratic-plus-quartic costs."""
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
        assert_spread_matches_kernel(config, dpaimd.run(config, dense=True))

    def test_wide_per_agent_sensitivity(self):
        config = wide_config(steps=2_000)
        assert_spread_matches_kernel(config, dpaimd.run(config, dense=True))

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
    assert_spread_matches_kernel(config, dpaimd.run(config, dense=True))


@noisy_reference_runs
def test_recorded_backoff_replays_on_reference_runs(noise):
    config = reference_system_config(noise, seed=20230601, steps=3_000)
    assert_backoff_replays_lambda_hat(config, dpaimd.run(config, dense=True))


@given(small_configs())
@settings(max_examples=40, deadline=None)
def test_recorded_backoff_replays_on_random_configs(config):
    assert_backoff_replays_lambda_hat(config, dpaimd.run(config, dense=True))


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

    def test_per_agent_sensitivity_changes_no_summary(self):
        # config files written before the flag was dropped still carry it
        config = wide_config(steps=1_000)
        optimum = dpaimd.solve_optimum(config.agents, config.resources)
        texts = []
        for flag in (True, False, None):
            doc = cli.serialize_config(config)
            if flag is not None:
                doc["per_agent_sensitivity"] = flag
            parsed = cli.parse_config(doc)
            summary = summarize(dpaimd.run(parsed), parsed.agents, optimum)
            texts.append(cli._json_text(cli.summary_to_dict(summary, parsed, optimum)))
        assert texts[0] == texts[1] == texts[2]
        assert min(json.loads(texts[0])["sensitivity"]["values"][-1]) > 0

    def test_zero_step_trace(self):
        cfg, trace = tiny_run(0)
        optimum = dpaimd.solve_optimum(cfg.agents, cfg.resources)
        s = summarize(trace, cfg.agents, optimum)
        assert s.trace.final_xbar.shape == (2, 1)
        assert (s.trace.final_xbar == 0).all()
        assert np.array_equal(s.abs_error, optimum.x_star)
        assert s.cost_ratio is None

    def test_never_derives_xbar(self, short_reference_run, monkeypatch):
        # x-bar and lambda-hat are (steps, n, m) derivations; a summary reads the final x-bar
        config, trace, optimum = short_reference_run
        derived = []
        for name in ("xbar", "lambda_hat"):
            view = getattr(Trace, name)
            monkeypatch.setattr(Trace, name, property(
                lambda t, name=name, view=view: derived.append(name) or view.fget(t)))
        s = summarize(trace, config.agents, optimum)
        cli.summary_to_dict(s, config, optimum)
        assert derived == []
        assert s.cost_ratio == cost_ratio(trace, config.agents, optimum)


@pytest.mark.parametrize("noise", [
    noisy_pair(NoiseKind.GAUSSIAN, 20.50, 39.31),
    [NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5, scale_mode=ScaleMode.CALIBRATED),
     NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.5, delta=0.01, scale_mode=ScaleMode.CALIBRATED)],
], ids=["fixed", "calibrated"])
def test_summary_needs_no_dense_trace(noise, tmp_path):
    """Summary JSON and sweep row of a lean run equal those of a dense run."""
    config = reference_system_config(noise, steps=2_000)
    optimum = dpaimd.solve_optimum(config.agents, config.resources)
    [noise] = engine.resolve_noise_scales(config, [config.noise])
    config = replace(config, noise=noise)
    dense, lean = (engine.run(config, dense=flag) for flag in (True, False))
    assert (lean.noise_scales > 0).all()
    assert lean.x is None and lean.noisy_derivative is None
    texts = [cli._json_text(cli.summary_to_dict(summarize(t, config.agents, optimum), config,
                                                optimum)) for t in (dense, lean)]
    assert texts[0] == texts[1]

    outputs = []
    for emit_trace in (True, False):    # --emit-trace runs dense, a plain run lean
        out = tmp_path / str(len(outputs))
        out.mkdir()
        row = cli._run_one((0, {}, config, optimum, emit_trace, str(out)))
        outputs.append((row, (out / f"summary_p000_s{config.seed}.json").read_text()))
    assert outputs[0] == outputs[1]

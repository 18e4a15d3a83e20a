import collections
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpaimd
from dpaimd import cli, engine, metrics, privacy
from dpaimd.baseline import OptimalAllocation, solve_optimum
from dpaimd.engine import (
    LAMBDA_MIN,
    compute_lambda_hat,
    multiplicative_decrease,
    resolve_noise_scales,
    server_step,
)
from dpaimd.model import (
    NOISE_STREAM,
    ConfigurationError,
    CostFunction,
    NumericError,
    PolyBatch,
    ResourceConfig,
    SystemConfig,
    reference_agent_costs,
)
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode
from oracles import simulate_oracle

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:     # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__


def one_resource_config(costs, steps, seed=0, noise=None, **kw):
    m = 1
    return SystemConfig(
        agents=costs,
        resources=[ResourceConfig(capacity=1.0, alpha=0.125, beta=0.5, gamma=1e3)],
        noise=noise or [NoiseSpec(kind=NoiseKind.NONE)] * m,
        steps=steps,
        seed=seed,
        **kw,
    )


def square_cost(c=1.0):
    return CostFunction(np.array([c]), np.array([[2]]))


def assert_same_trace(got, expected):
    """Every field of ``expected`` in ``got``: ``steps`` by value, an array by its
    dtype and bytes, and a field a lean run leaves out as None in both."""
    for name, value in vars(expected).items():
        if isinstance(value, np.ndarray):
            assert getattr(got, name).dtype == value.dtype, name
            assert getattr(got, name).tobytes() == value.tobytes(), name
        else:
            assert getattr(got, name) == value, name


# signed zeros, subnormals, infinities, NaN and the ends of the float range
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan,
               1e308, -1e308, 1.0, 0.5]
EDGE_FLOATS = st.sampled_from(EDGE_VALUES) | st.floats()


def step_server(capacities, aggregate, patterns=None, n_agents=3):
    """``server_step`` on one aggregate, with the operands a run makes once."""
    limits = np.array([capacities, [np.inf] * len(capacities)])
    return server_step(limits, np.array(aggregate), np.empty(limits.shape, dtype=bool),
                       {} if patterns is None else patterns, n_agents)


class TestPrimitives:
    def test_server_step_threshold_inclusive(self):
        patterns = {}
        fired, bits, where = step_server([5.0, 6.0], [5.0, 5.999], patterns)
        assert fired == [0] and bits.tolist() == [1, 0]
        # the back-off mask is the fired rows of the (m, n) state, or True when all fire
        assert where.tolist() == [[True] * 3, [False] * 3]
        assert step_server([5.0, 6.0], [5.0, 6.0])[2] is True
        # a repeated pattern is looked up, with the same result
        assert step_server([5.0, 6.0], [7.0, 1.0], patterns) is patterns.popitem()[1]

    def test_server_step_rejects_non_finite(self):
        for aggregate in ([np.nan], [np.inf]):
            with pytest.raises(NumericError, match="^non-finite aggregate demand$"):
                step_server([1.0], aggregate)

    def test_lambda_hat_examples(self):
        # each takes the noisy derivative f' + d
        assert compute_lambda_hat(1e-3, 500.0 + 0.0, 1.0) == pytest.approx(0.5)
        assert compute_lambda_hat(1e-3, 50.0 + 50.0, 1.0) == pytest.approx(0.1)
        # negative noise enters through the absolute value
        assert compute_lambda_hat(1e-3, 50.0 - 150.0, 1.0) == pytest.approx(0.1)
        # one agent per element, each equal to its scalar case
        lam = compute_lambda_hat(1e-3, np.array([500.0, 50.0, 50.0]) + [0.0, 50.0, -150.0],
                                 np.ones(3))
        assert np.array_equal(lam, [compute_lambda_hat(1e-3, 500.0 + 0.0, 1.0),
                                    compute_lambda_hat(1e-3, 50.0 + 50.0, 1.0),
                                    compute_lambda_hat(1e-3, 50.0 - 150.0, 1.0)])

    def test_lambda_hat_clamps(self):
        assert compute_lambda_hat(1e-3, 5e6, 1.0) == 1.0
        assert compute_lambda_hat(1e-3, 0.0, 1.0) == LAMBDA_MIN
        lam = compute_lambda_hat(1e-3, np.array([5e6, 0.0]), np.ones(2))
        assert lam.tolist() == [1.0, LAMBDA_MIN]

    def test_multiplicative_decrease_examples(self):
        assert multiplicative_decrease(1.0, 0.5, 0.7) == pytest.approx(0.85)
        assert multiplicative_decrease(2.0, 1.0, 0.7) == pytest.approx(1.4)
        y = multiplicative_decrease(np.array([1.0, 2.0]), np.array([0.5, 1.0]), 0.7)
        assert np.array_equal(y, [multiplicative_decrease(1.0, 0.5, 0.7),
                                  multiplicative_decrease(2.0, 1.0, 0.7)])

    @given(
        st.floats(1e-6, 100.0),
        st.floats(1e-6, 1.0),
        st.floats(0.0, 0.999),
    )
    @example(x=0.5, lam=1.0, beta=5e-324)      # the factor is 5e-324, and half of it rounds to 0
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_decrease_shrinks(self, x, lam, beta):
        y = multiplicative_decrease(x, lam, beta)
        assert 0 <= y < x
        # y is 0 only where the exact product of factor and x rounds below the least subnormal
        factor = lam * beta + (1.0 - lam)
        assert y > 0 or Fraction(factor) * Fraction(x) <= Fraction(math.ulp(0.0)) / 2
        ys = multiplicative_decrease(np.array([x, 2 * x]), np.array([lam, lam]), beta)
        assert np.array_equal(ys, [y, multiplicative_decrease(2 * x, lam, beta)])

    @given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS), min_size=1, max_size=8),
           EDGE_FLOATS, EDGE_FLOATS)
    @example(cells=list(zip(EDGE_VALUES, EDGE_VALUES[3:] + EDGE_VALUES[:3],
                            EDGE_VALUES[7:] + EDGE_VALUES[:7])), gamma=-0.0, beta=5e-324)
    @settings(max_examples=200, deadline=None)
    def test_update_rules_take_any_scalar_type(self, cells, gamma, beta):
        """The loop passes gamma and beta as 0-d arrays: a Python float, a numpy
        scalar and a 0-d array give the same bytes, with or without ``out``, and
        the back-off with its ``factor`` buffer, which spends the lambda-hat given."""
        nd, xbar, x = np.array(cells).T.copy()      # one (noisy partial, x-bar, x) per agent
        with np.errstate(all="ignore"):
            lams = [compute_lambda_hat(g, nd, xbar)
                    for g in (gamma, np.float64(gamma), np.array(gamma))]
            lams.append(compute_lambda_hat(np.array(gamma), nd.copy(), xbar, out=np.empty_like(nd)))
            ys = [multiplicative_decrease(x, lams[0], b)
                  for b in (beta, np.float64(beta), np.array(beta))]
            ys.append(multiplicative_decrease(x, lams[0], np.array(beta), out=np.empty_like(x)))
            ys.append(multiplicative_decrease(x, lams[0].copy(), np.array(beta), out=np.empty_like(x),
                                              factor=np.empty_like(x)))
        for got in (lams, ys):
            assert all(v.dtype == np.float64 and v.tobytes() == got[0].tobytes() for v in got)


@pytest.fixture(scope="module")
def trace():
    return dpaimd.run(one_resource_config([square_cost()], steps=30), dense=True)


class TestSawtooth:
    """One agent, one resource, lambda-hat pinned at 1 by a huge gamma.

    alpha = 0.125 and beta = 0.5 keep every intermediate value exactly
    representable, so the event schedule can be checked without tolerance:
    the demand climbs 0.125 per step, first hits capacity 1.0 at step 7,
    fires at step 8, halves, and then repeats every 5 steps.
    """

    def test_event_schedule(self, trace):
        assert np.nonzero(trace.event_bits[:, 0])[0].tolist() == [8, 13, 18, 23, 28]
        assert trace.event_counts.tolist() == [5]
        assert trace.broadcast_bits_total == 5

    def test_demand_path_exact(self, trace):
        assert trace.x[7, 0, 0] == 1.0
        assert trace.x[8, 0, 0] == 0.5          # post-MD, AI frozen on event step
        assert trace.x[9, 0, 0] == 0.625
        assert trace.x[12, 0, 0] == 1.0

    def test_event_average_includes_initial_sample(self, trace):
        """x-bar is the running mean over every step, x(0) = 0 included."""
        assert trace.xbar[7, 0, 0] == 0.5               # (0 + 0.125 + ... + 1.0) / 9
        assert trace.xbar[8, 0, 0] == 0.5               # (4.5 + 0.5) / 10

    def test_lambda_recorded_only_at_events(self, trace):
        events = trace.event_bits[:, 0] == 1
        assert np.isnan(trace.lambda_hat[~events, 0, 0]).all()
        assert (trace.lambda_hat[events, 0, 0] == 1.0).all()

    def test_average_constant_between_events(self, trace):
        """Only the per-step demand samples move x-bar: x-bar(nu) = sum x / (nu + 2)."""
        x = trace.x[:, 0, 0]
        expected = np.cumsum(x) / (np.arange(x.size) + 2)
        assert np.array_equal(trace.xbar[:, 0, 0], expected)


class TestRunBehaviour:
    def test_zero_steps_gives_empty_trace(self):
        trace = dpaimd.run(one_resource_config([square_cost()], steps=0), dense=True)
        assert trace.steps == 0
        assert trace.x.shape == (0, 1, 1)
        assert trace.broadcast_bits_total == 0

    def test_steps_stay_below_2_53(self):
        """x-bar divides by up to steps + 1, which float64 holds exactly only up to 2**53."""
        assert one_resource_config([square_cost()], steps=2**53 - 1).steps == 2**53 - 1
        for steps in (2**53, -1):
            with pytest.raises(ConfigurationError, match="steps must be >= 0 and below 2"):
                one_resource_config([square_cost()], steps=steps)

    def test_deterministic_given_seed(self):
        noise = [NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                           scale_mode=ScaleMode.FIXED, scale=3.0)]
        cfg = one_resource_config([square_cost(), square_cost(2.0)], steps=300,
                                  seed=7, noise=noise)
        a = dpaimd.run(cfg, dense=True)
        b = dpaimd.run(cfg, dense=True)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.lambda_hat, b.lambda_hat, equal_nan=True)

    def test_seed_changes_noise_path(self):
        noise = [NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=5.0)]
        costs = [square_cost(), square_cost(2.0)]
        a = dpaimd.run(one_resource_config(costs, steps=300, seed=1, noise=noise), dense=True)
        b = dpaimd.run(one_resource_config(costs, steps=300, seed=2, noise=noise), dense=True)
        # the huge gamma clamps lambda-hat for both, but the noisy readings differ
        assert not np.array_equal(a.noisy_derivative, b.noisy_derivative, equal_nan=True)

    def test_agent_permutation_symmetry(self):
        """Noise streams are keyed by agent identity, not list position."""
        noise = [NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                           scale_mode=ScaleMode.FIXED, scale=2.0)]
        f0, f1 = square_cost(1.0), square_cost(3.0)
        a = dpaimd.run(one_resource_config([f0, f1], steps=400, seed=5,
                                           noise=noise, agent_ids=[0, 1]), dense=True)
        b = dpaimd.run(one_resource_config([f1, f0], steps=400, seed=5,
                                           noise=noise, agent_ids=[1, 0]), dense=True)
        assert np.array_equal(b.x[:, [1, 0], :], a.x)
        assert np.array_equal(b.xbar[:, [1, 0], :], a.xbar)

    def test_trace_stores_only_x_and_noisy_derivative_per_agent(self, short_reference_run):
        """x-bar and lambda-hat are views derived from these two, not stored copies;
        a lean run stores neither."""
        config, trace, _ = short_reference_run
        lean = dpaimd.run(replace(config, steps=2_000))
        for run, expected in ((trace, {"x", "noisy_derivative"}), (lean, set())):
            dense_shape = (run.steps, run.n_agents, run.n_resources)
            stored = {name for name, value in vars(run).items()
                      if isinstance(value, np.ndarray) and value.shape == dense_shape}
            assert stored == expected
        assert lean.x is None and lean.noisy_derivative is None

    def test_aggregate_overshoot_bounded(self, short_reference_run):
        config, trace, _ = short_reference_run
        agg = trace.x.sum(axis=1)                       # (steps, m)
        for j, r in enumerate(config.resources):
            bound = r.capacity + config.n_agents * r.alpha
            assert agg[:, j].max() <= bound + 1e-9

    def test_bits_accounting(self, short_reference_run):
        _, trace, _ = short_reference_run
        expected = np.cumsum(trace.event_bits.sum(axis=1))
        assert np.array_equal(trace.cum_bits, expected)
        assert trace.event_counts.tolist() == trace.event_bits.sum(axis=0).tolist()
        assert trace.broadcast_bits_total == trace.event_counts.sum()
        assert trace.cum_bits[-1] == trace.broadcast_bits_total

    def test_average_sums_near_capacity(self, short_reference_run):
        config, trace, _ = short_reference_run
        totals = trace.xbar[-1].sum(axis=0)
        for j, r in enumerate(config.resources):
            slack = config.n_agents * r.alpha
            assert r.capacity - slack <= totals[j] <= r.capacity + slack

    def test_average_positive_at_events(self, short_reference_run):
        """lambda-hat divides by the average recorded the step before an event."""
        _, trace, _ = short_reference_run
        for j in range(trace.n_resources):
            event_steps = np.nonzero(trace.event_bits[:, j])[0]
            assert event_steps.size and event_steps[0] > 0
            assert (trace.xbar[event_steps - 1, :, j] > 0).all()


class TestScalesCheck:
    """A run draws with the scales of its noise specs alone: one spec per resource,
    each fixed scale finite and > 0, or the config is refused at once."""

    GAUSSIAN = NoiseSpec(kind=NoiseKind.GAUSSIAN, scale_mode=ScaleMode.FIXED, scale=20.5)

    @pytest.mark.parametrize("specs,scale,message", [
        (1, 20.5, "need one noise spec per resource"),
        (3, 20.5, "need one noise spec per resource"),
        (2, math.nan, "fixed scale mode needs a finite scale > 0"),
        (2, math.inf, "fixed scale mode needs a finite scale > 0"),
        (2, -1.0, "fixed scale mode needs a finite scale > 0"),
    ], ids=["short", "long", "nan", "inf", "negative"])
    def test_refused(self, specs, scale, message):
        with pytest.raises(ConfigurationError, match=message):
            cli.reference_system_config([replace(self.GAUSSIAN, scale=scale)] * specs, steps=200)

    def test_zero_and_positive_scales_run(self):
        config = cli.reference_system_config([self.GAUSSIAN, NoiseSpec()], steps=200)
        assert engine.run(config).noise_scales.tolist() == [20.5, 0.0]


def calibrated_scales(config):
    """The noise scales a run of ``config`` draws with, after a pilot if one is needed."""
    [noise] = resolve_noise_scales(config, [config.noise])
    return np.array([spec.noise_scale(j) for j, spec in enumerate(noise)])


class TestCalibration:
    def base(self, noise, steps=400, **kw):
        return SystemConfig(
            agents=[square_cost(1.0), square_cost(2.0)],
            resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5, gamma=1e-3)],
            noise=noise,
            steps=steps,
            seed=3,
            burn_in_events=2,
            **kw,
        )

    def two_resources(self, noise, steps=400):
        return SystemConfig(
            agents=[CostFunction(np.array([c, 2.0 * c]), np.array([[2, 0], [0, 2]]))
                    for c in (1.0, 3.0)],
            resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5, gamma=1e-3),
                       ResourceConfig(capacity=1.5, alpha=0.05, beta=0.6, gamma=1e-3)],
            noise=noise, steps=steps, seed=3, burn_in_events=2,
        )

    # each spec with the scale it must give for the pilot's dq on its resource:
    # Laplace dq / epsilon, Gaussian (dq / epsilon) sqrt(2 ln(1.25 / delta))
    SPECS = {
        "none": (NoiseSpec(), lambda dq: 0.0),
        "none-calibrated": (NoiseSpec(kind=NoiseKind.NONE, scale_mode=ScaleMode.CALIBRATED),
                            lambda dq: 0.0),
        "fixed": (NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=2.5),
                  lambda dq: 2.5),
        "laplace": (NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5,
                              scale_mode=ScaleMode.CALIBRATED),
                    lambda dq: dq / 0.5),
        "gaussian": (NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.3, delta=0.01,
                               scale_mode=ScaleMode.CALIBRATED),
                     lambda dq: (dq / 0.3) * math.sqrt(2.0 * math.log(1.25 / 0.01))),
        "override": (NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.3, delta=0.01,
                               scale_mode=ScaleMode.CALIBRATED, sensitivity=0.7),
                     lambda dq: (0.7 / 0.3) * math.sqrt(2.0 * math.log(1.25 / 0.01))),
    }

    def test_pilot_calibration_matches_noiseless_sensitivity(self):
        pilot = dpaimd.run(self.base([NoiseSpec(kind=NoiseKind.NONE)]))
        dq = float(pilot.final_sensitivity[0])
        assert dq > 0
        cfg = self.base([NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5,
                                   scale_mode=ScaleMode.CALIBRATED)])
        assert calibrated_scales(cfg)[0] == pytest.approx(dq / 0.5)

    def test_sensitivity_override_skips_pilot(self):
        cfg = self.base([NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5,
                                   scale_mode=ScaleMode.CALIBRATED, sensitivity=2.0)])
        assert calibrated_scales(cfg)[0] == pytest.approx(4.0)

    def test_fixed_scale_passthrough(self):
        cfg = self.base([NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                                   scale_mode=ScaleMode.FIXED, scale=7.5)])
        assert calibrated_scales(cfg)[0] == 7.5

    def test_calibration_fails_without_events(self):
        cfg = self.two_resources([self.SPECS["fixed"][0], self.SPECS["laplace"][0]], steps=3)
        with pytest.raises(ConfigurationError, match="sensitivity for resource 1"):
            resolve_noise_scales(cfg, [cfg.noise])

    @pytest.mark.parametrize("names,pilots", [
        (("none", "fixed"), 0), (("fixed", "override"), 0), (("override", "none-calibrated"), 0),
        (("laplace", "gaussian"), 1), (("gaussian", "none"), 1), (("fixed", "laplace"), 1),
        (("override", "laplace"), 1),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_each_spec_scales_the_pilot_sensitivity(self, monkeypatch, names, pilots):
        specs = [self.SPECS[name] for name in names]
        dq = dpaimd.run(self.two_resources([NoiseSpec()] * 2)).final_sensitivity
        assert (dq > 0).all() and dq[0] != dq[1]
        runs = []
        simulate = engine._simulate
        monkeypatch.setattr(engine, "_simulate",
                            lambda *a, **kw: runs.append(1) or simulate(*a, **kw))
        scales = calibrated_scales(self.two_resources([spec for spec, _ in specs]))
        assert scales.tolist() == [expected(float(dq[j])) for j, (_, expected) in enumerate(specs)]
        assert len(runs) == pilots

    def test_resolved_spec_carries_the_pilot_dq(self):
        """The pilot's dq becomes a calibrated spec's sensitivity, an override
        stays, and a run on the resolved specs is the run that calibrates itself."""
        specs = [self.SPECS["laplace"][0], self.SPECS["override"][0]]
        config = self.two_resources(specs)
        dq = dpaimd.run(self.two_resources([NoiseSpec()] * 2)).final_sensitivity
        [noise] = resolve_noise_scales(config, [config.noise])
        assert noise == [replace(specs[0], sensitivity=float(dq[0])), specs[1]]
        assert_same_trace(engine.run(replace(config, noise=noise)), engine.run(config))

    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
           kind=st.sampled_from([NoiseKind.LAPLACE, NoiseKind.GAUSSIAN]),
           epsilon=st.floats(0.05, 0.95),
           coeffs=st.lists(st.floats(0.5, 20.0), min_size=2, max_size=2),
           steps=st.integers(60, 300))
    @settings(max_examples=30, deadline=None)
    def test_scales_do_not_depend_on_seed(self, seeds, kind, epsilon, coeffs, steps):
        # the invariant that lets a sweep calibrate each point once for all its seeds
        spec = NoiseSpec(kind=kind, epsilon=epsilon, delta=0.01, scale_mode=ScaleMode.CALIBRATED)
        scales = [
            calibrated_scales(SystemConfig(
                agents=[square_cost(c) for c in coeffs],
                resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5, gamma=1e-3)],
                noise=[spec], steps=steps, seed=seed, burn_in_events=2))
            for seed in seeds
        ]
        assert np.array_equal(scales[0], scales[1])

    def test_sensitivity_series_monotone(self, short_reference_run):
        _, trace, _ = short_reference_run
        assert (np.diff(trace.sensitivity, axis=0) >= 0).all()


NOISE_CHOICES = {
    "none": NoiseSpec(),
    "laplace": NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=4.0),
    "gaussian": NoiseSpec(kind=NoiseKind.GAUSSIAN, scale_mode=ScaleMode.FIXED, scale=3.0),
    "laplace-calibrated": NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5,
                                    scale_mode=ScaleMode.CALIBRATED),
    "gaussian-calibrated": NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.5, delta=0.01,
                                     scale_mode=ScaleMode.CALIBRATED),
}


@st.composite
def small_configs(draw, mixed=False):
    """1-4 agents, 1-3 resources, 1-4 terms a cost; every noisy resource draws
    one kind of noise, mixed only with none; with ``mixed``, each resource draws
    any of NOISE_CHOICES."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any)
    terms = st.lists(row, min_size=1, max_size=4)
    agents = [CostFunction(np.array(draw(st.lists(st.floats(0.5, 20.0), min_size=len(t),
                                                  max_size=len(t)))), np.array(t))
              for t in (draw(terms) for _ in range(n))]
    resources = [ResourceConfig(capacity=draw(st.floats(0.5, 3.0)), alpha=0.05,
                                beta=draw(st.floats(0.3, 0.9)), gamma=draw(st.floats(1e-3, 1.0)))
                 for _ in range(m)]
    kind = draw(st.sampled_from(["laplace", "gaussian", "laplace-calibrated",
                                 "gaussian-calibrated"]))
    choices = list(NOISE_CHOICES) if mixed else ["none", kind]
    noise = [NOISE_CHOICES[draw(st.sampled_from(choices))] for _ in range(m)]
    return SystemConfig(agents=agents, resources=resources, noise=noise,
                        steps=draw(st.integers(0, 300)), seed=draw(st.integers(0, 2**32 - 1)),
                        burn_in_events=draw(st.integers(0, 3)),
                        agent_ids=draw(st.permutations(range(n))))


def wide_separable_config():
    """16 agents x 3 resources of a/2 x_j^2 + b/4 x_j^4 costs, fixed Laplace noise and
    1,000 steps, every resource firing hundreds of times; each partial keeps 2 terms."""
    n, m = 16, 3
    a = 10 + 20 * np.arange(n) / (n - 1)
    b = 15 + 20 * ((5 * np.arange(n)) % n) / (n - 1)
    eye = np.eye(m, dtype=int)
    exponents = np.stack([2 * eye, 4 * eye], axis=1).reshape(2 * m, m)   # x_0^2, x_0^4, x_1^2, ...
    return SystemConfig(
        agents=[CostFunction(np.tile([a[i] / 2, b[i] / 4], m), exponents) for i in range(n)],
        resources=[ResourceConfig(capacity=0.3 * n * (1 + 0.1 * j), alpha=0.01,
                                  beta=0.7 - 0.05 * j, gamma=1e-3) for j in range(m)],
        noise=[NOISE_CHOICES["laplace"]] * m, steps=1_000, seed=17)


def nine_agents_three_terms():
    """9 agents of distinct costs c_i (x^2 + x^3 + x^4) on one resource under Laplace
    noise: each partial keeps 3 terms, and at 115 of the 300 steps numpy's pairwise
    sum of the demands rounds unlike the left-to-right one (no event bit moves
    here; ``TestResourceMajorLoop`` pins the order itself)."""
    agents = [CostFunction(np.array([1.0, 0.5, 0.25]) * (1 + 0.3 * i), np.array([[2], [3], [4]]))
              for i in range(9)]
    return SystemConfig(agents=agents, noise=[NOISE_CHOICES["laplace"]], steps=300, seed=11,
                        resources=[ResourceConfig(capacity=3.0, alpha=0.05, beta=0.6, gamma=1e-3)])


def mixed_config(steps=400, seed=4):
    """Three agents on a Laplace and a Gaussian resource, with ids out of order."""
    return SystemConfig(
        agents=[CostFunction(np.array([c, 2.0 * c]), np.array([[2, 0], [0, 2]]))
                for c in (1.0, 3.0, 2.0)],
        resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5, gamma=1e-3),
                   ResourceConfig(capacity=1.5, alpha=0.05, beta=0.6, gamma=1e-3)],
        noise=[NOISE_CHOICES["laplace"], NOISE_CHOICES["gaussian"]],
        steps=steps, seed=seed, agent_ids=[7, 2, 5])


def noise_stream(seed, agent_id, *tag):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(NOISE_STREAM, agent_id) + tag))


def usable_config(config):
    """The config with its noise calibrated, or with a fixed scale of 1.5 on each
    noisy resource if a short pilot saw no sensitivity."""
    try:
        [noise] = resolve_noise_scales(config, [config.noise])
    except ConfigurationError:
        noise = [spec if spec.kind is NoiseKind.NONE else NoiseSpec(kind=spec.kind, scale=1.5)
                 for spec in config.noise]
    return replace(config, noise=noise)


def sawtooth_pair(steps):
    """Two agents on one resource under Laplace noise: an event every third step
    from step 8 on, so 20 steps end on an event and 19 end two steps after one."""
    return one_resource_config([square_cost(), square_cost(2.0)], steps=steps,
                               noise=[NOISE_CHOICES["laplace"]])


class TestFinalXbar:
    """The trace hands over the loop's own final x-bar, bit-equal to the derived one.

    The loop divides x-bar out only at event steps and once after the loop."""

    @given(small_configs())
    @example(sawtooth_pair(19))     # the last two steps fire no event
    @example(sawtooth_pair(20))     # the last step fires
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_last_derived_xbar(self, config):
        trace = engine.run(usable_config(config), dense=True)
        assert trace.final_xbar.shape == (config.n_agents, config.n_resources)
        expected = trace.xbar[-1] if trace.steps else np.zeros_like(trace.final_xbar)
        assert trace.final_xbar.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("noise", list(NOISE_CHOICES))
    def test_one_agent_one_resource(self, noise):
        # a plain sum of x over the steps, over steps + 1, misses here in the last bits
        config = SystemConfig(agents=[square_cost()], noise=[NOISE_CHOICES[noise]], steps=2_000,
                              resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5,
                                                        gamma=0.05)], seed=3)
        trace = engine.run(config, dense=True)
        assert trace.final_xbar.tobytes() == trace.xbar[-1].tobytes()

    def test_the_examples_end_as_named(self):
        assert engine.run(sawtooth_pair(19), dense=True).event_bits[-3:, 0].tolist() == [1, 0, 0]
        assert engine.run(sawtooth_pair(20), dense=True).event_bits[-1, 0] == 1

    def test_zeros_without_steps(self):
        trace = engine.run(one_resource_config([square_cost(), square_cost(2.0)], steps=0))
        assert trace.steps == 0 and trace.n_agents == 2 and trace.n_resources == 1
        assert trace.final_xbar.tobytes() == np.zeros((2, 1)).tobytes()
        assert trace.event_counts.tobytes() == np.zeros(1, np.int64).tobytes()
        assert trace.broadcast_bits_total == 0


class TestNoiseBlocks:
    """Noise is drawn ahead in blocks per agent stream, sliced one column per event."""

    @given(small_configs())
    @example(wide_separable_config())
    @example(nine_agents_three_terms())
    @settings(max_examples=60, deadline=None)
    def test_trace_is_byte_equal_to_per_event_draws(self, config):
        config = usable_config(config)
        assert_same_trace(engine.run(config, dense=True), simulate_oracle(config))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @given(config=small_configs(mixed=True))
    @example(config=mixed_config(steps=60))
    @settings(max_examples=30, deadline=None)
    def test_rows_refill_at_any_block_size(self, rows, config):
        """Blocks of 1, 2 or 3 draws per stream, scaled 2 rows at a time, refill
        the scaled rows at almost every event, of one kind or of two, and change
        no bit."""
        config = usable_config(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(privacy, "NOISE_BLOCK", rows)
            patch.setattr(privacy, "SCALED_ROWS", 2)
            got = engine.run(config, dense=True)
        assert_same_trace(got, simulate_oracle(config))

    def test_mixed_kinds_are_deterministic(self):
        a, b = dpaimd.run(mixed_config(), dense=True), dpaimd.run(mixed_config(), dense=True)
        assert_same_trace(b, a)
        assert not np.array_equal(a.x, dpaimd.run(mixed_config(seed=5), dense=True).x)

    def test_mixed_kinds_draw_from_one_stream_per_agent_and_kind(self):
        """The first noisy resource's kind keeps the agent's stream, the other gets its own."""
        config = mixed_config()
        trace = dpaimd.run(config, dense=True)
        batch = PolyBatch(config.agents)
        prev_xbar = np.concatenate([np.zeros_like(trace.x[:1]), trace.xbar[:-1]])
        draws = [lambda rng, k: rng.laplace(0.0, 4.0, k), lambda rng, k: rng.normal(0.0, 3.0, k)]
        for j, tag in ((0, ()), (1, (1,))):
            events = np.nonzero(trace.event_bits[:, j])[0]
            assert events.size > 10
            noise = np.stack([draws[j](noise_stream(config.seed, aid, *tag), events.size)
                              for aid in config.agent_ids], axis=1)
            partials = batch.partial(prev_xbar[events], j)
            assert np.array_equal(trace.noisy_derivative[events, :, j], partials + noise)

    def test_blocks_are_drawn_lazily_and_capped(self, monkeypatch):
        blocks = []
        draw = privacy.unit_noise
        monkeypatch.setattr(privacy, "unit_noise",
                            lambda kind, rng, size: blocks.append((kind, size)) or draw(kind, rng, size))
        config = mixed_config(steps=3000)
        dpaimd.run(replace(config, noise=[NoiseSpec()] * 2))
        assert blocks == []                 # a noiseless run, such as a pilot, draws nothing
        trace = dpaimd.run(config)
        n, block = config.n_agents, privacy.NOISE_BLOCK
        for j, spec in enumerate(config.noise):
            sizes = [size for kind, size in blocks if kind is spec.kind]
            # whole blocks as events need them, the last one cut at steps draws per stream
            needed = -(-int(trace.event_counts[j]) // block)
            expected = [min(block, config.steps - b * block) for b in range(needed)]
            assert sorted(sizes, reverse=True) == sorted(expected * n, reverse=True)
            assert needed > 1
        blocks.clear()
        dpaimd.run(replace(config, steps=40))
        assert [size for _, size in blocks] == [40] * (2 * n)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that ``fn(*args, **kwargs)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLeanTrace:
    """Without dense=True a run keeps no per-step series, the event bits among
    them, and changes no other bit."""

    @given(small_configs())
    @example(replace(wide_separable_config(), steps=700))
    @settings(max_examples=60, deadline=None)
    def test_lean_run_equals_dense_run(self, config):
        config = usable_config(config)
        lean, dense = engine.run(config), engine.run(config, dense=True)
        assert_same_trace(lean, replace(dense, x=None, event_bits=None, noisy_derivative=None,
                                        sensitivity=None))
        assert lean.event_counts.dtype == dense.event_counts.dtype
        assert lean.event_counts.tobytes() == dense.event_counts.tobytes()
        assert lean.broadcast_bits_total == dense.broadcast_bits_total
        # the optimum enters a summary only as given numbers, so any allocation serves
        optimum = OptimalAllocation(x_star=np.ones((config.n_agents, config.n_resources)),
                                    total_cost=1.0, kkt_residual=0.0)
        texts = [cli._json_text(cli.summary_to_dict(metrics.summarize(t, config.agents, optimum),
                                                    config, optimum)) for t in (lean, dense)]
        assert texts[0] == texts[1]

    def test_default_run_holds_less_than_one_dense_array(self):
        """n = 40, m = 2, 5,000 steps: the pilot and the run stay below 3.05 MiB."""
        n, m, steps = 40, 2, 5_000
        config = SystemConfig(
            agents=[CostFunction(np.array([c, 2.0 * c]), np.array([[2, 0], [0, 2]]))
                    for c in np.linspace(1.0, 5.0, n)],
            resources=[ResourceConfig(capacity=8.0, alpha=0.01, beta=0.7, gamma=1e-3),
                       ResourceConfig(capacity=10.0, alpha=0.0125, beta=0.6, gamma=1e-3)],
            noise=[NOISE_CHOICES["laplace-calibrated"], NOISE_CHOICES["gaussian-calibrated"]],
            steps=steps, seed=2)
        assert all(spec.needs_pilot for spec in config.noise)
        runs = []
        peak = traced_peak(lambda: runs.append(engine.run(config)))
        assert runs[0].event_counts.all() and runs[0].x is None
        assert peak < steps * n * m * 8

    def test_memory_does_not_grow_with_the_horizon(self, monkeypatch):
        """Past the tracker block's saturation, the peak of a lean run does not grow
        with its horizon: 5,000 more steps on 4 resources would add 20,000 bytes
        of per-step bits. A tiny gamma keeps lambda-hat at its floor, so the demand
        stays above capacity and fires at almost every step; a block of 2,048
        partials keeps the run short."""
        monkeypatch.setattr(engine, "TRACKER_BLOCK_CELLS", 2048)
        m = 4
        config = SystemConfig(agents=[CostFunction(np.ones(m), 2 * np.eye(m, dtype=int))],
                              noise=[NoiseSpec()] * m, steps=0, seed=0,
                              resources=[ResourceConfig(capacity=1.0, alpha=1.0, beta=0.5,
                                                        gamma=1e-12)] * m)
        peaks = [traced_peak(engine.run, replace(config, steps=steps)) for steps in (5_000, 10_000)]
        assert peaks[1] - peaks[0] <= 4096, peaks

    def test_dense_views_of_a_lean_trace_raise(self, tmp_path):
        trace = dpaimd.run(one_resource_config([square_cost()], steps=30))
        assert trace.event_bits is None and trace.event_counts.tolist() == [5]
        path = tmp_path / "trace.csv"
        for read in (lambda: trace.views(1), lambda: trace.xbar, lambda: trace.lambda_hat,
                     lambda: trace.cum_bits, lambda: cli.write_trace_csv(trace, path)):
            with pytest.raises(ValueError, match="run with dense=True"):
                read()
        assert not path.exists()


class TestInvariants:
    """What every dense run must satisfy at every step, on random small configs."""

    @given(small_configs())
    @settings(max_examples=60, deadline=None)
    def test_hold_at_every_step(self, config):
        trace = engine.run(usable_config(config), dense=True)
        capacity = np.array([r.capacity for r in config.resources])
        alpha = np.array([r.alpha for r in config.resources])
        # a resource below capacity grows by n alpha at most; one at it backs off
        bound = capacity + config.n_agents * alpha
        assert (trace.x.sum(axis=1) <= bound * (1 + 1e-12)).all()
        assert (trace.x >= 0).all()
        events = trace.event_bits == 1
        assert not events[:1].any()                     # no event at step 0
        lam = trace.lambda_hat
        at_event = np.broadcast_to(events[:, None, :], lam.shape)
        assert ((LAMBDA_MIN <= lam[at_event]) & (lam[at_event] <= 1.0)).all()
        assert np.isnan(lam[~at_event]).all()
        # the trace CSV picks each row's template by this: NaN exactly off event
        assert np.array_equal(np.isnan(trace.noisy_derivative), ~at_event)
        # lambda-hat divides by the x-bar after the step before the event
        steps, resources = np.nonzero(events)
        assert (trace.xbar[steps - 1, :, resources] > 0).all()
        assert (trace.sensitivity >= 0).all()
        assert (np.diff(trace.sensitivity, axis=0) >= 0).all()


class TestTrackerBlocks:
    """The loop hands the tracker TRACKER_BLOCK_CELLS // (n m) event steps at a
    time; blocks of 1, 2 or 3 steps, flushed full many times in a short run,
    give the default block's bits and the per-event oracle's."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @given(small_configs())
    @settings(max_examples=30, deadline=None)
    def test_trace_is_bit_equal_at_any_block_size(self, rows, config):
        config = usable_config(config)
        default = engine.run(config, dense=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "TRACKER_BLOCK_CELLS", rows * config.n_agents * config.n_resources)
            blocked = engine.run(config, dense=True)
        expected = simulate_oracle(config)
        assert_same_trace(blocked, expected)
        assert_same_trace(default, expected)


def separable_config(n, m, steps=300, coefficient=1.0, noise=("none",) * 3):
    """n agents of distinct costs a_i/2 x_j^2 + b_i/4 x_j^4 on each of m resources,
    no noise by default. Resource 0 fires from about step 40 on; resource 1 has
    a capacity that no demand reaches in ``steps``, and x_1^40 in place of x_1^4,
    with agent 0's weight times ``coefficient``."""
    eye = np.eye(m, dtype=int)
    exponents = np.concatenate([2 * eye, 4 * eye])
    exponents[m + 1:m + 2] *= 10
    agents = [CostFunction(np.concatenate([np.full(m, (1.0 + 0.37 * i) / 2),
                                           np.full(m, (0.5 + 0.11 * i) / 4)]), exponents)
              for i in range(n)]
    for f in agents[:1] if m > 1 else ():
        f.coeffs[m + 1] *= coefficient
    limits = [(0.4 * n, 0.01)] + [(1e6, 0.1)] * (m - 1)     # capacity and alpha
    return SystemConfig(
        agents=agents, noise=[NOISE_CHOICES[kind] for kind in noise[:m]], steps=steps, seed=5,
        resources=[ResourceConfig(capacity=c, alpha=a, beta=0.7, gamma=1e-3) for c, a in limits])


class TestSummaryGrid:
    """A run records its series only at the steps of ``series_grid``, at most
    MAX_SERIES_POINTS of them, once per tracker block: the per-event oracle's
    per-step series, sampled there, equal its values bit for bit."""

    @given(small_configs(), st.just(0) | st.integers(1, engine.MAX_SERIES_POINTS)
           | st.integers(engine.MAX_SERIES_POINTS + 1, 1_500))
    @example(mixed_config(), 0)
    @example(mixed_config(), engine.MAX_SERIES_POINTS)
    @example(mixed_config(), engine.MAX_SERIES_POINTS + 1)
    @example(separable_config(9, 2), 1_200)     # resource 1 never fires
    @settings(max_examples=40, deadline=None)
    def test_grid_values_equal_the_oracle_sampled_at_the_grid(self, config, steps):
        config = usable_config(replace(config, steps=steps))
        got, expected = engine.run(config), simulate_oracle(config)
        grid = engine.series_grid(steps)
        assert got.grid_sensitivity.tobytes() == expected.sensitivity[grid].tobytes()
        assert got.grid_events.sum(axis=1).tobytes() == expected.cum_bits[grid].tobytes()
        for name in ("grid_sensitivity", "grid_events", "grid_spread", "grid_spread_step"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
        assert got.final_sensitivity.tobytes() == (expected.sensitivity[-1] if steps else
                                                   np.zeros(config.n_resources)).tobytes()
        # each event a summary lists is one of the resource's, and a short run lists them all
        for j, (steps_j, spread_j) in metrics.derivative_spread(got).items():
            events = np.flatnonzero(expected.event_bits[:, j])
            assert np.isin(steps_j, events).all() and (np.diff(steps_j) > 0).all()
            assert not np.isnan(spread_j).any() and spread_j.shape == steps_j.shape
            if steps <= engine.MAX_SERIES_POINTS:
                assert steps_j.tolist() == events.tolist()


class TestResourceMajorLoop:
    """The loop keeps its state as (m, n) arrays, row j resource j's agents, and
    backs off every fired row in one set of calls over the whole array."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [9, 16])
    def test_the_aggregate_sums_agents_left_to_right(self, monkeypatch, n, m):
        """Each step hands ``server_step`` the sum of the trace's x before it,
        agent 0 first and each next agent added to the running sum, bit for bit
        at any m. numpy's pairwise sum of a contiguous row parts from it from 8
        agents on, and misses at some step."""
        seen = []
        step = engine.server_step
        monkeypatch.setattr(engine, "server_step",
                            lambda *args: seen.append(args[1].copy()) or step(*args))
        trace = engine.run(separable_config(n, m), dense=True)
        assert len(seen) == trace.steps and trace.event_counts[0] > 50
        misses = 0
        for nu, aggregate in enumerate(seen[1:], start=1):
            expected = np.zeros(m)
            for demands in trace.x[nu - 1]:
                expected = expected + demands
            assert aggregate.tobytes() == expected.tobytes(), nu
            pairwise = np.ascontiguousarray(trace.x[nu - 1].T).sum(axis=1)
            misses += pairwise.tobytes() != expected.tobytes()
        assert misses > 0

    @pytest.mark.parametrize("noise", [("none", "none"), ("laplace", "laplace"),
                                       ("laplace", "none")], ids="-".join)
    def test_an_unfired_resource_with_infinite_partials_changes_nothing(self, noise):
        """Resource 1 never fires, and agent 0's partial 40e300 x_1**39 on it is inf
        from early on, while resource 0 fires. lambda-hat over every row computes
        that row and the mask drops it, without a warning: every field of the
        trace equals the run's with a coefficient of 1."""
        huge, unit = (separable_config(9, 2, coefficient=c, noise=noise) for c in (1e300, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, expected = engine.run(huge, dense=True), engine.run(unit, dense=True)
        events = np.nonzero(got.event_bits[:, 0])[0]
        assert events.size > 50 and not got.event_bits[:, 1].any()
        with np.errstate(over="ignore"):
            partials = PolyBatch(huge.agents).partial(got.xbar[events - 1], 1)
        assert np.isinf(partials[:, 0]).mean() > 0.8
        assert_same_trace(got, expected)


class CountedCall:
    """A numpy function or ufunc that logs its name at each call; a ufunc's
    methods log as ``name.method``, such as ``add.accumulate``."""

    def __init__(self, fn, name, log):
        self.fn, self.name, self.log = fn, name, log

    def __call__(self, *args, **kwargs):
        self.log.append(self.name)
        return self.fn(*args, **kwargs)

    def __getattr__(self, attr):
        value = getattr(self.fn, attr)
        return CountedCall(value, f"{self.name}.{attr}", self.log) if callable(value) else value


class CountingNumpy:
    """Stands in for ``np`` in a module: its functions and ufuncs are counted,
    its types, constants and submodules are numpy's own."""

    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        value = getattr(np, name)
        if callable(value) and not isinstance(value, type):
            return CountedCall(value, name, self.log)
        return value


class TestCallBudget:
    """The step loop's module-level numpy calls, pinned exactly.

    A step's cost is mostly the overhead of its calls, and their number is
    deterministic, so a call added to or dropped from the loop changes these
    counts. A ``CountingNumpy`` stands in for ``engine.np`` and ``model.np`` (the
    gradient kernel's calls), so the tracker's and the noise streams' own numpy
    calls are not counted. It sees module-level calls only: ndarray methods
    (``take``, ``tobytes``, ``all``), in-place operators (``x_sum += x``),
    item assignment and a generator's ``send`` are invisible to it, so work
    moved there leaves these counts and must be named where it is moved: the
    kernel copies the point into its power table by item assignment.

    A step starts with the aggregate's ``add.accumulate``, the one such call in
    the loop. The last step is left out: the calls after the loop follow it.
    Both configs hold two-term partials of one factor each, x and x ** 3, so
    their gradient kernel makes two ``multiply`` for its power table (x ** 2,
    then x ** 3), one weighting ``multiply`` and one ``add``.
    """

    QUIET = collections.Counter({"add.accumulate": 1, "less": 1, "add": 1})
    # every resource fired: the x-bar divide, the kernel (multiply 3, add),
    # lambda-hat (abs, multiply, divide, maximum, minimum) and the back-off
    # (multiply, subtract, add, multiply)
    ALL_FIRED = collections.Counter({"add.accumulate": 1, "less": 1, "divide": 2, "multiply": 6,
                                     "add": 2, "abs": 1, "maximum": 1, "minimum": 1,
                                     "subtract": 1})
    SOME_FIRED = ALL_FIRED + collections.Counter({"add": 1})    # plus the additive increase
    PER_FIRED_RESOURCE = collections.Counter({"add": 1})        # partials plus the noise row
    # the first step of each bit pattern, before ``server_step`` caches its answer
    CACHE_MISS = collections.Counter({"logical_not": 1, "flatnonzero": 1})
    MASK = collections.Counter({"repeat": 1})       # the back-off mask, unless every resource fired

    def counted_steps(self, monkeypatch, config):
        """(fired resources, cache miss, Counter of the step's calls) per step but the last."""
        log, fired = [], []
        step = engine.server_step

        def recorded(limits, aggregate, pair, patterns, n_agents):
            cached = len(patterns)
            found = step(limits, aggregate, pair, patterns, n_agents)
            fired.append((len(found[0]), len(patterns) > cached))
            return found

        proxy = CountingNumpy(log)
        with monkeypatch.context() as patched:
            patched.setattr(engine, "np", proxy)
            patched.setattr(dpaimd.model, "np", proxy)
            patched.setattr(engine, "server_step", recorded)
            counted = engine.run(config)
        assert_same_trace(counted, engine.run(config))     # the proxy changes no bit
        starts = [k for k, name in enumerate(log) if name == "add.accumulate"]
        assert len(starts) == len(fired) == config.steps
        return [(k, miss, collections.Counter(log[lo:hi]))
                for (k, miss), lo, hi in zip(fired, starts, starts[1:])]

    def expected(self, k, m, miss):
        calls = self.QUIET if k == 0 else self.ALL_FIRED if k == m else self.SOME_FIRED
        calls = calls + collections.Counter({name: k * count
                                             for name, count in self.PER_FIRED_RESOURCE.items()})
        if miss:
            calls = calls + self.CACHE_MISS + (self.MASK if k < m else collections.Counter())
        return calls

    @pytest.mark.parametrize("config, totals", [
        (cli.reference_system_config(cli._gaussian_pair(20.50, 39.31), steps=2_000),
         {0: 3, 1: 18, 2: 18}),
        (wide_separable_config(), {0: 3, 1: 18, 2: 19, 3: 19}),
    ], ids=["reference", "16x3"])
    def test_calls_per_step(self, monkeypatch, config, totals):
        m = config.n_resources
        steps = self.counted_steps(monkeypatch, config)
        assert {k: sum(self.expected(k, m, False).values()) for k in range(m + 1)} == totals
        for nu, (k, miss, calls) in enumerate(steps):
            assert calls == self.expected(k, m, miss), (nu, k, miss)
        seen = collections.Counter(k for k, miss, _ in steps if not miss)
        assert set(seen) == set(totals) and min(seen.values()) > 10, seen


class TestNumericFailures:
    """A non-finite value mid-run raises NumericError naming the step that met it."""

    def run(self, agents, capacity, alpha, steps=20):
        return engine.run(SystemConfig(
            agents=agents, noise=[NoiseSpec()], steps=steps, seed=0,
            resources=[ResourceConfig(capacity=capacity, alpha=alpha, beta=0.5, gamma=1e-3)]))

    def test_non_finite_derivative(self):
        # both demands climb 1 a step and fire at step 5, at x-bar 2.5: 4e301 * 2.5**39 overflows
        agents = [square_cost(), CostFunction(np.array([1e300]), np.array([[40]]))]
        with pytest.raises(NumericError, match="derivative for resource 0 at step 5$"):
            self.run(agents, capacity=10.0, alpha=1.0)

    def test_a_failed_partial_wins_over_a_later_demand_error(self, monkeypatch):
        """The loop runs past a bad partial: the failed server step takes the
        pending block first, so the partial's error wins as it did when it was
        checked at its own step. So it does when each block is one step."""
        # resource 0 as above; on resource 1 the two demands climb 1e307 a step,
        # and their sum overflows at step 9 before it reaches capacity
        agents = [CostFunction(np.array([1.0, 1.0]), np.array([[2, 0], [0, 2]])),
                  CostFunction(np.array([1e300, 1.0]), np.array([[40, 0], [0, 2]]))]
        config = SystemConfig(
            agents=agents, noise=[NoiseSpec()] * 2, steps=20, seed=0,
            resources=[ResourceConfig(capacity=10.0, alpha=1.0, beta=0.5, gamma=1e-3),
                       ResourceConfig(capacity=1.79e308, alpha=1e307, beta=0.5, gamma=1e-3)])
        fixed = replace(config, agents=[agents[0], CostFunction(np.array([1.0, 1.0]),
                                                                 np.array([[40, 0], [0, 2]]))])
        for cells in (engine.TRACKER_BLOCK_CELLS, 2 * 2):     # the default block, then n m
            monkeypatch.setattr(engine, "TRACKER_BLOCK_CELLS", cells)
            with pytest.raises(NumericError, match="derivative for resource 0 at step 5$"):
                engine.run(config)
            with pytest.raises(NumericError, match="non-finite aggregate demand at step 9$"):
                engine.run(fixed)

    def test_a_cached_pattern_cannot_hide_an_overflow(self, monkeypatch):
        """By step 4 the patterns of each resource firing alone are cached. There
        resource 1's four finite demands sum to inf while resource 0 is quiet, so
        its event row equals the cached one of step 2; only the finiteness row
        sends it to the check, which fails at the oracle's step."""
        # resource 0: the sum climbs 4 a step and halves at its events, steps 1 and 3;
        # resource 1: the sum climbs 3/8 of 2**1024 a step, meets its capacity of 3/4
        # of it at step 2, keeps 0.9 of it and overflows at step 4. Its cost is
        # linear, so no power of a huge demand overflows first
        alpha = 3.0 * 2.0 ** 1019
        config = SystemConfig(
            agents=[CostFunction(np.array([1.0, 1.0]), np.array([[2, 0], [0, 1]]))] * 4,
            noise=[NoiseSpec()] * 2, steps=20, seed=0,
            resources=[ResourceConfig(capacity=4.0, alpha=1.0, beta=0.5, gamma=1e3),
                       ResourceConfig(capacity=8 * alpha, alpha=alpha, beta=0.9, gamma=1e308)])
        with pytest.raises(NumericError) as oracle, np.errstate(over="ignore"):
            simulate_oracle(config)
        assert str(oracle.value) == "non-finite aggregate demand at step 4"
        cached = []
        step = engine.server_step
        monkeypatch.setattr(engine, "server_step",
                            lambda *args: cached.append(set(args[3])) or step(*args))
        with pytest.raises(NumericError, match=f"^{oracle.value}$"):
            engine.run(config)
        # (aggregate < capacity, aggregate < inf) of resource 0 alone firing, then resource 1 alone
        alone = {np.array([[False, True], [True, True]]).tobytes(),
                 np.array([[True, False], [True, True]]).tobytes()}
        assert len(cached) == 5 and alone <= cached[-1]

    def test_an_infinite_partial_with_infinite_noise(self):
        """At seed 13 agent 1's first Laplace draw times 1e308 is -inf: its noisy
        partial inf + -inf is NaN, and the loop must not warn about it."""
        agents = [square_cost(), CostFunction(np.array([1e300]), np.array([[40]]))]
        config = SystemConfig(
            agents=agents, steps=20, seed=13,
            noise=[NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=1e308)],
            resources=[ResourceConfig(capacity=10.0, alpha=1.0, beta=0.5, gamma=1e-3)])
        with np.errstate(over="ignore"):
            assert 1e308 * noise_stream(13, 1).laplace(0.0, 1.0) == -math.inf
        with pytest.raises(NumericError, match="derivative for resource 0 at step 5$"):
            engine.run(config)

    @pytest.mark.parametrize("agents,alpha,steps,step,what", [
        (2, 1.5e308, 20, 1, "aggregate demand"),    # two finite demands, an infinite sum
        (1, 1e308, 20, 2, "aggregate demand"),      # the demand itself grows past 1.7e308
        (1, 1e308, 2, 1, "demand"),                 # ... at the last step
    ], ids=["sum", "demand", "last-step-demand"])
    def test_overflowing_demand(self, agents, alpha, steps, step, what):
        with pytest.raises(NumericError, match=f"non-finite {what} at step {step}$"):
            self.run([square_cost()] * agents, capacity=1.5e308, alpha=alpha, steps=steps)


def rescaled(config, k, q):
    """``config`` in other units: x, C and alpha times s = 2**k, a degree-d term's
    coefficient times s**(2 - d) * r with r = 2**q, gamma over r, and each fixed
    scale or sensitivity times s * r, so that every partial scales by s * r."""
    agents = [CostFunction(np.ldexp(f.coeffs, k * (2 - f.exponents.sum(axis=1)) + q), f.exponents)
              for f in config.agents]
    resources = [ResourceConfig(capacity=math.ldexp(r.capacity, k), alpha=math.ldexp(r.alpha, k),
                                beta=r.beta, gamma=math.ldexp(r.gamma, -q)) for r in config.resources]
    noise = [replace(spec, **{name: math.ldexp(getattr(spec, name), k + q)
                              for name in ("scale", "sensitivity") if getattr(spec, name)})
             for spec in config.noise]
    return replace(config, agents=agents, resources=resources, noise=noise)


class TestMetamorphic:
    """Relations between two runs, on derandomized examples. The kernel raises by
    multiplying, which commutes with a power-of-two scale unless a product leaves
    the normal floats; the solver's log and exp do not, at every point."""

    @given(small_configs(), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_power_of_two_units(self, config, k, q):
        """x, x-bar and the bits follow the units; dq, a partial, scales by s * r."""
        config = usable_config(config)
        base, moved = engine.run(config, dense=True), engine.run(rescaled(config, k, q), dense=True)
        assert moved.event_bits.tobytes() == base.event_bits.tobytes()
        assert moved.x.tobytes() == np.ldexp(base.x, k).tobytes()
        assert moved.final_xbar.tobytes() == np.ldexp(base.final_xbar, k).tobytes()
        assert moved.sensitivity.tobytes() == np.ldexp(base.sensitivity, k + q).tobytes()

    @given(small_configs(), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_relabeled_agents(self, config, data):
        """Agents and their ids permuted together: each agent keeps its noise stream."""
        config = usable_config(config)
        order = data.draw(st.permutations(range(config.n_agents)))
        moved = replace(config, agents=[config.agents[i] for i in order],
                        agent_ids=[config.agent_ids[i] for i in order])
        base, got = engine.run(config, dense=True), engine.run(moved, dense=True)
        assert got.event_bits.tobytes() == base.event_bits.tobytes()
        assert got.final_xbar.tobytes() == base.final_xbar[order].tobytes()

    @pytest.mark.parametrize("k,q", [
        (1, 0), (0, 1), (3, -2), (-5, 7), (10, -10), (20, 5), (40, -30), (0, 30),
    ])
    def test_power_of_two_units_scale_the_optimum(self, k, q):
        """x* follows the units and the total cost, a sum of costs, scales by s**2 * r."""
        config = cli.reference_system_config([NoiseSpec()] * 2)
        base = solve_optimum(config.agents, config.resources)
        moved = rescaled(config, k, q)
        got = solve_optimum(moved.agents, moved.resources)
        assert got.x_star.tobytes() == np.ldexp(base.x_star, k).tobytes()
        assert got.total_cost == math.ldexp(base.total_cost, 2 * k + q)

    @pytest.mark.parametrize("factor", [1e3, 1e6, 1e8, 1e9])
    def test_decimal_cost_units_keep_the_optimum(self, factor):
        """The paper-suite agents' coefficients times ``factor``: x* moves by at
        most one last bit and the total cost scales to within 1e-15."""
        config = cli.reference_system_config([NoiseSpec()] * 2)
        base = solve_optimum(config.agents, config.resources)
        got = solve_optimum([replace(f, coeffs=f.coeffs * factor) for f in config.agents],
                            config.resources)
        assert (abs(got.x_star - base.x_star) <= np.spacing(base.x_star)).all()
        assert got.total_cost == pytest.approx(base.total_cost * factor, rel=1e-15, abs=0)


def dispatch_hashes():
    """sha256 of the gradient kernel's rows at fixed 6 x 2, 16 x 3 and 100 x 10
    points, alone and in a batch of 4, and of every array field of a dense
    2,000-step run of the paper suite's gaussian_base config."""
    rng = np.random.default_rng(36)
    wide = []
    for _ in range(100):        # 4 terms over 10 resources, each with an exponent of 1 to 5
        exponents = rng.integers(0, 6, (4, 10)) * (rng.random((4, 10)) < 0.3)
        exponents[np.arange(4), rng.integers(0, 10, 4)] = rng.integers(1, 6, 4)
        wide.append(CostFunction(rng.uniform(0.5, 30.0, 4), exponents))
    hashes = {}
    for name, agents in (("6x2", reference_agent_costs(1)),
                         ("16x3", wide_separable_config().agents), ("100x10", wide)):
        kernel = PolyBatch(agents).gradient_kernel()
        points = rng.uniform(0.0, 3.0, (4, len(agents) * agents[0].n_resources))
        rows = np.concatenate([kernel(points[0]), kernel(points)], axis=None)
        hashes[name] = hashlib.sha256(rows.tobytes()).hexdigest()
    trace = engine.run(cli.reference_system_config(cli._gaussian_pair(20.50, 39.31), steps=2_000),
                       dense=True)
    fields = b"".join(v.tobytes() for v in vars(trace).values() if isinstance(v, np.ndarray))
    hashes["gaussian_base"] = hashlib.sha256(fields).hexdigest()
    return hashes


@pytest.mark.skipif("X86_V4" not in __cpu_features__, reason="the feature groups are x86's")
class TestDispatch:
    """The kernel's and the engine's bits under numpy's AVX-512 kernels, its AVX2
    ones and its baseline SIMD: every operation on a run's path is an exactly
    rounded add, multiply, divide or compare, so no dispatch moves a bit. The
    variable takes effect only at numpy's import, so each dispatch is a child
    interpreter; X86_V3 and X86_V4 are numpy 2.4's names of the AVX2 and AVX-512
    groups, and a group the CPU lacks is off anyway."""

    @pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR",
                                          "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"],
                             ids=["no-avx512", "no-avx2"])
    def test_kernel_and_dense_run_keep_their_bits(self, disabled):
        tests, src = os.path.dirname(__file__), os.path.dirname(os.path.dirname(dpaimd.__file__))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
        probe = ("import json; from test_engine import __cpu_features__ as f, dispatch_hashes; "
                 "print(json.dumps([{k: f[k] for k in ('X86_V3', 'X86_V4')}, dispatch_hashes()]))")
        # -W error: numpy warns of a feature name it does not know, and then ignores it
        done = subprocess.run([sys.executable, "-W", "error", "-c", probe], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        features, hashes = json.loads(done.stdout.splitlines()[-1])
        assert not any(features[k] for k in disabled.split() if k in features), features
        assert hashes == dispatch_hashes()

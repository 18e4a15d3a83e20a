import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpaimd
from dpaimd.engine import (
    LAMBDA_MIN,
    compute_lambda_hat,
    multiplicative_decrease,
    resolve_noise_scales,
    server_step,
)
from dpaimd.model import (
    ConfigurationError,
    CostFunction,
    NumericError,
    ResourceConfig,
    SystemConfig,
)
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode, laplace_scale


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


class TestPrimitives:
    def test_server_step_threshold_inclusive(self):
        bits = server_step(np.array([5.0, 6.0]), np.array([5.0, 5.999]))
        assert bits.tolist() == [1, 0]

    def test_server_step_rejects_non_finite(self):
        with pytest.raises(NumericError):
            server_step(np.array([1.0]), np.array([np.nan]))

    def test_lambda_hat_examples(self):
        assert compute_lambda_hat(1e-3, 500.0, 0.0, 1.0) == pytest.approx(0.5)
        assert compute_lambda_hat(1e-3, 50.0, 50.0, 1.0) == pytest.approx(0.1)
        # negative noise enters through the absolute value
        assert compute_lambda_hat(1e-3, 50.0, -150.0, 1.0) == pytest.approx(0.1)
        # one agent per element, each equal to its scalar case
        lam = compute_lambda_hat(1e-3, np.array([500.0, 50.0, 50.0]),
                                 np.array([0.0, 50.0, -150.0]), np.ones(3))
        assert np.array_equal(lam, [compute_lambda_hat(1e-3, 500.0, 0.0, 1.0),
                                    compute_lambda_hat(1e-3, 50.0, 50.0, 1.0),
                                    compute_lambda_hat(1e-3, 50.0, -150.0, 1.0)])

    def test_lambda_hat_clamps(self):
        assert compute_lambda_hat(1e-3, 5e6, 0.0, 1.0) == 1.0
        assert compute_lambda_hat(1e-3, 0.0, 0.0, 1.0) == LAMBDA_MIN
        lam = compute_lambda_hat(1e-3, np.array([5e6, 0.0]), np.zeros(2), np.ones(2))
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
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_decrease_shrinks(self, x, lam, beta):
        y = multiplicative_decrease(x, lam, beta)
        assert 0 < y < x or (beta == 0 and lam == 1.0 and y == 0)
        ys = multiplicative_decrease(np.array([x, 2 * x]), np.array([lam, lam]), beta)
        assert np.array_equal(ys, [y, multiplicative_decrease(2 * x, lam, beta)])


@pytest.fixture(scope="module")
def trace():
    return dpaimd.run(one_resource_config([square_cost()], steps=30))


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
        trace = dpaimd.run(one_resource_config([square_cost()], steps=0))
        assert trace.steps == 0
        assert trace.x.shape == (0, 1, 1)
        assert trace.broadcast_bits_total == 0

    def test_deterministic_given_seed(self):
        noise = [NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                           scale_mode=ScaleMode.FIXED, scale=3.0)]
        cfg = one_resource_config([square_cost(), square_cost(2.0)], steps=300,
                                  seed=7, noise=noise)
        a = dpaimd.run(cfg)
        b = dpaimd.run(cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.lambda_hat, b.lambda_hat, equal_nan=True)

    def test_seed_changes_noise_path(self):
        noise = [NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=5.0)]
        costs = [square_cost(), square_cost(2.0)]
        a = dpaimd.run(one_resource_config(costs, steps=300, seed=1, noise=noise))
        b = dpaimd.run(one_resource_config(costs, steps=300, seed=2, noise=noise))
        # the huge gamma clamps lambda-hat for both, but the noisy readings differ
        assert not np.array_equal(a.noisy_derivative, b.noisy_derivative, equal_nan=True)

    def test_agent_permutation_symmetry(self):
        """Noise streams are keyed by agent identity, not list position."""
        noise = [NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                           scale_mode=ScaleMode.FIXED, scale=2.0)]
        f0, f1 = square_cost(1.0), square_cost(3.0)
        a = dpaimd.run(one_resource_config([f0, f1], steps=400, seed=5,
                                           noise=noise, agent_ids=[0, 1]))
        b = dpaimd.run(one_resource_config([f1, f0], steps=400, seed=5,
                                           noise=noise, agent_ids=[1, 0]))
        assert np.array_equal(b.x[:, [1, 0], :], a.x)
        assert np.array_equal(b.xbar[:, [1, 0], :], a.xbar)

    def test_trace_stores_only_x_and_noisy_derivative_per_agent(self, short_reference_run):
        """x-bar and lambda-hat are views derived from these two, not stored copies."""
        _, trace, _ = short_reference_run
        stored = {name for name, value in vars(trace).items()
                  if isinstance(value, np.ndarray) and value.shape == trace.x.shape}
        assert stored == {"x", "noisy_derivative"}

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

    def test_pilot_calibration_matches_noiseless_sensitivity(self):
        pilot = dpaimd.run(self.base([NoiseSpec(kind=NoiseKind.NONE)]))
        dq = float(pilot.sensitivity[-1, 0])
        assert dq > 0
        cfg = self.base([NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5,
                                   scale_mode=ScaleMode.CALIBRATED)])
        assert resolve_noise_scales(cfg)[0] == pytest.approx(laplace_scale(dq, 0.5))

    def test_sensitivity_override_skips_pilot(self):
        cfg = self.base([NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5,
                                   scale_mode=ScaleMode.CALIBRATED, sensitivity=2.0)])
        assert resolve_noise_scales(cfg)[0] == pytest.approx(4.0)

    def test_fixed_scale_passthrough(self):
        cfg = self.base([NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                                   scale_mode=ScaleMode.FIXED, scale=7.5)])
        assert resolve_noise_scales(cfg)[0] == 7.5

    def test_calibration_fails_without_events(self):
        cfg = self.base([NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5,
                                   scale_mode=ScaleMode.CALIBRATED)], steps=3)
        with pytest.raises(ConfigurationError):
            resolve_noise_scales(cfg)

    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
           kind=st.sampled_from([NoiseKind.LAPLACE, NoiseKind.GAUSSIAN]),
           epsilon=st.floats(0.05, 0.95),
           coeffs=st.lists(st.floats(0.5, 20.0), min_size=2, max_size=2),
           steps=st.integers(60, 300),
           per_agent=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_scales_do_not_depend_on_seed(self, seeds, kind, epsilon, coeffs, steps, per_agent):
        # the invariant that lets a sweep calibrate each point once for all its seeds
        spec = NoiseSpec(kind=kind, epsilon=epsilon, delta=0.01, scale_mode=ScaleMode.CALIBRATED)
        scales = [
            resolve_noise_scales(SystemConfig(
                agents=[square_cost(c) for c in coeffs],
                resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5, gamma=1e-3)],
                noise=[spec], steps=steps, seed=seed, burn_in_events=2,
                per_agent_sensitivity=per_agent))
            for seed in seeds
        ]
        assert np.array_equal(scales[0], scales[1])

    def test_sensitivity_series_monotone(self, short_reference_run):
        _, trace, _ = short_reference_run
        assert (np.diff(trace.sensitivity, axis=0) >= 0).all()

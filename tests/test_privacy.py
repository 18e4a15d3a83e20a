import math

import numpy as np
import pytest

from dpaimd.model import ConfigurationError, NumericError
from dpaimd.privacy import (
    NoiseKind,
    NoiseSpec,
    ScaleMode,
    SensitivityTracker,
    gaussian_sigma,
    laplace_scale,
    unit_noise,
)
from oracles import empirical_dp_ratio, empirical_dp_violation_fraction


class TestCalibration:
    def test_gaussian_sigma_reference_values(self):
        assert gaussian_sigma(1.32, 0.2, 0.01) == pytest.approx(20.50, abs=0.01)
        assert gaussian_sigma(2.53, 0.2, 0.01) == pytest.approx(39.31, abs=0.01)

    def test_gaussian_sigma_unit_case(self):
        # dq = epsilon and delta = 1.25 / e^0.5 make both factors exactly 1
        assert gaussian_sigma(0.7, 0.7, 1.25 / math.exp(0.5)) == pytest.approx(1.0)

    def test_gaussian_sigma_invalid(self):
        with pytest.raises(ConfigurationError):
            gaussian_sigma(0.0, 0.2, 0.01)
        with pytest.raises(ConfigurationError):
            gaussian_sigma(1.0, 0.2, 1.3)

    def test_laplace_scale(self):
        assert laplace_scale(5.9, 0.1) == pytest.approx(59.0)
        assert laplace_scale(6.34, 0.1) == pytest.approx(63.4)
        assert laplace_scale(1.0, 1.0) == 1.0

    def test_laplace_scale_invalid(self):
        with pytest.raises(ConfigurationError):
            laplace_scale(0.0, 0.1)
        with pytest.raises(ConfigurationError):
            laplace_scale(1.0, -1.0)


class TestSampling:
    def test_laplace_variance(self):
        rng = np.random.default_rng(123)
        draws = 59.0 * unit_noise(NoiseKind.LAPLACE, rng, 200_000)
        # thin the Monte Carlo a bit vs. the full check in acceptance; 2 b^2 variance
        assert draws.var() == pytest.approx(2 * 59.0 ** 2, rel=0.03)
        assert abs(draws.mean()) < 3 * math.sqrt(2) * 59.0 / math.sqrt(200_000)

    def test_gaussian_moments(self):
        rng = np.random.default_rng(321)
        draws = 20.5 * unit_noise(NoiseKind.GAUSSIAN, rng, 200_000)
        assert abs(draws.mean()) <= 3 * 20.5 / math.sqrt(200_000)
        assert draws.std() == pytest.approx(20.5, rel=0.02)

    def test_reproducible_given_stream(self):
        a = 2.0 * unit_noise(NoiseKind.LAPLACE, np.random.default_rng(5), 1)
        b = 2.0 * unit_noise(NoiseKind.LAPLACE, np.random.default_rng(5), 1)
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("kind, draw", [
        (NoiseKind.LAPLACE, lambda rng, s: rng.laplace(0.0, s)),
        (NoiseKind.GAUSSIAN, lambda rng, s: rng.normal(0.0, s)),
    ])
    def test_scaled_block_equals_one_draw_at_a_time(self, kind, draw):
        scale = 3.7
        block = scale * unit_noise(kind, np.random.default_rng(8), 5_000)
        rng = np.random.default_rng(8)
        assert block.tolist() == [draw(rng, scale) for _ in range(5_000)]


class TestNoiseSpecValidation:
    def test_gaussian_calibrated_requires_delta(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, scale_mode=ScaleMode.CALIBRATED)

    def test_gaussian_calibrated_requires_epsilon_below_one(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=1.0, delta=0.01,
                      scale_mode=ScaleMode.CALIBRATED)
        spec = NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.999, delta=0.01,
                         scale_mode=ScaleMode.CALIBRATED)
        assert spec.epsilon == 0.999

    def test_fixed_scale_positive(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=0.0)

    def test_laplace_ignores_delta(self):
        spec = NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.1, delta=0.5,
                         scale_mode=ScaleMode.CALIBRATED)
        assert spec.kind is NoiseKind.LAPLACE and spec.delta == 0.5


class TestSensitivityTracker:
    """Each ``update_all`` call is one event, fed one noiseless partial per agent."""

    def make(self, burn_in=0):
        return SensitivityTracker(n_agents=2, n_resources=2, burn_in_events=burn_in)

    def test_consecutive_difference(self):
        t = self.make()
        t.update_all(0, [10.00, 0.0])
        t.update_all(0, [8.68, 0.0])
        assert t.running_max[0] == pytest.approx(1.32)

    def test_first_observation_no_change(self):
        t = self.make()
        t.update_all(1, [42.0, 42.0])
        assert t.running_max[1] == 0.0

    def test_identical_values_no_change(self):
        t = self.make()
        t.update_all(0, [5.0, 5.0])
        t.update_all(0, [5.0, 5.0])
        assert t.running_max[0] == 0.0

    def test_returns_the_spread_of_the_partials(self):
        t = self.make()
        assert t.update_all(0, [10.0, 3.0]) == 7.0      # the first event too
        assert t.update_all(0, [9.5, 8.0]) == 1.5
        assert t.update_all(1, [4.0, 4.0]) == 0.0
        assert t.running_max.tolist() == [5.0, 0.0]

    def test_burn_in_excludes_early_events(self):
        t = self.make(burn_in=3)
        for event, deriv in enumerate([10.0, 2.0, 9.0], start=1):
            t.update_all(0, [deriv, deriv])
        assert t.running_max[0] == pytest.approx(7.0)  # only the event-3 diff counted

    def test_monotone_non_decreasing(self):
        t = self.make()
        rng = np.random.default_rng(2)
        prev = 0.0
        for deriv in rng.uniform(0, 50, size=100):
            t.update_all(0, [deriv, deriv])
            cur = t.running_max[0]
            assert cur >= prev
            prev = cur

    def test_shared_max_across_agents(self):
        t = self.make()
        t.update_all(0, [10.0, 3.0])
        t.update_all(0, [9.5, 8.0])
        assert t.running_max[0] == pytest.approx(5.0)

    def test_non_finite_rejected(self):
        t = self.make()
        with pytest.raises(NumericError):
            t.update_all(0, [float("nan"), 1.0])
        with pytest.raises(NumericError):
            t.update_all(0, np.array([1.0, float("inf")]))
        with pytest.raises(NumericError):
            t.update_all(0, [-1.0, 1.0])


class TestEmpiricalPrivacy:
    def test_laplace_ratio_bounded(self):
        r = empirical_dp_ratio(NoiseKind.LAPLACE, 2.0, 1.0, bins=8,
                               samples=10 ** 6, rng=np.random.default_rng(2))
        assert r <= 0.5 * 1.10

    def test_deterministic_mechanism_unbounded(self):
        assert empirical_dp_ratio(NoiseKind.NONE, 0.0, 1.0, bins=8, samples=10 ** 5) == math.inf

    def test_identical_inputs_near_zero(self):
        assert empirical_dp_ratio(NoiseKind.LAPLACE, 0.5, 0.0, bins=8, samples=10 ** 5) == 0.0

    def test_requires_enough_samples(self):
        with pytest.raises(ConfigurationError):
            empirical_dp_ratio(NoiseKind.LAPLACE, 1.0, 1.0, bins=8, samples=10)

    def test_gaussian_violation_mass_small(self):
        sigma = gaussian_sigma(1.0, 0.5, 0.01)
        frac = empirical_dp_violation_fraction(
            NoiseKind.GAUSSIAN, sigma, 1.0, 0.5, bins=80,
            samples=2 * 10 ** 5, rng=np.random.default_rng(4),
        )
        assert frac <= 0.01 + 0.005

    def test_none_kind_violates_fully(self):
        assert empirical_dp_violation_fraction(NoiseKind.NONE, 0.0, 1.0, 0.5,
                                               bins=10, samples=1000) == 1.0

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpaimd.model import ConfigurationError, NumericError
from dpaimd.privacy import (
    NoiseKind,
    NoiseSpec,
    ScaleMode,
    SensitivityTracker,
    unit_noise,
)
from oracles import PerEventSensitivity, empirical_dp_ratio, empirical_dp_violation_fraction


def gaussian_sigma(dq, epsilon, delta):
    spec = NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=epsilon, delta=delta,
                     scale_mode=ScaleMode.CALIBRATED, sensitivity=dq)
    return spec.noise_scale(0)


def laplace_scale(dq, epsilon):
    spec = NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=epsilon, scale_mode=ScaleMode.CALIBRATED,
                     sensitivity=dq)
    return spec.noise_scale(0)


class TestCalibration:
    """``NoiseSpec.noise_scale`` on a calibrated spec, the only path to a scale."""

    def test_gaussian_sigma_reference_values(self):
        assert gaussian_sigma(1.32, 0.2, 0.01) == pytest.approx(20.50, abs=0.01)
        assert gaussian_sigma(2.53, 0.2, 0.01) == pytest.approx(39.31, abs=0.01)

    def test_gaussian_sigma_unit_case(self):
        # dq = epsilon and delta = 1.25 / e^0.5 make both factors exactly 1
        assert gaussian_sigma(0.7, 0.7, 1.25 / math.exp(0.5)) == pytest.approx(1.0)

    def test_gaussian_sigma_invalid(self):
        with pytest.raises(ConfigurationError):
            gaussian_sigma(0.0, 0.2, 0.01)      # NoiseSpec: no positive sensitivity
        with pytest.raises(ConfigurationError):
            gaussian_sigma(1.0, 0.2, 1.3)       # NoiseSpec: delta outside (0, 1)

    def test_laplace_scale(self):
        assert laplace_scale(5.9, 0.1) == pytest.approx(59.0)
        assert laplace_scale(6.34, 0.1) == pytest.approx(63.4)
        assert laplace_scale(1.0, 1.0) == 1.0

    def test_laplace_scale_invalid(self):
        with pytest.raises(ConfigurationError):
            laplace_scale(0.0, 0.1)             # NoiseSpec: no positive sensitivity
        with pytest.raises(ConfigurationError):
            laplace_scale(1.0, -1.0)            # NoiseSpec: epsilon <= 0
        unmeasured = NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.1, scale_mode=ScaleMode.CALIBRATED)
        with pytest.raises(ConfigurationError, match="no positive sensitivity for resource 3"):
            unmeasured.noise_scale(3)           # noise_scale: no dq set or measured

    def test_an_overflowing_scale_is_a_numeric_error(self):
        """dq / epsilon past the float range is refused before any run draws with it."""
        with pytest.raises(NumericError, match="overflows the noise scale of resource 0"):
            laplace_scale(1.0, 5e-324)
        with pytest.raises(NumericError, match="overflows the noise scale of resource 0"):
            gaussian_sigma(1e308, 0.9, 0.01)    # a finite dq / epsilon, times the sqrt factor
        assert laplace_scale(1e308, 1.0) == 1e308


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


def feed(tracker, *events):
    """Feed ``events``, one (resource, partials) pair per step from step 0, as
    one block; returns its (spread, dq) rows, NaN where no resource fired."""
    k, (n, m) = len(events), tracker.last_derivative.shape
    derivatives = np.full((k, n, m), np.nan)    # the partials of unfired resources are never read
    bits = np.zeros((k, m), dtype=np.uint8)
    for i, (j, partials) in enumerate(events):
        derivatives[i, :, j], bits[i, j] = partials, 1
    spread, dq = np.full((k, m), np.nan), np.full((k, m), np.nan)
    tracker.update_all(np.arange(k), derivatives, bits, spread, dq)
    return spread, dq


@st.composite
def event_blocks(draw):
    """Random event steps of n agents and m resources, with the block size to feed them in."""
    n, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 24))
    fired = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m).filter(any),
                          min_size=k, max_size=k))
    # a few repeated values make ties and zero differences
    value = st.sampled_from([0.0, 1.0, 2.5, 5e-324]) | st.floats(0.0, 1e300)
    partials = draw(st.lists(value, min_size=k * n * m, max_size=k * n * m))
    gaps = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return {"burn_in": draw(st.integers(0, 6)), "block": draw(st.integers(1, max(k, 1))),
            "fired": np.array(fired, dtype=bool).reshape(k, m),
            "partials": np.array(partials).reshape(k, n, m), "steps": np.cumsum(gaps, dtype=int) - 1}


def example_blocks(burn_in, block, fired, n=2):
    """An ``event_blocks`` case on consecutive steps, with random partials."""
    fired = np.array(fired, dtype=bool)
    partials = np.random.default_rng(len(fired)).uniform(0.0, 10.0, (len(fired), n, fired.shape[1]))
    return {"burn_in": burn_in, "block": block, "fired": fired, "partials": partials,
            "steps": np.arange(len(fired))}


class TestSensitivityTracker:
    """``update_all`` takes a block of event steps; each fired (step, resource) cell is one event."""

    def make(self, burn_in=0):
        return SensitivityTracker(n_agents=2, n_resources=2, burn_in_events=burn_in)

    def test_consecutive_difference(self):
        t = self.make()
        feed(t, (0, [10.00, 0.0]))
        feed(t, (0, [8.68, 0.0]))
        assert t.running_max[0] == pytest.approx(1.32)

    def test_first_observation_no_change(self):
        t = self.make()
        feed(t, (1, [42.0, 42.0]))
        assert t.running_max[1] == 0.0

    def test_identical_values_no_change(self):
        t = self.make()
        feed(t, (0, [5.0, 5.0]), (0, [5.0, 5.0]))
        assert t.running_max[0] == 0.0

    def test_writes_the_spread_and_running_max_at_fired_cells(self):
        t = self.make()
        spread, dq = feed(t, (0, [10.0, 3.0]), (0, [9.5, 8.0]), (1, [4.0, 4.0]))
        # the first event has a spread too; a cell that did not fire keeps its value
        assert np.array_equal(spread, [[7.0, np.nan], [1.5, np.nan], [np.nan, 0.0]], equal_nan=True)
        assert np.array_equal(dq, [[0.0, np.nan], [5.0, np.nan], [np.nan, 0.0]], equal_nan=True)
        assert t.running_max.tolist() == [5.0, 0.0]

    def test_burn_in_excludes_early_events(self):
        t = self.make(burn_in=3)
        feed(t, *[(0, [deriv, deriv]) for deriv in [10.0, 2.0, 9.0]])
        assert t.running_max[0] == pytest.approx(7.0)  # only the event-3 diff counted

    def test_monotone_non_decreasing(self):
        t = self.make()
        rng = np.random.default_rng(2)
        _, dq = feed(t, *[(0, [deriv, deriv]) for deriv in rng.uniform(0, 50, size=100)])
        assert (np.diff(dq[:, 0]) >= 0).all()
        assert dq[-1, 0] == t.running_max[0]

    def test_shared_max_across_agents(self):
        t = self.make()
        feed(t, (0, [10.0, 3.0]), (0, [9.5, 8.0]))
        assert t.running_max[0] == pytest.approx(5.0)

    def test_non_finite_rejected(self):
        t = self.make()
        with pytest.raises(NumericError):
            feed(t, (0, [float("nan"), 1.0]))
        with pytest.raises(NumericError):
            feed(t, (0, np.array([1.0, float("inf")])))
        with pytest.raises(NumericError):
            feed(t, (0, [-1.0, 1.0]))

    @pytest.mark.parametrize("events, message", [
        ([(0, [1.0, 1.0]), (1, [1.0, np.inf]), (0, [np.nan, 1.0])], "resource 1 at step 1$"),
        ([(0, [1.0, 1.0]), (1, [-1.0, 1.0]), (1, [np.nan, 1.0])], "resource 1 at step 1$"),
    ])
    def test_the_lowest_failed_step_is_named(self, events, message):
        t = self.make()
        with pytest.raises(NumericError, match=message):
            feed(t, *events)

    def test_the_lowest_failed_resource_of_a_step_is_named_and_nothing_changes(self):
        t = self.make()
        derivatives = np.array([[[1.0, 1.0], [1.0, 1.0]], [[np.inf, -1.0], [1.0, 1.0]]])
        spread, dq = np.full((2, 2), np.nan), np.zeros((2, 2))
        for bits, message in (([[1, 1], [1, 1]], "resource 0 at step 7$"),
                              ([[1, 1], [0, 1]], "resource 1 at step 7$")):
            with pytest.raises(NumericError, match=message):
                t.update_all(np.array([3, 7]), derivatives, np.array(bits, dtype=np.uint8), spread, dq)
            assert np.isnan(spread).all() and not dq.any() and t.events_seen == [0, 0]
            assert not t.running_max.any() and not t.last_derivative.any()

    @given(event_blocks())
    @example(example_blocks(0, 1, [[1, 0], [0, 1], [1, 1], [1, 0], [1, 1]]))       # blocks of one step
    @example(example_blocks(0, 2, [[1, 0]] * 5))        # blocks end between two events of a resource
    @example(example_blocks(5, 3, [[1, 1]] * 9))        # the burn-in ends inside the second block
    @example(example_blocks(2, 2, [[1, 1], [1, 0], [1, 0], [1, 0], [0, 1], [1, 1]]))   # resource 1 skips a block
    @settings(max_examples=200, deadline=None)
    def test_blocks_equal_one_event_at_a_time(self, case):
        fired, partials, steps = case["fired"], case["partials"], case["steps"]
        k, n, m = partials.shape
        rows = (steps[-1] + 1) if k else 0
        reference = PerEventSensitivity(n, m, case["burn_in"])
        want_spread, want_dq = np.full((rows, m), np.nan), np.full((rows, m), np.nan)
        for i, j in zip(*np.nonzero(fired)):        # step order, then resource order
            want_spread[steps[i], j] = reference.update(j, partials[i, :, j])
            want_dq[steps[i], j] = reference.running_max[j]

        tracker = SensitivityTracker(n, m, case["burn_in"])
        spread, dq = np.full((rows, m), np.nan), np.full((rows, m), np.nan)
        # unfired partials are never read: make any read show
        blocks = np.where(fired[:, None, :], partials, np.nan)
        for lo in range(0, k, case["block"]):
            span = slice(lo, lo + case["block"])
            tracker.update_all(steps[span], blocks[span], fired[span].view(np.uint8), spread, dq)
        assert spread.tobytes() == want_spread.tobytes()
        assert dq.tobytes() == want_dq.tobytes()
        assert tracker.running_max.tobytes() == reference.running_max.tobytes()
        assert tracker.last_derivative.tobytes() == reference.last_derivative.tobytes()
        assert tracker.events_seen == reference.events_seen


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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpaimd import baseline
from dpaimd.baseline import (
    kkt_residual,
    project_simplex,
    solve_grid_oracle,
    solve_optimum,
)
from dpaimd.model import (
    ConfigurationError,
    CostFunction,
    PolyBatch,
    ResourceConfig,
    quad_quartic_cost,
    quadratic_cost,
)


OVERFLOW_WARNING = "ignore:overflow encountered:RuntimeWarning"     # expected on the way to the error


def res(*capacities):
    return [ResourceConfig(capacity=c, alpha=0.01, beta=0.5, gamma=1e-3) for c in capacities]


def power_cost(coeff, exponent):
    return CostFunction(np.array([coeff]), np.array([[exponent]]))


class TestProjection:
    def test_feasible_point_is_fixed(self):
        v = np.array([0.5, 0.5])
        assert np.allclose(project_simplex(v, 1.0), v)

    def test_clips_to_boundary(self):
        assert np.allclose(project_simplex(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])

    def test_uniform_shift(self):
        # interior projection just shifts by the mean surplus
        out = project_simplex(np.array([1.0, 2.0, 3.0]), 3.0)
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_rejects_non_positive_total(self):
        with pytest.raises(ConfigurationError):
            project_simplex(np.array([1.0]), 0.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(0.1, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_projection_properties(self, v, total):
        v = np.asarray(v)
        out = project_simplex(v, total)
        assert (out >= 0).all()
        assert out.sum() == pytest.approx(total, abs=1e-9)
        # idempotent: projecting a feasible point returns it
        assert np.allclose(project_simplex(out, total), out, atol=1e-9)


class TestKktResidual:
    def test_zero_at_analytic_optimum(self):
        costs = [power_cost(1.0, 2), power_cost(2.0, 2)]   # x^2 and 2 x^2
        x = np.array([[2.0], [1.0]])                       # 2 x1 matches 4 x2
        assert kkt_residual(PolyBatch(costs), x, np.array([3.0])) < 1e-12

    def test_positive_off_optimum(self):
        costs = [power_cost(1.0, 2), power_cost(2.0, 2)]
        x = np.array([[1.5], [1.5]])
        assert kkt_residual(PolyBatch(costs), x, np.array([3.0])) == pytest.approx(3.0)

    def test_includes_feasibility_gap(self):
        costs = [power_cost(1.0, 2)]
        x = np.array([[2.5]])
        assert kkt_residual(PolyBatch(costs), x, np.array([3.0])) >= 0.5


class TestSolver:
    def test_two_agent_quadratic_closed_form(self):
        costs = [power_cost(1.0, 2), power_cost(2.0, 2)]
        opt = solve_optimum(costs, res(3.0))
        assert np.allclose(opt.x_star, [[2.0], [1.0]], atol=1e-5)
        assert opt.total_cost == pytest.approx(6.0, rel=1e-6)
        assert opt.kkt_residual <= 1e-6
        assert opt.boundary_agents == ()

    def test_two_agent_quartic_closed_form(self):
        # x1^4 + 2 x2^4 on sum = 3: gradients match at x1 = 2^(1/3) x2
        costs = [power_cost(1.0, 4), power_cost(2.0, 4)]
        opt = solve_optimum(costs, res(3.0))
        r = 2.0 ** (1.0 / 3.0)
        x2 = 3.0 / (1.0 + r)
        assert np.allclose(opt.x_star, [[r * x2], [x2]], atol=1e-4)

    def test_symmetric_agents_split_evenly(self):
        costs = [power_cost(1.0, 2)] * 3
        opt = solve_optimum(costs, res(1.0))
        assert np.allclose(opt.x_star, 1.0 / 3.0, atol=1e-6)

    def test_boundary_solution_detected(self):
        # a linear cost steep enough that one agent gets nothing
        steep = CostFunction(np.array([10.0]), np.array([[1]]))
        costs = [power_cost(1.0, 2), steep]
        opt = solve_optimum(costs, res(2.0))
        assert np.allclose(opt.x_star, [[2.0], [0.0]], atol=1e-6)
        assert (1, 0) in opt.boundary_agents

    def test_column_sums_match_capacities(self, short_reference_run):
        config, _, optimum = short_reference_run
        caps = [r.capacity for r in config.resources]
        assert np.allclose(optimum.x_star.sum(axis=0), caps, atol=1e-9)
        assert optimum.kkt_residual <= 1e-6
        assert (optimum.x_star >= 0).all()

    @pytest.mark.parametrize("costs,capacity", [
        pytest.param([power_cost(1e308, 2), power_cost(1.0, 2)], 1.0,   # curvature bound overflows
                     marks=pytest.mark.filterwarnings(OVERFLOW_WARNING)),
        ([power_cost(1.0, 2), power_cost(2.0, 2)], 1e308),     # gradient step overflows
    ], ids=["coefficient-1e308", "capacity-1e308"])
    def test_overflow_raises(self, costs, capacity):
        with pytest.raises(RuntimeError, match="finite"):
            solve_optimum(costs, res(capacity))

    def test_fixed_point_short_of_tolerance_fails_at_once(self, monkeypatch):
        # at capacity 1e15 the partials' rounding error (~0.25) exceeds the
        # tolerance, and the iterate stops moving within a few dozen steps
        calls = []
        project = baseline.project_simplex
        monkeypatch.setattr(baseline, "project_simplex",
                            lambda v, total: calls.append(1) or project(v, total))
        with pytest.raises(RuntimeError, match="did not converge"):
            solve_optimum([power_cost(1.0, 2), power_cost(2.0, 2)], res(1e15))
        assert len(calls) <= 101        # the full budget is 500,000 iterations

    def test_resources_decouple(self):
        # solving two resources jointly equals solving each alone
        costs2 = [quad_quartic_cost(12, 20), quadratic_cost(25)]
        joint = solve_optimum(costs2, res(1.0, 1.2))
        for j, cap in enumerate((1.0, 1.2)):
            single = [
                CostFunction(f.coeffs[f.exponents[:, j] > 0],
                             f.exponents[f.exponents[:, j] > 0][:, [j]])
                for f in costs2
            ]
            alone = solve_optimum(single, res(cap))
            assert np.allclose(joint.x_star[:, j], alone.x_star[:, 0], atol=1e-5)


class TestGridOracle:
    def test_matches_solver_quadratic(self):
        costs = [power_cost(1.0, 2), power_cost(2.0, 2)]
        grid = solve_grid_oracle(costs, res(3.0), resolution=0.01)
        opt = solve_optimum(costs, res(3.0))
        assert np.allclose(grid.x_star, opt.x_star, atol=0.01)
        assert opt.total_cost <= grid.total_cost + 1e-9

    def test_matches_solver_asymmetric(self):
        costs = [power_cost(10.0, 2), power_cost(30.0, 2)]
        grid = solve_grid_oracle(costs, res(4.0), resolution=0.01)
        opt = solve_optimum(costs, res(4.0))
        assert np.allclose(grid.x_star, [[3.0], [1.0]], atol=0.01)
        assert abs(grid.total_cost - opt.total_cost) <= 1e-2 * opt.total_cost

    def test_matches_solver_three_agents(self):
        costs = [power_cost(1.0, 2)] * 3
        grid = solve_grid_oracle(costs, res(1.0), resolution=0.01)
        opt = solve_optimum(costs, res(1.0))
        assert abs(grid.total_cost - opt.total_cost) <= 1e-3 * opt.total_cost

    def test_matches_solver_quartic(self):
        costs = [power_cost(1.0, 4), power_cost(2.0, 4)]
        grid = solve_grid_oracle(costs, res(3.0), resolution=0.005)
        opt = solve_optimum(costs, res(3.0))
        assert np.allclose(grid.x_star, opt.x_star, atol=0.005)

    def test_matches_solver_two_resources(self):
        costs = [quad_quartic_cost(12, 20), quadratic_cost(25)]
        grid = solve_grid_oracle(costs, res(1.0, 1.2), resolution=0.02)
        opt = solve_optimum(costs, res(1.0, 1.2))
        assert np.allclose(grid.x_star, opt.x_star, atol=0.02)
        assert opt.total_cost <= grid.total_cost + 1e-9

    def test_refuses_large_instances(self):
        costs = [power_cost(1.0, 2)] * 5
        with pytest.raises(ConfigurationError):
            solve_grid_oracle(costs, res(1.0), resolution=0.1)

    def test_refuses_bad_resolution(self):
        costs = [power_cost(1.0, 2)] * 2
        with pytest.raises(ConfigurationError):
            solve_grid_oracle(costs, res(1.0), resolution=2.0)
        with pytest.raises(ConfigurationError):
            solve_grid_oracle(costs, res(1.0), resolution=1e-9)

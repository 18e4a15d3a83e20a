import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpaimd import baseline
from dpaimd.baseline import (
    certify,
    project_simplex,
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
from oracles import dual_bound_oracle, solve_grid_oracle, solve_pgd_oracle


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
    """``certify``'s relative duality gap, the solver's ``kkt_residual``, in closed
    form: x^2 and 2 x^2 on capacity 3 have the optimum (2, 1) at the price 4, f* = 6."""

    def test_zero_at_analytic_optimum(self):
        costs = [power_cost(1.0, 2), power_cost(2.0, 2)]   # x^2 and 2 x^2
        x = np.array([[2.0], [1.0]])                       # 2 x1 matches 4 x2
        assert certify(PolyBatch(costs), x, np.array([3.0]), [4.0]) == (6.0, 0.0)

    def test_positive_off_optimum(self):
        # f(1.5, 1.5) = 6.75 against L(4) = 12 + (4 - 8) + (2 - 4) = 6
        costs = [power_cost(1.0, 2), power_cost(2.0, 2)]
        x = np.array([[1.5], [1.5]])
        total, gap = certify(PolyBatch(costs), x, np.array([3.0]), [4.0])
        assert total == 6.75
        assert gap == pytest.approx(0.75 / 6.75, rel=1e-12)

    def test_includes_feasibility_gap(self):
        # x^2 at 2.5 on capacity 3, priced at its own partial 5: the demand is
        # the point itself, and L(5) = 15 + 6.25 - 12.5 exceeds f = 6.25 by 5 * 0.5
        costs = [power_cost(1.0, 2)]
        x = np.array([[2.5]])
        total, gap = certify(PolyBatch(costs), x, np.array([3.0]), [5.0])
        assert gap == pytest.approx(2.5 / 6.25, rel=1e-12)

    def test_agent_at_zero_must_not_be_cheaper(self):
        # x^2 and 10 x on capacity 2: the optimum gives agent 0 everything
        # (cost 4, price 4); the other corner costs 20 against L(4) = 4
        costs = [power_cost(1.0, 2), CostFunction(np.array([10.0]), np.array([[1]]))]
        batch, caps = PolyBatch(costs), np.array([2.0])
        assert certify(batch, np.array([[2.0], [0.0]]), caps, [4.0]) == (4.0, 0.0)
        assert certify(batch, np.array([[0.0], [2.0]]), caps, [4.0]) == (20.0, 0.8)

    @pytest.mark.parametrize("mu", [0.0, 1.5e-8, 6e-8])
    def test_refuses_a_corner_below_one_millionth(self, mu):
        # x^2 and 3 x^2 at C = 1e-8: the corner (0, 1e-8) costs 4 times the optimum
        # (7.5e-9, 2.5e-9), so its gap is at least 0.75 at any price
        costs = [power_cost(1.0, 2), power_cost(3.0, 2)]
        _, gap = certify(PolyBatch(costs), np.array([[0.0], [1e-8]]), np.array([1e-8]), [mu])
        assert gap >= 0.75 - 1e-15

    def test_a_gap_over_a_cost_of_zero_reads_inf(self):
        # x^2 twice at C = 1e-200: the corner's cost underflows to 0, while at the
        # price 1 both agents demand C, so L(1) = -1e-200 and the gap is 1e-200
        costs = [power_cost(1.0, 2), power_cost(1.0, 2)]
        corner = np.array([[1e-200], [0.0]])
        assert certify(PolyBatch(costs), corner, np.array([1e-200]), [1.0]) == (0.0, math.inf)
        # at the price 0 every demand is 0 and L(0) = 0: a gap of exactly 0 reads 0
        assert certify(PolyBatch(costs), corner, np.array([1e-200]), [0.0]) == (0.0, 0.0)


class TestSolver:
    def test_two_agent_quadratic_closed_form(self):
        costs = [power_cost(1.0, 2), power_cost(2.0, 2)]
        opt = solve_optimum(costs, res(3.0))
        assert np.allclose(opt.x_star, [[2.0], [1.0]], atol=1e-5)
        assert opt.total_cost == pytest.approx(6.0, rel=1e-6)
        assert opt.kkt_residual <= 1e-6
        assert (opt.x_star > 1e-6).all()

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
        assert opt.x_star[1, 0] <= 1e-6

    def test_column_sums_match_capacities(self, short_reference_run):
        config, _, optimum = short_reference_run
        caps = [r.capacity for r in config.resources]
        assert np.allclose(optimum.x_star.sum(axis=0), caps, atol=1e-9)
        assert optimum.kkt_residual <= 1e-6
        assert (optimum.x_star >= 0).all()

    @pytest.mark.parametrize("costs,capacity", [
        ([power_cost(1e308, 2), power_cost(1.0, 2)], 1.0),      # partials overflow
        ([power_cost(1.0, 2), power_cost(2.0, 2)], 1e308),     # gradient step overflows
    ], ids=["coefficient-1e308", "capacity-1e308"])
    def test_overflow_raises(self, costs, capacity):
        with pytest.raises(RuntimeError, match="finite"):
            solve_optimum(costs, res(capacity))

    def test_fixed_point_short_of_tolerance_fails_at_once(self, monkeypatch):
        # a certificate that stays above the tolerance: a second pass over the
        # one resource repeats the first, and each pass ends with one certificate
        calls = []
        certify_at = baseline.certify
        monkeypatch.setattr(baseline, "certify", lambda *args: calls.append(1) or
                            (certify_at(*args)[0], 2 * baseline.GAP_TOL))
        with pytest.raises(RuntimeError, match="did not converge: relative duality gap 2.000e-10"):
            solve_optimum([power_cost(1.0, 2), power_cost(3.0, 2)], res(1e15))
        assert len(calls) == 2          # the budget is MAX_PASSES passes

    def test_infinite_total_cost_is_named(self):
        # 4.5e103 x at C = 1.21e265: every share is finite, the cost is not
        with pytest.raises(RuntimeError, match="the optimal total cost is inf"):
            solve_optimum([power_cost(4.5e103, 1)], res(1.21e265))

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

    def test_flat_agent_takes_what_the_others_leave(self):
        # agent 1 ignores resource 0, so it takes all of it at price 0
        costs = [CostFunction(np.array([1.0, 1.0]), np.array([[2, 0], [0, 2]])),
                 CostFunction(np.array([2.0]), np.array([[0, 2]]))]
        opt = solve_optimum(costs, res(1.5, 3.0))
        assert np.allclose(opt.x_star, [[0.0, 2.0], [1.5, 1.0]], atol=1e-12)
        assert opt.kkt_residual <= 1e-12

    def test_kkt_residual_certifies_a_stationary_point_only(self):
        # 3 x1 x2 is not convex: at a point costing 1.2, every partial is 1.2 and each
        # column is optimal with the other held, while the optimum, found by the
        # solver and the grid, costs 1.0
        costs = [CostFunction(np.array([3.0]), np.array([[1, 1]])),
                 CostFunction(np.array([1.0, 1.0]), np.array([[2, 0], [0, 2]]))]
        batch, caps = PolyBatch(costs), np.array([1.0, 1.0])
        stationary = np.array([[0.4, 0.4], [0.6, 0.6]])
        total, gap = certify(batch, stationary, caps, [1.2, 1.2])
        assert gap <= 1e-12
        assert total == pytest.approx(1.2)
        opt = solve_optimum(costs, res(1.0, 1.0))
        grid = solve_grid_oracle(costs, res(1.0, 1.0), resolution=0.05)
        assert opt.total_cost == pytest.approx(1.0)
        assert opt.total_cost == pytest.approx(grid.total_cost)

    def test_tied_flat_agents_share_the_rest(self):
        # two equal linear costs share what the quadratic agent leaves at price 1
        linear = CostFunction(np.array([1.0]), np.array([[1]]))
        opt = solve_optimum([power_cost(1.0, 2), linear, linear], res(2.0))
        assert np.allclose(opt.x_star, [[0.5], [0.75], [0.75]], atol=1e-12)

    def test_partial_whose_growth_underflows_counts_as_flat(self):
        # agent 1's partial 2e-200 x stays 0.0 up to the capacity 1e-200, so it
        # takes the whole column at price 0 (agent 0's exact share, ~1e-400, is 0.0)
        tiny = [ResourceConfig(capacity=1e-200, alpha=1e-200, beta=0.5, gamma=1e-3)]
        opt = solve_optimum([power_cost(1.0, 2), power_cost(1e-200, 2)], tiny)
        assert opt.x_star.tolist() == [[0.0], [1e-200]]

    def test_high_degree_partial_reaches_its_root(self):
        # x0 = (3.21e-127 / 40)^(1/39) = 5.19396e-4 gives the optimum; Newton on the
        # partial itself stopped near 6e-3, at a total cost of 5.648e-91
        opt = solve_optimum([power_cost(1.0, 40), power_cost(2.51e63, 1),
                             power_cost(3.21e-127, 1)], res(1.0))
        x0 = (3.21e-127 / 40) ** (1 / 39)
        f_star = x0 ** 40 + 3.21e-127 * (1 - x0)
        assert f_star == pytest.approx(3.2083744e-127, rel=1e-7, abs=0)
        assert opt.total_cost == pytest.approx(f_star, rel=1e-9, abs=0)

    @pytest.mark.parametrize("costs,capacity", [
        ([power_cost(1.0, 2), power_cost(3.0, 2)], 1e10),
        ([power_cost(1.0, 2), power_cost(3.0, 2)], 1e15),
        *[([power_cost(1.0, 2), power_cost(3.0, 2), power_cost(5.0, 4)], c)
          for c in (1e10, 1e15, 1e20, 1e100)],
        # the quadratic agent's exact share, 7.9e-344, underflows to 0
        ([power_cost(2.13e269, 1), power_cost(2.20e100, 2), power_cost(3.46e-243, 1)], 2.97e118),
        ([power_cost(8e33, 2), power_cost(1e70, 2)], 1.0),
        # the x^40 partial at the capacity over the price overflows (4e196 / 1e-120):
        # uncapped, Newton's first step lands on 0, not on the root 7.6e-4, and the
        # certificate, which takes the same demands, reads 0 at a cost 7.4e-9 too high
        ([power_cost(1.0, 40), power_cost(1e-120, 1)], 1e5),
    ], ids=["2-agents-1e10", "2-agents-1e15", "3-agents-1e10", "3-agents-1e15",
            "3-agents-1e20", "3-agents-1e100", "underflowed-share", "coefficients-1e36-apart",
            "partial-over-price-overflows"])
    def test_large_or_lopsided_problems_meet_the_dual_bound(self, costs, capacity):
        # rounding here dwarfs any absolute tolerance, and a plain Frank-Wolfe gap
        # reads 1.0 on the underflowed share
        opt = solve_optimum(costs, res(capacity))
        bound, _ = dual_bound_oracle(costs, [capacity])
        assert abs(Decimal(opt.total_cost) - bound) <= Decimal(baseline.GAP_TOL * opt.total_cost)
        assert opt.kkt_residual <= baseline.GAP_TOL


def small_problems(coupled):
    """Random strictly convex problems, n <= 4 agents and m <= 2 resources.

    With ``coupled``, agents get ``[1, 1]`` and ``[2, 1]`` monomials, kept
    small enough next to the quadratic terms that each cost stays convex on
    the capacity box.
    """
    coefficient = st.floats(0.5, 4.0)

    @st.composite
    def build(draw):
        m = 2 if coupled else draw(st.integers(1, 2))
        n = draw(st.integers(1, 4))
        caps = draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m))
        costs = []
        for _ in range(n):
            quad = draw(st.lists(coefficient, min_size=m, max_size=m))
            terms = [(q, [2 if k == j else 0 for k in range(m)]) for j, q in enumerate(quad)]
            for j in range(m):
                for exps in ([4 if k == j else 0 for k in range(m)],
                             [1 if k == j else 0 for k in range(m)]):
                    c = draw(st.floats(0.0, 1.0))
                    if c > 0.05:
                        terms.append((c, exps))
            if coupled:
                # Hessian [[2q0 + 2d x1, c + 2d x0], [c + 2d x0, 2q1]] stays PSD
                room = (quad[0] * quad[1]) ** 0.5
                share = draw(st.floats(0.05, 0.95))
                terms.append((share * room, [1, 1]))
                terms.append(((1 - share) * room / (2 * caps[0]), [2, 1]))
            costs.append(CostFunction(np.array([c for c, _ in terms]),
                                      np.array([e for _, e in terms])))
        return costs, res(*caps)
    return build()


@pytest.mark.parametrize("coupled", [False, True], ids=["separable", "coupled"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_water_filling_matches_projected_gradient(coupled, data):
    costs, resources = data.draw(small_problems(coupled))
    opt = solve_optimum(costs, resources)
    pgd = solve_pgd_oracle(costs, resources)
    assert np.abs(opt.x_star - pgd.x_star).max() <= 1e-6
    assert opt.total_cost <= pgd.total_cost + 1e-9
    assert opt.kkt_residual <= 1e-9
    # the water-filled column is final: non-negative, and at capacity within _fill's tolerance
    caps = np.array([r.capacity for r in resources])
    assert (opt.x_star >= 0).all()
    tol = 4.0 * len(costs) * np.finfo(float).eps * caps
    assert (np.abs(opt.x_star.sum(axis=0) - caps) <= tol).all()


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

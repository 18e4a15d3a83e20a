import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpaimd.model import (
    ConfigurationError,
    CostFunction,
    PolyBatch,
    ResourceConfig,
    quad_quartic_cost,
    quadratic_cost,
    quartic_cost,
    reference_agent_costs,
)
from oracles import DensePolyBatch


def value(f, x):
    """f at one point x, through the one evaluator: a batch of one agent."""
    return float(PolyBatch([f]).value(np.asarray(x, dtype=float)[None])[0])


def test_eval_cost_mixed_form():
    # f = 1/2*10 x1^2 + 1/4*15 x1^4 + 1/2*15 x2^2 + 1/4*10 x2^4 at (1, 1)
    f = quad_quartic_cost(10, 15)
    assert value(f, [1.0, 1.0]) == pytest.approx(5 + 3.75 + 7.5 + 2.5)


def test_eval_cost_zero_at_origin():
    for f in (quad_quartic_cost(10, 15), quadratic_cost(20), quartic_cost(30)):
        assert value(f, [0.0, 0.0]) == 0.0


def test_eval_cost_quadratic_form():
    assert value(quadratic_cost(20), [2.0, 2.0]) == pytest.approx(40 + 20)


def test_eval_partial_mixed_form():
    f = quad_quartic_cost(10, 15)
    assert f.partial([1.0, 1.0], 0) == pytest.approx(10 + 15)


def test_eval_partial_zero_at_origin():
    for f in (quad_quartic_cost(10, 15), quartic_cost(30)):
        for j in (0, 1):
            assert f.partial([0.0, 0.0], j) == 0.0


def test_eval_partial_quartic_form():
    # d/dx2 of b/3 x2^4 = (4/3) b x2^3 at x2 = 0.5
    assert quartic_cost(30).partial([1.0, 0.5], 1) == pytest.approx((4 / 3) * 30 * 0.125)


def test_dimension_mismatch_rejected():
    f = quadratic_cost(20)
    with pytest.raises(ConfigurationError):
        f.partial([1.0, 2.0, 3.0], 0)
    with pytest.raises(ConfigurationError):
        f.partial([1.0, 2.0], 5)


def test_invalid_cost_functions_rejected():
    with pytest.raises(ConfigurationError):
        CostFunction(np.array([-1.0]), np.array([[2, 0]]))
    with pytest.raises(ConfigurationError):
        CostFunction(np.array([1.0]), np.array([[0, 0]]))  # constant term
    with pytest.raises(ConfigurationError):
        CostFunction(np.array([]), np.empty((0, 2), dtype=int))


def test_partial_matches_finite_differences():
    # central differences, h = 1e-6, 100 random points per function
    rng = np.random.default_rng(0)
    h = 1e-6
    for f in reference_agent_costs(seed=3):
        pts = rng.uniform(0.05, 5.0, size=(100, 2))
        for x in pts:
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (value(f, x + e) - value(f, x - e)) / (2 * h)
                assert f.partial(x, j) == pytest.approx(fd, rel=1e-4)


def test_partial_strictly_increasing_in_own_variable():
    grid = np.linspace(0.0, 5.0, 40)
    for f in reference_agent_costs(seed=9):
        for j in range(2):
            other = 1.3
            vals = []
            for g in grid:
                x = np.full(2, other)
                x[j] = g
                vals.append(f.partial(x, j))
            assert all(b > a for a, b in zip(vals, vals[1:]))


@given(st.permutations(range(4)), st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_eval_cost_invariant_under_term_reordering(perm, x):
    f = quad_quartic_cost(12, 20)
    g = CostFunction(f.coeffs[list(perm)], f.exponents[list(perm)])
    assert value(f, x) == pytest.approx(value(g, x), abs=1e-12, rel=1e-12)


def naive_derivative(f, x, j, order):
    """d^order f / dx_j^order at one point, term by term in plain Python."""
    total = 0.0
    for c, e in zip(f.coeffs, f.exponents):
        falling = math.prod(range(e[j] - order + 1, e[j] + 1))   # e (e - 1) ... ; 1 at order 0
        if falling:
            powers = [x[k] ** (int(e[k]) - (order if k == j else 0)) for k in range(len(e))]
            total += c * falling * math.prod(powers)
    return total


@st.composite
def agents_and_point(draw, separable=st.booleans(), powers=st.integers(1, 4)):
    """2-4 agents over 1-10 resources, with distinct term counts, so every batch
    pads some agent.

    A separable cost has one positive exponent per term, drawn from ``powers``;
    a coupled one may mix up to 4 resources in a term.
    """
    m = draw(st.integers(1, 10))
    counts = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4, unique=True))
    width = 1 if draw(separable) else min(4, m)
    exponent_row = st.lists(st.tuples(st.integers(0, m - 1), powers), min_size=1,
                            max_size=width, unique_by=lambda pair: pair[0]).map(
        lambda pairs: [dict(pairs).get(k, 0) for k in range(m)])
    agents = [
        CostFunction(np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=t, max_size=t))),
                     np.array(draw(st.lists(exponent_row, min_size=t, max_size=t))))
        for t in counts
    ]
    coords = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
    x = np.array(draw(st.lists(coords, min_size=len(agents) * m, max_size=len(agents) * m)))
    return agents, x.reshape(len(agents), m)


@given(agents_and_point())
@settings(max_examples=200, deadline=None)
def test_poly_batch_matches_naive_terms(case):
    agents, x = case
    batch = PolyBatch(agents)
    for j in range(x.shape[1]):
        for order, got in ((0, batch.value(x)), (1, batch.partial(x, j)),
                           (2, batch.second_partial(x, j))):
            expected = [naive_derivative(f, x[i], j, order) for i, f in enumerate(agents)]
            assert got.tolist() == pytest.approx(expected, rel=1e-12, abs=0)
    assert np.array_equal(batch.gradient(x)[:, 0], batch.partial(x, 0))


@given(agents_and_point())
@settings(max_examples=200, deadline=None)
def test_poly_batch_matches_dense_kernel(case):
    """The compacted kernel against the padded one it replaced.

    Bit for bit where a derivative of an agent keeps at most 2 terms; with 3 or
    more, einsum may group the shorter term axis differently.
    """
    agents, x = case
    batch, dense = PolyBatch(agents), DensePolyBatch(agents)
    assert np.array_equal(batch.value(x), dense.value(x))

    def agrees(got, expected, order, j):
        terms = np.array([np.count_nonzero(f.exponents[:, j] >= order) for f in agents])
        exact = terms <= 2
        assert np.array_equal(got[exact], expected[exact])
        assert (np.abs(got - expected) <= 1e-15 * np.abs(expected)).all()

    grad = batch.gradient(x)
    for j in range(x.shape[1]):
        agrees(batch.partial(x, j), dense.partial(x, j), 1, j)
        agrees(batch.second_partial(x, j), dense.second_partial(x, j), 2, j)
        agrees(grad[:, j], dense.gradient(x)[:, j], 1, j)
    points = np.stack([x, 0.5 * x])         # a leading batch axis
    assert np.array_equal(batch.gradient(points)[1], batch.gradient(0.5 * x))
    assert np.array_equal(batch.value(points)[1], batch.value(0.5 * x))
    for j in range(x.shape[1]):
        assert np.array_equal(batch.partial(points, j)[1], batch.partial(0.5 * x, j))
        assert np.array_equal(batch.second_partial(points, j)[1], batch.second_partial(0.5 * x, j))


def test_a_lone_term_of_a_lone_agent_matches_the_dense_kernel():
    """One agent whose one term raises one of 3 resources: numpy raises a
    one-element block by a scalar shortcut (x * x for x ** 2), which the m
    factors of the dense kernel do not take, so the support keeps a second."""
    points = np.random.default_rng(5).uniform(0.0, 3.0, (1000, 1, 3))
    for e in (2, 3, 4):
        f = CostFunction(np.array([1.5]), np.array([[0, e, 0]]))
        batch, dense = PolyBatch([f]), DensePolyBatch([f])
        for x in (points, points[0]):
            assert np.array_equal(batch.value(x), dense.value(x))
            assert np.array_equal(batch.partial(x, 1), dense.partial(x, 1))
            assert np.array_equal(batch.second_partial(x, 1), dense.second_partial(x, 1))


def merged(x):
    """An (..., n, m) point merged resource-major, as the engine's x-bar is laid out."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2)).reshape(x.shape[:-2] + (-1,))


def exact_where_two_terms(got, expected, agents, j):
    """Bit for bit where the agent's partial by x_j keeps at most 2 terms (einsum
    may group 3 or more differently), within 1e-15 relative elsewhere."""
    exact = np.array([np.count_nonzero(f.exponents[:, j]) <= 2 for f in agents])
    assert np.array_equal(got[..., exact], expected[..., exact])
    assert (np.abs(got - expected) <= 1e-15 * np.abs(expected)).all()


@given(agents_and_point(powers=st.integers(1, 40)))
@settings(max_examples=200, deadline=None)
def test_bound_gradient_kernel_matches_the_partials_and_the_dense_kernel(case):
    """The kernel the engine binds once per run: its row j equals ``partial(x, j)``
    bit for bit, alone, into ``out`` and in a batch, and the padded dense kernel."""
    agents, x = case
    batch, dense = PolyBatch(agents), DensePolyBatch(agents)
    kernel = batch.gradient_kernel()
    rows = kernel(merged(x))
    out = np.empty((x.shape[1], x.shape[0]))
    assert kernel(merged(x), out) is out and out.tobytes() == rows.tobytes()
    assert kernel(merged(np.stack([0.5 * x, x])))[1].tobytes() == rows.tobytes()
    expected = dense.gradient(x)
    for j in range(x.shape[1]):
        assert rows[j].tobytes() == batch.partial(x, j).tobytes()
        exact_where_two_terms(rows[j], expected[:, j], agents, j)


@pytest.mark.parametrize("m", [1, 3])
def test_the_bound_kernel_of_a_lone_term_of_a_lone_agent_matches_the_dense_kernel(m):
    """The lone-term case above through the bound gradient kernel: its one-element
    support block, squeezed when s = 1, takes numpy's scalar shortcut as the
    dense kernel does, or keeps a second factor where the dense one has m."""
    points = np.random.default_rng(5).uniform(0.0, 3.0, (1000, 1, m))
    for e in (2, 3, 4, 40):
        f = CostFunction(np.array([1.5]), np.array([[0] * (m > 1) + [e] + [0] * (m - 2)]))
        kernel, dense = PolyBatch([f]).gradient_kernel(), DensePolyBatch([f])
        for x in (points, points[0]):
            assert np.array_equal(kernel(merged(x)), np.swapaxes(dense.gradient(x), -1, -2))


def test_zero_weight_term_that_overflows_leaves_the_partial_finite():
    # d/dx2 of x1^400 is 0, so the term is dropped rather than evaluated as 0 * inf
    f = CostFunction(np.array([1.0, 1.0]), np.array([[400, 0], [0, 2]]))
    assert PolyBatch([f]).partial(np.array([[10.0, 1.5]]), 1).tolist() == [3.0]


def test_resource_config_validation():
    ResourceConfig(capacity=5.0, alpha=0.01, beta=0.7, gamma=1e-3)
    with pytest.raises(ConfigurationError):
        ResourceConfig(capacity=0.0, alpha=0.01, beta=0.7, gamma=1e-3)
    with pytest.raises(ConfigurationError):
        ResourceConfig(capacity=5.0, alpha=6.0, beta=0.7, gamma=1e-3)
    with pytest.raises(ConfigurationError):
        ResourceConfig(capacity=5.0, alpha=0.01, beta=1.0, gamma=1e-3)
    with pytest.raises(ConfigurationError):
        ResourceConfig(capacity=5.0, alpha=0.01, beta=0.7, gamma=0.0)


def test_reference_costs_reproducible_and_in_range():
    costs_a = reference_agent_costs(seed=11)
    costs_b = reference_agent_costs(seed=11)
    costs_c = reference_agent_costs(seed=12)
    assert len(costs_a) == 6
    for fa, fb in zip(costs_a, costs_b):
        assert np.array_equal(fa.coeffs, fb.coeffs)
        assert np.array_equal(fa.exponents, fb.exponents)
    assert any(
        not np.array_equal(fa.coeffs, fc.coeffs) for fa, fc in zip(costs_a, costs_c)
    )
    # agents 0-1 use the mixed form: coefficients derive from a in [10,30], b in [15,35]
    for f in costs_a[:2]:
        a = 2 * f.coeffs[0]
        b = 4 * f.coeffs[1]
        assert 10 <= a <= 30 and 15 <= b <= 35

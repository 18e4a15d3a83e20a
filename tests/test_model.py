import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from dpaimd.model import _power_rows
from oracles import DensePolyBatch, binary_power


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


def agents_at(point, *agents):
    """Agents given as {exponent tuple: coefficient} dicts, and an (n, m) point."""
    return ([CostFunction(np.array(list(f.values())), np.array(list(f))) for f in agents],
            np.array(point))


# tables whose partials keep 1 term (T' = 1), 2 terms, or 3 beside 2 (a gradient
# table padded to 3 terms, second partials of 2), separable or coupled
KERNEL_CASES = (
    agents_at([[0.7, 2.5], [1.9, 0.0]], {(2, 0): 1.5, (0, 3): 2.0}, {(4, 0): 0.5, (0, 2): 3.0}),
    agents_at([[0.7, 2.5], [1.9, 0.3]], {(2, 0): 1.5, (4, 0): 0.25, (0, 2): 2.0},
              {(3, 0): 0.5, (0, 2): 3.0, (0, 5): 0.1}),
    agents_at([[0.7, 2.5], [1.9, 0.3]], {(1, 0): 1.5, (2, 0): 0.25, (3, 0): 2.0, (0, 2): 1.0},
              {(2, 0): 0.5, (4, 0): 3.0, (0, 3): 0.1}),
    agents_at([[0.7, 2.5], [1.9, 0.3]], {(1, 2): 1.5, (3, 0): 0.25}, {(2, 2): 0.5, (0, 4): 3.0}),
)


def cases(test):
    for case in KERNEL_CASES:
        test = example(case)(test)
    return test


@given(agents_and_point())
@cases
@settings(max_examples=200, deadline=None)
def test_poly_batch_matches_dense_kernel(case):
    """The compacted kernel against the padded one it replaced, bit for bit at
    any term count: both sum the terms left to right, and the dropped terms add
    exactly 0. A point gives the same bits alone and in a batch of one or two
    leading axes.
    """
    agents, x = case
    batch, dense = PolyBatch(agents), DensePolyBatch(agents)
    assert np.array_equal(batch.value(x), dense.value(x))
    grad = batch.gradient(x)
    for j in range(x.shape[1]):
        assert np.array_equal(batch.partial(x, j), dense.partial(x, j))
        assert np.array_equal(batch.second_partial(x, j), dense.second_partial(x, j))
        assert np.array_equal(grad[:, j], dense.gradient(x)[:, j])
    for points in (np.stack([x, 0.5 * x]), np.stack([[x, 2.0 * x], [x, 0.5 * x]])):
        at = (1,) * (points.ndim - 2)       # 0.5 * x, behind one or two leading axes
        assert np.array_equal(batch.gradient(points)[at], batch.gradient(0.5 * x))
        assert np.array_equal(batch.value(points)[at], batch.value(0.5 * x))
        for j in range(x.shape[1]):
            assert np.array_equal(batch.partial(points, j)[at], batch.partial(0.5 * x, j))
            assert np.array_equal(batch.second_partial(points, j)[at], batch.second_partial(0.5 * x, j))


def test_a_lone_term_of_a_lone_agent_matches_the_dense_kernel():
    """One agent whose one term raises one of m resources, beside a weight-0 x ** 0
    pad: its one factor against the dense kernel's m, for a lone point and in a batch."""
    for m, e in itertools.product((1, 3), (2, 3, 4)):
        points = np.random.default_rng(5).uniform(0.0, 3.0, (1000, 1, m))
        f = CostFunction(np.array([1.5]), np.array([[0] * (m > 1) + [e] + [0] * (m - 2)]))
        batch, dense = PolyBatch([f]), DensePolyBatch([f])
        j = int(m > 1)
        for x in (points, points.reshape(10, 100, 1, m), points[:1], points[0]):
            assert np.array_equal(batch.value(x), dense.value(x))
            assert np.array_equal(batch.partial(x, j), dense.partial(x, j))
            assert np.array_equal(batch.second_partial(x, j), dense.second_partial(x, j))


def merged(x):
    """An (..., n, m) point merged resource-major, as the engine's x-bar is laid out."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2)).reshape(x.shape[:-2] + (-1,))


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates, by tracemalloc; args are made before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@given(agents_and_point(powers=st.integers(1, 40)))
@cases
@settings(max_examples=200, deadline=None)
def test_bound_gradient_kernel_matches_the_partials_and_the_dense_kernel(case):
    """The kernel the engine binds once per run: its row j equals ``partial(x, j)``
    bit for bit, alone and in a batch of one or two leading axes, with and
    without ``out``, and the padded dense kernel.

    A batch binds buffers of its own: a lone point called after the batches
    gives the same bytes as before them, and, given ``out``, allocates less than
    one array view would, so it makes no array at all. Each peak is the least of
    three calls: the first traced calls may read 48 bytes more, for Python's own
    objects. That holds where each term is one factor; a product over the support
    axis goes through ``np.multiply.reduce``, which allocates for its own
    iteration."""
    agents, x = case
    batch, dense = PolyBatch(agents), DensePolyBatch(agents)
    kernel = batch.gradient_kernel()
    rows = kernel(merged(x))
    out = np.empty((x.shape[1], x.shape[0]))
    assert kernel(merged(x), out) is out and out.tobytes() == rows.tobytes()
    for points in (np.stack([0.5 * x, x]), np.stack([[0.5 * x, 2.0 * x], [x, x]])):
        out = np.empty(points.shape[:-2] + rows.shape)
        assert kernel(merged(points), out) is out
        assert out.tobytes() == kernel(merged(points)).tobytes()
        assert out[(1,) * (points.ndim - 2)].tobytes() == rows.tobytes()
    out = np.empty(rows.shape)
    view = min(traced_peak(lambda: out[...]) for _ in range(3))
    lone = min(traced_peak(kernel, merged(x), out) for _ in range(3))
    assert out.tobytes() == rows.tobytes()
    if all(np.count_nonzero(f.exponents, axis=1).max() == 1 for f in agents):
        assert lone < view, (lone, view)
    expected = dense.gradient(x)
    for j in range(x.shape[1]):
        assert rows[j].tobytes() == batch.partial(x, j).tobytes()
        assert rows[j].tobytes() == expected[:, j].tobytes()


@pytest.mark.parametrize("m", [1, 3])
def test_the_bound_kernel_of_a_lone_term_of_a_lone_agent_matches_the_dense_kernel(m):
    """The lone-term case above through the bound gradient kernel, whose
    one-element support block is squeezed when s = 1."""
    points = np.random.default_rng(5).uniform(0.0, 3.0, (1000, 1, m))
    for e in (2, 3, 4, 40):
        f = CostFunction(np.array([1.5]), np.array([[0] * (m > 1) + [e] + [0] * (m - 2)]))
        kernel, dense = PolyBatch([f]).gradient_kernel(), DensePolyBatch([f])
        for x in (points, points.reshape(10, 100, 1, m), points[:1], points[0]):
            expected = np.swapaxes(dense.gradient(x), -1, -2)
            assert np.array_equal(kernel(merged(x)), expected)
            assert np.array_equal(kernel(merged(x), np.empty(expected.shape)), expected)


def test_a_lone_agents_one_term_partial_at_one_resource_matches_the_dense_kernel():
    """x + x**4 on one resource: the second partial 12 x**2 keeps one of the dense
    kernel's two terms, padded by a weight-0 x ** 0, and both square by one multiply."""
    f = CostFunction(np.array([1.0, 1.0]), np.array([[1], [4]]))
    points = np.random.default_rng(0).uniform(0.0, 3.0, (20_000, 1, 1))
    batch, dense = PolyBatch([f]), DensePolyBatch([f])
    in_batch = np.count_nonzero(batch.second_partial(points, 0) != dense.second_partial(points, 0))
    alone = sum(np.count_nonzero(batch.second_partial(x, 0) != dense.second_partial(x, 0))
                for x in points)
    assert (in_batch, alone) == (0, 0)


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u) for double precision, u = 2**-53, exactly."""
    u = Fraction(1, 2**53)
    return k * u / (1 - k * u)


@pytest.mark.parametrize("e", [*range(41), 400])
def test_binary_powers_stay_within_gamma_of_the_exact_power(e):
    """x ** e by binary powers, in the oracle and in the kernel, against the exact
    power in fractions: a product of e floats, in any grouping, is within
    gamma_{e-1} of it (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, 3.1), and x ** 0 and x ** 1 are exact. The points keep x ** e normal."""
    span = min(4.0, 1000 / max(e, 1))
    x = 2.0 ** np.random.default_rng(e).uniform(-span, span, 200)
    powers = binary_power(x, e)
    if e:
        f = CostFunction(np.array([1.0]), np.array([[e]]))
        assert PolyBatch([f]).value(x[:, None, None]).tobytes() == powers.tobytes()
    bound = gamma(max(e - 1, 0))
    for point, power in zip(x.tolist(), powers.tolist()):
        exact = Fraction(point) ** e
        assert abs(Fraction(power) - exact) <= bound * exact, (point, power)


@pytest.mark.parametrize("top", [3, 40, 400, 10**9])
def test_power_table_grows_with_the_bits_of_its_exponents(top):
    """Rows 0 and 1, one square per bit below the top one, one row per other
    exponent; each such row costs popcount(e) - 1 multiplies, so an exponent of
    1e9 costs about 30 rows, never 1e9."""
    exponents = np.array([[0, 1, 2, top], [top - 1, 3, 5, 1]])
    powers, fills = _power_rows(exponents)
    squares = max(top, 5).bit_length() - 1
    others = [e for e in set(exponents.ravel().tolist()) if e & (e - 1)]
    assert powers == sorted({0, 1, *(1 << k for k in range(1, squares + 1)), *others})
    assert len(fills) == squares + sum(bin(e).count("1") - 1 for e in others)
    x = np.array([1.0 + 2.0**-30])     # (1 + h) ** e, near 1 + e h: every row finite
    rows = np.empty((len(powers), 1))
    rows[0], rows[1] = 1.0, x
    for a, b, r in fills:       # each reads rows already filled; a == r goes on multiplying
        assert a <= r and b < r
        rows[r] = rows[a] * rows[b]
    assert rows.ravel().tolist() == binary_power(x, np.array(powers)).tolist()


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

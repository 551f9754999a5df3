"""Power iteration against the dense solver on matrix families built to be hard.

Every generated matrix with a positive spectral radius stays inside what
the solver's model covers: its largest row sum is at most 1000 times that
radius (the diagonal shift, half the mean nonzero row sum, is at most half
that row sum, and a larger shift slows convergence in proportion), and a
reducible matrix keeps its blocks' Perron roots apart unless they are meant
to be equal.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra.numpy import arrays

from flowspectra import (
    ConvergenceError,
    FlowRecordSet,
    NetworkSnapshot,
    PipelineConfig,
    analyze_period,
    build_snapshot,
    generate_synthetic_series,
    leading_eigenpair,
    null_ensemble,
    run_timeseries,
    spectral,
)
from flowspectra.spectral import RESIDUAL_RTOL

MAX_ROW_SUM_PER_RADIUS = 1000.0

sizes = st.integers(1, 10)
# Positive weights within two orders of magnitude of each other.
weights = st.floats(0.01, 1.0)


def positive(rows, cols):
    return arrays(float, (rows, cols), elements=weights)


def radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def assert_leading_pair(a, rtol, pair=None):
    lam, v = leading_eigenpair(a) if pair is None else pair
    # Check in units of a power of two near the largest weight (exact), so
    # that norms of matrices near 1e200 or 1e-200 cannot overflow or underflow.
    exponent = int(np.frexp(a.max())[1])
    a, lam = np.ldexp(a, -exponent), math.ldexp(lam, -exponent)
    rho = radius(a)
    row_sums = a.sum(axis=1)
    assert row_sums.max() <= MAX_ROW_SUM_PER_RADIUS * rho
    shift = 0.5 * row_sums.sum() / np.count_nonzero(row_sums)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    # The solver tests its residual as ||B v - mu v|| with B = A + shift I;
    # evaluating that, and A v - lam v here, in floating point may move each
    # by up to (n + 2) eps ||B||.
    rounding = 2 * (len(a) + 2) * np.finfo(float).eps * (np.linalg.norm(a, 2) + shift)
    assert np.linalg.norm(a @ v - lam * v) <= RESIDUAL_RTOL * lam + rounding
    assert lam == pytest.approx(rho, rel=rtol)


def chain_heads(a):
    """The entities that start a longest lending chain, or None when the
    pattern of `a` has a cycle. A path of n links visits n + 1 entities, so
    one exists only on a cycle."""
    links = a > 0
    heads, starts = None, links.any(axis=1)
    for _ in range(len(a)):
        if not starts.any():
            return heads
        heads, starts = starts, (links & starts).any(axis=1)
    return None


def reference_power_iteration(a):
    """One matrix at a time: the loop the stacked solver replaced, kept as its
    reference. Same zero-radius rule, scaling, canonical entity order, shift,
    and residual test at the end of each block of `spectral._BLOCK_STEPS`
    steps and at `spectral.MAX_ITERATIONS`, so the stack must give the same
    bits. A step off that grid is a bare product; a tested step normalizes
    first and goes on from the product it tested. Past
    `spectral.MAX_ITERATIONS` it raises with the residual of the last test."""
    heads = chain_heads(a)
    if heads is not None:
        return 0.0, heads / math.sqrt(np.count_nonzero(heads))
    exponent = int(np.frexp(a.max())[1])
    a = np.ldexp(a, -exponent)
    order = np.lexsort((a.max(axis=0), a.max(axis=1)))
    a, inverse = a[np.ix_(order, order)], np.argsort(order)
    row_sums = a.sum(axis=1)
    shift = 0.5 * row_sums.sum() / np.count_nonzero(row_sums)
    b = a + shift * np.eye(len(a))
    x = np.full(len(a), 1.0 / math.sqrt(len(a)))
    for step in range(1, spectral.MAX_ITERATIONS + 1):
        if step % spectral._BLOCK_STEPS and step < spectral.MAX_ITERATIONS:
            x = b @ x
            continue
        v = x / float(np.linalg.norm(x))
        w = b @ v
        mu = float(v @ w)
        lam = mu - shift
        residual = float(np.linalg.norm(w - mu * v))
        if residual <= RESIDUAL_RTOL * lam:
            return math.ldexp(lam, exponent), v[inverse]
        x = w
    raise ConvergenceError("reference did not converge",
                           residual=math.ldexp(residual, exponent))


# --- pinned regressions --------------------------------------------------------


@pytest.mark.parametrize("hub", [100.0, 400.0, 700.0])
def test_one_large_lender_gives_lambda_within_1e_9(hub):
    rng = np.random.default_rng(5)
    a = (rng.random((31, 31)) < 0.1) * rng.random((31, 31))
    np.fill_diagonal(a, 0.0)
    a[:, 0] = 0.0
    a[0, 1:] = hub
    lam, _ = leading_eigenpair(a)
    assert lam == pytest.approx(radius(a), rel=1e-9)


@pytest.mark.parametrize("t", [1e-170, 1e-250, 1e-310])
def test_a_cycle_whose_weight_product_underflows_is_not_nilpotent(monkeypatch, t):
    # rho = (t/8)**(1/3) after scaling, far below what power iteration can
    # resolve next to weights of 0.5, but not 0: the pattern has a cycle.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 64)
    tiny = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [t, 0.0, 0.0]])
    with pytest.raises(ConvergenceError) as excinfo:
        leading_eigenpair(np.array([np.roll(np.eye(3), 1, axis=1), tiny]))
    assert excinfo.value.index == 1


def assert_unit_nonnegative_pairs(stack):
    lams, vectors = leading_eigenpair(stack.copy())
    for a, lam, v in zip(stack, lams, vectors):
        assert lam == pytest.approx(radius(a), rel=1e-10)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert (v >= 0).all()
    return vectors


def test_dense_200_entity_stack_within_1e_10():
    # A block's bare products grow fastest on a dense matrix, by up to 1.5n
    # per step: here about 0.75 * 200 + the shift of about 75.
    rng = np.random.default_rng(200)
    stack = rng.uniform(0.5, 1.0, (3, 200, 200)) * np.array([1e-200, 1.0, 1e200])[:, None, None]
    assert_unit_nonnegative_pairs(stack)


@pytest.mark.parametrize("n", [31, 200])
def test_entities_outside_the_lending_cycles_within_1e_10(n):
    # Entity 0 lends to nobody, so (B x)_0 = shift x_0: its component decays
    # at every step against the growing rest. Nobody lends to entity 1, and
    # entity 2 neither lends nor borrows, so its component decays too.
    rng = np.random.default_rng(n)
    stack = (rng.random((3, n, n)) < 0.1) * rng.random((3, n, n))
    stack[:, :, 1] = stack[:, 0, :] = stack[:, 2, :] = stack[:, :, 2] = 0.0
    vectors = assert_unit_nonnegative_pairs(stack)
    # A v = 0 in these rows, so the residual test bounds lambda v there.
    assert (vectors[:, [0, 2]] <= 2 * RESIDUAL_RTOL).all()


def test_weighted_40_cycle_gives_lambda_within_1e_10():
    a = np.roll(np.eye(40), 1, axis=1) * np.random.default_rng(40).uniform(0.5, 2, 40)[:, None]
    lam, _ = leading_eigenpair(a)
    assert lam == pytest.approx(radius(a), rel=1e-10)


def test_null_heavy_series_fits_a_step_budget(monkeypatch):
    # A deterministic guard on step counts, not on time: 24 quarters of 6 core
    # and 25 periphery entities whose periphery links ramp from sparse (5%) to
    # dense (50%), with 100 replicas each. The slowest replica passes at the
    # end of its 40th block, step 640; shifted by half the largest row sum
    # and polished, it needed 1,244.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 1000)
    # A block takes three row-wise dot products (the norm, mu and the
    # residual), each over the matrices still active in it.
    rows, dots = [], spectral._dots

    def counting(x, y):
        rows.append(len(x))
        return dots(x, y)

    monkeypatch.setattr(spectral, "_dots", counting)
    records = generate_synthetic_series(6, 25, 100.0, 1.0, 24, seed=1101,
                                        link_prob_start=0.05, link_prob_end=0.5)
    for period in records.periods:
        null_ensemble(build_snapshot(records, period), 100, seed=1102)
    assert sum(rows) % 3 == 0
    # The series takes 13,911 active-matrix blocks; the bound is 14,213.
    assert sum(rows) // 3 <= 14_213


def test_null_heavy_quarters_share_stack_blocks(monkeypatch):
    # The same series through run_timeseries, at the default cap: each
    # quarter's matrix and 100 replicas join the one work stack (136 places
    # at N = 31) as soon as they fit, so a quarter's slowest replicas run in
    # the blocks of the next. Every matrix still takes the blocks it takes
    # alone: 14,203 active-matrix blocks, as when each quarter's matrix and
    # null were solved as stacks of their own, in 613 stack blocks (47 for
    # the matrices, 566 for the nulls). Shared, they take 152 stack blocks;
    # without the overlap they could not take fewer than 566.
    rows, dots = [], spectral._dots

    def counting(x, y):
        rows.append(len(x))
        return dots(x, y)

    monkeypatch.setattr(spectral, "_dots", counting)
    records = generate_synthetic_series(6, 25, 100.0, 1.0, 24, seed=1101,
                                        link_prob_start=0.05, link_prob_end=0.5)
    run_timeseries(records, PipelineConfig(seed=1102, null_samples=100))
    assert len(rows) % 3 == 0
    assert sum(rows) // 3 == 14_203
    assert len(rows) // 3 <= 152 + 15


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="a defective Perron root converges only as 1/k")
def test_two_equal_cycles_joined_by_one_edge():
    # Both 2-cycles have root 1, and the edge 1 -> 2 joins their classes, so
    # the root 1 has a Jordan block of size 2 and the iterate nears the
    # eigenvector only like 1/k: after 100,000 steps lambda is 2e-5 high.
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = a[1, 2] = 1.0
    lam, _ = leading_eigenpair(a)
    assert lam == pytest.approx(radius(a), rel=1e-9)


# --- generated families ----------------------------------------------------------


@given(sizes.flatmap(lambda n: positive(n, n)))
def test_dense(a):
    assert_leading_pair(a, 1e-9)


@st.composite
def bipartite(draw, n=None):
    """Every walk alternates between two groups: period 2, eigenvalues +-rho."""
    if n is None:
        p, q = draw(sizes), draw(sizes)
    else:
        p = draw(st.integers(1, n - 1))
        q = n - p
    a = np.zeros((p + q, p + q))
    a[:p, p:] = draw(positive(p, q))
    a[p:, :p] = draw(positive(q, p))
    return a


@given(bipartite())
def test_bipartite(a):
    assert_leading_pair(a, 1e-9)


@st.composite
def block_triangular(draw):
    """Reducible: the second group never lends to the first. Each diagonal
    block is scaled to a Perron root of 1 and the second by `ratio`, which
    keeps the two roots at least 10% apart."""
    p, q = draw(sizes), draw(sizes)
    top, bottom = draw(positive(p, p)), draw(positive(q, q))
    ratio = draw(st.floats(0.1, 0.9) | st.floats(1 / 0.9, 10.0))
    a = np.zeros((p + q, p + q))
    a[:p, :p] = top / radius(top)
    a[:p, p:] = draw(positive(p, q))
    a[p:, p:] = ratio * bottom / radius(bottom)
    return a


@given(block_triangular())
def test_block_triangular(a):
    assert_leading_pair(a, 1e-8)


@st.composite
def equal_roots(draw):
    """Two disconnected components whose rows each sum to `scale`, so both
    Perron roots equal `scale` and the leading eigenspace is a plane."""
    p, q = draw(sizes), draw(sizes)
    top, bottom = draw(positive(p, p)), draw(positive(q, q))
    scale = draw(st.floats(0.1, 10.0))
    a = np.zeros((p + q, p + q))
    a[:p, :p] = scale * top / top.sum(axis=1, keepdims=True)
    a[p:, p:] = scale * bottom / bottom.sum(axis=1, keepdims=True)
    return a


@given(equal_roots())
def test_two_components_with_equal_perron_roots(a):
    assert_leading_pair(a, 1e-9)


@st.composite
def weighted_cycle(draw, n=None):
    """One directed cycle: every eigenvalue has modulus rho (period n)."""
    if n is None:
        n = draw(st.integers(2, 40))
    cycle_weights = draw(arrays(float, n, elements=st.floats(0.5, 2.0)))
    return np.roll(np.eye(n), 1, axis=1) * cycle_weights[:, None]


@given(weighted_cycle())
def test_weighted_cycle(a):
    assert_leading_pair(a, 1e-9)


@st.composite
def nilpotent(draw, n=None):
    """An acyclic flow pattern under a random relabelling of the entities."""
    if n is None:
        n = draw(st.integers(2, 10))
    upper = np.triu(draw(arrays(float, (n, n), elements=st.just(0.0) | weights)), 1)
    assume(upper.any())
    order = np.array(draw(st.permutations(range(n))))
    return upper[np.ix_(order, order)]


@given(nilpotent())
def test_nilpotent_gives_exact_zero(a):
    lam, v = leading_eigenpair(a)
    assert lam == 0.0
    assert np.linalg.norm(a @ v) == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@st.composite
def sparse_pattern(draw):
    """A sparse pattern, loops included, with weights 10**U(-150, 150)."""
    n = draw(st.integers(1, 8))
    links = draw(arrays(bool, (n, n), elements=st.sampled_from([False, False, False, True])))
    assume(links.any())
    return links * 10.0 ** draw(arrays(float, (n, n), elements=st.floats(-150.0, 150.0)))


@given(sparse_pattern())
@example(np.array([[0.0, 1e150, 0.0], [0.0, 0.0, 1e150], [1e-150, 0.0, 0.0]]))
def test_radius_is_zero_exactly_when_the_pattern_has_no_cycle(a):
    links = a > 0
    power = np.eye(len(a), dtype=bool)
    for _ in range(len(a)):
        power = (power.astype(int) @ links.astype(int)) > 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "MAX_ITERATIONS", 64)
        try:
            lam, v = leading_eigenpair(a)
        except ConvergenceError:
            assert power.any()
            return
    assert (lam == 0.0) == (not power.any())
    if lam == 0.0:
        # Supported on entities nobody lends to, so A v = 0 with no product.
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert (v >= 0).all() and not links[:, v > 0].any()
    else:
        assert lam > 0.0


@st.composite
def mixed_magnitudes(draw):
    """Positive off-diagonal weights anywhere in 1e-3..1e3."""
    n = draw(st.integers(2, 10))
    a = 10.0 ** draw(arrays(float, (n, n), elements=st.floats(-3.0, 3.0)))
    np.fill_diagonal(a, 0.0)
    assume(a.sum(axis=1).max() <= MAX_ROW_SUM_PER_RADIUS * radius(a))
    return a


@given(mixed_magnitudes())
def test_mixed_magnitudes(a):
    assert_leading_pair(a, 1e-8)


# --- stacks ------------------------------------------------------------------------

#: Each family with the tolerance of its own test; None marks lambda exactly 0.
FAMILIES = {
    "dense": (lambda n: positive(n, n), 1e-9),
    "bipartite": (bipartite, 1e-9),
    "weighted cycle": (weighted_cycle, 1e-9),
    "nilpotent": (nilpotent, None),
}


@st.composite
def mixed_stack(draw):
    """Matrices of one size from every family, each scaled by its own factor
    anywhere in 1e-200..1e200."""
    n = draw(st.integers(2, 10))
    kinds = draw(st.lists(st.sampled_from(sorted(FAMILIES)), min_size=1, max_size=6))
    stack = np.array([draw(FAMILIES[kind][0](n)) * 10.0 ** draw(st.floats(-200.0, 200.0))
                      for kind in kinds])
    return kinds, stack


@given(mixed_stack())
def test_stack_of_families_at_mixed_scales(case):
    kinds, stack = case
    lams, vectors = leading_eigenpair(stack.copy())
    for kind, a, lam, v in zip(kinds, stack, lams, vectors):
        for alone, alone_v in (leading_eigenpair(a), reference_power_iteration(a)):
            assert lam == alone
            assert np.array_equal(v, alone_v)
        rtol = FAMILIES[kind][1]
        if rtol is None:
            assert lam == 0.0
            assert np.linalg.norm(a @ v) == 0.0
        else:
            assert_leading_pair(a, rtol, (lam, v))


@pytest.mark.parametrize("block_steps", [1, 5, 16])
@given(mixed_stack())
def test_stack_equals_the_reference_at_any_block_length(block_steps, case):
    _, stack = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_BLOCK_STEPS", block_steps)
        lams, vectors = leading_eigenpair(stack.copy())
        for a, lam, v in zip(stack, lams, vectors):
            alone, alone_v = reference_power_iteration(a)
            assert lam == alone
            assert np.array_equal(v, alone_v)


# --- relabelling -------------------------------------------------------------------


@st.composite
def relabelled_network(draw):
    """A positive off-diagonal network and a permutation of its entities.

    Rounding moves an eigenvector of the symmetrized matrix S by about
    eps ||S|| / gap (Davis-Kahan), so its eigenvalues are kept 1e-3 ||S||
    apart: then every IPR is fixed by S to about 2e-13."""
    n = draw(st.integers(2, 10))
    a = draw(positive(n, n))
    np.fill_diagonal(a, 0.0)
    eigenvalues = np.linalg.eigvalsh(a + a.T)
    assume(np.min(np.diff(eigenvalues)) > 1e-3 * np.abs(eigenvalues).max())
    return a, draw(st.permutations(range(n)))


@given(relabelled_network())
def test_relabelling_entities_only_permutes_participation(network):
    a, order = network

    def analyze(names):
        rows = [("2000-Q1", names[i], names[j], a[i, j])
                for i in range(len(a)) for j in range(len(a)) if i != j]
        return analyze_period(FlowRecordSet.from_rows(rows), "2000-Q1",
                              PipelineConfig(null_samples=1))

    base = analyze([f"E{i:02d}" for i in range(len(a))])
    relabelled = analyze([f"E{k:02d}" for k in order])
    assert relabelled.lambda_max == pytest.approx(base.lambda_max, rel=1e-12)
    assert relabelled.mean_ipr == pytest.approx(base.mean_ipr, rel=1e-12)
    # Entity i of the base run is entity order[i] of the relabelled run.
    assert np.asarray(relabelled.participation)[list(order)] == pytest.approx(
        base.participation, abs=1e-9)


@given(sizes.flatmap(lambda n: st.tuples(positive(n, n), st.permutations(range(n)))))
def test_relabelling_with_distinct_keys_gives_the_same_bits(case):
    # Entities whose (row max, column max) keys are distinct have one
    # canonical order, so the relabelled matrix is solved as the same matrix.
    a, order = case
    assume(len(set(zip(a.max(axis=1), a.max(axis=0)))) == len(a))
    lam, v = leading_eigenpair(a)
    relabelled_lam, relabelled_v = leading_eigenpair(a[np.ix_(order, order)])
    assert relabelled_lam == lam
    assert np.array_equal(relabelled_v, v[list(order)])


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_two_entity_null_ensemble_is_constant(x, y):
    # Both placements of the two weights are one matrix under relabelling.
    snapshot = NetworkSnapshot("2000-Q1", ("A", "B"), np.array([[0.0, x], [y, 0.0]]))
    stats = null_ensemble(snapshot, 40, seed=6)
    assert len(set(stats.lambda_values)) == 1
    assert stats.std == 0.0

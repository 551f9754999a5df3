import ast
import math
from pathlib import Path

import numpy as np
import pytest

from flowspectra import (
    ConvergenceError,
    DataError,
    NetworkSnapshot,
    cluster,
    distance_matrix,
    full_spectrum,
    ipr,
    leading_eigenpair,
    participation_percent,
    spectral,
)


def snapshot_of(matrix):
    weights = np.asarray(matrix, dtype=float)
    names = tuple(f"E{i:02d}" for i in range(weights.shape[0]))
    return NetworkSnapshot("2000-Q1", names, weights)


def symmetric_of(matrix):
    return np.asarray(matrix, dtype=float)


# --- inverse participation ratio ---------------------------------------------


@pytest.mark.parametrize("n", [2, 10, 31, 100])
def test_ipr_uniform_vector_counts_all_components(n):
    uniform = np.full(n, 1.0 / math.sqrt(n))
    assert ipr(uniform) == pytest.approx(n, abs=1e-10)


def test_ipr_basis_vector_counts_one_component():
    basis = np.zeros(31)
    basis[7] = 1.0
    assert ipr(basis) == 1.0


def test_ipr_half_and_half():
    v = np.array([1.0 / math.sqrt(2), 1.0 / math.sqrt(2), 0.0])
    assert ipr(v) == pytest.approx(2.0, rel=1e-12)


def test_ipr_rejects_unnormalized_input():
    with pytest.raises(DataError, match="unit-normalized"):
        ipr(np.array([1.0, 1.0]))


def test_ipr_permutation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = rng.normal(size=int(rng.integers(2, 20)))
        v /= np.linalg.norm(v)
        permuted = rng.permutation(v)
        assert ipr(permuted) == pytest.approx(ipr(v), rel=1e-12)


# --- participation percentages -----------------------------------------------


def test_participation_examples():
    half = np.array([1.0, 1.0]) / math.sqrt(2)
    assert participation_percent(half).tolist() == pytest.approx([50.0, 50.0])
    basis = np.array([1.0, 0.0, 0.0])
    assert participation_percent(basis).tolist() == [100.0, 0.0, 0.0]
    skew = np.array([math.sqrt(0.64), math.sqrt(0.36)])
    assert participation_percent(skew).tolist() == pytest.approx([64.0, 36.0])


def test_participation_sums_to_100_for_random_unit_vectors():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(size=int(rng.integers(2, 40)))
        v /= np.linalg.norm(v)
        assert participation_percent(v).sum() == pytest.approx(100.0, abs=1e-9)


# --- leading eigenpair (power iteration) --------------------------------------


def test_leading_pair_of_symmetric_permutation():
    lam, v = leading_eigenpair(snapshot_of([[0, 1], [1, 0]]).weights)
    assert lam == pytest.approx(1.0, rel=1e-12)
    assert v == pytest.approx(np.full(2, 1 / math.sqrt(2)), abs=1e-10)


def test_leading_pair_periodic_two_cycle():
    # characteristic polynomial lambda^2 - 6 = 0
    lam, _ = leading_eigenpair(snapshot_of([[0, 2], [3, 0]]).weights)
    assert lam == pytest.approx(math.sqrt(6), rel=1e-12)


def test_leading_pair_matches_dense_solver_on_random_matrices():
    rng = np.random.default_rng(77)
    for _ in range(100):
        a = rng.random((5, 5))
        lam, v = leading_eigenpair(a)
        rho = float(np.max(np.abs(np.linalg.eigvals(a))))
        assert lam == pytest.approx(rho, rel=1e-8)
        assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * lam


def test_leading_pair_rejects_zero_matrix():
    with pytest.raises(DataError, match="no nonzero"):
        leading_eigenpair(snapshot_of(np.zeros((3, 3))).weights)


def test_power_iteration_rejects_negative_entries():
    with pytest.raises(DataError, match="nonnegative"):
        leading_eigenpair(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_radius_beyond_float_range_is_data_error():
    a = np.full((31, 31), 1e307)
    np.fill_diagonal(a, 0.0)
    with pytest.raises(DataError, match="exceeds the float range"):
        leading_eigenpair(a)


def test_weights_that_underflow_when_scaled_are_data_error():
    # eigvals gives radius 1, but scaling 1e200 into [0.5, 1) turns 1e-200 into 0,
    # which would leave a nilpotent matrix and a radius of 0.
    with pytest.raises(DataError, match="positive weights underflow to 0"):
        leading_eigenpair(np.array([[0.0, 1e200], [1e-200, 0.0]]))


def test_nilpotent_matrix_has_zero_radius_and_exact_pair():
    lam, v = leading_eigenpair(np.array([[0.0, 7.0], [0.0, 0.0]]))
    assert lam == 0.0
    assert np.linalg.norm(np.array([[0.0, 7.0], [0.0, 0.0]]) @ v) == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape, message", [
    ((2, 3), r"square matrix or a stack of them, got shape \(2, 3\)"),
    ((3,), r"square matrix or a stack of them, got shape \(3,\)"),
    ((2, 2, 3), r"square matrix or a stack of them, got shape \(2, 2, 3\)"),
    ((1, 2, 2, 2), r"square matrix or a stack of them, got shape \(1, 2, 2, 2\)"),
    ((0, 0), "^empty matrix$"),
    ((2, 0, 0), "^empty matrix$"),
], ids=["non-square", "1-D", "non-square-stack", "4-D", "empty", "empty-stack"])
def test_leading_pair_input_shape_is_checked(shape, message):
    with pytest.raises(DataError, match=message):
        leading_eigenpair(np.ones(shape))


def test_stack_errors_name_the_matrix():
    fine = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0]])
    huge = np.full((3, 3), 1e308) - np.diag(np.full(3, 1e308))  # radius 2e308
    with pytest.raises(DataError, match="nonnegative") as excinfo:
        leading_eigenpair(np.array([fine, fine, -fine]))
    assert excinfo.value.index == 2
    with pytest.raises(DataError, match="exceeds the float range") as excinfo:
        leading_eigenpair(np.array([fine, huge, fine]))
    assert excinfo.value.index == 1
    for bad in (np.nan, np.inf):
        broken = fine.copy()
        broken[0, 1] = bad
        with pytest.raises(DataError, match="matrix must be finite") as excinfo:
            leading_eigenpair(np.array([fine, broken, fine]))
        assert excinfo.value.index == 1


# Two 2x2 matrices whose radius is past the float maximum (about 1.86e308
# and 2.43e308). Their largest entries scale to the same power of two, so
# they take the steps they take at unit scale: the first needs 129 steps (its
# pair passes at the end of the ninth block), the second passes at the end of
# the first block.
LATE_OVERFLOW = np.array([[1.9, 0.2], [0.3, 1.7]]) * 2.0 ** 1023
EARLY_OVERFLOW = np.array([[1.2, 1.5], [1.5, 1.2]]) * 2.0 ** 1023
# Its radius is past the float maximum, and its pair passes at the end of the
# sixth block.
SIXTH_BLOCK_OVERFLOW = np.array([[1.9, 0.3], [0.4, 1.7]]) * 2.0 ** 1023


@pytest.mark.parametrize("matrix", [LATE_OVERFLOW, EARLY_OVERFLOW, SIXTH_BLOCK_OVERFLOW],
                         ids=["late", "early", "sixth-block"])
def test_each_overflow_matrix_alone_exceeds_the_float_range(matrix):
    with pytest.raises(DataError, match="exceeds the float range"):
        leading_eigenpair(matrix)


@pytest.mark.parametrize("stack, index", [
    ([LATE_OVERFLOW, EARLY_OVERFLOW], 1),
    ([EARLY_OVERFLOW, LATE_OVERFLOW], 0),
    ([LATE_OVERFLOW, EARLY_OVERFLOW, EARLY_OVERFLOW], 1),
    # Matrix 2 takes the place that matrix 0 leaves after the first block.
    ([[[1.0, 0.5], [0.5, 1.0]], SIXTH_BLOCK_OVERFLOW, SIXTH_BLOCK_OVERFLOW], 1),
])
def test_overflow_error_names_the_matrix_that_finishes_first(stack, index):
    # Within one block, the first in the stack is named.
    with pytest.raises(DataError, match="exceeds the float range") as excinfo:
        leading_eigenpair(np.array(stack))
    assert excinfo.value.index == index


FAST = np.array([[1.0, 0.5], [0.5, 1.0]])  # finishes at step 1
SLOW = np.array([[1.7, 0.2], [0.3, 1.5]])  # needs 116 steps
SLOWER_LAST = np.array([[1.0, 0.5], [0.2, 1.0]])  # needs 68 steps


@pytest.mark.parametrize("stack", [[FAST, SLOW, FAST], [FAST, SLOW, FAST, SLOWER_LAST]])
def test_iteration_cap_off_the_block_grid(monkeypatch, stack):
    # The error names the first unconverged matrix, with the residual and
    # message given by the one-matrix loop `reference_power_iteration` in
    # test_solver_adversarial.py.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 37)
    with pytest.raises(ConvergenceError) as excinfo:
        leading_eigenpair(np.array(stack))
    error = excinfo.value
    assert (error.iterations, error.index) == (37, 1)
    assert error.residual == 2.695339169695932e-05
    assert str(error) == ("power iteration did not converge within 37 iterations "
                          "(residual 2.695e-05, lambda 1.864570e+00)")


def test_iteration_cap_with_lambda_past_the_float_range(monkeypatch):
    # Scaled back, the unconverged lambda (and its residual) pass the float
    # maximum; the error reports them as inf and still names the matrix.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 1)
    huge = np.array([[1.7, 1.7], [0.3, 1.5]]) * 1e308
    with pytest.raises(ConvergenceError, match="lambda inf") as excinfo:
        leading_eigenpair(np.array([FAST, huge]))
    assert (excinfo.value.iterations, excinfo.value.index) == (1, 1)


def stack_group(matrices, ranks):
    """A `solve_stack` group that writes `matrices` as they join."""
    matrices = np.array(matrices, dtype=float)

    def write(rows, start):
        rows[:] = matrices[start:start + len(rows)]

    return spectral.StackGroup(len(matrices), write, ranks)


def test_an_error_of_a_lower_rank_comes_first_even_when_it_is_found_later(monkeypatch):
    # The negative matrix fails its check as it joins; the slow one of rank
    # 0 fails 64 steps later and is the group's error, as when each rank
    # was solved on its own in rank order.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 64)
    group = stack_group([SLOW, [[0.0, -1.0], [1.0, 0.0]]], [0, 1])
    assert next(spectral.solve_stack([group], np.empty((2, 2, 2)))) is group
    assert isinstance(group.error, ConvergenceError)
    assert (group.error.index, group.error.iterations) == (0, 64)


def test_a_failed_group_stops_joining_and_the_next_keeps_its_bits(monkeypatch):
    # One place in the stack: the slow matrix fails at the cap, so its
    # group's rank-1 matrices never join, and the next group's two matrices
    # join one at a time with the bits each has alone.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 64)
    screened, screen = [], spectral._screen

    def counting(stack):
        screened.append(len(stack))
        return screen(stack)

    monkeypatch.setattr(spectral, "_screen", counting)
    failing = stack_group([SLOW, FAST, FAST], [0, 1, 1])
    passing = stack_group([FAST, 3 * FAST], [0, 0])
    yielded = list(spectral.solve_stack([failing, passing], np.empty((1, 2, 2))))
    assert yielded == [failing, passing]
    assert screened == [1, 1, 1]
    assert (failing.error.index, failing.error.iterations) == (0, 64)
    assert passing.error is None
    assert passing.lambdas.tolist() == [leading_eigenpair(a)[0] for a in (FAST, 3 * FAST)]


@pytest.mark.parametrize("matrix", [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 1.5], [1.5, 1.0]]])
def test_uniform_eigenvector_returns_at_the_first_step(monkeypatch, matrix):
    # The start vector is already the eigenvector, so the first pair passes.
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 1)
    a = np.array(matrix)
    lam, v = leading_eigenpair(a)
    assert lam == pytest.approx(max(abs(np.linalg.eigvals(a))), rel=1e-15)
    assert v == pytest.approx(np.full(2, 1 / math.sqrt(2)), rel=1e-15)


def test_a_stack_decides_a_zero_radius_from_the_lending_pattern():
    two_cycle = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    loop = np.diag([0.0, 0.0, 3.0])
    chain = np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 4.0], [0.0, 0.0, 0.0]])
    three_cycle = np.roll(np.eye(3), 1, axis=1)
    lams, vectors = leading_eigenpair(np.array([two_cycle, chain, loop, three_cycle]))
    assert lams[1] == 0.0
    assert lams == pytest.approx([math.sqrt(2.0), 0.0, 3.0, 1.0], abs=1e-12)
    # Entity 0 alone starts the longest chain.
    assert vectors[1].tolist() == [1.0, 0.0, 0.0]


def test_a_nilpotent_vector_is_spread_evenly_over_the_chain_heads():
    # Entities 0 and 1 both lend to 2 and nobody lends to them; the weights
    # on their links do not enter the vector.
    lam, v = leading_eigenpair(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 9.0], [0.0, 0.0, 0.0]]))
    assert lam == 0.0
    assert v.tolist() == [1 / math.sqrt(2.0), 1 / math.sqrt(2.0), 0.0]


def test_a_matrix_is_left_unchanged_and_a_stack_is_overwritten():
    a = np.array([[0.0, 3.0], [5.0, 0.0]])
    stack = np.array([a, 2 * a])
    lam, v = leading_eigenpair(a)
    assert np.array_equal(a, [[0.0, 3.0], [5.0, 0.0]])
    lams, vectors = leading_eigenpair(stack)
    assert lams.tolist() == [lam, leading_eigenpair(2 * a)[0]]
    assert np.array_equal(vectors[0], v)
    assert not np.array_equal(stack[0], a)


def test_scaling_invariance_of_leading_pair():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = rng.random((6, 6))
        lam, v = leading_eigenpair(a)
        scale = float(rng.random() * 10 + 0.1)
        lam_scaled, v_scaled = leading_eigenpair(scale * a)
        assert lam_scaled == pytest.approx(scale * lam, rel=1e-9)
        assert np.max(np.abs(v_scaled - v)) < 1e-9


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e150, 1e306])
@pytest.mark.parametrize("matrix", [[[0, 1, 0], [0, 0, 2], [3, 0, 0]],
                                    [[0, 3], [5, 0]]], ids=["3-cycle", "2x2"])
def test_leading_pair_at_extreme_scales(matrix, scale):
    a = np.asarray(matrix, dtype=float)
    lam, v = leading_eigenpair(a * scale)
    assert lam == pytest.approx(max(abs(np.linalg.eigvals(a * scale))), rel=1e-8)
    assert np.max(np.abs(v - leading_eigenpair(a)[1])) < 1e-9


def test_perron_vector_is_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        a = rng.random((n, n))
        a[rng.random((n, n)) < 0.5] = 0.0
        if not a.any():
            a[0, 1] = 1.0
        _, v = leading_eigenpair(a)
        assert v.min() >= -1e-12


def test_power_iteration_is_deterministic():
    a = np.random.default_rng(3).random((8, 8))
    lam1, v1 = leading_eigenpair(a)
    lam2, v2 = leading_eigenpair(a)
    assert lam1 == lam2
    assert np.array_equal(v1, v2)


# --- full symmetric spectrum ---------------------------------------------------


def test_full_spectrum_identity():
    eigenvalues, _ = full_spectrum(symmetric_of(np.eye(3)))
    assert eigenvalues.tolist() == [1.0, 1.0, 1.0]


def test_full_spectrum_two_node_exchange():
    eigenvalues, eigenvectors = full_spectrum(symmetric_of([[0, 1], [1, 0]]))
    assert eigenvalues == pytest.approx([1.0, -1.0])
    root_half = 1 / math.sqrt(2)
    assert eigenvectors[0] == pytest.approx([root_half, root_half])
    assert eigenvectors[1] == pytest.approx([root_half, -root_half])


def test_full_spectrum_identities_on_random_4x4():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.random((4, 4))
        a = (m + m.T) / 2
        eigenvalues, _ = full_spectrum(symmetric_of(a))
        assert eigenvalues.sum() == pytest.approx(np.trace(a), rel=1e-8)
        assert (eigenvalues ** 2).sum() == pytest.approx(np.sum(a * a), rel=1e-8)


def test_full_spectrum_of_symmetrized_snapshot_has_zero_trace_sum():
    from flowspectra import symmetrize

    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        weights = rng.random((n, n)) * 100
        np.fill_diagonal(weights, 0.0)
        eigenvalues, _ = full_spectrum(symmetrize(snapshot_of(weights)))
        assert len(eigenvalues) == n
        assert abs(float(eigenvalues.sum())) <= 1e-8


def test_full_spectrum_vectors_are_orthonormal():
    rng = np.random.default_rng(83)
    m = rng.random((12, 12))
    _, eigenvectors = full_spectrum(symmetric_of((m + m.T) / 2))
    gram = eigenvectors @ eigenvectors.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-8
    assert np.all(np.abs(np.linalg.norm(eigenvectors, axis=1) - 1) < 1e-10)


def test_full_spectrum_sign_convention_is_deterministic():
    rng = np.random.default_rng(19)
    m = rng.random((6, 6))
    a = (m + m.T) / 2
    first = full_spectrum(symmetric_of(a))
    second = full_spectrum(symmetric_of(a))
    assert np.array_equal(first[1], second[1])
    for vector in first[1]:
        assert vector[int(np.argmax(np.abs(vector)))] > 0


# --- mean IPR -------------------------------------------------------------------


def mean_ipr_of(matrix):
    return float(np.mean(ipr(full_spectrum(symmetric_of(matrix))[1])))


def test_mean_ipr_two_node_exchange_is_two():
    assert mean_ipr_of([[0, 1], [1, 0]]) == pytest.approx(2.0, rel=1e-12)


def test_mean_ipr_of_identity_basis_is_one():
    assert mean_ipr_of(np.eye(4)) == pytest.approx(1.0, rel=1e-12)


def test_mean_ipr_bounds_over_random_draws():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        m = rng.random((5, 5))
        assert 1.0 - 1e-9 <= mean_ipr_of((m + m.T) / 2) <= 5.0 + 1e-9


def test_ipr_of_a_stack_has_the_bits_of_each_row():
    rng = np.random.default_rng(61)
    for n in (1, 2, 7, 8, 9, 31, 130, 257):
        m = rng.random((n, n))
        _, eigenvectors = full_spectrum((m + m.T) / 2)
        for stack in (eigenvectors, eigenvectors[::-1], eigenvectors[:, ::-1],
                      np.asfortranarray(eigenvectors)):
            iprs = ipr(stack)
            assert iprs.shape == (n,)
            assert [float(x) for x in iprs] == [ipr(row) for row in stack]
            assert all(type(ipr(row)) is float for row in stack)


def test_ipr_of_a_stack_checks_every_row():
    stack = np.eye(3)
    stack[2] *= 1.5
    with pytest.raises(DataError, match=r"unit-normalized \(L2 norm 1\.5\)"):
        ipr(stack)


@pytest.mark.parametrize("function", [full_spectrum, distance_matrix])
@pytest.mark.parametrize("matrix, message", [
    ([[0.0, 1.0], [2.0, 0.0]], "^matrix is not exactly symmetric$"),
    (np.ones((2, 3)), r"square matrix, got shape \(2, 3\)"),
    (np.ones(3), r"square matrix, got shape \(3,\)"),
    (np.ones((0, 0)), r"square matrix, got shape \(0, 0\)"),
    ([[np.nan, 1.0], [1.0, 0.0]], "^matrix must be finite$"),
    ([[0.0, np.inf], [np.inf, 0.0]], "^matrix must be finite$"),
    ([[0.0, -np.inf], [1.0, 0.0]], "^matrix must be finite$"),
], ids=["asymmetric", "non-square", "1-D", "empty", "nan", "inf", "inf-asymmetric"])
def test_symmetric_matrix_input_is_checked(function, matrix, message):
    with pytest.raises(DataError, match=message):
        function(np.asarray(matrix))


def test_spectral_and_cluster_do_not_import_network():
    for module in (spectral, cluster):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any("network" in name.split(".") for name in imported), module.__name__

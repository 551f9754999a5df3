import math

import numpy as np
import pytest

from flowspectra import (
    DataError,
    NetworkSnapshot,
    SymmetricMatrix,
    full_spectrum,
    ipr,
    leading_eigenpair,
    mean_ipr,
    participation_percent,
    power_iteration,
)


def snapshot_of(matrix):
    weights = np.asarray(matrix, dtype=float)
    names = tuple(f"E{i:02d}" for i in range(weights.shape[0]))
    return NetworkSnapshot("2000-Q1", names, weights)


def symmetric_of(matrix):
    values = np.asarray(matrix, dtype=float)
    names = tuple(f"E{i:02d}" for i in range(values.shape[0]))
    return SymmetricMatrix(names, values)


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
    lam, v = leading_eigenpair(snapshot_of([[0, 1], [1, 0]]))
    assert lam == pytest.approx(1.0, rel=1e-12)
    assert v == pytest.approx(np.full(2, 1 / math.sqrt(2)), abs=1e-10)


def test_leading_pair_periodic_two_cycle():
    # characteristic polynomial lambda^2 - 6 = 0
    lam, _ = leading_eigenpair(snapshot_of([[0, 2], [3, 0]]))
    assert lam == pytest.approx(math.sqrt(6), rel=1e-12)


def test_leading_pair_matches_dense_solver_on_random_matrices():
    rng = np.random.default_rng(77)
    for _ in range(100):
        a = rng.random((5, 5))
        lam, v = power_iteration(a)
        rho = float(np.max(np.abs(np.linalg.eigvals(a))))
        assert lam == pytest.approx(rho, rel=1e-8)
        assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * lam


def test_leading_pair_rejects_zero_matrix():
    with pytest.raises(DataError, match="no nonzero"):
        leading_eigenpair(snapshot_of(np.zeros((3, 3))))


def test_power_iteration_rejects_negative_entries():
    with pytest.raises(DataError, match="nonnegative"):
        power_iteration(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_radius_beyond_float_range_is_data_error():
    a = np.full((31, 31), 1e307)
    np.fill_diagonal(a, 0.0)
    with pytest.raises(DataError, match="exceeds the float range"):
        power_iteration(a)


def test_weights_that_underflow_when_scaled_are_data_error():
    # eigvals gives radius 1, but scaling 1e200 into [0.5, 1) turns 1e-200 into 0,
    # which would leave a nilpotent matrix and a radius of 0.
    with pytest.raises(DataError, match="positive weights underflow to 0"):
        power_iteration(np.array([[0.0, 1e200], [1e-200, 0.0]]))


def test_nilpotent_matrix_has_zero_radius_and_exact_pair():
    lam, v = power_iteration(np.array([[0.0, 7.0], [0.0, 0.0]]))
    assert lam == 0.0
    assert np.linalg.norm(np.array([[0.0, 7.0], [0.0, 0.0]]) @ v) == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_scaling_invariance_of_leading_pair():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = rng.random((6, 6))
        lam, v = power_iteration(a)
        scale = float(rng.random() * 10 + 0.1)
        lam_scaled, v_scaled = power_iteration(scale * a)
        assert lam_scaled == pytest.approx(scale * lam, rel=1e-9)
        assert np.max(np.abs(v_scaled - v)) < 1e-9


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e150, 1e306])
@pytest.mark.parametrize("matrix", [[[0, 1, 0], [0, 0, 2], [3, 0, 0]],
                                    [[0, 3], [5, 0]]], ids=["3-cycle", "2x2"])
def test_leading_pair_at_extreme_scales(matrix, scale):
    a = np.asarray(matrix, dtype=float)
    lam, v = power_iteration(a * scale)
    assert lam == pytest.approx(max(abs(np.linalg.eigvals(a * scale))), rel=1e-8)
    assert np.max(np.abs(v - power_iteration(a)[1])) < 1e-9


def test_perron_vector_is_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        a = rng.random((n, n))
        a[rng.random((n, n)) < 0.5] = 0.0
        if not a.any():
            a[0, 1] = 1.0
        _, v = power_iteration(a)
        assert v.min() >= -1e-12


def test_power_iteration_is_deterministic():
    a = np.random.default_rng(3).random((8, 8))
    lam1, v1 = power_iteration(a)
    lam2, v2 = power_iteration(a)
    assert lam1 == lam2
    assert np.array_equal(v1, v2)


# --- full symmetric spectrum ---------------------------------------------------


def test_full_spectrum_identity():
    summary = full_spectrum(symmetric_of(np.eye(3)))
    assert summary.eigenvalues.tolist() == [1.0, 1.0, 1.0]


def test_full_spectrum_two_node_exchange():
    summary = full_spectrum(symmetric_of([[0, 1], [1, 0]]))
    assert summary.eigenvalues == pytest.approx([1.0, -1.0])
    root_half = 1 / math.sqrt(2)
    assert summary.eigenvectors[0] == pytest.approx([root_half, root_half])
    assert summary.eigenvectors[1] == pytest.approx([root_half, -root_half])


def test_full_spectrum_identities_on_random_4x4():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.random((4, 4))
        a = (m + m.T) / 2
        summary = full_spectrum(symmetric_of(a))
        assert summary.eigenvalues.sum() == pytest.approx(np.trace(a), rel=1e-8)
        assert (summary.eigenvalues ** 2).sum() == pytest.approx(
            np.sum(a * a), rel=1e-8)


def test_full_spectrum_of_symmetrized_snapshot_has_zero_trace_sum():
    from flowspectra import symmetrize

    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        weights = rng.random((n, n)) * 100
        np.fill_diagonal(weights, 0.0)
        summary = full_spectrum(symmetrize(snapshot_of(weights)))
        assert len(summary.eigenvalues) == n
        assert abs(float(summary.eigenvalues.sum())) <= 1e-8


def test_full_spectrum_vectors_are_orthonormal():
    rng = np.random.default_rng(83)
    m = rng.random((12, 12))
    summary = full_spectrum(symmetric_of((m + m.T) / 2))
    gram = summary.eigenvectors @ summary.eigenvectors.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-8
    assert np.all(np.abs(np.linalg.norm(summary.eigenvectors, axis=1) - 1) < 1e-10)


def test_full_spectrum_sign_convention_is_deterministic():
    rng = np.random.default_rng(19)
    m = rng.random((6, 6))
    a = (m + m.T) / 2
    first = full_spectrum(symmetric_of(a))
    second = full_spectrum(symmetric_of(a))
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for vector in first.eigenvectors:
        assert vector[int(np.argmax(np.abs(vector)))] > 0


# --- mean IPR -------------------------------------------------------------------


def test_mean_ipr_two_node_exchange_is_two():
    summary = full_spectrum(symmetric_of([[0, 1], [1, 0]]))
    assert mean_ipr(summary) == pytest.approx(2.0, rel=1e-12)


def test_mean_ipr_of_identity_basis_is_one():
    summary = full_spectrum(symmetric_of(np.eye(4)))
    assert mean_ipr(summary) == pytest.approx(1.0, rel=1e-12)


def test_mean_ipr_bounds_over_random_draws():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        m = rng.random((5, 5))
        summary = full_spectrum(symmetric_of((m + m.T) / 2))
        assert 1.0 - 1e-9 <= mean_ipr(summary) <= 5.0 + 1e-9

import math

import numpy as np
import pytest

from flowspectra import (
    DataError,
    MODE_LINK_SHUFFLE,
    MODE_WEIGHT_PERMUTE,
    NetworkSnapshot,
    build_snapshot,
    generate_synthetic,
    leading_eigenpair,
    null_ensemble,
    shuffle_snapshot,
    total_volume,
)


def snapshot_of(matrix, period="2000-Q1"):
    weights = np.asarray(matrix, dtype=float)
    names = tuple(f"E{i:02d}" for i in range(weights.shape[0]))
    return NetworkSnapshot(period, names, weights)


def random_snapshot(rng):
    n = int(rng.integers(2, 13))
    weights = rng.random((n, n)) * (rng.random() * 1e4 + 1)
    weights[rng.random((n, n)) < rng.uniform(0.1, 0.9)] = 0.0
    np.fill_diagonal(weights, 0.0)
    if not weights.any():
        weights[0, 1] = 1.0
    return snapshot_of(weights)


def test_single_edge_link_shuffle_keeps_the_weight():
    single = snapshot_of([[0.0, 7.0], [0.0, 0.0]])
    shuffled = shuffle_snapshot(single, seed=4, mode=MODE_LINK_SHUFFLE)
    assert shuffled.edge_count == 1
    assert total_volume(shuffled) == 7.0
    assert np.all(np.diagonal(shuffled.weights) == 0)


def test_weight_permute_preserves_topology():
    rng = np.random.default_rng(9)
    weights = rng.random((5, 5)) + 0.1
    np.fill_diagonal(weights, 0.0)
    snapshot = snapshot_of(weights)
    shuffled = shuffle_snapshot(snapshot, seed=2, mode=MODE_WEIGHT_PERMUTE)
    assert np.array_equal(shuffled.weights != 0, snapshot.weights != 0)
    assert np.array_equal(np.sort(shuffled.weights[shuffled.weights > 0]),
                          np.sort(snapshot.weights[snapshot.weights > 0]))


@pytest.mark.parametrize("mode", [MODE_LINK_SHUFFLE, MODE_WEIGHT_PERMUTE])
def test_shuffle_same_seed_replays_and_next_seed_differs(mode):
    rng = np.random.default_rng(1)
    snapshot = random_snapshot(rng)
    first = shuffle_snapshot(snapshot, seed=123, mode=mode)
    again = shuffle_snapshot(snapshot, seed=123, mode=mode)
    assert np.array_equal(first.weights, again.weights)
    differing = any(
        not np.array_equal(shuffle_snapshot(snapshot, seed=124 + k, mode=mode).weights,
                           first.weights)
        for k in range(5)
    )
    if snapshot.edge_count > 1 or mode == MODE_LINK_SHUFFLE:
        assert differing


@pytest.mark.parametrize("mode", [MODE_LINK_SHUFFLE, MODE_WEIGHT_PERMUTE])
def test_shuffle_preserves_weight_multiset_bitwise(mode):
    rng = np.random.default_rng(50)
    for k in range(100):
        snapshot = random_snapshot(rng)
        shuffled = shuffle_snapshot(snapshot, seed=k, mode=mode)
        assert np.array_equal(
            np.sort(shuffled.weights[shuffled.weights > 0]),
            np.sort(snapshot.weights[snapshot.weights > 0]))
        assert shuffled.edge_count == snapshot.edge_count
        assert np.all(np.diagonal(shuffled.weights) == 0)


def test_shuffle_rejects_bad_inputs():
    snapshot = snapshot_of([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DataError, match="mode"):
        shuffle_snapshot(snapshot, seed=1, mode="scramble")
    empty = snapshot_of(np.zeros((3, 3)))
    with pytest.raises(DataError, match="no edges"):
        shuffle_snapshot(empty, seed=1)
    with pytest.raises(DataError, match="seed"):
        shuffle_snapshot(snapshot, seed=-5)


def test_ensemble_of_one_sample_has_zero_std():
    stats = null_ensemble(snapshot_of([[0.0, 2.0], [1.0, 0.0]]), 1, seed=8)
    assert stats.n_samples == 1
    assert stats.std == 0.0
    assert stats.mean == stats.lambda_values[0]
    assert stats.q01 == stats.q50 == stats.q99 == stats.mean


def test_two_by_two_null_is_constant_sqrt15():
    # Only two placements exist for two weights on a 2-entity digraph, and
    # both give lambda^2 = 15.
    stats = null_ensemble(snapshot_of([[0.0, 3.0], [5.0, 0.0]]), 40, seed=6)
    assert len(set(stats.lambda_values)) == 1
    assert stats.lambda_values[0] == pytest.approx(math.sqrt(15), rel=1e-10)
    assert stats.std == 0.0
    assert stats.mean == stats.lambda_values[0]


def test_ensemble_replays_identically():
    rng = np.random.default_rng(3)
    snapshot = random_snapshot(rng)
    first = null_ensemble(snapshot, 25, seed=77, mode=MODE_LINK_SHUFFLE)
    again = null_ensemble(snapshot, 25, seed=77, mode=MODE_LINK_SHUFFLE)
    assert first == again
    other = null_ensemble(snapshot, 25, seed=78, mode=MODE_LINK_SHUFFLE)
    assert first.lambda_values != other.lambda_values


def test_ensemble_stats_recomputable_from_values():
    rng = np.random.default_rng(15)
    stats = null_ensemble(random_snapshot(rng), 30, seed=5)
    values = np.sort(np.asarray(stats.lambda_values))
    assert stats.mean == pytest.approx(values.mean(), rel=1e-12)
    assert stats.std == pytest.approx(values.std(), abs=1e-12)
    assert stats.q50 == pytest.approx(np.quantile(values, 0.5), rel=1e-12)


def test_ensemble_rejects_bad_sample_count():
    with pytest.raises(DataError, match="n_samples"):
        null_ensemble(snapshot_of([[0.0, 1.0], [1.0, 0.0]]), 0, seed=1)
    with pytest.raises(DataError, match="spectrum mode"):
        null_ensemble(snapshot_of([[0.0, 1.0], [1.0, 0.0]]), 1, seed=1,
                      spectrum_mode="bogus")


def test_core_periphery_structure_beats_null():
    records = generate_synthetic(5, 15, 100.0, 1.0, 0.2, seed=12)
    snapshot = build_snapshot(records, records.periods[0])
    lam, _ = leading_eigenpair(snapshot)
    stats = null_ensemble(snapshot, 200, seed=99, mode=MODE_LINK_SHUFFLE)
    assert lam > stats.q99


def test_stats_json_payload():
    stats = null_ensemble(snapshot_of([[0.0, 3.0], [5.0, 0.0]]), 3, seed=2)
    payload = stats.to_json()
    assert "lambda_values" not in payload
    assert payload["mode"] == MODE_LINK_SHUFFLE
    full = stats.to_json(include_lambda_values=True)
    assert full["lambda_values"] == list(stats.lambda_values)

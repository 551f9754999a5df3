import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flowspectra import (
    ConvergenceError,
    DataError,
    MODE_LINK_SHUFFLE,
    MODE_SYMMETRIZED,
    MODE_WEIGHT_PERMUTE,
    NetworkSnapshot,
    build_snapshot,
    generate_synthetic,
    leading_eigenpair,
    null_ensemble,
    shuffle_snapshot,
    symmetrize,
    total_volume,
)
from flowspectra import nullmodel, spectral
from flowspectra.spectral import MODE_DIRECTED


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


TWO = [[0, 3], [5, 0]]
SPARSE = [[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3], [4, 0, 5, 0]]
DENSE = [[0 if i == j else 5 * i + j + 1 for j in range(5)] for i in range(5)]  # E = n(n-1)

# Surrogates recorded from an earlier release. A change to the draw from
# default_rng(seed) or to the slot -> (row, col) mapping changes every
# replica of every run, so it must show up here and be declared.
PINNED_REPLICAS = [
    (TWO, MODE_LINK_SHUFFLE, 0, [[0, 3], [5, 0]]),
    (TWO, MODE_LINK_SHUFFLE, 2, [[0, 5], [3, 0]]),
    (TWO, MODE_WEIGHT_PERMUTE, 2, [[0, 3], [5, 0]]),
    (TWO, MODE_WEIGHT_PERMUTE, 3, [[0, 5], [3, 0]]),
    (SPARSE, MODE_LINK_SHUFFLE, 0, [[0, 0, 0, 3], [4, 0, 0, 1], [5, 0, 0, 0], [2, 0, 0, 0]]),
    (SPARSE, MODE_LINK_SHUFFLE, 2, [[0, 0, 2, 4], [1, 0, 5, 0], [3, 0, 0, 0], [0, 0, 0, 0]]),
    (SPARSE, MODE_LINK_SHUFFLE, 3, [[0, 3, 1, 4], [0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 5, 0]]),
    (SPARSE, MODE_WEIGHT_PERMUTE, 0, [[0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 4], [1, 0, 2, 0]]),
    (SPARSE, MODE_WEIGHT_PERMUTE, 3, [[0, 5, 0, 0], [0, 0, 3, 0], [0, 0, 0, 2], [4, 0, 1, 0]]),
    (DENSE, MODE_LINK_SHUFFLE, 0, [[0, 20, 10, 5, 3], [4, 0, 23, 6, 16], [14, 11, 0, 2, 21],
                                   [17, 12, 22, 0, 15], [9, 8, 24, 18, 0]]),
    (DENSE, MODE_LINK_SHUFFLE, 3, [[0, 2, 14, 24, 3], [4, 0, 9, 18, 22], [23, 10, 0, 8, 12],
                                   [6, 11, 17, 0, 21], [16, 15, 20, 5, 0]]),
    (DENSE, MODE_WEIGHT_PERMUTE, 0, [[0, 6, 24, 9, 4], [17, 0, 21, 5, 15], [14, 11, 0, 2, 16],
                                     [10, 8, 23, 0, 22], [18, 12, 3, 20, 0]]),
    (DENSE, MODE_WEIGHT_PERMUTE, 2, [[0, 9, 23, 10, 14], [4, 0, 15, 2, 22], [24, 21, 0, 12, 16],
                                     [8, 20, 17, 0, 18], [5, 6, 11, 3, 0]]),
]


@pytest.mark.parametrize("matrix, mode, seed, expected", PINNED_REPLICAS)
def test_replica_stream_is_pinned(matrix, mode, seed, expected):
    shuffled = shuffle_snapshot(snapshot_of(matrix), seed, mode)
    assert np.array_equal(shuffled.weights, np.asarray(expected, dtype=float))


# Later replicas of the streams pinned above (their replica 0 is a row of
# PINNED_REPLICAS): a change to the order in which one generator's draws
# become replicas must show up here.
PINNED_LATER_REPLICAS = [
    (SPARSE, MODE_LINK_SHUFFLE, 2, 1, [[0, 0, 0, 5], [0, 0, 4, 0], [0, 3, 0, 0], [1, 2, 0, 0]]),
    (SPARSE, MODE_LINK_SHUFFLE, 2, 3, [[0, 0, 0, 4], [0, 0, 3, 1], [0, 5, 0, 2], [0, 0, 0, 0]]),
    (DENSE, MODE_WEIGHT_PERMUTE, 2, 1, [[0, 8, 15, 18, 9], [5, 0, 23, 10, 24], [12, 16, 0, 6, 14],
                                        [20, 2, 21, 0, 22], [11, 17, 3, 4, 0]]),
    (DENSE, MODE_WEIGHT_PERMUTE, 2, 3, [[0, 10, 4, 6, 14], [23, 0, 8, 20, 21], [24, 11, 0, 12, 18],
                                        [22, 17, 5, 0, 15], [16, 2, 3, 9, 0]]),
]


@pytest.mark.parametrize("matrix, mode, seed, replica, expected", PINNED_LATER_REPLICAS)
def test_later_replicas_of_a_stream_are_pinned(matrix, mode, seed, replica, expected):
    shuffled = shuffle_snapshot(snapshot_of(matrix), seed, mode, replica)
    assert np.array_equal(shuffled.weights, np.asarray(expected, dtype=float))


def test_ensemble_shuffles_without_building_snapshots(monkeypatch):
    # The replicas go straight into the solver's stack: one edge lookup per
    # ensemble and no per-replica snapshot (or its validation).
    snapshot = snapshot_of(SPARSE)
    expected = null_ensemble(snapshot, 20, seed=4, spectrum_mode=MODE_SYMMETRIZED)

    def no_snapshot(*args, **kwargs):
        raise AssertionError("null_ensemble built a NetworkSnapshot")

    calls = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(nullmodel, "NetworkSnapshot", no_snapshot)
    monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or flatnonzero(a))
    assert null_ensemble(snapshot, 20, seed=4, spectrum_mode=MODE_SYMMETRIZED) == expected
    assert len(calls) == 1


def test_shuffle_rejects_bad_inputs():
    snapshot = snapshot_of([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DataError, match="mode"):
        shuffle_snapshot(snapshot, seed=1, mode="scramble")
    empty = snapshot_of(np.zeros((3, 3)))
    with pytest.raises(DataError, match="no edges"):
        shuffle_snapshot(empty, seed=1)
    with pytest.raises(DataError, match="seed"):
        shuffle_snapshot(snapshot, seed=-5)
    with pytest.raises(DataError, match="replica"):
        shuffle_snapshot(snapshot, seed=1, replica=-1)


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
    assert [stats.q01, stats.q50, stats.q99] == np.quantile(values, [0.01, 0.5, 0.99]).tolist()


LAMBDAS = st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(LAMBDAS, min_size=1, max_size=400),
    # Few distinct values: ties, and constant runs down to one value.
    st.lists(LAMBDAS, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=400)),
))
def test_quantiles_equal_numpys_bit_for_bit(lambda_values):
    def drawn(groups, stack):
        for group in groups:
            group.lambdas[:] = lambda_values
            yield group

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nullmodel, "solve_stack", drawn)
        stats = null_ensemble(snapshot_of([[0.0, 1.0], [2.0, 0.0]]), len(lambda_values), seed=3)
    assert stats.lambda_values == tuple(lambda_values)
    expected = np.quantile(lambda_values, [0.01, 0.5, 0.99]).tolist()
    assert [stats.q01, stats.q50, stats.q99] == expected


def test_ensemble_rejects_bad_sample_count():
    with pytest.raises(DataError, match="n_samples"):
        null_ensemble(snapshot_of([[0.0, 1.0], [1.0, 0.0]]), 0, seed=1)
    with pytest.raises(DataError, match="spectrum mode"):
        null_ensemble(snapshot_of([[0.0, 1.0], [1.0, 0.0]]), 1, seed=1,
                      spectrum_mode="bogus")


def test_ensemble_rejects_a_negative_seed():
    with pytest.raises(DataError, match="seed"):
        null_ensemble(snapshot_of([[0.0, 1.0], [1.0, 0.0]]), 5, seed=-1)


def test_core_periphery_structure_beats_null():
    records = generate_synthetic(5, 15, 100.0, 1.0, 0.2, seed=12)
    snapshot = build_snapshot(records, records.periods[0])
    lam, _ = leading_eigenpair(snapshot.weights)
    stats = null_ensemble(snapshot, 200, seed=99, mode=MODE_LINK_SHUFFLE)
    assert lam > stats.q99


@pytest.mark.parametrize("spectrum_mode, mode", [
    # The default null mode keeps the bare spectrum-mode id.
    pytest.param(spectrum, mode,
                 id=spectrum if mode == MODE_LINK_SHUFFLE else f"{spectrum}-{mode}")
    for spectrum in (MODE_DIRECTED, MODE_SYMMETRIZED)
    for mode in (MODE_LINK_SHUFFLE, MODE_WEIGHT_PERMUTE)
])
def test_each_stacked_replica_equals_its_own_solve(monkeypatch, spectrum_mode, mode):
    # A replica's lambda must not depend on the other matrices of its stack
    # or on where the chunks split the stream, and replica k of a seed's
    # stream is the same however many follow it.
    records = generate_synthetic(6, 25, 100.0, 1.0, 0.1, seed=3)
    snapshot = build_snapshot(records, records.periods[0])
    matrix_bytes = 8 * snapshot.n_entities ** 2
    assert nullmodel._CHUNK_BYTES // matrix_bytes >= 100  # one chunk holds them all
    whole = null_ensemble(snapshot, 100, seed=41, mode=mode, spectrum_mode=spectrum_mode)
    for per_chunk in (1, 3):
        monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", per_chunk * matrix_bytes)
        chunked = null_ensemble(snapshot, 100, seed=41, mode=mode, spectrum_mode=spectrum_mode)
        assert chunked == whole
    small = null_ensemble(snapshot, 13, seed=41, mode=mode, spectrum_mode=spectrum_mode)
    assert small.lambda_values == whole.lambda_values[:13]
    for k, lam in enumerate(small.lambda_values):  # replicas 3 .. 12 follow a chunk boundary
        replica = shuffle_snapshot(snapshot, 41, mode, replica=k)
        if spectrum_mode == MODE_SYMMETRIZED:
            alone = float(np.linalg.eigvalsh(symmetrize(replica))[-1])
        else:
            alone, _ = leading_eigenpair(replica.weights)
        assert lam == alone


@pytest.mark.parametrize("mode", [MODE_LINK_SHUFFLE, MODE_WEIGHT_PERMUTE])
@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 8), matrix_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1), replica=st.integers(0, 7), data=st.data())
def test_a_relabelled_replica_solved_alone_replays_its_null_value(
        mode, n, matrix_seed, seed, replica, data):
    # Replica k with its entities renamed is still one matrix to the solver,
    # which orders entities by (row max, column max): when those keys are
    # distinct, it must get the bits that the ensemble's stack gave replica k.
    weights = np.random.default_rng(matrix_seed).random((n, n)) * 1e3 + 1.0
    np.fill_diagonal(weights, 0.0)
    snapshot = snapshot_of(weights)
    a = shuffle_snapshot(snapshot, seed, mode, replica=replica).weights
    assume(len(set(zip(a.max(axis=1), a.max(axis=0)))) == n)
    order = data.draw(st.permutations(range(n)))
    alone, _ = leading_eigenpair(a[np.ix_(order, order)])
    assert alone == null_ensemble(snapshot, 8, seed, mode).lambda_values[replica]


@pytest.mark.parametrize("spectrum_mode", [MODE_DIRECTED, MODE_SYMMETRIZED])
def test_null_memory_is_bounded_by_the_chunk_budget(monkeypatch, spectrum_mode):
    # 100 replicas of a 200-entity quarter fill 32 MB, yet the null may hold
    # only one 1 MiB chunk, its overlap copy when symmetrizing, and O(N^2)
    # solver temporaries. One (R, N, N) stack of them peaked at 56 MB
    # (directed) and 96 MB (symmetrized). The work stack is mapped outside
    # the heap, where tracemalloc does not see it, so its size is added.
    stacks, make = [], nullmodel.work_stack

    def recorded(n, count):
        stacks.append(make(n, count))
        return stacks[-1]

    monkeypatch.setattr(nullmodel, "work_stack", recorded)
    rng = np.random.default_rng(23)
    weights = rng.lognormal(size=(200, 200))
    weights[rng.random((200, 200)) >= rng.uniform(0.2, 0.4)] = 0.0
    np.fill_diagonal(weights, 0.0)
    snapshot = NetworkSnapshot("2000-Q1", tuple(f"E{i:03d}" for i in range(200)), weights)
    tracemalloc.start()
    try:
        stats = null_ensemble(snapshot, 100, seed=8, spectrum_mode=spectrum_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n_samples == 100
    assert len(stacks) == 1
    assert peak + stacks[0].nbytes < 4 * 2 ** 20


def test_a_solver_error_in_a_later_chunk_names_its_replica(monkeypatch):
    snapshot = snapshot_of(DENSE)
    calls = []
    screen = spectral._screen

    def stuck_on_third_chunk(stack):  # each part of the stack is screened as it joins
        calls.append(len(stack))
        exponents, failures = screen(stack)
        if len(calls) == 3:
            failures.append((0, 0, ConvergenceError("stuck", residual=0.5, iterations=11)))
        return exponents, failures

    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", 8 * snapshot.n_entities ** 2)
    monkeypatch.setattr(spectral, "_screen", stuck_on_third_chunk)
    with pytest.raises(ConvergenceError, match="^replica 2: stuck$") as excinfo:
        null_ensemble(snapshot, 5, seed=1)
    assert excinfo.value.index == 2
    assert (excinfo.value.residual, excinfo.value.iterations) == (0.5, 11)
    assert calls == [1, 1, 1]

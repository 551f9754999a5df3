import numpy as np
import pytest

from flowspectra import (
    DataError,
    NetworkSnapshot,
    build_snapshot,
    density,
    generate_synthetic,
    parse_flow_csv,
    snapshot_to_flow_csv,
    symmetrize,
    total_volume,
    volume_share,
)

HEADER = "period,reporter,counterparty,amount"


def two_node_records():
    return parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,3\n2008-Q3,B,A,5")


def test_build_two_node_matrix():
    snapshot = build_snapshot(two_node_records(), "2008-Q3")
    assert snapshot.entities == ("A", "B")
    assert snapshot.weights.tolist() == [[0.0, 3.0], [5.0, 0.0]]


def test_build_sums_duplicate_relations():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,3\n2008-Q3,A,B,4")
    snapshot = build_snapshot(records, "2008-Q3")
    assert snapshot.weights[0, 1] == 7.0


def test_build_uses_global_roster():
    records = parse_flow_csv(
        f"{HEADER}\n2008-Q3,A,B,2\n2008-Q4,B,C,1\n2008-Q4,C,A,1"
    )
    snapshot = build_snapshot(records, "2008-Q3")
    assert snapshot.entities == ("A", "B", "C")
    assert snapshot.weights.shape == (3, 3)
    assert np.count_nonzero(snapshot.weights) == 1


def test_build_rejects_unknown_period():
    with pytest.raises(DataError, match="unknown period"):
        build_snapshot(two_node_records(), "1999-Q1")


def test_build_is_permutation_stable():
    text = f"{HEADER}\n2008-Q3,A,B,1\n2008-Q3,B,C,2\n2008-Q3,C,A,3"
    reordered = f"{HEADER}\n2008-Q3,C,A,3\n2008-Q3,A,B,1\n2008-Q3,B,C,2"
    a = build_snapshot(parse_flow_csv(text), "2008-Q3")
    b = build_snapshot(parse_flow_csv(reordered), "2008-Q3")
    assert np.array_equal(a.weights, b.weights)


def test_snapshot_invariants_reject_bad_matrices():
    with pytest.raises(DataError):
        NetworkSnapshot("2008-Q3", ("A", "B"), np.array([[1.0, 2.0], [3.0, 0.0]]))
    with pytest.raises(DataError):
        NetworkSnapshot("2008-Q3", ("A", "B"), np.array([[0.0, -2.0], [3.0, 0.0]]))
    with pytest.raises(DataError):
        NetworkSnapshot("2008-Q3", ("B", "A"), np.zeros((2, 2)))
    with pytest.raises(DataError, match="at least 2 entities"):
        NetworkSnapshot("2008-Q3", ("A",), np.zeros((1, 1)))
    with pytest.raises(DataError, match=r"weights must be 2x2, got \(2, 3\)"):
        NetworkSnapshot("2008-Q3", ("A", "B"), np.zeros((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="weights must be finite"):
            NetworkSnapshot("2008-Q3", ("A", "B"), np.array([[0.0, bad], [3.0, 0.0]]))
    with pytest.raises(DataError, match="2008-Q3: total volume overflows"):
        NetworkSnapshot("2008-Q3", ("A", "B", "C"),
                        np.array([[0.0, 1e308, 1.5e308], [0.0] * 3, [0.0] * 3]))


def test_symmetrize_examples():
    snapshot = build_snapshot(two_node_records(), "2008-Q3")
    sym = symmetrize(snapshot)
    assert sym.tolist() == [[0.0, 4.0], [4.0, 0.0]]

    already = NetworkSnapshot("2008-Q3", ("A", "B"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.array_equal(symmetrize(already), already.weights)

    zero = NetworkSnapshot("2008-Q3", ("A", "B"), np.zeros((2, 2)))
    assert np.array_equal(symmetrize(zero), np.zeros((2, 2)))


def test_symmetrize_preserves_total_volume():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        weights = rng.random((n, n)) * 100
        np.fill_diagonal(weights, 0.0)
        snapshot = NetworkSnapshot("2000-Q1", tuple(f"E{i:02d}" for i in range(n)), weights)
        assert float(symmetrize(snapshot).sum()) == pytest.approx(
            total_volume(snapshot), rel=1e-12)


def test_total_volume_examples():
    assert total_volume(build_snapshot(two_node_records(), "2008-Q3")) == 8.0
    zero = NetworkSnapshot("2008-Q3", ("A", "B"), np.zeros((2, 2)))
    assert total_volume(zero) == 0.0


def test_total_volume_matches_emitted_records():
    records = generate_synthetic(2, 0, 10.0, 1.0, 0.0, seed=3)
    snapshot = build_snapshot(records, records.periods[0])
    assert total_volume(snapshot) == pytest.approx(
        sum(records.amounts.tolist()), rel=1e-12)


def test_density_examples():
    assert density(build_snapshot(two_node_records(), "2008-Q3")) == 1.0
    half = NetworkSnapshot("2008-Q3", ("A", "B"), np.array([[0.0, 3.0], [0.0, 0.0]]))
    assert density(half) == 0.5
    zero5 = NetworkSnapshot("2008-Q3", tuple("ABCDE"), np.zeros((5, 5)))
    assert density(zero5) == 0.0


def test_volume_share_examples():
    assert volume_share(build_snapshot(two_node_records(), "2008-Q3")).tolist() == [50.0, 50.0]
    one_way = NetworkSnapshot("2008-Q3", ("A", "B"), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert volume_share(one_way).tolist() == [50.0, 50.0]
    padded = NetworkSnapshot("2008-Q3", ("A", "B", "C"),
                             np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert volume_share(padded)[2] == 0.0


def test_volume_share_rejects_zero_volume():
    zero = NetworkSnapshot("2008-Q3", ("A", "B"), np.zeros((2, 2)))
    with pytest.raises(DataError, match="zero total volume"):
        volume_share(zero)


def test_share_sums_and_matrix_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 15))
        weights = rng.random((n, n)) * (rng.random() * 1e5 + 1)
        weights[rng.random((n, n)) < 0.4] = 0.0
        np.fill_diagonal(weights, 0.0)
        if not weights.any():
            weights[0, 1] = 1.0
        snapshot = NetworkSnapshot("2000-Q1", tuple(f"E{i:02d}" for i in range(n)), weights)
        assert snapshot.weights.min() >= 0
        assert np.trace(snapshot.weights) == 0.0
        assert abs(volume_share(snapshot).sum() - 100.0) < 1e-9


def test_snapshot_flow_csv_rebuilds_same_matrix():
    snapshot = build_snapshot(two_node_records(), "2008-Q3")
    records = parse_flow_csv(snapshot_to_flow_csv(snapshot))
    rebuilt = build_snapshot(records, "2008-Q3")
    assert np.array_equal(rebuilt.weights, snapshot.weights)


@pytest.mark.parametrize("idle", [[0], [2], [0, 3], [0, 1, 2, 3]], ids=str)
def test_snapshot_flow_csv_keeps_entities_without_links(idle):
    weights = np.arange(16.0).reshape(4, 4)
    np.fill_diagonal(weights, 0.0)
    weights[idle, :] = weights[:, idle] = 0.0
    snapshot = NetworkSnapshot("2008-Q3", ("A", "B", "C", "D"), weights)
    text = snapshot_to_flow_csv(snapshot)
    for entity in idle:
        other = "B" if entity == 0 else "A"
        assert f"2008-Q3,{'ABCD'[entity]},{other},0.0\n" in text
    rebuilt = build_snapshot(parse_flow_csv(text), "2008-Q3")
    assert rebuilt.entities == snapshot.entities
    assert rebuilt.weights.tobytes() == snapshot.weights.tobytes()

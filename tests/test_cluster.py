from itertools import combinations

import numpy as np
import pytest

from flowspectra import (
    DataError,
    Dendrogram,
    Merge,
    agglomerate,
    build_snapshot,
    cluster,
    dendrogram_to_json,
    distance_matrix,
    generate_synthetic_series,
    leaf_order,
    symmetrize,
    to_newick,
)
from flowspectra.cluster import LINKAGES


def symmetric_of(matrix):
    return np.asarray(matrix, dtype=float)


THREE_NODE = np.array([
    [0.0, 0.1, 0.8],
    [0.1, 0.0, 0.6],
    [0.8, 0.6, 0.0],
])


def test_distance_single_pair_is_zero():
    distances = distance_matrix(symmetric_of([[0.0, 4.0], [4.0, 0.0]]))
    assert distances.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_distance_linear_rescale():
    weights = symmetric_of([[0.0, 4.0, 2.0], [4.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    distances = distance_matrix(weights)
    assert distances[0, 1] == 0.0
    assert distances[0, 2] == 0.5
    assert distances[1, 2] == 1.0


def test_distance_scale_invariance():
    rng = np.random.default_rng(8)
    m = rng.random((6, 6))
    weights = (m + m.T) / 2
    np.fill_diagonal(weights, 0.0)
    base = distance_matrix(symmetric_of(weights))
    scaled = distance_matrix(symmetric_of(weights * 37.5))
    assert np.allclose(base, scaled, atol=1e-12)


def test_distance_rejects_zero_matrix():
    with pytest.raises(DataError, match="all-zero"):
        distance_matrix(symmetric_of(np.zeros((3, 3))))


def test_distance_rejects_negative_weights():
    with pytest.raises(DataError, match="needs nonnegative weights"):
        distance_matrix(symmetric_of([[0.0, -1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("distances", [np.zeros((1, 1)), np.zeros((2, 3)), np.zeros(3),
                                       np.float64(0.0)], ids=["1x1", "2x3", "1-D", "0-D"])
def test_agglomerate_needs_a_square_matrix_over_two_items(distances):
    with pytest.raises(DataError, match="square distance matrix over at least 2 items"):
        agglomerate(distances)


def test_agglomerate_two_leaves():
    dendrogram = agglomerate(np.array([[0.0, 0.3], [0.3, 0.0]]))
    assert len(dendrogram.merges) == 1
    merge = dendrogram.merges[0]
    assert (merge.left, merge.right, merge.height, merge.id) == (0, 1, 0.3, 2)
    assert leaf_order(dendrogram) == [0, 1]


def test_agglomerate_three_node_average_linkage_oracle():
    # Hand-computed UPGMA: {A,B} at 0.1, then with C at (0.8 + 0.6) / 2.
    dendrogram = agglomerate(THREE_NODE)
    first, second = dendrogram.merges
    assert (first.left, first.right, first.height, first.id) == (0, 1, 0.1, 3)
    assert second.height == (0.8 + 0.6) / 2
    assert {second.left, second.right} == {2, 3}
    assert leaf_order(dendrogram) == [0, 1, 2]


def test_single_and_complete_linkage_updates():
    assert agglomerate(THREE_NODE, "single").merges[1].height == 0.6
    assert agglomerate(THREE_NODE, "complete").merges[1].height == 0.8
    with pytest.raises(DataError, match="linkage"):
        agglomerate(THREE_NODE, "median")


def test_tie_break_merges_in_index_order():
    n = 4
    distances = np.full((n, n), 0.5)
    np.fill_diagonal(distances, 0.0)
    dendrogram = agglomerate(distances)
    assert [(m.left, m.right) for m in dendrogram.merges] == [(0, 1), (2, 3), (4, 5)]
    assert leaf_order(dendrogram) == [0, 1, 2, 3]


def test_heights_never_decrease_on_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        m = rng.random((n, n))
        distances = (m + m.T) / 2
        np.fill_diagonal(distances, 0.0)
        for linkage in ("average", "single", "complete"):
            dendrogram = agglomerate(distances, linkage)
            heights = [merge.height for merge in dendrogram.merges]
            assert all(a <= b for a, b in zip(heights, heights[1:]))


def test_leaf_order_is_a_permutation():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        m = rng.random((n, n))
        distances = (m + m.T) / 2
        np.fill_diagonal(distances, 0.0)
        order = leaf_order(agglomerate(distances))
        assert sorted(order) == list(range(n))


def test_reordered_matrix_preserves_entry_multiset():
    rng = np.random.default_rng(2)
    m = rng.random((7, 7))
    weights = (m + m.T) / 2
    np.fill_diagonal(weights, 0.0)
    order = leaf_order(agglomerate(distance_matrix(symmetric_of(weights))))
    reordered = weights[np.ix_(order, order)]
    assert np.array_equal(np.sort(weights, axis=None), np.sort(reordered, axis=None))


def test_uniform_scaling_keeps_topology_and_scales_heights():
    rng = np.random.default_rng(58)
    m = rng.random((8, 8))
    distances = (m + m.T) / 2
    np.fill_diagonal(distances, 0.0)
    base = agglomerate(distances)
    scaled = agglomerate(distances * 4.0)
    assert [(a.left, a.right, a.id) for a in base.merges] == \
           [(b.left, b.right, b.id) for b in scaled.merges]
    for a, b in zip(base.merges, scaled.merges):
        assert b.height == pytest.approx(4.0 * a.height, rel=1e-12)


def test_newick_three_node_shape():
    dendrogram = agglomerate(THREE_NODE)
    second_height = (0.8 + 0.6) / 2
    expected = (f"((A:{0.1!r},B:{0.1!r}):{second_height - 0.1!r},"
                f"C:{second_height!r});")
    assert to_newick(dendrogram, ("A", "B", "C")) == expected


def test_dendrogram_json_payload():
    payload = dendrogram_to_json(agglomerate(THREE_NODE), ("A", "B", "C"))
    assert payload["n_leaves"] == 3
    assert payload["leaf_order"] == [0, 1, 2]
    assert payload["ordered_entities"] == ["A", "B", "C"]
    assert payload["merges"][0] == {"left": 0, "right": 1, "height": 0.1, "id": 3}
    # Dict equality ignores key order; the written order is pinned here.
    assert list(payload) == ["n_leaves", "merges", "leaf_order", "entities",
                             "ordered_entities"]
    assert [list(merge) for merge in payload["merges"]] == [["left", "right", "height", "id"]] * 2


def reference_agglomerate(distances, linkage="average"):
    """The pair-dict implementation that agglomerate replaced, kept verbatim
    (minus argument checks) as the reference for exact merge equality."""
    values = np.asarray(distances, dtype=float)
    n = values.shape[0]

    dist: dict[tuple[int, int], float] = {
        (i, j): float(values[i, j]) for i, j in combinations(range(n), 2)
    }
    sizes = {i: 1 for i in range(n)}
    min_leaf = {i: i for i in range(n)}
    active = list(range(n))
    merges: list[Merge] = []
    last_height = -np.inf

    for step in range(n - 1):
        a, b = min(combinations(active, 2), key=lambda pair: (dist[pair], pair))
        height = dist[(a, b)]
        if height < last_height:
            raise DataError("linkage produced decreasing merge heights")
        last_height = height
        new_id = n + step

        for x in active:
            if x in (a, b):
                continue
            d_ax = dist[(min(a, x), max(a, x))]
            d_bx = dist[(min(b, x), max(b, x))]
            if linkage == "average":
                merged = (sizes[a] * d_ax + sizes[b] * d_bx) / (sizes[a] + sizes[b])
            elif linkage == "single":
                merged = min(d_ax, d_bx)
            else:
                merged = max(d_ax, d_bx)
            dist[(x, new_id)] = merged

        left, right = (a, b) if min_leaf[a] <= min_leaf[b] else (b, a)
        merges.append(Merge(left=left, right=right, height=height, id=new_id))
        sizes[new_id] = sizes[a] + sizes[b]
        min_leaf[new_id] = min(min_leaf[a], min_leaf[b])
        active = [x for x in active if x not in (a, b)]
        active.append(new_id)

    return Dendrogram(n_leaves=n, merges=tuple(merges))


def _symmetric(m):
    upper = np.triu(m, 1)
    return upper + upper.T


INPUT_KINDS = {
    "uniform": lambda rng, n: _symmetric(rng.random((n, n))),
    "ties": lambda rng, n: _symmetric(rng.choice([0.0, 0.5, 1.0], size=(n, n))),
    "one-decimal": lambda rng, n: _symmetric(np.round(rng.random((n, n)), 1)),
    "asymmetric": lambda rng, n: rng.random((n, n)),
}


def reference_leaf_order(dendrogram: Dendrogram) -> list[int]:
    """The explicit-stack traversal that the fold in leaf_order replaced,
    kept verbatim as the reference."""
    children = {m.id: (m.left, m.right) for m in dendrogram.merges}
    order: list[int] = []
    stack = [dendrogram.root]
    while stack:
        node = stack.pop()
        if node < dendrogram.n_leaves:
            order.append(node)
        else:
            left, right = children[node]
            stack.append(right)
            stack.append(left)
    return order


def reference_to_newick(dendrogram: Dendrogram, labels: tuple[str, ...]) -> str:
    """The recursive renderer that the fold in to_newick replaced, kept
    verbatim except that the removed Dendrogram.heights() is inlined."""
    n = dendrogram.n_leaves
    if len(labels) != n:
        raise DataError(f"expected {n} labels, got {len(labels)}")
    children = {m.id: (m.left, m.right) for m in dendrogram.merges}
    heights = {leaf: 0.0 for leaf in range(dendrogram.n_leaves)}
    heights.update({m.id: m.height for m in dendrogram.merges})

    def render(node: int, parent_height: float) -> str:
        if node < n:
            return f"{labels[node]}:{parent_height!r}"
        left, right = children[node]
        height = heights[node]
        inner = f"({render(left, height)},{render(right, height)})"
        if node == dendrogram.root:
            return inner
        return f"{inner}:{parent_height - height!r}"

    return render(dendrogram.root, heights[dendrogram.root]) + ";"


@pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
@pytest.mark.parametrize("linkage", ["average", "single", "complete"])
def test_agglomerate_matches_pair_dict_reference(kind, linkage):
    rng = np.random.default_rng(1234)
    for n in range(2, 25):
        for _ in range(3):
            distances = INPUT_KINDS[kind](rng, n)
            dendrogram = agglomerate(distances, linkage)
            want = reference_agglomerate(distances, linkage).merges
            assert [(m.left, m.right, m.height, m.id) for m in dendrogram.merges] == \
                   [(m.left, m.right, m.height, m.id) for m in want]
            labels = tuple(f"E{i}" for i in range(n))
            assert leaf_order(dendrogram) == reference_leaf_order(dendrogram)
            assert to_newick(dendrogram, labels) == reference_to_newick(dendrogram, labels)


@pytest.mark.parametrize("deep", ["left", "right"])
def test_1200_leaf_chain_renders_without_recursion(deep):
    n = 1200
    if deep == "left":  # ((((0,1),2),3),...)
        merges = [Merge(0 if k == 0 else n + k - 1, k + 1, float(k + 1), n + k)
                  for k in range(n - 1)]
    else:  # (0,(1,(2,...(n-2,n-1))))
        merges = [Merge(n - 2 - k, n - 1 if k == 0 else n + k - 1, float(k + 1), n + k)
                  for k in range(n - 1)]
    dendrogram = Dendrogram(n_leaves=n, merges=merges)
    assert leaf_order(dendrogram) == list(range(n))
    newick = to_newick(dendrogram, tuple(f"E{i}" for i in range(n)))
    assert newick.count("(") == newick.count(")") == n - 1
    if deep == "left":
        assert newick.startswith("(" * (n - 1) + "E0:1.0,E1:1.0):1.0,E2:2.0):1.0,")
        assert newick.endswith(f",E{n - 1}:{float(n - 1)!r});")
    else:
        assert newick.startswith(f"(E0:{float(n - 1)!r},(E1:{float(n - 2)!r},(")
        assert newick.endswith("(E1198:1.0,E1199:1.0)" + ":1.0)" * (n - 2) + ";")


@pytest.mark.parametrize("merges, message", [
    ([(0, 0, 3), (3, 1, 4)], "merge 0 joins cluster 0, which is not a distinct"),
    ([(1, 4, 3), (0, 2, 4)], "merge 0 joins cluster 4, which is not a distinct"),
    ([(4, 1, 3), (3, 2, 4)], "merge 0 joins cluster 4, which is not a distinct"),
    ([(0, 1, 3), (0, 2, 4)], "merge 1 joins cluster 0, which is not a distinct"),
    ([(0, 1, 3), (2, 3, 5)], "merge 1 forms id 5, expected 4"),
    ([(-1, 1, 3), (2, 3, 4)], "merge 0 joins cluster -1, which is not a distinct"),
    ([(0, 1, 3)], "^expected 2 merges, got 1$"),
], ids=["self-merge", "child-formed-later", "cycle", "reused-child", "wrong-id",
        "negative-id", "too-few"])
def test_malformed_merge_lists_are_rejected(merges, message):
    with pytest.raises(DataError, match=message):
        Dendrogram(n_leaves=3, merges=[Merge(a, b, 0.1 * (k + 1), i)
                                       for k, (a, b, i) in enumerate(merges)])


@pytest.mark.parametrize("labels", [("A",), ("A", "B", "C", "D")], ids=["1", "4"])
def test_outputs_need_one_label_per_leaf(labels):
    dendrogram = agglomerate(THREE_NODE)
    for output in (dendrogram_to_json, to_newick):
        with pytest.raises(DataError, match=f"^expected 3 labels, got {len(labels)}$"):
            output(dendrogram, labels)


def test_one_leaf_dendrogram():
    dendrogram = Dendrogram(n_leaves=1, merges=())
    assert leaf_order(dendrogram) == [0]
    assert to_newick(dendrogram, ("A",)) == "A;"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_agglomerate_rejects_non_finite_distances(bad):
    distances = THREE_NODE.copy()
    distances[0, 2] = bad
    with pytest.raises(DataError, match="finite"):
        agglomerate(distances)


def test_agglomerate_reads_only_the_upper_triangle():
    distances = THREE_NODE.copy()
    distances[2, 0] = np.nan
    np.fill_diagonal(distances, np.inf)
    assert agglomerate(distances) == agglomerate(THREE_NODE)


def test_average_linkage_overflow_raises_instead_of_merging_a_retired_id():
    distances = np.full((4, 4), 1e308)
    np.fill_diagonal(distances, 0.0)
    with pytest.raises(DataError, match="non-finite merge height"):
        agglomerate(distances, "average")
    assert agglomerate(distances, "single").merges[-1].height == 1e308


def dense_reference_agglomerate(distances: np.ndarray, linkage: str = "average") -> Dendrogram:
    """The dense agglomerate that the live-cluster buffer replaced, kept
    verbatim: one (2N-1)² matrix over all cluster ids, scanned whole on
    every merge. It raises on any fall of a merge height."""
    if linkage not in LINKAGES:
        raise DataError(f"unknown linkage {linkage!r} (expected one of {LINKAGES})")
    values = np.asarray(distances, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or len(values) < 2:
        raise DataError("need a square distance matrix over at least 2 items")
    n = len(values)

    # One row and column per cluster id. +inf marks the diagonal, retired ids
    # and ids not formed yet, so the minimum is always over active pairs.
    m = 2 * n - 1
    dist = np.full((m, m), np.inf)
    rows, cols = np.triu_indices(n, 1)
    dist[rows, cols] = dist[cols, rows] = values[rows, cols]
    if not np.isfinite(dist[rows, cols]).all():
        raise DataError("distances must be finite")
    sizes = [1] * n
    min_leaf = list(range(n))
    merges: list[Merge] = []
    last_height = -np.inf

    for new_id in range(n, m):
        # Symmetric, so the row-major first minimum is the smallest pair, a < b.
        a, b = divmod(int(np.argmin(dist)), m)
        height = float(dist[a, b])
        if not last_height <= height < np.inf:
            raise DataError(f"linkage produced a decreasing or non-finite merge height ({height!r})")
        last_height = height
        if linkage == "average":
            # An overflow gives inf, which the height check of a later merge rejects.
            with np.errstate(over="ignore"):
                row = (sizes[a] * dist[a] + sizes[b] * dist[b]) / (sizes[a] + sizes[b])
        elif linkage == "single":
            row = np.minimum(dist[a], dist[b])
        else:
            row = np.maximum(dist[a], dist[b])
        dist[new_id] = dist[:, new_id] = row
        dist[[a, b]] = dist[:, [a, b]] = np.inf

        # The child whose subtree holds the smaller leaf index goes left, so
        # an in-order traversal keeps early entities early.
        left, right = (a, b) if min_leaf[a] <= min_leaf[b] else (b, a)
        merges.append(Merge(left=left, right=right, height=height, id=new_id))
        sizes.append(sizes[a] + sizes[b])
        min_leaf.append(min(min_leaf[a], min_leaf[b]))

    return Dendrogram(n_leaves=n, merges=tuple(merges))


def bits(dendrogram):
    return [(m.left, m.right, m.height.hex(), m.id) for m in dendrogram.merges]


def tie_heavy(rng, n, values, p=None):
    return _symmetric(rng.choice(values, size=(n, n), p=p))


def benchmark_quarters(n_periphery):
    """The distance matrices of the benchmark's wide-dendrogram quarters,
    on a roster of 20 core and `n_periphery` periphery entities."""
    records = generate_synthetic_series(20, n_periphery, 100.0, 1.0, 3, 1101,
                                        link_prob_start=0.05, link_prob_end=0.5)
    return [distance_matrix(symmetrize(build_snapshot(records, period)))
            for period in records.periods]


def scale_inputs(kind, n):
    if kind == "synthetic":
        return benchmark_quarters(n - 20)
    rng = np.random.default_rng(n)
    if kind == "binary":
        return [tie_heavy(rng, n, [0.0, 1.0], p=[0.3, 0.7]) for _ in range(3)]
    return [tie_heavy(rng, n, [0.0, 0.5, 1.0]) for _ in range(3)]


@pytest.mark.parametrize("kind", ["synthetic", "binary", "halves"])
@pytest.mark.parametrize("linkage", LINKAGES)
@pytest.mark.parametrize("n", [100, 200])
def test_agglomerate_matches_the_dense_reference_at_benchmark_scale(n, linkage, kind):
    compared = 0
    for distances in scale_inputs(kind, n):
        assert len(distances) == n
        try:
            want = bits(dense_reference_agglomerate(distances, linkage))
        except DataError:
            continue
        assert bits(agglomerate(distances, linkage)) == want
        compared += 1
    assert compared >= 2


def test_agglomerate_compacts_its_buffer_and_keeps_every_merge(monkeypatch):
    compactions = []
    compacted = cluster._compacted

    def counting(dist, keep):
        compactions.append(len(keep))
        return compacted(dist, keep)

    monkeypatch.setattr(cluster, "_compacted", counting)
    distances = benchmark_quarters(180)[1]
    for linkage in LINKAGES:
        compactions.clear()
        assert bits(agglomerate(distances, linkage)) == \
               bits(dense_reference_agglomerate(distances, linkage))
        assert len(compactions) >= 3
        assert compactions == sorted(compactions, reverse=True)


def test_a_merge_height_that_falls_by_one_ulp_is_the_previous_height():
    u = np.triu(np.random.default_rng(230).choice([0.0, 1.0], size=(12, 12), p=[.3, .7]), 1)
    with pytest.raises(DataError, match=r"decreasing or non-finite merge height "
                                        r"\(0\.7999999999999999\)"):
        dense_reference_agglomerate(u + u.T, "average")
    heights = [m.height for m in agglomerate(u + u.T, "average").merges]
    assert heights[-3:] == [0.75, 0.8, 0.8]


def test_merge_height_rule():
    previous = 0.8
    below = [previous]
    for _ in range(5):
        below.append(float(np.nextafter(below[-1], 0.0)))
    for height in below[1:5]:
        assert cluster._merge_height(height, previous) == previous
    with pytest.raises(DataError, match=f"decreasing or non-finite merge height \\({below[5]!r}\\)"):
        cluster._merge_height(below[5], previous)
    for height in (np.inf, np.nan):
        with pytest.raises(DataError, match="non-finite merge height"):
            cluster._merge_height(height, previous)
    assert cluster._merge_height(0.9, previous) == 0.9
    assert cluster._merge_height(-3.0, -np.inf) == -3.0
    assert cluster._merge_height(float(np.nextafter(-1.0, -2.0)), -1.0) == -1.0


def test_tie_heavy_sweep_never_falls_and_matches_where_the_dense_reference_runs():
    """0/1 matrices at n = 12 in which some pairs lie 0 apart and the rest 1:
    a few average-linkage merge heights fall by an ulp in the dense reference.
    Then smaller sweeps of 0/1 and {0, 1/2, 1} matrices in every linkage."""
    cases = [(np.random.default_rng(seed), 12, [0.0, 1.0], [0.3, 0.7], ("average",))
             for seed in range(1500)]
    rng = np.random.default_rng(2024)
    cases += [(rng, int(rng.integers(12, 60)), values, None, LINKAGES)
              for values in ([0.0, 1.0], [0.0, 0.5, 1.0]) for _ in range(40)]
    fell = 0
    for case_rng, n, values, p, linkages in cases:
        distances = tie_heavy(case_rng, n, values, p)
        for linkage in linkages:
            got = agglomerate(distances, linkage)
            heights = [m.height for m in got.merges]
            assert heights == sorted(heights)
            try:
                assert bits(got) == bits(dense_reference_agglomerate(distances, linkage))
            except DataError:
                fell += 1
    assert fell >= 4

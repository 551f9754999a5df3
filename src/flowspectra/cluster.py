"""Hierarchical agglomerative clustering of symmetrized weight matrices.

The distance between two entities is 1 minus their symmetrized weight
rescaled by the largest off-diagonal weight, so the strongest trading pair
sits at distance 0 and absent relations at distance 1. Average linkage is
the default; merges are fully deterministic (ties broken by the smallest
cluster-id pair), so the same matrix always yields the same dendrogram.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .spectral import _symmetric_matrix

LINKAGES = ("average", "single", "complete")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters `left` and `right` join at `height`
    to form cluster `id`. Leaves are 0..N-1, internal ids N..2N-2."""

    left: int
    right: int
    height: float
    id: int


@dataclass(frozen=True)
class Dendrogram:
    """Merge k forms cluster `n_leaves + k` from two distinct clusters formed
    before it and not yet merged, so a fold over `merges` meets children first."""

    n_leaves: int
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "merges", tuple(self.merges))
        if len(self.merges) != self.n_leaves - 1:
            raise DataError(f"expected {self.n_leaves - 1} merges, got {len(self.merges)}")
        merged: set[int] = set()
        for k, m in enumerate(self.merges):
            if m.id != self.n_leaves + k:
                raise DataError(f"merge {k} forms id {m.id}, expected {self.n_leaves + k}")
            for child in (m.left, m.right):
                if not 0 <= child < m.id or child in merged:
                    raise DataError(f"merge {k} joins cluster {child}, which is not a "
                                    "distinct, formed and unmerged cluster")
                merged.add(child)

    @property
    def root(self) -> int:
        return 2 * self.n_leaves - 2


def distance_matrix(sym: np.ndarray) -> np.ndarray:
    """Weight-based distances: d(i, j) = 1 - s(i, j) / max off-diagonal s.

    `sym` is a finite, exactly symmetric (N, N) weight matrix, and so is
    the result. Entries lie in [0, 1]; the strongest pair has distance 0
    and an absent relation distance 1. Invariant under uniform weight scaling.
    """
    values = _symmetric_matrix(sym)
    if values.min() < 0:
        raise DataError("distance matrix needs nonnegative weights")
    off_diag = values.copy()
    np.fill_diagonal(off_diag, 0.0)
    s_max = float(off_diag.max())
    if s_max <= 0:
        raise DataError("all-zero matrix has no distance structure")
    distances = 1.0 - values / s_max
    np.fill_diagonal(distances, 0.0)
    return distances


def _capacity(live: int) -> int:
    """Buffer positions for `live` clusters: half as many again for the
    clusters merges will append, but no more than the 2·live − 1 that the
    remaining live − 1 merges can use."""
    return min(live + live // 2 + 2, 2 * live - 1)


def _compacted(dist: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """A fresh +inf buffer for `len(keep) + 1` live clusters whose leading
    block holds the rows and columns of `dist` at positions `keep`."""
    size = _capacity(len(keep) + 1)
    fresh = np.full((size, size), np.inf)
    fresh[:len(keep), :len(keep)] = dist[np.ix_(keep, keep)]
    return fresh


def _merge_height(height: float, last: float) -> float:
    """The height to report for a merge at linkage distance `height` that
    follows one reported at `last`. A fall of at most 4 ulps of `last`, as
    rounding in the size-weighted means gives, reports `last`; a larger fall
    or a non-finite height raises."""
    if height < last and last - height <= 4 * np.spacing(abs(last)):
        return last
    if not last <= height < np.inf:
        raise DataError(f"linkage produced a decreasing or non-finite merge height ({height!r})")
    return height


def agglomerate(distances: np.ndarray, linkage: str = "average") -> Dendrogram:
    """Agglomerative clustering of an (N, N) distance matrix.

    Only the upper triangle is read, and it must be finite. The pair of
    clusters at minimal linkage distance merges first; ties go to the
    smallest (id, id) pair. Average linkage updates distances as size-weighted
    means (UPGMA), single as minima, complete as maxima. Heights never
    decrease: a merge whose linkage distance falls below the previous height
    by at most 4 ulps of it (rounding in the size-weighted means) is reported
    at the previous height; a larger fall or a non-finite height raises.

    The distance matrix holds only live clusters. Its positions carry cluster
    ids in increasing order and each new cluster is appended; when the buffer
    is full, the live rows and columns move, in id order, into a smaller one.
    """
    if linkage not in LINKAGES:
        raise DataError(f"unknown linkage {linkage!r} (expected one of {LINKAGES})")
    values = np.asarray(distances, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or len(values) < 2:
        raise DataError("need a square distance matrix over at least 2 items")
    n = len(values)

    # Position p holds cluster ids[p], ids increasing, -1 once retired. +inf
    # marks the diagonal, retired clusters and positions past len(ids), so
    # the minimum is always over live pairs.
    dist = np.full((_capacity(n),) * 2, np.inf)
    rows, cols = np.triu_indices(n, 1)
    dist[rows, cols] = dist[cols, rows] = values[rows, cols]
    if not np.isfinite(dist[rows, cols]).all():
        raise DataError("distances must be finite")
    ids = list(range(n))
    sizes = [1] * n
    min_leaf = list(range(n))
    merges: list[Merge] = []
    last_height = -np.inf

    # An overflow in an average gives inf, which the height check of a later
    # merge rejects.
    with np.errstate(over="ignore"):
        for new_id in range(n, 2 * n - 1):
            # Symmetric with ids increasing along the positions, so the row-major
            # first minimum of the used rows is the smallest pair, a < b.
            used = len(ids)
            pa, pb = divmod(int(np.argmin(dist[:used])), len(dist))
            a, b = ids[pa], ids[pb]
            height = last_height = _merge_height(float(dist[pa, pb]), last_height)
            if linkage == "average":
                row = ((sizes[a] * dist[pa, :used] + sizes[b] * dist[pb, :used])
                       / (sizes[a] + sizes[b]))
            elif linkage == "single":
                row = np.minimum(dist[pa, :used], dist[pb, :used])
            else:
                row = np.maximum(dist[pa, :used], dist[pb, :used])
            row[pa] = row[pb] = np.inf
            dist[pa, :used] = dist[pb, :used] = dist[:used, pa] = dist[:used, pb] = np.inf
            ids[pa] = ids[pb] = -1
            if used == len(dist):
                keep = np.flatnonzero(np.array(ids) >= 0)
                dist, row = _compacted(dist, keep), row[keep]
                ids = [ids[p] for p in keep]
            dist[len(ids), :len(ids)] = dist[:len(ids), len(ids)] = row
            ids.append(new_id)

            # The child whose subtree holds the smaller leaf index goes left, so
            # an in-order traversal keeps early entities early.
            left, right = (a, b) if min_leaf[a] <= min_leaf[b] else (b, a)
            merges.append(Merge(left=left, right=right, height=height, id=new_id))
            sizes.append(sizes[a] + sizes[b])
            min_leaf.append(min(min_leaf[a], min_leaf[b]))

    return Dendrogram(n_leaves=n, merges=tuple(merges))


def leaf_order(dendrogram: Dendrogram) -> list[int]:
    """Leaf permutation from an in-order traversal, left child first.

    Applying it to the rows and columns of the weight matrix places merged
    clusters next to each other.
    """
    leaves = {leaf: [leaf] for leaf in range(dendrogram.n_leaves)}
    for m in dendrogram.merges:
        leaves[m.id] = leaves.pop(m.left) + leaves.pop(m.right)
    return leaves[dendrogram.root]


def _check_labels(dendrogram: Dendrogram, labels: tuple[str, ...]) -> None:
    if len(labels) != dendrogram.n_leaves:
        raise DataError(f"expected {dendrogram.n_leaves} labels, got {len(labels)}")


def dendrogram_to_json(dendrogram: Dendrogram, entities: tuple[str, ...]) -> dict:
    _check_labels(dendrogram, entities)
    order = leaf_order(dendrogram)
    keys = [f.name for f in fields(Merge)]  # a tenth of asdict's cost per merge
    return {
        "n_leaves": dendrogram.n_leaves,
        "merges": [{key: getattr(m, key) for key in keys} for m in dendrogram.merges],
        "leaf_order": order,
        "entities": list(entities),
        "ordered_entities": [entities[i] for i in order],
    }


def to_newick(dendrogram: Dendrogram, labels: tuple[str, ...]) -> str:
    """Newick string with branch lengths equal to height differences."""
    _check_labels(dendrogram, labels)
    # Each subtree's text without its own branch length, and its height.
    subtrees = {leaf: (label, 0.0) for leaf, label in enumerate(labels)}
    for m in dendrogram.merges:
        branches = [f"{text}:{m.height - height!r}"
                    for text, height in (subtrees.pop(m.left), subtrees.pop(m.right))]
        subtrees[m.id] = (f"({','.join(branches)})", m.height)
    return subtrees[dendrogram.root][0] + ";"

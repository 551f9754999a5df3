"""Hierarchical agglomerative clustering of symmetrized weight matrices.

The distance between two entities is 1 minus their symmetrized weight
rescaled by the largest off-diagonal weight, so the strongest trading pair
sits at distance 0 and absent relations at distance 1. Average linkage is
the default; merges are fully deterministic (ties broken by the smallest
cluster-id pair), so the same matrix always yields the same dendrogram.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def agglomerate(distances: np.ndarray, linkage: str = "average") -> Dendrogram:
    """Agglomerative clustering of an (N, N) distance matrix.

    Only the upper triangle is read, and it must be finite. The pair of
    clusters at minimal linkage distance merges first; ties go to the
    smallest (id, id) pair. Average linkage updates distances as size-weighted
    means (UPGMA), single as minima, complete as maxima. Heights never decrease.
    """
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
    return {
        "n_leaves": dendrogram.n_leaves,
        "merges": [
            {"left": m.left, "right": m.right, "height": m.height, "id": m.id}
            for m in dendrogram.merges
        ],
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

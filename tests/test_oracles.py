"""Independent oracles from scipy, which the package itself never imports.

These tests skip where scipy is not installed (it is in the `test` extra).
"""
import numpy as np
import pytest

from flowspectra import agglomerate
from flowspectra.cluster import LINKAGES

hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
distance = pytest.importorskip("scipy.spatial.distance")


def tie_free_distances(n: int, seed: int) -> np.ndarray:
    """A symmetric (n, n) matrix with a zero diagonal and distinct uniform
    off-diagonal entries in (0, 1)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(1.0 - rng.random((n, n)), 1)
    values = upper + upper.T
    assert len(np.unique(values[np.triu_indices(n, 1)])) == n * (n - 1) // 2
    return values


def memberships(merges, n):
    """The leaf set each merge forms, in merge order; `merges` holds
    (a, b) pairs of cluster ids, new clusters numbered from `n` up."""
    leaves = {leaf: frozenset([leaf]) for leaf in range(n)}
    formed = []
    for new_id, (a, b) in enumerate(merges, start=n):
        leaves[new_id] = leaves.pop(a) | leaves.pop(b)
        formed.append(leaves[new_id])
    return formed


@pytest.mark.parametrize("linkage", LINKAGES)
@pytest.mark.parametrize("n", [2, 3, 10, 50, 200])
def test_agglomerate_matches_scipy_linkage(linkage, n):
    values = tie_free_distances(n, seed=1000 + n)
    ours = agglomerate(values, linkage)
    theirs = hierarchy.linkage(distance.squareform(values), method=linkage)
    assert (memberships([(m.left, m.right) for m in ours.merges], n)
            == memberships([(int(a), int(b)) for a, b in theirs[:, :2]], n))
    heights = np.array([m.height for m in ours.merges])
    ulps = np.abs(heights - theirs[:, 2]) / np.spacing(np.maximum(heights, theirs[:, 2]))
    assert ulps.max() <= 4

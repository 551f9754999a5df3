"""Independent oracles from scipy and networkx, which the package itself
never imports.

These tests skip where either is not installed (both are in the `test` extra).
"""
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from flowspectra import agglomerate, leading_eigenpair
from flowspectra.cluster import LINKAGES

hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
distance = pytest.importorskip("scipy.spatial.distance")
nx = pytest.importorskip("networkx")


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


def tie_heavy_distances(seed: int) -> np.ndarray:
    """A symmetric (n, n) matrix, n in 3..39, with a zero diagonal and
    off-diagonal entries from {0, 1/2, 1}, {0, 0.1, ..., 1} or {0, 1} by
    `seed` mod 3, so most merges tie with others."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    values = ([0.0, 0.5, 1.0], np.arange(11) / 10, [0.0, 1.0])[seed % 3]
    upper = np.triu(rng.choice(values, size=(n, n)), 1)
    return upper + upper.T


def test_single_linkage_heights_match_scipy_under_ties():
    """A single-linkage height is one of the distances, whichever tie is
    taken first, so the sorted heights agree bitwise. Average and complete
    linkage heights depend on the tie order (a different first merge builds
    a different tree), so they are not compared here."""
    for seed in range(400):
        values = tie_heavy_distances(seed)
        ours = sorted(m.height for m in agglomerate(values, "single").merges)
        theirs = sorted(hierarchy.linkage(distance.squareform(values), method="single")[:, 2])
        assert ours == theirs, seed


@st.composite
def weighted_patterns(draw):
    """A link pattern on 1 to 8 entities, self-loops included, whose weights
    are uniform on [0.5, 2) from a drawn seed. Two classes with equal
    Perron roots joined by a link, which the solver cannot resolve, then
    have probability 0."""
    n = draw(st.integers(1, 8))
    links = draw(arrays(bool, (n, n), elements=st.sampled_from([False, False, True])))
    assume(links.any())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return links * rng.uniform(0.5, 2.0, (n, n))


@given(weighted_patterns())
def test_radius_is_zero_exactly_when_networkx_finds_a_dag(a):
    lam, _ = leading_eigenpair(a)
    assert (lam == 0.0) == nx.is_directed_acyclic_graph(
        nx.from_numpy_array(a, create_using=nx.DiGraph))

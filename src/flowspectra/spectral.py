"""Eigen-analysis of flow networks.

Two spectrum modes exist. The directed nonnegative matrix has a real
dominant eigenvalue with a nonnegative eigenvector (the market mode);
power iteration computes that leading pair. The symmetrized matrix has a
full real spectrum, which is what mean inverse participation ratios are
averaged over.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError
from .network import NetworkSnapshot, SymmetricMatrix

MODE_DIRECTED = "directed-perron"
MODE_SYMMETRIZED = "symmetrized"
SPECTRUM_MODES = (MODE_DIRECTED, MODE_SYMMETRIZED)

#: Convergence test for power iteration: the candidate pair is accepted once
#: ||A v - lambda v|| <= RESIDUAL_RTOL * lambda.
RESIDUAL_RTOL = 1e-12
MAX_ITERATIONS = 100_000

# A pair that passes the residual test is returned only once lambda repeats
# exactly or after this many more passing pairs. Driving lambda to its
# floating-point fixed point is what makes relabelled matrices (such as the
# null replicas of a 2-entity network) give the same lambda bits.
_POLISH_ITERATIONS = 50

_NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Eigenvalues (descending), unit eigenvectors, and per-vector IPRs.

    `eigenvectors[k]` is the unit-norm vector for `eigenvalues[k]`;
    `market_mode` is the eigenvector of `lambda_max`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    iprs: np.ndarray
    lambda_max: float
    market_mode: np.ndarray


def ipr(vector: np.ndarray) -> float:
    """Inverse participation ratio of a unit vector: 1 / sum of 4th powers.

    Counts the effectively participating components: N for the uniform
    vector 1/sqrt(N), 1 for a basis vector.
    """
    v = np.asarray(vector, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _NORM_TOL:
        raise DataError(f"vector is not unit-normalized (L2 norm {norm})")
    return 1.0 / float(np.sum(v ** 4))


def participation_percent(market_mode: np.ndarray) -> np.ndarray:
    """Squared components of a unit vector as percentages (sum to 100)."""
    v = np.asarray(market_mode, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _NORM_TOL:
        raise DataError(f"vector is not unit-normalized (L2 norm {norm})")
    return (v ** 2) * 100.0


def _nilpotent_null_vector(a: np.ndarray) -> np.ndarray | None:
    """Exact zero-spectral-radius detection for a nonnegative matrix.

    Nonnegative arithmetic has no cancellation, so applying the matrix to a
    strictly positive start vector reaches exact zero within n steps iff the
    matrix is nilpotent (its digraph is acyclic, e.g. a one-way flow
    pattern). Returns a unit null vector in that case, else None.
    """
    n = a.shape[0]
    if np.any((a > 0) & (a.T > 0)):
        return None  # a 2-cycle or positive diagonal forces a positive radius
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(n):
        w = a @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return v
        v = w / norm_w
    return None


def power_iteration(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a nonnegative square matrix.

    Iterates with a diagonal shift of half the largest row sum, which leaves
    the spectral radius and its eigenvector unchanged but keeps periodic
    (bipartite-like) matrices converging instead of oscillating. The start
    vector is the deterministic uniform 1/sqrt(n).

    Returns (spectral radius, nonnegative unit eigenvector); the residual of
    the returned pair, as evaluated in floating point on the shifted matrix,
    satisfies ||A v - lambda v|| <= RESIDUAL_RTOL * lambda.
    A radius beyond the float range raises DataError, and so do weights too
    far apart for one float scale to keep every positive weight positive.
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise DataError("empty matrix")
    if a.min() < 0:
        raise DataError("power iteration requires a nonnegative matrix")
    if not a.any():
        raise DataError("zero matrix has no leading eigenpair")

    # Iterate on the matrix scaled by a power of two that puts its largest
    # entry in [0.5, 1): exact, and vector norms can no longer underflow or
    # overflow (which would turn a positive radius into 0).
    exponent = int(np.frexp(a.max())[1])
    scaled = np.ldexp(a, -exponent)
    if np.count_nonzero(scaled) < np.count_nonzero(a):
        raise DataError("weights span too many orders of magnitude: scaled by "
                        f"2**{-exponent} into the float range, positive weights underflow to 0")
    a = scaled

    null_vector = _nilpotent_null_vector(a)
    if null_vector is not None:
        return 0.0, null_vector

    shift = 0.5 * float(a.sum(axis=1).max())
    b = a + shift * np.eye(n)

    v = np.full(n, 1.0 / math.sqrt(n))
    prev_lam = math.inf
    polish_left = _POLISH_ITERATIONS
    for _ in range(MAX_ITERATIONS):
        w = b @ v
        mu = float(v @ w)
        lam = mu - shift
        # For the shifted matrix, A v - lam v == B v - mu v, so the residual
        # of the current candidate pair costs no extra matvec.
        res = float(np.linalg.norm(w - mu * v))
        if res <= RESIDUAL_RTOL * lam:
            if lam == prev_lam or polish_left == 0:
                try:
                    return math.ldexp(lam, exponent), v
                except OverflowError:
                    raise DataError("spectral radius exceeds the float range") from None
            polish_left -= 1
        prev_lam = lam
        v = w / float(np.linalg.norm(w))  # ||B v|| >= shift > 0 for unit v >= 0

    res, lam = math.ldexp(res, exponent), math.ldexp(lam, exponent)
    raise ConvergenceError(
        f"power iteration did not converge within {MAX_ITERATIONS} iterations "
        f"(residual {res:.3e}, lambda {lam:.6e})",
        residual=res, iterations=MAX_ITERATIONS,
    )


def leading_eigenpair(snapshot: NetworkSnapshot) -> tuple[float, np.ndarray]:
    """Spectral radius and nonnegative market-mode vector of a snapshot."""
    if not snapshot.weights.any():
        raise DataError(f"{snapshot.period}: matrix has no nonzero entries")
    return power_iteration(snapshot.weights)


def _fix_sign(vector: np.ndarray) -> np.ndarray:
    """Make the component of largest absolute value positive (deterministic)."""
    pivot = int(np.argmax(np.abs(vector)))
    return -vector if vector[pivot] < 0 else vector


def full_spectrum(sym: SymmetricMatrix) -> SpectralSummary:
    """All eigenvalues (descending) and orthonormal eigenvectors of a
    symmetric matrix, with per-eigenvector inverse participation ratios."""
    values, basis = np.linalg.eigh(sym.values)
    order = np.argsort(-values, kind="stable")
    eigenvalues = values[order]
    eigenvectors = np.array([_fix_sign(basis[:, k]) for k in order])
    iprs = 1.0 / np.sum(eigenvectors ** 4, axis=1)
    return SpectralSummary(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        iprs=iprs,
        lambda_max=float(eigenvalues[0]),
        market_mode=eigenvectors[0],
    )


def mean_ipr(summary: SpectralSummary) -> float:
    """Arithmetic mean IPR over all eigenvectors of a symmetrized spectrum."""
    return float(np.mean(summary.iprs))

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

MODE_DIRECTED = "directed-perron"
MODE_SYMMETRIZED = "symmetrized"
SPECTRUM_MODES = (MODE_DIRECTED, MODE_SYMMETRIZED)

#: Convergence test for power iteration: the candidate pair is accepted once
#: ||A v - lambda v|| <= RESIDUAL_RTOL * lambda.
RESIDUAL_RTOL = 1e-12
MAX_ITERATIONS = 100_000

# Power iteration runs in blocks of this many steps and tests convergence
# once per block, for every step of it; only the cost changes, not the bits.
_BLOCK_STEPS = 16

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


def _compact(stack: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the kept matrices, in order, to the front of `stack` (in place,
    with no temporary stack) and return that prefix as a view."""
    for j, k in enumerate(keep):
        if j != k:
            stack[j] = stack[k]
    return stack[:len(keep)]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each one BLAS dot as for a single vector."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def leading_eigenpair(weights: np.ndarray) -> tuple:
    """Dominant eigenpair of a nonnegative (N, N) matrix, or of each matrix
    of an (R, N, N) stack.

    Power iteration with a diagonal shift of half the mean nonzero row sum,
    which leaves the spectral radius and its eigenvector unchanged but keeps
    periodic (bipartite-like) matrices converging instead of oscillating, on
    the entities in a canonical order (by row max, then column max) that
    gives relabelled matrices with distinct keys the same bits. The start
    vector is the uniform 1/sqrt(n). A stack runs one iteration over all its
    matrices; each keeps its own order, scale, shift and residual test, so a
    matrix gets the same bits alone as in any stack. The steps run in blocks
    of 16 that only multiply and normalize; after a block, the tests of all
    its steps are evaluated at once, and each matrix returns the pair of the
    first step that passes, the same bits as testing every step as it runs.
    Converged matrices leave the iteration at the end of the block.

    Returns (spectral radius, nonnegative unit eigenvector) for a matrix,
    and an (R,) array of radii with an (R, N) array of vectors for a stack.
    The residual of each returned pair, as evaluated in floating point on
    the shifted matrix, satisfies ||A v - lambda v|| <= RESIDUAL_RTOL * lambda.
    A radius beyond the float range raises DataError, and so do weights too
    far apart for one float scale to keep every positive weight positive.
    Errors about one matrix of a stack carry its position as `index`.

    A C-contiguous float64 stack is the work array and is overwritten, so
    solving R matrices holds no second R x N x N array; a matrix is copied.
    """
    a = np.asarray(weights)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DataError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.ndim == 2:
        lam, vectors = leading_eigenpair(np.array(a, dtype=float)[None])
        return float(lam[0]), vectors[0]
    a = np.require(a, dtype=float, requirements=["C_CONTIGUOUS", "WRITEABLE"])
    count, n = a.shape[0], a.shape[1]
    if n == 0:
        raise DataError("empty matrix")

    flat = a.reshape(count, n * n)
    for k in np.flatnonzero(flat.min(axis=1) < 0):
        raise DataError("power iteration requires a nonnegative matrix", index=int(k))
    peaks = flat.max(axis=1)
    for k in np.flatnonzero(peaks == 0):
        raise DataError("matrix has no nonzero entries", index=int(k))

    # Iterate on each matrix scaled by a power of two that puts its largest
    # entry in [0.5, 1): exact, and vector norms can no longer underflow or
    # overflow (which would turn a positive radius into 0).
    exponents = np.frexp(peaks)[1]
    nonzero = np.count_nonzero(flat, axis=1)
    np.ldexp(a, -exponents[:, None, None], out=a)
    for k in np.flatnonzero(np.count_nonzero(flat, axis=1) < nonzero):
        raise DataError("weights span too many orders of magnitude: scaled by "
                        f"2**{-int(exponents[k])} into the float range, positive "
                        "weights underflow to 0", index=int(k))

    # Entity i of canonical matrix k is entity order[k, i]; a max is exact, so
    # relabelling cannot move a key. Mode "clip" does not buffer `out`.
    order, rows = np.lexsort((a.max(axis=1), a.max(axis=2))), np.empty((n, n))
    for k in range(count):
        np.take(a[k], order[k], axis=0, out=rows, mode="clip")
        np.take(rows, order[k], axis=1, out=a[k], mode="clip")

    # A 2-cycle or a positive diagonal forces a positive radius, so only the
    # matrices without one take the exact nilpotent test.
    positive = a > 0
    iterate = (positive & positive.swapaxes(1, 2)).any(axis=(1, 2))
    lambdas = np.zeros(count)
    vectors = np.empty((count, n))
    for k in np.flatnonzero(~iterate):
        null_vector = _nilpotent_null_vector(a[k])
        if null_vector is None:
            iterate[k] = True
        else:
            vectors[k] = null_vector

    # A smaller shift converges faster until it nears 0, where a periodic
    # matrix's -rho takes over; so rows that sum to 0 stay out of the mean.
    row_sums = a.sum(axis=2)
    shift = 0.5 * row_sums.sum(axis=1) / np.count_nonzero(row_sums, axis=1)
    flat[:, ::n + 1] += shift[:, None]  # B = A + shift I, in place

    # Only unconverged matrices are iterated: they sit, in order, at the front
    # of the work array, and `active` holds their positions in the stack.
    active = np.flatnonzero(iterate)
    b, shift, exponents = _compact(a, active), shift[active], exponents[active]
    v = np.full((len(active), n), 1.0 / math.sqrt(n))
    iterations = 0
    while len(active):
        # A block of steps that only multiply and normalize, storing every
        # iterate; the last block ends at exactly MAX_ITERATIONS.
        steps = min(_BLOCK_STEPS, MAX_ITERATIONS - iterations)
        vs = np.empty((steps + 1, len(active), n))
        ws = np.empty((steps, len(active), n))
        vs[0] = v
        for s in range(steps):
            w = np.matmul(b, vs[s, :, :, None], out=ws[s, :, :, None])[:, :, 0]
            # ||B v|| >= shift > 0 for unit v >= 0
            np.divide(w, np.sqrt(_dots(w, w))[:, None], out=vs[s + 1])
        iterations += steps

        # The tests of every step of the block at once, each as if it ran
        # at its own step, so a matrix returns the pair of its first pass.
        mu = _dots(vs[:steps], ws)
        lam = mu - shift
        # For the shifted matrix, A v - lam v == B v - mu v, so the residual
        # of each candidate pair costs no extra matvec.
        ws -= mu[:, :, None] * vs[:steps]
        res = np.sqrt(_dots(ws, ws))
        passing = res <= RESIDUAL_RTOL * lam
        finished = passing.any(axis=0)
        if finished.any():
            at, cols = passing.argmax(axis=0)[finished], np.flatnonzero(finished)
            with np.errstate(over="ignore"):
                radii = np.ldexp(lam[at, cols], exponents[cols])
            overflow = np.isinf(radii)
            if overflow.any():
                # The matrix that finishes first; on a tie, the first in the stack.
                k = active[cols[overflow][np.argmin(at[overflow])]]
                raise DataError("spectral radius exceeds the float range", index=int(k))
            lambdas[active[cols]] = radii
            vectors[active[cols]] = vs[at, cols]
        keep = np.flatnonzero(~finished)
        if iterations == MAX_ITERATIONS and len(keep):
            k = keep[0]
            with np.errstate(over="ignore"):  # scaled back, it may pass the float max
                res, lam = np.ldexp([res[-1, k], lam[-1, k]], exponents[k]).tolist()
            raise ConvergenceError(
                f"power iteration did not converge within {MAX_ITERATIONS} iterations "
                f"(residual {res:.3e}, lambda {lam:.6e})",
                residual=res, iterations=MAX_ITERATIONS, index=int(active[k]),
            )
        b = _compact(b, keep)
        active, shift, exponents = active[keep], shift[keep], exponents[keep]
        v = vs[steps, keep]
    return lambdas, np.take_along_axis(vectors, np.argsort(order, axis=1), axis=1)


def full_spectrum(sym: np.ndarray) -> SpectralSummary:
    """All eigenvalues (descending) and orthonormal eigenvectors of an exactly
    symmetric (N, N) matrix, with per-eigenvector inverse participation ratios.
    Each vector's component of largest |value| (the first on a tie) is positive."""
    a = np.asarray(sym, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DataError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise DataError("matrix is not exactly symmetric")
    values, basis = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    eigenvalues = values[order]
    eigenvectors = basis.T[order]
    pivots = np.abs(eigenvectors).argmax(axis=1)
    eigenvectors[eigenvectors[np.arange(len(order)), pivots] < 0] *= -1.0
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

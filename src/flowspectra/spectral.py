"""Eigen-analysis of flow networks.

Two spectrum modes exist. The directed nonnegative matrix has a real
dominant eigenvalue with a nonnegative eigenvector (the market mode);
power iteration computes that leading pair. The symmetrized matrix has a
full real spectrum, which is what mean inverse participation ratios are
averaged over.
"""
from __future__ import annotations

import math

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
# once per block, on the block's last pair.
_BLOCK_STEPS = 16

_NORM_TOL = 1e-10


def _unit_vectors(vectors: np.ndarray) -> np.ndarray:
    """`vectors` as C-ordered floats, once each of its rows has unit L2 norm.
    C order makes a row of a stack sum in the same order as the row alone."""
    v = np.ascontiguousarray(vectors, dtype=float)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    bad = np.abs(norms - 1.0) > _NORM_TOL
    if bad.any():
        raise DataError(f"vector is not unit-normalized (L2 norm {float(norms[bad][0])})")
    return v


def _symmetric_matrix(sym: np.ndarray) -> np.ndarray:
    """`sym` as floats, once it is a nonempty, finite, exactly symmetric
    square matrix."""
    a = np.asarray(sym, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DataError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError("matrix must be finite")
    if not np.array_equal(a, a.T):
        raise DataError("matrix is not exactly symmetric")
    return a


def ipr(vectors: np.ndarray) -> float | np.ndarray:
    """Inverse participation ratio of a unit vector: 1 / sum of 4th powers.

    Counts the effectively participating components: N for the uniform
    vector 1/sqrt(N), 1 for a basis vector. An (R, N) stack of unit vectors
    gives the (R,) IPRs of its rows, each with the bits of the row alone.
    """
    v = _unit_vectors(vectors)
    iprs = 1.0 / np.sum(np.square(v * v), axis=-1)  # v ** 4 would call libm pow per element
    return float(iprs) if v.ndim == 1 else iprs


def participation_percent(market_mode: np.ndarray) -> np.ndarray:
    """Squared components of a unit vector as percentages (sum to 100)."""
    return (_unit_vectors(market_mode) ** 2) * 100.0


def _fill_holes(stack: np.ndarray, leaving: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Close the gaps that the matrices marked `leaving` leave among the first
    m places of `stack` (m = the number staying), in place: each such hole
    takes one staying matrix from behind the first m, by one single-matrix
    copy, and no other matrix moves. Returns the first m places as a view and
    the old place of the matrix now at each of them."""
    m = len(leaving) - np.count_nonzero(leaving)
    keep = np.arange(m)
    holes = np.flatnonzero(leaving[:m])
    if len(holes):
        keep[holes] = m + np.flatnonzero(~leaving[m:])
        for hole, k in zip(holes.tolist(), keep[holes].tolist()):
            stack[hole] = stack[k]
    return stack[:m], keep


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
    of 16 that only multiply; the vector is normalized once per block, for
    the block's last pair, and only that pair is tested: each matrix returns
    the first block-end pair that passes and leaves the iteration there.
    Whether the radius is 0 is decided exactly on the 0/1 pattern: it is 0
    when the lending pattern has no cycle. Such a matrix is not iterated, and
    its vector is spread evenly over the entities that start a longest
    chain, so A v = 0 exactly.

    Returns (spectral radius, nonnegative unit eigenvector) for a matrix,
    and an (R,) array of radii with an (R, N) array of vectors for a stack.
    The residual of each returned pair, as evaluated in floating point on
    the shifted matrix, satisfies ||A v - lambda v|| <= RESIDUAL_RTOL * lambda.
    A radius beyond the float range raises DataError, and so do weights too
    far apart for one float scale to keep every positive weight positive.
    A pair that has not passed by MAX_ITERATIONS steps, as on a cycle whose
    weight product underflows, raises ConvergenceError. Errors about one
    matrix of a stack carry its position as `index`.

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
    for k in np.flatnonzero(~np.isfinite(flat).all(axis=1)):
        raise DataError("matrix must be finite", index=int(k))
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
        a[k].take(order[k], axis=0, out=rows, mode="clip")
        rows.take(order[k], axis=1, out=a[k], mode="clip")

    # Every entity starts a lending path of 0 links, and one of k + 1 links
    # when it lends to one that starts a path of k. The sets only shrink with
    # k, so they stop changing within n steps: at a nonempty set exactly when
    # the pattern has a cycle (radius > 0). A nilpotent matrix keeps its last
    # nonempty set, the entities that start a longest chain.
    links = a > 0
    starts = np.ones((count, n), dtype=bool)
    while True:
        longer = np.matmul(links, starts[:, :, None])[:, :, 0]
        iterate = longer.any(axis=1)
        if np.array_equal(longer[iterate], starts[iterate]):
            break
        starts[iterate] = longer[iterate]
    # Nobody lends to a chain head, so A v = 0 holds exactly for the vector
    # spread evenly over them.
    lambdas = np.zeros(count)
    vectors = starts / np.sqrt(np.count_nonzero(starts, axis=1))[:, None]

    # A smaller shift converges faster until it nears 0, where a periodic
    # matrix's -rho takes over; so rows that sum to 0 stay out of the mean.
    row_sums = a.sum(axis=2)
    shift = 0.5 * row_sums.sum(axis=1) / np.count_nonzero(row_sums, axis=1)
    flat[:, ::n + 1] += shift[:, None]  # B = A + shift I, in place

    # Only unconverged matrices are iterated: they fill the front of the work
    # array, in no set order, and `active` holds their positions in the stack.
    # A matrix gets the same bits at any place, so the order moves no digit.
    b, active = _fill_holes(a, ~iterate)
    shift, exponents = shift[active], exponents[active]
    x = np.full((len(active), n), 1.0 / math.sqrt(n))
    y = np.empty_like(x)
    iterations = 0
    while len(active):
        # A block: steps - 1 bare products, then one normalized pair
        # (u, w = B u); the last block ends at exactly MAX_ITERATIONS. Bare
        # products stay in the float range: for x >= 0,
        # shift ||x|| <= ||B x|| <= 1.5n ||x||, as the scaled entries are
        # below 1 and the shift, half a mean nonzero row sum, is at least
        # 0.25/n (some entry is at least 0.5). A block starts from a unit
        # vector or from w, so ||x||**2 lies in [(0.25/n)**32, (1.5n)**32],
        # inside the float range for any n below 10**8.
        steps = min(_BLOCK_STEPS, MAX_ITERATIONS - iterations)
        for _ in range(steps - 1):
            np.matmul(b, x[:, :, None], out=y[:, :, None])
            x, y = y, x
        u = x / np.sqrt(_dots(x, x))[:, None]
        w = np.matmul(b, u[:, :, None])[:, :, 0]
        iterations += steps

        # One test per block, on its pair. For the shifted matrix,
        # A u - lam u == B u - mu u, so the residual costs no matvec.
        mu = _dots(u, w)
        lam = mu - shift
        r = w - mu[:, None] * u
        res = np.sqrt(_dots(r, r))
        finished = res <= RESIDUAL_RTOL * lam
        x = w
        if finished.any():  # in most blocks no matrix passes
            done = active[finished]
            with np.errstate(over="ignore"):
                lambdas[done] = np.ldexp(lam[finished], exponents[finished])
            overflowed = done[np.isinf(lambdas[done])]
            if len(overflowed):
                raise DataError("spectral radius exceeds the float range",
                                index=int(overflowed.min()))
            vectors[done] = u[finished]
            b, keep = _fill_holes(b, finished)
            active, shift, exponents = active[keep], shift[keep], exponents[keep]
            x, y, res, lam = w[keep], y[:len(keep)], res[keep], lam[keep]
        if iterations == MAX_ITERATIONS and len(active):
            first = int(np.argmin(active))  # the first unconverged in the stack
            with np.errstate(over="ignore"):  # scaled back, it may pass the float max
                res, lam = np.ldexp([res[first], lam[first]], exponents[first]).tolist()
            raise ConvergenceError(
                f"power iteration did not converge within {MAX_ITERATIONS} iterations "
                f"(residual {res:.3e}, lambda {lam:.6e})",
                residual=res, iterations=MAX_ITERATIONS, index=int(active[first]),
            )
    return lambdas, np.take_along_axis(vectors, np.argsort(order, axis=1), axis=1)


def _unit_scaled(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`sym`, or each matrix of a stack, scaled by the power of two that puts
    its largest |entry| in [0.5, 1), and the exponents to scale back by.
    The scaling is exact; LAPACK's own, past about 1e146, is not."""
    exponents = np.frexp(np.abs(sym).max(axis=(-2, -1)))[1]
    return np.ldexp(sym, -exponents[..., None, None]), exponents


def symmetric_lambda_max(sym: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue of a symmetric (N, N) matrix, or the (R,) largest
    eigenvalues of an (R, N, N) stack, each with the bits of the matrix alone."""
    scaled, exponents = _unit_scaled(sym)
    return np.ldexp(np.linalg.eigvalsh(scaled)[..., -1], exponents)


def full_spectrum(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (descending) and orthonormal eigenvectors, as rows, of
    a finite, exactly symmetric (N, N) matrix: `eigenvectors[k]` belongs to
    `eigenvalues[k]`. Each vector's component of largest |value| (the first
    on a tie) is positive."""
    scaled, exponent = _unit_scaled(_symmetric_matrix(sym))
    values, basis = np.linalg.eigh(scaled)
    order = np.argsort(-values, kind="stable")
    eigenvectors = basis.T[order]
    pivots = np.abs(eigenvectors).argmax(axis=1)
    eigenvectors[eigenvectors[np.arange(len(order)), pivots] < 0] *= -1.0
    return np.ldexp(values[order], exponent), eigenvectors

"""Eigen-analysis of flow networks.

Two spectrum modes exist. The directed nonnegative matrix has a real
dominant eigenvalue with a nonnegative eigenvector (the market mode);
power iteration computes that leading pair. The symmetrized matrix has a
full real spectrum, which is what mean inverse participation ratios are
averaged over.
"""
from __future__ import annotations

import collections
import itertools
import math

import numpy as np

from .errors import ConvergenceError, DataError, FlowspectraError

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


def _screen(a: np.ndarray) -> tuple[np.ndarray, list]:
    """Check each matrix of the stack `a` and scale it in place by the power
    of two that puts its largest entry in [0.5, 1): exact, and vector norms
    can no longer underflow or overflow (which would turn a positive radius
    into 0). Returns the exponents to scale back by and, for each matrix that
    fails a check, (check, position, error): its first failed check, in the
    order finite, nonnegative, nonzero, no positive weight scaled to 0."""
    count, n = a.shape[0], a.shape[1]
    flat = a.reshape(count, n * n)
    peaks = flat.max(axis=1)
    failed, failures = np.zeros(count, dtype=bool), []
    for check, (bad, message) in enumerate((
            (~np.isfinite(flat).all(axis=1), "matrix must be finite"),
            (flat.min(axis=1) < 0, "power iteration requires a nonnegative matrix"),
            (peaks == 0, "matrix has no nonzero entries"))):
        failures += [(check, k, DataError(message)) for k in np.flatnonzero(bad & ~failed)]
        failed |= bad
    exponents = np.frexp(peaks)[1]
    nonzero = np.count_nonzero(flat, axis=1)
    np.ldexp(a, -exponents[:, None, None], out=a)
    for k in np.flatnonzero(~failed & (np.count_nonzero(flat, axis=1) < nonzero)):
        failures.append((3, k, DataError(
            f"weights span too many orders of magnitude: scaled by 2**{-int(exponents[k])} "
            "into the float range, positive weights underflow to 0")))
    return exponents, failures


class StackGroup:
    """`count` matrices that join the work stack of `solve_stack` in order:
    `write(rows, start)` writes matrices start, start + 1, ... into the rows
    of a stack slice, in place.

    Once `solve_stack` has yielded the group, `lambdas[j]` is matrix j's
    spectral radius, or with `symmetric` the top eigenvalue of (M + M^T) / 2,
    and for j below the count passed as `vectors`, `vectors[j]` is its
    Perron vector; unless `error` is set. `ranks`, nondecreasing, orders the errors: the group reports the
    error of its lowest rank, and within a rank the one that a stack of that
    rank's matrices raises first (a failed check before a failed iteration,
    an earlier block before a later, a radius past the float range before a
    cap reached, then the lower index). The error's `index` is the matrix's
    place in the group. Matrices whose errors could only come later leave
    the stack, or do not join it.
    """

    def __init__(self, count: int, write, ranks, *, vectors: int = 0,
                 symmetric: bool = False) -> None:
        self.count, self.write, self.ranks = count, write, np.asarray(ranks)
        self.symmetric, self.keep = symmetric, vectors
        self.lambdas = np.zeros(count)
        self.vectors = self.orders = self.serial = None  # set when `solve_stack` draws it
        self.joined = self.running = 0
        self.end = count  # matrices from `end` on do not join
        self.error: FlowspectraError | None = None
        self._key: tuple | None = None

    def fail(self, key: tuple, error: FlowspectraError) -> None:
        """Record `error` of matrix j = key[-1]. The lowest key is reported:
        (rank, 0, check, 0, j) for a failed check (numbered as in `_screen`),
        (rank, 1, steps, 0, j) for a radius past the float range and
        (rank, 1, steps, 1, j) for the iteration cap."""
        error.index = int(key[-1])
        if self._key is None or key < self._key:
            self._key, self.error = key, error
            self.end = min(self.end, int(np.searchsorted(self.ranks, key[0], side="right")))

    def unneeded(self, local: np.ndarray, iterations: np.ndarray) -> np.ndarray:
        """Which of its running matrices `local`, `iterations` steps in, can
        only fail with errors that come after the group's error."""
        rank, phase, at = self._key[:3]
        ranks = self.ranks[local]
        return (ranks > rank) | ((ranks == rank) & ((phase == 0) | (iterations >= at)))


class _Stack:
    """The m running matrices of `solve_stack`. They fill the front of
    `buffer` in no set order; a matrix gets the same bits at any place, so
    the order moves no digit. Row k of each state array belongs to matrix k:
    its group's serial, its place in the group, its steps so far, its scale
    exponent, its shift and its iterate x."""

    def __init__(self, buffer: np.ndarray) -> None:
        self.buffer, self.m, n = buffer, 0, buffer.shape[1]
        self.groups: dict[int, StackGroup] = {}  # by serial: those with running matrices
        ints = np.empty(0, dtype=np.intp)  # each is replaced, not written, by the first join
        self.serial, self.local, self.iterations, self.exponents = ints, ints, ints, ints
        self.shift, self.x = np.empty(0), np.empty((0, n))
        self.y = self.x

    def _state(self) -> tuple:
        return self.serial, self.local, self.iterations, self.exponents, self.shift, self.x

    def join(self, group: StackGroup, count: int) -> None:
        """Write the group's next `count` matrices behind the running ones and
        start them; a symmetric or zero-radius matrix is solved at once."""
        n = self.buffer.shape[1]
        part = self.buffer[self.m:self.m + count]
        group.write(part, group.joined)
        local = np.arange(group.joined, group.joined + count)
        group.joined += count
        if group.symmetric:
            part += part.swapaxes(1, 2)  # numpy copies the overlapping operand
            part /= 2.0
            group.lambdas[local] = symmetric_lambda_max(part)
            return
        exponents, failures = _screen(part)
        leaving = np.zeros(count, dtype=bool)
        for check, k, error in failures:
            group.fail((group.ranks[local[k]], 0, check, 0, local[k]), error)
            leaving[k] = True
        part, keep = _fill_holes(part, leaving)
        local, exponents = local[keep], exponents[keep]

        # Entity i of canonical matrix k is entity order[k, i]; a max is exact, so
        # relabelling cannot move a key. Mode "clip" does not buffer `out`.
        order, rows = np.lexsort((part.max(axis=1), part.max(axis=2))), np.empty((n, n))
        for k in range(len(part)):
            part[k].take(order[k], axis=0, out=rows, mode="clip")
            rows.take(order[k], axis=1, out=part[k], mode="clip")

        # Every entity starts a lending path of 0 links, and one of k + 1 links
        # when it lends to one that starts a path of k. The sets only shrink with
        # k, so they stop changing within n steps: at a nonempty set exactly when
        # the pattern has a cycle (radius > 0). A nilpotent matrix keeps its last
        # nonempty set, the entities that start a longest chain.
        links = part > 0
        starts = np.ones((len(part), n), dtype=bool)
        while True:
            longer = np.matmul(links, starts[:, :, None])[:, :, 0]
            iterate = longer.any(axis=1)
            if np.array_equal(longer[iterate], starts[iterate]):
                break
            starts[iterate] = longer[iterate]
        wanted = local < group.keep
        group.orders[local[wanted]] = order[wanted]
        # Nobody lends to a chain head, so A v = 0 holds exactly for the vector
        # spread evenly over them (and the radius stays 0).
        chains = starts[wanted & ~iterate]
        group.vectors[local[wanted & ~iterate]] = (
            chains / np.sqrt(np.count_nonzero(chains, axis=1))[:, None])

        # A smaller shift converges faster until it nears 0, where a periodic
        # matrix's -rho takes over; so rows that sum to 0 stay out of the mean.
        b, keep = _fill_holes(part, ~iterate)
        row_sums = b.sum(axis=2)
        shift = 0.5 * row_sums.sum(axis=1) / np.count_nonzero(row_sums, axis=1)
        b.reshape(len(b), n * n)[:, ::n + 1] += shift[:, None]  # B = A + shift I, in place

        joining = (np.full(len(b), group.serial), local[keep], np.zeros(len(b), dtype=np.intp),
                   exponents[keep], shift, np.full((len(b), n), 1.0 / math.sqrt(n)))
        (self.serial, self.local, self.iterations, self.exponents, self.shift,
         self.x) = (np.concatenate(pair) for pair in zip(self._state(), joining))
        self.y = np.empty_like(self.x)
        self.groups[group.serial] = group
        group.running += len(b)
        self.m += len(b)
        if group.error is not None:
            self._remove(self._unneeded(group))

    def block(self) -> list[StackGroup]:
        """One block of steps on every running matrix. Returns the groups it
        leaves with no running matrix and nothing left to join."""
        b, x, y = self.buffer[:self.m], self.x, self.y
        # A block: steps - 1 bare products, then one normalized pair
        # (u, w = B u); the last block ends at exactly MAX_ITERATIONS. Matrices
        # join only with whole blocks left (see `solve_stack`), so one count of
        # steps suits every running matrix. Bare products stay in the float
        # range: for x >= 0, shift ||x|| <= ||B x|| <= 1.5n ||x||, as the scaled
        # entries are below 1 and the shift, half a mean nonzero row sum, is at
        # least 0.25/n (some entry is at least 0.5). A block starts from a unit
        # vector or from w, so ||x||**2 lies in [(0.25/n)**32, (1.5n)**32],
        # inside the float range for any n below 10**8.
        steps = min(_BLOCK_STEPS, MAX_ITERATIONS - int(self.iterations[0]))
        for _ in range(steps - 1):
            np.matmul(b, x[:, :, None], out=y[:, :, None])
            x, y = y, x
        u = x / np.sqrt(_dots(x, x))[:, None]
        w = np.matmul(b, u[:, :, None])[:, :, 0]
        self.iterations += steps
        self.x, self.y = w, y

        # One test per block, on its pair. For the shifted matrix,
        # A u - lam u == B u - mu u, so the residual costs no matvec.
        mu = _dots(u, w)
        lam = mu - self.shift
        r = w - mu[:, None] * u
        res = np.sqrt(_dots(r, r))
        finished = res <= RESIDUAL_RTOL * lam
        leaving = finished | (self.iterations >= MAX_ITERATIONS)
        if not leaving.any():  # in most blocks no matrix passes
            return []
        out = np.flatnonzero(leaving)
        serials = self.serial[out]
        with np.errstate(over="ignore"):  # scaled back, it may pass the float max
            radii = np.ldexp(lam[out], self.exponents[out])
        for k in out[~(finished[out] & np.isfinite(radii))].tolist():
            group, j = self.groups[int(self.serial[k])], int(self.local[k])
            if finished[k]:
                group.fail((group.ranks[j], 1, int(self.iterations[k]), 0, j),
                           DataError("spectral radius exceeds the float range"))
                continue
            with np.errstate(over="ignore"):
                res_k, lam_k = np.ldexp([res[k], lam[k]], self.exponents[k]).tolist()
            group.fail((group.ranks[j], 1, MAX_ITERATIONS, 1, j), ConvergenceError(
                f"power iteration did not converge within {MAX_ITERATIONS} iterations "
                f"(residual {res_k:.3e}, lambda {lam_k:.6e})",
                residual=res_k, iterations=MAX_ITERATIONS))
        for serial in set(serials.tolist()):
            group, mine = self.groups[serial], serials == serial
            local = self.local[out[mine]]
            group.lambdas[local] = radii[mine]  # a failed matrix's value goes unread
            wanted = local < group.keep
            if wanted.any():
                group.vectors[local[wanted]] = u[out[mine][wanted]]
        for group in self.groups.values():
            if group.error is not None:
                leaving |= self._unneeded(group)
        return [self.groups.pop(group.serial) for group in self._remove(leaving)
                if group.write is None and not group.running]

    def _unneeded(self, group: StackGroup) -> np.ndarray:
        """The running matrices of the failed `group` that cannot change its error."""
        mine = self.serial == group.serial
        mine[mine] = group.unneeded(self.local[mine], self.iterations[mine])
        return mine

    def _remove(self, leaving: np.ndarray) -> list[StackGroup]:
        """Take the matrices marked `leaving` out of the stack; returns their groups."""
        touched = collections.Counter(self.serial[leaving].tolist())
        for serial, gone in touched.items():
            self.groups[serial].running -= gone
        _, keep = _fill_holes(self.buffer[:self.m], leaving)
        (self.serial, self.local, self.iterations, self.exponents, self.shift,
         self.x) = (state[keep] for state in self._state())
        self.m, self.y = len(keep), self.y[:len(keep)]
        return [self.groups[serial] for serial in touched]


def solve_stack(groups, buffer: np.ndarray):
    """Solve the matrices of `groups`, an iterable of `StackGroup`s, in the
    work stack `buffer` (C, N, N), and yield each group once every one of its
    matrices is solved, failed or left.

    The groups join in order, each in parts of min(matrices left, C): a part
    joins at a block boundary as soon as it fits behind the running
    matrices, and then only while every running matrix has a whole number of
    blocks left before MAX_ITERATIONS (always, at a cap that is a multiple
    of 16). So one group's slowest matrices share their blocks with the
    next group's. Each matrix gets the bits it gets alone, from
    `leading_eigenpair` or, if symmetric, `symmetric_lambda_max`. The next
    group is drawn from `groups`, which may prepare it then, only once a
    part as large as the last group's first would fit: drawn sooner, its
    preparation would only push the running matrices out of the cache. A
    group's writer is dropped once its last matrix has joined.
    """
    stack, serials = _Stack(buffer), itertools.count()
    capacity, n = buffer.shape[0], buffer.shape[1]

    def fits(count: int) -> bool:
        return not stack.m or (stack.m + count <= capacity
                               and not MAX_ITERATIONS % _BLOCK_STEPS)

    groups, joining, first_part = iter(groups), None, 0
    while True:
        while True:
            if joining is None:
                if not fits(first_part):
                    break
                joining = next(groups, None)
                if joining is None:
                    break
                first_part = min(joining.count, capacity)
                joining.serial = next(serials)
                joining.vectors = np.empty((joining.keep, n))
                joining.orders = np.empty((joining.keep, n), dtype=np.intp)
            if joining.joined < joining.end:
                count = min(joining.end - joining.joined, capacity)
                if not fits(count):
                    break
                stack.join(joining, count)
            if joining.joined >= joining.end:
                joining.write = None
                if not joining.running:
                    stack.groups.pop(joining.serial, None)
                    yield _finished(joining)
                joining = None
        if not stack.m:
            return
        for group in stack.block():
            yield _finished(group)


def _finished(group: StackGroup) -> StackGroup:
    """`group` with its Perron vectors in the entities' own order."""
    if group.error is None:
        group.vectors = np.take_along_axis(group.vectors, np.argsort(group.orders, axis=1), axis=1)
    group.orders = None
    return group


def leading_eigenpair(weights: np.ndarray) -> tuple:
    """Dominant eigenpair of a nonnegative (N, N) matrix, or of each matrix
    of an (R, N, N) stack.

    Power iteration with a diagonal shift of half the mean nonzero row sum,
    which leaves the spectral radius and its eigenvector unchanged but keeps
    periodic (bipartite-like) matrices converging instead of oscillating, on
    the entities in a canonical order (by row max, then column max) that
    gives relabelled matrices with distinct keys the same bits. The start
    vector is the uniform 1/sqrt(n). The stack is one group of
    `solve_stack`, the one power iteration of the package: each matrix keeps
    its own order, scale, shift and residual test, so a matrix gets the same
    bits alone as in any stack. The steps run in blocks of 16 that only
    multiply; the vector is normalized once per block, for the block's last
    pair, and only that pair is tested: each matrix returns the first
    block-end pair that passes and leaves the iteration there. Whether the
    radius is 0 is decided exactly on the 0/1 pattern: it is 0 when the
    lending pattern has no cycle. Such a matrix is not iterated, and its
    vector is spread evenly over the entities that start a longest chain,
    so A v = 0 exactly.

    Returns (spectral radius, nonnegative unit eigenvector) for a matrix,
    and an (R,) array of radii with an (R, N) array of vectors for a stack.
    The residual of each returned pair, as evaluated in floating point on
    the shifted matrix, satisfies ||A v - lambda v|| <= RESIDUAL_RTOL * lambda.
    A radius beyond the float range raises DataError, and so do weights too
    far apart for one float scale to keep every positive weight positive.
    A pair that has not passed by MAX_ITERATIONS steps, as on a cycle whose
    weight product underflows, raises ConvergenceError. An error names the
    matrix's position in the stack as `index` (0 for a matrix).

    A C-contiguous float64 stack is itself the work stack and is overwritten,
    so solving R matrices holds no second R x N x N array; a matrix is copied.
    """
    a = np.asarray(weights)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DataError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.ndim == 2:
        lam, vectors = leading_eigenpair(np.array(a, dtype=float)[None])
        return float(lam[0]), vectors[0]
    a = np.require(a, dtype=float, requirements=["C_CONTIGUOUS", "WRITEABLE"])
    count = a.shape[0]
    if a.shape[1] == 0:
        raise DataError("empty matrix")
    # The stack is already in place: the group joins as one part of all of it.
    group = next(solve_stack([StackGroup(count, lambda rows, start: None,
                                         np.zeros(count, dtype=np.intp),
                                         vectors=count)], a))
    if group.error is not None:
        raise group.error
    return group.lambdas, group.vectors


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

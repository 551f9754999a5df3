"""Shuffled surrogate networks and the null distribution of the leading
eigenvalue.

Both shuffle modes preserve the multiset of positive weights exactly
(values are moved, never recomputed), so a surrogate carries the same
weight distribution with randomized bilateral relations: the "no
information" benchmark.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, FlowspectraError
from .network import NetworkSnapshot
from .spectral import (
    MODE_DIRECTED,
    MODE_SYMMETRIZED,
    SPECTRUM_MODES,
    leading_eigenpair,
    symmetric_lambda_max,
)

MODE_LINK_SHUFFLE = "link-shuffle"
MODE_WEIGHT_PERMUTE = "weight-permute"
SHUFFLE_MODES = (MODE_LINK_SHUFFLE, MODE_WEIGHT_PERMUTE)


@dataclass(frozen=True)
class NullEnsembleStats:
    """Distribution summary of lambda_max over shuffled replicas, in the key
    order of a `timeseries.json` entry's `null` block."""

    mode: str
    n_samples: int
    seed: int
    mean: float
    std: float
    q01: float
    q50: float
    q99: float
    lambda_values: tuple[float, ...]


#: The null writes and solves its replicas in one reused buffer of
#: min(R, max(1, _CHUNK_BYTES // (8 N^2))) matrices. At N = 31, 100 replicas
#: stay one chunk: 256 and 512 KiB budgets split it and slowed the null.
_CHUNK_BYTES = 1 << 20


def _quantile(ordered: np.ndarray, q: float) -> float:
    """The q-quantile of a sorted sample of at least 2, by the linear rule
    (Hyndman & Fan's type 7, numpy's default method) and with the bits of
    `np.quantile`, whose first call in a process imports `numpy.ma`."""
    h = (len(ordered) - 1) * q
    i = int(h)  # floor: h >= 0
    a, b, t = float(ordered[i]), float(ordered[i + 1]), h - i
    # numpy's _lerp: the form that ends at the nearer neighbour
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _replica_writer(snapshot: NetworkSnapshot, seed: int, mode: str):
    """`write(row)`, which writes the next replica of the stream
    `default_rng(seed)` (see `shuffle_snapshot`) as it is drawn into `row`,
    a zeroed flat float64 N*N array. The edges are looked up once."""
    if mode not in SHUFFLE_MODES:
        raise DataError(f"unknown shuffle mode {mode!r} (expected one of {SHUFFLE_MODES})")
    if seed < 0:
        raise DataError("seed must be a nonnegative integer")
    n = snapshot.n_entities
    positions = np.flatnonzero(snapshot.weights)
    n_edges = positions.size
    if n_edges == 0:
        raise DataError(f"{snapshot.period}: snapshot has no edges to shuffle")
    values = snapshot.weights.flat[positions]
    rng = np.random.default_rng(seed)
    if mode == MODE_LINK_SHUFFLE:
        # Slot s is the s-th off-diagonal flat index in row-major order; a
        # draw is distinct slots in that n(n-1) space, no rejection loop.
        flat_of_slot = np.arange(n * n)[~np.eye(n, dtype=bool).ravel()]

        def write(row: np.ndarray) -> None:
            row[flat_of_slot[rng.choice(n * (n - 1), size=n_edges, replace=False)]] = values
    else:
        def write(row: np.ndarray) -> None:
            row[positions] = values[rng.permutation(n_edges)]
    return write


def shuffle_snapshot(snapshot: NetworkSnapshot, seed: int,
                     mode: str = MODE_LINK_SHUFFLE, replica: int = 0) -> NetworkSnapshot:
    """Return replica `replica` of the null ensemble drawn with `seed`: a
    surrogate snapshot with the same weight multiset.

    link-shuffle reassigns the positive weights to distinct ordered
    off-diagonal positions chosen uniformly at random; weight-permute
    permutes the weights among the existing edge positions, preserving the
    topology. `null_ensemble(snapshot, R, seed, mode)` solves exactly these
    surrogates for replica = 0 .. R-1. Replica k is drawn after replicas
    0 .. k-1, which are discarded.
    """
    if replica < 0:
        raise DataError("replica must be a nonnegative integer")
    write = _replica_writer(snapshot, seed, mode)
    n = snapshot.n_entities
    row = np.empty(n * n)
    for _ in range(replica):
        write(row)  # drawn and discarded
    row.fill(0.0)
    write(row)
    return NetworkSnapshot(snapshot.period, snapshot.entities, row.reshape(n, n))


def null_ensemble(snapshot: NetworkSnapshot, n_samples: int, seed: int,
                  mode: str = MODE_LINK_SHUFFLE, *,
                  spectrum_mode: str = MODE_DIRECTED) -> NullEnsembleStats:
    """Null distribution of the leading eigenvalue over shuffled replicas.

    The replicas are consecutive draws from one generator seeded with
    `seed`, so they are independent and replayable, and the first R' of an
    R-replica ensemble are the R'-replica ensemble; `shuffle_snapshot`
    replays replica k. The replicas are written, each as it is drawn, into
    one reused buffer of at most `_CHUNK_BYTES` and solved a chunk at a
    time; the eigensolver overwrites the chunk in place, so memory does not
    grow with `n_samples`. In symmetrized spectrum mode each chunk is
    symmetrized in place and the top eigenvalue of each replica is used. A
    solver error names the replica's place in the stream as `replica k`.
    """
    if spectrum_mode not in SPECTRUM_MODES:
        raise DataError(f"unknown spectrum mode {spectrum_mode!r}")
    if n_samples < 1:
        raise DataError("n_samples must be at least 1")
    write = _replica_writer(snapshot, seed, mode)
    n = snapshot.n_entities
    buffer = np.empty((min(n_samples, max(1, _CHUNK_BYTES // (8 * n * n))), n, n))
    lambdas = np.empty(n_samples)
    for start in range(0, n_samples, len(buffer)):
        chunk = buffer[:n_samples - start]
        chunk.fill(0.0)
        for row in chunk.reshape(len(chunk), n * n):
            write(row)
        solved = lambdas[start:start + len(chunk)]
        if spectrum_mode == MODE_SYMMETRIZED:
            chunk += chunk.swapaxes(1, 2)  # numpy copies the overlapping operand
            chunk /= 2.0
            solved[:] = symmetric_lambda_max(chunk)
        else:
            try:
                solved[:], _ = leading_eigenpair(chunk)
            except FlowspectraError as exc:  # keeps residual and iterations
                exc.index += start
                exc.args = (f"replica {exc.index}: {exc}",)
                raise

    ordered = np.sort(lambdas)
    if ordered[0] == ordered[-1]:
        # Constant distribution: avoid the rounding a 50-term mean would add.
        mean, std = float(ordered[0]), 0.0
        q01 = q50 = q99 = mean
    else:
        # Sum in units of the largest lambda's power of two, so the sums behind
        # mean and std cannot overflow; scaling by a power of two is exact.
        exponent = int(np.frexp(ordered[-1])[1])
        scaled = np.ldexp(ordered, -exponent)
        mean = float(np.ldexp(scaled.mean(), exponent))
        std = float(np.ldexp(scaled.std(), exponent))
        q01, q50, q99 = (_quantile(ordered, q) for q in (0.01, 0.50, 0.99))
    return NullEnsembleStats(
        mode=mode,
        n_samples=n_samples,
        seed=seed,
        mean=mean,
        std=std,
        q01=q01,
        q50=q50,
        q99=q99,
        lambda_values=tuple(lambdas.tolist()),
    )

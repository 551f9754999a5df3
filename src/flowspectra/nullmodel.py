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


def _replicas(snapshot: NetworkSnapshot, seed: int, mode: str, count: int,
              first: int = 0) -> np.ndarray:
    """Replicas first .. first+count-1 of the stream `default_rng(seed)` (see
    `shuffle_snapshot`), as a C-contiguous (count, N, N) float64 stack.

    Replica k is the k-th draw from the one generator, so the replicas
    before `first` are drawn and discarded (negative slots), never stored.
    """
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
    draws = np.empty((count, n_edges), dtype=np.intp)
    for k in range(-first, count):
        if mode == MODE_LINK_SHUFFLE:
            # Distinct slots in the n(n-1) off-diagonal index space, no rejection loop.
            draw = rng.choice(n * (n - 1), size=n_edges, replace=False)
        else:
            draw = rng.permutation(n_edges)
        if k >= 0:
            draws[k] = draw
    stack = np.zeros((count, n * n))
    replica = np.arange(count)[:, None]
    if mode == MODE_LINK_SHUFFLE:
        # Slot s is the s-th off-diagonal flat index in row-major order.
        flat_of_slot = np.arange(n * n)[~np.eye(n, dtype=bool).ravel()]
        stack[replica, flat_of_slot[draws]] = values
    else:
        stack[replica, positions] = values[draws]
    return stack.reshape(count, n, n)


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
    return NetworkSnapshot(snapshot.period, snapshot.entities,
                           _replicas(snapshot, seed, mode, 1, replica)[0])


def null_ensemble(snapshot: NetworkSnapshot, n_samples: int, seed: int,
                  mode: str = MODE_LINK_SHUFFLE, *,
                  spectrum_mode: str = MODE_DIRECTED) -> NullEnsembleStats:
    """Null distribution of the leading eigenvalue over shuffled replicas.

    The replicas are consecutive draws from one generator seeded with
    `seed`, so they are independent and replayable, and the first R' of an
    R-replica ensemble are the R'-replica ensemble; `shuffle_snapshot`
    replays replica k. All replicas are written into one stack and solved
    together; the eigensolver overwrites the stack in place. In symmetrized
    spectrum mode the top eigenvalue of each symmetrized replica is used.
    """
    if spectrum_mode not in SPECTRUM_MODES:
        raise DataError(f"unknown spectrum mode {spectrum_mode!r}")
    if n_samples < 1:
        raise DataError("n_samples must be at least 1")
    stack = _replicas(snapshot, seed, mode, n_samples)
    if spectrum_mode == MODE_SYMMETRIZED:
        lambdas = symmetric_lambda_max((stack + stack.swapaxes(1, 2)) / 2.0)
    else:
        try:
            lambdas, _ = leading_eigenpair(stack)
        except FlowspectraError as exc:  # keeps residual and iterations
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
        q01, q50, q99 = (float(q) for q in np.quantile(ordered, [0.01, 0.50, 0.99]))
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

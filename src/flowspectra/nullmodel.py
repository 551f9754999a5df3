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
from .ingest import derive_seed
from .network import NetworkSnapshot, symmetrize
from .spectral import MODE_DIRECTED, MODE_SYMMETRIZED, SPECTRUM_MODES, leading_eigenpair

MODE_LINK_SHUFFLE = "link-shuffle"
MODE_WEIGHT_PERMUTE = "weight-permute"
SHUFFLE_MODES = (MODE_LINK_SHUFFLE, MODE_WEIGHT_PERMUTE)


@dataclass(frozen=True)
class NullEnsembleStats:
    """Distribution summary of lambda_max over shuffled replicas."""

    n_samples: int
    lambda_values: tuple[float, ...]
    mean: float
    std: float
    q01: float
    q50: float
    q99: float
    seed: int
    mode: str

    def to_json(self, include_lambda_values: bool = False) -> dict:
        payload = {
            "mode": self.mode,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "mean": self.mean,
            "std": self.std,
            "q01": self.q01,
            "q50": self.q50,
            "q99": self.q99,
        }
        if include_lambda_values:
            payload["lambda_values"] = list(self.lambda_values)
        return payload


def _check_mode(mode: str) -> None:
    if mode not in SHUFFLE_MODES:
        raise DataError(f"unknown shuffle mode {mode!r} (expected one of {SHUFFLE_MODES})")


def shuffle_snapshot(snapshot: NetworkSnapshot, seed: int,
                     mode: str = MODE_LINK_SHUFFLE) -> NetworkSnapshot:
    """Return a surrogate snapshot with the same weight multiset.

    link-shuffle reassigns the positive weights to distinct ordered
    off-diagonal positions chosen uniformly at random; weight-permute
    permutes the weights among the existing edge positions, preserving the
    topology. The same seed yields the identical surrogate.
    """
    _check_mode(mode)
    if seed < 0:
        raise DataError("seed must be a nonnegative integer")
    weights = snapshot.weights
    n = snapshot.n_entities
    flat_positions = np.flatnonzero(weights)
    n_edges = flat_positions.size
    if n_edges == 0:
        raise DataError(f"{snapshot.period}: snapshot has no edges to shuffle")
    values = weights.flat[flat_positions]

    rng = np.random.default_rng(seed)
    shuffled = np.zeros_like(weights)
    if mode == MODE_LINK_SHUFFLE:
        # Uniform sample of distinct slots in the n(n-1) off-diagonal index
        # space; no rejection loop, so dense matrices cost the same.
        slots = rng.choice(n * (n - 1), size=n_edges, replace=False)
        rows = slots // (n - 1)
        rest = slots % (n - 1)
        cols = rest + (rest >= rows)
        shuffled[rows, cols] = values
    else:
        shuffled.flat[flat_positions] = values[rng.permutation(n_edges)]
    return NetworkSnapshot(snapshot.period, snapshot.entities, shuffled)


def null_ensemble(snapshot: NetworkSnapshot, n_samples: int, seed: int,
                  mode: str = MODE_LINK_SHUFFLE, *,
                  spectrum_mode: str = MODE_DIRECTED) -> NullEnsembleStats:
    """Null distribution of the leading eigenvalue over shuffled replicas.

    Replica k shuffles with a sub-seed derived from (seed, k), so replicas
    are independent, order-insensitive, and replayable. In symmetrized
    spectrum mode the top eigenvalue of each symmetrized replica is used.
    """
    _check_mode(mode)
    if spectrum_mode not in SPECTRUM_MODES:
        raise DataError(f"unknown spectrum mode {spectrum_mode!r}")
    if n_samples < 1:
        raise DataError("n_samples must be at least 1")
    lambdas: list[float] = []
    for k in range(n_samples):
        replica = shuffle_snapshot(snapshot, derive_seed(seed, k), mode)
        try:
            if spectrum_mode == MODE_SYMMETRIZED:
                lam = float(np.linalg.eigvalsh(symmetrize(replica).values)[-1])
            else:
                lam, _ = leading_eigenpair(replica)
        except FlowspectraError as exc:  # keeps residual and iterations
            exc.args = (f"replica {k}: {exc}",)
            raise
        lambdas.append(lam)

    ordered = np.sort(np.asarray(lambdas))
    if ordered[0] == ordered[-1]:
        # Constant distribution: avoid the rounding a 50-term mean would add.
        mean, std = float(ordered[0]), 0.0
        q01 = q50 = q99 = mean
    else:
        mean = float(ordered.mean())
        std = float(ordered.std())
        q01, q50, q99 = (float(q) for q in np.quantile(ordered, [0.01, 0.50, 0.99]))
    return NullEnsembleStats(
        n_samples=n_samples,
        lambda_values=tuple(lambdas),
        mean=mean,
        std=std,
        q01=q01,
        q50=q50,
        q99=q99,
        seed=seed,
        mode=mode,
    )

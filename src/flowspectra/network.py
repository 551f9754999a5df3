"""Per-period weighted directed adjacency matrices and scalar descriptors.

Snapshots always use the global entity roster of the record set they were
built from, so matrices for different periods are index-aligned and
eigenvector components stay comparable over time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import FlowRecordSet, serialize_flow_csv


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """One period's weighted directed network.

    `weights[i, j]` is the total amount lent by entity i to entity j; the
    diagonal is exactly zero and entities are unique and lexicographically
    sorted (the canonical index).
    """

    period: str
    entities: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        entities = tuple(self.entities)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        object.__setattr__(self, "entities", entities)
        object.__setattr__(self, "weights", weights)
        n = len(entities)
        if n < 2:
            raise DataError("a snapshot needs at least 2 entities")
        if list(entities) != sorted(set(entities)):
            raise DataError("entities must be unique and sorted")
        if weights.shape != (n, n):
            raise DataError(f"weights must be {n}x{n}, got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise DataError("weights must be finite")
        if weights.min(initial=0.0) < 0:
            raise DataError("weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not np.isfinite(total):
            raise DataError(f"{self.period}: total volume overflows: the weights "
                            "are finite but their sum exceeds the float maximum")
        if np.any(np.diagonal(weights) != 0):
            raise DataError("diagonal must be exactly zero")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.weights))


def build_snapshot(records: FlowRecordSet, period: str) -> NetworkSnapshot:
    """Aggregate one period's records into an adjacency matrix.

    The entity roster covers every entity appearing in any period of the
    record set; relations absent in this period are zero. Duplicate
    (reporter, counterparty) rows are summed.
    """
    if period not in records.periods:
        raise DataError(f"unknown period {period!r}")
    rows = records.period_index == records.periods.index(period)
    n = len(records.entities)
    cells = records.reporter_index[rows] * n
    cells += records.counterparty_index[rows]  # in place: one index array fewer at peak
    # In row order from 0.0, so duplicates sum as a Python loop would.
    weights = np.bincount(cells, weights=records.amounts[rows], minlength=n * n).reshape(n, n)
    for i, j in np.argwhere(np.isinf(weights))[:1]:
        raise DataError(f"{period}: duplicate {records.entities[i]} -> {records.entities[j]} "
                        "amounts sum past the float maximum")
    return NetworkSnapshot(period, records.entities, weights)


def symmetrize(snapshot: NetworkSnapshot) -> np.ndarray:
    """Return (W + W^T) / 2 as an (N, N) float array: the exactly symmetric
    matrix with the full real spectrum, in the snapshot's entity order."""
    return (snapshot.weights + snapshot.weights.T) / 2.0


def total_volume(snapshot: NetworkSnapshot) -> float:
    return float(snapshot.weights.sum())


def density(snapshot: NetworkSnapshot) -> float:
    """Fraction of possible ordered off-diagonal relations that are nonzero."""
    n = snapshot.n_entities
    return snapshot.edge_count / (n * (n - 1))


def volume_share(snapshot: NetworkSnapshot) -> np.ndarray:
    """Percentage of total volume attributable to each entity: its lending
    plus its borrowing (row plus column sum), halved. Shares sum to 100."""
    total = total_volume(snapshot)
    if total <= 0:
        raise DataError("volume share undefined for zero total volume")
    out_sums = snapshot.weights.sum(axis=1)
    in_sums = snapshot.weights.sum(axis=0)
    return (out_sums + in_sums) / (2.0 * total) * 100.0


def snapshot_to_flow_csv(snapshot: NetworkSnapshot) -> str:
    """Render the snapshot's edges as flow CSV (row-major edge order), then
    one zero-amount row `period,E,X,0.0` for each entity E without a link, X
    being the first other entity of the roster, so the reparsed roster is
    the snapshot's."""
    rows, cols = np.nonzero(snapshot.weights)
    linked = np.zeros(snapshot.n_entities, dtype=bool)
    linked[rows] = linked[cols] = True
    idle = np.flatnonzero(~linked)
    rows, cols = np.concatenate([rows, idle]), np.concatenate([cols, (idle == 0).astype(int)])
    edges = FlowRecordSet((snapshot.period,), snapshot.entities, np.zeros_like(rows),
                          rows, cols, snapshot.weights[rows, cols])
    return serialize_flow_csv(edges)

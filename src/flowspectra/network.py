"""Per-period weighted directed adjacency matrices and scalar descriptors.

Snapshots always use the global entity roster of the record set they were
built from, so matrices for different periods are index-aligned and
eigenvector components stay comparable over time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import FlowRecordSet

VOLUME_MODES = ("both", "out", "in")


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


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """A labelled real symmetric matrix (exact equality across the diagonal)."""

    entities: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        entities = tuple(self.entities)
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "entities", entities)
        object.__setattr__(self, "values", values)
        n = len(entities)
        if values.shape != (n, n):
            raise DataError(f"values must be {n}x{n}, got {values.shape}")
        if not np.array_equal(values, values.T):
            raise DataError("matrix is not exactly symmetric")

    @property
    def n_entities(self) -> int:
        return len(self.entities)


def build_snapshot(records: FlowRecordSet, period: str) -> NetworkSnapshot:
    """Aggregate one period's records into an adjacency matrix.

    The entity roster covers every entity appearing in any period of the
    record set; relations absent in this period are zero. Duplicate
    (reporter, counterparty) rows are summed.
    """
    if period not in records.periods:
        raise DataError(f"unknown period {period!r}")
    rows = records.period_index == records.periods.index(period)
    weights = np.zeros((len(records.entities),) * 2)
    # Unbuffered and in row order, so duplicates sum as a Python loop would.
    np.add.at(weights, (records.reporter_index[rows], records.counterparty_index[rows]),
              records.amounts[rows])
    return NetworkSnapshot(period, records.entities, weights)


def symmetrize(snapshot: NetworkSnapshot) -> SymmetricMatrix:
    """Return (W + W^T) / 2, the symmetric matrix with the full real spectrum."""
    values = (snapshot.weights + snapshot.weights.T) / 2.0
    return SymmetricMatrix(snapshot.entities, values)


def total_volume(snapshot: NetworkSnapshot) -> float:
    return float(snapshot.weights.sum())


def density(snapshot: NetworkSnapshot) -> float:
    """Fraction of possible ordered off-diagonal relations that are nonzero."""
    n = snapshot.n_entities
    return snapshot.edge_count / (n * (n - 1))


def volume_share(snapshot: NetworkSnapshot, mode: str = "both") -> np.ndarray:
    """Percentage of total volume attributable to each entity.

    Mode "both" counts lending and borrowing (row plus column sums, halved);
    "out" counts lending only, "in" borrowing only. Shares sum to 100.
    """
    if mode not in VOLUME_MODES:
        raise DataError(f"unknown volume mode {mode!r} (expected one of {VOLUME_MODES})")
    total = total_volume(snapshot)
    if total <= 0:
        raise DataError("volume share undefined for zero total volume")
    out_sums = snapshot.weights.sum(axis=1)
    in_sums = snapshot.weights.sum(axis=0)
    if mode == "out":
        shares = out_sums / total
    elif mode == "in":
        shares = in_sums / total
    else:
        shares = (out_sums + in_sums) / (2.0 * total)
    return shares * 100.0


def snapshot_to_json(snapshot: NetworkSnapshot) -> dict:
    return {
        "period": snapshot.period,
        "entities": list(snapshot.entities),
        "weights": [[float(x) for x in row] for row in snapshot.weights],
    }


def snapshot_from_json(obj: dict) -> NetworkSnapshot:
    return NetworkSnapshot(obj["period"], tuple(obj["entities"]),
                           np.asarray(obj["weights"], dtype=float))


def snapshot_to_dot(snapshot: NetworkSnapshot) -> str:
    """Render the snapshot as a Graphviz digraph with `weight` edge attributes.

    Layout is left to external tools; isolated entities still get node lines
    so the roster is visible.
    """
    lines = [f'digraph "{snapshot.period}" {{']
    for code in snapshot.entities:
        lines.append(f'  "{code}";')
    for i, src in enumerate(snapshot.entities):
        for j, dst in enumerate(snapshot.entities):
            w = float(snapshot.weights[i, j])
            if w != 0:
                lines.append(f'  "{src}" -> "{dst}" [weight={w!r}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def snapshot_to_flow_csv(snapshot: NetworkSnapshot) -> str:
    """Render the snapshot's edges as flow CSV (row-major edge order)."""
    lines = ["period,reporter,counterparty,amount"]
    for i, src in enumerate(snapshot.entities):
        for j, dst in enumerate(snapshot.entities):
            w = float(snapshot.weights[i, j])
            if w != 0:
                lines.append(f"{snapshot.period},{src},{dst},{w!r}")
    return "\n".join(lines) + "\n"

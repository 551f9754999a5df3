"""Orchestration: per-quarter analysis across a dataset and file exports.

A run is reproducible from one master seed: period t's null ensemble is
seeded from (master seed, t) with t the period's index in the full sorted
period list, so results do not depend on which periods are analyzed.
"""
from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FlowspectraError
from .ingest import FlowRecordSet, derive_seed, write_text
from .network import (
    build_snapshot,
    density,
    symmetrize,
    total_volume,
    volume_share,
)
from .nullmodel import MODE_LINK_SHUFFLE, SHUFFLE_MODES, NullEnsembleStats, null_ensemble
from .spectral import (
    MODE_DIRECTED,
    MODE_SYMMETRIZED,
    SPECTRUM_MODES,
    full_spectrum,
    ipr,
    leading_eigenpair,
    participation_percent,
    symmetric_lambda_max,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    """Run configuration; every number in a run is reproducible from it."""

    seed: int = 0
    null_samples: int = 100
    null_mode: str = MODE_LINK_SHUFFLE
    spectrum_mode: str = MODE_DIRECTED

    def __post_init__(self) -> None:
        for key in ("seed", "null_samples"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.null_samples < 1:
            raise ConfigError("null_samples must be at least 1")
        if self.null_mode not in SHUFFLE_MODES:
            raise ConfigError(f"unknown null mode {self.null_mode!r}")
        if self.spectrum_mode not in SPECTRUM_MODES:
            raise ConfigError(f"unknown spectrum mode {self.spectrum_mode!r}")


@dataclass(frozen=True)
class PeriodResult:
    """All per-quarter quantities for one period, in the key order of its
    `timeseries.json` entry. `gap`, the information gap, is lambda_max minus
    the shuffled-ensemble mean; it is computed, not passed."""

    period: str
    entities: tuple[str, ...]
    lambda_max: float
    mean_ipr: float
    ipr_lambda_max: float
    total_volume: float
    density: float
    gap: float = field(init=False)
    participation: tuple[float, ...]
    volume_share: tuple[float, ...]
    market_mode: tuple[float, ...]
    null_stats: NullEnsembleStats

    def __post_init__(self) -> None:
        object.__setattr__(self, "gap", self.lambda_max - self.null_stats.mean)


@dataclass(frozen=True)
class TimeSeriesResult:
    """Chronologically ordered period results plus provenance."""

    results: tuple[PeriodResult, ...]
    fingerprint: str
    config: PipelineConfig
    skipped: tuple[str, ...] = ()
    failures: tuple[tuple[str, str], ...] = ()

    @property
    def periods(self) -> tuple[str, ...]:
        return tuple(r.period for r in self.results)


def dataset_fingerprint(records: FlowRecordSet) -> str:
    """sha256 of the record set's labels and typed columns, not its CSV text:
    equal sets agree, as -0.0 is hashed as 0.0 and no label holds an LF."""
    digest = hashlib.sha256(b"flowspectra-records-v1\n")
    for labels in (records.periods, records.entities):
        digest.update(len(labels).to_bytes(8, "little"))
        digest.update("".join(f"{label}\n" for label in labels).encode())
    digest.update(len(records).to_bytes(8, "little"))
    for column in (records.period_index, records.reporter_index, records.counterparty_index):
        digest.update(np.ascontiguousarray(column, dtype="<i8"))
    digest.update(np.ascontiguousarray(records.amounts + 0.0, dtype="<f8"))
    return digest.hexdigest()


def null_seed(records: FlowRecordSet, period: str, seed: int) -> int:
    """The seed of `period`'s null ensemble under the run's master `seed`:
    derived from (seed, index of the period), so periods draw independently."""
    return derive_seed(seed, records.periods.index(period))


def analyze_period(records: FlowRecordSet, period: str,
                   config: PipelineConfig | None = None) -> PeriodResult:
    """Full spectral, null-model, and volume analysis of one period."""
    config = config or PipelineConfig()
    snapshot = build_snapshot(records, period)
    if not snapshot.weights.any():
        raise DataError(f"{period}: network has no edges")

    try:
        sym = symmetrize(snapshot)
        _, eigenvectors = full_spectrum(sym)
        if config.spectrum_mode == MODE_SYMMETRIZED:
            # The null's lambda, not eigh's (which may differ in the last
            # bits), so a replica equal to the network has the same lambda.
            lam, market_mode = float(symmetric_lambda_max(sym)), eigenvectors[0]
        else:
            lam, market_mode = leading_eigenpair(snapshot.weights)
        stats = null_ensemble(snapshot, config.null_samples,
                              null_seed(records, period, config.seed), config.null_mode,
                              spectrum_mode=config.spectrum_mode)
        shares = volume_share(snapshot)
    except FlowspectraError as exc:
        # Prefix in place so subclass attributes (residual, iterations) survive.
        exc.args = (f"{period}: {exc}",)
        raise

    return PeriodResult(
        period=period,
        entities=snapshot.entities,
        lambda_max=lam,
        null_stats=stats,
        mean_ipr=float(np.mean(ipr(eigenvectors))),
        ipr_lambda_max=ipr(market_mode),
        total_volume=total_volume(snapshot),
        density=density(snapshot),
        participation=tuple(float(x) for x in participation_percent(market_mode)),
        volume_share=tuple(float(x) for x in shares),
        market_mode=tuple(float(x) for x in market_mode),
    )


def run_timeseries(records: FlowRecordSet,
                   config: PipelineConfig | None = None) -> TimeSeriesResult:
    """Analyze every period, chronologically.

    Periods with an all-zero matrix are skipped with a warning; per-period
    failures are collected and the run fails only if no period succeeds.
    """
    config = config or PipelineConfig()
    periods = records.periods
    if not periods:
        raise DataError("record set has no periods")

    results: list[PeriodResult] = []
    skipped: list[str] = []
    failures: list[tuple[str, str]] = []
    for k, period in enumerate(periods):
        # Amounts are finite and nonnegative, so the matrix is all-zero
        # exactly when every amount is zero; no snapshot is needed to tell.
        if not records.amounts[records.period_index == k].any():
            logger.warning("skipping period %s: all-zero matrix", period)
            skipped.append(period)
            continue
        try:
            results.append(analyze_period(records, period, config))
        except FlowspectraError as exc:
            logger.warning("period %s failed: %s", period, exc)
            failures.append((period, str(exc)))

    if not results:
        detail = "; ".join(msg for _, msg in failures) or "all periods skipped"
        raise DataError(f"no period produced a result: {detail}")

    return TimeSeriesResult(
        results=tuple(results),
        fingerprint=dataset_fingerprint(records),
        config=config,
        skipped=tuple(skipped),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Exports. Floats are rendered with repr (shortest round-trip digits) and no
# timestamps are written, so repeated runs are byte-identical.
# ---------------------------------------------------------------------------


def _fields_json(obj, omit: str = "") -> dict:
    """The dataclass `obj`'s fields in declaration order, but `omit`, with
    tuples as arrays."""
    return {f.name: list(value) if isinstance(value := getattr(obj, f.name), tuple) else value
            for f in fields(obj) if f.name != omit}


def period_to_json(result: PeriodResult) -> dict:
    """`result`'s fields in order, with `null_stats` as `null`."""
    entry = _fields_json(result, omit="null_stats")
    entry["null"] = _fields_json(result.null_stats)
    return entry


def timeseries_to_json(result: TimeSeriesResult) -> dict:
    return {
        "fingerprint": result.fingerprint,
        "config": asdict(result.config),
        "skipped": list(result.skipped),
        "failures": [[period, message] for period, message in result.failures],
        "periods": [period_to_json(r) for r in result.results],
    }


def _timeseries_csv(result: TimeSeriesResult) -> str:
    lines = ["period,lambda_max,lambda_sh_mean,lambda_sh_q99,"
             "mean_ipr,ipr_lambda_max,total_volume,density,gap"]
    for r in result.results:
        cells = [r.period, repr(r.lambda_max), repr(r.null_stats.mean),
                 repr(r.null_stats.q99), repr(r.mean_ipr), repr(r.ipr_lambda_max),
                 repr(r.total_volume), repr(r.density), repr(r.gap)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _participation_csv(result: TimeSeriesResult) -> str:
    lines = ["period,entity,participation_pct,volume_share_pct"]
    for r in result.results:
        for entity, part, share in zip(r.entities, r.participation, r.volume_share):
            lines.append(f"{r.period},{entity},{part!r},{share!r}")
    return "\n".join(lines) + "\n"


def json_text(payload: dict) -> str:
    """The text of every JSON export: two-space indent and a final LF. NaN
    or infinite values raise ValueError rather than being written as
    non-JSON tokens."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def export(result: TimeSeriesResult, out_dir: str | Path) -> list[Path]:
    """Write plot-ready tables under `out_dir`; returns the written paths.

    timeseries.csv holds one summary row per period, participation.csv a
    tidy per-entity participation table, and timeseries.json the full
    nested results (`json_text`).
    """
    tables = (("timeseries.csv", _timeseries_csv(result)),
              ("participation.csv", _participation_csv(result)),
              ("timeseries.json", json_text(timeseries_to_json(result))))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in tables:
        write_text(out / name, (text,))
    return [out / name for name, _ in tables]

"""Orchestration: per-quarter analysis across a dataset and file exports.

A run is reproducible from one master seed: period t's null ensemble is
seeded from (master seed, t) with t the period's index in the full sorted
period list, so results do not depend on which periods are analyzed.
"""
from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError, DataError, FlowspectraError
from .ingest import FlowRecordSet, derive_seed, serialize_flow_csv
from .network import (
    VOLUME_MODES,
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
)

logger = logging.getLogger(__name__)

TIMESERIES_CSV = "timeseries.csv"
TIMESERIES_JSON = "timeseries.json"
PARTICIPATION_CSV = "participation.csv"


@dataclass
class PipelineConfig:
    """Run configuration; every number in a run is reproducible from it."""

    seed: int = 0
    null_samples: int = 100
    null_mode: str = MODE_LINK_SHUFFLE
    spectrum_mode: str = MODE_DIRECTED
    volume_mode: str = "both"
    include_lambda_values: bool = False

    def __post_init__(self) -> None:
        for key in ("seed", "null_samples"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not isinstance(self.include_lambda_values, bool):
            raise ConfigError("include_lambda_values must be true or false, "
                              f"got {self.include_lambda_values!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.null_samples < 1:
            raise ConfigError("null_samples must be at least 1")
        if self.null_mode not in SHUFFLE_MODES:
            raise ConfigError(f"unknown null mode {self.null_mode!r}")
        if self.spectrum_mode not in SPECTRUM_MODES:
            raise ConfigError(f"unknown spectrum mode {self.spectrum_mode!r}")
        if self.volume_mode not in VOLUME_MODES:
            raise ConfigError(f"unknown volume mode {self.volume_mode!r}")

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def config_from_sources(file_values: dict[str, Any] | None = None,
                        overrides: dict[str, Any] | None = None) -> PipelineConfig:
    """Build a config with precedence overrides > file > defaults.

    Override values of None mean "not given on the command line".
    """
    merged: dict[str, Any] = {}
    known = set(PipelineConfig.__dataclass_fields__)
    if file_values:
        unknown = set(file_values) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        merged.update(file_values)
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            merged[key] = value
    return PipelineConfig(**merged)


@dataclass(frozen=True)
class PeriodResult:
    """All per-quarter quantities for one period."""

    period: str
    entities: tuple[str, ...]
    lambda_max: float
    null_stats: NullEnsembleStats
    mean_ipr: float
    ipr_lambda_max: float
    total_volume: float
    density: float
    participation: tuple[float, ...]
    volume_share: tuple[float, ...]
    market_mode: tuple[float, ...]

    @property
    def gap(self) -> float:
        """Information gap: lambda_max minus the shuffled-ensemble mean."""
        return self.lambda_max - self.null_stats.mean


@dataclass(frozen=True)
class TimeSeriesResult:
    """Chronologically ordered period results plus provenance."""

    results: tuple[PeriodResult, ...]
    fingerprint: str
    config: dict[str, Any] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()
    failures: tuple[tuple[str, str], ...] = ()

    @property
    def periods(self) -> tuple[str, ...]:
        return tuple(r.period for r in self.results)


def dataset_fingerprint(records: FlowRecordSet) -> str:
    """Content hash (sha256) of the canonical CSV serialization."""
    return hashlib.sha256(serialize_flow_csv(records).encode("utf-8")).hexdigest()


def analyze_period(records: FlowRecordSet, period: str,
                   config: PipelineConfig | None = None) -> PeriodResult:
    """Full spectral, null-model, and volume analysis of one period."""
    config = config or PipelineConfig()
    snapshot = build_snapshot(records, period)
    if not snapshot.weights.any():
        raise DataError(f"{period}: network has no edges")
    null_seed = derive_seed(config.seed, records.periods.index(period))

    try:
        sym = symmetrize(snapshot)
        _, eigenvectors = full_spectrum(sym)
        if config.spectrum_mode == MODE_SYMMETRIZED:
            # The null's eigvalsh, not eigh's lambda (which may differ in the
            # last bits), so a replica equal to the network has the same lambda.
            lam, market_mode = float(np.linalg.eigvalsh(sym)[-1]), eigenvectors[0]
        else:
            lam, market_mode = leading_eigenpair(snapshot.weights)
        stats = null_ensemble(snapshot, config.null_samples, null_seed, config.null_mode,
                              spectrum_mode=config.spectrum_mode)
        shares = volume_share(snapshot, config.volume_mode)
    except FlowspectraError as exc:
        # Prefix in place so subclass attributes (residual, iterations) survive.
        if not str(exc).startswith(f"{period}:"):
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
        config=config.as_dict(),
        skipped=tuple(skipped),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Exports. Floats are rendered with repr (shortest round-trip digits) and no
# timestamps are written, so repeated runs are byte-identical.
# ---------------------------------------------------------------------------


def period_to_json(result: PeriodResult, include_lambda_values: bool) -> dict:
    return {
        "period": result.period,
        "entities": list(result.entities),
        "lambda_max": result.lambda_max,
        "mean_ipr": result.mean_ipr,
        "ipr_lambda_max": result.ipr_lambda_max,
        "total_volume": result.total_volume,
        "density": result.density,
        "gap": result.gap,
        "participation": list(result.participation),
        "volume_share": list(result.volume_share),
        "market_mode": list(result.market_mode),
        "null": result.null_stats.to_json(include_lambda_values),
    }


def _period_from_json(obj: dict) -> PeriodResult:
    null = obj["null"]
    stats = NullEnsembleStats(
        n_samples=null["n_samples"],
        lambda_values=tuple(null.get("lambda_values", ())),
        mean=null["mean"],
        std=null["std"],
        q01=null["q01"],
        q50=null["q50"],
        q99=null["q99"],
        seed=null["seed"],
        mode=null["mode"],
    )
    return PeriodResult(
        period=obj["period"],
        entities=tuple(obj["entities"]),
        lambda_max=obj["lambda_max"],
        null_stats=stats,
        mean_ipr=obj["mean_ipr"],
        ipr_lambda_max=obj["ipr_lambda_max"],
        total_volume=obj["total_volume"],
        density=obj["density"],
        participation=tuple(obj["participation"]),
        volume_share=tuple(obj["volume_share"]),
        market_mode=tuple(obj["market_mode"]),
    )


def timeseries_to_json(result: TimeSeriesResult) -> dict:
    include_values = bool(result.config.get("include_lambda_values", False))
    return {
        "fingerprint": result.fingerprint,
        "config": dict(result.config),
        "skipped": list(result.skipped),
        "failures": [[period, message] for period, message in result.failures],
        "periods": [period_to_json(r, include_values) for r in result.results],
    }


def timeseries_from_json(source: str) -> TimeSeriesResult:
    obj = json.loads(source)
    return TimeSeriesResult(
        results=tuple(_period_from_json(entry) for entry in obj["periods"]),
        fingerprint=obj["fingerprint"],
        config=dict(obj["config"]),
        skipped=tuple(obj.get("skipped", ())),
        failures=tuple((p, m) for p, m in obj.get("failures", ())),
    )


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


def export(result: TimeSeriesResult, out_dir: str | Path) -> list[Path]:
    """Write plot-ready tables under `out_dir`; returns the written paths.

    timeseries.csv holds one summary row per period, participation.csv a
    tidy per-entity participation table, and timeseries.json the full
    nested results, reparseable by timeseries_from_json. NaN or infinite
    values raise ValueError rather than being written as non-JSON tokens.
    """
    tables = ((TIMESERIES_CSV, _timeseries_csv(result)),
              (PARTICIPATION_CSV, _participation_csv(result)),
              (TIMESERIES_JSON,
               json.dumps(timeseries_to_json(result), indent=2, allow_nan=False) + "\n"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in tables:
        (out / name).write_text(text, encoding="utf-8", newline="\n")
    return [out / name for name, _ in tables]

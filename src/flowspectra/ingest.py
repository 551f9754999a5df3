"""Parsing, validation, conversion, and synthesis of bilateral flow records.

A flow record says "reporter lent `amount` to counterparty during `period`".
Records are grouped into a FlowRecordSet, the input to all network building.
All functions here are pure; the synthetic generator is fully determined by
its seed argument.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

PERIOD_PATTERN = re.compile(r"^[0-9]{4}-Q[1-4]$")
ENTITY_PATTERN = re.compile(r"^[A-Z0-9][A-Z0-9_.\-]*$")

FLOW_CSV_HEADER = ("period", "reporter", "counterparty", "amount")

DEFAULT_SYNTHETIC_PERIOD = "2000-Q1"


def _check_period(label: str) -> None:
    if not PERIOD_PATTERN.match(label):
        raise DataError(f"malformed period label {label!r} (expected YYYY-Qn)")


class FlowRecord(NamedTuple):
    """One row of a FlowRecordSet: `reporter` lent `amount` to `counterparty`."""

    period: str
    reporter: str
    counterparty: str
    amount: float


@dataclass(frozen=True, eq=False)
class FlowRecordSet:
    """Flow records as four columns in input row order.

    `period_index` indexes `periods`, the sorted distinct quarter labels
    (lexicographic order of YYYY-Qn is chronological); `reporter_index` and
    `counterparty_index` index `entities`, the sorted union of both codes.
    `amounts` are finite, nonnegative reals in millions of a common currency
    unit, and no record is a self-loop.
    """

    periods: tuple[str, ...]
    entities: tuple[str, ...]
    period_index: np.ndarray
    reporter_index: np.ndarray
    counterparty_index: np.ndarray
    amounts: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> FlowRecordSet:
        """Validate (period, reporter, counterparty, amount) rows; row 1 is the first."""
        return _validate(enumerate(rows, start=1))

    def rows(self) -> tuple[FlowRecord, ...]:
        """The records in input order, built on demand."""
        return tuple(map(FlowRecord._make, self._fields()))

    def _fields(self) -> Iterator[tuple[str, str, str, float]]:
        periods, entities = self.periods, self.entities
        for p, r, c, amount in zip(self.period_index.tolist(), self.reporter_index.tolist(),
                                   self.counterparty_index.tolist(), self.amounts.tolist()):
            yield periods[p], entities[r], entities[c], amount

    def __len__(self) -> int:
        return len(self.amounts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlowRecordSet) and self.rows() == other.rows()


def _intern(ids: dict[str, int], code: str, pattern: re.Pattern, row_no: int, message: str) -> int:
    index = ids.get(code)
    if index is None:
        if not pattern.match(code):
            raise DataError(f"row {row_no}: {message.format(code)}")
        index = ids[code] = len(ids)
    return index


def _validate(numbered_rows: Iterable[tuple[int, Sequence]]) -> FlowRecordSet:
    """Build the columns from numbered rows: the one validator of records.

    Per row: field count, amount parse, period, reporter, counterparty,
    self-loop, then sign and finiteness of the amount; the first failure
    raises with its row number. Codes are trimmed and uppercased, and each
    distinct code is matched against its pattern once."""
    period_ids: dict[str, int] = {}
    entity_ids: dict[str, int] = {}
    keys: list[tuple[int, int, int]] = []
    amounts: list[float] = []
    for row_no, row in numbered_rows:
        if len(row) != 4:
            raise DataError(f"row {row_no}: expected 4 fields, got {len(row)}")
        period = row[0].strip()
        reporter = row[1].strip().upper()
        counterparty = row[2].strip().upper()
        try:
            amount = float(row[3])
        except ValueError:
            raise DataError(f"row {row_no}: negative or non-numeric amount "
                            f"{row[3].strip()!r}") from None
        p = _intern(period_ids, period, PERIOD_PATTERN, row_no,
                    "malformed period label {!r} (expected YYYY-Qn)")
        r = _intern(entity_ids, reporter, ENTITY_PATTERN, row_no,
                    "malformed reporter entity code {!r}")
        c = _intern(entity_ids, counterparty, ENTITY_PATTERN, row_no,
                    "malformed counterparty entity code {!r}")
        if r == c:
            raise DataError(f"row {row_no}: reporter equals counterparty ({reporter!r})")
        if not math.isfinite(amount) or amount < 0:
            raise DataError(f"row {row_no}: negative or non-numeric amount {amount!r}")
        keys.append((p, r, c))
        amounts.append(amount)

    periods, entities = tuple(sorted(period_ids)), tuple(sorted(entity_ids))
    # Each list maps a sorted position to a first-seen index; argsort inverts it.
    period_position = np.argsort([period_ids[code] for code in periods])
    entity_position = np.argsort([entity_ids[code] for code in entities])
    index = np.array(keys, dtype=np.intp).reshape(-1, 3)
    return FlowRecordSet(periods, entities, period_position[index[:, 0]],
                         entity_position[index[:, 1]], entity_position[index[:, 2]],
                         np.array(amounts, dtype=float))


def parse_flow_csv(source: str | Iterable[str]) -> FlowRecordSet:
    """Parse flow CSV text into a FlowRecordSet.

    Expects the header ``period,reporter,counterparty,amount``; entity codes
    are trimmed and uppercased, row order is preserved. Errors carry the
    1-based row number (the header is row 1); blank lines count as rows.
    """
    lines: Iterable[str] = io.StringIO(source) if isinstance(source, str) else source
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("row 1: missing header") from None
    names = tuple(cell.strip().lstrip("\ufeff") for cell in header)
    if names != FLOW_CSV_HEADER:
        missing = [c for c in FLOW_CSV_HEADER if c not in names]
        if missing:
            raise DataError(f"row 1: missing column(s) {', '.join(missing)}")
        raise DataError(f"row 1: expected header {','.join(FLOW_CSV_HEADER)}")
    return _validate((row_no, row) for row_no, row in enumerate(reader, start=2) if row)


def parse_flow_file(path: str | Path) -> FlowRecordSet:
    return parse_flow_csv(Path(path).read_text(encoding="utf-8"))


def serialize_flow_csv(records: FlowRecordSet) -> str:
    """Render a FlowRecordSet as flow CSV; reparsing yields an equal set.

    Amounts use repr, the shortest digit string that round-trips the float.
    """
    lines = [",".join(FLOW_CSV_HEADER)]
    lines.extend(
        f"{period},{reporter},{counterparty},{amount!r}"
        for period, reporter, counterparty, amount in records._fields()
    )
    return "\n".join(lines) + "\n"


def write_flow_file(records: FlowRecordSet, path: str | Path) -> None:
    Path(path).write_text(serialize_flow_csv(records), encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Converter for locally supplied bilateral locational statistics extracts.
# ---------------------------------------------------------------------------

_RELAXED_PERIOD = re.compile(r"^([0-9]{4})-?Q([1-4])$")
_SUPPRESSED_VALUES = {"", "-", "..", "...", "NA", "NAN", "NULL", "NONE"}


@dataclass(frozen=True)
class BisMapping:
    """Names the source columns of a raw extract and row filter predicates.

    `filters` are equality predicates on source columns used to select a
    single instrument/measure combination so each (period, reporter,
    counterparty) appears at most once before aggregation.
    """

    period: str
    reporter: str
    counterparty: str
    value: str
    filters: Mapping[str, str] = field(default_factory=dict)


def load_bis_mapping(text: str) -> BisMapping:
    """Load a converter mapping from JSON or key=value text.

    Key=value form uses the keys period, reporter, counterparty, value and
    any number of ``filter.<column>=<value>`` lines.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON mapping: {exc}") from None
        filters = obj.pop("filters", {})
        if not isinstance(filters, dict):
            raise ConfigError("mapping 'filters' must be an object")
        keys = obj
    else:
        keys = {}
        filters = {}
        for line_no, line in enumerate(stripped.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"mapping line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key.startswith("filter."):
                filters[key[len("filter."):]] = value
            else:
                keys[key] = value
    unknown = set(keys) - {"period", "reporter", "counterparty", "value"}
    if unknown:
        raise ConfigError(f"unknown mapping key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in ("period", "reporter", "counterparty", "value") if k not in keys]
    if missing:
        raise ConfigError(f"mapping missing key(s): {', '.join(missing)}")
    return BisMapping(
        period=keys["period"],
        reporter=keys["reporter"],
        counterparty=keys["counterparty"],
        value=keys["value"],
        filters=dict(filters),
    )


def load_bis_mapping_file(path: str | Path) -> BisMapping:
    return load_bis_mapping(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class BisConversion:
    """Converted records plus a drop report."""

    records: FlowRecordSet
    converted: int
    filtered: int
    dropped: int
    drop_reasons: Mapping[str, int]


def _normalize_bis_period(raw: str) -> str | None:
    match = _RELAXED_PERIOD.match(raw.strip())
    if not match:
        return None
    return f"{match.group(1)}-Q{match.group(2)}"


def convert_bis_lbs(rows: Iterable[Mapping[str, object]],
                    mapping: BisMapping) -> BisConversion:
    """Convert tabular source rows to a FlowRecordSet using a column mapping.

    Rows failing a filter predicate are excluded (counted as `filtered`);
    rows with missing, suppressed, non-numeric, or negative values, malformed
    periods, bad entity codes, or self-loops are dropped and counted by
    reason. Duplicate (period, reporter, counterparty) keys are summed.
    """
    required = {mapping.period, mapping.reporter, mapping.counterparty, mapping.value}
    required.update(mapping.filters)

    totals: dict[tuple[str, str, str], float] = {}  # in first-seen order
    filtered = 0
    reasons: dict[str, int] = {}

    def drop(reason: str) -> None:
        reasons[reason] = reasons.get(reason, 0) + 1

    checked_columns = False
    for row in rows:
        if not checked_columns:
            absent = sorted(col for col in required if col not in row)
            if absent:
                raise ConfigError(f"mapping references absent column(s): {', '.join(absent)}")
            checked_columns = True
        if any(str(row.get(col, "")).strip() != want
               for col, want in mapping.filters.items()):
            filtered += 1
            continue

        period = _normalize_bis_period(str(row.get(mapping.period) or ""))
        if period is None:
            drop("malformed-period")
            continue
        reporter = str(row.get(mapping.reporter) or "").strip().upper()
        counterparty = str(row.get(mapping.counterparty) or "").strip().upper()
        if not reporter or not counterparty:
            drop("missing-entity")
            continue
        if not ENTITY_PATTERN.match(reporter) or not ENTITY_PATTERN.match(counterparty):
            drop("malformed-entity")
            continue
        if reporter == counterparty:
            drop("self-loop")
            continue

        # Numbers take the text path too: str() of a float round-trips.
        raw_value = row.get(mapping.value)
        text = "" if raw_value is None else str(raw_value).strip()
        if text.upper() in _SUPPRESSED_VALUES:
            drop("missing-value")
            continue
        try:
            value = float(text)
        except ValueError:
            drop("non-numeric-value")
            continue
        if not math.isfinite(value):
            drop("missing-value")
            continue
        if value < 0:
            drop("negative-value")
            continue

        key = (period, reporter, counterparty)
        totals[key] = totals.get(key, 0.0) + value

    if not totals:
        raise DataError("no rows survived filtering and conversion")

    records = FlowRecordSet.from_rows((*key, total) for key, total in totals.items())
    return BisConversion(
        records=records,
        converted=len(records),
        filtered=filtered,
        dropped=sum(reasons.values()),
        drop_reasons=reasons,
    )


def convert_bis_file(csv_path: str | Path, mapping: BisMapping) -> BisConversion:
    with open(csv_path, encoding="utf-8", newline="") as handle:
        return convert_bis_lbs(csv.DictReader(handle), mapping)


# ---------------------------------------------------------------------------
# Synthetic core-periphery generator.
# ---------------------------------------------------------------------------


def shift_quarter(period: str, steps: int) -> str:
    """Return the quarter label `steps` quarters after `period`."""
    _check_period(period)
    year, quarter = int(period[:4]), int(period[-1])
    index = year * 4 + (quarter - 1) + steps
    if index < 0:
        raise DataError(f"quarter arithmetic left the calendar: {period} {steps:+d}")
    return f"{index // 4:04d}-Q{index % 4 + 1}"


def period_sequence(start: str, count: int) -> tuple[str, ...]:
    return tuple(shift_quarter(start, k) for k in range(count))


def _synthetic_entity_names(n_core: int, n_periphery: int) -> tuple[list[str], list[str]]:
    width = max(3, len(str(max(n_core, n_periphery))))
    cores = [f"C{i:0{width}d}" for i in range(n_core)]
    periphery = [f"P{i:0{width}d}" for i in range(n_periphery)]
    return cores, periphery


def _check_synthetic_args(n_core: int, n_periphery: int, core_weight_scale: float,
                          periphery_weight_scale: float, link_prob_pp: float) -> None:
    if n_core < 1:
        raise DataError("n_core must be at least 1")
    if n_periphery < 0:
        raise DataError("n_periphery must be nonnegative")
    if n_core + n_periphery < 2:
        raise DataError("need at least 2 entities in total")
    if core_weight_scale <= 0 or periphery_weight_scale <= 0:
        raise DataError("weight scales must be positive")
    if not 0.0 <= link_prob_pp <= 1.0:
        raise DataError("link_prob_pp must lie in [0, 1]")


def _draw_weight(rng: np.random.Generator, scale: float) -> float:
    # uniform on (0, scale]: rng.random() is in [0, 1)
    return scale * (1.0 - rng.random())


def generate_synthetic(n_core: int, n_periphery: int, core_weight_scale: float,
                       periphery_weight_scale: float, link_prob_pp: float,
                       seed: int, period: str = DEFAULT_SYNTHETIC_PERIOD) -> FlowRecordSet:
    """Generate one period of a core-periphery flow network.

    All ordered core-core pairs are linked with weights uniform on
    (0, core_weight_scale]; every core-periphery ordered pair is linked with
    weights uniform on (0, periphery_weight_scale]; periphery-periphery
    ordered pairs are linked independently with probability `link_prob_pp`.
    The same seed reproduces the output bit for bit.
    """
    return FlowRecordSet.from_rows(_synthetic_rows(n_core, n_periphery, core_weight_scale,
                                                   periphery_weight_scale, link_prob_pp, seed, period))


def _synthetic_rows(n_core: int, n_periphery: int, core_weight_scale: float,
                    periphery_weight_scale: float, link_prob_pp: float,
                    seed: int, period: str) -> list[tuple[str, str, str, float]]:
    _check_synthetic_args(n_core, n_periphery, core_weight_scale,
                          periphery_weight_scale, link_prob_pp)
    _check_period(period)
    if seed < 0:
        raise DataError("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    cores, periphery = _synthetic_entity_names(n_core, n_periphery)

    rows = []
    for src in cores:
        for dst in cores:
            if src != dst:
                rows.append((period, src, dst, _draw_weight(rng, core_weight_scale)))
    for core in cores:
        for peri in periphery:
            rows.append((period, core, peri, _draw_weight(rng, periphery_weight_scale)))
            rows.append((period, peri, core, _draw_weight(rng, periphery_weight_scale)))
    for src in periphery:
        for dst in periphery:
            if src != dst and rng.random() < link_prob_pp:
                rows.append((period, src, dst, _draw_weight(rng, periphery_weight_scale)))
    return rows


def generate_synthetic_series(n_core: int, n_periphery: int, core_weight_scale: float,
                              periphery_weight_scale: float, n_periods: int, seed: int,
                              link_prob_start: float = 0.1,
                              link_prob_end: float | None = None,
                              start_period: str = "1980-Q1") -> FlowRecordSet:
    """Generate a multi-quarter synthetic dataset on a fixed entity roster.

    The periphery-periphery link probability ramps linearly from
    `link_prob_start` to `link_prob_end` (defaults to the start value) across
    periods. Period t uses a sub-seed derived from (seed, t), so the whole
    series is reproducible from one integer.
    """
    if n_periods < 1:
        raise DataError("n_periods must be at least 1")
    if link_prob_end is None:
        link_prob_end = link_prob_start
    rows = []
    for index, period in enumerate(period_sequence(start_period, n_periods)):
        if n_periods == 1:
            prob = link_prob_start
        else:
            frac = index / (n_periods - 1)
            prob = link_prob_start + (link_prob_end - link_prob_start) * frac
        sub_seed = derive_seed(seed, index)
        rows.extend(_synthetic_rows(n_core, n_periphery, core_weight_scale,
                                    periphery_weight_scale, prob, sub_seed, period))
    return FlowRecordSet.from_rows(rows)


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for stream `index` under `master_seed`.

    Uses numpy's SeedSequence hash, so sub-streams are statistically
    independent and replayable; values are comparable only within this
    implementation.
    """
    if master_seed < 0 or index < 0:
        raise DataError("seeds and stream indices must be nonnegative")
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])

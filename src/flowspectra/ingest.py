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
from array import array
from collections.abc import Callable, Container, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import ConfigError, DataError

PERIOD_PATTERN = re.compile(r"^[0-9]{4}-Q[1-4]$")
ENTITY_PATTERN = re.compile(r"^[A-Z0-9][A-Z0-9_.\-]*$")

FLOW_CSV_HEADER = ("period", "reporter", "counterparty", "amount")

#: Characters of flow CSV text the plain-line parse reads at a time. Each
#: block's field strings live until the block is done: on 20,000 rows,
#: 8 KiB keeps the parse's peak at 1.9 times the columns it returns, and
#: 64 KiB takes it to 3.1 times.
_PLAIN_BLOCK = 8192
_NOT_DELIMITER = bytes(b for b in range(256) if b not in b",\n")  # all bytes but , and LF


def _check_period(label: str) -> None:
    if not PERIOD_PATTERN.match(label):
        raise DataError(f"malformed period label {label!r} (expected YYYY-Qn)")


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

    def __len__(self) -> int:
        return len(self.amounts)

    def __eq__(self, other: object) -> bool:
        """Same labels and the same four columns; a roster or period list
        wider than the rows makes two sets of the same records unequal."""
        return (isinstance(other, FlowRecordSet) and self.periods == other.periods
                and self.entities == other.entities
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("period_index", "reporter_index",
                                     "counterparty_index", "amounts")))


def _period_code(raw: str) -> str:
    return raw.strip()


def _entity_code(raw: str) -> str:
    return raw.strip().upper()


def _intern(ids: dict[str, int], code: str, pattern: re.Pattern) -> int | None:
    """The first-seen index of a canonical code, or None if it fails `pattern`."""
    index = ids.get(code)
    if index is None and pattern.match(code):
        index = ids[code] = len(ids)
    return index


def _validate(numbered_rows: Iterable[tuple[int, Sequence]]) -> FlowRecordSet:
    """Build the columns from numbered rows: the one validator of records.

    Per row: field count, amount parse, period, reporter, counterparty,
    self-loop, then sign and finiteness of the amount; the first failure
    raises with its row number, as does a field of the wrong type. Codes are
    trimmed and uppercased, and each distinct code is matched against its
    pattern once. A field spelled as in an earlier valid row maps straight
    to that row's index; any other row takes the checks in full."""
    period_ids: dict[str, int] = {}
    entity_ids: dict[str, int] = {}
    period_at: dict[str, int] = {}  # raw spelling -> index
    entity_at: dict[str, int] = {}
    keys = array("q")  # (p, r, c) per row
    amounts = array("d")
    for row_no, row in numbered_rows:
        try:
            if len(row) != 4:
                raise DataError(f"row {row_no}: expected 4 fields, got {len(row)}")
            try:
                p, r, c = period_at[row[0]], entity_at[row[1]], entity_at[row[2]]
                amount = float(row[3])
                seen = r != c and 0 <= amount < math.inf
            except (KeyError, TypeError, ValueError, OverflowError):  # new spelling, or failure
                seen = False
            if not seen:
                period = _period_code(row[0])
                reporter = _entity_code(row[1])
                counterparty = _entity_code(row[2])
                try:
                    amount = float(row[3])
                except ValueError:
                    raise DataError(f"row {row_no}: negative or non-numeric amount "
                                    f"{row[3].strip()!r}") from None
                except OverflowError as exc:  # an int, say, beyond the float range
                    raise DataError(f"row {row_no}: negative or non-numeric amount "
                                    f"({exc})") from None
                p = _intern(period_ids, period, PERIOD_PATTERN)
                if p is None:
                    raise DataError(f"row {row_no}: malformed period label {period!r} "
                                    "(expected YYYY-Qn)")
                r = _intern(entity_ids, reporter, ENTITY_PATTERN)
                if r is None:
                    raise DataError(f"row {row_no}: malformed reporter entity code {reporter!r}")
                c = _intern(entity_ids, counterparty, ENTITY_PATTERN)
                if c is None:
                    raise DataError(f"row {row_no}: malformed counterparty entity code "
                                    f"{counterparty!r}")
                if r == c:
                    raise DataError(f"row {row_no}: reporter equals counterparty ({reporter!r})")
                if not math.isfinite(amount) or amount < 0:
                    raise DataError(f"row {row_no}: negative or non-numeric amount {amount!r}")
                period_at[row[0]], entity_at[row[1]], entity_at[row[2]] = p, r, c
            keys.extend((p, r, c))
            amounts.append(amount)
        except (TypeError, AttributeError) as exc:
            # A field of the wrong type (None, a number for a code) fails in
            # float() or str methods; the handler costs the valid rows nothing.
            raise DataError(f"row {row_no}: field of the wrong type ({exc})") from None

    index = np.frombuffer(keys, dtype=np.int64).reshape(-1, 3)
    return _record_set(period_ids, entity_ids, index[:, 0], index[:, 1], index[:, 2], amounts)


def _record_set(period_ids: dict[str, int], entity_ids: dict[str, int], p: np.ndarray,
                r: np.ndarray, c: np.ndarray, amounts: array) -> FlowRecordSet:
    """The record set of columns that hold first-seen indices into `period_ids`
    and `entity_ids`: the labels sorted, the indices renumbered to match."""
    periods, entities = tuple(sorted(period_ids)), tuple(sorted(entity_ids))
    # Each list maps a sorted position to a first-seen index; argsort inverts it.
    period_position = np.argsort([period_ids[code] for code in periods])
    entity_position = np.argsort([entity_ids[code] for code in entities])
    return FlowRecordSet(periods, entities, period_position[p], entity_position[r],
                         entity_position[c], np.frombuffer(amounts, dtype=float))


def _header_names(header: Sequence[str]) -> tuple[str, ...]:
    return tuple(cell.strip().lstrip("\ufeff") for cell in header)


def _parse_flow_rows(reader: Iterator[list[str]]) -> FlowRecordSet:
    """Check the header row of a csv reader, then validate the rows after it."""
    try:
        header = next(reader, None)
        if header is None:
            raise DataError("row 1: missing header")
        names = _header_names(header)
        if names != FLOW_CSV_HEADER:
            missing = [c for c in FLOW_CSV_HEADER if c not in names]
            if missing:
                raise DataError(f"row 1: missing column(s) {', '.join(missing)}")
            raise DataError(f"row 1: expected header {','.join(FLOW_CSV_HEADER)}")
        return _validate((row_no, row) for row_no, row in enumerate(reader, start=2) if row)
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: {exc}") from None


def _column_ids(at: dict[str, int], ids: dict[str, int], column: list[str],
                code: Callable[[str], str], pattern: re.Pattern) -> list[int] | None:
    """The index of each raw spelling in `column` through `at`. A spelling not
    in `at` yet is canonicalised by `code` and interned in `ids` as
    `_validate` does; None if its code fails `pattern`."""
    try:
        return list(map(at.__getitem__, column))
    except KeyError:  # a spelling not seen before
        for raw in column:
            if raw not in at:
                index = _intern(ids, code(raw), pattern)
                if index is None:
                    return None
                at[raw] = index
        return list(map(at.__getitem__, column))


def _parse_plain_lines(handle: TextIO) -> FlowRecordSet | None:
    """Parse flow CSV text in which every line is plain; None at the first
    line that is not, or at a record the csv path would reject.

    A plain line ends in LF or CRLF (the last line may end in neither), holds
    exactly three commas (so it is not blank) and no quote, lone CR or NUL,
    and is no longer than `csv.field_size_limit()`: `csv.reader` splits it
    exactly as `line.split(",")` does. Like the csv reader, the parser reads
    a CRLF as an LF and a last line without LF as if it had one. The text is
    read `_PLAIN_BLOCK` characters at a time. A block's whole lines pass if
    their UTF-8 bytes, all but commas and LFs deleted, read ",,,\n" per line
    (no multi-byte sequence holds either byte; a lone surrogate raises
    ValueError), and split into four columns. Each new raw spelling is
    interned once; the amounts convert as one numpy array, which reads each
    string as float() does, ValueError included. Self-loops and the sign and
    finiteness of the amounts are checked on the finished columns.
    """
    limit = csv.field_size_limit()
    period_ids: dict[str, int] = {}
    entity_ids: dict[str, int] = {}
    period_at: dict[str, int] = {}  # raw spelling -> index
    entity_at: dict[str, int] = {}
    keys = array("q"), array("q"), array("q")  # p, r, c
    amounts = array("d")
    header, rest = None, ""
    final_lf = iter(lambda: "\n" if rest else "", "")  # ends a last line that lacks one
    for block in chain(iter(partial(handle.read, _PLAIN_BLOCK), ""), final_lf):
        text = rest + block
        end = text.rfind("\n") + 1
        whole, rest = text[:end], text[end:]
        if len(rest) > limit:
            return None
        if not whole:
            continue
        if "\r" in whole:
            whole = whole.replace("\r\n", "\n")
            if "\r" in whole:  # a lone CR
                return None
        if ('"' in whole or "\0" in whole
                or whole.encode().translate(None, _NOT_DELIMITER)
                != b",,,\n" * whole.count("\n")
                or (len(whole) > limit and max(map(len, whole.split("\n"))) > limit)):
            return None
        fields = whole.replace("\n", ",").split(",")
        fields.pop()  # the empty string after the last LF
        if header is None:
            header, fields = fields[:4], fields[4:]
            if _header_names(header) != FLOW_CSV_HEADER:
                return None
        columns = (
            _column_ids(period_at, period_ids, fields[0::4], _period_code, PERIOD_PATTERN),
            _column_ids(entity_at, entity_ids, fields[1::4], _entity_code, ENTITY_PATTERN),
            _column_ids(entity_at, entity_ids, fields[2::4], _entity_code, ENTITY_PATTERN))
        if None in columns:
            return None
        for column, ids in zip(keys, columns):
            column.fromlist(ids)
        amounts.frombytes(np.array(fields[3::4], dtype=float).tobytes())
    if header is None:  # no header line
        return None
    p, r, c = (np.frombuffer(column, dtype=np.int64) for column in keys)
    values = np.frombuffer(amounts, dtype=float)
    if (r == c).any() or not np.all((values >= 0) & (values < math.inf)):
        return None
    return _record_set(period_ids, entity_ids, p, r, c, amounts)


def _bounded_lines(handle: TextIO) -> Iterator[str]:
    """The lines of `handle` as the csv reader iterates them, each read with
    a bound: a line longer than the longest a valid row can have (four fields
    at the csv size limit, each quoted with every character a doubled quote,
    three commas and a CRLF) raises before it is read whole."""
    cap = 4 * (2 * csv.field_size_limit() + 2) + 5
    for line_no, line in enumerate(iter(partial(handle.readline, cap + 1), ""), start=1):
        if len(line) > cap:
            raise DataError(f"row {line_no}: line longer than {cap} characters")
        yield line


def _parse_flow_text(handle: TextIO) -> FlowRecordSet:
    """Parse flow CSV from an open text handle at its start: by plain lines
    (`_parse_plain_lines`) when the whole text is plain, else from the start
    again with the csv reader. The csv reader is the reference: it words
    every error and is the only path for quoted, lone-CR or blank-line text. A handle that cannot seek back, such as a pipe, goes straight to it.
    The csv reader gets bounded lines (`_bounded_lines`), so an over-long
    line is rejected after about a million of its characters are read.
    """
    if handle.seekable():
        try:
            records = _parse_plain_lines(handle)
        except ValueError:  # an amount float() rejects, or bytes that are not UTF-8
            records = None
        if records is not None:
            return records
        handle.seek(0)
    return _parse_flow_rows(csv.reader(_bounded_lines(handle)))


def parse_flow_csv(source: str) -> FlowRecordSet:
    """Parse flow CSV text into a FlowRecordSet.

    Expects the header ``period,reporter,counterparty,amount``; entity codes
    are trimmed and uppercased, row order is preserved. Lines end at LF, CRLF
    or a lone CR. Errors carry the 1-based row number (the header is row 1);
    blank lines count as rows. A field over the csv size limit, or a line
    longer than any valid row, is reported at its line number, which is the
    row number unless a quoted field spans lines.
    Plain text, in which every line ends in LF or CRLF (the last line may end
    in neither) and holds three commas and no quote, is split by lines; any
    other text is read by the csv reader.
    """
    return _parse_flow_text(io.StringIO(source, newline=""))


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; other bytes raise ConfigError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


def _not_utf8(path: str | Path) -> DataError:
    """The error for a file that failed to decode as UTF-8, naming its first
    line (ended by LF, CRLF or a lone CR, as csv counts them) that is not
    UTF-8 text. A decode error's own offset counts from the decoder's chunk,
    not the file; no UTF-8 sequence holds a CR or LF byte, so lines can be
    decoded one at a time."""
    with open(path, "rb") as handle:
        lines = (line for chunk in handle for line in chunk.splitlines())
        for line_no, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return DataError(f"{path}: line {line_no} is not UTF-8 text")
    return DataError(f"{path}: not UTF-8 text")


def parse_flow_file(path: str | Path) -> FlowRecordSet:
    """Parse a UTF-8 flow CSV file as `parse_flow_csv` parses its text,
    reading it 8 KiB at a time. A file the plain-line path gives up on is read
    again from its start by the csv reader, which checks rows as it reads
    them, so a bad row in a piece before the one that holds the first
    non-UTF-8 byte is reported as that row's error."""
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            return _parse_flow_text(handle)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def flow_csv_chunks(records: FlowRecordSet) -> Iterator[str]:
    """The flow CSV text of a FlowRecordSet, header first, in pieces of at
    most 4,096 lines that each end in a newline; the whole text is never built.

    Amounts use repr, the shortest digit string that round-trips the float.
    """
    periods, entities = records.periods, records.entities
    yield ",".join(FLOW_CSV_HEADER) + "\n"
    for start in range(0, len(records), 4096):
        window = slice(start, start + 4096)
        yield "".join(f"{periods[p]},{entities[r]},{entities[c]},{amount!r}\n"
                      for p, r, c, amount in zip(records.period_index[window].tolist(),
                                                 records.reporter_index[window].tolist(),
                                                 records.counterparty_index[window].tolist(),
                                                 records.amounts[window].tolist()))


def serialize_flow_csv(records: FlowRecordSet) -> str:
    """Render a FlowRecordSet as flow CSV; reparsing a parsed set yields an equal set."""
    return "".join(flow_csv_chunks(records))


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write `chunks` to `path` in order as UTF-8 with LF line ends: the one
    function that writes output files."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)


def write_flow_file(records: FlowRecordSet, path: str | Path) -> None:
    write_text(path, flow_csv_chunks(records))


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
    """Load a converter mapping from JSON text.

    The object has the keys period, reporter, counterparty and value, each
    naming a source column, and an optional ``filters`` object of
    column-to-value equality predicates.
    """
    try:
        keys = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON mapping: {exc}") from None
    if not isinstance(keys, dict):
        raise ConfigError("mapping must be a JSON object")
    filters = keys.pop("filters", {})
    if not isinstance(filters, dict):
        raise ConfigError("mapping 'filters' must be an object")
    unknown = set(keys) - {"period", "reporter", "counterparty", "value"}
    if unknown:
        raise ConfigError(f"unknown mapping key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in ("period", "reporter", "counterparty", "value") if k not in keys]
    if missing:
        raise ConfigError(f"mapping missing key(s): {', '.join(missing)}")
    for name, value in [*keys.items(), *filters.items()]:
        if not isinstance(value, str):
            raise ConfigError(f"mapping value for {name!r} must be a string, got {value!r}")
    return BisMapping(**keys, filters=filters)


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


def _check_mapped_columns(columns: Container[str], mapping: BisMapping,
                          prefix: str = "") -> None:
    """Raise ConfigError, its message led by `prefix`, naming each column the
    mapping reads that `columns` lacks."""
    required = {mapping.period, mapping.reporter, mapping.counterparty, mapping.value,
                *mapping.filters}
    absent = sorted(col for col in required if col not in columns)
    if absent:
        raise ConfigError(f"{prefix}mapping references absent column(s): {', '.join(absent)}")


def convert_bis_lbs(rows: Iterable[Mapping[str, object]],
                    mapping: BisMapping) -> BisConversion:
    """Convert tabular source rows to a FlowRecordSet using a column mapping.

    Rows failing a filter predicate are excluded (counted as `filtered`);
    rows with missing, suppressed, non-numeric, or negative values, malformed
    periods, bad entity codes, or self-loops are dropped and counted by
    reason. Duplicate (period, reporter, counterparty) keys are summed.
    """
    totals: dict[tuple[str, str, str], float] = {}  # in first-seen order
    filtered = 0
    reasons: dict[str, int] = {}

    def drop(reason: str) -> None:
        reasons[reason] = reasons.get(reason, 0) + 1

    checked_columns = False
    for row in rows:
        if not checked_columns:
            _check_mapped_columns(row, mapping)
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
        total = totals[key] = totals.get(key, 0.0) + value
        if total == math.inf:
            raise DataError(f"{period}: duplicate {reporter} -> {counterparty} "
                            "amounts sum past the float maximum")

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
    """Convert a raw UTF-8 extract, with or without a leading BOM, read by
    bounded lines (`_bounded_lines`) as the flow CSV's csv path reads them.
    The mapped columns are checked against the header, so an extract with
    no data rows is checked too."""
    with open(csv_path, encoding="utf-8-sig", newline="") as handle:
        try:
            reader = csv.DictReader(_bounded_lines(handle))
            if reader.fieldnames is not None:  # None: the extract is empty
                _check_mapped_columns(reader.fieldnames, mapping, f"{csv_path}: ")
            return convert_bis_lbs(reader, mapping)
        except UnicodeDecodeError:
            raise _not_utf8(csv_path) from None
        except csv.Error as exc:
            raise DataError(f"{csv_path}: unreadable extract ({exc})") from None


# ---------------------------------------------------------------------------
# Synthetic core-periphery generator.
# ---------------------------------------------------------------------------


def shift_quarter(period: str, steps: int) -> str:
    """Return the quarter label `steps` quarters after `period`."""
    _check_period(period)
    year, quarter = int(period[:4]), int(period[-1])
    index = year * 4 + (quarter - 1) + steps
    if not 0 <= index < 4 * 10_000:  # years 0000 to 9999
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
    if not all(scale > 0 and math.isfinite(scale)
               for scale in (core_weight_scale, periphery_weight_scale)):
        raise DataError("weight scales must be positive and finite")
    if not 0.0 <= link_prob_pp <= 1.0:
        raise DataError("link_prob_pp must lie in [0, 1]")


def _draw_weight(rng: np.random.Generator, scale: float) -> float:
    # uniform on (0, scale]: rng.random() is in [0, 1)
    return scale * (1.0 - rng.random())


def generate_synthetic(n_core: int, n_periphery: int, core_weight_scale: float,
                       periphery_weight_scale: float, link_prob_pp: float,
                       seed: int) -> FlowRecordSet:
    """Generate quarter 2000-Q1 of a core-periphery flow network.

    All ordered core-core pairs are linked with weights uniform on
    (0, core_weight_scale]; every core-periphery ordered pair is linked with
    weights uniform on (0, periphery_weight_scale]; periphery-periphery
    ordered pairs are linked independently with probability `link_prob_pp`.
    The same seed reproduces the output bit for bit.
    """
    return FlowRecordSet.from_rows(_synthetic_rows(n_core, n_periphery, core_weight_scale,
                                                   periphery_weight_scale, link_prob_pp, seed,
                                                   "2000-Q1"))


def _synthetic_rows(n_core: int, n_periphery: int, core_weight_scale: float,
                    periphery_weight_scale: float, link_prob_pp: float,
                    seed: int, period: str) -> list[tuple[str, str, str, float]]:
    _check_synthetic_args(n_core, n_periphery, core_weight_scale,
                          periphery_weight_scale, link_prob_pp)
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
    periods; both ends must lie in [0, 1], even for one period. Period t
    uses a sub-seed derived from (seed, t), so the whole series is
    reproducible from one integer.
    """
    if n_periods < 1:
        raise DataError("n_periods must be at least 1")
    if link_prob_end is None:
        link_prob_end = link_prob_start
    for name, prob in (("link_prob_start", link_prob_start), ("link_prob_end", link_prob_end)):
        if not 0.0 <= prob <= 1.0:
            raise DataError(f"{name} must lie in [0, 1], got {prob}")
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

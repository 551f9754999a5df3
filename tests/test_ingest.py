import csv
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowspectra import (
    BisMapping,
    ConfigError,
    DataError,
    FlowRecordSet,
    build_snapshot,
    convert_bis_lbs,
    derive_seed,
    generate_synthetic,
    generate_synthetic_series,
    load_bis_mapping,
    parse_flow_csv,
    parse_flow_file,
    serialize_flow_csv,
)
from flowspectra import ingest
from flowspectra.ingest import (convert_bis_file, period_sequence, shift_quarter,
                                write_flow_file)

HEADER = "period,reporter,counterparty,amount"


def as_tuples(records):
    """The records as (period, reporter, counterparty, amount) tuples in row
    order, read from the columns."""
    return [(records.periods[p], records.entities[r], records.entities[c], amount)
            for p, r, c, amount in zip(records.period_index, records.reporter_index,
                                       records.counterparty_index, records.amounts.tolist())]


def test_parse_single_row():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,US,GB,1250.5")
    assert len(records) == 1
    assert as_tuples(records) == [("2008-Q3", "US", "GB", 1250.5)]


def test_parse_header_only_is_empty():
    records = parse_flow_csv(HEADER + "\n")
    assert as_tuples(records) == []
    assert records.periods == ()
    assert records.entities == ()


def test_parse_rejects_self_loop_with_row_number():
    with pytest.raises(DataError, match="row 2"):
        parse_flow_csv(f"{HEADER}\n2008-Q3,US,US,10")


def test_parse_rejects_malformed_period():
    with pytest.raises(DataError, match="row 3.*period"):
        parse_flow_csv(f"{HEADER}\n2008-Q3,US,GB,1\n2008-Q5,US,GB,1")


@pytest.mark.parametrize("amount", ["-1", "abc", "nan", "inf"])
def test_parse_rejects_bad_amounts(amount):
    with pytest.raises(DataError, match="row 2"):
        parse_flow_csv(f"{HEADER}\n2008-Q3,US,GB,{amount}")


def test_parse_rejects_missing_column():
    with pytest.raises(DataError, match="row 1.*amount"):
        parse_flow_csv("period,reporter,counterparty\n2008-Q3,US,GB")


@pytest.mark.parametrize("text, message", [
    ("", "^row 1: missing header$"),
    ("reporter,period,counterparty,amount\n", f"^row 1: expected header {HEADER}$"),
], ids=["empty", "wrong-order"])
def test_parse_rejects_an_absent_or_reordered_header(text, message):
    with pytest.raises(DataError, match=message):
        parse_flow_csv(text)


def test_parse_uppercases_and_trims_codes():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3, us , gb ,3")
    assert as_tuples(records)[0][1:3] == ("US", "GB")


def test_parse_accepts_crlf_and_preserves_row_order():
    text = f"{HEADER}\r\n2008-Q3,US,GB,1\r\n2008-Q3,GB,US,2\r\n"
    records = parse_flow_csv(text)
    assert records.amounts.tolist() == [1.0, 2.0]


SPELLED_TWICE = [("2008-Q3", " us", "GB", 1.0), ("2008-Q3", "US ", "gb", 2.0)]


def test_two_spellings_of_one_code_share_one_index():
    records = FlowRecordSet.from_rows(SPELLED_TWICE + [(" 2008-Q3", "GB", " us", 3.0)])
    assert records.periods == ("2008-Q3",) and records.entities == ("GB", "US")
    assert records.reporter_index.tolist() == [1, 1, 0]
    assert records.counterparty_index.tolist() == [0, 0, 1]


@pytest.mark.parametrize("bad_row, message", [
    (("2008-Q3", "GB", "u$", 1.0), "malformed counterparty entity code 'U$'"),
    (("2008-Q3", " us", "US ", 1.0), "reporter equals counterparty ('US')"),
    (("2008-Q3", " us", "GB", -1.0), "negative or non-numeric amount -1.0"),
    (("2008-Q3", " us", "GB", " x "), "negative or non-numeric amount 'x'"),
    (("2008-Q3", " us", "GB", 10**400), "negative or non-numeric amount (int too large "
                                        "to convert to float)"),
    (("2008-Q3", " us", "GB", None), "field of the wrong type (float() argument must be "
                                     "a string or a real number, not 'NoneType')"),
    (("2008-Q3", " us", ["GB"], 1.0), "field of the wrong type ('list' object has no "
                                      "attribute 'strip')"),
], ids=["bad-code", "self-loop", "negative", "non-numeric", "int-past-float-range",
        "none-amount", "list-code"])
def test_row_after_known_spellings_fails_at_its_first_row(bad_row, message):
    with pytest.raises(DataError) as info:
        FlowRecordSet.from_rows(SPELLED_TWICE + [bad_row, bad_row])
    assert str(info.value) == f"row 3: {message}"


def test_from_rows_validates_with_row_numbers():
    records = FlowRecordSet.from_rows([("2008-Q3", "US", "GB", 2.0), ("2008-Q3", "GB", "US", 1)])
    assert as_tuples(records) == [("2008-Q3", "US", "GB", 2.0), ("2008-Q3", "GB", "US", 1.0)]
    with pytest.raises(DataError) as info:
        FlowRecordSet.from_rows([("2008-Q3", "US", "GB", 2.0), ("2008-Q3", "JP", "JP", 1.0)])
    assert str(info.value) == "row 2: reporter equals counterparty ('JP')"


@pytest.mark.parametrize("bad_row", [("2008-Q3", "JP", "GB", None),
                                     (20083, "JP", "GB", 1.0),
                                     ("2008-Q3", None, "GB", 1.0)],
                         ids=["none-amount", "int-period", "none-reporter"])
def test_from_rows_field_of_the_wrong_type_is_data_error(bad_row):
    with pytest.raises(DataError, match=r"^row 2: field of the wrong type \("):
        FlowRecordSet.from_rows([("2008-Q3", "US", "GB", 2.0), bad_row])


def test_periods_sorted_and_entities_are_union():
    records = parse_flow_csv(
        f"{HEADER}\n2010-Q1,US,GB,1\n2008-Q3,JP,US,2\n2008-Q4,DE,FR,3"
    )
    assert records.periods == ("2008-Q3", "2008-Q4", "2010-Q1")
    assert records.entities == ("DE", "FR", "GB", "JP", "US")


def test_zero_amount_records_are_retained():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,US,GB,0")
    assert records.amounts.tolist() == [0.0]


PERIODS = st.builds("{:04d}-Q{}".format, st.integers(0, 9999), st.integers(1, 4))
CODES = st.from_regex(r"[A-Z0-9][A-Z0-9_.\-]{0,6}", fullmatch=True)
# Edge magnitudes first: zero, the smallest subnormal, a larger subnormal, the
# smallest normal, 1e308 and the float maximum.
AMOUNTS = st.sampled_from([0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e308,
                           1.7976931348623157e308]) | st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def good_rows(draw):
    """Valid (period, reporter, counterparty, amount) tuples over a small
    roster, so codes and periods repeat."""
    codes = draw(st.lists(CODES, min_size=2, max_size=6, unique=True))
    periods = draw(st.lists(PERIODS, min_size=1, max_size=4, unique=True))
    pairs = st.tuples(st.sampled_from(codes), st.sampled_from(codes)).filter(
        lambda pair: pair[0] != pair[1])
    return draw(st.lists(st.builds(lambda p, rc, x: (p, *rc, x), st.sampled_from(periods),
                                   pairs, AMOUNTS), max_size=30))


@given(good_rows())
@example([("2008-Q3", "A_1", "B.2-C", 0.0), ("2008-Q3", "B.2-C", "A_1", 5e-324),
          ("2009-Q1", "A_1", "B.2-C", 1e308)])
def test_serialize_round_trip_random_sets(rows):
    original = FlowRecordSet.from_rows(rows)
    parsed = parse_flow_csv(serialize_flow_csv(original))
    assert parsed == original
    assert parsed.amounts.tobytes() == original.amounts.tobytes()


# --- converter ---------------------------------------------------------------

MAPPING = BisMapping(period="TIME_PERIOD", reporter="REP", counterparty="CP",
                     value="VAL", filters={"MEASURE": "S"})


def test_convert_drops_missing_values():
    rows = [
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "5", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "JP", "VAL": "", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "GB", "CP": "US", "VAL": "2", "MEASURE": "S"},
    ]
    conversion = convert_bis_lbs(rows, MAPPING)
    assert conversion.converted == 2
    assert conversion.dropped == 1
    assert conversion.drop_reasons == {"missing-value": 1}


def test_convert_sums_duplicate_keys():
    rows = [
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "5", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "7", "MEASURE": "S"},
    ]
    conversion = convert_bis_lbs(rows, MAPPING)
    assert len(conversion.records) == 1
    assert conversion.records.amounts.tolist() == [12.0]


def test_convert_rejects_absent_column():
    mapping = BisMapping(period="TIME_PERIOD", reporter="REP",
                         counterparty="CP", value="valuee")
    rows = [{"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "5"}]
    with pytest.raises(ConfigError, match=r"^mapping references absent column\(s\): valuee$"):
        convert_bis_lbs(rows, mapping)


def test_convert_counts_filtered_rows_separately():
    rows = [
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "5", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "DE", "VAL": "4", "MEASURE": "N"},
    ]
    conversion = convert_bis_lbs(rows, MAPPING)
    assert conversion.filtered == 1
    assert conversion.dropped == 0


def test_convert_normalizes_compact_periods_and_drops_junk():
    rows = [
        {"TIME_PERIOD": "2008Q4", "REP": "US", "CP": "FR", "VAL": "3", "MEASURE": "S"},
        {"TIME_PERIOD": "notadate", "REP": "US", "CP": "GB", "VAL": "1", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "US", "VAL": "9", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "-2", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "U$", "CP": "GB", "VAL": "1", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "abc", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "inf", "MEASURE": "S"},
    ]
    conversion = convert_bis_lbs(rows, MAPPING)
    assert as_tuples(conversion.records) == [("2008-Q4", "US", "FR", 3.0)]
    assert conversion.drop_reasons == {
        "malformed-period": 1, "self-loop": 1, "negative-value": 1,
        "malformed-entity": 1, "non-numeric-value": 1, "missing-value": 1,
    }


def test_convert_drops_rows_with_missing_keys_after_first():
    rows = [
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "5", "MEASURE": "S"},
        {"TIME_PERIOD": "2008-Q3", "REP": "US", "MEASURE": "S"},
    ]
    conversion = convert_bis_lbs(rows, MAPPING)
    assert conversion.converted == 1
    assert conversion.dropped == 1


def test_convert_errors_when_nothing_survives():
    rows = [{"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB",
             "VAL": "", "MEASURE": "S"}]
    with pytest.raises(DataError, match="no rows survived"):
        convert_bis_lbs(rows, MAPPING)


def test_convert_total_matches_surviving_source_values():
    rng = np.random.default_rng(7)
    rows = []
    expected = 0.0
    for k in range(200):
        value = float(rng.random() * 1e4)
        expected += value
        rows.append({"TIME_PERIOD": "2008-Q3", "REP": "US",
                     "CP": f"C{k % 17:02d}X", "VAL": repr(value), "MEASURE": "S"})
    conversion = convert_bis_lbs(rows, MAPPING)
    total = sum(conversion.records.amounts.tolist())
    assert total == pytest.approx(expected, rel=1e-9)


def test_load_mapping_rejects_missing_and_unknown_keys():
    with pytest.raises(ConfigError, match="missing"):
        load_bis_mapping('{"period": "P", "reporter": "R", "counterparty": "C"}')
    with pytest.raises(ConfigError, match="unknown"):
        load_bis_mapping('{"period": "P", "reporter": "R", "counterparty": "C",'
                         ' "value": "V", "bogus": "1"}')
    with pytest.raises(ConfigError, match="^mapping must be a JSON object$"):
        load_bis_mapping('["period", "reporter", "counterparty", "value"]')
    with pytest.raises(ConfigError, match="^mapping 'filters' must be an object$"):
        load_bis_mapping('{"period": "P", "reporter": "R", "counterparty": "C",'
                         ' "value": "V", "filters": ["M"]}')


@pytest.mark.parametrize("text, key", [
    ('{"period": 1, "reporter": "R", "counterparty": "C", "value": "V"}', "period"),
    ('{"period": "P", "reporter": "R", "counterparty": "C", "value": null}', "value"),
    ('{"period": "P", "reporter": "R", "counterparty": "C", "value": "V",'
     ' "filters": {"M": 5}}', "M"),
])
def test_load_mapping_rejects_values_that_are_not_strings(text, key):
    with pytest.raises(ConfigError, match=f"mapping value for '{key}' must be a string"):
        load_bis_mapping(text)


# --- synthetic generator -----------------------------------------------------


def test_synthetic_two_core_nodes_complete_digraph():
    records = generate_synthetic(2, 0, 1.0, 1.0, 0.0, seed=0)
    assert len(records) == 2
    pairs = {(reporter, counterparty) for _, reporter, counterparty, _ in as_tuples(records)}
    assert pairs == {("C000", "C001"), ("C001", "C000")}


def test_synthetic_core_periphery_pair():
    records = generate_synthetic(1, 1, 1.0, 1.0, 0.0, seed=0)
    assert len(records) == 2
    pairs = {(reporter, counterparty) for _, reporter, counterparty, _ in as_tuples(records)}
    assert pairs == {("C000", "P000"), ("P000", "C000")}


def test_synthetic_same_seed_is_byte_identical():
    a = generate_synthetic(4, 7, 10.0, 2.0, 0.3, seed=99)
    b = generate_synthetic(4, 7, 10.0, 2.0, 0.3, seed=99)
    assert serialize_flow_csv(a) == serialize_flow_csv(b)
    c = generate_synthetic(4, 7, 10.0, 2.0, 0.3, seed=100)
    assert serialize_flow_csv(a) != serialize_flow_csv(c)


def test_synthetic_never_emits_self_loops_or_bad_amounts():
    rng = np.random.default_rng(5)
    for _ in range(20):
        records = generate_synthetic(
            int(rng.integers(1, 5)), int(rng.integers(2, 8)),
            float(rng.random() * 50 + 1), float(rng.random() + 0.1),
            float(rng.random()), seed=int(rng.integers(0, 2**32)))
        for _, reporter, counterparty, amount in as_tuples(records):
            assert reporter != counterparty
            assert amount > 0


@pytest.mark.parametrize("kwargs", [
    dict(n_core=0, n_periphery=5),
    dict(n_core=1, n_periphery=0),
    dict(n_core=2, n_periphery=0, core_weight_scale=0.0),
    dict(n_core=2, n_periphery=0, link_prob_pp=1.5),
    dict(n_periphery=-1),
    dict(seed=-1),
    dict(core_weight_scale=math.nan),
    dict(core_weight_scale=math.inf),
    dict(periphery_weight_scale=math.nan),
    dict(periphery_weight_scale=math.inf),
])
def test_synthetic_rejects_bad_arguments(kwargs):
    args = dict(n_core=2, n_periphery=2, core_weight_scale=1.0,
                periphery_weight_scale=1.0, link_prob_pp=0.5, seed=0)
    args.update(kwargs)
    scale = {"core_weight_scale", "periphery_weight_scale"} & kwargs.keys()
    with pytest.raises(DataError, match="^weight scales must be positive and finite$"
                       if scale else None):
        generate_synthetic(**args)


def test_synthetic_series_covers_requested_quarters():
    records = generate_synthetic_series(2, 3, 5.0, 1.0, n_periods=6, seed=1,
                                        start_period="1999-Q3")
    assert records.periods == ("1999-Q3", "1999-Q4", "2000-Q1", "2000-Q2",
                               "2000-Q3", "2000-Q4")
    with pytest.raises(DataError, match="^n_periods must be at least 1$"):
        generate_synthetic_series(2, 3, 5.0, 1.0, n_periods=0, seed=1)


def test_quarter_arithmetic():
    assert shift_quarter("1999-Q4", 1) == "2000-Q1"
    assert shift_quarter("2000-Q1", -1) == "1999-Q4"
    assert period_sequence("2018-Q3", 3) == ("2018-Q3", "2018-Q4", "2019-Q1")
    for period, steps in (("0000-Q1", -1), ("9999-Q4", 1)):
        with pytest.raises(DataError, match="left the calendar"):
            shift_quarter(period, steps)
    with pytest.raises(DataError, match="malformed period label '2000Q1'"):
        shift_quarter("2000Q1", 1)
    with pytest.raises(DataError, match="left the calendar: 9999-Q3 \\+2"):
        generate_synthetic_series(2, 2, 1.0, 1.0, n_periods=3, seed=1, start_period="9999-Q3")


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 0) != derive_seed(43, 0)
    with pytest.raises(DataError):
        derive_seed(-1, 0)


# --- hostile input: exact messages, row numbers and precedence ----------------


def test_parse_accepts_bom_header_and_crlf_line_ends():
    text = f"\ufeff{HEADER}\r\n2008-Q3, us ,GB,1\r\n2008-Q3,GB,US,\"2.5\"\r\n"
    records = parse_flow_csv(text)
    assert records.periods == ("2008-Q3",)
    assert records.entities == ("GB", "US")
    assert serialize_flow_csv(records) == (
        f"{HEADER}\n2008-Q3,US,GB,1.0\n2008-Q3,GB,US,2.5\n")


HOSTILE_ROWS = [
    pytest.param('2008-Q3,US,GB,"1,5"', "negative or non-numeric amount '1,5'",
                 id="quoted-comma-amount"),
    pytest.param("2008-Q3,US,GB", "expected 4 fields, got 3", id="three-fields"),
    pytest.param("2008-Q3,US,GB,1,2", "expected 4 fields, got 5", id="five-fields"),
    pytest.param("2008-Q3,US,GB,nan", "negative or non-numeric amount nan", id="nan"),
    pytest.param("2008-Q3,US,GB,inf", "negative or non-numeric amount inf", id="inf"),
    pytest.param("2008-Q3,US,GB,-inf", "negative or non-numeric amount -inf", id="minus-inf"),
    pytest.param("2008-Q3,US,GB,1e400", "negative or non-numeric amount inf", id="1e400"),
    pytest.param("2008-Q3,US,GB,-1", "negative or non-numeric amount -1.0", id="negative"),
    pytest.param("2008-Q3,US,GB,abc", "negative or non-numeric amount 'abc'", id="text"),
    pytest.param("2008-Q9,US,GB,1", "malformed period label '2008-Q9' (expected YYYY-Qn)",
                 id="bad-period"),
    pytest.param("2008-Q3,U$,GB,1", "malformed reporter entity code 'U$'", id="bad-reporter"),
    pytest.param("2008-Q3,US,G B,1", "malformed counterparty entity code 'G B'",
                 id="bad-counterparty"),
    pytest.param("2008-Q3,US,us,1", "reporter equals counterparty ('US')", id="self-loop"),
    # Precedence within a row: the amount parses first, then the codes, then
    # the self-loop, and a negative amount is checked last.
    pytest.param("2008-Q9,US,GB,abc", "negative or non-numeric amount 'abc'",
                 id="amount-parse-before-period"),
    pytest.param("2008-Q3,US,US,-1", "reporter equals counterparty ('US')",
                 id="self-loop-before-negative"),
]

# (lines before the hostile row, its 1-based row number; the header is row 1)
HOSTILE_POSITIONS = [
    pytest.param([], 2, id="first"),
    pytest.param(["2008-Q3,US,GB,1", "2008-Q4,GB,US,2"], 4, id="after-good-rows"),
    pytest.param(["", "2008-Q3,US,GB,1", "", ""], 6, id="after-blank-lines"),
]


@pytest.mark.parametrize("before, row_no", HOSTILE_POSITIONS)
@pytest.mark.parametrize("row, message", HOSTILE_ROWS)
def test_parse_hostile_row_gives_exact_message(row, message, before, row_no):
    text = "\n".join([HEADER, *before, row, "2008-Q3,JP,US,3"]) + "\n"
    with pytest.raises(DataError) as info:
        parse_flow_csv(text)
    assert str(info.value) == f"row {row_no}: {message}"


def test_parse_reports_the_earliest_bad_row():
    text = f"{HEADER}\n2008-Q3,US,GB,1\n2008-Q9,US,GB,1\n2008-Q3,US\n"
    with pytest.raises(DataError) as info:
        parse_flow_csv(text)
    assert str(info.value) == "row 3: malformed period label '2008-Q9' (expected YYYY-Qn)"


@st.composite
def hostile_rows(draw):
    """A row the parser must reject, built around generated codes."""
    period = draw(PERIODS)
    reporter, counterparty = draw(st.lists(CODES, min_size=2, max_size=2, unique=True))
    amount = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "-1"]))
    return draw(st.sampled_from([
        f"{period},{reporter},{counterparty},{amount}",
        f"{period},{reporter},{counterparty}",
        f"{period},{reporter},{counterparty},1,2",
        f"{period},{reporter}$,{counterparty},1",
        f"{period},{reporter},{counterparty} X,1",
        f"{period[:4]}-Q5,{reporter},{counterparty},1",
        f"{period},{reporter},{reporter.lower()},1",
    ]))


@given(good_rows(), hostile_rows(), st.data())
def test_hostile_row_at_any_position_names_its_row(rows, hostile, data):
    lines = [f"{p},{r},{c},{x!r}" for p, r, c, x in rows]
    lines.insert(data.draw(st.integers(0, len(lines)), label="position"), hostile)
    for _ in range(data.draw(st.integers(0, 3), label="blank lines")):
        lines.insert(data.draw(st.integers(0, len(lines)), label="blank at"), "")
    row_no = 2 + lines.index(hostile)  # the header is row 1
    with pytest.raises(DataError) as info:
        parse_flow_csv("\n".join([HEADER, *lines]) + "\n")
    assert str(info.value).startswith(f"row {row_no}: ")


# --- reading and writing flow files -----------------------------------------

def past_the_first_block(tail: str) -> bytes:
    """A flow file of 500 plain rows (about 11 KB, so past the parser's first
    8 KiB block), then `tail`."""
    rows = "".join(f"2008-Q3,A{k:03d},B{k:03d},1.5\n" for k in range(500))
    assert len(HEADER) + len(rows) > 8192
    return f"{HEADER}\n{rows}{tail}".encode()


def in_the_first_block(tail: str) -> bytes:
    """A flow file of one plain row, then `tail`, all inside the first block."""
    return f"{HEADER}\n2008-Q3,JP,DE,1.5\n{tail}".encode()


PLACES = {"early": in_the_first_block, "late": past_the_first_block}

# Spellings that float() reads, or rejects, in ways another parser might not.
AMOUNT_SPELLINGS = {"padded": " 1.5", "underscore": "1_000", "arabic-indic": "\u0661\u0662",
                    "infinity": "infinity", "overflow": "1e400", "underflow": "1e-400",
                    "negative-zero": "-0", "hex": "0x10"}

BOTH_ENTRY_POINTS = [
    pytest.param(f"{HEADER}\n2008-Q3,US,GB,1\n2008-Q3,GB,US,2\n".encode(), id="lf"),
    pytest.param(f"{HEADER}\r\n2008-Q3,US,GB,1\r\n2008-Q3,GB,US,2\r\n".encode(), id="crlf"),
    pytest.param(f"{HEADER}\r2008-Q3,US,GB,1\r2008-Q3,GB,US,2\r".encode(), id="lone-cr"),
    pytest.param(f"\ufeff{HEADER}\n2008-Q3,US,GB,1\n".encode(), id="bom-header"),
    pytest.param(f"{HEADER}\n\n2008-Q3,US,GB,1\n\n\n2008-Q9,GB,US,2\n".encode(),
                 id="blank-lines"),
    pytest.param(f'{HEADER}\n2008-Q3,US,GB,"1\n"\n2008-Q3,"G\nB",US,2\n'.encode(),
                 id="quoted-field-spans-lines"),
    pytest.param(f'{HEADER}\r\n2008-Q3,"U\r\nS",GB,1\r\n'.encode(), id="quoted-crlf"),
    pytest.param(f"{HEADER}\n2008-Q3,US,GB,1\n2008-Q3,G\0B,US,2\n".encode(), id="nul-byte"),
    pytest.param(f"{HEADER}\n2008-Q3,US,GB,1\n2008-Q3,GB,US,{'9' * 200_000}\n".encode(),
                 id="oversized-field"),
    pytest.param(f'{HEADER}\n2008-Q3,US,GB,1\n2008-Q3,"GB,US,2\n'.encode(),
                 id="unterminated-quote"),
    pytest.param(past_the_first_block("2008-Q3, gb ,us,2\n"), id="late-padded-codes"),
    pytest.param(past_the_first_block('2008-Q3,"GB",US,2\n'), id="late-quote"),
    pytest.param(past_the_first_block("2008-Q3,GB,US,2\r\n2008-Q3,US,GB,3\r\n"),
                 id="late-crlf"),
    pytest.param(past_the_first_block("2008-Q3,GB,US,2\r\n2008-Q3,GB,US,-1\r\n"),
                 id="late-crlf-bad-row"),
    pytest.param(past_the_first_block("2008-Q3,GB,US,2\r\n2008-Q3,GB,US,-1"),
                 id="late-crlf-bad-row-no-final-newline"),
    pytest.param(past_the_first_block("\n2008-Q3,GB,US,2\n"), id="late-blank-line"),
    pytest.param(past_the_first_block("2008-Q3,G\0B,US,2\n"), id="late-nul-byte"),
    pytest.param(past_the_first_block("2008-Q3,GB,US,1e400\n"), id="late-bad-amount"),
    pytest.param(past_the_first_block("2008-Q3,GB,US,abc\n"), id="late-text-amount"),
    pytest.param(past_the_first_block("2008-Q3,GB,gb,2\n"), id="late-self-loop"),
    pytest.param(past_the_first_block("2008-Q3,GB,US,2"), id="late-no-final-newline"),
    pytest.param(past_the_first_block("2008-Q3,GB,US\n2,2008-Q3,US,GB,3\n"),
                 id="late-row-split-across-lines"),
    pytest.param(past_the_first_block(f"2008-Q3,{'A' * 131_073},US,2\n"),
                 id="late-field-just-past-the-limit"),
    pytest.param(f"{HEADER}\n".encode(), id="header-only"),
    # Joined, the two lines split into two valid rows ("1E3" is both an amount
    # and an entity code), so only a check of each line's commas rejects them.
    pytest.param(in_the_first_block("2008-Q3,GB,US\n1E3,2008-Q3,US,GB,3\n"),
                 id="early-row-split-across-lines"),
    *(pytest.param(place(f"2008-Q3,GB,US,{amount}\n2008-Q3,US,GB,{amount}\n"),
                   id=f"{where}-amount-{name}")
      for where, place in PLACES.items() for name, amount in AMOUNT_SPELLINGS.items()),
]


def csv_reference(text: str):
    """The csv reader's parse of flow CSV text: the reference of the plain-line
    path, as a record set or the error text."""
    return parse_or_error(lambda source: ingest._parse_flow_rows(
        csv.reader(io.StringIO(source, newline=""))), text)


def parse_or_error(parse, source):
    try:
        return parse(source)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("data", BOTH_ENTRY_POINTS)
def test_file_and_text_entry_points_agree(tmp_path, data):
    path = tmp_path / "flows.csv"
    path.write_bytes(data)
    text = data.decode("utf-8")
    results = [parse_or_error(parse_flow_file, path), parse_or_error(parse_flow_csv, text),
               csv_reference(text)]
    assert results[0] == results[1] == results[2]
    if isinstance(results[0], FlowRecordSet):  # bitwise, so -0.0 keeps its sign
        assert len({result.amounts.tobytes() for result in results}) == 1


@pytest.mark.parametrize("place", PLACES.values(), ids=PLACES.keys())
def test_a_lone_surrogate_in_a_code_is_read_as_the_csv_reader_reads_it(place):
    text = place("").decode("utf-8") + "2008-Q3,G\udc80B,US,2\n"
    assert parse_or_error(parse_flow_csv, text) == csv_reference(text)
    assert "malformed reporter entity code" in csv_reference(text)


@st.composite
def perturbed_flow_texts(draw):
    """Flow CSV text of plain rows, some of them past the first 8 KiB block,
    with a few perturbations that the plain-line path must either take as
    the csv reader does or give up on."""
    rows = [f"{p},{r},{c},{x!r}" for p, r, c, x in draw(good_rows())]
    # 500 filler rows take the text past the first block (18 characters each).
    lines = [HEADER, *["2008-Q3,AA,BB,1.5"] * draw(st.sampled_from([500, 3, 0])), *rows]
    for _ in range(draw(st.integers(0, 3), label="perturbations")):
        k = draw(st.integers(1, len(lines)), label="line")
        line = lines[k] if k < len(lines) else "2008-Q3,CC,DD,2"
        cells = line.split(",")
        cell = draw(st.integers(0, 3), label="cell")
        text = cells[cell]
        edited = {"quote": f'"{text}"', "stray-quote": f'{text}"x', "cr": f"{text}\r",
                  "nul": f"{text}\0", "lower": text.lower(), "padded": f" {text} ",
                  "bad-code": f"{text}$"}
        amount = {"nan": "nan", "negative": "-1", "underscore": "1_0", "word": "abc"}
        change = draw(st.sampled_from([*edited, *amount, "crlf", "blank", "three-fields",
                                       "five-fields"]))
        if change in edited:
            cells[cell] = edited[change]
        elif change in amount:
            cells[3] = amount[change]
        row = ",".join(cells)
        lines[k:k + 1] = {"crlf": [row + "\r"], "blank": ["", row],
                          "three-fields": [",".join(cells[:3])],
                          "five-fields": [row + ",1"]}.get(change, [row])
    if draw(st.booleans(), label="bom"):
        lines[0] = "\ufeff" + lines[0]
    if draw(st.booleans(), label="cr in header"):
        lines[0] = lines[0].replace(",", ",\r", 1)
    return "\n".join(lines) + "\n"


def test_plain_line_path_agrees_with_the_csv_reader():
    outcomes = set()

    @settings(max_examples=150)
    @given(perturbed_flow_texts())
    def agree(text):
        result = parse_or_error(parse_flow_csv, text)
        assert result == csv_reference(text)
        outcomes.add(type(result))

    agree()
    assert outcomes == {FlowRecordSet, str}


def test_written_flow_file_takes_the_plain_line_path(tmp_path, monkeypatch):
    records = generate_synthetic_series(n_core=3, n_periphery=12, core_weight_scale=100.0,
                                        periphery_weight_scale=1.0, n_periods=6, seed=3,
                                        link_prob_start=0.1, link_prob_end=0.6)
    write_flow_file(records, tmp_path / "flows.csv")
    assert (tmp_path / "flows.csv").stat().st_size > 8192

    def no_csv_reader(*args, **kwargs):
        raise AssertionError("the csv reader ran")

    monkeypatch.setattr(csv, "reader", no_csv_reader)
    assert parse_flow_file(tmp_path / "flows.csv") == records
    assert parse_flow_csv(serialize_flow_csv(records)) == records


def test_crlf_and_a_missing_final_lf_take_the_plain_line_path(tmp_path, monkeypatch):
    records = generate_synthetic_series(n_core=3, n_periphery=12, core_weight_scale=100.0,
                                        periphery_weight_scale=1.0, n_periods=6, seed=3,
                                        link_prob_start=0.1, link_prob_end=0.6)
    text = serialize_flow_csv(records)
    assert len(text) > 8192 and text.endswith("\n")

    def no_csv_reader(*args, **kwargs):
        raise AssertionError("the csv reader ran")

    monkeypatch.setattr(ingest, "_parse_flow_rows", no_csv_reader)
    crlf = text.replace("\n", "\r\n")
    path = tmp_path / "flows.csv"
    for name, copy in {"lf": text, "crlf": crlf, "no-final-lf": text[:-1],
                       "crlf-no-final-lf": crlf[:-2]}.items():
        path.write_bytes(copy.encode())
        assert parse_flow_file(path) == records, name
        assert parse_flow_csv(copy) == records, name


@pytest.mark.parametrize("text", [
    f"{HEADER}\r\n2008-Q3,US,GB,1\r2008-Q3,GB,US,2\r\n",
    f'{HEADER}\r\n2008-Q3,US,"GB",1\r\n',
    f"{HEADER}\r\n\r\n2008-Q3,US,GB,1\r\n",
    f"{HEADER}\n2008-Q3,US,GB,1\n\n",
], ids=["lone-cr", "quoted-field", "blank-line", "final-blank-line"])
def test_text_that_is_not_plain_reaches_the_csv_reader(monkeypatch, text):
    expected, calls = csv_reference(text), []
    rows = ingest._parse_flow_rows
    monkeypatch.setattr(ingest, "_parse_flow_rows",
                        lambda reader: calls.append(reader) or rows(reader))
    assert parse_flow_csv(text) == expected
    assert len(calls) == 1


def test_a_pipe_is_read_by_the_csv_reader(monkeypatch):
    data = past_the_first_block("2008-Q3,GB,US,2\n")
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda handle: calls.append(handle) or reader(handle))
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as pipe:
        pipe.write(data)  # within the pipe buffer, so no writer thread is needed
    try:
        records = parse_flow_file(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert len(calls) == 1
    assert records == parse_flow_csv(data.decode())


def test_crlf_inside_a_quoted_code_is_shown_as_crlf(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_bytes(f'{HEADER}\r\n2008-Q3,"U\r\nS",GB,1\r\n'.encode())
    with pytest.raises(DataError) as info:
        parse_flow_file(path)
    assert str(info.value) == "row 2: malformed reporter entity code 'U\\r\\nS'"


def padded_flow_bytes(bad_byte_row: int, newline: bytes = b"\n") -> bytes:
    """A flow file of 1,000 valid rows (about 20 KiB) with a non-UTF-8 byte in
    the code of row `bad_byte_row` (the header is row 1)."""
    lines = [HEADER.encode()] + [f"2008-Q3,A{k:05d},B{k:05d},1.5".encode()
                                 for k in range(2, 1002)]
    lines[bad_byte_row - 1] = b"2008-Q3,B\xff,A,5"
    return newline.join(lines) + newline


def test_non_utf8_byte_past_the_first_chunk_names_the_file_and_a_line(tmp_path):
    path = tmp_path / "flows.csv"
    data = padded_flow_bytes(900)
    assert data.index(b"\xff") > 8192
    path.write_bytes(data)
    with pytest.raises(DataError) as info:
        parse_flow_file(path)
    assert str(info.value) == f"{path}: line 900 is not UTF-8 text"


def convert_flow_file(path):
    """Read a flow CSV file as a raw extract whose columns map to themselves."""
    return convert_bis_file(path, BisMapping(period="period", reporter="reporter",
                                             counterparty="counterparty", value="amount"))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("bad_byte_row", [5, 900])
@pytest.mark.parametrize("read", [parse_flow_file, convert_flow_file],
                         ids=["flow-csv", "extract"])
def test_both_readers_name_the_exact_non_utf8_line(tmp_path, read, bad_byte_row, newline):
    # Row 5 sits in the decoder's first 8 KiB chunk and row 900 well past it.
    path = tmp_path / "flows.csv"
    path.write_bytes(padded_flow_bytes(bad_byte_row, newline))
    with pytest.raises(DataError) as info:
        read(path)
    assert str(info.value) == f"{path}: line {bad_byte_row} is not UTF-8 text"


def test_bad_row_before_the_first_non_utf8_byte_is_reported_as_that_row(tmp_path):
    data = padded_flow_bytes(900).replace(b"A00003,B00003", b"A00003,A00003", 1)
    path = tmp_path / "flows.csv"
    path.write_bytes(data)
    with pytest.raises(DataError) as info:
        parse_flow_file(path)
    assert str(info.value) == "row 3: reporter equals counterparty ('A00003')"


def test_file_parse_memory_stays_near_the_columns_it_keeps(tmp_path):
    """The parse holds no copy of the file: its peak stays within 3 times the
    four columns it returns (about 10.7 times when the whole text was read
    into a string and its rows collected as tuples)."""
    rng = np.random.default_rng(5)
    codes = [f"E{k:03d}" for k in range(200)]
    lines = [HEADER]
    for k in range(20_000):
        a, b = rng.choice(len(codes), size=2, replace=False)
        lines.append(f"{2000 + k % 10}-Q{1 + k % 4},{codes[a]},{codes[b]},"
                     f"{float(rng.random()) * 1e4!r}")
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        records = parse_flow_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(column.nbytes for column in (records.period_index, records.reporter_index,
                                            records.counterparty_index, records.amounts))
    assert len(records) == 20_000
    assert peak <= 3 * kept


def assert_over_long_line_is_rejected_before_it_is_read_whole(tmp_path, read):
    cap = 4 * (2 * csv.field_size_limit() + 2) + 5
    path = tmp_path / "flows.csv"
    path.write_text(f"{HEADER}\n2008-Q3,US,GB,{'9' * 30_000_000}\n2008-Q3,GB,US,1\n")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=f"^row 2: line longer than {cap} characters$"):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_an_over_long_line_is_rejected_before_it_is_read_whole(tmp_path):
    """A 30 MB second line once peaked at 60 MB: the csv reader read it whole
    before its field limit rejected it. Lines are now read with a bound of
    the longest line a valid row can have."""
    assert_over_long_line_is_rejected_before_it_is_read_whole(tmp_path, parse_flow_file)


def test_an_over_long_extract_line_is_rejected_before_it_is_read_whole(tmp_path):
    """The extract reader reads bounded lines too; it once peaked at 60 MB
    and failed only as an unreadable extract."""
    assert_over_long_line_is_rejected_before_it_is_read_whole(tmp_path, convert_flow_file)


@pytest.mark.parametrize("extra", [0, 1], ids=["cap", "cap-plus-1"])
def test_line_length_bound_is_the_longest_valid_row(extra):
    """A row of four fields at the size limit, every character a quote, is
    exactly `cap` characters with its CRLF and reaches the row checks; one
    more character on the line is rejected by its length."""
    limit = 12  # the longest header name, "counterparty"
    cap = 4 * (2 * limit + 2) + 5
    row = ",".join(['"' + '""' * limit + '"'] * 4) + " " * extra + "\r\n"
    assert len(row) == cap + extra
    old_limit = csv.field_size_limit(limit)
    try:
        with pytest.raises(DataError) as info:
            parse_flow_csv(f"{HEADER}\r\n{row}")
    finally:
        csv.field_size_limit(old_limit)
    assert str(info.value) == ("row 2: negative or non-numeric amount '" + '"' * limit + "'"
                               if extra == 0 else f"row 2: line longer than {cap} characters")


@pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 9000])
def test_written_flow_file_is_the_serialized_text(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    rows = [(f"{2000 + k % 3}-Q{1 + k % 4}", f"E{k % 7}", f"F{k % 5}",
             float(rng.random()) * 10.0 ** int(rng.integers(-5, 9))) for k in range(n_rows)]
    records = FlowRecordSet.from_rows(rows)
    expected = "\n".join([HEADER, *(f"{p},{r},{c},{x!r}" for p, r, c, x in as_tuples(records))])
    write_flow_file(records, tmp_path / "flows.csv")
    assert (tmp_path / "flows.csv").read_bytes() == (expected + "\n").encode("utf-8")
    assert serialize_flow_csv(records) == expected + "\n"


def test_build_snapshot_sums_duplicates_bitwise_in_row_order():
    rng = np.random.default_rng(17)
    codes = ("A", "B", "C", "D")
    periods = ("2008-Q3", "2008-Q4")
    rows = []
    for _ in range(400):
        a, b = rng.choice(len(codes), size=2, replace=False)
        amount = float(rng.random()) * 10.0 ** int(rng.integers(-8, 9))
        rows.append((periods[int(rng.integers(2))], codes[a], codes[b], amount))
    lines = [HEADER]
    for k, (period, reporter, counterparty, amount) in enumerate(rows):
        if k % 50 == 0:
            lines.append("")
        lines.append(f"{period},{reporter},{counterparty},{amount!r}")
    records = parse_flow_csv("\n".join(lines) + "\n")
    assert records.entities == codes
    for period in periods:
        expected = np.zeros((len(codes), len(codes)))
        for row_period, reporter, counterparty, amount in rows:
            if row_period == period:
                expected[codes.index(reporter), codes.index(counterparty)] += amount
        weights = build_snapshot(records, period).weights
        assert weights.tobytes() == expected.tobytes()


def test_extract_with_a_utf8_bom_converts_as_without_it(tmp_path):
    """Excel's "CSV UTF-8" starts the file with a BOM, which once stuck to
    the first column's name, so the mapping's column was reported absent."""
    text = ("TIME_PERIOD,REP,CP,VAL,MEASURE\r\n2008-Q3,US,GB,5,S\r\n"
            "2008-Q4,GB,US,2.5,S\r\n2008-Q4,GB,DE,1,N\r\n")
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    expected = convert_bis_file(plain, MAPPING)
    assert expected.converted == 2 and expected.filtered == 1
    assert convert_bis_file(bom, MAPPING) == expected

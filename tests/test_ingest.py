import numpy as np
import pytest

from flowspectra import (
    BisMapping,
    ConfigError,
    DataError,
    FlowRecord,
    FlowRecordSet,
    build_snapshot,
    convert_bis_lbs,
    derive_seed,
    generate_synthetic,
    generate_synthetic_series,
    load_bis_mapping,
    parse_flow_csv,
    serialize_flow_csv,
)
from flowspectra.ingest import period_sequence, shift_quarter

HEADER = "period,reporter,counterparty,amount"


def test_parse_single_row():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,US,GB,1250.5")
    assert len(records) == 1
    record = records.rows()[0]
    assert record == FlowRecord("2008-Q3", "US", "GB", 1250.5)


def test_parse_header_only_is_empty():
    records = parse_flow_csv(HEADER + "\n")
    assert records.rows() == ()
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


def test_parse_uppercases_and_trims_codes():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3, us , gb ,3")
    assert records.rows()[0].reporter == "US"
    assert records.rows()[0].counterparty == "GB"


def test_parse_accepts_crlf_and_preserves_row_order():
    text = f"{HEADER}\r\n2008-Q3,US,GB,1\r\n2008-Q3,GB,US,2\r\n"
    records = parse_flow_csv(text)
    assert [r.amount for r in records.rows()] == [1.0, 2.0]


def test_from_rows_validates_with_row_numbers():
    records = FlowRecordSet.from_rows([("2008-Q3", "US", "GB", 2.0), ("2008-Q3", "GB", "US", 1)])
    assert records.rows() == (FlowRecord("2008-Q3", "US", "GB", 2.0),
                              FlowRecord("2008-Q3", "GB", "US", 1.0))
    with pytest.raises(DataError) as info:
        FlowRecordSet.from_rows([("2008-Q3", "US", "GB", 2.0), ("2008-Q3", "JP", "JP", 1.0)])
    assert str(info.value) == "row 2: reporter equals counterparty ('JP')"


def test_periods_sorted_and_entities_are_union():
    records = parse_flow_csv(
        f"{HEADER}\n2010-Q1,US,GB,1\n2008-Q3,JP,US,2\n2008-Q4,DE,FR,3"
    )
    assert records.periods == ("2008-Q3", "2008-Q4", "2010-Q1")
    assert records.entities == ("DE", "FR", "GB", "JP", "US")


def test_zero_amount_records_are_retained():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,US,GB,0")
    assert records.rows()[0].amount == 0.0


def test_serialize_round_trip_random_sets():
    rng = np.random.default_rng(101)
    codes = ["US", "GB", "JP", "DE", "FR", "CH"]
    for _ in range(50):
        rows = []
        for _ in range(int(rng.integers(0, 30))):
            a, b = rng.choice(len(codes), size=2, replace=False)
            period = f"{rng.integers(1978, 2020)}-Q{rng.integers(1, 5)}"
            rows.append(FlowRecord(period, codes[a], codes[b],
                                   float(rng.random() * 1e6)))
        original = FlowRecordSet.from_rows(rows)
        assert parse_flow_csv(serialize_flow_csv(original)) == original


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
    assert conversion.records.rows()[0].amount == 12.0


def test_convert_rejects_absent_column():
    mapping = BisMapping(period="TIME_PERIOD", reporter="REP",
                         counterparty="CP", value="valuee")
    rows = [{"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "VAL": "5"}]
    with pytest.raises(ConfigError, match="valuee"):
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
    ]
    conversion = convert_bis_lbs(rows, MAPPING)
    assert conversion.records.rows()[0].period == "2008-Q4"
    assert conversion.drop_reasons == {
        "malformed-period": 1, "self-loop": 1, "negative-value": 1,
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
    total = sum(r.amount for r in conversion.records.rows())
    assert total == pytest.approx(expected, rel=1e-9)


def test_load_mapping_json_and_keyvalue():
    json_text = ('{"period": "P", "reporter": "R", "counterparty": "C",'
                 ' "value": "V", "filters": {"M": "S"}}')
    kv_text = "period=P\nreporter=R\ncounterparty=C\nvalue=V\nfilter.M=S\n"
    assert load_bis_mapping(json_text) == load_bis_mapping(kv_text)


def test_load_mapping_rejects_missing_and_unknown_keys():
    with pytest.raises(ConfigError, match="missing"):
        load_bis_mapping("period=P\nreporter=R\ncounterparty=C\n")
    with pytest.raises(ConfigError, match="unknown"):
        load_bis_mapping("period=P\nreporter=R\ncounterparty=C\nvalue=V\nbogus=1\n")


# --- synthetic generator -----------------------------------------------------


def test_synthetic_two_core_nodes_complete_digraph():
    records = generate_synthetic(2, 0, 1.0, 1.0, 0.0, seed=0)
    assert len(records) == 2
    pairs = {(r.reporter, r.counterparty) for r in records.rows()}
    assert pairs == {("C000", "C001"), ("C001", "C000")}


def test_synthetic_core_periphery_pair():
    records = generate_synthetic(1, 1, 1.0, 1.0, 0.0, seed=0)
    assert len(records) == 2
    pairs = {(r.reporter, r.counterparty) for r in records.rows()}
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
        for record in records.rows():
            assert record.reporter != record.counterparty
            assert record.amount > 0


@pytest.mark.parametrize("kwargs", [
    dict(n_core=0, n_periphery=5),
    dict(n_core=1, n_periphery=0),
    dict(n_core=2, n_periphery=0, core_weight_scale=0.0),
    dict(n_core=2, n_periphery=0, link_prob_pp=1.5),
])
def test_synthetic_rejects_bad_arguments(kwargs):
    args = dict(n_core=2, n_periphery=2, core_weight_scale=1.0,
                periphery_weight_scale=1.0, link_prob_pp=0.5, seed=0)
    args.update(kwargs)
    with pytest.raises(DataError):
        generate_synthetic(**args)


def test_synthetic_series_covers_requested_quarters():
    records = generate_synthetic_series(2, 3, 5.0, 1.0, n_periods=6, seed=1,
                                        start_period="1999-Q3")
    assert records.periods == ("1999-Q3", "1999-Q4", "2000-Q1", "2000-Q2",
                               "2000-Q3", "2000-Q4")


def test_quarter_arithmetic():
    assert shift_quarter("1999-Q4", 1) == "2000-Q1"
    assert shift_quarter("2000-Q1", -1) == "1999-Q4"
    assert period_sequence("2018-Q3", 3) == ("2018-Q3", "2018-Q4", "2019-Q1")


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

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowspectra import (
    BisMapping,
    ConfigError,
    ConvergenceError,
    DataError,
    FlowRecordSet,
    MODE_LINK_SHUFFLE,
    MODE_SYMMETRIZED,
    MODE_WEIGHT_PERMUTE,
    PipelineConfig,
    analyze_period,
    build_snapshot,
    convert_bis_lbs,
    export,
    generate_synthetic_series,
    ipr,
    parse_flow_csv,
    run_timeseries,
    timeseries_to_json,
)
from flowspectra.nullmodel import NullEnsembleStats
from flowspectra.pipeline import (PeriodResult, dataset_fingerprint, json_text,
                                  period_to_json)

HEADER = "period,reporter,counterparty,amount"
TWO_NODE = f"{HEADER}\n2008-Q3,A,B,3\n2008-Q3,B,A,5"

FAST = PipelineConfig(seed=5, null_samples=5)


def test_analyze_two_node_closed_form():
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", FAST)
    assert result.lambda_max == pytest.approx(math.sqrt(15), rel=1e-12)
    assert result.total_volume == 8.0
    assert result.density == 1.0
    assert list(result.volume_share) == [50.0, 50.0]


def test_analyze_two_node_market_mode_ipr():
    # Perron vector of [[0,3],[5,0]] has squared components (3/8, 5/8), so
    # the IPR is 1 / ((3/8)^2 + (5/8)^2) = 32/17.
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", FAST)
    assert result.ipr_lambda_max == pytest.approx(32 / 17, rel=1e-10)


def test_analyze_is_deterministic_end_to_end():
    config = PipelineConfig(seed=9, null_samples=1)
    first = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", config)
    second = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", config)
    assert first == second


def test_analyze_percentages_sum_to_100():
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", FAST)
    assert sum(result.participation) == pytest.approx(100.0, abs=1e-6)
    assert sum(result.volume_share) == pytest.approx(100.0, abs=1e-6)


def test_analyze_ipr_recomputable_from_stored_mode():
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", FAST)
    assert ipr(np.array(result.market_mode)) == result.ipr_lambda_max


def test_analyze_unknown_period_and_empty_network():
    with pytest.raises(DataError):
        analyze_period(parse_flow_csv(TWO_NODE), "1990-Q1", FAST)
    zero_period = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,0\n2008-Q4,A,B,1")
    with pytest.raises(DataError, match="2008-Q3"):
        analyze_period(zero_period, "2008-Q3", FAST)


def test_analyze_symmetrized_mode():
    config = PipelineConfig(seed=5, null_samples=5, spectrum_mode=MODE_SYMMETRIZED)
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", config)
    # symmetrized matrix [[0,4],[4,0]] has top eigenvalue 4
    assert result.lambda_max == pytest.approx(4.0, rel=1e-10)
    # Every two-node replica symmetrizes to the same matrix, so the null
    # holds the same eigenvalue and the gap vanishes.
    assert result.null_stats.mean == pytest.approx(4.0, rel=1e-10)
    assert result.gap == 0.0


def test_symmetrized_gap_vanishes_when_every_replica_equals_the_network():
    # Permuting equal weights leaves the matrix as it is, so lambda must come
    # from the same eigensolver as the null's to give a gap of exactly 0.
    config = PipelineConfig(null_samples=5, null_mode=MODE_WEIGHT_PERMUTE,
                            spectrum_mode=MODE_SYMMETRIZED)
    for seed in range(10):
        links = np.random.default_rng(seed).random((12, 12)) < 0.3
        np.fill_diagonal(links, False)
        records = FlowRecordSet.from_rows(("2008-Q3", f"E{i:02d}", f"E{j:02d}", 2.5)
                                          for i, j in zip(*np.nonzero(links)))
        result = analyze_period(records, "2008-Q3", config)
        assert result.gap == 0.0, seed


def test_analyze_one_way_quarter_has_a_zero_radius_and_its_chain_head_as_market_mode():
    # A -> B -> C and D -> C: no cycle, and A alone starts the longest chain.
    # Permuting weights keeps the pattern, so every replica is nilpotent too.
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,3\n2008-Q3,B,C,5\n2008-Q3,D,C,7")
    config = PipelineConfig(seed=5, null_samples=5, null_mode=MODE_WEIGHT_PERMUTE)
    result = analyze_period(records, "2008-Q3", config)
    assert result.lambda_max == 0.0
    assert result.market_mode == (1.0, 0.0, 0.0, 0.0)
    assert result.null_stats.lambda_values == (0.0,) * 5
    assert result.null_stats.std == 0.0
    assert result.gap == 0.0


def test_analyze_tiny_amounts_keep_a_positive_radius():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,1e-170\n2008-Q3,B,A,2e-170\n"
                             "2008-Q3,B,C,3e-170\n2008-Q3,C,A,4e-170")
    result = analyze_period(records, "2008-Q3", FAST)
    weights = build_snapshot(records, "2008-Q3").weights
    assert result.lambda_max == pytest.approx(
        max(abs(np.linalg.eigvals(weights))), rel=1e-8)
    assert result.null_stats.mean > 0


def test_analyze_error_keeps_period_residual_and_iterations(monkeypatch):
    import flowspectra.spectral as spectral_module
    screen = spectral_module._screen

    def stuck(stack):  # the period's own matrix, place 0, fails
        exponents, failures = screen(stack)
        return exponents, failures + [(0, 0, ConvergenceError("stuck", residual=0.25,
                                                               iterations=7))]

    monkeypatch.setattr(spectral_module, "_screen", stuck)
    with pytest.raises(ConvergenceError, match="^2008-Q3: stuck$") as excinfo:
        analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", FAST)
    assert excinfo.value.residual == 0.25
    assert excinfo.value.iterations == 7


def test_analyze_weights_too_far_apart_fail_with_the_period():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,1e200\n2008-Q3,B,A,1e-200")
    with pytest.raises(DataError, match="^2008-Q3: weights span too many orders"):
        analyze_period(records, "2008-Q3", FAST)


def test_symmetrized_mode_does_not_need_the_perron_pair(monkeypatch):
    import flowspectra.spectral as spectral_module

    def stuck(stack):  # every Perron problem is screened here first
        raise ConvergenceError("stuck", residual=0.25, iterations=7)

    monkeypatch.setattr(spectral_module, "_screen", stuck)
    config = PipelineConfig(seed=5, null_samples=5, spectrum_mode=MODE_SYMMETRIZED)
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", config)
    assert result.lambda_max == pytest.approx(4.0, rel=1e-10)
    assert result.null_stats.mean == pytest.approx(4.0, rel=1e-10)


def test_replica_error_keeps_period_replica_residual_and_iterations(monkeypatch):
    import flowspectra.spectral as spectral_module
    screen = spectral_module._screen

    def stuck_on_replica_3(stack):
        # The period's matrix and its replicas join the stack as one part.
        assert stack.shape == (FAST.null_samples + 1, 2, 2)
        exponents, failures = screen(stack)
        return exponents, failures + [(0, 4, ConvergenceError("stuck", residual=0.5,
                                                               iterations=11))]

    monkeypatch.setattr(spectral_module, "_screen", stuck_on_replica_3)
    with pytest.raises(ConvergenceError, match="^2008-Q3: replica 3: stuck$") as excinfo:
        analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", FAST)
    assert excinfo.value.residual == 0.5
    assert excinfo.value.iterations == 11


def test_timeseries_single_period():
    result = run_timeseries(parse_flow_csv(TWO_NODE), FAST)
    assert len(result.results) == 1
    assert result.periods == ("2008-Q3",)
    assert result.fingerprint


def test_timeseries_lambda_scales_with_uniform_growth():
    rows = []
    for factor, period in zip((1.0, 2.0, 3.0), ("2008-Q1", "2008-Q2", "2008-Q3")):
        rows.append(f"{period},A,B,{3 * factor}")
        rows.append(f"{period},B,A,{5 * factor}")
    records = parse_flow_csv(HEADER + "\n" + "\n".join(rows))
    result = run_timeseries(records, FAST)
    lams = [r.lambda_max for r in result.results]
    assert lams[1] == pytest.approx(2 * lams[0], rel=1e-9)
    assert lams[2] == pytest.approx(3 * lams[0], rel=1e-9)


def test_timeseries_density_rises_with_link_probability():
    records = generate_synthetic_series(2, 10, 10.0, 1.0, n_periods=5, seed=3,
                                        link_prob_start=0.05, link_prob_end=0.9)
    result = run_timeseries(records, FAST)
    densities = [r.density for r in result.results]
    assert all(a <= b for a, b in zip(densities, densities[1:]))


def test_timeseries_skips_zero_periods_with_flag():
    records = parse_flow_csv(
        f"{HEADER}\n2008-Q1,A,B,0\n2008-Q2,A,B,1\n2008-Q2,B,A,2")
    result = run_timeseries(records, FAST)
    assert result.skipped == ("2008-Q1",)
    assert result.periods == ("2008-Q2",)


def test_timeseries_fails_only_when_nothing_succeeds():
    all_zero = parse_flow_csv(f"{HEADER}\n2008-Q1,A,B,0\n2008-Q2,B,A,0")
    with pytest.raises(DataError, match="no period"):
        run_timeseries(all_zero, FAST)


def test_timeseries_reports_overflowing_period_as_failure():
    records = parse_flow_csv(f"{HEADER}\n2008-Q1,A,B,1e308\n2008-Q1,A,C,1.5e308\n"
                             "2008-Q2,A,B,1\n2008-Q2,B,A,2")
    result = run_timeseries(records, FAST)
    assert result.periods == ("2008-Q2",)
    assert [period for period, _ in result.failures] == ["2008-Q1"]
    assert "total volume overflows" in result.failures[0][1]


def test_timeseries_reports_duplicates_summing_past_the_float_maximum():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,US,GB,1e308\n2008-Q3,US,GB,1e308\n"
                             "2008-Q4,US,GB,1\n2008-Q4,GB,US,2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_timeseries(records, FAST)
    assert result.periods == ("2008-Q4",)
    assert result.failures == (
        ("2008-Q3", "2008-Q3: duplicate US -> GB amounts sum past the float maximum"),)


def test_converter_reports_duplicates_summing_past_the_float_maximum():
    mapping = BisMapping(period="TIME_PERIOD", reporter="REP", counterparty="CP",
                         value="OBS_VALUE")
    row = {"TIME_PERIOD": "2008-Q3", "REP": "US", "CP": "GB", "OBS_VALUE": "1e308"}
    with pytest.raises(DataError, match="^2008-Q3: duplicate US -> GB amounts sum "
                                        "past the float maximum$"):
        convert_bis_lbs([row, row], mapping)


def test_timeseries_gap_is_finite_everywhere():
    records = generate_synthetic_series(3, 6, 20.0, 1.0, n_periods=4, seed=21,
                                        link_prob_start=0.3)
    result = run_timeseries(records, FAST)
    assert all(math.isfinite(r.gap) for r in result.results)


def test_null_statistics_near_the_float_maximum_stay_finite(tmp_path):
    # A directed 6-cycle plus chords 0<->3 and 1<->4; the total is 1.19e308,
    # so the replica lambdas sum past the float maximum.
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (3, 0), (1, 4), (4, 1)]
    amounts = np.random.default_rng(3).uniform(1e307, 1.5e307, len(edges))
    records = FlowRecordSet.from_rows(
        ("2008-Q3", f"E{a}", f"E{b}", float(w)) for (a, b), w in zip(edges, amounts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_timeseries(records, PipelineConfig(seed=1, null_samples=100))
        export(result, tmp_path)
    stats = result.results[0].null_stats
    values = np.asarray(stats.lambda_values)
    mean = math.fsum(values / values.size)
    assert stats.mean == pytest.approx(mean, rel=1e-14)
    deviations = (values - mean) / 1e300
    std = math.sqrt(math.fsum(deviations**2) / values.size) * 1e300
    assert stats.std == pytest.approx(std, rel=1e-12)
    assert math.isfinite(result.results[0].gap)
    row = (tmp_path / "timeseries.csv").read_text().splitlines()[1].split(",")
    assert all(math.isfinite(float(cell)) for cell in row[1:])


def test_degenerate_null_equality_case():
    # Complete digraph with equal weights: weight-permute replicas are the
    # identical matrix, so lambda matches the null mean exactly.
    text = f"{HEADER}\n" + "\n".join(
        f"2008-Q3,{a},{b},2.5"
        for a in ("A", "B", "C") for b in ("A", "B", "C") if a != b)
    config = PipelineConfig(seed=4, null_samples=10, null_mode=MODE_WEIGHT_PERMUTE)
    result = analyze_period(parse_flow_csv(text), "2008-Q3", config)
    assert result.lambda_max >= result.null_stats.mean - 1e-9
    assert result.null_stats.std == 0.0


# --- configuration -----------------------------------------------------------


def test_config_rejects_unknown_keys_and_bad_values():
    for key, value in (("seed", 1.5), ("seed", True), ("null_samples", 2.5),
                       ("null_samples", True)):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got {value!r}$"):
            PipelineConfig(**{key: value})
    with pytest.raises(ConfigError):
        PipelineConfig(null_samples=0)
    with pytest.raises(ConfigError):
        PipelineConfig(null_mode="scramble")
    with pytest.raises(ConfigError):
        PipelineConfig(seed=-2)
    with pytest.raises(ConfigError, match="unknown spectrum mode 'bogus'"):
        PipelineConfig(spectrum_mode="bogus")
    with pytest.raises(TypeError, match="volume_mode"):
        PipelineConfig(volume_mode="both")


def test_config_is_frozen_and_carried_by_the_result():
    config = PipelineConfig(seed=5, null_samples=5)
    for field in dataclasses.fields(PipelineConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, getattr(config, field.name))
    result = run_timeseries(parse_flow_csv(TWO_NODE), config)
    assert result.config is config
    assert timeseries_to_json(result)["config"] == {
        "seed": 5, "null_samples": 5, "null_mode": "link-shuffle",
        "spectrum_mode": "directed-perron"}
    assert [field.name for field in dataclasses.fields(PipelineConfig)] == [
        "seed", "null_samples", "null_mode", "spectrum_mode"]


# --- exports -------------------------------------------------------------------


def test_export_single_period_csv_shape(tmp_path):
    result = run_timeseries(parse_flow_csv(TWO_NODE), FAST)
    paths = export(result, tmp_path)
    csv_lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert csv_lines[0].startswith("period,lambda_max,lambda_sh_mean,lambda_sh_q99,"
                                   "mean_ipr,ipr_lambda_max,total_volume,density,gap")
    assert len(csv_lines) == 2
    assert {p.name for p in paths} == {"timeseries.csv", "participation.csv",
                                       "timeseries.json"}


def test_export_participation_sums_to_100_per_period(tmp_path):
    records = generate_synthetic_series(3, 4, 10.0, 1.0, n_periods=3, seed=6,
                                        link_prob_start=0.4)
    export(run_timeseries(records, FAST), tmp_path)
    sums: dict[str, float] = {}
    lines = (tmp_path / "participation.csv").read_text().splitlines()[1:]
    for line in lines:
        period, _, participation, _ = line.split(",")
        sums[period] = sums.get(period, 0.0) + float(participation)
    assert sums
    for total in sums.values():
        assert total == pytest.approx(100.0, abs=1e-6)


def test_export_json_holds_every_result_field(tmp_path):
    config = PipelineConfig(seed=8, null_samples=4)
    records = generate_synthetic_series(2, 3, 10.0, 1.0, n_periods=2, seed=4,
                                        link_prob_start=0.5)
    result = run_timeseries(records, config)
    export(result, tmp_path)
    payload = json.loads((tmp_path / "timeseries.json").read_text())
    assert payload == timeseries_to_json(result)

    def as_json(value):
        return list(value) if isinstance(value, tuple) else value

    assert len(payload["periods"]) == len(result.results) == 2
    for period, entry in zip(result.results, payload["periods"]):
        for field in dataclasses.fields(PeriodResult):
            if field.name != "null_stats":
                assert entry[field.name] == as_json(getattr(period, field.name)), field.name
        assert entry["gap"] == period.gap
        for field in dataclasses.fields(NullEnsembleStats):
            value = getattr(period.null_stats, field.name)
            assert entry["null"][field.name] == as_json(value), field.name


def test_stats_json_payload():
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3",
                            PipelineConfig(seed=2, null_samples=3))
    stats = result.null_stats
    payload = period_to_json(result)["null"]
    assert list(payload) == ["mode", "n_samples", "seed", "mean", "std",
                             "q01", "q50", "q99", "lambda_values"]
    assert payload["mode"] == MODE_LINK_SHUFFLE
    assert [payload[key] for key in payload] == [
        stats.mode, stats.n_samples, stats.seed, stats.mean, stats.std,
        stats.q01, stats.q50, stats.q99, list(stats.lambda_values)]
    assert len(payload["lambda_values"]) == 3


PERIOD_KEYS = ["period", "entities", "lambda_max", "mean_ipr", "ipr_lambda_max",
               "total_volume", "density", "gap", "participation", "volume_share",
               "market_mode", "null"]
NULL_KEYS = ["mode", "n_samples", "seed", "mean", "std", "q01", "q50", "q99",
             "lambda_values"]


@pytest.mark.parametrize("exported", [False, True])
def test_timeseries_json_period_entry_keys_are_in_a_fixed_order(tmp_path, exported):
    """Dict equality ignores key order, so the written order is pinned here:
    reordering a dataclass field moves a key and fails this test. The order
    is checked in a `timeseries.json` entry (exported) and in the text that
    `analyze` writes for one quarter (not exported)."""
    result = run_timeseries(parse_flow_csv(TWO_NODE), PipelineConfig(seed=5, null_samples=3))
    if exported:
        export(result, tmp_path)
        entry = json.loads((tmp_path / "timeseries.json").read_text())["periods"][0]
    else:
        entry = json.loads(json_text(period_to_json(result.results[0])))
    assert list(entry) == PERIOD_KEYS
    assert list(entry["null"]) == NULL_KEYS


def test_period_result_gap_follows_replace():
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", FAST)
    assert result.gap == result.lambda_max - result.null_stats.mean
    moved = dataclasses.replace(result, lambda_max=result.lambda_max + 1.0)
    assert moved.gap == moved.lambda_max - moved.null_stats.mean
    with pytest.raises(ValueError, match="gap"):
        dataclasses.replace(result, gap=0.0)


def test_export_refuses_non_finite_json(tmp_path):
    result = run_timeseries(parse_flow_csv(TWO_NODE), FAST)
    broken = dataclasses.replace(result.results[0], lambda_max=float("nan"))
    with pytest.raises(ValueError, match="JSON compliant"):
        export(dataclasses.replace(result, results=(broken,)), tmp_path)
    assert not (tmp_path / "timeseries.json").exists()


def test_timeseries_json_is_pure_data():
    result = run_timeseries(parse_flow_csv(TWO_NODE), FAST)
    payload = timeseries_to_json(result)
    json.dumps(payload)  # must be serializable without custom encoders
    assert payload["periods"][0]["period"] == "2008-Q3"


def test_export_is_byte_identical_across_runs(tmp_path):
    records = generate_synthetic_series(3, 5, 10.0, 1.0, n_periods=4, seed=14,
                                        link_prob_start=0.3)
    config = PipelineConfig(seed=2, null_samples=8)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    export(run_timeseries(records, config), dir_a)
    export(run_timeseries(records, config), dir_b)
    for name in ("timeseries.csv", "participation.csv", "timeseries.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_fingerprint_tracks_content():
    a = run_timeseries(parse_flow_csv(TWO_NODE), FAST)
    b = run_timeseries(parse_flow_csv(TWO_NODE + "\n2008-Q3,A,B,1"), FAST)
    assert a.fingerprint != b.fingerprint


def test_fingerprint_is_pinned_for_a_three_row_set():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,3\n2008-Q3,B,A,5\n2008-Q4,A,C,0.1\n")
    assert dataset_fingerprint(records) == (
        "4a316e97b98b790b5526e697ac0fae9cf5e1d65437873108fe0004db8355af43")


def test_fingerprint_counts_negative_zero_as_zero():
    negative = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,-0\n2008-Q3,B,A,5\n")
    positive = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,0\n2008-Q3,B,A,5\n")
    assert negative == positive
    assert dataset_fingerprint(negative) == dataset_fingerprint(positive)


PERIOD_POOL = ("2008-Q3", "2008-Q4", "2009-Q1")
ENTITY_POOL = ("2008-Q4", "A", "B", "C")  # "2008-Q4" is valid in both lists


def _labelled_set(periods, entities, rows):
    """The FlowRecordSet of (period, reporter, counterparty, amount) label rows
    over the sorted label sets, which may hold labels no row uses."""
    periods, entities = tuple(sorted(periods)), tuple(sorted(entities))
    return FlowRecordSet(periods, entities,
                         np.array([periods.index(row[0]) for row in rows], dtype=np.int64),
                         np.array([entities.index(row[1]) for row in rows], dtype=np.int64),
                         np.array([entities.index(row[2]) for row in rows], dtype=np.int64),
                         np.array([row[3] for row in rows], dtype=float))


@st.composite
def changed_record_sets(draw, change):
    """A small record set and the same set after `change`, which may or may
    not leave it equal."""
    periods = draw(st.sets(st.sampled_from(PERIOD_POOL), min_size=1))
    entities = draw(st.sets(st.sampled_from(ENTITY_POOL), min_size=2))
    links = st.permutations(sorted(entities)).map(lambda codes: codes[:2])
    rows = draw(st.lists(st.builds(lambda p, link, x: (p, *link, x),
                                   st.sampled_from(sorted(periods)), links,
                                   st.sampled_from([0.0, -0.0, 1.0, 2.5])), max_size=4))
    new_periods, new_entities, new_rows = set(periods), set(entities), list(rows)
    if change == "permute rows":
        new_rows = draw(st.permutations(rows))
    elif change == "flip the sign of zero":
        new_rows = [(p, r, c, -x if x == 0 else x) for p, r, c, x in rows]
    elif change == "split a record" and rows:
        k = draw(st.integers(0, len(rows) - 1))
        new_rows[k:k + 1] = [(*rows[k][:3], rows[k][3] / 2)] * 2
    elif change == "move a label":
        label = "2008-Q4"  # unused and in one list, it moves to the other
        if not any(label in row[:3] for row in rows):
            new_periods ^= {label}
            new_entities ^= {label}
    elif change == "rename a label":
        old = draw(st.sampled_from(sorted(entities)))
        new = draw(st.sampled_from(ENTITY_POOL))
        if new not in entities:
            new_entities = entities - {old} | {new}
            new_rows = [(p, *(new if e == old else e for e in (r, c)), x) for p, r, c, x in rows]
    return (_labelled_set(periods, entities, rows),
            _labelled_set(new_periods, new_entities, new_rows))


@pytest.mark.parametrize("change", ["none", "permute rows", "flip the sign of zero",
                                    "split a record", "move a label", "rename a label"])
@given(data=st.data())
def test_fingerprints_are_equal_exactly_for_equal_record_sets(change, data):
    a, b = data.draw(changed_record_sets(change))
    assert (a == b) == (dataset_fingerprint(a) == dataset_fingerprint(b))


def test_records_round_trip_preserves_equality():
    records = FlowRecordSet.from_rows([("2008-Q3", "A", "B", 3.0)])
    assert records == FlowRecordSet.from_rows([("2008-Q3", "A", "B", 3.0)])

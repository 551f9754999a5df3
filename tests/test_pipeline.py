import json
import math

import numpy as np
import pytest

from flowspectra import (
    ConfigError,
    ConvergenceError,
    DataError,
    FlowRecord,
    FlowRecordSet,
    MODE_SYMMETRIZED,
    MODE_WEIGHT_PERMUTE,
    PipelineConfig,
    analyze_period,
    build_snapshot,
    config_from_sources,
    export,
    generate_synthetic_series,
    ipr,
    parse_flow_csv,
    run_timeseries,
    timeseries_from_json,
    timeseries_to_json,
)

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
    assert abs(result.gap) <= 1e-12 * result.lambda_max


def test_analyze_tiny_amounts_keep_a_positive_radius():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,1e-170\n2008-Q3,B,A,2e-170\n"
                             "2008-Q3,B,C,3e-170\n2008-Q3,C,A,4e-170")
    result = analyze_period(records, "2008-Q3", FAST)
    weights = build_snapshot(records, "2008-Q3").weights
    assert result.lambda_max == pytest.approx(
        max(abs(np.linalg.eigvals(weights))), rel=1e-8)
    assert result.null_stats.mean > 0


def test_analyze_error_keeps_period_residual_and_iterations(monkeypatch):
    import flowspectra.pipeline as pipeline_module

    def stuck(snapshot):
        raise ConvergenceError("stuck", residual=0.25, iterations=7)

    monkeypatch.setattr(pipeline_module, "leading_eigenpair", stuck)
    with pytest.raises(ConvergenceError, match="^2008-Q3: stuck$") as excinfo:
        analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", FAST)
    assert excinfo.value.residual == 0.25
    assert excinfo.value.iterations == 7


def test_analyze_weights_too_far_apart_fail_with_the_period():
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,1e200\n2008-Q3,B,A,1e-200")
    with pytest.raises(DataError, match="^2008-Q3: weights span too many orders"):
        analyze_period(records, "2008-Q3", FAST)


def test_symmetrized_mode_does_not_need_the_perron_pair(monkeypatch):
    import flowspectra.nullmodel as nullmodel_module
    import flowspectra.pipeline as pipeline_module

    def stuck(snapshot):
        raise ConvergenceError("stuck", residual=0.25, iterations=7)

    monkeypatch.setattr(pipeline_module, "leading_eigenpair", stuck)
    monkeypatch.setattr(nullmodel_module, "leading_eigenpair", stuck)
    config = PipelineConfig(seed=5, null_samples=5, spectrum_mode=MODE_SYMMETRIZED)
    result = analyze_period(parse_flow_csv(TWO_NODE), "2008-Q3", config)
    assert result.lambda_max == pytest.approx(4.0, rel=1e-10)
    assert result.null_stats.mean == pytest.approx(4.0, rel=1e-10)


def test_replica_error_keeps_period_replica_residual_and_iterations(monkeypatch):
    import flowspectra.nullmodel as nullmodel_module

    real = nullmodel_module.leading_eigenpair
    calls = []

    def stuck_on_replica_3(snapshot):
        calls.append(snapshot)
        if len(calls) == 4:
            raise ConvergenceError("stuck", residual=0.5, iterations=11)
        return real(snapshot)

    monkeypatch.setattr(nullmodel_module, "leading_eigenpair", stuck_on_replica_3)
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


def test_timeseries_gap_is_finite_everywhere():
    records = generate_synthetic_series(3, 6, 20.0, 1.0, n_periods=4, seed=21,
                                        link_prob_start=0.3)
    result = run_timeseries(records, FAST)
    assert all(math.isfinite(r.gap) for r in result.results)


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


def test_config_precedence_cli_over_file_over_defaults():
    config = config_from_sources({"seed": 3, "null_samples": 7}, {"seed": 11})
    assert config.seed == 11
    assert config.null_samples == 7
    assert config.null_mode == "link-shuffle"


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_sources({"bogus": 1}, {})
    with pytest.raises(ConfigError):
        PipelineConfig(null_samples=0)
    with pytest.raises(ConfigError):
        PipelineConfig(null_mode="scramble")
    with pytest.raises(ConfigError):
        PipelineConfig(seed=-2)


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


def test_export_json_round_trip(tmp_path):
    config = PipelineConfig(seed=8, null_samples=4, include_lambda_values=True)
    result = run_timeseries(parse_flow_csv(TWO_NODE), config)
    export(result, tmp_path)
    restored = timeseries_from_json((tmp_path / "timeseries.json").read_text())
    assert restored == result


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


def test_normalize_lambda_flag_adds_column(tmp_path):
    config = PipelineConfig(seed=5, null_samples=3, normalize_lambda=True)
    result = run_timeseries(parse_flow_csv(TWO_NODE), config)
    assert result.results[0].lambda_max_normalized == pytest.approx(
        math.sqrt(15) / 8.0, rel=1e-12)
    export(result, tmp_path)
    header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
    assert header.endswith("lambda_max_normalized")


def test_fingerprint_tracks_content():
    a = run_timeseries(parse_flow_csv(TWO_NODE), FAST)
    b = run_timeseries(parse_flow_csv(TWO_NODE + "\n2008-Q3,A,B,1"), FAST)
    assert a.fingerprint != b.fingerprint


def test_records_round_trip_preserves_equality():
    records = FlowRecordSet.from_rows([FlowRecord("2008-Q3", "A", "B", 3.0)])
    assert records == FlowRecordSet.from_rows([FlowRecord("2008-Q3", "A", "B", 3.0)])

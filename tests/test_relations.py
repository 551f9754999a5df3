"""Exact metamorphic relations over `run_timeseries`: each is compared bit for
bit, with no tolerance."""
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowspectra import (
    FlowRecordSet,
    FlowspectraError,
    MODE_LINK_SHUFFLE,
    MODE_SYMMETRIZED,
    MODE_WEIGHT_PERMUTE,
    PipelineConfig,
    analyze_period,
    build_snapshot,
    generate_synthetic_series,
    run_timeseries,
    timeseries_to_json,
)
from flowspectra import nullmodel
from flowspectra.pipeline import json_text, period_to_json
from flowspectra.spectral import MODE_DIRECTED

MODES = [(spectrum, null) for spectrum in (MODE_DIRECTED, MODE_SYMMETRIZED)
         for null in (MODE_LINK_SHUFFLE, MODE_WEIGHT_PERMUTE)]

# 5 quarters of 9 entities; every (period, reporter, counterparty) occurs once.
RECORDS = generate_synthetic_series(3, 6, 100.0, 1.0, n_periods=5, seed=21,
                                    link_prob_start=0.2, link_prob_end=0.6)


def config(spectrum_mode, null_mode):
    return PipelineConfig(seed=17, null_samples=12, spectrum_mode=spectrum_mode,
                          null_mode=null_mode)


@functools.cache
def baseline(spectrum_mode, null_mode):
    return run_timeseries(RECORDS, config(spectrum_mode, null_mode))


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def exponent_range(records):
    """The widest power-of-two exponents at which every amount, twice every
    quarter's total (`volume_share` divides by that) and every symmetrized
    sum W + W^T, and its half, stays finite and normal."""
    values = [records.amounts]
    for period in records.periods:
        weights = build_snapshot(records, period).weights
        sums = weights + weights.T
        values += [[2.0 * weights.sum()], sums.ravel(), (sums / 2.0).ravel()]
    positive = np.concatenate(values)
    positive = positive[positive > 0]
    # x = m 2**e with m in [0.5, 1): x 2**k is finite for e + k <= 1024 and
    # normal for e + k >= -1021.
    return -1021 - int(np.frexp(positive.min())[1]), 1024 - int(np.frexp(positive.max())[1])


LOWEST, HIGHEST = exponent_range(RECORDS)


@pytest.mark.parametrize("spectrum_mode, null_mode", MODES)
@settings(max_examples=10)
@given(exponent=st.integers(LOWEST, HIGHEST))
@example(exponent=LOWEST)
@example(exponent=HIGHEST)
def test_power_of_two_scaling_scales_lambda_and_the_null_exactly(spectrum_mode, null_mode,
                                                                  exponent):
    scaled_records = FlowRecordSet(RECORDS.periods, RECORDS.entities, RECORDS.period_index,
                                   RECORDS.reporter_index, RECORDS.counterparty_index,
                                   np.ldexp(RECORDS.amounts, exponent))
    base = baseline(spectrum_mode, null_mode)
    scaled = run_timeseries(scaled_records, config(spectrum_mode, null_mode))
    assert scaled.periods == base.periods
    for a, b in zip(base.results, scaled.results):
        for name in ("lambda_max", "gap", "total_volume"):
            assert bits(getattr(b, name)) == bits(np.ldexp(getattr(a, name), exponent)), name
        for name in ("lambda_values", "mean", "std", "q01", "q50", "q99"):
            expected = np.ldexp(getattr(a.null_stats, name), exponent)
            assert bits(getattr(b.null_stats, name)) == bits(expected), name
        for name in ("mean_ipr", "ipr_lambda_max", "participation", "volume_share",
                     "density", "market_mode"):
            assert bits(getattr(b, name)) == bits(getattr(a, name)), name


@pytest.mark.parametrize("spectrum_mode, null_mode", MODES)
def test_splitting_rows_in_half_changes_only_the_fingerprint(spectrum_mode, null_mode):
    keys = list(zip(RECORDS.period_index.tolist(), RECORDS.reporter_index.tolist(),
                    RECORDS.counterparty_index.tolist()))
    assert len(set(keys)) == len(keys)
    halves = [(RECORDS.periods[p], RECORDS.entities[r], RECORDS.entities[c], amount / 2)
              for (p, r, c), amount in zip(keys, RECORDS.amounts.tolist())]
    split = run_timeseries(FlowRecordSet.from_rows(halves + halves),
                           config(spectrum_mode, null_mode))
    whole = timeseries_to_json(baseline(spectrum_mode, null_mode))
    halved = timeseries_to_json(split)
    assert halved.pop("fingerprint") != whole.pop("fingerprint")
    assert halved == whole


def relabelled(names):
    """RECORDS with entity i renamed to names[i], rebuilt from its rows."""
    return FlowRecordSet.from_rows([
        (RECORDS.periods[p], names[r], names[c], amount)
        for p, r, c, amount in zip(RECORDS.period_index.tolist(), RECORDS.reporter_index.tolist(),
                                   RECORDS.counterparty_index.tolist(), RECORDS.amounts.tolist())])


@pytest.mark.parametrize("spectrum_mode, null_mode", MODES)
def test_order_preserving_relabelling_changes_only_names_and_fingerprint(spectrum_mode,
                                                                          null_mode):
    renamed = run_timeseries(relabelled(["Z" + name for name in RECORDS.entities]),
                             config(spectrum_mode, null_mode))
    whole = timeseries_to_json(baseline(spectrum_mode, null_mode))
    relabelled_json = timeseries_to_json(renamed)
    assert relabelled_json.pop("fingerprint") != whole.pop("fingerprint")
    for base, other in zip(whole["periods"], relabelled_json["periods"]):
        assert other.pop("entities") == ["Z" + name for name in base.pop("entities")]
    assert relabelled_json == whole


@pytest.mark.parametrize("spectrum_mode, null_mode", MODES)
def test_reordering_relabelling_permutes_the_perron_pair_exactly(spectrum_mode, null_mode):
    # Renaming entity i to E{order[i]} moves it to position order[i]. Every
    # quarter's entities have distinct (row max, column max) keys, so the
    # Perron solver sees one canonical matrix. The symmetrized spectrum (eigh
    # on a permuted matrix), the null draws (slots follow the entity order)
    # and the sums behind volumes and IPRs are not order-free in their bits.
    for period in RECORDS.periods:
        weights = build_snapshot(RECORDS, period).weights
        assert len(set(zip(weights.max(axis=1), weights.max(axis=0)))) == len(weights)
    order = [7, 0, 2, 1, 4, 6, 5, 3, 8]
    assert sorted(order) == list(range(len(RECORDS.entities)))
    renamed = run_timeseries(relabelled([f"E{k:02d}" for k in order]),
                             config(spectrum_mode, null_mode))
    base = baseline(spectrum_mode, null_mode)
    assert renamed.periods == base.periods
    for a, b in zip(base.results, renamed.results):
        assert b.density == a.density
        if spectrum_mode == MODE_DIRECTED:
            assert bits(b.lambda_max) == bits(a.lambda_max)
            for name in ("participation", "market_mode"):
                assert bits(np.asarray(getattr(b, name))[order]) == bits(getattr(a, name)), name


def with_a_failing_middle_quarter(records):
    """`records` with two amounts of its middle quarter set 400 orders of
    magnitude apart: no float scale keeps both positive, so its Perron
    problem fails when it joins the stack. Symmetrized mode solves no Perron
    problem, and there the quarter has a result."""
    amounts = records.amounts.copy()
    first, second = np.flatnonzero(records.period_index == len(records.periods) // 2)[:2]
    amounts[first], amounts[second] = 1e200, 1e-200
    return FlowRecordSet(records.periods, records.entities, records.period_index,
                         records.reporter_index, records.counterparty_index, amounts)


# 5 quarters of 31 entities: a quarter's matrix and 12 replicas fill 13 of the
# stack's 136 places, so every quarter joins while the previous one runs.
RECORDS_31 = with_a_failing_middle_quarter(generate_synthetic_series(
    6, 25, 100.0, 1.0, n_periods=5, seed=29, link_prob_start=0.05, link_prob_end=0.5))


@pytest.mark.parametrize("matrices_per_stack", [None, 3])
@pytest.mark.parametrize("spectrum_mode, null_mode", MODES)
def test_each_quarter_of_a_run_is_the_quarter_alone(monkeypatch, spectrum_mode, null_mode,
                                                    matrices_per_stack):
    # With room for 3 matrices a quarter's 13 join the stack in 5 parts, and
    # its replicas rank for errors in chunks of 3.
    if matrices_per_stack is not None:
        monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", matrices_per_stack * 8 * 31 ** 2)
    run_config = config(spectrum_mode, null_mode)
    run = run_timeseries(RECORDS_31, run_config)
    results, failures = [], []
    for period in RECORDS_31.periods:
        try:
            results.append(json_text(period_to_json(analyze_period(RECORDS_31, period, run_config))))
        except FlowspectraError as exc:
            failures.append((period, str(exc)))
    assert [json_text(period_to_json(r)) for r in run.results] == results
    assert list(run.failures) == failures
    if spectrum_mode == MODE_DIRECTED:
        middle = RECORDS_31.periods[2]
        assert run.failures == ((middle, f"{middle}: weights span too many orders of "
                                 "magnitude: scaled by 2**-665 into the float range, "
                                 "positive weights underflow to 0"),)
    else:
        assert len(run.results) == 5

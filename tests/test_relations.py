"""Exact metamorphic relations over `run_timeseries`: each is compared bit for
bit, with no tolerance."""
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowspectra import (
    FlowRecordSet,
    MODE_LINK_SHUFFLE,
    MODE_SYMMETRIZED,
    MODE_WEIGHT_PERMUTE,
    PipelineConfig,
    generate_synthetic_series,
    run_timeseries,
    timeseries_to_json,
)
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


# LAPACK rescales a matrix whose largest entry passes about 1e146, which moves
# eigh's bits, so the exponents keep every weight below that (98.8 * 2**400 is
# about 2.5e122) and above the subnormals.
@pytest.mark.parametrize("spectrum_mode, null_mode", MODES)
@settings(max_examples=10)
@given(exponent=st.integers(-400, 400))
@example(exponent=-400)
@example(exponent=400)
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

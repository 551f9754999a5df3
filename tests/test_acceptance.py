"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Expected values come from
independent oracles: dense eigensolvers, explicit enumeration, hand-computed
closed forms, and byte comparison of repeated runs.
"""
import math
import os
import time

import numpy as np
import pytest

from flowspectra import (
    MODE_LINK_SHUFFLE,
    MODE_WEIGHT_PERMUTE,
    NetworkSnapshot,
    PipelineConfig,
    agglomerate,
    build_snapshot,
    density,
    export,
    full_spectrum,
    generate_synthetic,
    generate_synthetic_series,
    ipr,
    leading_eigenpair,
    leaf_order,
    null_ensemble,
    parse_flow_csv,
    parse_flow_file,
    run_timeseries,
    shuffle_snapshot,
    total_volume,
    volume_share,
)

HEADER = "period,reporter,counterparty,amount"


def _passed(name: str, started: float) -> None:
    print(f"\nACCEPT {name}: PASS ({time.monotonic() - started:.2f}s)")


def test_ipr_limiting_cases():
    started = time.monotonic()
    for n in (2, 10, 31, 100):
        uniform = np.full(n, 1.0 / math.sqrt(n))
        assert abs(ipr(uniform) - n) <= 1e-10
        basis = np.zeros(n)
        basis[n // 2] = 1.0
        assert ipr(basis) == 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed("ipr-limiting-cases", started)


def test_eigen_oracle_against_dense_decomposition():
    started = time.monotonic()
    rng = np.random.default_rng(20250810)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        matrix = rng.random((n, n))
        lam, vector = leading_eigenpair(matrix)
        rho = float(np.max(np.abs(np.linalg.eigvals(matrix))))
        assert abs(lam - rho) <= 1e-8 * rho
        assert np.linalg.norm(matrix @ vector - lam * vector) <= 1e-8 * lam
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed("eigen-oracle", started)


def test_spectral_identities_on_random_symmetric_matrices():
    started = time.monotonic()
    rng = np.random.default_rng(40)
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        raw = rng.random((n, n))
        matrix = (raw + raw.T) / 2.0
        eigenvalues, eigenvectors = full_spectrum(matrix)
        trace = float(np.trace(matrix))
        frobenius_sq = float(np.sum(matrix * matrix))
        assert abs(float(eigenvalues.sum()) - trace) <= 1e-8 * abs(trace)
        assert abs(float((eigenvalues ** 2).sum()) - frobenius_sq) \
            <= 1e-8 * frobenius_sq
        gram = eigenvectors @ eigenvectors.T
        np.fill_diagonal(gram, 0.0)
        assert np.max(np.abs(gram)) <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed("spectral-identities", started)


def test_null_model_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(55)
    for trial in range(500):
        n = int(rng.integers(2, 13))
        weights = rng.random((n, n)) * (rng.random() * 1e4 + 1)
        weights[rng.random((n, n)) < rng.uniform(0.1, 0.9)] = 0.0
        np.fill_diagonal(weights, 0.0)
        if not weights.any():
            weights[0, 1] = float(rng.random() + 0.5)
        names = tuple(f"E{i:02d}" for i in range(n))
        snapshot = NetworkSnapshot("2000-Q1", names, weights)
        mode = MODE_LINK_SHUFFLE if trial % 2 == 0 else MODE_WEIGHT_PERMUTE
        seed = int(rng.integers(0, 2**63))

        shuffled = shuffle_snapshot(snapshot, seed, mode)
        original_weights = np.sort(weights[weights > 0])
        shuffled_weights = np.sort(shuffled.weights[shuffled.weights > 0])
        assert np.array_equal(original_weights, shuffled_weights)  # bitwise
        assert shuffled.edge_count == snapshot.edge_count
        assert np.all(np.diagonal(shuffled.weights) == 0.0)
        assert abs(float(shuffled.weights.sum()) - float(weights.sum())) \
            <= 1e-12 * float(weights.sum())
        replay = shuffle_snapshot(snapshot, seed, mode)
        assert np.array_equal(shuffled.weights, replay.weights)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed("null-model-exactness", started)


def test_structure_detection_against_link_shuffle_null():
    started = time.monotonic()
    detections = 0
    for trial in range(100):
        records = generate_synthetic(
            n_core=6, n_periphery=25, core_weight_scale=100.0,
            periphery_weight_scale=1.0, link_prob_pp=0.1, seed=trial)
        snapshot = build_snapshot(records, records.periods[0])
        lam, _ = leading_eigenpair(snapshot.weights)
        stats = null_ensemble(snapshot, 200, seed=10_000 + trial,
                              mode=MODE_LINK_SHUFFLE)
        if lam > stats.q99:
            detections += 1
    assert detections >= 95, f"structure detected in only {detections}/100 trials"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _passed(f"structure-detection ({detections}/100)", started)


def test_two_by_two_closed_form():
    started = time.monotonic()
    records = parse_flow_csv(f"{HEADER}\n2008-Q3,A,B,3\n2008-Q3,B,A,5")
    snapshot = build_snapshot(records, "2008-Q3")
    lam, _ = leading_eigenpair(snapshot.weights)
    assert abs(lam - math.sqrt(15)) <= 1e-12
    assert total_volume(snapshot) == 8.0
    assert density(snapshot) == 1.0
    assert volume_share(snapshot).tolist() == [50.0, 50.0]
    _passed("two-by-two-closed-form", started)


def test_upgma_hand_computed_oracle():
    started = time.monotonic()
    distances = np.array([
        [0.0, 0.1, 0.8],
        [0.1, 0.0, 0.6],
        [0.8, 0.6, 0.0],
    ])
    dendrogram = agglomerate(distances)
    assert dendrogram.merges[0].height == 0.1
    assert dendrogram.merges[1].height == (0.8 + 0.6) / 2
    assert leaf_order(dendrogram) == [0, 1, 2]
    _passed("upgma-oracle", started)


def test_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    records = generate_synthetic_series(
        n_core=6, n_periphery=25, core_weight_scale=100.0,
        periphery_weight_scale=1.0, n_periods=160, seed=7,
        link_prob_start=0.05, link_prob_end=0.5)
    assert len(records.entities) == 31
    assert len(records.periods) == 160
    config = PipelineConfig(seed=11, null_samples=100)

    run_started = time.monotonic()
    export(run_timeseries(records, config), tmp_path / "a")
    first_run = time.monotonic() - run_started
    assert first_run < 60.0, f"single run took {first_run:.1f}s"
    export(run_timeseries(records, config), tmp_path / "b")

    for name in ("timeseries.csv", "participation.csv", "timeseries.json"):
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        assert bytes_a == bytes_b, f"{name} differs between runs"
    _passed("end-to-end-determinism", started)


@pytest.mark.skipif("FLOWSPECTRA_BIS_FLOWS" not in os.environ,
                    reason="set FLOWSPECTRA_BIS_FLOWS to a converted flow CSV "
                           "to run the qualitative check")
def test_qualitative_bis_lambda_trend():
    started = time.monotonic()
    records = parse_flow_file(os.environ["FLOWSPECTRA_BIS_FLOWS"])
    config = PipelineConfig(seed=1, null_samples=25)
    result = run_timeseries(records, config)

    by_decade: dict[int, list[float]] = {}
    for period_result in result.results:
        decade = int(period_result.period[:4]) // 10
        by_decade.setdefault(decade, []).append(period_result.lambda_max)
    decades = sorted(by_decade)
    assert len(decades) >= 2, "need at least two decades for a trend"
    means = [float(np.mean(by_decade[d])) for d in decades]
    assert all(a < b for a, b in zip(means, means[1:])), \
        f"decade means not increasing: {means}"
    gaps = [r.lambda_max - r.null_stats.mean for r in result.results]
    assert float(np.mean(gaps)) > 0, "real series does not diverge above null"
    _passed("qualitative-bis-trend", started)

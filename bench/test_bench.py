"""Tests of the benchmark itself: python3 -m pytest bench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import child
import run

BENCH = Path(__file__).resolve().parent


def _fake_module():
    module = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    return module


def test_tracer_nests_spans_and_counts_calls():
    module = _fake_module()
    tracer = child.Tracer()
    tracer.install({"fake": module}, targets=(("fake", "outer", "a.outer"),
                                              ("fake", "inner", "a.inner")))
    assert module.outer(1) == 4
    assert module.outer(2) == 6
    assert tracer.calls == {"a.outer": 2, "a.inner": 2}
    assert tracer.self_time["a.outer"] <= tracer.total["a.outer"]
    nested = tracer.total["a.outer"] - tracer.self_time["a.outer"]
    assert abs(nested - tracer.total["a.inner"]) < 1e-9
    assert not tracer.missing


def test_vanished_target_makes_metric_absent_not_a_crash():
    module = _fake_module()
    tracer = child.Tracer()
    tracer.install({"fake": module}, targets=(("fake", "renamed_away", "pipeline.quarter"),
                                              ("gone_module", "x", "spectral.eigh")))
    assert tracer.missing == {"pipeline.quarter", "spectral.eigh"}
    values = run._layer_values(tracer.to_json())
    assert values["pipeline.quarter_ms.p50"] is None
    assert values["spectral.eigh_s"] is None and values["spectral.eigh_calls"] is None
    assert values["cluster.agglomerate_s"] == 0.0


def test_metric_tables_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)


def test_percentile_is_nearest_rank():
    values = [float(k) for k in range(1, 101)]
    assert run._percentile(values, 50) == 50.0
    assert run._percentile(values, 99) == 99.0
    assert run._percentile([3.0], 90) == 3.0


def test_smoke_mode_passes():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "smoke ok"


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "null-heavy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

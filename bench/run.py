"""flowspectra benchmark: end-to-end job metrics and per-layer timings.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root. Each run generates its input CSV from
`--seed` (outside the timed region), then starts fresh child processes
(bench/child.py) that each run one whole job, until `--seconds` are used.
A fixed reference kernel runs in this process between jobs, and each job's
wall and CPU time are reported relative to it (`run_rel`, `cpu_rel`), which
cancels the host's speed swings; set-up time likewise (`setup_s`, converted
back to seconds at a fixed reference speed). The raw seconds are in the
report lines.
With `--trace 0` it prints the end-to-end metrics of untraced jobs; with
`--trace 1` it alternates untraced and traced jobs and prints the
per-layer metrics of the traced ones. Every job's outputs are checked.
The last line of standard output is one JSON object; the lines before it
are a readable report with medians, quartiles and sample counts.

`--smoke` runs every workload at a tiny size in both trace modes through
the same code and checks the printed metric names and units against
BENCHMARK.json. See bench/README.md for the workloads and the prediction
table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

#: BLAS threads of every process the benchmark starts; at most nproc.
BLAS_THREADS = 1
#: The CPUs this process may use when it starts, before it pins itself.
CPUS = sorted(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Dedicated set-up samples per run, on top of one per job.
SETUP_RUNS = 4
#: A run never takes longer than this, whatever --seconds says.
RUN_DEADLINE_S = 170.0

#: Relative tolerance of the eigen oracles.
ORACLE_RTOL = 1e-8

WORKLOADS = {
    "null-heavy": {"kind": "timeseries", "n_core": 6, "n_periphery": 25,
                   "quarters": 24, "null_samples": 100},
    "wide-timeseries": {"kind": "timeseries", "n_core": 20, "n_periphery": 180,
                        "quarters": 8, "null_samples": 5},
    "wide-dendrogram": {"kind": "dendrogram", "n_core": 20, "n_periphery": 180,
                        "quarters": 3},
}

SMOKE = {
    "null-heavy": {"quarters": 3, "null_samples": 10},
    "wide-timeseries": {"n_core": 3, "n_periphery": 17, "quarters": 3},
    "wide-dendrogram": {"n_core": 3, "n_periphery": 17, "quarters": 3},
}

#: Repetitions of the reference kernel per calibration; their median counts.
REFERENCE_REPS = 5
#: Seconds of one reference kernel repetition in the fastest phase seen on
#: the 2-CPU virtual machine where the bounds were set. `setup_s` is the
#: set-up time relative to the reference kernel, converted back to seconds
#: at this speed.
REFERENCE_NOMINAL_S = 0.012

END_TO_END = {
    "run_rel": "ratio",
    "setup_s": "s",
    "cpu_rel": "ratio",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: Raw times printed in the report lines of a `--trace 0` run, not in its
#: JSON line: the host's speed swings too far between runs for a bound on them.
RAW = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_wall_s": "s",
    "reference_s": "s",
}

PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.records": "count",
    "ingest.input_mb": "MB",
    "pipeline.fingerprint_s": "s",
    "network.build_snapshot_s": "s",
    "network.build_snapshot_calls": "count",
    "network.symmetrize_s": "s",
    "network.volume_s": "s",
    "spectral.perron_s": "s",
    "spectral.eigh_s": "s",
    "spectral.eigh_calls": "count",
    "nullmodel.null_ensemble_s": "s",
    "nullmodel.shuffle_s": "s",
    "nullmodel.eigensolve_s": "s",
    "nullmodel.replicas": "count",
    "nullmodel.eigensolve_ms.p50": "ms",
    "nullmodel.eigensolve_ms.p99": "ms",
    "cluster.distance_s": "s",
    "cluster.agglomerate_s": "s",
    "cluster.leaf_order_s": "s",
    "cluster.agglomerate_calls": "count",
    "pipeline.quarter_ms.p50": "ms",
    "pipeline.quarter_ms.p90": "ms",
    "pipeline.export_s": "s",
    "pipeline.export_mb": "MB",
    "pipeline.failed_quarters": "count",
    "pipeline.run_timeseries_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


class Tally:
    """Attempted and failed units: jobs, quarters and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.add(1, 0 if ok else 1, what)
        return ok


def _spawn(mode: str, spec: dict, work: Path, deadline: float) -> dict:
    """Run one child to completion; return its result file plus rusage."""
    tag = Path(spec["result"]).stem
    with open(work / f"{tag}.stdout", "wb") as out, open(work / f"{tag}.stderr", "wb") as err:
        spawned = _now()
        proc = subprocess.Popen([sys.executable, str(CHILD), mode, json.dumps(spec)],
                                cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - _now(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    reaped = _now()
    result: dict = {}
    result_path = Path(spec["result"])
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(
        returncode=proc.returncode,
        wall=reaped - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stderr=(work / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")[-2000:],
    )
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawned
    if "done" in result:
        result["run_s"] = result["done"] - result["start"]
    return result


def _reference_kernel() -> int:
    """Fixed work that never touches flowspectra: the job's kinds of work.

    Dict and tuple churn with sorting (as in `agglomerate`), text splitting
    and float parsing (as in ingest), and small dense mat-vecs (as in the
    power iteration), 12 to 25 ms in all on a 2-CPU virtual machine.
    """
    import numpy as np

    table: dict[tuple[int, int], float] = {}
    for i in range(12000):
        key = (i % 977, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    rows = [f"2001Q{i % 4 + 1},E{i % 200:03d},E{i * 7 % 200:03d},{i * 0.25}"
            for i in range(4000)]
    total = sum(float(row.split(",")[3]) for row in rows)
    matrix = np.full((31, 31), 1.0 / 31.0)
    vector = np.ones(31)
    for _ in range(300):
        vector = matrix @ vector
        vector /= np.linalg.norm(vector)
    return len(ordered) + int(total) + int(vector.size)


def _calibrate() -> tuple[float, float]:
    """Median wall and CPU seconds of the reference kernel, measured now."""
    walls, cpus = [], []
    for _ in range(REFERENCE_REPS):
        wall, cpu = _now(), time.process_time()
        _reference_kernel()
        cpus.append(time.process_time() - cpu)
        walls.append(_now() - wall)
    return statistics.median(walls), statistics.median(cpus)


def _hash_outputs(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(out).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Output checks. The oracle matrices are built from the input CSV without
# flowspectra, and compared with numpy's dense eigensolvers.
# ---------------------------------------------------------------------------


def _oracle_matrices(csv_path: Path):
    import csv

    import numpy as np

    rows: dict[str, list[tuple[str, str, float]]] = {}
    entities: set[str] = set()
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for period, reporter, counterparty, amount in reader:
            rows.setdefault(period, []).append((reporter, counterparty, float(amount)))
            entities.update((reporter, counterparty))
    roster = sorted(entities)
    index = {code: k for k, code in enumerate(roster)}
    matrices = {}
    for period, flows in rows.items():
        weights = np.zeros((len(roster), len(roster)))
        for reporter, counterparty, amount in flows:
            weights[index[reporter], index[counterparty]] += amount
        matrices[period] = weights
    return matrices


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= ORACLE_RTOL * abs(reference)


def _check_timeseries(out: Path, matrices: dict, null_samples: int, tally: Tally) -> None:
    import numpy as np

    payload = json.loads((out / "timeseries.json").read_text(encoding="utf-8"))
    seen = {entry["period"] for entry in payload["periods"]}
    seen.update(payload["skipped"])
    seen.update(period for period, _ in payload["failures"])
    tally.check(seen == set(matrices), "timeseries.json does not cover every quarter")
    for entry in payload["periods"]:
        period = entry["period"]
        weights = matrices[period]
        radius = float(np.max(np.abs(np.linalg.eigvals(weights))))
        tally.check(_close(entry["lambda_max"], radius),
                    f"{period}: lambda_max {entry['lambda_max']!r} vs eigvals {radius!r}")
        vectors = np.linalg.eigh((weights + weights.T) / 2.0)[1]
        reference_ipr = float(np.mean(1.0 / np.sum(vectors ** 4, axis=0)))
        tally.check(_close(entry["mean_ipr"], reference_ipr),
                    f"{period}: mean_ipr {entry['mean_ipr']!r} vs eigh {reference_ipr!r}")
        null = entry["null"]
        tally.check(null["n_samples"] == null_samples,
                    f"{period}: null n_samples {null['n_samples']} != {null_samples}")
        tally.check(null["q01"] <= null["q50"] <= null["q99"],
                    f"{period}: null quantiles out of order")


def _check_dendrograms(out: Path, matrices: dict, tally: Tally) -> None:
    payload = json.loads((out / "dendrograms.json").read_text(encoding="utf-8"))
    seen = {entry["period"] for entry in payload["periods"]}
    seen.update(period for period, _ in payload["failures"])
    tally.check(seen == set(matrices), "dendrograms.json does not cover every quarter")
    for entry in payload["periods"]:
        period, n = entry["period"], entry["n_leaves"]
        heights = [merge["height"] for merge in entry["merges"]]
        tally.check(n == len(next(iter(matrices.values()))) and len(heights) == n - 1,
                    f"{period}: {len(heights)} merges for {n} leaves")
        tally.check(all(a <= b for a, b in zip(heights, heights[1:])),
                    f"{period}: merge heights decrease")
        tally.check(sorted(entry["leaf_order"]) == list(range(n)),
                    f"{period}: leaf_order is not a permutation")


def _failed_quarters(out: Path, kind: str) -> int | None:
    name = "timeseries.json" if kind == "timeseries" else "dendrograms.json"
    try:
        payload = json.loads((out / name).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return len(payload["failures"]) + len(payload.get("skipped", ()))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _layer_values(trace: dict) -> dict[str, float | None]:
    """Per-layer metrics of one traced job; None marks an absent metric."""
    missing = set(trace["missing"])
    total, calls, durations = trace["total"], trace["calls"], trace["durations"]

    def seconds(key: str) -> float | None:
        return None if key in missing else total.get(key, 0.0)

    def count(key: str) -> int | None:
        return None if key in missing else calls.get(key, 0)

    def ms(key: str, q: float) -> float | None:
        if key in missing:
            return None
        samples = durations.get(key) or []
        return 1000.0 * _percentile(samples, q) if samples else 0.0

    return {
        "ingest.parse_s": seconds("ingest.parse"),
        "ingest.records": trace["counts"].get("ingest.records"),
        "pipeline.fingerprint_s": seconds("pipeline.fingerprint"),
        "network.build_snapshot_s": seconds("network.build_snapshot"),
        "network.build_snapshot_calls": count("network.build_snapshot"),
        "network.symmetrize_s": seconds("network.symmetrize"),
        "network.volume_s": seconds("network.volume"),
        "spectral.perron_s": seconds("spectral.perron"),
        "spectral.eigh_s": seconds("spectral.eigh"),
        "spectral.eigh_calls": count("spectral.eigh"),
        "nullmodel.null_ensemble_s": seconds("nullmodel.null_ensemble"),
        "nullmodel.shuffle_s": seconds("nullmodel.shuffle"),
        "nullmodel.eigensolve_s": seconds("nullmodel.eigensolve"),
        "nullmodel.replicas": count("nullmodel.eigensolve"),
        "nullmodel.eigensolve_ms.p50": ms("nullmodel.eigensolve", 50),
        "nullmodel.eigensolve_ms.p99": ms("nullmodel.eigensolve", 99),
        "cluster.distance_s": seconds("cluster.distance"),
        "cluster.agglomerate_s": seconds("cluster.agglomerate"),
        "cluster.leaf_order_s": seconds("cluster.leaf_order"),
        "cluster.agglomerate_calls": count("cluster.agglomerate"),
        "pipeline.quarter_ms.p50": ms("pipeline.quarter", 50),
        "pipeline.quarter_ms.p90": ms("pipeline.quarter", 90),
        "pipeline.export_s": seconds("pipeline.export"),
        "pipeline.run_timeseries_s": seconds("pipeline.run_timeseries"),
        "pipeline.self_s": (None if "pipeline.run_timeseries" in missing
                            else trace["self"].get("pipeline.run_timeseries", 0.0)),
    }


def _report_shares(metrics: dict, traced_run_s: float, report) -> None:
    """Print the shares that confirm what each workload is for."""
    def value(*keys: str) -> float | None:
        if any(key not in metrics for key in keys):
            return None
        return sum(metrics[key]["value"] for key in keys)

    shares = (
        ("null_ensemble_s / run_timeseries_s",
         value("nullmodel.null_ensemble_s"), value("pipeline.run_timeseries_s")),
        ("(ingest + fingerprint + network) / run_s",
         value("ingest.parse_s", "pipeline.fingerprint_s", "network.build_snapshot_s",
               "network.symmetrize_s", "network.volume_s"), traced_run_s),
        ("agglomerate_s / run_s", value("cluster.agglomerate_s"), traced_run_s),
    )
    for label, part, whole in shares:
        if part is not None and whole:
            report(f"# share {label}: {part / whole:.3f}")


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[-1],
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, report=print) -> dict:
    """Measure one workload; return the result object printed as JSON."""
    if not (ROOT / "src" / "flowspectra" / "__init__.py").is_file():
        raise BenchError(f"no flowspectra sources under {ROOT / 'src'}")
    shape = dict(WORKLOADS[name], **(SMOKE[name] if smoke else {}))
    started = _now()
    deadline = started + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _measure(name, shape, seed, seconds, trace, smoke, work, deadline, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass


def _measure(name, shape, seed, seconds, trace, smoke, work, deadline, report) -> dict:
    input_csv = work / "flows.csv"
    gen = _spawn("gen", {**shape, "seed": seed, "input": str(input_csv),
                         "result": str(work / "gen.json")}, work, deadline)
    if gen["returncode"] != 0 or not input_csv.exists():
        raise BenchError(f"input generation failed: {gen['stderr']}")

    _reference_kernel()  # warm-up: imports and allocator
    calibrations = [_calibrate()]

    def at_nominal(seconds: float, before: tuple, after: tuple) -> float:
        return seconds * REFERENCE_NOMINAL_S / ((before[0] + after[0]) / 2.0)

    # One unmeasured start fills the bytecode cache; then dedicated samples.
    setup_walls = []
    for k in range(1 + (1 if smoke else SETUP_RUNS)):
        result = _spawn("setup", {"result": str(work / f"setup{k}.json")}, work, deadline)
        if result["returncode"] != 0 or "setup_s" not in result:
            raise BenchError(f"set-up child failed: {result['stderr']}")
        if k:
            setup_walls.append(result["setup_s"])
    calibrations.append(_calibrate())
    setups = [at_nominal(wall, *calibrations) for wall in setup_walls]

    tally = Tally()
    jobs: list[dict] = []
    first_out: Path | None = None
    first_hash = None
    window_start = _now()
    while True:
        cycle_start = _now()
        traced = trace and len(jobs) % 2 == 1
        out = work / f"out{len(jobs)}"
        spec = {"kind": shape["kind"], "input": str(input_csv), "out": str(out),
                "result": str(work / f"job{len(jobs)}.json"), "trace": traced,
                "seed": seed + 1, "null_samples": shape.get("null_samples", 0)}
        job = _spawn("job", spec, work, deadline)
        job["traced"] = traced
        jobs.append(job)
        ok = tally.check(job["returncode"] == 0 and "run_s" in job,
                         f"job {len(jobs)} exited with {job['returncode']}: {job['stderr']}")
        failed = _failed_quarters(out, shape["kind"]) if ok else None
        job["failed_quarters"] = shape["quarters"] if failed is None else failed
        tally.add(shape["quarters"], job["failed_quarters"], f"job {len(jobs)}: failed quarters")
        if ok:
            digest = _hash_outputs(out)
            if first_out is None:
                first_out, first_hash = out, digest
                job["export_mb"] = sum(p.stat().st_size for p in out.rglob("*")
                                       if p.is_file()) / 1e6
            else:
                tally.check(digest == first_hash,
                            f"job {len(jobs)}: exports differ from job 1")
        if out != first_out:
            shutil.rmtree(out, ignore_errors=True)
        # The reference kernel runs between jobs, so each job is timed
        # against the host's speed just before and just after it.
        calibrations.append(_calibrate())
        before, after = calibrations[-2], calibrations[-1]
        if "run_s" in job:
            job["run_rel"] = job["run_s"] / ((before[0] + after[0]) / 2.0)
            job["cpu_rel"] = job["cpu_s"] / ((before[1] + after[1]) / 2.0)
            job["setup_nominal_s"] = at_nominal(job["setup_s"], before, after)
        job["cycle"] = _now() - cycle_start
        elapsed = _now() - window_start
        typical = statistics.median(j["cycle"] for j in jobs)
        enough = len(jobs) >= (2 if trace else 1)
        if (enough and elapsed + typical > seconds) or _now() + typical > deadline:
            break

    if first_out is not None:
        matrices = _oracle_matrices(input_csv)
        try:
            if shape["kind"] == "timeseries":
                _check_timeseries(first_out, matrices, shape["null_samples"], tally)
            else:
                _check_dendrograms(first_out, matrices, tally)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            tally.check(False, f"exports are unreadable or malformed: {exc!r}")

    good = [j for j in jobs if "run_s" in j]
    if not good:
        raise BenchError(f"every job failed: {tally.notes}")
    untraced = [j for j in good if not j["traced"]]
    traced_jobs = [j for j in good if j["traced"]]
    setups.extend(j["setup_nominal_s"] for j in good)
    setup_walls.extend(j["setup_s"] for j in good)

    samples: dict[str, list[float]] = {"setup_s": setups}
    if trace:
        layer_samples: dict[str, list[float]] = {}
        absent: set[str] = set()
        for job in traced_jobs:
            for key, value in _layer_values(job["trace"]).items():
                if value is None:
                    absent.add(key)
                else:
                    layer_samples.setdefault(key, []).append(value)
        for key in absent:
            layer_samples.pop(key, None)
        samples.update(layer_samples)
        samples["ingest.input_mb"] = [input_csv.stat().st_size / 1e6]
        samples["pipeline.export_mb"] = [j["export_mb"] for j in good if "export_mb" in j]
        samples["pipeline.failed_quarters"] = [float(j["failed_quarters"]) for j in good]
        if traced_jobs and untraced:
            samples["trace.overhead_s"] = [
                statistics.median(j["run_s"] for j in traced_jobs)
                - statistics.median(j["run_s"] for j in untraced)]
        samples["error_rate"] = [tally.failed / tally.attempted]
        units = PER_LAYER
    else:
        for key in ("run_rel", "cpu_rel", "peak_rss_mb", "run_s", "cpu_s"):
            samples[key] = [j[key] for j in untraced]
        samples["reference_s"] = [wall for wall, _ in calibrations]
        samples["setup_wall_s"] = setup_walls
        samples["success_rate"] = [1.0 - tally.failed / tally.attempted]
        units = END_TO_END

    env = environment()
    report(f"# workload {name} seed {seed} trace {int(trace)}: {len(good)} of "
           f"{len(jobs)} jobs ok ({len(untraced)} untraced, {len(traced_jobs)} traced), "
           f"{len(setups)} set-up samples")
    report("# env " + json.dumps(env, sort_keys=True))
    report("# run_s per untraced job: " + ", ".join(f"{j['run_s']:.4f}" for j in untraced))
    metrics = {}
    for key, unit in {**units, **({} if trace else RAW)}.items():
        values = samples.get(key)
        if not values:
            report(f"# {key}: absent (its timing target is gone or was never measured)")
            continue
        median, q1, q3 = _summary(values)
        report(f"# {key}: median {median:.6g} {unit} [q1 {q1:.6g}, q3 {q3:.6g}] n={len(values)}")
        if key in units:
            metrics[key] = {"value": median, "unit": unit}
    if trace and traced_jobs:
        _report_shares(metrics, statistics.median(j["run_s"] for j in traced_jobs), report)
    for note in tally.notes:
        report(f"# FAILED: {note}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Run every workload tiny, in both trace modes; validate the output."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for name in declared["workloads"]:
        if name["name"] not in WORKLOADS:
            problems.append(f"BENCHMARK.json names unknown workload {name['name']}")
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            lines: list[str] = []
            result = run_workload(name, seed=1, seconds=0, trace=bool(trace), smoke=True,
                                  report=lines.append)
            expected = {m["name"]: m["unit"] for m in declared[section]}
            absent = {line.split(":")[0][2:] for line in lines if ": absent" in line}
            got = {key: value["unit"] for key, value in result["metrics"].items()}
            where = f"{name} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: " + "; ".join(
                    line for line in lines if line.startswith("# FAILED")))
            for key in sorted(set(got) - set(expected)):
                problems.append(f"{where}: undeclared metric {key}")
            for key in sorted(set(expected) - set(got) - absent):
                problems.append(f"{where}: metric {key} missing")
            for key in sorted(absent):
                print(f"warning: {where}: metric {key} absent")
            for key in sorted(set(got) & set(expected)):
                if got[key] != expected[key]:
                    problems.append(f"{where}: {key} unit {got[key]} != {expected[key]}")
            print(f"smoke {where}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; validate names and units")
    args = parser.parse_args(argv)
    for var in BLAS_VARS:  # before this process first imports numpy
        os.environ[var] = str(BLAS_THREADS)
    # One CPU for this process and every child: the reference kernel and
    # the jobs then run on the same core, whose speed is what they compare.
    os.sched_setaffinity(0, {CPUS[-1]})
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        if args.seed < 0:
            parser.error("--seed must be nonnegative")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark: one fresh interpreter per measured job.

Usage (started by run.py, never by hand):

    python3 bench/child.py gen   SPEC_JSON   # write the synthetic input CSV
    python3 bench/child.py setup SPEC_JSON   # import flowspectra, report readiness
    python3 bench/child.py job   SPEC_JSON   # run one workload job

`SPEC_JSON` is a JSON object; every mode writes its own JSON result to
`spec["result"]`. The readiness time is read from CLOCK_MONOTONIC, which is
system-wide on Linux, so the parent can subtract its own spawn time from it.

With `spec["trace"]` true, timing wrappers are installed on the names the
package modules import from each other (see TARGETS) before the job runs.
Nothing under src/ is edited; a target that no longer exists makes its
metric absent instead of failing the job.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_package():
    import flowspectra  # noqa: F401  (the package __init__ imports every layer)
    from flowspectra import cli
    return cli


#: (module, attribute, metric key). A metric is reported only when every one
#: of its targets could be wrapped. Each module is wrapped at the name the
#: calling module looks up at call time, so no call is counted twice.
TARGETS = (
    ("cli", "parse_flow_file", "ingest.parse"),
    ("ingest", "parse_flow_file", "ingest.parse"),
    ("pipeline", "dataset_fingerprint", "pipeline.fingerprint"),
    ("pipeline", "build_snapshot", "network.build_snapshot"),
    ("network", "build_snapshot", "network.build_snapshot"),
    ("pipeline", "symmetrize", "network.symmetrize"),
    ("network", "symmetrize", "network.symmetrize"),
    ("pipeline", "volume_share", "network.volume"),
    ("pipeline", "total_volume", "network.volume"),
    ("pipeline", "density", "network.volume"),
    ("pipeline", "leading_eigenpair", "spectral.perron"),
    ("pipeline", "full_spectrum", "spectral.eigh"),
    ("pipeline", "null_ensemble", "nullmodel.null_ensemble"),
    ("nullmodel", "shuffle_snapshot", "nullmodel.shuffle"),
    ("nullmodel", "leading_eigenpair", "nullmodel.eigensolve"),
    ("cluster", "distance_matrix", "cluster.distance"),
    ("cluster", "agglomerate", "cluster.agglomerate"),
    ("cluster", "leaf_order", "cluster.leaf_order"),
    ("pipeline", "analyze_period", "pipeline.quarter"),
    ("cli", "run_timeseries", "pipeline.run_timeseries"),
    ("cli", "export", "pipeline.export"),
)

#: Span keys whose individual call durations are kept for percentiles.
KEEP_DURATIONS = ("nullmodel.eigensolve", "pipeline.quarter")


class Tracer:
    """In-memory spans: total, self time and call count per key.

    Self time is a span's duration minus the time of the spans directly
    nested in it, so work that leaves every timed child shows up there.
    """

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {k: [] for k in KEEP_DURATIONS}
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self._stack: list[list[float]] = []

    def _record(self, key: str, elapsed: float, nested: float) -> None:
        self.total[key] = self.total.get(key, 0.0) + elapsed
        self.self_time[key] = self.self_time.get(key, 0.0) + elapsed - nested
        self.calls[key] = self.calls.get(key, 0) + 1
        if key in self.durations:
            self.durations[key].append(elapsed)

    def span(self, key: str, fn, *args, **kwargs):
        """Call `fn` inside a span named `key`."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self._record(key, elapsed, frame[0])

    def wrap(self, module, attr: str, key: str, on_result=None) -> bool:
        """Replace `module.attr` by a timed wrapper; False if it is gone.

        `on_result(tracer, result)` runs after the span closes, so what it
        records is not timed.
        """
        target = getattr(module, attr, None)
        if not callable(target):
            self.missing.add(key)
            return False

        @functools.wraps(target)
        def timed(*args, **kwargs):
            result = self.span(key, target, *args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attr, timed)
        return True

    def install(self, modules: dict, targets=TARGETS) -> None:
        for module_name, attr, key in targets:
            module = modules.get(module_name)
            if module is None:
                self.missing.add(key)
            else:
                self.wrap(module, attr, key, ON_RESULT.get(key))

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "self": self.self_time,
            "calls": self.calls,
            "durations": self.durations,
            "counts": self.counts,
            "missing": sorted(self.missing),
        }


def _package_modules() -> dict:
    modules = {}
    for name in ("cli", "ingest", "network", "spectral", "nullmodel", "cluster", "pipeline"):
        try:
            modules[name] = importlib.import_module(f"flowspectra.{name}")
        except ImportError:
            pass
    return modules


def _count_records(tracer: Tracer, records) -> None:
    """Record how many records the ingest layer returned (a count)."""
    try:
        tracer.counts["ingest.records"] = len(records)
    except TypeError:
        pass


ON_RESULT = {"ingest.parse": _count_records}


def _run_timeseries(spec: dict, cli) -> int:
    argv = ["timeseries", "--input", spec["input"], "--out", spec["out"],
            "--seed", str(spec["seed"]), "--null-samples", str(spec["null_samples"]),
            "--workers", "1"]
    return cli.main(argv)


def _run_dendrogram(spec: dict, tracer: Tracer | None) -> int:
    """Parse once, then cluster every quarter and write one JSON export."""
    from flowspectra import cluster, ingest, network
    from flowspectra.errors import FlowspectraError

    records = ingest.parse_flow_file(spec["input"])
    periods, failures = [], []
    for period in records.periods:
        try:
            snapshot = network.build_snapshot(records, period)
            dendrogram = cluster.agglomerate(
                cluster.distance_matrix(network.symmetrize(snapshot)), "average")
            payload = cluster.dendrogram_to_json(dendrogram, snapshot.entities)
        except FlowspectraError as exc:
            failures.append([period, str(exc)])
            continue
        payload["period"] = period
        periods.append(payload)

    def write() -> None:
        out = Path(spec["out"])
        out.mkdir(parents=True, exist_ok=True)
        text = json.dumps({"periods": periods, "failures": failures}, indent=2) + "\n"
        (out / "dendrograms.json").write_text(text, encoding="utf-8", newline="\n")

    if tracer is None:
        write()
    else:
        tracer.span("pipeline.export", write)
    return 0


def _gen(spec: dict) -> int:
    from flowspectra.ingest import generate_synthetic_series, write_flow_file
    records = generate_synthetic_series(
        n_core=spec["n_core"], n_periphery=spec["n_periphery"],
        core_weight_scale=100.0, periphery_weight_scale=1.0,
        n_periods=spec["quarters"], seed=spec["seed"],
        link_prob_start=0.05, link_prob_end=0.5)
    write_flow_file(records, spec["input"])
    return 0


def main(argv: list[str]) -> int:
    mode, spec = argv[1], json.loads(argv[2])
    if mode == "gen":
        return _gen(spec)
    cli = _import_package()
    ready = _now()
    result: dict = {"ready": ready}
    code = 0
    if mode == "job":
        tracer = None
        if spec["trace"]:
            tracer = Tracer()
            tracer.install(_package_modules())
        start = _now()
        if spec["kind"] == "timeseries":
            code = _run_timeseries(spec, cli)
        else:
            code = _run_dendrogram(spec, tracer)
        result.update(start=start, done=_now())
        if tracer is not None:
            result["trace"] = tracer.to_json()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))

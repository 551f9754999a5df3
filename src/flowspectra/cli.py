"""Command-line interface: `build_parser` declares the six subcommands and
the flags each one reads.

Exit codes: 0 success, 1 data error, 2 numerical non-convergence,
3 I/O or configuration error (including bad command lines).
"""
from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .cluster import LINKAGES, agglomerate, dendrogram_to_json, distance_matrix, to_newick
from .errors import ConfigError, ConvergenceError, DataError
from .ingest import (
    convert_bis_file,
    flow_csv_chunks,
    generate_synthetic_series,
    load_bis_mapping,
    parse_flow_file,
    read_utf8,
    write_text,
)
from .network import build_snapshot, snapshot_to_flow_csv, symmetrize
from .nullmodel import SHUFFLE_MODES, shuffle_snapshot
from .pipeline import (
    PipelineConfig,
    analyze_period,
    export,
    json_text,
    null_seed,
    period_to_json,
    run_timeseries,
)
from .spectral import SPECTRUM_MODES

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems as ConfigError (exit 3)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowspectra",
                     description="Spectral and null-model analysis of "
                                 "bilateral flow networks")
    commands = parser.add_subparsers(dest="command", required=True)
    # Each flag that several subcommands read is declared once, in a parent
    # parser that those subcommands take through `parents=`; `--help` lists a
    # subcommand's parent flags before its own. `main` calls the handler that
    # each subcommand binds as `run`.
    flow_input, seed, out, null_mode, analysis, period = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    flow_input.add_argument("--input", required=True, help="flow CSV file")
    seed.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    out.add_argument("--out", help="output directory")
    null_mode.add_argument("--null-mode", choices=SHUFFLE_MODES, default=None,
                           help="null model: reassign links or permute weights")
    analysis.add_argument("--null-samples", type=int, default=None,
                          help="shuffled replicas per period (default 100)")
    analysis.add_argument("--spectrum-mode", choices=SPECTRUM_MODES, default=None,
                          help="matrix used for lambda_max and the market mode")
    period.add_argument("--period", required=True, help="quarter label, e.g. 2008-Q3")

    commands.add_parser("analyze", parents=[flow_input, seed, out, null_mode, analysis, period],
                        help="analyze one period").set_defaults(run=_cmd_analyze)

    timeseries = commands.add_parser("timeseries", parents=[flow_input, seed, null_mode, analysis],
                                     help="analyze every period")
    timeseries.add_argument("--out", required=True, help="output directory")
    # Accepted and ignored: periods always run serially, but existing
    # scripts still pass this flag.
    timeseries.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)
    timeseries.set_defaults(run=_cmd_timeseries)

    shuffle = commands.add_parser("shuffle", parents=[flow_input, seed, out, null_mode, period],
                                  help="emit one replica of a period's null as flow CSV")
    shuffle.add_argument("--replica", type=int, default=0,
                         help="which replica of the period's null to write (default 0)")
    shuffle.set_defaults(run=_cmd_shuffle)

    dendro = commands.add_parser("dendrogram", parents=[flow_input, out, period],
                                 help="cluster one period's symmetrized matrix")
    dendro.add_argument("--linkage", choices=LINKAGES, default="average")
    dendro.add_argument("--format", choices=("json", "newick"), default="json")
    dendro.set_defaults(run=_cmd_dendrogram)

    synth = commands.add_parser("synth", parents=[seed, out], help="generate a synthetic dataset")
    synth.add_argument("--n-core", type=int, default=6)
    synth.add_argument("--n-periphery", type=int, default=25)
    synth.add_argument("--core-scale", type=float, default=100.0)
    synth.add_argument("--periphery-scale", type=float, default=1.0)
    synth.add_argument("--link-prob", type=float, default=0.1,
                       help="periphery-periphery link probability")
    synth.add_argument("--link-prob-end", type=float, default=None,
                       help="ramp the link probability to this final value")
    synth.add_argument("--periods", type=int, default=1)
    synth.add_argument("--start-period", default="2000-Q1")
    synth.set_defaults(run=_cmd_synth)

    convert = commands.add_parser("convert-bis", parents=[out],
                                  help="convert a raw locational-statistics extract")
    convert.add_argument("--input", required=True, help="raw CSV extract")
    convert.add_argument("--mapping", required=True, help="column mapping (JSON file)")
    convert.set_defaults(run=_cmd_convert_bis)

    return parser


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    # Each config key's flag has the key as its dest; a flag not given, or one
    # the subcommand lacks, leaves the key at its default.
    return PipelineConfig(**{
        key: getattr(args, key) for key in PipelineConfig.__dataclass_fields__
        if getattr(args, key, None) is not None})


def _emit(chunks: Iterable[str], out_dir: str | None, filename: str) -> None:
    """Write `chunks` to stdout, or to `filename` under `out_dir` and print its path."""
    if out_dir is None:
        sys.stdout.writelines(chunks)
        return
    path = Path(out_dir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, chunks)
    print(path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _build_config(args)
    records = parse_flow_file(args.input)
    result = analyze_period(records, args.period, config)
    _emit((json_text(period_to_json(result)),), args.out, f"period_{args.period}.json")
    return 0


def _cmd_timeseries(args: argparse.Namespace) -> int:
    config = _build_config(args)
    records = parse_flow_file(args.input)
    for path in export(run_timeseries(records, config), args.out):
        print(path)
    return 0


def _cmd_shuffle(args: argparse.Namespace) -> int:
    if args.replica < 0:
        raise ConfigError("--replica must be a nonnegative integer")
    config = _build_config(args)
    records = parse_flow_file(args.input)
    snapshot = build_snapshot(records, args.period)
    surrogate = shuffle_snapshot(snapshot, null_seed(records, args.period, config.seed),
                                 config.null_mode, args.replica)
    _emit((snapshot_to_flow_csv(surrogate),), args.out, f"shuffle_{args.period}.csv")
    return 0


def _cmd_dendrogram(args: argparse.Namespace) -> int:
    records = parse_flow_file(args.input)
    snapshot = build_snapshot(records, args.period)
    sym = symmetrize(snapshot)
    dendrogram = agglomerate(distance_matrix(sym), args.linkage)
    if args.format == "newick":
        text = to_newick(dendrogram, snapshot.entities) + "\n"
        suffix = "newick"
    else:
        payload = dendrogram_to_json(dendrogram, snapshot.entities)
        payload["period"] = snapshot.period
        payload["linkage"] = args.linkage
        text = json_text(payload)
        suffix = "json"
    _emit((text,), args.out, f"dendrogram_{args.period}.{suffix}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _build_config(args)
    # Every check the generator makes is on a flag's value: a bad command line.
    try:
        records = generate_synthetic_series(
            n_core=args.n_core,
            n_periphery=args.n_periphery,
            core_weight_scale=args.core_scale,
            periphery_weight_scale=args.periphery_scale,
            n_periods=args.periods,
            seed=config.seed,
            link_prob_start=args.link_prob,
            link_prob_end=args.link_prob_end,
            start_period=args.start_period,
        )
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    _emit(flow_csv_chunks(records), args.out, "flows.csv")
    return 0


def _cmd_convert_bis(args: argparse.Namespace) -> int:
    text = read_utf8(args.mapping)
    try:
        mapping = load_bis_mapping(text)
    except ConfigError as exc:
        raise ConfigError(f"{args.mapping}: {exc}") from None
    conversion = convert_bis_file(args.input, mapping)
    logger.info("converted=%d filtered=%d dropped=%d reasons=%s",
                conversion.converted, conversion.filtered, conversion.dropped,
                dict(conversion.drop_reasons))
    _emit(flow_csv_chunks(conversion.records), args.out, "flows.csv")
    return 0


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread unless OPENBLAS_NUM_THREADS
    or OMP_NUM_THREADS chooses a count: its calls here act on N x N
    matrices, too small for a second thread to pay. A BLAS without this
    setter is left as it is."""
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    from numpy.linalg import _umath_linalg
    setter = getattr(ctypes.CDLL(_umath_linalg.__file__),
                     "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        setter(1)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s",
                        stream=sys.stderr)
    _one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except DataError as exc:
        logger.error("data error: %s", exc)
        return 1
    except ConvergenceError as exc:
        logger.error("numerical non-convergence: %s", exc)
        return 2
    except (ConfigError, OSError) as exc:
        logger.error("config/IO error: %s", exc)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

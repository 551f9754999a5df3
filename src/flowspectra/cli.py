"""Command-line interface.

Subcommands: analyze (one period), timeseries (all periods), shuffle (emit
one surrogate), dendrogram (per-period tree and leaf order), synth
(generate a synthetic dataset), convert-bis (run the converter).

Exit codes: 0 success, 1 data error, 2 numerical non-convergence,
3 I/O or configuration error (including bad command lines).
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .cluster import LINKAGES, agglomerate, dendrogram_to_json, distance_matrix, to_newick
from .errors import ConfigError, ConvergenceError, DataError
from .ingest import (
    convert_bis_file,
    generate_synthetic_series,
    load_bis_mapping_file,
    parse_flow_file,
    serialize_flow_csv,
)
from .network import (
    VOLUME_MODES,
    build_snapshot,
    snapshot_to_dot,
    snapshot_to_flow_csv,
    snapshot_to_json,
    symmetrize,
)
from .nullmodel import SHUFFLE_MODES, shuffle_snapshot
from .pipeline import (
    EXPORT_FORMATS,
    PipelineConfig,
    analyze_period,
    config_from_sources,
    export,
    period_to_json,
    run_timeseries,
)
from .spectral import SPECTRUM_MODES

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems as ConfigError (exit 3)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser, *, needs_input: bool = True,
                null_mode: bool = True, analysis: bool = True) -> None:
    """Add --input, --config, --seed and --out, and the config flags that the
    subcommand reads: --null-mode, and the analysis flags."""
    if needs_input:
        sub.add_argument("--input", required=True, help="flow CSV file")
    sub.add_argument("--config", help="JSON config file (CLI flags override it)")
    sub.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    sub.add_argument("--out", help="output directory")
    if null_mode:
        sub.add_argument("--null-mode", choices=SHUFFLE_MODES, default=None,
                         help="null model: reassign links or permute weights")
    if not analysis:
        return
    sub.add_argument("--null-samples", type=int, default=None,
                     help="shuffled replicas per period (default 100)")
    sub.add_argument("--spectrum-mode", choices=SPECTRUM_MODES, default=None,
                     help="matrix used for lambda_max and the market mode")
    sub.add_argument("--volume-mode", choices=VOLUME_MODES, default=None,
                     help="volume share counts lending, borrowing, or both")
    sub.add_argument("--normalize-lambda", action="store_true", default=None,
                     help="also emit lambda_max divided by total volume")
    sub.add_argument("--include-lambda-values", action="store_true", default=None,
                     help="include raw null lambda values in JSON exports")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowspectra",
                     description="Spectral and null-model analysis of "
                                 "bilateral flow networks")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="analyze one period")
    _add_common(analyze)
    analyze.add_argument("--period", required=True, help="quarter label, e.g. 2008-Q3")

    timeseries = commands.add_parser("timeseries", help="analyze every period")
    _add_common(timeseries)
    timeseries.add_argument("--format", choices=EXPORT_FORMATS, default=None,
                            help="restrict outputs to one format (default: both)")
    # Accepted and ignored: periods always run serially, but existing
    # scripts still pass this flag.
    timeseries.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)

    shuffle = commands.add_parser("shuffle", help="emit one shuffled surrogate")
    _add_common(shuffle, analysis=False)
    shuffle.add_argument("--period", required=True)
    shuffle.add_argument("--format", choices=("json", "dot", "csv"), default="json")

    dendro = commands.add_parser("dendrogram",
                                 help="cluster one period's symmetrized matrix")
    dendro.add_argument("--input", required=True, help="flow CSV file")
    dendro.add_argument("--out", help="output directory")
    dendro.add_argument("--period", required=True)
    dendro.add_argument("--linkage", choices=LINKAGES, default="average")
    dendro.add_argument("--format", choices=("json", "newick"), default="json")

    synth = commands.add_parser("synth", help="generate a synthetic dataset")
    _add_common(synth, needs_input=False, null_mode=False, analysis=False)
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

    convert = commands.add_parser("convert-bis",
                                  help="convert a raw locational-statistics extract")
    convert.add_argument("--input", required=True, help="raw CSV extract")
    convert.add_argument("--mapping", required=True,
                         help="column mapping (JSON or key=value file)")
    convert.add_argument("--out", help="output directory")

    return parser


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    file_values = None
    if getattr(args, "config", None):
        file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
    # Each config key's flag has the key as its dest; a subcommand without
    # the flag leaves the key to the config file or the default.
    overrides = {key: getattr(args, key, None) for key in PipelineConfig.__dataclass_fields__}
    return config_from_sources(file_values, overrides)


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    path = Path(out_dir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    print(path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _build_config(args)
    records = parse_flow_file(args.input)
    result = analyze_period(records, args.period, config)
    payload = period_to_json(result, config.include_lambda_values)
    _emit(json.dumps(payload, indent=2) + "\n", args.out, f"period_{args.period}.json")
    return 0


def _cmd_timeseries(args: argparse.Namespace) -> int:
    if not args.out:
        raise ConfigError("timeseries requires --out")
    config = _build_config(args)
    records = parse_flow_file(args.input)
    result = run_timeseries(records, config)
    formats = EXPORT_FORMATS if args.format is None else (args.format,)
    for path in export(result, args.out, formats):
        print(path)
    return 0


def _cmd_shuffle(args: argparse.Namespace) -> int:
    config = _build_config(args)
    records = parse_flow_file(args.input)
    snapshot = build_snapshot(records, args.period)
    surrogate = shuffle_snapshot(snapshot, config.seed, config.null_mode)
    if args.format == "json":
        text = json.dumps(snapshot_to_json(surrogate), indent=2) + "\n"
    elif args.format == "dot":
        text = snapshot_to_dot(surrogate)
    else:
        text = snapshot_to_flow_csv(surrogate)
    _emit(text, args.out, f"shuffle_{args.period}.{args.format}")
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
        text = json.dumps(payload, indent=2) + "\n"
        suffix = "json"
    _emit(text, args.out, f"dendrogram_{args.period}.{suffix}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _build_config(args)
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
    _emit(serialize_flow_csv(records), args.out, "flows.csv")
    return 0


def _cmd_convert_bis(args: argparse.Namespace) -> int:
    mapping = load_bis_mapping_file(args.mapping)
    conversion = convert_bis_file(args.input, mapping)
    logger.info("converted=%d filtered=%d dropped=%d reasons=%s",
                conversion.converted, conversion.filtered, conversion.dropped,
                dict(conversion.drop_reasons))
    _emit(serialize_flow_csv(conversion.records), args.out, "flows.csv")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "timeseries": _cmd_timeseries,
    "shuffle": _cmd_shuffle,
    "dendrogram": _cmd_dendrogram,
    "synth": _cmd_synth,
    "convert-bis": _cmd_convert_bis,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except DataError as exc:
        logger.error("data error: %s", exc)
        return 1
    except ConvergenceError as exc:
        logger.error("numerical non-convergence: %s", exc)
        return 2
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        logger.error("config/IO error: %s", exc)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

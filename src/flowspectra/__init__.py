"""Spectral and null-model analysis of weighted directed bilateral-flow
networks: per-period eigen decompositions, market-mode extraction, inverse
participation ratios, shuffled null ensembles, participation-vs-volume
tables, and dendrogram clustering."""

from .cluster import (
    Dendrogram,
    Merge,
    agglomerate,
    dendrogram_to_json,
    distance_matrix,
    leaf_order,
    to_newick,
)
from .errors import ConfigError, ConvergenceError, DataError, FlowspectraError
from .ingest import (
    BisMapping,
    FlowRecord,
    FlowRecordSet,
    convert_bis_lbs,
    derive_seed,
    generate_synthetic,
    generate_synthetic_series,
    load_bis_mapping,
    parse_flow_csv,
    parse_flow_file,
    serialize_flow_csv,
)
from .network import (
    NetworkSnapshot,
    build_snapshot,
    density,
    snapshot_to_dot,
    snapshot_to_flow_csv,
    snapshot_to_json,
    symmetrize,
    total_volume,
    volume_share,
)
from .nullmodel import (
    MODE_LINK_SHUFFLE,
    MODE_WEIGHT_PERMUTE,
    null_ensemble,
    shuffle_snapshot,
)
from .pipeline import (
    PipelineConfig,
    analyze_period,
    config_from_sources,
    export,
    run_timeseries,
    timeseries_from_json,
    timeseries_to_json,
)
from .spectral import (
    MODE_SYMMETRIZED,
    full_spectrum,
    ipr,
    leading_eigenpair,
    participation_percent,
)

__version__ = "0.1.0"

__all__ = [
    "BisMapping",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "Dendrogram",
    "FlowRecord",
    "FlowRecordSet",
    "FlowspectraError",
    "MODE_LINK_SHUFFLE",
    "MODE_SYMMETRIZED",
    "MODE_WEIGHT_PERMUTE",
    "Merge",
    "NetworkSnapshot",
    "PipelineConfig",
    "agglomerate",
    "analyze_period",
    "build_snapshot",
    "config_from_sources",
    "convert_bis_lbs",
    "dendrogram_to_json",
    "density",
    "derive_seed",
    "distance_matrix",
    "export",
    "full_spectrum",
    "generate_synthetic",
    "generate_synthetic_series",
    "ipr",
    "leading_eigenpair",
    "leaf_order",
    "load_bis_mapping",
    "null_ensemble",
    "parse_flow_csv",
    "parse_flow_file",
    "participation_percent",
    "run_timeseries",
    "serialize_flow_csv",
    "shuffle_snapshot",
    "snapshot_to_dot",
    "snapshot_to_flow_csv",
    "snapshot_to_json",
    "symmetrize",
    "timeseries_from_json",
    "timeseries_to_json",
    "to_newick",
    "total_volume",
    "volume_share",
]

import flowspectra
import flowspectra.ingest
import flowspectra.network

PUBLIC_NAMES = [
    "BisMapping",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "Dendrogram",
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
    "snapshot_to_flow_csv",
    "symmetrize",
    "timeseries_to_json",
    "to_newick",
    "total_volume",
    "volume_share",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 42
    assert sorted(flowspectra.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(flowspectra, name), name


def test_removed_names_stay_removed():
    for name in ("FlowRecord", "config_from_sources", "snapshot_to_dot", "snapshot_to_json",
                 "timeseries_from_json"):
        assert not hasattr(flowspectra, name), name
    assert not hasattr(flowspectra.network, "VOLUME_MODES")
    assert not hasattr(flowspectra.ingest, "DEFAULT_SYNTHETIC_PERIOD")

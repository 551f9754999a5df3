import json

import pytest

from flowspectra import ConvergenceError, parse_flow_file
from flowspectra.cli import main

HEADER = "period,reporter,counterparty,amount"
TWO_NODE = f"{HEADER}\n2008-Q3,A,B,3\n2008-Q3,B,A,5\n"


@pytest.fixture
def flows_csv(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(TWO_NODE)
    return path


def test_synth_writes_parseable_dataset(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--periods", "3", "--n-core", "2", "--n-periphery", "2",
                 "--seed", "4", "--out", str(out)])
    assert code == 0
    records = parse_flow_file(out / "flows.csv")
    assert len(records.periods) == 3
    assert len(records.entities) == 4


def test_synth_to_stdout(capsys):
    assert main(["synth", "--periods", "1", "--n-core", "2",
                 "--n-periphery", "0", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(HEADER)


def test_analyze_prints_period_json(flows_csv, capsys):
    code = main(["analyze", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--null-samples", "4", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["period"] == "2008-Q3"
    assert payload["total_volume"] == 8.0
    assert payload["null"]["n_samples"] == 4


def test_analyze_unknown_period_is_data_error(flows_csv):
    assert main(["analyze", "--input", str(flows_csv),
                 "--period", "1990-Q1", "--null-samples", "2"]) == 1


def test_missing_input_file_is_io_error(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "nope.csv"),
                 "--period", "2008-Q3"]) == 3


def test_bad_usage_is_config_error():
    assert main(["analyze"]) == 3
    assert main(["timeseries", "--input", "x.csv", "--format", "yaml"]) == 3
    assert main(["bogus-command"]) == 3


def test_flags_a_command_ignores_are_rejected(flows_csv):
    assert main(["dendrogram", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--null-samples", "5"]) == 3
    assert main(["analyze", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--workers", "1"]) == 3


def test_synth_and_shuffle_reject_flags_they_ignore(flows_csv):
    assert main(["synth", "--periods", "1", "--null-samples", "5"]) == 3
    assert main(["synth", "--periods", "1", "--null-mode", "weight-permute"]) == 3
    shuffle = ["shuffle", "--input", str(flows_csv), "--period", "2008-Q3"]
    assert main([*shuffle, "--volume-mode", "out"]) == 3
    assert main([*shuffle, "--spectrum-mode", "symmetrized"]) == 3
    assert main([*shuffle, "--null-mode", "weight-permute", "--seed", "2"]) == 0


def test_timeseries_requires_out(flows_csv):
    assert main(["timeseries", "--input", str(flows_csv)]) == 3


def test_timeseries_writes_and_is_byte_identical(flows_csv, tmp_path):
    args = ["timeseries", "--input", str(flows_csv), "--seed", "6",
            "--null-samples", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("timeseries.csv", "participation.csv", "timeseries.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_workers_flag_is_accepted_but_hidden(flows_csv, tmp_path, capsys):
    assert main(["timeseries", "--input", str(flows_csv), "--null-samples", "2",
                 "--workers", "4", "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit):
        main(["timeseries", "--help"])
    assert "--workers" not in capsys.readouterr().out


def test_timeseries_format_filter(flows_csv, tmp_path):
    out = tmp_path / "only_json"
    assert main(["timeseries", "--input", str(flows_csv), "--null-samples", "2",
                 "--format", "json", "--out", str(out)]) == 0
    assert (out / "timeseries.json").exists()
    assert not (out / "timeseries.csv").exists()


def test_shuffle_formats(flows_csv, capsys):
    assert main(["shuffle", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(map(sorted, payload["weights"])) in ([[0.0, 3.0], [0.0, 5.0]],
                                                       [[0.0, 5.0], [0.0, 3.0]])

    assert main(["shuffle", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--seed", "1", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith('digraph "2008-Q3"')

    assert main(["shuffle", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--seed", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith(HEADER)


def test_dendrogram_json_and_newick(flows_csv, capsys):
    assert main(["dendrogram", "--input", str(flows_csv),
                 "--period", "2008-Q3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ordered_entities"] == ["A", "B"]
    assert payload["linkage"] == "average"

    assert main(["dendrogram", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--format", "newick"]) == 0
    text = capsys.readouterr().out.strip()
    assert text.startswith("(") and text.endswith(";")


def test_convert_bis_subcommand(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "TIME_PERIOD,REP,CP,VAL,MEASURE\n"
        "2008-Q3,us,gb,5,S\n"
        "2008-Q3,us,gb,7,S\n"
        "2008Q4,us,fr,3,S\n"
        "2008-Q3,us,jp,,S\n"
        "2008-Q3,us,de,4,N\n"
    )
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({
        "period": "TIME_PERIOD", "reporter": "REP", "counterparty": "CP",
        "value": "VAL", "filters": {"MEASURE": "S"},
    }))
    assert main(["convert-bis", "--input", str(raw), "--mapping", str(mapping)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0] == HEADER
    assert "2008-Q3,US,GB,12.0" in out_lines
    assert "2008-Q4,US,FR,3.0" in out_lines
    assert len(out_lines) == 3


def test_convert_bis_keyvalue_mapping(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("P,R,C,V\n2008-Q3,US,GB,5\n")
    mapping = tmp_path / "mapping.txt"
    mapping.write_text("period=P\nreporter=R\ncounterparty=C\nvalue=V\n")
    assert main(["convert-bis", "--input", str(raw), "--mapping", str(mapping)]) == 0
    assert "2008-Q3,US,GB,5.0" in capsys.readouterr().out


def test_config_file_with_cli_override(flows_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "null_samples": 2}))
    out = tmp_path / "run"
    assert main(["timeseries", "--input", str(flows_csv), "--config", str(config),
                 "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "timeseries.json").read_text())
    assert payload["config"]["seed"] == 9
    assert payload["config"]["null_samples"] == 2


def test_convergence_error_maps_to_exit_2(flows_csv, monkeypatch):
    import flowspectra.cli as cli_module

    def explode(*args, **kwargs):
        raise ConvergenceError("stuck", residual=1.0, iterations=10)

    monkeypatch.setattr(cli_module, "analyze_period", explode)
    assert main(["analyze", "--input", str(flows_csv), "--period", "2008-Q3"]) == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0

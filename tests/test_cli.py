import argparse
import ctypes
import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flowspectra
from flowspectra import (
    ConvergenceError,
    PipelineConfig,
    build_snapshot,
    generate_synthetic_series,
    leading_eigenpair,
    parse_flow_file,
    serialize_flow_csv,
)
from flowspectra import cli
from flowspectra.cli import build_parser, main
from flowspectra.spectral import MODE_SYMMETRIZED, SPECTRUM_MODES, symmetric_lambda_max

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


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_synth_and_convert_bis_write_the_serialized_csv(tmp_path, capsys, to_file):
    records = generate_synthetic_series(6, 60, 100.0, 1.0, n_periods=2, seed=3,
                                        link_prob_start=0.5, start_period="2000-Q1")
    expected = serialize_flow_csv(records).encode()
    assert expected.count(b"\n") > 1 + 4096  # the rows span more than one chunk
    (tmp_path / "raw.csv").write_bytes(expected)
    (tmp_path / "mapping.json").write_text(json.dumps(
        {"period": "period", "reporter": "reporter", "counterparty": "counterparty",
         "value": "amount"}))
    commands = {
        "synth": ["synth", "--periods", "2", "--n-core", "6", "--n-periphery", "60",
                  "--link-prob", "0.5", "--seed", "3"],
        "convert": ["convert-bis", "--input", str(tmp_path / "raw.csv"),
                    "--mapping", str(tmp_path / "mapping.json")],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)] if to_file else argv) == 0
        printed = capsys.readouterr().out.encode()
        assert ((out / "flows.csv").read_bytes() if to_file else printed) == expected


@pytest.mark.parametrize("argv, filename", [
    (["analyze", "--null-samples", "5", "--seed", "2"], "period_2008-Q4.json"),
    (["shuffle", "--replica", "3", "--seed", "2"], "shuffle_2008-Q4.csv"),
    (["dendrogram"], "dendrogram_2008-Q4.json"),
    (["dendrogram", "--format", "newick"], "dendrogram_2008-Q4.newick"),
], ids=["analyze", "shuffle", "dendrogram-json", "dendrogram-newick"])
def test_stdout_and_out_get_the_same_bytes(tmp_path, capsys, argv, filename):
    assert main(["synth", "--periods", "2", "--n-core", "3", "--n-periphery", "6",
                 "--link-prob", "0.3", "--start-period", "2008-Q3", "--seed", "9",
                 "--out", str(tmp_path)]) == 0
    run = [*argv, "--input", str(tmp_path / "flows.csv"), "--period", "2008-Q4"]
    capsys.readouterr()
    assert main(run) == 0
    printed = capsys.readouterr().out.encode()
    assert main([*run, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'out' / filename}\n"
    assert (tmp_path / "out" / filename).read_bytes() == printed


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


# Every flag of every subcommand: option, dest, type, default, choices,
# required, help. `--workers` is accepted and hidden.
MODES = {"null": ("link-shuffle", "weight-permute"),
         "spectrum": ("directed-perron", "symmetrized")}
INPUT = ("--input", "input", None, None, None, True, "flow CSV file")
SEED = ("--seed", "seed", int, None, None, False, "master seed (default 0)")
OUT = ("--out", "out", None, None, None, False, "output directory")
NULL_MODE = ("--null-mode", "null_mode", None, None, MODES["null"], False,
             "null model: reassign links or permute weights")
NULL_SAMPLES = ("--null-samples", "null_samples", int, None, None, False,
                "shuffled replicas per period (default 100)")
SPECTRUM_MODE = ("--spectrum-mode", "spectrum_mode", None, None, MODES["spectrum"], False,
                 "matrix used for lambda_max and the market mode")
PERIOD = ("--period", "period", None, None, None, True, "quarter label, e.g. 2008-Q3")
CLI_SURFACE = {
    "analyze": [INPUT, SEED, OUT, NULL_MODE, NULL_SAMPLES, SPECTRUM_MODE, PERIOD],
    # `timeseries` writes three files, so it needs a directory.
    "timeseries": [INPUT, SEED, ("--out", "out", None, None, None, True, "output directory"),
                   NULL_MODE, NULL_SAMPLES, SPECTRUM_MODE,
                   ("--workers", "workers", int, None, None, False, argparse.SUPPRESS)],
    "shuffle": [INPUT, SEED, OUT, NULL_MODE, PERIOD,
                ("--replica", "replica", int, 0, None, False,
                 "which replica of the period's null to write (default 0)")],
    "dendrogram": [INPUT, OUT, PERIOD,
                   ("--linkage", "linkage", None, "average", ("average", "single", "complete"),
                    False, None),
                   ("--format", "format", None, "json", ("json", "newick"), False, None)],
    "synth": [SEED, OUT,
              ("--n-core", "n_core", int, 6, None, False, None),
              ("--n-periphery", "n_periphery", int, 25, None, False, None),
              ("--core-scale", "core_scale", float, 100.0, None, False, None),
              ("--periphery-scale", "periphery_scale", float, 1.0, None, False, None),
              ("--link-prob", "link_prob", float, 0.1, None, False,
               "periphery-periphery link probability"),
              ("--link-prob-end", "link_prob_end", float, None, None, False,
               "ramp the link probability to this final value"),
              ("--periods", "periods", int, 1, None, False, None),
              ("--start-period", "start_period", None, "2000-Q1", None, False, None)],
    "convert-bis": [("--input", "input", None, None, None, True, "raw CSV extract"),
                    ("--mapping", "mapping", None, None, None, True,
                     "column mapping (JSON file)"),
                    OUT],
}


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_every_flag_of_every_subcommand_is_pinned():
    parsers = subcommand_parsers()
    assert list(parsers) == list(CLI_SURFACE)
    for command, rows in CLI_SURFACE.items():
        flags = {action.option_strings[0]: (
            action.option_strings[0], action.dest, action.type, action.default,
            action.choices, action.required, action.help)
            for action in parsers[command]._actions
            if not isinstance(action, argparse._HelpAction)}
        assert flags == {row[0]: row for row in rows}, command


def readme_cli_commands() -> list[list[str]]:
    """Each `flowspectra` command of the sh block under README "## CLI", as
    words, its backslash-continued lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("flowspectra ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert {words[1] for words in commands} == set(CLI_SURFACE)
    for words in commands:
        assert build_parser().parse_args(words[1:]).command == words[1]


@pytest.mark.parametrize("command", ["analyze", "timeseries"])
def test_analysis_flags_are_exactly_the_config_fields(command):
    """`_build_config` reads each config key from the flag whose dest is the
    key, so a field added without its flag, or a flag without its field,
    fails here."""
    dests = {action.dest for action in subcommand_parsers()[command]._actions}
    not_config = {"help", "input", "out", "period", "workers"}
    assert dests - not_config == {field.name for field in dataclasses.fields(PipelineConfig)}


def test_synth_and_shuffle_reject_flags_they_ignore(flows_csv):
    assert main(["synth", "--periods", "1", "--null-samples", "5"]) == 3
    assert main(["synth", "--periods", "1", "--null-mode", "weight-permute"]) == 3
    shuffle = ["shuffle", "--input", str(flows_csv), "--period", "2008-Q3"]
    assert main([*shuffle, "--null-samples", "5"]) == 3
    assert main([*shuffle, "--spectrum-mode", "symmetrized"]) == 3
    assert main([*shuffle, "--null-mode", "weight-permute", "--seed", "2"]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--periods", "0"], "n_periods must be at least 1"),
    (["--n-core", "0"], "n_core must be at least 1"),
    (["--link-prob", "2"], "link_prob_start must lie in [0, 1], got 2.0"),
    (["--periods", "2", "--link-prob", "2"], "link_prob_start must lie in [0, 1], got 2.0"),
    # The ramp's end is checked even where one quarter never reaches it.
    (["--periods", "1", "--link-prob-end", "5"], "link_prob_end must lie in [0, 1], got 5.0"),
    (["--periods", "1", "--link-prob-end", "nan"], "link_prob_end must lie in [0, 1], got nan"),
    (["--periods", "2", "--link-prob-end", "5"], "link_prob_end must lie in [0, 1], got 5.0"),
    (["--core-scale", "-1"], "weight scales must be positive and finite"),
    (["--start-period", "2000Q1"], "malformed period label '2000Q1' (expected YYYY-Qn)"),
    (["--periods", "3", "--start-period", "9999-Q3"],
     "quarter arithmetic left the calendar: 9999-Q3 +2"),
], ids=["periods", "n-core", "link-prob", "link-prob-2-periods", "link-prob-end-1-period",
        "link-prob-end-nan", "link-prob-end-2-periods", "core-scale", "start-period",
        "past-9999"])
def test_synth_rejects_bad_generator_flags_as_config_errors(tmp_path, caplog, flags, message):
    out = tmp_path / "data"
    assert main(["synth", *flags, "--out", str(out)]) == 3
    assert caplog.messages[-1] == f"config/IO error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "timeseries", "shuffle", "dendrogram",
                                     "synth", "convert-bis"])
def test_no_command_takes_a_config_file(flows_csv, tmp_path, caplog, command):
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"period": "period", "reporter": "reporter",
                                   "counterparty": "counterparty", "value": "amount"}))
    flags = {
        "analyze": ["--input", str(flows_csv), "--period", "2008-Q3", "--null-samples", "2"],
        "timeseries": ["--input", str(flows_csv), "--null-samples", "2"],
        "shuffle": ["--input", str(flows_csv), "--period", "2008-Q3"],
        "dendrogram": ["--input", str(flows_csv), "--period", "2008-Q3"],
        "synth": ["--periods", "1", "--n-core", "2", "--n-periphery", "0"],
        "convert-bis": ["--input", str(flows_csv), "--mapping", str(mapping)],
    }[command]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"null_samples": 5}))
    assert main([command, *flags, "--out", str(tmp_path / "a"), "--config", str(config)]) == 3
    assert "unrecognized arguments: --config" in caplog.text
    assert not (tmp_path / "a").exists()
    # The same command line without --config runs.
    assert main([command, *flags, "--out", str(tmp_path / "b")]) == 0


def test_timeseries_requires_out(flows_csv, caplog):
    assert main(["timeseries", "--input", str(flows_csv)]) == 3
    assert "--out" in caplog.messages[-1]


def test_timeseries_of_a_header_only_file_is_a_data_error(tmp_path):
    source = tmp_path / "flows.csv"
    source.write_text(HEADER + "\n")
    out = tmp_path / "run"
    assert main(["timeseries", "--input", str(source), "--out", str(out)]) == 1
    assert not out.exists()


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


def test_removed_timeseries_flags_are_rejected(flows_csv, tmp_path):
    base = ["timeseries", "--input", str(flows_csv), "--null-samples", "2",
            "--out", str(tmp_path / "run")]
    assert main(base + ["--normalize-lambda"]) == 3
    assert main(base + ["--format", "json"]) == 3
    assert main(base + ["--include-lambda-values"]) == 3
    assert main(base + ["--volume-mode", "both"]) == 3
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"null_samples": 2}))
    assert main(base + ["--config", str(config)]) == 3
    assert not (tmp_path / "run").exists()


def test_analyze_rejects_the_removed_volume_mode(flows_csv):
    assert main(["analyze", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--null-samples", "2", "--volume-mode", "out"]) == 3


@pytest.mark.parametrize("env, calls", [({}, [1]), ({"OPENBLAS_NUM_THREADS": "2"}, []),
                                        ({"OMP_NUM_THREADS": "2"}, [])],
                         ids=["unset", "openblas", "omp"])
def test_blas_runs_one_thread_unless_a_variable_sets_the_count(monkeypatch, env, calls):
    counts = []
    blas = SimpleNamespace(scipy_openblas_set_num_threads64_=lambda count: counts.append(count))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: blas)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["synth", "--periods", "1", "--n-core", "2", "--n-periphery", "0"]) == 0
    assert counts == calls


def test_a_blas_without_the_setter_is_left_alone(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["synth", "--periods", "1", "--n-core", "2", "--n-periphery", "0"]) == 0


def test_cli_runs_numpys_openblas_on_one_thread(tmp_path):
    from numpy.linalg import _umath_linalg
    if not hasattr(ctypes.CDLL(_umath_linalg.__file__), "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's BLAS is not the bundled scipy-openblas")
    script = ("import ctypes\n"
              "from numpy.linalg import _umath_linalg\n"
              "from flowspectra.cli import main\n"
              f"main(['synth', '--periods', '1', '--out', {str(tmp_path)!r}])\n"
              "blas = ctypes.CDLL(_umath_linalg.__file__)\n"
              "print(blas.scipy_openblas_get_num_threads64_())\n")
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(flowspectra.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[-1] == "1"


def test_shuffle_writes_flow_csv(tmp_path):
    source = tmp_path / "flows.csv"
    source.write_text(f"{HEADER}\n2008-Q3,A,B,3\n2008-Q3,B,C,5\n2008-Q3,C,A,7\n"
                      "2008-Q4,A,C,1\n")
    shuffle = ["shuffle", "--input", str(source), "--period", "2008-Q3", "--seed", "1",
               "--out", str(tmp_path / "out")]
    assert main(shuffle) == 0
    surrogate = parse_flow_file(tmp_path / "out" / "shuffle_2008-Q3.csv")
    assert surrogate.periods == ("2008-Q3",)
    assert sorted(surrogate.amounts.tolist()) == [3.0, 5.0, 7.0]
    for fmt in ("csv", "json", "dot"):
        assert main([*shuffle, "--format", fmt]) == 3


@pytest.mark.parametrize("spectrum_mode", SPECTRUM_MODES)
def test_analyze_one_period_writes_its_timeseries_entry(tmp_path, spectrum_mode):
    assert main(["synth", "--periods", "4", "--n-core", "2", "--n-periphery", "4",
                 "--link-prob", "0.2", "--link-prob-end", "0.6", "--seed", "9",
                 "--out", str(tmp_path)]) == 0
    run = ["--input", str(tmp_path / "flows.csv"), "--seed", "5", "--null-samples", "10",
           "--spectrum-mode", spectrum_mode]
    assert main(["timeseries", *run, "--out", str(tmp_path / "all")]) == 0
    entries = json.loads((tmp_path / "all" / "timeseries.json").read_text())["periods"]
    assert len(entries) == 4
    for entry in entries:
        period = entry["period"]
        assert main(["analyze", *run, "--period", period, "--out", str(tmp_path / "one")]) == 0
        assert json.loads((tmp_path / "one" / f"period_{period}.json").read_text()) == entry


@pytest.mark.parametrize("spectrum_mode", SPECTRUM_MODES)
def test_shuffle_replica_is_the_replica_the_null_solved(tmp_path, spectrum_mode):
    assert main(["synth", "--periods", "3", "--n-core", "3", "--n-periphery", "6",
                 "--link-prob", "0.3", "--seed", "9", "--out", str(tmp_path)]) == 0
    run = ["--input", str(tmp_path / "flows.csv"), "--seed", "5"]
    assert main(["timeseries", *run, "--null-samples", "10", "--spectrum-mode", spectrum_mode,
                 "--out", str(tmp_path / "all")]) == 0
    entry = json.loads((tmp_path / "all" / "timeseries.json").read_text())["periods"][1]
    for replica in (0, 7):
        assert main(["shuffle", *run, "--period", entry["period"],
                     "--replica", str(replica), "--out", str(tmp_path / "shuffle")]) == 0
        surrogate = parse_flow_file(tmp_path / "shuffle" / f"shuffle_{entry['period']}.csv")
        snapshot = build_snapshot(surrogate, entry["period"])
        assert list(snapshot.entities) == entry["entities"]
        weights = snapshot.weights
        if spectrum_mode == MODE_SYMMETRIZED:
            alone = float(symmetric_lambda_max((weights + weights.T) / 2.0))
        else:
            alone, _ = leading_eigenpair(weights)
        assert alone == entry["null"]["lambda_values"][replica]


def test_shuffle_rejects_a_negative_replica(flows_csv):
    assert main(["shuffle", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--replica", "-1"]) == 3


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


def test_dendrogram_of_a_quarter_whose_average_linkage_falls_by_an_ulp(tmp_path, capsys):
    """Every linked pair lends 1.0 both ways, so the distances are the 0/1
    matrix `1 - u - u.T` off the diagonal; its last average-linkage merge
    comes out one ulp below the merge before it."""
    u = np.triu(np.random.default_rng(230).choice([0., 1.], size=(12, 12), p=[.3, .7]), 1)
    codes = [f"E{k:02d}" for k in range(12)]
    lines = [HEADER]
    for i, j in zip(*np.nonzero(np.triu(u == 0, 1))):
        lines += [f"2008-Q3,{codes[i]},{codes[j]},1.0", f"2008-Q3,{codes[j]},{codes[i]},1.0"]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["dendrogram", "--input", str(path), "--period", "2008-Q3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entities"] == codes
    assert [m["height"] for m in payload["merges"]][-2:] == [0.8, 0.8]


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


def test_convert_bis_rejects_a_keyvalue_mapping(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("P,R,C,V\n2008-Q3,US,GB,5\n")
    mapping = tmp_path / "mapping.txt"
    mapping.write_text("period=P\nreporter=R\ncounterparty=C\nvalue=V\n")
    assert main(["convert-bis", "--input", str(raw), "--mapping", str(mapping)]) == 3
    assert capsys.readouterr().out == ""


def test_a_bad_flag_value_is_a_config_error(flows_csv, caplog):
    assert main(["analyze", "--input", str(flows_csv), "--period", "2008-Q3",
                 "--null-samples", "0"]) == 3
    assert caplog.messages[-1] == "config/IO error: null_samples must be at least 1"


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


# --- hostile file bytes ---------------------------------------------------------

OVERSIZED = "9" * 200_000  # past the csv module's 131,072-character field limit
MAPPING = {"period": "P", "reporter": "R", "counterparty": "C", "value": "V"}


def test_flow_csv_that_is_not_utf8_is_a_data_error(tmp_path):
    source = tmp_path / "flows.csv"
    source.write_bytes(f"{HEADER}\n2008-Q3,A,B,3\n".encode() + b"2008-Q3,B\xff,A,5\n")
    assert main(["analyze", "--input", str(source), "--period", "2008-Q3"]) == 1


def test_flow_csv_not_utf8_past_the_first_chunk_names_a_line(tmp_path, caplog):
    source = tmp_path / "flows.csv"
    good = "".join(f"2008-Q3,A{k:05d},B{k:05d},1.5\n" for k in range(1000))
    source.write_bytes(f"{HEADER}\n{good}".encode() + b"2008-Q3,B\xff,A,5\n")
    assert main(["analyze", "--input", str(source), "--period", "2008-Q3"]) == 1
    assert f"{source}: line 1002 is not UTF-8 text" in caplog.text
    assert "position" not in caplog.text


def test_flow_csv_field_over_the_size_limit_names_its_row(tmp_path, caplog):
    source = tmp_path / "flows.csv"
    source.write_text(f"{HEADER}\n2008-Q3,A,B,{OVERSIZED}\n")
    assert main(["analyze", "--input", str(source), "--period", "2008-Q3"]) == 1
    assert "row 2: field larger than field limit" in caplog.text


def _convert(tmp_path, raw: bytes, mapping: bytes = json.dumps(MAPPING).encode()) -> int:
    (tmp_path / "raw.csv").write_bytes(raw)
    (tmp_path / "mapping.json").write_bytes(mapping)
    return main(["convert-bis", "--input", str(tmp_path / "raw.csv"),
                 "--mapping", str(tmp_path / "mapping.json")])


def test_extract_that_is_not_utf8_is_a_data_error(tmp_path, caplog):
    assert _convert(tmp_path, b"P,R,C,V\n2008-Q3,US,G\xffB,5\n") == 1
    assert f"{tmp_path / 'raw.csv'}: line 2 is not UTF-8 text" in caplog.text


def test_header_only_extract_is_checked_against_the_mapping(tmp_path, caplog):
    mapping = json.dumps({"period": "TIME_PERIOD", "reporter": "REP",
                          "counterparty": "CP", "value": "VAL"}).encode()
    for raw in (b"A,B,C\n", b"A,B,C\n1,2,3\n"):
        caplog.clear()
        assert _convert(tmp_path, raw, mapping) == 3
        assert caplog.messages[-1] == (f"config/IO error: {tmp_path / 'raw.csv'}: mapping "
                                       "references absent column(s): CP, REP, TIME_PERIOD, VAL")
    assert _convert(tmp_path, b"P,R,C,V\n") == 1
    assert "no rows survived filtering and conversion" in caplog.text


def test_extract_field_over_the_size_limit_is_a_data_error(tmp_path):
    assert _convert(tmp_path, f"P,R,C,V\n2008-Q3,US,GB,{OVERSIZED}\n".encode()) == 1


def test_mapping_file_that_is_not_utf8_is_a_config_error(tmp_path):
    mapping = b'{"period": "P\xe9", "reporter": "R", "counterparty": "C", "value": "V"}'
    assert _convert(tmp_path, b"P,R,C,V\n2008-Q3,US,GB,5\n", mapping) == 3


def test_mapping_values_that_are_not_strings_are_config_errors(tmp_path):
    raw = b"P,R,C,V,M\n2008-Q3,US,GB,5,5\n"
    assert _convert(tmp_path, raw, json.dumps({**MAPPING, "period": 1}).encode()) == 3
    filtered = json.dumps({**MAPPING, "filters": {"M": 5}}).encode()
    assert _convert(tmp_path, raw, filtered) == 3


@pytest.mark.parametrize("text, message", [
    ('{"period": "P",', "bad JSON mapping: Expecting property name enclosed "
                        "in double quotes: line 1 column 16 (char 15)"),
    ('["P", "R", "C", "V"]', "mapping must be a JSON object"),
], ids=["mapping-syntax", "mapping-not-object"])
def test_json_input_errors_name_their_file(tmp_path, caplog, text, message):
    source = tmp_path / "input.json"
    source.write_text(text)
    (tmp_path / "raw.csv").write_text("P,R,C,V\n2008-Q3,US,GB,5\n")
    code = main(["convert-bis", "--input", str(tmp_path / "raw.csv"),
                 "--mapping", str(source)])
    assert code == 3
    assert caplog.messages[-1] == f"config/IO error: {source}: {message}"

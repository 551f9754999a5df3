"""Golden exports: every run below is regenerated through `cli.main` and its
files are compared byte for byte with the committed ones in tests/golden/.

The runs cover a 31-entity, 8-quarter synthetic series, its time series in
all four spectrum x null mode pairs, one quarter's `analyze`, its dendrogram
in every linkage and format, one shuffle replica, and `convert-bis` of a small
extract. A change that moves an exported digit on purpose regenerates the
files and shows the move as their diff:

    PYTHONPATH=src python tests/test_golden.py

The files hold the bits of one numpy version (recorded in numpy-version.txt):
NEP 19 does not promise stable `Generator` streams across versions, and LAPACK
builds may differ in the last bits, so on any other version the test skips.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from flowspectra.cli import main

GOLDEN = Path(__file__).parent / "golden"
NUMPY_VERSION = GOLDEN / "numpy-version.txt"
PERIOD = "2001-Q1"


def _runs() -> list[tuple[str, list[str]]]:
    """(output directory, argv) of every golden run. Inputs are read from
    tests/golden/, so each run is compared on the committed synthetic series."""
    flows = str(GOLDEN / "synth" / "flows.csv")
    runs = [("synth", ["synth", "--seed", "7", "--periods", "8", "--link-prob", "0.05",
                       "--link-prob-end", "0.5"])]
    for spectrum_mode in ("directed-perron", "symmetrized"):
        for null_mode in ("link-shuffle", "weight-permute"):
            runs.append((f"timeseries-{spectrum_mode}-{null_mode}",
                         ["timeseries", "--input", flows, "--null-samples", "20",
                          "--spectrum-mode", spectrum_mode, "--null-mode", null_mode]))
    runs.append(("analyze", ["analyze", "--input", flows, "--period", PERIOD,
                             "--null-samples", "20"]))
    for linkage in ("average", "single", "complete"):
        for fmt in ("json", "newick"):
            runs.append((f"dendrogram-{linkage}",
                         ["dendrogram", "--input", flows, "--period", PERIOD,
                          "--linkage", linkage, "--format", fmt]))
    runs.append(("shuffle", ["shuffle", "--input", flows, "--period", PERIOD,
                             "--replica", "3"]))
    runs.append(("convert-bis", ["convert-bis", "--input", str(GOLDEN / "bis-extract.csv"),
                                 "--mapping", str(GOLDEN / "bis-mapping.json")]))
    return runs


def _write_all(out: Path) -> None:
    for name, argv in _runs():
        assert main([*argv, "--out", str(out / name)]) == 0, name


def test_golden_exports_are_byte_identical(tmp_path):
    recorded = NUMPY_VERSION.read_text().strip()
    if np.__version__ != recorded:
        pytest.skip(f"golden files hold numpy {recorded}'s bits; this is numpy "
                    f"{np.__version__}, whose random streams or LAPACK may differ")
    _write_all(tmp_path)
    expected = {p.relative_to(GOLDEN) for name, _ in _runs() for p in (GOLDEN / name).iterdir()}
    written = {p.relative_to(tmp_path) for p in tmp_path.glob("*/*")}
    assert written == expected
    differ = [str(p) for p in sorted(expected)
              if (tmp_path / p).read_bytes() != (GOLDEN / p).read_bytes()]
    assert not differ, "differ from tests/golden/: " + ", ".join(differ)


if __name__ == "__main__":
    _write_all(GOLDEN)
    NUMPY_VERSION.write_text(np.__version__ + "\n")

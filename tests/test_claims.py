"""The paper's claims, read from `flowspectra timeseries` exports of seeded
input with a planted truth, each with a negative control."""
import csv

import numpy as np

from flowspectra.cli import main


def test_a_structureless_network_does_not_sit_above_its_null(tmp_path):
    # Negative control for "lambda_max sits above the shuffled null": 20
    # quarters of a 20-entity Erdos-Renyi digraph, link probability 0.2,
    # every amount 1. A link shuffle of equal weights draws from the same
    # uniform-graph law given the edge count, so each quarter's lambda is
    # exchangeable with its 100 replicas and exceeds their q99 with
    # probability about 2/101. Four or more of 20 has probability about 6e-4.
    rng = np.random.default_rng(1201)
    lines = ["period,reporter,counterparty,amount"]
    for q in range(20):
        links = rng.random((20, 20)) < 0.2
        np.fill_diagonal(links, False)
        lines += [f"{2000 + q // 4}-Q{q % 4 + 1},E{i:02d},E{j:02d},1"
                  for i, j in zip(*np.nonzero(links))]
    flows = tmp_path / "flows.csv"
    flows.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["timeseries", "--input", str(flows), "--out", str(out),
                 "--seed", "1202", "--null-samples", "100"]) == 0
    with open(out / "timeseries.csv", newline="") as table:
        rows = list(csv.DictReader(table))
    assert len(rows) == 20
    above = sum(float(row["lambda_max"]) > float(row["lambda_sh_q99"]) for row in rows)
    assert above <= 3, f"{above} of 20 structureless quarters sit above the null's q99"

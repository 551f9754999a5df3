"""The paper's claims, read from `flowspectra timeseries` and `dendrogram`
exports of seeded input with a planted truth, each with a negative control.
Every bound is taken from the model that planted the truth, not from trying
seeds."""
import csv
import json
from math import comb, exp, log, sqrt

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


def _timeseries(tmp_path, flows, *flags) -> tuple[list[dict], dict]:
    """Run `flowspectra timeseries` on `flows`; its CSV rows and its JSON."""
    out = tmp_path / "out"
    assert main(["timeseries", "--input", str(flows), "--out", str(out), *flags]) == 0
    with open(out / "timeseries.csv", newline="") as table:
        rows = list(csv.DictReader(table))
    return rows, json.loads((out / "timeseries.json").read_text())


def _both_reach(slots: int, marked: int, row: int, column: int, shared: int,
                need: int) -> float:
    """P(a row and a column each hold at least `need` of `marked` slots drawn
    uniformly without replacement from `slots`), where the row has `row`
    slots of its own, the column `column`, and `shared` slots lie in both:
    an exact multivariate hypergeometric sum."""
    rest = slots - row - column - shared
    ways = sum(comb(shared, z) * comb(row, x) * comb(column, y) * comb(rest, marked - x - y - z)
               for z in range(shared + 1)
               for x in range(max(0, need - z), row + 1)
               for y in range(max(0, need - z), column + 1)
               if x + y + z <= marked)
    return ways / comb(slots, marked)


def _binomial_chernoff(n: int, p: float, t: int) -> float:
    """Chernoff bound on P(Binomial(n, p) >= t), for t > n p."""
    q = t / n
    return exp(-n * (q * log(q / p) + (1 - q) * log((1 - q) / (1 - p))))


def test_a_planted_core_sits_above_its_null(tmp_path):
    # A complete 6-entity core with every amount exactly c = 100, and unit
    # links among the other ordered pairs of a 31-entity roster, each with
    # probability 0.2; 10 quarters of 100 link-shuffle replicas each.
    #
    # lambda >= (k - 1) c = 500: A is at least the core block c (J - I),
    # and the Perron root is monotone in the entries of a nonnegative
    # matrix. A replica has rho <= min(max row sum, max column sum), and a
    # row with a core weights sums to at most c a + (N - 1 - a), which
    # reaches 500 only for a >= 5. So a replica with lambda_sh >= lambda
    # holds at least 5 of the 30 core weights in some row and in some
    # column. A link shuffle puts the core weights on a uniform 30-subset of
    # the N (N - 1) slots, so a union over the N^2 (row, column) pairs of
    # exact hypergeometric sums bounds that chance per replica (0.0034).
    # The replicas are independent draws, so the count over all 1000 is
    # stochastically at most Binomial(1000, p), which reaches `limit` with
    # chance below 1e-6 by the Chernoff bound. Under the structureless
    # control above, about half of all replicas reach lambda.
    k, n, c, quarters, samples = 6, 31, 100.0, 10, 100
    slots, core_weights = n * (n - 1), k * (k - 1)
    need = next(a for a in range(n) if c * a + (n - 1 - a) >= (k - 1) * c)
    p = (n * _both_reach(slots, core_weights, n - 1, n - 1, 0, need)
         + n * (n - 1) * _both_reach(slots, core_weights, n - 2, n - 2, 1, need))
    total = quarters * samples
    limit = next(t for t in range(1, total) if t > total * p
                 and _binomial_chernoff(total, p, t) < 1e-6)
    assert need == 5 and p < 0.004 and limit < total / 50

    rng = np.random.default_rng(1301)
    core = np.zeros((n, n), dtype=bool)
    core[:k, :k] = True
    lines = ["period,reporter,counterparty,amount"]
    for q in range(quarters):
        links = (rng.random((n, n)) < 0.2) & ~core
        np.fill_diagonal(links, False)
        lines += [f"{2000 + q // 4}-Q{q % 4 + 1},E{i:02d},E{j:02d},{c if core[i, j] else 1}"
                  for i, j in zip(*np.nonzero(links | core)) if i != j]
    flows = tmp_path / "flows.csv"
    flows.write_text("\n".join(lines) + "\n")
    _, payload = _timeseries(tmp_path, flows, "--seed", "1302",
                             "--null-samples", str(samples))
    assert len(payload["periods"]) == quarters
    reached = 0
    for entry in payload["periods"]:
        assert entry["lambda_max"] >= (k - 1) * c * (1 - 1e-12)
        values = entry["null"]["lambda_values"]
        assert len(values) == samples
        reached += sum(value >= entry["lambda_max"] for value in values)
    assert reached < limit, f"{reached} of {total} replicas reach the planted core's lambda"


def test_density_rises_with_a_planted_link_ramp(tmp_path):
    # `synth`'s default roster (6 core, 25 periphery, so N = 31) links every
    # core-core and core-periphery ordered pair, 330 in all, and each of the
    # 600 periphery pairs with probability p_t, independently per quarter.
    # So density_t = (330 + B_t) / 930 with B_t ~ Binomial(600, p_t). The
    # least-squares slope of density on the quarter index is a weighted sum
    # of 600 Q independent Bernoulli variables, and Hoeffding's inequality
    # puts it within `spread` of its mean 600 (p_end - p_start) / ((Q - 1)
    # 930) with chance at least 1 - 1e-6. The control is a flat p of the
    # same mean, whose expected slope is 0.
    quarters, pairs, slots = 12, 25 * 24, 31 * 30
    index = np.arange(quarters) - (quarters - 1) / 2
    weights = index / (index @ index)
    spread = sqrt(log(2 / 1e-6) * pairs * (weights @ weights) / (2 * slots ** 2))
    expected = pairs * (0.4 - 0.1) / ((quarters - 1) * slots)
    assert expected > 2 * spread

    def slope(*link_prob):
        flows = tmp_path / "flows.csv"
        assert main(["synth", "--periods", str(quarters), "--seed", "1401",
                     "--out", str(tmp_path), *link_prob]) == 0
        rows, _ = _timeseries(tmp_path, flows, "--null-samples", "1")
        assert len(rows) == quarters
        return float(weights @ np.array([float(row["density"]) for row in rows]))

    assert abs(slope("--link-prob", "0.1", "--link-prob-end", "0.4") - expected) <= spread
    assert abs(slope("--link-prob", "0.25")) <= spread


#: A 6-core, 25-periphery roster, named as `synth` names it.
ROSTER = [f"C{i:03d}" for i in range(6)] + [f"P{i:03d}" for i in range(25)]


def _first_merge_leaves(tmp_path, amounts: np.ndarray, merges: int) -> tuple[set, list]:
    """Run `flowspectra dendrogram` (average linkage) on one quarter in which
    ROSTER[i] lends `amounts[i, j]` to ROSTER[j] (zero: no row); the names
    joined by its first `merges` merges, and every merge height."""
    lines = ["period,reporter,counterparty,amount"]
    lines += [f"2000-Q1,{ROSTER[i]},{ROSTER[j]},{float(amounts[i, j])!r}"
              for i, j in zip(*np.nonzero(amounts)) if i != j]
    flows, out = tmp_path / "flows.csv", tmp_path / "out"
    flows.write_text("\n".join(lines) + "\n")
    assert main(["dendrogram", "--input", str(flows), "--period", "2000-Q1",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "dendrogram_2000-Q1.json").read_text())
    members = {leaf: {name} for leaf, name in enumerate(payload["entities"])}
    for merge in payload["merges"][:merges]:
        members[merge["id"]] = members.pop(merge["left"]) | members.pop(merge["right"])
    joined = set().union(*(group for group in members.values() if len(group) > 1))
    return joined, [merge["height"] for merge in payload["merges"]]


def test_the_dendrogram_finds_a_planted_core(tmp_path):
    # Core-core amounts are uniform on [50, 100]; every other ordered pair of
    # a 6-core, 25-periphery roster is linked with probability 1/2 and an
    # amount in (0, 1]. The symmetrized core weights then lie in [50, 100]
    # and all others in [0, 1], while s_max lies in [50, 100], so every
    # core distance 1 - s / s_max is at most 0.5 and every other distance at
    # least 0.98. An average-linkage height is a mean of such distances, so
    # the first k - 1 merges join exactly the core, in every draw.
    k, n = 6, 31
    rng = np.random.default_rng(1501)
    for _ in range(20):
        amounts = np.where(rng.random((n, n)) < 0.5, 1.0 - rng.random((n, n)), 0.0)
        amounts[:k, :k] = rng.uniform(50.0, 100.0, (k, k))
        joined, heights = _first_merge_leaves(tmp_path, amounts, k - 1)
        assert joined == set(ROSTER[:k])
        assert max(heights[:k - 1]) <= 0.5 and min(heights[k - 1:]) >= 0.98


def test_a_uniform_roster_merges_a_named_set_first_only_by_chance(tmp_path):
    # Negative control: every ordered pair of 31 entities linked with an
    # amount uniform on (0, 1]. The symmetrized weights of the 465 unordered
    # pairs are i.i.d. and continuous, so the first merge, the closest pair,
    # is uniform over them and lies inside the named 6-set with chance
    # C(6, 2) / C(31, 2). Over 100 rosters the hit count is Binomial(100,
    # p); `limit` is the least count it reaches with chance below 1e-4.
    k, n, rosters = 6, 31, 100
    p = comb(k, 2) / comb(n, 2)
    limit = next(t for t in range(rosters + 1)
                 if sum(comb(rosters, h) * p ** h * (1 - p) ** (rosters - h)
                        for h in range(t, rosters + 1)) < 1e-4)
    assert limit == 12
    rng = np.random.default_rng(1601)
    named = set(ROSTER[:k])
    hits = 0
    for _ in range(rosters):
        joined, _ = _first_merge_leaves(tmp_path, 1.0 - rng.random((n, n)), 1)
        assert len(joined) == 2
        hits += joined <= named
    assert hits < limit, f"{hits} of {rosters} uniform rosters merge the named set first"

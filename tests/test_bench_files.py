"""Every committed ``BENCH_*.json`` is a well-formed record of paired runs.

A file records one speed claim: runs of ``perfbench/run.py`` at a parent
commit and at a change, in pairs that alternate which side runs first.
A claim counts only when its pairs are whole, so each (workload, pair)
must hold one parent run and one change run on the same seed, in the
order the file's ``pairing`` rule gives, each correct with no failed
operation and reporting exactly the end-to-end metrics of
``BENCHMARK.json``.

The file's ``claim``, ``"<workload> <metric>"``, must hold in its own
pairs: the change's median of that metric is below the parent's, and the
change is lower in most of that workload's pairs.  Every other
(workload, metric) median of the change stays within the parent's
times (1 + the metric's bound in ``BENCHMARK.json``).
"""

import json
from collections import defaultdict
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

# the one pairing rule in use: the side that runs first in pair k
PAIRING = (
    "pair k of a workload runs the parent first when k is even and the change "
    "first when k is odd; run_order is 1 or 2 within the pair"
)


def first_side(pair: int) -> str:
    return "parent" if pair % 2 == 0 else "change"


def test_some_bench_file_is_committed():
    assert BENCH_FILES


@pytest.fixture(params=BENCH_FILES, ids=lambda path: path.name)
def bench(request):
    return json.loads(request.param.read_text())


def test_header(bench):
    assert bench["pairing"] == PAIRING
    assert bench["parent"] != bench["change"]
    assert bench["runs"]


def test_each_pair_is_one_parent_and_one_change_run_on_one_seed(bench):
    pairs = defaultdict(list)
    for run in bench["runs"]:
        pairs[run["workload"], run["pair"]].append(run)
    for (workload, pair), runs in pairs.items():
        by_side = {run["side"]: run for run in runs}
        assert len(runs) == 2 and set(by_side) == {"parent", "change"}, (workload, pair)
        assert by_side["parent"]["seed"] == by_side["change"]["seed"], (workload, pair)
        first = first_side(pair)
        assert by_side[first]["run_order"] == 1, (workload, pair)
        assert {run["run_order"] for run in runs} == {1, 2}, (workload, pair)


def test_each_run_is_correct_and_complete(bench):
    for run in bench["runs"]:
        where = (run["workload"], run["pair"], run["side"])
        assert run["commit"] == bench[run["side"]], where
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, where
        assert result["attempted"] > 0, where
        metrics = {name: m["unit"] for name, m in result["metrics"].items()}
        assert metrics == END_TO_END, where


def side_values(bench, workload, metric):
    """Each side's values of one metric on one workload, by pair index."""
    values = {"parent": {}, "change": {}}
    for run in bench["runs"]:
        if run["workload"] == workload:
            values[run["side"]][run["pair"]] = run["result"]["metrics"][metric]["value"]
    return values


def test_every_end_to_end_metric_is_better_lower():
    # the claim and bound checks below read "better" as "lower"
    assert {m["better"] for m in BENCHMARK["end_to_end"]} == {"lower"}


def test_the_claim_holds_in_its_pairs(bench):
    workload, metric = bench["claim"].split()
    assert metric in END_TO_END
    values = side_values(bench, workload, metric)
    parent, change = values["parent"], values["change"]
    assert parent, workload
    assert median(change.values()) < median(parent.values())
    lower = sum(change[pair] < parent[pair] for pair in parent)
    assert lower > len(parent) / 2, (lower, len(parent))


def test_no_other_median_is_past_its_bound(bench):
    claim = tuple(bench["claim"].split())
    for workload in {run["workload"] for run in bench["runs"]}:
        for m in BENCHMARK["end_to_end"]:
            if (workload, m["name"]) == claim:
                continue
            values = side_values(bench, workload, m["name"])
            parent, change = median(values["parent"].values()), median(values["change"].values())
            assert change <= parent * (1 + m["bound"]), (workload, m["name"], parent, change)

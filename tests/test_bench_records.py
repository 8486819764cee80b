"""The BENCH_*.json records at the repository root keep the fields the
performance trajectory is read from: each names its parent commit, each
workload lists its runs as alternating parent/change pairs, and a record's
claim names an end-to-end metric and a workload of BENCHMARK.json."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
CLAIMED = [path for path in RECORDS if "claim" in json.loads(path.read_text())]
RUN_FIELDS = {"pair": int, "side": str, "correct": bool, "failed": int,
              "wall_rel": float, "setup_s": float, "peak_rss_mb": float}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_lists_every_run_of_its_pairs(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc["parent_commit"], str) and doc["parent_commit"]
    assert doc["workloads"]
    for name, workload in doc["workloads"].items():
        runs = workload["runs"]
        assert runs, name
        for run in runs:
            for field, kind in RUN_FIELDS.items():
                assert isinstance(run[field], kind), (name, field, run)
            assert run["side"] in ("parent", "change"), (name, run)
        sides = sorted((run["pair"], run["side"]) for run in runs)
        pairs = sorted({run["pair"] for run in runs})
        assert sides == [(p, side) for p in pairs for side in ("change", "parent")], name
        assert workload.get("pairs", len(pairs)) == len(pairs), name


@pytest.mark.parametrize("path", CLAIMED, ids=lambda p: p.name)
def test_claim_names_a_benchmark_metric_and_workload(path):
    doc = json.loads(path.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    match = re.match(r"(\w+) on (\w+):", doc["claim"])
    assert match, doc["claim"]
    metric, workload = match.groups()
    assert metric in {m["name"] for m in benchmark["end_to_end"]}, metric
    assert workload in {w["name"] for w in benchmark["workloads"]}, workload
    assert doc["workloads"][workload]["runs"], workload

"""The BENCH_*.json records at the repository root keep the fields the
performance trajectory is read from: each names its parent commit, and each
workload lists its runs as alternating parent/change pairs."""

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
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

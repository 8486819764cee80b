"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_job_lists_are_deterministic_per_seed(name):
    assert workloads.make_jobs(name, 5) == workloads.make_jobs(name, 5)
    assert workloads.make_jobs(name, 5) != workloads.make_jobs(name, 6)


def test_reference_slices_give_their_checksum_and_restore_the_collector():
    import gc

    assert reference.run() == reference.CHECKSUM
    assert gc.isenabled()
    seconds, slices = reference.measure(0.0)
    assert slices == 1 and seconds > 0


def test_repeated_arguments_are_rejected():
    jobs = workloads.make_jobs("census", 1)
    with pytest.raises(ValueError, match="repeats"):
        workloads.check_no_repeats(jobs + [dict(jobs[0], id="census/99")])


def test_every_drawn_job_has_a_reference():
    for name in workloads.REFERENCED:
        refs = workloads.load_refs(name)
        for seed in range(40):
            for job in workloads.make_jobs(name, seed):
                if job["kind"] == "census":
                    assert workloads.census_ref_key(**job["args"]) in refs
                elif job["kind"] == "constant":
                    assert workloads.constant_ref_key(job["args"]) in refs
                elif job["args"]["cmd"] != "sample-big":
                    assert " ".join(job["args"]["argv"]) in refs


def _run_child(tmp_path, jobs, traced):
    job_file = tmp_path / "jobs.json"
    job_file.write_text(json.dumps(jobs))
    argv = [sys.executable, str(BENCH / "child.py"), "jobs", str(job_file)]
    if traced:
        argv.append(str(tmp_path / "trace.json"))
    out = subprocess.run(argv, capture_output=True, env=_env(), check=True, timeout=300)
    return [o["result"] for o in json.loads(out.stdout)["outcomes"]]


def test_traced_outputs_equal_untraced_outputs(tmp_path):
    jobs = [
        {"kind": "census", "args": {"mode": "cyclic", "n": 3, "V": 3000}},
        {"kind": "constant", "args": {"name": "theta-n", "n": 3, "tol": 1e-8}},
        {"kind": "census-bf", "args": {"mode": "all", "n": 2, "V": 40}},
        {"kind": "sampler", "args": {"n": 3, "q": 2**50 + 3, "count": 20, "seed": 4}},
        {"kind": "aut", "args": {"orders": [8, 12, 16]}},
        {"kind": "mass", "args": {"V": 200}},
    ]
    for job in jobs:
        job["deadline"] = 120
    plain = _run_child(tmp_path, jobs, traced=False)
    assert plain == _run_child(tmp_path, jobs, traced=True)
    dump = json.loads((tmp_path / "trace.json").read_text())
    metrics = tracer.layer_metrics([dump], [0.1])
    assert metrics["counting.sum_calls"] >= 2 and metrics["constants.euler_calls"] == 1
    assert metrics["lattice.sample_draws"] == 20

    argv = ["count", "--n", "2", "--V", "2000", "--mode", "squarefree"]
    direct = subprocess.run([sys.executable, "-m", "latcensus.cli", *argv], capture_output=True,
                            env=_env(), check=True, timeout=300)
    traced = subprocess.run([sys.executable, str(BENCH / "child.py"), "cli",
                             str(tmp_path / "cli.json"), "--", *argv], capture_output=True,
                            env=_env(), check=True, timeout=300)
    assert direct.stdout == traced.stdout


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_synthetic_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    tr.window[0] = 0.0
    outer = tr.open("counting.count_cocyclic", "counting.sum")   # 0 .. 10
    tr.info[outer] = {"V": 1000}
    clock.now = 1.0
    sieve = tr.open("arith.SieveTable.__init__", "arith.sieve")  # 1 .. 3
    tr.info[sieve] = {"limit": 1000}
    clock.now = 3.0
    tr.close(sieve)
    clock.now = 4.0
    fac = tr.open("arith.factorize", "arith.factorize")           # 4 .. 6, with a nested
    clock.now = 4.5
    inner = tr.open("arith.SieveTable.factor_pairs", "arith.factorize")  # 4.5 .. 5.5
    clock.now = 5.5
    tr.close(inner)
    clock.now = 6.0
    tr.close(fac)
    clock.now = 10.0
    tr.close(outer)
    clock.now = 12.0                                               # 10 .. 12 unwrapped
    tr.window[1] = clock.now

    spans = tracer.decode(json.loads(json.dumps(tr.dump())))
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    m = tracer.layer_metrics([json.loads(json.dumps(tr.dump()))], [0.25, 0.35, 0.3])
    assert m["counting.sum_s"] == 6.0 and m["counting.sum_calls"] == 1
    assert m["counting.sum_q_per_s"] == 1000 / 6.0
    assert m["arith.sieve_s"] == 2.0 and m["arith.sieve_builds"] == 1
    assert m["arith.sieve_peak_entries"] == 1000
    assert m["arith.factorize_s"] == 2.0 and m["arith.factorize_calls"] == 1
    assert m["trace.unwrapped_share"] == 2.0 / 12.0
    assert m["cli.interp_s"] == 0.3


def test_generator_segments_exclude_consumer_work():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def gen():
        for i in range(3):
            clock.now += 1.0  # work inside the generator
            yield i

    wrapped = tr.wrap(gen, "groups.enumerate_groups", "groups.enum")
    for _ in wrapped():
        clock.now += 5.0  # consumer work between items
    tr.window[1] = clock.now
    m = tracer.layer_metrics([tr.dump()], [])
    assert m["groups.enum_s"] == 3.0
    assert m["groups.enum_groups"] == 3
    assert m["trace.unwrapped_share"] == 15.0 / 18.0


def _job(name, kind):
    return next(j for j in workloads.make_jobs(name, 3) if j["kind"] == kind)


def test_gate_reports_a_tampered_reference():
    census = _job("census", "census")
    refs = workloads.load_refs("census")
    key = workloads.census_ref_key(**census["args"])
    good = {"status": "ok", "result": refs[key]}
    assert workloads.gate(census, good, refs) is None
    tampered = dict(refs, **{key: str(int(refs[key]) + 1)})
    assert workloads.gate(census, good, tampered)[1] is True

    const = _job("constants", "constant")
    refs = workloads.load_refs("constants")
    key = workloads.constant_ref_key(const["args"])
    from fractions import Fraction
    value = Fraction(refs[key]["value"])
    parts = [0, value.numerator * 2**200 // value.denominator, -200]
    ok = {"status": "ok", "result": {"value": parts, "err": [0, 1, -60], "cutoff": None}}
    assert workloads.gate(const, ok, refs) is None
    shifted = dict(refs, **{key: dict(refs[key], value=str(value + Fraction(1, 10**12)))})
    assert workloads.gate(const, ok, shifted)[1] is True
    loose = {"status": "ok", "result": dict(ok["result"], err=[0, 1, -20])}
    assert "tol" in workloads.gate(const, loose, refs)[0]

    cli = next(j for j in workloads.make_jobs("cli", 3) if j["args"]["cmd"] == "enumerate")
    refs = workloads.load_refs("cli")
    key = " ".join(cli["args"]["argv"])
    tampered = dict(refs, **{key: {"sha256": "0" * 64, "bytes": 0}})
    out = {"status": "ok", "returncode": 0, "stdout": b"anything"}
    assert workloads.gate(cli, out, tampered)[1] is True

    dual = {"kind": "census-bf", "args": {}}
    agree = {"status": "ok", "result": {"checks": [["x", "5", "5"]]}}
    assert workloads.gate(dual, agree, {}) is None
    assert workloads.gate(dual, {"status": "ok", "result": {"checks": [["x", "5", "6"]]}}, {})[1]
    assert workloads.gate(dual, {"status": "deadline"}, {}) == ("deadline:", False)


def _cli_case(cmd):
    job = next(j for j in workloads.make_jobs("cli", 3) if j["args"]["cmd"] == cmd)
    refs = workloads.load_refs("cli")
    return job, refs, refs[" ".join(job["args"]["argv"])]


def _stdout(doc):
    return {"status": "ok", "returncode": 0, "stdout": json.dumps(doc).encode()}


def _near(value: str, shift: float) -> str:
    from fractions import Fraction
    v = Fraction(value)
    return f"{float(v + v * Fraction(shift)):.21g}"


def test_cli_count_and_constants_are_checked_by_field_and_interval():
    job, refs, want = _cli_case("count-json")
    leading = want["leading"]
    ratio = _near(str(int(want["fields"]["count"]) / float(leading)), 0)
    good = dict(want["fields"], prediction={"value": _near(leading, 2e-12), "err": "1e-11"},
                ratio={"value": ratio, "err": "1e-11"})
    good["prediction"]["err"] = f"{float(leading) * 1e-11:.4g}"
    assert workloads.gate(job, _stdout(good), refs) is None
    miss = dict(good, prediction={"value": _near(leading, 5e-11), "err": good["prediction"]["err"]})
    assert "misses" in workloads.gate(job, _stdout(miss), refs)[0]
    wide = dict(good, prediction={"value": leading[:22], "err": f"{float(leading):.4g}"})
    assert "err" in workloads.gate(job, _stdout(wide), refs)[0]
    assert workloads.gate(job, _stdout(dict(good, count="1")), refs)[1] is True

    job, refs, want = _cli_case("count-ladder")
    rows = ["V,count,prediction,ratio"] + [
        f"{v},{c},{float(p) * (1 + 3e-12):.12g},{int(c) / float(p):.12g}" for v, c, p in want["rows"]]
    ok = {"status": "ok", "returncode": 0, "stdout": "\n".join(rows).encode() + b"\n"}
    assert workloads.gate(job, ok, refs) is None
    bad = rows[:1] + [rows[1].replace(",", "1,", 1)] + rows[2:]
    assert workloads.gate(job, dict(ok, stdout="\n".join(bad).encode()), refs)[1] is True

    job, refs, want = _cli_case("constants")
    doc = {"name": want["name"], "value": _near(want["value"], 1e-11), "err": "5e-11",
           "prime_cutoff": 100000}
    assert workloads.gate(job, _stdout(doc), refs) is None
    # another cutoff, or another value inside the same err, is still correct
    assert workloads.gate(job, _stdout(dict(doc, prime_cutoff=12345)), refs) is None
    assert workloads.gate(job, _stdout(dict(doc, value=_near(want["value"], -3e-11))), refs) is None
    assert workloads.gate(job, _stdout(dict(doc, value=_near(want["value"], 1e-9))), refs)[1]
    assert "err" in workloads.gate(job, _stdout(dict(doc, err="2e-9")), refs)[0]


def test_big_sample_check():
    q = 2**64 + 13
    opts = workloads.cli_options(["sample", "--n", "2", "--q", str(q), "--seed", "1", "--count", "1"])
    check = workloads.check_big_sample
    assert check(opts, json.dumps({"n": 2, "rows": [[1, 5], [0, q]]}).encode(), None) is None
    assert check(opts, json.dumps({"n": 2, "rows": [[2, 0], [0, q // 2]]}).encode(), None)
    assert check(opts, b"", None)

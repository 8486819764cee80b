"""Seeded job lists for the four workloads, and the correctness gate.

Every workload is a closed loop: one client runs one job at a time.  The
seed picks the job arguments; the library only ever sees the generated
inputs.  Each job list has a fixed cost structure (which functions run, at
which size stratum) so that every seed asks for about the same amount of
work, and the seed varies the exact arguments and the random
content (matrices, sampler seeds, groups).  Without that, the spread of
`wall_rel` across seeds would be dominated by how big the drawn inputs happen
to be rather than by the code under test.

Job arguments are drawn from finite pools for which `refs/` holds the
expected output, so every seed has a reference (see refgen.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("census", "constants", "oracle", "cli")
REFERENCED = ("census", "constants", "cli")  # oracle jobs carry both routes

# ---------------------------------------------------------------------------
# census: one job per sixth of log [1e5, 1e6], each near its stratum's middle
# ---------------------------------------------------------------------------

# V grid: round(10 ** (5 + j / GRID_STEPS)).  Slot k draws j from a window of
# about +-2% in V around the log-midpoint of the k-th sixth of the decade, so
# V runs from 1.2e5 to 8.4e5 and the total work of a job list is nearly the
# same for every seed; V is not log-uniform over the whole decade.  V >= 1e9
# is never used: the uncapped sieve behind the census sums could exhaust
# memory.
GRID_STEPS = 1200
CENSUS_SLOTS = (  # (mode, n), slot k covers stratum k of 6
    ("all", 6),
    ("squarefree", 5),
    ("cyclic", 4),
    ("squarefree", 3),
    ("all", 2),
    ("cyclic", 2),
)
CENSUS_JITTER = (90, 110)  # j offset inside the stratum of 200 grid steps


def census_grid_v(j: int) -> int:
    return round(10 ** (5 + j / GRID_STEPS))


def census_slot_range(k: int) -> range:
    per = GRID_STEPS // len(CENSUS_SLOTS)
    return range(per * k + CENSUS_JITTER[0], per * k + CENSUS_JITTER[1] + 1)


def census_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for k, (mode, n) in enumerate(CENSUS_SLOTS):
        V = census_grid_v(rng.choice(census_slot_range(k)))
        jobs.append({"kind": "census", "args": {"mode": mode, "n": n, "V": V}, "deadline": 60})
    return jobs


# ---------------------------------------------------------------------------
# constants: Euler products and zeta values at tol in {1e-8 .. 1e-11}
# ---------------------------------------------------------------------------

CONST_PARAM = {  # name -> (parameter, pool)
    "theta-n": ("n", range(2, 9)),
    "rho-n": ("n", range(2, 9)),
    "rho-n-product": ("n", range(2, 9)),
    "theta-product": (None, None),
    "gekeler-cyclic": (None, None),
    "gekeler-squarefree": (None, None),
    "xi-inf": ("m", range(2, 9)),
    "delta-rank-le": ("r", range(1, 5)),
    "zeta": ("k", range(2, 13)),
}
CONSTANT_SLOTS = (  # (name, tol); the cutoff, hence the cost, follows from tol
    ("theta-n", 1e-11),
    ("rho-n", 1e-10),
    ("rho-n-product", 1e-10),
    ("theta-product", 1e-10),
    ("theta-n", 1e-9),
    ("rho-n", 1e-9),
    ("rho-n-product", 1e-8),
    ("theta-product", 1e-8),
    ("gekeler-cyclic", 1e-11),
    ("gekeler-cyclic", 1e-9),
    ("gekeler-squarefree", 1e-11),
    ("gekeler-squarefree", 1e-8),
    ("xi-inf", 1e-10),
    ("xi-inf", 1e-8),
    ("delta-rank-le", 1e-10),
    ("delta-rank-le", 1e-9),
    ("zeta", 1e-11),
    ("zeta", 1e-8),
)


def constants_jobs(rng: random.Random) -> list[dict]:
    # Parameters are drawn without replacement per name: zeta clamps tol to
    # 1e-12, so a repeated k would be answered whole from its lru cache.
    draws = {
        name: rng.sample(list(pool), 2) for name, (param, pool) in CONST_PARAM.items() if param
    }
    used: dict[str, int] = {}
    jobs = []
    for name, tol in CONSTANT_SLOTS:
        args = {"name": name, "tol": tol}
        param = CONST_PARAM[name][0]
        if param:
            i = used.get(name, 0)
            used[name] = i + 1
            args[param] = draws[name][i]
        jobs.append({"kind": "constant", "args": args, "deadline": 60})
    return jobs


# ---------------------------------------------------------------------------
# oracle: dual-route checks at enumeration scale
# ---------------------------------------------------------------------------


# Group orders <= 48 whose groups are cheap for the Aut brute force and the
# subgroup DP (a few ms each); 32, 36, 40 and 48 are the expensive ones and
# sit in every job list, so the seed changes little of the total work.
LIGHT_ORDERS = (17, 19, 20, 21, 22, 23, 25, 26, 28, 29, 30, 31, 33, 34, 35, 37, 38, 39,
                41, 42, 43, 44, 46, 47)


def oracle_jobs(rng: random.Random) -> list[dict]:
    va = 30  # at 31 the three n = 3 passes cost 12% more; keep the work fixed
    vb = rng.randint(198, 202)
    jobs = [
        # Three enumeration passes over the same (n, V) each: a stratified
        # single pass would serve all three.
        {"kind": "census-bf", "args": {"mode": "cyclic", "n": 3, "V": va}},
        {"kind": "census-bf", "args": {"mode": "all", "n": 3, "V": va}},
        {"kind": "rank-bf", "args": {"n": 3, "V": va}},
        {"kind": "census-bf", "args": {"mode": "squarefree", "n": 2, "V": vb}},
        {"kind": "census-bf", "args": {"mode": "cyclic", "n": 2, "V": vb}},
        {"kind": "census-bf", "args": {"mode": "all", "n": 2, "V": vb}},
        {"kind": "classes-bf",
         "args": {"n": 3, "qs": [47] + sorted(rng.sample((36, 38, 40, 42, 44, 48), 3))}},
        {"kind": "hnf", "args": {"n": 4, "count": 150, "seed": rng.getrandbits(32)}},
    ]
    for n in (2, 3, 4):
        q = rng.randrange(2**40, 2**62)
        jobs.append({"kind": "sampler", "args": {"n": n, "q": q, "count": 100, "seed": rng.getrandbits(32)}})
    jobs += [
        {"kind": "aut", "args": {"orders": sorted([32, 48] + rng.sample(LIGHT_ORDERS, 8))}},
        {"kind": "classes-dp", "args": {"n": 2, "orders": sorted([48] + rng.sample(LIGHT_ORDERS, 5))}},
        {"kind": "classes-dp",
         "args": {"n": 3, "orders": sorted([36, 40] + rng.sample(LIGHT_ORDERS, 5))}},
        {"kind": "mass", "args": {"V": rng.randint(2950, 3050)}},
    ]
    for job in jobs:
        job["deadline"] = 60
    return jobs


# ---------------------------------------------------------------------------
# cli: one seeded session of latcensus commands, each in a fresh interpreter
# ---------------------------------------------------------------------------

CLI_POOLS = {
    "count-json": ["count --n 3 --V %d --mode cyclic --tol 1e-10" % v
                   for v in range(48000, 52001, 500)],
    "count-ladder": [
        "count --n 2 --V %d --mode squarefree --format csv --ladder 4 --tol 1e-10" % v
        for v in range(95000, 105001, 1250)
    ],
    "constants": ["constants --name rho-n --n %d --tol 1e-9" % n for n in range(2, 9)],
    "sample": [
        "sample --n %d --q %d --seed %d --count 20" % (n, q, s)
        for n, q, s in (
            (2, 1000003, 1), (2, 999983, 2), (3, 1000003, 3), (3, 65536, 4), (3, 720720, 5),
            (4, 1000003, 6), (4, 2**31 - 1, 7), (2, 2**61 - 1, 8), (3, 2**61 - 1, 9),
        )
    ],
    "enumerate": ["enumerate --n 3 --q %d" % q for q in (53, 59, 61, 67, 71, 73)],
    "clmass": ["clmass --V %d --predicate cyclic" % v for v in range(2900, 3101, 25)],
    "groups": ["groups --V %d --dump" % v for v in range(2900, 3101, 25)],
    "verify-bijection": ["verify --suite bijection"],
    "verify-sampler": ["verify --suite sampler"],
}
CLI_DEADLINE = {"sample": 2.5, "sample-big": 1.0}
# sample at q > 2^64: SplitMix64.randbelow's rejection limit is 0 for such
# n, so the command hung when this benchmark was written (ROADMAP item 2).
# No reference output exists; the gate checks the output's structure.
BIG_Q_OFFSETS = (13, 27, 51, 61, 63, 75, 81, 91)


def cli_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for kind, pool in CLI_POOLS.items():
        jobs.append({"kind": "cli", "args": {"cmd": kind, "argv": rng.choice(pool).split()},
                     "deadline": CLI_DEADLINE.get(kind, 60)})
    q = 2**64 + rng.choice(BIG_Q_OFFSETS)
    argv = ["sample", "--n", "2", "--q", str(q), "--seed", str(rng.randint(1, 999)), "--count", "3"]
    jobs.append({"kind": "cli", "args": {"cmd": "sample-big", "argv": argv},
                 "deadline": CLI_DEADLINE["sample-big"]})
    return jobs


_GENERATORS = {"census": census_jobs, "constants": constants_jobs,
               "oracle": oracle_jobs, "cli": cli_jobs}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The seeded job list of a workload: same seed, same list."""
    # The order is fixed per workload: with a seeded order, how often the
    # shared sieve regrows, and so peak RSS, would vary from seed to seed.
    jobs = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}/{i:02d}"
    check_no_repeats(jobs)
    return jobs


def check_no_repeats(jobs: list[dict]) -> None:
    seen = set()
    for job in jobs:
        key = json.dumps([job["kind"], job["args"]], sort_keys=True)
        if key in seen:
            raise ValueError(f"job {job['id']} repeats an earlier job's arguments: {key}")
        seen.add(key)


# ---------------------------------------------------------------------------
# references and the gate
# ---------------------------------------------------------------------------


def load_refs(workload: str) -> dict:
    path = REFS_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def census_ref_key(mode: str, n: int, V: int) -> str:
    return f"{mode}:{n}:{V}"


def constant_ref_key(args: dict) -> str:
    param = CONST_PARAM[args["name"]][0]
    return f"{args['name']}:{args[param]}" if param else args["name"]


def mpf_fraction(parts) -> Fraction:
    """Exact value of an mpf sent as [sign, mantissa, exponent]."""
    sign, man, exp = parts
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_big_sample(opts: dict, out: bytes, want: None) -> str | None:
    """Checks `sample --n 2` output without a reference: each line is the
    HNF [[a, b], [0, c]] of a lattice of index q with a cyclic quotient,
    i.e. a * c == q and gcd(a, b, c) == 1."""
    q, count = int(opts["--q"]), int(opts["--count"])
    lines = out.decode().splitlines()
    if len(lines) != count:
        return f"expected {count} lines, got {len(lines)}"
    for line in lines:
        (a, b), (z, c) = json.loads(line)["rows"]
        if z != 0 or a * c != q or not 0 <= b < c or math.gcd(a, b, c) != 1:
            return f"not a co-cyclic HNF of index {q}: {line}"
    return None


# `count` and `constants` print rounded interval endpoints and the prime
# cutoff, which a correct change of the evaluators may move.  Their exact
# fields are compared as strings; every interval must hold the independent
# reference and be as tight as the requested tol asks; `prime_cutoff` is not
# checked.  Slack for printing: 21 digits for a value, 4 for an err, 12 for
# a CSV float.
VALUE_DIGITS_SLACK = Fraction(1, 10**20)
ERR_DIGITS_SLACK = Fraction(1, 10**3)
CSV_DIGITS_SLACK = Fraction(1, 10**11)


def cli_options(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def interval_miss(doc: dict, ref: Fraction, max_err: Fraction) -> str | None:
    """None when the printed {value, err} holds `ref` and err <= max_err."""
    value, err = Fraction(doc["value"]), Fraction(doc["err"])
    if err > max_err * (1 + ERR_DIGITS_SLACK):
        return f"err {doc['err']} > {float(max_err):.4g}"
    if abs(value - ref) > err * (1 + ERR_DIGITS_SLACK) + abs(value) * VALUE_DIGITS_SLACK:
        return f"{doc['value']} +- {doc['err']} misses reference {float(ref):.17g}"
    return None


def check_count_json(opts: dict, out: bytes, want: dict) -> str | None:
    doc = json.loads(out)
    if set(doc) != set(want["fields"]) | {"prediction", "ratio"}:
        return f"keys {sorted(doc)}"
    for key, value in want["fields"].items():
        if doc[key] != value:
            return f"{key} {doc[key]!r} != reference {value!r}"
    n, V, tol = int(opts["--n"]), int(opts["--V"]), Fraction(opts["--tol"])
    scale = Fraction(V**n, n)
    leading = Fraction(want["leading"])
    ratio = Fraction(doc["count"]) / leading
    return (interval_miss(doc["prediction"], leading, tol * scale)
            or interval_miss(doc["ratio"], ratio, ratio * tol * scale / leading))


def check_count_csv(opts: dict, out: bytes, want: dict) -> str | None:
    lines = out.decode().splitlines()
    if lines[0] != "V,count,prediction,ratio" or len(lines) != len(want["rows"]) + 1:
        return f"{len(lines)} lines, header {lines[0]!r}"
    n, tol = int(opts["--n"]), Fraction(opts["--tol"])
    for line, (V, count, leading) in zip(lines[1:], want["rows"]):
        got_v, got_count, pred, ratio = line.split(",")
        if (got_v, got_count) != (str(V), count):
            return f"row {line!r} != reference V={V} count={count}"
        leading = Fraction(leading)
        rel = tol * Fraction(V**n, n) / leading + CSV_DIGITS_SLACK
        exact_ratio = Fraction(count) / leading
        if abs(Fraction(pred) - leading) > rel * leading:
            return f"prediction {pred} != reference {float(leading):.12g}"
        if abs(Fraction(ratio) - exact_ratio) > rel * exact_ratio:
            return f"ratio {ratio} != reference {float(exact_ratio):.12g}"
    return None


def check_constant_output(opts: dict, out: bytes, want: dict) -> str | None:
    doc = json.loads(out)
    if set(doc) != {"name", "value", "err", "prime_cutoff"} or doc["name"] != want["name"]:
        return f"fields {doc}"
    return interval_miss(doc, Fraction(want["value"]), Fraction(opts["--tol"]))


CLI_CHECKS = {"count-json": check_count_json, "count-ladder": check_count_csv,
              "constants": check_constant_output, "sample-big": check_big_sample}


def gate(job: dict, outcome: dict, refs: dict) -> tuple[str, bool] | None:
    """None when the job's output is correct, else (reason, wrong): `wrong`
    marks an output that differs from its reference, as opposed to a job
    that raised, missed its deadline or exited non-zero."""
    if outcome["status"] != "ok":
        return f"{outcome['status']}: {outcome.get('error', '')}".strip(), False
    if job["kind"] == "cli" and outcome["returncode"] != 0:
        return f"exit code {outcome['returncode']}", False
    reason = _mismatch(job, outcome["result"] if job["kind"] != "cli" else outcome["stdout"], refs)
    return None if reason is None else (reason, True)


def _mismatch(job: dict, result, refs: dict) -> str | None:
    args, kind = job["args"], job["kind"]
    if kind == "census":
        want = refs.get(census_ref_key(args["mode"], args["n"], args["V"]))
        if want is None:
            return "no reference"
        return None if result == want else f"count {result} != reference {want}"
    if kind == "constant":
        want = refs.get(constant_ref_key(args))
        if want is None:
            return "no reference"
        value, err = mpf_fraction(result["value"]), mpf_fraction(result["err"])
        if err > Fraction(args["tol"]):
            return f"err {float(err):.3g} > tol {args['tol']:g}"
        if abs(value - Fraction(want["value"])) > err + Fraction(want["err"]):
            return f"interval misses reference {want['value'][:24]}"
        return None
    if kind == "cli":
        want = refs.get(" ".join(args["argv"]))
        if want is None and args["cmd"] != "sample-big":
            return "no reference"
        if args["cmd"] in CLI_CHECKS:
            try:
                return CLI_CHECKS[args["cmd"]](cli_options(args["argv"]), result, want)
            except (ValueError, KeyError, TypeError) as exc:
                return f"unparsable stdout ({type(exc).__name__}: {exc})"
        got = stdout_digest(result)
        return None if got == want["sha256"] else f"stdout sha256 {got[:12]} != {want['sha256'][:12]}"
    # dual-route jobs: in every (label, route_a, route_b) the routes agree
    if not result["checks"]:
        return "no checks ran"
    bad = [c for c in result["checks"] if c[1] != c[2]]
    return None if not bad else f"routes disagree: {bad[:3]}"


def describe(job: dict) -> str:
    args = job["args"]
    return " ".join(args["argv"]) if job["kind"] == "cli" else json.dumps(args)

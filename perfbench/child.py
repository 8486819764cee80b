"""Runs inside each fresh interpreter the benchmark starts.

    python3 perfbench/child.py jobs JOBS.json [TRACE.json]
        Runs a library workload's job list, one job at a time, each under
        its own deadline, and prints one JSON document with the outcomes.
        Untraced, every job is followed by reference.py slices for about
        reference.SHARE of its time.
    python3 perfbench/child.py cli TRACE.json -- ARGV...
        Traced `latcensus ARGV...`: installs the wrappers, then calls
        cli.main, so stdout is exactly the command's own.

With a TRACE path, spans are written there when the process ends, also
when it is stopped at its deadline by SIGTERM.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


def mpf_parts(x) -> list[int]:
    sign, man, exp, _ = x._mpf_
    return [sign, int(man), exp]


# ---------------------------------------------------------------------------
# job kinds
# ---------------------------------------------------------------------------


def run_census(lc, a):
    counting = lc.counting
    fn = {"cyclic": counting.count_cocyclic, "squarefree": counting.count_squarefree,
          "all": counting.total_count}[a["mode"]]
    return str(fn(a["n"], a["V"]))


def run_constant(lc, a):
    params = {k: v for k, v in a.items() if k not in ("name", "tol")}
    value, cutoff = lc.constants.evaluate_constant(a["name"], tol=a["tol"], **params)
    return {"value": mpf_parts(value.value), "err": mpf_parts(value.err), "cutoff": cutoff}


def run_census_bf(lc, a):
    counting, n, V = lc.counting, a["n"], a["V"]
    formula, oracle = {
        "cyclic": (counting.count_cocyclic, counting.census_cocyclic_bruteforce),
        "squarefree": (counting.count_squarefree, counting.census_squarefree_bruteforce),
        "all": (counting.total_count, counting.census_total_bruteforce),
    }[a["mode"]]
    return [[f"{a['mode']}({n},{V})", str(formula(n, V)), str(oracle(n, V))]]


def run_rank_bf(lc, a):
    counting, n, V = lc.counting, a["n"], a["V"]
    by_rank = counting.counts_by_rank_bruteforce(n, V)
    cyclic = by_rank.get(0, 0) + by_rank.get(1, 0)
    return [
        [f"rank<=1({n},{V})", str(counting.count_cocyclic(n, V)), str(cyclic)],
        [f"all-ranks({n},{V})", str(counting.total_count(n, V)), str(sum(by_rank.values()))],
    ]


def run_classes_bf(lc, a):
    counting, n = lc.counting, a["n"]
    return [
        [f"classes({n},{q})", str(counting.count_primitive_classes(n, q)),
         str(counting.count_primitive_classes_bruteforce(n, q))]
        for q in a["qs"]
    ]


def _random_hnf(rng: random.Random, n: int) -> list[list[int]]:
    diag = [rng.choice((1, 1, 2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(n)]
    return [[diag[i] if i == j else (rng.randrange(diag[j]) if j > i else 0) for j in range(n)]
            for i in range(n)]


def _random_unimodular_image(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    m = [r[:] for r in rows]
    n = len(m)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.3:
            m[i] = [-x for x in m[i]]
    return m


def run_hnf(lc, a):
    rng = random.Random(a["seed"])
    canonical = product = 0
    for _ in range(a["count"]):
        basis = lc.HnfBasis(_random_hnf(rng, a["n"]))
        image = _random_unimodular_image(rng, [list(r) for r in basis.rows])
        canonical += lc.hnf_canonicalize(image) == basis
        product += lc.smith_invariants(image).order == basis.index
    return [["hnf-canonical", canonical, a["count"]], ["smith-product", product, a["count"]]]


def run_sampler(lc, a):
    q, index, cyclic, canonical = a["q"], 0, 0, 0
    for basis in lc.lattice.sample_cocyclic_stream(a["n"], q, a["count"], a["seed"]):
        index += basis.index == q
        cyclic += lc.smith_invariants(basis).chain == (q,)
        canonical += lc.hnf_canonicalize(basis.rows) == basis
    return [["index", index, a["count"]], ["cyclic-quotient", cyclic, a["count"]],
            ["canonical", canonical, a["count"]]]


def run_aut(lc, a):
    groups, orders = lc.groups, set(a["orders"])
    agree = checked = 0
    for G in groups.enumerate_groups(max(orders)):
        if G.order in orders:
            checked += 1
            agree += groups.aut_order(G) == groups.aut_order_bruteforce(G)
    return [["aut-formula-vs-bruteforce", agree, checked]]


def run_classes_dp(lc, a):
    groups, n = lc.groups, a["n"]
    by_order = {q: 0 for q in a["orders"]}
    for G in groups.enumerate_groups(max(by_order)):
        if G.order in by_order:
            by_order[G.order] += groups.primitive_class_count(G, n)
    return [[f"dp-vs-sublattices({n},{q})", str(c), str(lc.lattice.count_sublattices(n, q))]
            for q, c in by_order.items()]


def run_mass(lc, a):
    groups, arith, V = lc.groups, lc.arith, a["V"]
    exact = groups.cl_total_mass(V)
    sieved = groups.cl_total_mass(V, exact_limit=0)
    return [
        [f"cyclic-mass({V})", str(groups.cl_predicate_mass(V, "cyclic")), str(arith.landau_sum(V))],
        [f"squarefree-mass({V})", str(groups.cl_predicate_mass(V, "squarefree-order")),
         str(arith.ward_sum(V))],
        [f"total-mass-routes({V})", sieved.contains(exact), True],
    ]


KINDS = {
    "census": run_census, "constant": run_constant, "census-bf": run_census_bf,
    "rank-bf": run_rank_bf, "classes-bf": run_classes_bf, "hnf": run_hnf,
    "sampler": run_sampler, "aut": run_aut, "classes-dp": run_classes_dp, "mass": run_mass,
}
DUAL_ROUTE = set(KINDS) - {"census", "constant"}


def run_jobs(jobs: list[dict], tracer=None) -> dict:
    import latcensus as lc

    import reference

    import_done = time.monotonic()
    if tracer is not None:
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes, ref_seconds, ref_slices = [], 0.0, 0
    for job in jobs:
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, job["deadline"])
        try:
            result = KINDS[job["kind"]](lc, job["args"])
            outcome = {"status": "ok",
                       "result": {"checks": result} if job["kind"] in DUAL_ROUTE else result}
        except Deadline:
            outcome = {"status": "deadline", "error": f"{job['deadline']} s"}
        except Exception as exc:  # a failed job is recorded, the session goes on
            outcome = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome["seconds"] = time.perf_counter() - t0
        outcomes.append(outcome)
        if tracer is None and outcome["status"] != "deadline":
            seconds, slices = reference.measure(reference.SHARE * outcome["seconds"])
            ref_seconds, ref_slices = ref_seconds + seconds, ref_slices + slices
    if tracer is not None:
        tracer.uninstall()
    return {"import_done": import_done, "outcomes": outcomes,
            "reference": [ref_seconds, ref_slices]}


def _write_trace(tracer, path: str, extra: dict | None = None) -> None:
    doc = tracer.dump()
    doc.update(extra or {})
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "jobs":
        with open(argv[1]) as fh:
            jobs = json.load(fh)
        tracer = None
        if len(argv) > 2:
            from tracer import Tracer

            tracer = Tracer()
        doc = run_jobs(jobs, tracer)
        if tracer is not None:
            _write_trace(tracer, argv[2])
        print(json.dumps(doc))
        return 0
    if mode == "cli":
        trace_path, cli_argv = argv[1], argv[3:]
        from tracer import Tracer

        import latcensus.cli

        extra = {"import_done": time.monotonic()}
        tracer = Tracer()

        def on_term(signum, frame):
            raise SystemExit(124)  # unwinds the spans; the trace is written below

        signal.signal(signal.SIGTERM, on_term)
        tracer.install()
        try:
            code = latcensus.cli.main(cli_argv)
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            tracer.uninstall()
            _write_trace(tracer, trace_path, extra)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

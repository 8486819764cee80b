"""Regenerate the reference outputs in refs/.

    python3 perfbench/refgen.py [census] [constants] [cli]

census     exact counts for every V the census job lists can draw, from an
           independent multiplicative sum written here, then cross-checked
           against the library's formula route at each slot's end points and
           against brute-force enumeration where that is feasible.
constants  every (name, parameter) the constants job lists can draw, from
           independent mpmath routes at 240 bits in a private context:
           closed forms in zeta values where they exist, otherwise an
           Euler product summed through the prime zeta function.
cli        sha256 of the stdout of every command the cli session can draw,
           from the library at the commit the references were made on.

Run from the root of a checkout.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["LATCENSUS_SIEVE_LIMIT"] = "10000000"


# ---------------------------------------------------------------------------
# census: sum_{q <= V} a(q) for the multiplicative a of each mode
# ---------------------------------------------------------------------------


def local_count(mode: str, n: int, p: int, e: int) -> int:
    """a(p^e): sublattices of Z^n of index p^e (all), those with cyclic
    quotient (= surjections onto Z/p^e up to units), or squarefree only."""
    if mode == "all":  # complete homogeneous polynomial h_e(1, p, ..., p^(n-1))
        h = [1] * (e + 1)
        for i in range(1, n):
            w = p**i
            for k in range(1, e + 1):
                h[k] += w * h[k - 1]
        return h[e]
    if mode == "squarefree" and e > 1:
        return 0
    return p ** ((e - 1) * (n - 1)) * (p**n - 1) // (p - 1)


def prefix_counts(mode: str, n: int, wanted: list[int]) -> dict[int, int]:
    top = max(wanted)
    spf = np.zeros(top + 1, dtype=np.int64)
    for p in range(2, int(top**0.5) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    idx = np.nonzero(spf == 0)[0]
    spf[idx] = idx
    spf = spf.tolist()
    cache: dict[tuple[int, int], int] = {}
    targets, out, total = set(wanted), {}, 0
    for q in range(1, top + 1):
        k, a = q, 1
        while k > 1:
            p, e = spf[k], 0
            while k % p == 0:
                k //= p
                e += 1
            key = (p, e)
            if key not in cache:
                cache[key] = local_count(mode, n, p, e)
            a *= cache[key]
        total += a
        if q in targets:
            out[q] = total
    return out


def census_refs() -> dict:
    from latcensus import counting

    oracle = {"cyclic": counting.census_cocyclic_bruteforce,
              "squarefree": counting.census_squarefree_bruteforce,
              "all": counting.census_total_bruteforce}
    formula = {"cyclic": counting.count_cocyclic, "squarefree": counting.count_squarefree,
               "all": counting.total_count}
    refs = {}
    for k, (mode, n) in enumerate(workloads.CENSUS_SLOTS):
        vs = [workloads.census_grid_v(j) for j in workloads.census_slot_range(k)]
        small = 24 if n <= 3 else 8
        counts = prefix_counts(mode, n, vs + [small])
        if counts[small] != oracle[mode](n, small):
            raise SystemExit(f"census route disagrees with enumeration at {mode} n={n} V={small}")
        for V in (vs[0], vs[-1]):
            if counts[V] != formula[mode](n, V):
                raise SystemExit(f"census route disagrees with the library at {mode} n={n} V={V}")
        for V in vs:
            refs[workloads.census_ref_key(mode, n, V)] = str(counts[V])
        print(f"census {mode} n={n}: {len(vs)} references", flush=True)
    return refs


# ---------------------------------------------------------------------------
# constants: mpmath routes independent of the library's evaluators
# ---------------------------------------------------------------------------

PREC = 240
SERIES_TERMS = 60
PRIME_SPLIT = 1000  # primes below are multiplied directly, the rest by series


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _log_series(poly: list[int], terms: int) -> list[Fraction]:
    """Coefficients c_1..c_terms of log P(x) for P(0) = 1, from
    x P'(x) = P(x) * sum_j j c_j x^j."""
    p = [Fraction(c) for c in poly] + [Fraction(0)] * (terms + 1)
    jc = [Fraction(0)] * (terms + 1)
    for j in range(1, terms + 1):
        jc[j] = j * p[j] - sum(p[i] * jc[j - i] for i in range(1, j))
    return [Fraction(0)] + [jc[j] / j for j in range(1, terms + 1)]


def euler_product_ref(ctx, num: list[int], den: list[int]):
    """prod_p N(1/p) / D(1/p) for integer polynomials with N(0) = D(0) = 1
    and no linear term in log(N/D): direct product for p < PRIME_SPLIT,
    then sum_j c_j * (P(j) - sum_{p < PRIME_SPLIT} p^-j) with P the prime
    zeta function.  Terms beyond SERIES_TERMS are below 1e-100 here."""
    cn, cd = _log_series(num, SERIES_TERMS), _log_series(den, SERIES_TERMS)
    coeffs = [a - b for a, b in zip(cn, cd)]
    if coeffs[1] != 0:
        raise ValueError("local factor is not 1 + O(p^-2)")
    small = [p for p in range(2, PRIME_SPLIT) if all(p % d for d in range(2, int(p**0.5) + 1))]
    log_total = ctx.mpf(0)
    for p in small:
        x = ctx.mpf(1) / p
        log_total += ctx.log(ctx.polyval(num[::-1], x) / ctx.polyval(den[::-1], x))
    for j in range(2, SERIES_TERMS + 1):
        if coeffs[j]:
            tail = ctx.primezeta(j) - ctx.fsum(ctx.mpf(p) ** -j for p in small)
            log_total += ctx.mpf(coeffs[j].numerator) / coeffs[j].denominator * tail
    return ctx.exp(log_total)


def _theta_n_local(n: int):
    # 1 + (p^(n-1) - 1)/(p^(n+1) - p^n) in x = 1/p: (1 - x + x^2 - x^(n+1)) / (1 - x)
    num = [1, -1, 1] + [0] * (n - 2) + [-1]
    return num, [1, -1]


def _gekeler_cyclic_local():
    # 1 - x^4 / ((1 - x^2)(1 - x))
    den = _poly_mul([1, 0, -1], [1, -1])
    return [c - (i == 4) for i, c in enumerate(den + [0, 0])], den


def _gekeler_squarefree_local():
    # 1 - (x^2 - x^4 - x^5) / ((1 - x^2)(1 - x))
    den = _poly_mul([1, 0, -1], [1, -1])
    sub = [0, 0, 1, 0, -1, -1]
    return [a - b for a, b in zip(den + [0, 0], sub)], den


def _rank_le_local(r: int):
    # sum_{k<=r} x^(k^2) (1 - x) / prod_{i<=k} (1 - x^i)^2, over the common
    # denominator prod_{i<=r} (1 - x^i)^2
    den = [1]
    for i in range(1, r + 1):
        den = _poly_mul(den, _poly_pow([1] + [0] * (i - 1) + [-1], 2))
    num = [0]
    for k in range(r + 1):
        term = _poly_mul([0] * (k * k) + [1], [1, -1])
        for i in range(k + 1, r + 1):
            term = _poly_mul(term, _poly_pow([1] + [0] * (i - 1) + [-1], 2))
        num = [a + b for a, b in zip(num + [0] * len(term), term + [0] * len(num))]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num, den


def constant_value(ctx, name: str, param):
    z = ctx.zeta
    if name == "zeta":
        return z(param)
    if name == "xi-inf":  # prod_{k >= m} zeta(k); zeta(k) - 1 < 2^(1-k)
        out = ctx.mpf(1)
        for k in range(param, PREC + 10):
            out *= z(k)
        return out
    if name == "rho-n-product":
        return z(2) / z(param + 1)
    if name == "rho-n":
        return 1 / z(param + 1)
    if name == "theta-product":
        return z(2) * z(3) / z(6)
    if name == "theta-n":
        return euler_product_ref(ctx, *_theta_n_local(param))
    if name == "gekeler-cyclic":
        return euler_product_ref(ctx, *_gekeler_cyclic_local())
    if name == "gekeler-squarefree":
        return euler_product_ref(ctx, *_gekeler_squarefree_local())
    if name == "delta-rank-le":  # prod_p S_r(p) / prod_{k >= 2} zeta(k)
        return euler_product_ref(ctx, *_rank_le_local(param)) / constant_value(ctx, "xi-inf", 2)
    raise KeyError(name)


def constants_refs() -> dict:
    from mpmath import MPContext

    from latcensus import constants

    ctx = MPContext()
    ctx.prec = PREC
    refs = {}
    for name, (param, pool) in workloads.CONST_PARAM.items():
        for value in pool if param else [None]:
            args = {"name": name, param: value} if param else {"name": name}
            v = constant_value(ctx, name, value)
            ref = {"value": ctx.nstr(v, 70), "err": "1e-50"}
            lib, _ = constants.evaluate_constant(
                name, tol=1e-11, **({param: value} if param else {}))
            if abs(Fraction(ref["value"]) - Fraction(str(lib.value))) > Fraction(str(lib.err)) * 2:
                raise SystemExit(f"{args}: reference {ref['value'][:20]} outside library interval")
            refs[workloads.constant_ref_key(args)] = ref
        print(f"constants {name}: done", flush=True)
    return refs


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


LEADING_CONSTANT = {"cyclic": "theta-n", "squarefree": "rho-n"}  # times V^n / n


def count_expectation(ctx, kind: str, opts: dict) -> dict:
    """Exact fields from the independent census sum; the leading term
    constant * V^n / n from the mpmath route."""
    mode, n, V = opts["--mode"], int(opts["--n"]), int(opts["--V"])
    c = constant_value(ctx, LEADING_CONSTANT[mode], n)
    if kind == "count-json":
        count = prefix_counts(mode, n, [V])[V]
        fields = {"n": n, "V": V, "mode": mode, "method": "formula", "count": str(count),
                  "prediction_kind": "leading-order"}
        return {"fields": fields, "leading": ctx.nstr(c * V**n / n, 70)}
    steps = int(opts["--ladder"])
    vs = [V * i // steps for i in range(1, steps + 1)]
    counts = prefix_counts(mode, n, vs)
    return {"rows": [[v, str(counts[v]), ctx.nstr(c * v**n / n, 70)] for v in vs]}


def cli_refs() -> dict:
    """Commands with exact output: sha256 of the library's stdout.  `count`
    and `constants`: expectations from the independent routes, then the
    library's stdout must pass the gate against them."""
    from mpmath import MPContext

    ctx = MPContext()
    ctx.prec = PREC
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    refs = {}
    for kind, pool in workloads.CLI_POOLS.items():
        for cmd in pool:
            argv = cmd.split()
            opts = workloads.cli_options(argv)
            res = subprocess.run([sys.executable, "-m", "latcensus.cli", *argv],
                                 capture_output=True, env=env, cwd=ROOT, timeout=600)
            if res.returncode != 0:
                raise SystemExit(f"{cmd}: exit {res.returncode}: {res.stderr.decode()[-300:]}")
            if kind == "constants":
                value = constant_value(ctx, opts["--name"], int(opts["--n"]))
                refs[cmd] = {"name": opts["--name"], "value": ctx.nstr(value, 70)}
            elif kind in workloads.CLI_CHECKS:
                refs[cmd] = count_expectation(ctx, kind, opts)
            else:
                refs[cmd] = {"sha256": workloads.stdout_digest(res.stdout),
                             "bytes": len(res.stdout)}
                continue
            miss = workloads.CLI_CHECKS[kind](opts, res.stdout, refs[cmd])
            if miss:
                raise SystemExit(f"{cmd}: library output fails its reference: {miss}")
        print(f"cli {kind}: {len(pool)} references", flush=True)
    return refs


def main(argv: list[str]) -> int:
    makers = {"census": census_refs, "constants": constants_refs, "cli": cli_refs}
    for name in argv or list(makers):
        refs = makers[name]()
        workloads.REFS_DIR.mkdir(exist_ok=True)
        path = workloads.REFS_DIR / f"{name}.json"
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(refs)} entries)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Counting formulas and their brute-force oracles.

Two independent routes are kept for every headline count:

* closed-form/multiplicative evaluation (`count_primitive_classes`,
  `count_cocyclic`, `count_squarefree`, `total_count`, `count_by_rank`),
  used at scale;
* literal oracles, used to verify the formulas exactly on the desk-scale
  grids: the class oracle `count_primitive_classes_bruteforce` (primitive
  vectors mod q from the gcd distribution of the residues, over phi(q)) and
  the enumeration oracles (`census_cocyclic_bruteforce`,
  `count_by_rank_bruteforce`, ...).  The canonical class representatives
  (`primitive_class_representatives`) serve the Paz-Schnorr bijection check
  and the sampler's support.

The census oracles (co-cyclic, squarefree, total, by rank) are views of one
stratified enumeration pass: `_rank_counts(n, q)` streams the HNF bases of
index q once, counts them by quotient rank from the F_p ranks of each basis
(p | q), memoized per (n, q), so every oracle and every bound V shares the
strata already computed.  Each view checks the count against its cap first.

The cumulative censuses up to index V take the fast route: a Dirichlet-series
floor-value evaluation of the total census T_n on the ~2 sqrt(V) values
V//j, corrected by a sum over powerful numbers, in O(n V^(3/4)) time and
O(sqrt(V)) memory (no sieve beyond sqrt(V)).  The same engine at n = 1
(T_1(x) = x) gives the abelian group class count of `groups`.  "Rank of
Z^n/L <= m" is multiplicative in the index (the rank is the largest local
rank), so `count_by_rank` is the difference of two powerful-number walks on
one floor-value table.  Its
estimated work, (n-1) V^(3/4) floor-value steps plus the ~2.2 sqrt(V)
powerful numbers for each walk over them, is checked against
DEFAULT_FLOOR_VALUE_CAP before anything is allocated, and CapExceededError
is raised above it.  The second route, `_multiplicative_sum`, sieves [1, V]
and sums the multiplicative count from its prime-power local factors in
O(V) time and memory; it is never the default and serves the tests and
`verify` as an exact cross-check.

`CENSUS` maps each census mode to its fast route, enumeration oracle and
density constant c(n, tol) (`constants`), whose leading term is
c(n, tol) V^n / n, for the CLI and `verify`.  The rank row's routes take
the rank as a second argument, (n, m, V), and it has no density constant.

All counts are arbitrary-precision integers end to end.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, product, repeat
from operator import add, mul
from typing import Callable, Iterator, Optional

from . import lattice
from .arith import (
    SIEVE_CAP,
    SieveTable,
    _aut_order_pgroup,
    _partitions_of,
    bernoulli,
    ensure_factored,
    euler_phi,
    is_squarefree,
    primes_upto,
)
from .constants import rho_n, theta_n, xi
from .errors import CapExceededError

DEFAULT_MATERIALIZE_CAP = 10**7
DEFAULT_ENUM_CAP = 10**8
DEFAULT_FLOOR_VALUE_CAP = 10**8


# ---------------------------------------------------------------------------
# classes of primitive vectors mod q  (= co-cyclic lattices of index q)
# ---------------------------------------------------------------------------


def _prime_power_class_count(n: int, p: int, e: int) -> int:
    # p^(e(n-1)) * (1 + (p^(n-1)-1)/(p^n - p^(n-1))), cleared to an integer
    pn1 = p ** (n - 1)
    geom = (pn1 - 1) // (p - 1)  # 1 + p + ... + p^(n-2)
    return pn1**e + pn1 ** (e - 1) * geom


def count_primitive_classes(n: int, q) -> int:
    """Closed-form number of unit-scaling classes of primitive vectors
    mod q, equivalently of co-cyclic sublattices of Z^n of index q:
    q^(n-1) * prod_{p|q} (1 + (p^(n-1)-1)/(p^n - p^(n-1))), exactly."""
    if n < 2:
        raise ValueError("count_primitive_classes requires n >= 2")
    f = ensure_factored(q)
    out = 1
    for p, e in f.factors:
        out *= _prime_power_class_count(n, p, e)
    return out


def _primitive_vector_count(n: int, q: int) -> int:
    """Exact count of primitive vectors mod q from the per-residue gcd
    distribution (one q-element scan, then an n-fold fold over the divisor
    lattice; no Moebius inversion and no multiplicativity in q)."""
    base = Counter(map(math.gcd, range(q), repeat(q))).items()
    dist = {q: 1}
    for _ in range(n):
        new: dict[int, int] = {}
        for gcur, cnt in dist.items():
            for d, c in base:
                key = math.gcd(gcur, d)
                new[key] = new.get(key, 0) + cnt * c
        dist = new
    return dist.get(1, 0)


def count_primitive_classes_bruteforce(n: int, q: int) -> int:
    """Oracle count of primitive classes mod q, independent of the formula:
    the primitive vectors mod q, counted exactly by the gcd-distribution
    scan, over the class size phi(q) (the unit action on primitive vectors
    is free; the division is checked to be exact).  The scan holds one
    entry per residue, so q above arith.SIEVE_CAP raises CapExceededError
    before it allocates."""
    if n < 2:
        raise ValueError("count_primitive_classes_bruteforce requires n >= 2")
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > SIEVE_CAP:
        raise CapExceededError(f"modulus {q} exceeds the scan cap {SIEVE_CAP}")
    npv = _primitive_vector_count(n, q)
    phi = euler_phi(q)
    if npv % phi:
        raise RuntimeError("unit action on primitive vectors is not free")
    return npv // phi


def primitive_class_representatives(n: int, q: int) -> list[tuple[int, ...]]:
    """One canonical vector per primitive class mod q, in lexicographic
    order: the lexicographically smallest of the class's unit scalings.

    Its leading nonzero entry is d = gcd(entry, q), the least residue the
    units take that entry to, so only vectors leading with a divisor d < q
    are scanned, each against the units that fix d (those = 1 mod q/d).
    The scan's work, q^n vectors times (n components + phi(q) unit
    scalings), above DEFAULT_MATERIALIZE_CAP raises CapExceededError before
    anything is built (n >= 1, q >= 1).
    """
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    size = q**n
    # the q^n test alone refuses a huge q before euler_phi factors it
    if size > DEFAULT_MATERIALIZE_CAP or size * (n + euler_phi(q)) > DEFAULT_MATERIALIZE_CAP:
        raise CapExceededError(
            f"class scan of {q}^{n} vectors times ({n} + phi({q})) exceeds cap {DEFAULT_MATERIALIZE_CAP}"
        )
    if q == 1:
        return [(0,) * n]
    fixing = [(d, [lam for lam in range(1 + q // d, q, q // d) if math.gcd(lam, q) == 1])
              for d in range(1, q) if q % d == 0]
    out = []
    for lead in reversed(range(n)):  # more leading zeros first
        for d, units in fixing:
            head = (0,) * lead + (d,)
            for rest in product(range(q), repeat=n - 1 - lead):
                if d == 1 or (
                    math.gcd(d, *rest) == 1 and all(rest <= tuple(lam * x % q for x in rest) for lam in units)
                ):
                    out.append(head + rest)
    return out


# ---------------------------------------------------------------------------
# cumulative censuses up to index V
# ---------------------------------------------------------------------------


# Fast route.  The index-q census c_n(q) of all sublattices has Dirichlet
# series zeta(s) zeta(s-1) ... zeta(s-n+1), so c_n = c_(n-1) * Id^(n-1) and
#     T_n(x) = sum_{d<=x} d^(n-1) T_(n-1)(x//d),    T_1(x) = x,
# for the summatory T_n(x) = sum_{q<=x} c_n(q).  Every x//d reached from
# x = V is again some V//j, so T_n is built level by level on the floor
# values {V//j} by the hyperbola method, O(V^(3/4)) per level.  A census
# whose local series at p is F_p(X) = sum_e f(p^e) X^e factors as T_n * H,
# H_p(X) = F_p(X) prod_{i<n} (1 - p^i X).  Co-cyclic and all lattices agree
# at prime index, so H(p) = 0, H lives on powerful numbers, and
#     sum_{q<=V} f(q) = sum_{h powerful <= V} H(h) T_n(V//h).
#
# Second route.  `_multiplicative_sum` factors every q <= V with a sieve of
# [1, V] and sums f(q) from the same local factors, O(V) time and memory.
# Tests and `verify` compare the two routes exactly; it is never the default.


def _local_factor(mode: str, n: int) -> Callable[[int, int], int]:
    """f(p^e), e >= 1, of the census `mode` ("cyclic", "squarefree", "all")."""
    if mode == "cyclic":
        return lambda p, e: _prime_power_class_count(n, p, e)
    if mode == "squarefree":
        return lambda p, e: _prime_power_class_count(n, p, 1) if e == 1 else 0
    if mode == "all":
        return lambda p, e: lattice._count_prime_power(n, p, e)
    raise ValueError(f"unknown census mode {mode!r}")


def _rank_factor(n: int, m: int) -> Callable[[int, int], int]:
    """f(p^e), e >= 1, of the census of quotient rank <= m: the lattices with
    quotient G_lam (lam a partition of e with l(lam) <= m parts) number the
    surjections Z^n -> G_lam, p^(n(e-l)) prod_{i<l} (p^n - p^i), over
    #Aut(G_lam).  The product vanishes for l > n, so m >= n is the total
    census."""

    def local(p: int, e: int) -> int:
        total = 0
        for lam in _partitions_of(e):
            l = len(lam)
            if l <= m:
                surj = p ** (n * (e - l)) * math.prod(p**n - p**i for i in range(l))
                total += surj // _aut_order_pgroup.__wrapped__(p, lam)
        return total

    return local


def _multiplicative_sum(V: int, local: Callable[[int, int], int]) -> int:
    """Second route: sum of f(q) over q <= V for the multiplicative f with
    f(p^e) = local(p, e), factoring each q with a sieve of [1, V] (local is
    memoized per prime power, at most V entries like the sieve)."""
    spf = SieveTable(max(V, 2)).spf
    local = cache(local)
    total = 0
    for q in range(1, V + 1):
        k = q
        a = 1
        while k > 1 and a:
            p = spf[k]
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            a *= local(p, e)
        total += a
    return total


@cache
def _faulhaber(j: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients a_0..a_(j+1) and denominator D such that
    sum_{i<=m} i^j == (sum_k a_k m^k) // D, from the Bernoulli numbers."""
    bern = [bernoulli(m) for m in range(j + 1)]
    if j >= 1:
        bern[1] = -bern[1]  # B_1 = +1/2 sums over 1..m rather than 0..m-1
    coeffs = [Fraction(0)] * (j + 2)
    for k in range(j + 1):
        coeffs[j + 1 - k] = math.comb(j + 1, k) * bern[k] / (j + 1)
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * den) for c in coeffs), den


def _power_sum(j: int, m: int) -> int:
    """1^j + 2^j + ... + m^j, exactly."""
    coeffs, den = _faulhaber(j)
    acc = 0
    for c in reversed(coeffs):
        acc = acc * m + c
    return acc // den


def _check_census(name: str, n: int, V: int, n_min: int, walks: int) -> None:
    """Argument and cap checks; `walks` counts the caller's _powerful_sum walks."""
    if n < n_min:
        raise ValueError(f"{name} requires n >= {n_min}")
    if V < 1:
        raise ValueError("V must be >= 1")
    work = (n - 1) * math.isqrt(V) * math.isqrt(math.isqrt(V))  # ~V^(3/4) per level
    work += walks * 11 * math.isqrt(V)  # ~2.2 sqrt(V) powerful h, each ~5 steps' time
    if work > DEFAULT_FLOOR_VALUE_CAP:
        raise CapExceededError(
            f"census at n={n}, V={V} needs about {work} floor-value steps, "
            f"over cap {DEFAULT_FLOOR_VALUE_CAP}"
        )


def _census_table(n: int, V: int) -> Callable[[int], int]:
    """T_n(V//h) as a function of h, for every h in 1..V.

    T_k is kept at y <= s = isqrt(V) (`small`, with c_k pointwise in
    `point`) and at V//j for j <= s (`large`).  Level k follows from level
    k-1 by the hyperbola method,
        T_k(x) = sum_{d<=r} d^(k-1) T_(k-1)(x//d)
               + sum_{m<=r} c_(k-1)(m) P_(k-1)(x//m) - P_(k-1)(r) T_(k-1)(r),
    r = isqrt(x), P_j(y) = sum_{i<=y} i^j.  The top level's `large` values
    are computed only when asked for.
    """
    top = lambda j: V // j  # T_1(V//j)
    if n == 1:
        return top
    s = math.isqrt(V)
    point = [0] + [1] * s
    small = list(range(s + 1))
    for k in range(2, n + 1):
        large = [0] + [top(j) for j in range(1, s + 1)]
        pw = [d ** (k - 1) for d in range(s + 1)]
        p_small = list(accumulate(pw))
        p_large = [0] + [_power_sum(k - 1, V // j) for j in range(1, s + 1)]
        top = _hyperbola(V, pw, p_small, p_large, point, small, large)
        # c_k = c_(k-1) * Id^(k-1) pointwise on [1, s]
        conv = [0] * (s + 1)
        for d in range(1, s + 1):
            w = pw[d]
            for m in range(1, s // d + 1):
                conv[d * m] += w * point[m]
        point = conv
        small = list(accumulate(point))
    return lambda h: small[V // h] if V // h <= s else top(h)


def _hyperbola(V, pw, p_small, p_large, point, small, large) -> Callable[[int], int]:
    """T_k(V//j) for j <= isqrt(V), from the level k-1 tables."""
    s = len(small) - 1

    def value(j: int) -> int:
        x = V // j
        r = math.isqrt(x)
        cut = min(r, s // j)  # d <= cut: x//d = V//(jd) with jd <= s
        acc = sum(map(mul, pw[1 : cut + 1], large[j : j * cut + 1 : j]))
        acc += sum(map(mul, point[1 : cut + 1], p_large[j : j * cut + 1 : j]))
        for d in range(cut + 1, r + 1):
            y = x // d
            acc += pw[d] * small[y] + point[d] * p_small[y]
        return acc - p_small[r] * small[r]

    return value


def _powerful_sum(
    n: int, V: int, local: Callable[[int, int], int], census: Optional[Callable[[int], int]] = None
) -> int:
    """Fast route: sum of f(q) over q <= V, f multiplicative with
    f(p^e) = local(p, e), as sum_{h powerful <= V} H(h) T_n(V//h);
    `census` is the _census_table(n, V) to reuse, if one is built."""
    census = census or _census_table(n, V)
    primes = primes_upto(math.isqrt(V))
    h_cache: dict[int, list[int]] = {}

    def h_series(p: int) -> list[int]:
        # H(p^e) for p^e <= V: coefficients of F_p(X) * prod_{i<n} (1 - p^i X)
        if p not in h_cache:
            top = 1
            while p ** (top + 1) <= V:
                top += 1
            f = [1] + [local(p, e) for e in range(1, top + 1)]
            b = [1]
            for i in range(n):
                b = [x - p**i * y for x, y in zip(b + [0], [0] + b)]
            h = [sum(b[t] * f[e - t] for t in range(min(e, n) + 1)) for e in range(top + 1)]
            if h[1]:
                raise RuntimeError(f"local factor at p={p} differs from the total census")
            h_cache[p] = h
        return h_cache[p]

    total = 0
    stack = [(0, 1, 1)]  # (first prime index still free, h, H(h))
    while stack:
        i, h, coef = stack.pop()
        total += coef * census(h)
        for j in range(i, len(primes)):
            p = primes[j]
            hp = h * p * p
            if hp > V:
                break
            hs = h_series(p)
            e = 2
            while hp <= V:
                if hs[e]:
                    stack.append((j + 1, hp, coef * hs[e]))
                hp *= p
                e += 1
    return total


def count_cocyclic(n: int, V: int) -> int:
    """Number of co-cyclic sublattices of Z^n of index <= V: the sum of
    count_primitive_classes(n, q) over q <= V (fast route)."""
    _check_census("count_cocyclic", n, V, 2, 1)
    return _powerful_sum(n, V, _local_factor("cyclic", n))


def count_squarefree(n: int, V: int) -> int:
    """Co-cyclic census restricted to squarefree index q <= V (fast route)."""
    _check_census("count_squarefree", n, V, 2, 1)
    return _powerful_sum(n, V, _local_factor("squarefree", n))


def total_count(n: int, V: int) -> int:
    """All full-rank sublattices of Z^n of index <= V, exactly (fast route)."""
    _check_census("total_count", n, V, 1, 0)
    return _census_table(n, V)(1)


def count_by_rank(n: int, m: int, V: int) -> int:
    """Sublattices of Z^n of index <= V whose quotient needs exactly m
    generators (fast route): the rank <= m census minus the rank <= m-1
    census, both on one floor-value table.  Rank <= 0 is the lattice Z^n
    alone, and rank <= n is every lattice (`total_count`)."""
    if m < 0:
        raise ValueError("rank must be >= 0")
    walks = sum(0 < k < n for k in (m - 1, m))  # rank <= 0 and rank <= n walk nothing
    _check_census("count_by_rank", n, V, 1, walks)
    if m > n:
        return 0
    if m == 0:
        return 1
    census = _census_table(n, V)

    def at_most(k: int) -> int:
        if k == 0:
            return 1
        if k == n:
            return census(1)
        return _powerful_sum(n, V, _rank_factor(n, k), census)

    return at_most(m) - at_most(m - 1)


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------


@cache
def _rank_counts(n: int, q: int) -> tuple[int, ...]:
    """Index-q stratum of the enumeration oracle: entry r counts the
    sublattices of Z^n of index q whose quotient needs exactly r generators:
    the F_p ranks of each enumerated HNF basis, largest over p | q.  A prime
    dividing k < 2 pivots of a diagonal gives all its bases F_p rank k, so
    `lattice._p_rank` runs per basis only for the other primes.  Bases are
    streamed, never stored; the memo holds one (n+1)-tuple per (n, q), so any
    V reuses the strata of every smaller bound."""
    primes = [p for p, _ in ensure_factored(q).factors]
    counts = [0] * (n + 1)
    for diag, bases in lattice._diagonal_blocks(n, q):
        pivots = [sum(d % p == 0 for d in diag) for p in primes]
        low = max([k for k in pivots if k < 2], default=0)
        high = [p for p, k in zip(primes, pivots) if k >= 2]
        if not high:  # no per-basis test; each basis is still built and counted
            counts[low] += sum(1 for _ in bases)
        for rows in bases:  # already drained when high is empty
            counts[max([low] + [lattice._p_rank(rows, p) for p in high])] += 1
    return tuple(counts)


def _strata(n: int, V: int, cap: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(q, _rank_counts(n, q)) for q <= V, after the enumeration cap check."""
    _guard_enumeration(n, V, cap)
    return ((q, _rank_counts(n, q)) for q in range(1, V + 1))


def census_cocyclic_bruteforce(n: int, V: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count co-cyclic lattices of index <= V by full enumeration plus the
    F_p ranks of each basis, independent of every closed form."""
    return sum(c[0] + c[1] for _, c in _strata(n, V, cap))


def census_squarefree_bruteforce(n: int, V: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count lattices of squarefree index <= V by enumeration, verifying from
    the F_p ranks of each basis that its quotient is cyclic."""
    total = 0
    for q, c in _strata(n, V, cap):
        if not is_squarefree(q):
            continue
        if any(c[2:]):
            raise RuntimeError(f"squarefree index {q} gave a non-cyclic quotient")
        total += sum(c)
    return total


def census_total_bruteforce(n: int, V: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count all lattices of index <= V by literal enumeration (the F_p-rank pass)."""
    return sum(sum(c) for _, c in _strata(n, V, cap))


def count_by_rank_bruteforce(n: int, m: int, V: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Lattices of index <= V whose quotient needs exactly m generators,
    by enumeration + the F_p ranks of each basis."""
    if m < 0:
        raise ValueError("rank must be >= 0")
    return sum(c[m] if m <= n else 0 for _, c in _strata(n, V, cap))


def counts_by_rank_bruteforce(n: int, V: int, cap: int = DEFAULT_ENUM_CAP) -> dict[int, int]:
    """Full rank stratification {m: count} of the index <= V census (ranks
    that occur only), from the F_p ranks of each basis."""
    totals = [0] * (n + 1)
    for _, c in _strata(n, V, cap):
        totals = list(map(add, totals, c))
    return {r: t for r, t in enumerate(totals) if t}


def _guard_enumeration(n: int, V: int, cap: int) -> None:
    if n < 1 or V < 1:
        raise ValueError("need n >= 1 and V >= 1")
    total = total_count(n, V)  # O(V^(3/4)) under its own cap; no (V+1)-entry table
    if total > cap:
        raise CapExceededError(f"enumerating {total} lattices exceeds cap {cap}")


# mode -> (fast route, enumeration oracle, density constant c(n, tol)); the
# leading term of the census is c(n, tol) V^n / n
CENSUS = {
    "cyclic": (count_cocyclic, census_cocyclic_bruteforce, theta_n),
    "squarefree": (count_squarefree, census_squarefree_bruteforce, rho_n),
    "all": (total_count, census_total_bruteforce, lambda n, tol: xi(2, n, tol)),
    "rank": (count_by_rank, count_by_rank_bruteforce, None),  # both take (n, m, V)
}


"""Counting formulas and their brute-force oracles.

Every census is one `Census` record, built by `census(mode, n, m)`: the
sublattices L of Z^n of index <= V with rank(Z^n/L) in [low, high], of
squarefree index only if asked.  Co-cyclic is [0, 1], all is [0, n], rank m
is [m, m], and squarefree is [0, 1] at squarefree index.  Rank <= k is
multiplicative in the index (the rank is the largest local rank), so each
record is its rank <= high part minus its rank <= low-1 part, each summed by
three independent routes:

* `count`, the fast route: a Dirichlet-series floor-value evaluation of the
  total census T_n on the ~2 sqrt(V) values V//j, corrected by a sum over
  powerful numbers, in O(n V^(3/4)) time and O(sqrt(V)) memory.  Its
  estimated work is checked against DEFAULT_FLOOR_VALUE_CAP before anything
  is allocated, and CapExceededError is raised above it.  The same engine at
  n = 1 (T_1(x) = x) gives the abelian group class count of `groups`;
* `sieve`, the second route: `_multiplicative_sum` walks the q <= V
  (`arith._order_walk`) and sums its own prime-power local factors, the
  cotype counts (`_cotype_factor`), in O(V) time and pi(V) entries, no
  V-entry table, for the tests and `verify`, memoized per
  (n, k, squarefree, V), so the records of one (n, V) share each rank <= k part;
* `oracle`, the enumeration: `_rank_counts(n, q)` streams the HNF bases of
  index q once and counts them by quotient rank from their F_p ranks
  (p | q), memoized per (n, q), so every record and every bound V share the
  strata already computed; the count is checked against its cap first.

The record's density c(n, tol) gives the leading term c V^n / n.  Its first
call loads `constants` and the first oracle call `lattice`, both reached
through the package namespace, so an exact count loads neither.
`count_cocyclic`, `count_squarefree`, `total_count`, `count_by_rank` and the
`*_bruteforce` views read the records.  The class count at one index q,
`count_primitive_classes`, has its own oracle, `count_primitive_classes_bruteforce`
(primitive vectors mod q from the gcd distribution of the residues, over
phi(q)); `primitive_class_representatives` serves the Paz-Schnorr bijection
check and the sampler's support.

All counts are arbitrary-precision integers end to end.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, product, repeat
from operator import mul
from typing import Callable, Optional

import latcensus

from .arith import (
    SIEVE_CAP,
    _aut_order_pgroup,
    _order_walk,
    _partitions_of,
    bernoulli,
    ensure_factored,
    euler_phi,
    is_squarefree,
    primes_upto,
)
from .errors import CapExceededError

DEFAULT_MATERIALIZE_CAP = 10**7
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


def _local(n: int, k: int, squarefree: bool) -> Callable[[int, int], int]:
    """f(p^e), e >= 1, of the rank <= k part, k > 0, of squarefree index only
    if asked: the fast route's local factor."""
    if squarefree:  # every lattice of index p has rank <= 1
        return lambda p, e: _prime_power_class_count(n, p, 1) if e == 1 else 0
    if k == 1:
        return lambda p, e: _prime_power_class_count(n, p, e)
    return _rank_factor(n, k)


def _cotype_count(n: int, p: int, c: tuple[int, ...]) -> int:
    """The sublattices L of Z_p^n with Z_p^n/L = G_lam, lam the conjugate of
    the partition c, from c alone (Birkhoff's subgroup count read off the dual):
    prod_{i>=1} p^(c_(i+1) (n - c_i)) [n - c_(i+1) choose c_i - c_(i+1)]_p.
    No automorphism order and no surjection count enters."""
    if c[0] > n:  # lam has more than n parts: no quotient of Z^n
        return 0
    out = 1
    for a, b in zip(c, c[1:] + (0,)):
        out *= p ** (b * (n - a))
        for i in range(a - b):  # [n - b choose a - b]_p, each partial product an integer
            out = out * (p ** (n - b - i) - 1) // (p ** (i + 1) - 1)
    return out


def _cotype_factor(n: int, k: int, squarefree: bool) -> Callable[[int, int], int]:
    """f(p^e), e >= 1, of the rank <= k part from the cotype counts, one per
    partition c of e with c_1 <= k (lam, the conjugate of c, has at most k
    parts): the second route's own local factor, sharing nothing with `_local`."""
    return lambda p, e: 0 if squarefree and e > 1 else sum(
        [_cotype_count(n, p, c) for c in _partitions_of(e) if c[0] <= k]
    )


@cache
def _multiplicative_sum(n: int, k: int, squarefree: bool, V: int) -> int:
    """Second route: sum of f(q) over q <= V for the multiplicative f with
    f(p^e) = _cotype_factor(n, k, squarefree)(p, e), by `arith._order_walk`:
    each node N adds f(N) (1 + the sum of f(p) over its leaf primes, a
    difference of prefix sums).  O(V) time, pi(V) entries, no V-entry table."""
    primes = primes_upto(V)
    local = cache(_cotype_factor(n, k, squarefree))
    prefix = list(accumulate(map(local.__wrapped__, primes, repeat(1)), initial=0))
    walk = _order_walk(V, primes, 1, lambda f, p, e: f * local(p, e))
    return sum(f * (1 + prefix[hi] - prefix[lo]) for f, lo, hi in walk)


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


def _check_census(n: int, V: int, walks: int) -> None:
    """The floor-value work cap, V >= 1; `walks` counts the caller's _powerful_sum walks."""
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


def _h_series(n: int, p: int, local: Callable[[int, int], int], top: int) -> list[int]:
    """H(p^e) for e <= top: the coefficients of F_p(X) prod_{i<n} (1 - p^i X),
    F_p(X) = 1 + sum_e local(p, e) X^e, the census over the total census at p."""
    f = [1] + [local(p, e) for e in range(1, top + 1)]
    b = [1]
    for i in range(n):
        b = [x - p**i * y for x, y in zip(b + [0], [0] + b)][: top + 1]
    return [sum(b[t] * f[e - t] for t in range(min(e, n) + 1)) for e in range(top + 1)]


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
        if p not in h_cache:
            top = 1
            while p ** (top + 1) <= V:
                top += 1
            h = h_cache[p] = _h_series(n, p, local, top)
            if h[1]:
                raise RuntimeError(f"local factor at p={p} differs from the total census")
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


# ---------------------------------------------------------------------------
# census records and the enumeration strata
# ---------------------------------------------------------------------------


@cache
def _rank_counts(n: int, q: int) -> tuple[int, ...]:
    """Index-q stratum of the enumeration oracle: entry r counts the
    sublattices of Z^n of index q whose quotient needs exactly r generators:
    the F_p ranks of each enumerated HNF basis, largest over p | q.  A prime
    dividing k < 2 pivots of a diagonal gives all its bases F_p rank k, so
    `lattice._p_rank` runs per basis only for the other primes, with the row
    indices split once per diagonal into the pivots p divides and the rest;
    a diagonal with one such prime tallies its F_p ranks in one Counter.
    Bases are streamed, never stored; the memo holds one (n+1)-tuple per
    (n, q), so any V reuses the strata of every smaller bound."""
    primes = [p for p, _ in ensure_factored(q).factors]
    counts = [0] * (n + 1)
    p_rank = latcensus.lattice._p_rank
    for diag, bases in latcensus.lattice._diagonal_blocks(n, q):
        divisible = [(p, [i for i, d in enumerate(diag) if d % p == 0]) for p in primes]
        low = max([len(div) for _, div in divisible if len(div) < 2], default=0)
        high = [(p, div, [i for i in range(n) if i not in div]) for p, div in divisible if len(div) >= 2]
        if not high:  # no per-basis test; each basis is still built and counted
            counts[low] += sum(map(bool, bases))
        elif len(high) == 1:
            for r, c in Counter(map(p_rank, bases, *map(repeat, high[0]))).items():
                counts[max(low, r)] += c
        for rows in bases:  # already drained unless two or more primes need the test
            counts[max([low] + [p_rank(rows, *split) for split in high])] += 1
    return tuple(counts)


def _guard_enumeration(n: int, V: int) -> None:
    cap = latcensus.lattice.DEFAULT_ENUM_CAP
    if (total := total_count(n, V)) > cap:  # O(V^(3/4)) under its own cap; no (V+1)-entry table
        raise CapExceededError(f"enumerating {total} lattices exceeds cap {cap}")


class Census:
    """The sublattices L of Z^n with rank(Z^n/L) in [low, high], of
    squarefree index only if `squarefree`, counted by index (see the module
    docstring); `density` is tol -> c(n, tol), the constant of the leading
    term c V^n / n, or None.  Built by `census`."""

    __slots__ = ("mode", "n", "low", "high", "squarefree", "density")

    def __init__(self, mode: str, n: int, low: int, high: int, squarefree: bool, density) -> None:
        self.mode, self.n, self.low, self.high = mode, n, low, high
        self.squarefree, self.density = squarefree, density

    def _ends(self, V: int) -> tuple[int, ...]:
        """(high, low - 1) clamped to n, or () when the interval is empty.
        Every route reads it first, so all three refuse V < 1 alike."""
        if V < 1:
            raise ValueError("V must be >= 1")
        high = min(self.high, self.n)
        low = min(self.low - 1, high)
        return (high, low) if low < high else ()

    def _between(self, ends: tuple[int, ...], at_most: Callable[[int], int]) -> int:
        """The census from at_most(k), 0 < k <= n; rank <= 0 is Z^n alone, rank <= -1 empty."""
        parts = [at_most(k) if k > 0 else k + 1 for k in ends]
        return parts[0] - parts[1] if parts else 0

    def count(self, V: int) -> int:
        """Fast route: one floor-value table, and a powerful-number walk per part of rank 0 < k < n."""
        n, ends = self.n, self._ends(V)
        _check_census(n, V, sum(0 < k < n for k in ends))
        table = _census_table(n, V) if any(k > 0 for k in ends) else None
        walk = lambda k: table(1) if k == n else _powerful_sum(n, V, _local(n, k, self.squarefree), table)
        return self._between(ends, walk)

    def sieve(self, V: int) -> int:
        """Second route: each part on `_multiplicative_sum`."""
        return self._between(self._ends(V), lambda k: _multiplicative_sum(self.n, k, self.squarefree, V))

    def oracle(self, V: int) -> int:
        """Enumeration: the strata of rank low..high, independent of every closed form."""
        self._ends(V)  # the V check of count and sieve
        _guard_enumeration(self.n, V)
        total = 0
        for q in range(1, V + 1):
            c = _rank_counts(self.n, q)
            if self.squarefree:
                if not is_squarefree(q):
                    continue
                if any(c[2:]):
                    raise RuntimeError(f"squarefree index {q} gave a non-cyclic quotient")
            total += sum(c[self.low : self.high + 1])
        return total


def census(mode: str, n: int, m: Optional[int] = None) -> Census:
    """The census record of `mode`: "cyclic" (quotient rank <= 1; density
    theta_n), "squarefree" (rank <= 1 at squarefree index; rho_n), "all"
    (rank <= n; xi(2, n)) or "rank" (rank exactly m, given for this mode
    alone; no density yet).  No density is given for n < 2, and n below the
    mode's least dimension (2 for cyclic and squarefree, else 1) raises."""
    if (mode == "rank") != (m is not None):
        raise ValueError("mode 'rank' needs a rank m, and no other mode takes one")
    if mode == "rank":
        low, high, squarefree, density = m, m, False, None
    elif mode == "cyclic":
        low, high, squarefree, density = 0, 1, False, lambda tol: latcensus.constants.theta_n(n, tol)
    elif mode == "squarefree":
        low, high, squarefree, density = 0, 1, True, lambda tol: latcensus.constants.rho_n(n, tol)
    elif mode == "all":
        low, high, squarefree, density = 0, n, False, lambda tol: latcensus.constants.xi(2, n, tol)
    else:
        raise ValueError(f"unknown census mode {mode!r}")
    if low < 0:
        raise ValueError("rank must be >= 0")
    if n < (n_min := 2 if mode in ("cyclic", "squarefree") else 1):
        raise ValueError(f"the {mode} census requires n >= {n_min}")
    return Census(mode, n, low, high, squarefree, density if n >= 2 else None)


def count_cocyclic(n: int, V: int) -> int:
    """Number of co-cyclic sublattices of Z^n of index <= V: the sum of
    count_primitive_classes(n, q) over q <= V (fast route)."""
    return census("cyclic", n).count(V)


def count_squarefree(n: int, V: int) -> int:
    """Co-cyclic census restricted to squarefree index q <= V (fast route)."""
    return census("squarefree", n).count(V)


def total_count(n: int, V: int) -> int:
    """All full-rank sublattices of Z^n of index <= V, exactly (fast route)."""
    return census("all", n).count(V)


def count_by_rank(n: int, m: int, V: int) -> int:
    """Sublattices of Z^n of index <= V whose quotient needs exactly m generators (fast route)."""
    return census("rank", n, m).count(V)


def census_cocyclic_bruteforce(n: int, V: int) -> int:
    """Co-cyclic lattices of index <= V by enumeration."""
    return census("cyclic", n).oracle(V)


def census_squarefree_bruteforce(n: int, V: int) -> int:
    """Lattices of squarefree index <= V by enumeration."""
    return census("squarefree", n).oracle(V)


def census_total_bruteforce(n: int, V: int) -> int:
    """All lattices of index <= V by enumeration."""
    return census("all", n).oracle(V)


def count_by_rank_bruteforce(n: int, m: int, V: int) -> int:
    """Lattices of index <= V whose quotient needs exactly m generators, by enumeration."""
    return census("rank", n, m).oracle(V)


def counts_by_rank_bruteforce(n: int, V: int) -> dict[int, int]:
    """{m: count} over the ranks m that occur at index <= V, by enumeration."""
    ranks = range(max(n, 0) + 1)  # n < 1 still reaches the enumeration guard
    return {m: c for m in ranks if (c := census("rank", n, m).oracle(V))}

"""Exact integer arithmetic and multiplicative functions.

Everything here is exact: counts are Python ints of arbitrary precision and
ratios are `fractions.Fraction` in lowest terms.  Floating point appears only
in the explicitly error-bounded large-argument paths of `landau_sum` /
`ward_sum`, which return ErrBoundedReal (`errbound`, loaded on their first call).

Prime lists come from `primes_upto`, a bytearray sieve of Eratosthenes.
The factorization workhorse is a smallest-prime-factor table (`SieveTable`,
a read-only view of 32-bit `array` entries, O(limit) memory, O(log k)
factorization per query).  The tables are lists, bytearrays and arrays of
the standard library.  Both sieves check their limit against SIEVE_CAP
before anything is allocated; a larger request raises CapExceededError.
`factorize` is trial division, which stops at TRIAL_DIVISION_LIMIT, so a
number with a large cofactor raises CapExceededError instead of running for
hours.  `_order_walk`, the walk over the N <= V by prime factorization, is
shared by the census's second route and both group-mass routes.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import latcensus

from .errors import CapExceededError

# Largest sieve limit: 80 MB of int32 entries, above the largest in-package
# use (1.6e7 primes for prime_log_weight_sum at its tightest tolerance).
SIEVE_CAP = 2 * 10**7
# Largest trial divisor (about a second of Python work): a cofactor below its
# square left after trial division is prime, a larger one is refused.
TRIAL_DIVISION_LIMIT = 10**7

# landau_sum, ward_sum and groups.cl_total_mass return exact rationals up to
# this bound and switch to error-bounded floating accumulation above it (exact
# denominators blow up).
EXACT_SUM_LIMIT = 10**4

_FLOAT_EPS = 2.0**-52


def _check_sieve_limit(limit: int) -> None:
    if limit > SIEVE_CAP:
        raise CapExceededError(f"sieve limit {limit} exceeds cap {SIEVE_CAP}")


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, ascending ([] below 2): a sieve of Eratosthenes
    on one byte per odd number, refused above SIEVE_CAP before allocating."""
    _check_sieve_limit(limit)
    if limit < 2:
        return []
    half = (limit - 1) // 2  # byte i stands for 2i + 1
    odd_prime = bytearray(b"\x01") * (half + 1)
    odd_prime[0] = 0
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd_prime[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd_prime[start::p] = bytes((half - start) // p + 1)
    return [2, *itertools.compress(range(1, limit + 1, 2), odd_prime)]


def _order_walk(V: int, primes: list[int], root, child):
    """Depth-first walk over the N <= V by prime factorization (`primes`: the
    primes <= V, ascending), yielding (node, lo, hi) per N reached.  node is
    child(node of M, p, e) for N = M p^e, p above M's largest prime (root at
    N = 1); primes[lo:hi], hi >= lo, are the p above N's largest prime with
    N p <= V < N p^2, the leaves N p that the caller takes as one batch."""
    stack = [(1, root, 0)] if V >= 1 else []  # (N, node, index of the least prime allowed)
    while stack:
        N, node, j = stack.pop()
        lo = max(j, bisect.bisect_right(primes, math.isqrt(V // N)))
        yield node, lo, max(lo, bisect.bisect_right(primes, V // N))
        for i in range(j, lo):
            p, m, e = primes[i], N * primes[i], 1
            while m <= V:
                stack.append((m, child(node, p, e), i + 1))
                m, e = m * p, e + 1


class SieveTable:
    """Smallest-prime-factor table for 2 <= k <= limit.

    spf[k] is the smallest prime factor of k; spf[p] == p exactly when p is
    prime.  spf is a read-only memoryview of 32-bit ints.
    """

    __slots__ = ("limit", "spf")

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        _check_sieve_limit(limit)
        self.limit = limit
        spf = array("i", [2, 0]) * (limit // 2 + 1)  # even k: 2; odd k: unknown
        del spf[limit + 1 :]
        spf[0] = 0
        # odd multiples of each odd p <= sqrt(limit); descending, so the
        # smallest prime factor writes last
        for p in reversed(primes_upto(math.isqrt(limit))[1:]):
            spf[p * p :: 2 * p] = array("i", [p]) * len(range(p * p, limit + 1, 2 * p))
        for p in primes_upto(limit):
            spf[p] = p
        self.spf = memoryview(spf).toreadonly()

    def primes(self) -> list[int]:
        """All primes <= limit, ascending (`primes_upto(limit)`)."""
        return primes_upto(self.limit)

    def factor_pairs(self, k: int) -> list[tuple[int, int]]:
        """(prime, exponent) pairs of k <= limit, primes ascending."""
        if not 1 <= k <= self.limit:
            raise ValueError(f"{k} outside sieve range [1, {self.limit}]")
        spf = self.spf
        out = []
        while k > 1:
            p = spf[k]
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            out.append((p, e))
        return out

    def factorize(self, k: int) -> "FactoredInt":
        return FactoredInt(k, tuple(self.factor_pairs(k)))


class _Frozen:
    """Immutable value over __slots__: each field is set once, with
    object.__setattr__, and equality, hash and repr go by the fields in slot
    order (hash of the field tuple, repr as Name(field=value, ...))."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FactoredInt(_Frozen):
    """A positive integer with its full prime factorization.

    factors is ((p1, e1), (p2, e2), ...) with p1 < p2 < ... and ei >= 1;
    value == prod(p**e).  value == 1 iff factors is empty.
    """

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]):
        if value < 1:
            raise ValueError("FactoredInt must be a positive integer")
        prod = 1
        last_p = 1
        for p, e in factors:
            if p <= last_p:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            prod *= p**e
            last_p = p
        if prod != value:
            raise ValueError("factors do not multiply back to value")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "factors", factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)

    def __int__(self) -> int:
        return self.value


def factorize(n: int) -> FactoredInt:
    """Factor n >= 1 by trial division by d <= TRIAL_DIVISION_LIMIT; a
    cofactor above TRIAL_DIVISION_LIMIT^2 with no such divisor raises
    CapExceededError."""
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    factors = []
    m = n
    for d in itertools.chain((2,), range(3, TRIAL_DIVISION_LIMIT + 1, 2)):
        if d * d > m:
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
    else:
        if m > TRIAL_DIVISION_LIMIT**2:
            raise CapExceededError(
                f"{n} has a cofactor with no prime factor <= {TRIAL_DIVISION_LIMIT} "
                f"above the trial-division cap {TRIAL_DIVISION_LIMIT}^2"
            )
    if m > 1:
        factors.append((m, 1))
    return FactoredInt(n, tuple(factors))


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Whether p is prime, by `factorize` (memoized per p)."""
    return p >= 2 and factorize(p).factors == ((p, 1),)


def ensure_factored(n) -> FactoredInt:
    if isinstance(n, FactoredInt):
        return n
    return factorize(int(n))


# ---------------------------------------------------------------------------
# multiplicative functions
# ---------------------------------------------------------------------------


def mobius(n) -> int:
    """Moebius function: 0 on non-squarefree, else (-1)^(#prime factors)."""
    f = ensure_factored(n)
    if any(e >= 2 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def euler_phi(n) -> int:
    """Euler totient via phi(q) = q * prod_{p|q} (1 - 1/p), exactly."""
    f = ensure_factored(n)
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def omega(n) -> int:
    """Number of distinct prime divisors."""
    return len(ensure_factored(n).factors)


def is_squarefree(n) -> bool:
    return all(e == 1 for _, e in ensure_factored(n).factors)


def fn_weight(n: int, d) -> Fraction:
    """Multiplicative weight on squarefree integers with local value
    (p^(n-1) - 1) / (p^n - p^(n-1)); zero on non-squarefree arguments.

    Its divisor sums give the co-cyclic class counts: summing over d | q and
    scaling by q^(n-1) yields count_primitive_classes(n, q), and the series
    sum_{d>=1} fn_weight(n, d)/d converges to the dimension-n density
    constant (constants.theta_n).  The local numerators and denominators
    are multiplied as integers and normalised once, in the final Fraction.
    """
    if n < 2:
        raise ValueError("fn_weight requires n >= 2")
    f = ensure_factored(d)
    if not is_squarefree(f):
        return Fraction(0)
    num = den = 1
    for p, _ in f.factors:
        num *= p ** (n - 1) - 1
        den *= p**n - p ** (n - 1)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Bernoulli numbers (Faulhaber sums, Euler-Maclaurin zeta)
# ---------------------------------------------------------------------------

_bernoulli_memo = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2) as an exact rational, from the
    recurrence sum_{k<=m} C(m+1, k) B_k = 0 (memoized, O(m^2) operations)."""
    if m < 0:
        raise ValueError("bernoulli requires m >= 0")
    memo = _bernoulli_memo
    while len(memo) <= m:
        j = len(memo)
        if j > 1 and j % 2:
            memo.append(Fraction(0))
        else:
            memo.append(-sum(math.comb(j + 1, k) * memo[k] for k in range(j) if memo[k]) / (j + 1))
    return memo[m]


# ---------------------------------------------------------------------------
# partitions and the abelian-group counting function
# ---------------------------------------------------------------------------

_partition_memo = [1]


def partition_count(k: int) -> int:
    """Number of integer partitions of k, by the pentagonal-number
    recurrence with exact integers (memoized, O(k^1.5) time)."""
    if k < 0:
        raise ValueError("partition_count requires k >= 0")
    memo = _partition_memo
    while len(memo) <= k:
        m = len(memo)
        total = 0
        j = 1
        while True:
            g1 = m - j * (3 * j - 1) // 2
            g2 = m - j * (3 * j + 1) // 2
            if g1 < 0 and g2 < 0:
                break
            term = (memo[g1] if g1 >= 0 else 0) + (memo[g2] if g2 >= 0 else 0)
            total += term if j % 2 else -term
            j += 1
        memo.append(total)
    return memo[k]


@lru_cache(maxsize=None)
def _partitions_of(k: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k as descending tuples, in descending lex order."""
    if k == 0:
        return ((),)
    out = []

    def rec(rest: int, maxpart: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, prefix + (part,))

    rec(k, k, ())
    return tuple(out)


@lru_cache(maxsize=None)
def _aut_order_pgroup(p: int, exps: tuple[int, ...]) -> int:
    """#Aut of the abelian p-group with the descending tuple of positive
    exponents `exps`, p prime, in integers (memoized; `__wrapped__` skips
    the memo):  p^(power - sum_i r_i (r_i + 1) / 2) prod_i prod_{s<=r_i} (p^s - 1)
    for the distinct exponents e_i with multiplicities r_i,
    power = sum_{i,j} min(e_i, e_j) r_i r_j."""
    groups = [(e, len(list(g))) for e, g in itertools.groupby(exps)]
    power = sum(min(ei, ej) * ri * rj for ei, ri in groups for ej, rj in groups)
    out = 1
    for _, r in groups:
        power -= r * (r + 1) // 2
        for s in range(1, r + 1):
            out *= p**s - 1
    return out * p**power


def abelian_group_count(n) -> int:
    """Number of isomorphism classes of abelian groups of order n:
    the product of partition_count(e) over the prime exponents e of n."""
    f = ensure_factored(n)
    out = 1
    for _, e in f.factors:
        out *= partition_count(e)
    return out


# ---------------------------------------------------------------------------
# exact integer tables
# ---------------------------------------------------------------------------


def totient_table(limit: int) -> list[int]:
    """phi(0..limit) as a list (phi(0) set to 0)."""
    phi = list(range(limit + 1))
    for p in primes_upto(limit):
        phi[p::p] = [v // p * (p - 1) for v in phi[p::p]]
    return phi


def squarefree_mask(limit: int) -> bytearray:
    """mask[k] == 1 iff k is squarefree (mask[0] == 0)."""
    mask = bytearray(b"\x01") * (limit + 1)
    mask[0] = 0
    for p in primes_upto(math.isqrt(limit)):
        mask[p * p :: p * p] = bytes(len(range(p * p, limit + 1, p * p)))
    return mask


# ---------------------------------------------------------------------------
# scalar sums
# ---------------------------------------------------------------------------


def _reciprocal_sum(ds) -> Fraction:
    """sum of 1/d over ds (0 for no terms): the terms c/d, one per distinct d
    of multiplicity c, merged pairwise in a balanced tree over the lcm of the
    two denominators, and normalised once at the end."""
    terms = [(c, d) for d, c in Counter(ds).items()]
    while len(terms) > 1:
        merged = []
        for (a, b), (c, d) in zip(terms[::2], terms[1::2]):
            g = math.gcd(b, d)
            merged.append((a * (d // g) + c * (b // g), b // g * d))
        terms = merged + terms[2 * len(merged) :]
    return Fraction(*terms[0]) if terms else Fraction(0)


def _phi_reciprocal_sum(t: int, phis):
    """sum of 1/f over the totients phis of d <= t: exact Fraction for
    t <= EXACT_SUM_LIMIT, else an ErrBoundedReal from correctly-rounded float
    accumulation."""
    if t <= EXACT_SUM_LIMIT:
        return _reciprocal_sum(phis)
    total = math.fsum(1 / f for f in phis)
    # each 1/phi rounds within 1/2 ulp and fsum rounds once
    return latcensus.ErrBoundedReal(total, 2 * _FLOAT_EPS * total)


def landau_sum(t: int):
    """sum_{d<=t} 1/phi(d); exact up to EXACT_SUM_LIMIT (_phi_reciprocal_sum)."""
    if t < 1:
        raise ValueError("landau_sum requires t >= 1")
    return _phi_reciprocal_sum(t, totient_table(t)[1:])


def ward_sum(v: int):
    """sum over squarefree n <= v of 1/phi(n); exact below EXACT_SUM_LIMIT.

    The shifted values ward_sum(v) - log(v) stabilize as v grows; the
    limiting constant is only ever reported empirically, never asserted.
    """
    if v < 1:
        raise ValueError("ward_sum requires v >= 1")
    return _phi_reciprocal_sum(v, itertools.compress(totient_table(v)[1:], squarefree_mask(v)[1:]))


def squarefree_coprime_count(x: int, d) -> int:
    """Exact number of squarefree k <= x with gcd(k, d) = 1, by sieve."""
    if x < 1:
        raise ValueError("squarefree_coprime_count requires x >= 1")
    f = ensure_factored(d)
    mask = squarefree_mask(x)
    for p in f.primes:
        if p <= x:
            mask[p::p] = bytes(len(range(p, x + 1, p)))
    return mask.count(1)


def divisor_mobius_sum(q, n: int) -> Fraction:
    """sum_{d|q} mu(d)/d^n, exactly (equals prod_{p|q} (1 - p^-n))."""
    f = ensure_factored(q)
    total = Fraction(0)
    for dv in f.divisors():
        m = mobius(factorize(dv))
        if m:
            total += Fraction(m, dv**n)
    return total

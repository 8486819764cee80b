"""Finite abelian group census, automorphism orders, and mass statistics.

Groups are stored by primary decomposition: for each prime p a descending
tuple of exponents, so Z/4 x Z/2 x Z/3 is {2: (2, 1), 3: (1,)}.  The
closed-form automorphism order multiplies the classical p-group formula
across primes, evaluated in integers and memoized per (p, exponents); an
independent brute-force counter (generator images over the explicit
subgroup lattice) is kept as its oracle.

The explicit machinery (`_GroupTable`) numbers the elements 0..|G|-1 with
a precomputed addition table; subgroups are frozensets of indices, and the
join table (subgroup, element) -> subgroup, filled as the DP reads it with one
extension per coset, drives the exact generating-tuple DP behind the oracle
and the class counts.  `spanning_tuples` lists the tuples it counts, one by one.

The number of classes of order <= V is not enumerated: its Dirichlet
series prod_k zeta(ks) has local factors sum_e P(e) X^e (P the partition
count), so it is the n = 1 case of the census engine in `counting`, a sum
over powerful numbers in O(sqrt V) time under that engine's cap;
`enumerate_groups` is its oracle.

The census assigns each group the mass 1/#Aut(G); totals are exact
rationals up to 1e4 (sums over `_mass_cells`, one table per V from one
`_aut_walk` of per-prime-power (rank, #Aut) pairs) and error-bounded floats
beyond (`_mass_terms`), both on `arith._order_walk`, the second census
route's walk.  Census sizes are checked against their caps before any work
(DEFAULT_CENSUS_CAP for the group enumeration and the mass walk,
counting.DEFAULT_FLOOR_VALUE_CAP for the class count,
arith.SIEVE_CAP for the float mass).  The explicit oracles are capped too:
DEFAULT_TABLE_CAP on |G| for the addition table, LATTICE_CAP on (number of
subgroups found) x |G| for the join table, checked before each new row, and
AUT_MAPS_CAP on #Aut(G) x |G| for `automorphism_maps`, checked up front.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .arith import (
    _FLOAT_EPS,
    EXACT_SUM_LIMIT,
    SieveTable,
    _aut_order_pgroup,
    _order_walk,
    _partitions_of,
    _reciprocal_sum,
    factorize,
    is_prime,
    partition_count,
    primes_upto,
)
from .counting import _check_census, _powerful_sum
from .errbound import ErrBoundedReal
from .errors import CapExceededError
from .lattice import InvariantFactors

DEFAULT_CENSUS_CAP = 10**6
DEFAULT_TABLE_CAP = 4096
LATTICE_CAP = 10**7
AUT_MAPS_CAP = 10**6


# ---------------------------------------------------------------------------
# the group type
# ---------------------------------------------------------------------------


class AbelianGroup:
    """A finite abelian group up to isomorphism (primary decomposition)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        """parts: mapping or iterable of (prime, exponents); exponents is a
        nonempty iterable of positive ints (any order, stored descending)."""
        items = parts.items() if hasattr(parts, "items") else parts
        norm = []
        for p, exps in items:
            p = int(p)
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            exps = tuple(sorted((int(e) for e in exps), reverse=True))
            if not exps or exps[-1] < 1:
                raise ValueError("exponents must be positive")
            norm.append((p, exps))
        norm.sort()
        if len({p for p, _ in norm}) != len(norm):
            raise ValueError("duplicate primes")
        self.parts = tuple(norm)

    @classmethod
    def _raw(cls, parts: tuple) -> "AbelianGroup":
        obj = object.__new__(cls)
        obj.parts = parts
        return obj

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls._raw(())

    @classmethod
    def cyclic(cls, m: int) -> "AbelianGroup":
        if m < 1:
            raise ValueError("order must be >= 1")
        if m == 1:
            return cls.trivial()
        return cls._raw(tuple((p, (e,)) for p, e in factorize(m).factors))

    @classmethod
    def power_of_cyclic(cls, q: int, m: int) -> "AbelianGroup":
        """(Z/qZ)^m."""
        if q < 1 or m < 1:
            raise ValueError("need q >= 1 and m >= 1")
        if q == 1:
            return cls.trivial()
        return cls._raw(tuple((p, (e,) * m) for p, e in factorize(q).factors))

    @classmethod
    def from_invariant_factors(cls, chain: Sequence[int]) -> "AbelianGroup":
        """From an increasing divisibility chain d_1 | d_2 | ..., d_i >= 2."""
        InvariantFactors(tuple(int(d) for d in chain))  # validates
        acc: dict[int, list[int]] = {}
        for d in chain:
            for p, e in factorize(int(d)).factors:
                acc.setdefault(p, []).append(e)
        return cls._raw(
            tuple((p, tuple(sorted(es, reverse=True))) for p, es in sorted(acc.items()))
        )

    def invariant_factors(self) -> InvariantFactors:
        """Invariant factors; inverse of from_invariant_factors."""
        r = self.rank
        if r == 0:
            return InvariantFactors(())
        desc = []
        for j in range(r):
            d = 1
            for p, exps in self.parts:
                if j < len(exps):
                    d *= p ** exps[j]
            desc.append(d)
        return InvariantFactors(tuple(reversed(desc)))

    @property
    def order(self) -> int:
        out = 1
        for p, exps in self.parts:
            out *= p ** sum(exps)
        return out

    @property
    def rank(self) -> int:
        """Minimal number of generators = max p-part length."""
        return max((len(exps) for _, exps in self.parts), default=0)

    def describe(self) -> str:
        """Primary decomposition string, e.g. '2^2*2*3' for Z/4 x Z/2 x Z/3."""
        if not self.parts:
            return "1"
        bits = []
        for p, exps in self.parts:
            for e in exps:
                bits.append(f"{p}^{e}" if e > 1 else str(p))
        return "*".join(bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"AbelianGroup({self.describe()})"


# ---------------------------------------------------------------------------
# census enumeration
# ---------------------------------------------------------------------------


def _check_census_bound(V: int) -> None:
    """1 <= V <= DEFAULT_CENSUS_CAP, the bound of the group enumeration and of the mass walk."""
    if V < 1:
        raise ValueError("V must be >= 1")
    if V > DEFAULT_CENSUS_CAP:
        raise CapExceededError(f"census bound {V} exceeds cap {DEFAULT_CENSUS_CAP}")


def enumerate_groups(V: int) -> Iterator[AbelianGroup]:
    """All isomorphism classes of abelian groups of order <= V, ascending by
    order, then lexicographic in (prime, partition) data: the product of the
    p-part lists of each order, those of p^e, e >= 2, built once per call."""
    _check_census_bound(V)
    sieve = SieveTable(max(V, 2))
    memo: dict[tuple[int, int], tuple] = {}  # (p, e) -> ((p, partition of e), ...), e >= 2

    def parts(p: int, e: int) -> tuple:
        if (p, e) not in memo:
            memo[p, e] = tuple((p, x) for x in _partitions_of(e))
        return memo[p, e]

    yield AbelianGroup.trivial()
    for order in range(2, V + 1):
        lists = [parts(p, e) if e > 1 else ((p, (1,)),) for p, e in sieve.factor_pairs(order)]
        yield from map(AbelianGroup._raw, itertools.product(*lists))


def count_isomorphism_classes(V: int) -> int:
    """Number of classes of order <= V: the census engine at n = 1 with
    local factor P(e), whose correction H_p = F_p(X) (1 - X) vanishes at
    p since P(1) = P(0).  A V whose estimated work exceeds
    counting.DEFAULT_FLOOR_VALUE_CAP raises CapExceededError before any work."""
    if V < 1:
        raise ValueError("V must be >= 1")
    _check_census(1, V, 1)
    return _powerful_sum(1, V, lambda p, e: partition_count(e))


# ---------------------------------------------------------------------------
# automorphism orders: closed form and oracle
# ---------------------------------------------------------------------------


def aut_order_pgroup(p: int, exponents: Sequence[int]) -> int:
    """#Aut of the abelian p-group with the given exponent multiset.

    With standard form e_1 > ... > e_k (multiplicities r_i):
    prod_i prod_{s=1}^{r_i} (1 - p^-s) * prod_{i,j} p^(min(e_i,e_j) r_i r_j),
    evaluated in integers (memoized per prime and exponent tuple).
    """
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    exps = tuple(sorted((int(e) for e in exponents), reverse=True))
    if exps and exps[-1] < 1:
        raise ValueError("exponents must be positive")
    return _aut_order_pgroup(p, exps)


def aut_order(G: AbelianGroup) -> int:
    """#Aut(G): the p-part orders multiply across distinct primes."""
    out = 1
    for p, exps in G.parts:
        out *= _aut_order_pgroup(p, exps)
    return out


def aut_order_qm(q: int, m: int) -> int:
    """#Aut((Z/qZ)^m) = q^(m^2) * prod_{p|q} prod_{s=1}^m (1 - p^-s)."""
    if q < 1 or m < 1:
        raise ValueError("need q >= 1 and m >= 1")
    out = Fraction(q ** (m * m))
    for p, _ in factorize(q).factors:
        for s in range(1, m + 1):
            out *= 1 - Fraction(1, p**s)
    if out.denominator != 1:
        raise AssertionError("matrix-group order must be integral")
    return out.numerator


# ---------------------------------------------------------------------------
# explicit element/subgroup machinery (oracles and generating counts)
# ---------------------------------------------------------------------------


class _GroupTable:
    """Explicit elements of a small group as indices 0..|G|-1.

    `elements[i]` is the exponent tuple of element i against the prime-power
    cyclic factors (index 0 is the identity), `add_table[i][j]` the index of
    their sum, and subgroups are frozensets of indices.  The addition table
    is |G| lists of |G| shared ints: about 0.14 GB at the default cap.  The
    join table of `count_spanning_tuples` has one such row per subgroup the
    DP leaves; before each new row, (subgroups found) x |G| above LATTICE_CAP
    raises.
    """

    __slots__ = ("factors", "order", "elements", "orders", "add_table")

    def __init__(self, G: AbelianGroup):
        factors = []
        for p, exps in G.parts:
            factors.extend(p**e for e in exps)
        self.factors = tuple(factors)
        self.order = math.prod(factors)
        if self.order > DEFAULT_TABLE_CAP:
            raise CapExceededError(f"group order {self.order} exceeds table cap {DEFAULT_TABLE_CAP}")
        self.elements = list(itertools.product(*[range(m) for m in factors]))
        self.orders = [
            math.lcm(*(m // math.gcd(x, m) for x, m in zip(e, factors))) for e in self.elements
        ]
        # Mixed radix, last factor fastest (the itertools.product order).  With
        # the table `rows` of the last factors, of order r, prepend a factor m:
        # element a*r + i plus b*r + j is ((a + b) % m)*r + rows[i][j], so row
        # a*r + i is row i lifted to every block c*r (flat) rotated by a*r.
        # Every row holds the int objects of `ids`: one pointer per entry.
        ids = list(range(self.order))
        rows, r = [ids[:1]], 1
        for m in reversed(factors):
            blocks = [ids[c * r : (c + 1) * r].__getitem__ for c in range(m)]
            lifted = [None] * (m * r)
            for i, row in enumerate(rows):
                flat = list(itertools.chain.from_iterable(map(b, row) for b in blocks))
                lifted[i::r] = [flat[a * r :] + flat[: a * r] for a in range(m)]
            rows, r = lifted, r * m
        self.add_table = rows

    def _extend(self, H: frozenset, g: int) -> frozenset:
        """The subgroup generated by H and element g."""
        if g in H:
            return H
        add = self.add_table
        new = set(H)
        s = g
        while s not in H:  # s runs over the multiples of g outside H
            row = add[s]
            new.update(map(row.__getitem__, H))
            s = row[g]
        return frozenset(new)

    def endomorphism_images(self) -> list[list[int]]:
        """Per cyclic factor Z/m, the elements of order dividing m: the images
        an endomorphism may give that factor's generator."""
        return [[i for i, o in enumerate(self.orders) if m % o == 0] for m in self.factors]

    def count_spanning_tuples(self, candidate_ids: Sequence[Sequence[int]]) -> int:
        """Tuples (one entry per candidate list, in order) whose entries
        generate the whole group; exact DP over the subgroup lattice.  The
        join <H, e> is computed the first time the DP reads it, with one
        extension per coset e + H; rows of subgroups the DP never leaves
        are never built."""
        add, order = self.add_table, self.order
        subs = {frozenset([0]): 0}
        sub_list = list(subs)
        join: dict[int, list[int]] = {}  # subgroup id -> its row, -1 where not yet read
        f = {0: 1}
        for cands in candidate_ids:
            new: dict[int, int] = {}
            for sid, cnt in f.items():
                row = join.get(sid)
                if row is None:
                    if len(sub_list) * order > LATTICE_CAP:
                        raise CapExceededError(f"{len(sub_list)} subgroups x order {order} exceed cap {LATTICE_CAP}")
                    row = join[sid] = [-1] * order
                for eid in cands:
                    key = row[eid]
                    if key < 0:
                        H = sub_list[sid]
                        H2 = self._extend(H, eid)
                        key = subs.setdefault(H2, len(sub_list))
                        if key == len(sub_list):
                            sub_list.append(H2)
                        shift = add[eid]
                        for h in H:  # <H, e + h> = <H, e>
                            row[shift[h]] = key
                    new[key] = new.get(key, 0) + cnt
            f = new
        return sum(cnt for sid, cnt in f.items() if len(sub_list[sid]) == order)

    def spanning_tuples(self, candidate_ids: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
        """The tuples `count_spanning_tuples` counts, as element-index tuples
        in depth-first order: the literal enumeration that DP is checked by.
        A prefix is cut when its span times the largest orders among the
        candidates still to choose is below |G|."""
        k, reach = len(candidate_ids), [1]  # reach[j]: that product over the last j lists
        for cands in reversed(candidate_ids):
            reach.append(reach[-1] * max((self.orders[e] for e in cands), default=0))
        stack = [((), frozenset([0]))]  # children pushed last-first, so popped in order
        while stack:
            prefix, span = stack.pop()
            if len(span) * reach[k - len(prefix)] < self.order:
                continue
            if len(prefix) == k:
                yield prefix
                continue
            stack.extend((prefix + (e,), self._extend(span, e)) for e in reversed(candidate_ids[len(prefix)]))


def generating_tuples_count(G: AbelianGroup, n: int) -> int:
    """Number of n-tuples over G whose components generate G, exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _GroupTable(G)
    all_ids = range(table.order)
    return table.count_spanning_tuples([all_ids] * n)


def primitive_class_count(G: AbelianGroup, n: int) -> int:
    """Generating n-tuples counted up to Aut(G) (the action is free on
    generating tuples, so the division below is exact); 0 when n < rank."""
    if n < G.rank:
        return 0
    tuples = generating_tuples_count(G, n)
    aut = aut_order(G)
    if tuples % aut:
        raise RuntimeError("Aut action on generating tuples is not free")
    return tuples // aut


def aut_order_bruteforce(G: AbelianGroup) -> int:
    """#Aut(G) counted directly: images of the standard generators with
    compatible orders that together span G (no p-group formula involved)."""
    table = _GroupTable(G)
    return table.count_spanning_tuples(table.endomorphism_images())


def automorphism_maps(G: AbelianGroup) -> list[dict]:
    """All automorphisms of a small group, as element->element dicts of
    exponent tuples, in the order `spanning_tuples` lists the generator
    images (order-compatible, jointly spanning); intended for small-census
    freeness checks.  The maps hold #Aut(G) * |G| entries; above
    AUT_MAPS_CAP that raises up front."""
    if (aut := aut_order(G)) * G.order > AUT_MAPS_CAP:
        raise CapExceededError(f"{aut} automorphisms x order {G.order} exceed cap {AUT_MAPS_CAP}")
    table = _GroupTable(G)
    elements, add = table.elements, table.add_table
    out: list[dict] = []
    for images in table.spanning_tuples(table.endomorphism_images()):
        # multiples[i][x]: x times the image of generator i
        multiples = [list(itertools.accumulate(range(m - 1), lambda s, _, b=b: add[s][b], initial=0))
                     for b, m in zip(images, table.factors)]
        mapping = {}
        for x in elements:
            img = 0
            for xi, mults in zip(x, multiples):
                img = add[img][mults[xi]]
            mapping[x] = elements[img]
        out.append(mapping)
    return out


def pak_check(G: AbelianGroup, n: int, k: int) -> bool:
    """True iff the generating fraction of uniform n-tuples is at least
    1 - #G^-k, compared exactly in rational arithmetic."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    order = G.order
    frac = Fraction(generating_tuples_count(G, n), order**n)
    return frac >= 1 - Fraction(1, order**k)


# ---------------------------------------------------------------------------
# census masses
# ---------------------------------------------------------------------------


def _pgroup_mass(p: int, k: int) -> Fraction:
    """Total mass of abelian p-groups of order p^k.  Not memoized: the float
    mass walk asks once per power p^k <= V of each prime p <= sqrt(V)."""
    return _reciprocal_sum([_aut_order_pgroup.__wrapped__(p, exps) for exps in _partitions_of(k)])


def cl_total_mass(V: int, exact_limit: int = EXACT_SUM_LIMIT):
    """Total mass of the census of order <= V.

    Exact Fraction for V <= exact_limit: the sum of `_mass_cells`.
    Above that, an error-bounded float: the fsum of the float masses of
    orders 1..V (`_mass_terms`, the mass of order n is the product of its
    prime-power masses).  That walk holds the primes up to V, so V above
    arith.SIEVE_CAP raises CapExceededError up front.
    """
    if V < 1:
        raise ValueError("V must be >= 1")
    if V <= exact_limit:
        return sum(_mass_cells(V).values())
    total = math.fsum(itertools.chain.from_iterable(_mass_terms(V)))
    # term n takes one ratio fl(fl(cur) / fl(prev)) and one multiply per
    # prime-power divisor p^k | n, at most floor(log2 V) of them: 4 roundings
    # of eps/2 each.  fsum adds one more; the last eps/2 covers second order.
    rounding = 2 * (V.bit_length() - 1) + 1
    return ErrBoundedReal(total, rounding * _FLOAT_EPS * total)


def _mass_terms(V: int) -> Iterator[Iterable[float]]:
    """The float masses of orders 1..V, in batches.  With P^e || n for the
    largest prime P | n, mass(n) = mass(n / P^e) * r(P, 1) * ... * r(P, e),
    r(p, k) = fl(mass(p^k) / mass(p^(k-1))), rounded product by product as a
    sieve multiplying every multiple of p^k by r(p, k) would.  The orders
    come from `arith._order_walk`, each node with its leaves n p, mass(n)
    times r(p, 1), as one batch."""
    primes = primes_upto(V)
    r1 = [1 / (p - 1) for p in primes]  # mass(p): Z/p has p - 1 automorphisms
    ratios = {}
    for p in itertools.takewhile(math.isqrt(V).__ge__, primes):
        masses = [1.0] + [float(_pgroup_mass(p, k)) for k in range(1, V.bit_length()) if p**k <= V]
        ratios[p] = [b / a for a, b in zip(masses, masses[1:])]
    child = lambda mass, p, e: reduce(mul, ratios[p][:e], mass)
    for mass, lo, hi in _order_walk(V, primes, 1.0, child):
        yield itertools.chain((mass,), map(mass.__mul__, r1[lo:hi]))


def _aut_walk(V: int) -> dict[tuple[int, bool], list[int]]:
    """#Aut of every group of order <= V, by mass cell (rank, order
    squarefree).  A group of order N takes one pair (l(lam), #Aut(G_lam)) per
    p^e || N, lam a partition of e (pairs memoized per p^e): its rank is the
    largest l, its #Aut the product.  Each node of `arith._order_walk` holds
    its groups as (order squarefree, rank -> #Aut list); its leaves N p take
    the pair of p as one batch."""
    _check_census_bound(V)
    primes = primes_upto(V)
    pairs = lru_cache(None)(lambda p, e: [(len(lam), _aut_order_pgroup(p, lam)) for lam in _partitions_of(e)])
    cells: dict[tuple[int, bool], list[int]] = {}

    def child(parent, p: int, e: int):
        out: dict[int, list] = {}
        for (l, b), (r, auts) in itertools.product(pairs(p, e), parent[1].items()):
            out.setdefault(max(r, l), []).extend(map(b.__mul__, auts))
        return parent[0] and e == 1, out

    for (squarefree, node), lo, hi in _order_walk(V, primes, (True, {0: [1]}), child):
        tail = [b for p in primes[lo:hi] for _, b in pairs(p, 1)]
        for r, auts in node.items():
            cells.setdefault((r, squarefree), []).extend(auts)
            cells.setdefault((max(r, 1), squarefree), []).extend(a * b for b in tail for a in auts)
    return cells


@lru_cache(maxsize=1)
def _mass_cells(V: int) -> dict[tuple[int, bool], Fraction]:
    """Exact mass of each cell (rank, order squarefree) of order <= V: one
    `_aut_walk`, one _reciprocal_sum per cell.  The last V's table is kept."""
    return {cell: _reciprocal_sum(auts) for cell, auts in _aut_walk(V).items()}


# predicate -> keep(rank, squarefree, r), a test on mass cells
_PREDICATES = {
    "cyclic": lambda rank, squarefree, r: rank <= 1,
    "squarefree-order": lambda rank, squarefree, r: squarefree,
    "rank-at-most": lambda rank, squarefree, r: rank <= r,
}


def cl_predicate_mass(V: int, predicate: str, r: Optional[int] = None) -> Fraction:
    """Exact census mass restricted to a predicate: 'cyclic',
    'squarefree-order', or 'rank-at-most' (with r, and only there): the sum
    of the mass cells the predicate keeps (`_mass_cells`).

    By construction the cyclic mass equals the totient-reciprocal sum
    (arith.landau_sum) and the squarefree mass equals arith.ward_sum.
    """
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    if predicate == "rank-at-most" and (r is None or r < 0):
        raise ValueError("rank-at-most needs r >= 0")
    if predicate != "rank-at-most" and r is not None:
        raise ValueError(f"r goes with rank-at-most, not {predicate!r}")
    keep = _PREDICATES[predicate]
    return sum(mass for cell, mass in _mass_cells(V).items() if keep(*cell, r))

"""Exact lattice machinery for full-rank sublattices of Z^n.

A sublattice is always represented by its canonical Hermite normal form:
row basis, upper triangular, positive pivots, entries above each pivot
reduced into [0, pivot).  Uniqueness of that form makes lattice equality
plain matrix equality.

The quotient G = Z^n/L is classified by its invariant factors (Smith form),
an increasing divisibility chain d_1 | d_2 | ... of entries >= 2, the trivial
quotient being the empty chain; L is co-cyclic when it has at most one entry.
The Smith form needs full rank and is its own pivot-by-pivot elimination;
it shares only the two-row gcd step with the HNF.  is_cocyclic reads
co-cyclicity from adj(B) (no Smith form), and the HNF of the congruence
lattice {x : a.x = 0 mod q} is written down entry by entry from suffix gcds
and one modular inverse per pivot above 1 (no row reduction).
Enumeration oracles use the F_p ranks of each basis: rank G = max_p dim G/pG.

All arithmetic is exact (Python ints); no floating point enters here.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, partial
from typing import Iterator, Sequence

from .arith import _Frozen, ensure_factored, factorize
from .errors import CapExceededError, NotPrimitiveError, SingularMatrixError
from .rng import SplitMix64

DEFAULT_ENUM_CAP = 10**8  # lattices one enumeration may build or stream

# ---------------------------------------------------------------------------
# integer row reduction
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = ax + by and g >= 0: x inverts a/g modulo |b|/g
    (0 when that modulus is 1, sign(a) when b = 0)."""
    g = math.gcd(a, b)
    if not b:
        return g, (a > 0) - (a < 0), 0
    x = pow(a // g, -1, abs(b) // g)
    return g, x, (g - a * x) // b


def _int_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Fresh int lists; TypeError for a non-integer entry, ValueError if ragged."""
    a = [list(map(operator.index, r)) for r in rows]
    if any(len(r) != len(a[0]) for r in a):
        raise ValueError("rows must have equal length")
    return a


def _combine_rows(a: list[list[int]], r: int, i: int, j: int) -> None:
    """Unimodular transform of rows r, i making a[i][j] = 0 and
    a[r][j] = gcd of the two column-j entries.

    When the pivot entry already divides a[i][j] only row i is reduced
    (row r untouched); otherwise a gcd combination strictly shrinks the
    pivot, which is what guarantees termination of the callers' loops.
    """
    arj, aij = a[r][j], a[i][j]
    if arj and aij % arj == 0:
        c = aij // arj
        a[i] = [v - c * u for u, v in zip(a[r], a[i])]
        return
    g, x, y = _xgcd(arj, aij)
    p, q = arj // g, aij // g
    rr, ri = a[r], a[i]
    for col in range(len(rr)):
        u, v = rr[col], ri[col]
        rr[col] = x * u + y * v
        ri[col] = p * v - q * u


def _row_hnf(a: list[list[int]]) -> list[list[int]]:
    """Hermite normal form of the row span of the int lists a, in place.

    Returns the nonzero rows: upper staircase, positive pivots, entries
    above each pivot reduced into [0, pivot).
    """
    n = len(a[0]) if a else 0
    r = 0
    pivots: list[tuple[int, int]] = []
    for j in range(n):
        piv = next((i for i in range(r, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][j]:
                _combine_rows(a, r, i, j)
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
        pivots.append((r, j))
        r += 1
    for ri, j in pivots:
        piv = a[ri][j]
        prow = a[ri]
        for i in range(ri):
            q = a[i][j] // piv
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], prow)]
    return a[:r]


# ---------------------------------------------------------------------------
# canonical bases
# ---------------------------------------------------------------------------


class HnfBasis:
    """Canonical (Hermite normal form) row basis of a full-rank sublattice.

    rows is a tuple of n row tuples; two HnfBasis values are equal iff they
    describe the same sublattice.  Treat instances as immutable.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(map(tuple, _int_rows(rows)))
        n = len(rows)
        if n < 1 or len(rows[0]) != n:
            raise ValueError("rows must form a square matrix")
        for i in range(n):
            if rows[i][i] < 1:
                raise ValueError("pivots must be >= 1")
            for j in range(n):
                if j < i and rows[i][j] != 0:
                    raise ValueError("matrix must be upper triangular")
                if j > i and not 0 <= rows[i][j] < rows[j][j]:
                    raise ValueError("entries above a pivot must lie in [0, pivot)")
        self.n = n
        self.rows = rows

    @classmethod
    def _raw(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "HnfBasis":
        # internal fast path: caller guarantees canonical form
        obj = object.__new__(cls)
        obj.n = n
        obj.rows = rows
        return obj

    @classmethod
    def identity(cls, n: int) -> "HnfBasis":
        return cls._raw(n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def index(self) -> int:
        """[Z^n : L], the product of the pivots."""
        return math.prod(map(operator.getitem, self.rows, range(self.n)))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    def to_json(self) -> str:
        """json.dumps(self.to_json_dict(), separators=(",", ":")), written directly."""
        rows = "],[".join([",".join(map(str, r)) for r in self.rows])
        return f'{{"n":{self.n},"rows":[[{rows}]]}}'

    @classmethod
    def from_json(cls, text: str) -> "HnfBasis":
        import json  # only reading a basis back loads it
        doc = json.loads(text)
        basis = cls(doc["rows"])
        if basis.n != doc["n"]:
            raise ValueError("dimension field disagrees with rows")
        return basis

    def __eq__(self, other) -> bool:
        return isinstance(other, HnfBasis) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"HnfBasis({[list(r) for r in self.rows]})"


def hnf_canonicalize(rows: Sequence[Sequence[int]]) -> HnfBasis:
    """Canonical basis of the row span of a nonsingular square matrix."""
    rows = _int_rows(rows)
    n = len(rows)
    if n < 1 or len(rows[0]) != n:
        raise ValueError("expected a square matrix")
    red = _row_hnf(rows)
    if len(red) < n:
        raise SingularMatrixError("matrix is singular")
    return HnfBasis._raw(n, tuple(map(tuple, red)))


# ---------------------------------------------------------------------------
# Smith invariants of the quotient
# ---------------------------------------------------------------------------


class InvariantFactors(_Frozen):
    """Invariant factors of the finite quotient Z^n/L, as the increasing
    divisibility chain (d_1, ..., d_k), d_i >= 2, d_i | d_{i+1}.  The
    trivial quotient is the empty chain."""

    __slots__ = ("chain",)

    def __init__(self, chain: tuple[int, ...]):
        prev = None
        for d in chain:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("chain must be increasing in divisibility")
            prev = d
        object.__setattr__(self, "chain", chain)

    @property
    def order(self) -> int:
        out = 1
        for d in self.chain:
            out *= d
        return out

    @property
    def rank(self) -> int:
        return len(self.chain)


def smith_invariants(basis) -> InvariantFactors:
    """Invariant factors of Z^n/L for a full-rank basis (HnfBasis or row
    matrix; a rank-deficient or empty one raises SingularMatrixError).

    Pivot by pivot, two-row gcd steps clear column k below a[k][k], and the
    matrix is transposed while row k has entries right of it (each gcd step
    makes |a[k][k]| a proper divisor; divisible steps leave row k alone).
    Pairwise (gcd, lcm) of |diagonal| then gives the divisibility chain."""
    a = [list(r) for r in basis.rows] if isinstance(basis, HnfBasis) else _int_rows(basis)
    n = len(a[0]) if a else 0
    a += ([0] * n for _ in range(n - len(a)))  # too few rows: a zero pivot below
    for k in range(n):
        while True:
            for i in range(k + 1, len(a)):
                if a[i][k]:
                    _combine_rows(a, k, i, k)
            if not any(a[k][k + 1 :]):
                break
            a = [list(c) for c in zip(*a)]
    d = [abs(a[i][i]) for i in range(n)]
    if not n or 0 in d:
        raise SingularMatrixError("basis does not have full rank")
    for i in range(n):
        for j in range(i + 1, n):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return InvariantFactors(tuple(x for x in d if x != 1))


def quotient_rank(basis: HnfBasis) -> int:
    """Minimal number of generators of Z^n/L (0 for the trivial quotient)."""
    return smith_invariants(basis).rank


def is_cocyclic(basis: HnfBasis) -> bool:
    """True iff Z^n/L is cyclic (the trivial group counts as cyclic): iff the
    gcd of the entries of adj(B), the (n-1)-minors of B, is 1.  Column c of adj(B)
    solves B x = index * e_c by back-substitution; a gcd of 1 stops the scan."""
    rows, n, index = basis.rows, basis.n, basis.index
    d = math.gcd(*(index // rows[c][c] for c in range(n)))  # diagonal of adj(B)
    for c in range(1, n):
        x = [0] * c + [index // rows[c][c]]
        for i in range(c - 1, -1, -1):
            if d == 1:
                return True
            x[i] = -sum(rows[i][j] * x[j] for j in range(i + 1, c + 1)) // rows[i][i]
            d = math.gcd(d, x[i])
    return d == 1


# ---------------------------------------------------------------------------
# counting and enumerating sublattices of a given index
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _count_prime_power(n: int, p: int, e: int) -> int:
    if e == 0 or n == 1:
        return 1
    return sum(p ** (i * (n - 1)) * _count_prime_power(n - 1, p, e - i) for i in range(e + 1))


def count_sublattices(n: int, q) -> int:
    """Number of sublattices of Z^n of index exactly q: multiplicative in q,
    with c_n(q) = sum_{d|q} d^(n-1) c_{n-1}(q/d) and c_1 = 1."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    f = ensure_factored(q)
    out = 1
    for p, e in f.factors:
        out *= _count_prime_power(n, p, e)
    return out


def _ordered_factorizations(q: int, n: int) -> Iterator[tuple[int, ...]]:
    """The ordered n-tuples with product q, lexicographic: q's divisors are
    listed once (n > 1) and filtered down to each sub-quotient's, ascending."""

    def walk(r: int, k: int, divs: list[int]) -> Iterator[tuple[int, ...]]:
        for d in divs:
            s = r // d
            if k == 2:
                yield (d, s)
            else:
                for rest in walk(s, k - 1, [x for x in divs if s % x == 0]):
                    yield (d,) + rest

    yield from walk(q, n, factorize(q).divisors()) if n > 1 else [(q,)]


def enumerate_sublattices(n: int, q: int) -> Iterator[HnfBasis]:
    """Yield every sublattice of Z^n of index exactly q, exactly once.

    Order: lexicographic in (diagonal, above-diagonal entries), the entries
    flattened row-major.  The outer loop runs over ordered diagonal
    factorizations of q; per diagonal, each row's tuples are built once.
    """
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    if (total := count_sublattices(n, q)) > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"enumeration of {total} sublattices exceeds cap {DEFAULT_ENUM_CAP}")
    return _enumerate_sublattices(n, q)


def _diagonal_blocks(n: int, q: int) -> Iterator[tuple[tuple[int, ...], Iterator]]:
    """(diag, rows) for each ordered diagonal factorization of q: rows iterates
    the row tuples of every HNF basis with that diagonal, in enumeration order."""
    for diag in _ordered_factorizations(q, n):
        per_row = [itertools.product(*[(0,)] * i, (diag[i],), *map(range, diag[i + 1 :])) for i in range(n)]
        yield diag, itertools.product(*per_row)


def _enumerate_sublattices(n: int, q: int) -> Iterator[HnfBasis]:
    make = partial(HnfBasis._raw, n)
    for _, rows in _diagonal_blocks(n, q):
        yield from map(make, rows)


def _p_rank(rows: Sequence[Sequence[int]], p: int, divisible: Sequence[int], units: Sequence[int]) -> int:
    """dim over F_p of G/pG, G = Z^n/L, for the HNF rows of L: n minus the rank
    mod p.  The diagonal splits the row indices once per p: `divisible`, the
    rows whose pivot p divides, and `units`, the rest.  The divisible rows are
    reduced against the others, by unit scalings; one such row alone reduces
    to zero (the rest is triangular)."""
    if len(divisible) < 2:
        return len(divisible)
    echelon = {i: rows[i] for i in units}
    for i in divisible:
        v = rows[i]
        for c in range(i + 1, len(rows)):
            if f := v[c] % p:
                e = echelon.setdefault(c, v)
                if e is v:  # v is independent mod p: its pivot column is c
                    break
                v = [(e[c] * x - f * y) % p for x, y in zip(v, e)]
    return len(rows) - len(echelon)


# ---------------------------------------------------------------------------
# congruence vectors and the cyclic-quotient construction
# ---------------------------------------------------------------------------


class CongruenceVector(_Frozen):
    """Residue vector a modulo q; primitive when gcd(a_1,...,a_n, q) = 1."""

    __slots__ = ("q", "a")

    def __init__(self, q: int, a: tuple[int, ...]):
        if (q := operator.index(q)) < 1:
            raise ValueError("modulus must be >= 1")
        if len(a) < 1:
            raise ValueError("vector must have at least one coordinate")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", tuple([operator.index(x) % q for x in a]))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def is_primitive(self) -> bool:
        return math.gcd(*self.a, self.q) == 1

    def scaled(self, lam: int) -> tuple[int, ...]:
        return tuple((lam * x) % self.q for x in self.a)


def are_equivalent(u: CongruenceVector, v: CongruenceVector) -> bool:
    """True iff u = lam * v mod q for some unit lam mod q: iff gcd(u, q) =
    gcd(v, q) = g and u/g, v/g have the same congruence lattice mod q/g (two
    primitive vectors are unit multiples exactly when their kernels agree)."""
    if u.q != v.q:
        raise ValueError("moduli differ")
    if len(u.a) != len(v.a):
        raise ValueError("dimensions differ")
    q = u.q
    g = math.gcd(*v.a, q)
    if math.gcd(*u.a, q) != g:
        return False
    return _congruence_basis([x // g for x in u.a], q // g) == _congruence_basis([x // g for x in v.a], q // g)


def lattice_from_congruence(v: CongruenceVector) -> HnfBasis:
    """The index-q sublattice {x : a.x = 0 mod q} of a primitive vector.

    The quotient is cyclic of order q; equivalent vectors give the same
    basis and inequivalent primitive vectors give distinct bases.
    """
    if not v.is_primitive:
        raise NotPrimitiveError(f"gcd of {v.a} with modulus {v.q} exceeds 1")
    return _congruence_basis(v.a, v.q)


def _congruence_basis(a: Sequence[int], q: int) -> HnfBasis:
    """lattice_from_congruence for residues a in [0, q) already known primitive.

    With suffix gcds g_k = gcd(a_k, ..., a_{n-1}, q), g_n = q, row i has pivot
    d_i = g_{i+1}/g_i and the tail t_j in [0, d_j) solving
    sum_{j>i} a_j t_j = -a_i d_i mod q, one column at a time, left to right:
    with r the part still to solve (r = 0 mod g_j), t_j = (r/g_j) (a_j/g_j)^-1
    mod d_j and r -= a_j t_j, leaving r = 0 mod g_{j+1}.  Columns with d_j = 1
    keep t_j = 0.  The rows are written right to left, with the gcds.
    """
    n = len(a)
    rows: list = [None] * n
    cols = []  # (j, g_j, a_j, d_j, (a_j/g_j)^-1 mod d_j) per pivot d_j > 1, right to left
    h = q  # g_{i+1}
    for i in range(n - 1, -1, -1):
        g = math.gcd(a[i], h)
        d = h // g
        row = [0] * n
        row[i], r = d, -a[i] * d
        for j, gj, aj, dj, inv in reversed(cols):
            row[j] = t = r // gj * inv % dj
            r -= aj * t
        rows[i] = tuple(row)
        if d > 1:
            cols.append((i, g, a[i], d, pow(a[i] // g, -1, d)))
        h = g
    basis = HnfBasis._raw(n, tuple(rows))
    assert basis.index == q
    return basis


def sample_cocyclic(n: int, q: int, seed) -> HnfBasis:
    """One uniform draw from the co-cyclic sublattices of Z^n of index q.

    Draws n residues uniformly in [0, q) and retries until the vector is
    primitive; every unit-scaling class of primitive vectors has exactly
    phi(q) members, so the induced lattice is exactly uniform.  seed may be
    an int or a SplitMix64 stream; fixed seeds reproduce bit-identically.
    """
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    randbelow = (seed if isinstance(seed, SplitMix64) else SplitMix64(operator.index(seed))).randbelow
    while True:
        a = [randbelow(q) for _ in range(n)]
        if math.gcd(*a, q) == 1:
            return _congruence_basis(a, q)


def sample_cocyclic_stream(n: int, q: int, count: int, seed: int) -> Iterator[HnfBasis]:
    """Deterministic stream of `count` uniform co-cyclic draws."""
    rng = SplitMix64(operator.index(seed))
    for _ in range(count):
        yield sample_cocyclic(n, q, rng)

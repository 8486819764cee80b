import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latcensus import arith, counting, lattice, verifysuite
from latcensus.errors import CapExceededError, NotPrimitiveError, SingularMatrixError
from latcensus.rng import SplitMix64


def test_hnf_examples():
    b = lattice.hnf_canonicalize([[2, 0], [0, 2]])
    assert b.rows == ((2, 0), (0, 2))
    b = lattice.hnf_canonicalize([[2, 0], [1, 1]])
    assert b.rows == ((1, 1), (0, 2))
    # any unimodular matrix spans Z^n
    assert lattice.hnf_canonicalize([[2, 1], [1, 1]]) == lattice.HnfBasis.identity(2)


def test_hnf_idempotent_and_singular():
    b = lattice.hnf_canonicalize([[3, 1], [0, 4]])
    assert lattice.hnf_canonicalize(b.rows) == b
    with pytest.raises(SingularMatrixError):
        lattice.hnf_canonicalize([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        lattice.hnf_canonicalize([[1, 2, 3], [4, 5, 6]])


def test_hnf_validation():
    with pytest.raises(ValueError):
        lattice.HnfBasis([[1, 0], [1, 2]])  # not upper triangular
    with pytest.raises(ValueError):
        lattice.HnfBasis([[1, 3], [0, 2]])  # entry above pivot not reduced
    with pytest.raises(ValueError):
        lattice.HnfBasis([[0, 0], [0, 2]])  # zero pivot


def test_hnf_canonicality_under_unimodular_action():
    rng = SplitMix64(321)
    for trial in range(200):
        n = 2 + trial % 3
        rows = [[rng.randbelow(21) - 10 for _ in range(n)] for _ in range(n)]
        try:
            h = lattice.hnf_canonicalize(rows)
        except SingularMatrixError:
            continue
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(10):
            i, j = rng.randbelow(n), rng.randbelow(n)
            if i != j:
                c = rng.randbelow(5) - 2
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        mixed = [
            [sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert lattice.hnf_canonicalize(mixed) == h
        assert lattice.smith_invariants(lattice.hnf_canonicalize(mixed)) == lattice.smith_invariants(h)


def test_smith_examples():
    assert lattice.smith_invariants(lattice.HnfBasis([[2, 0], [0, 2]])).chain == (2, 2)
    assert lattice.smith_invariants(lattice.HnfBasis([[1, 1], [0, 2]])).chain == (2,)
    assert lattice.smith_invariants(lattice.HnfBasis.identity(3)).chain == ()
    # regression: entries both left and above pivots (used to cycle forever)
    assert lattice.smith_invariants(lattice.HnfBasis([[1, 0, 1], [0, 1, 1], [0, 0, 3]])).chain == (3,)
    # a diagonal out of divisibility order: every (gcd, lcm) pair is needed
    diag = [[x if i == j else 0 for j in range(4)] for i, x in enumerate((1, 4, 2, 8))]
    assert lattice.smith_invariants(diag).chain == (2, 4, 8)


def test_smith_needs_full_rank():
    # regression: a rank-deficient matrix (Z^2/L infinite) and the empty one
    # used to get a finite chain
    for rows in ([[2, 0]], [], [[]]):
        with pytest.raises(SingularMatrixError):
            lattice.smith_invariants(rows)
    # tall full-rank input spans a full-rank lattice: Z^2/L = Z/6
    assert lattice.smith_invariants([[2, 0], [0, 3], [4, 6]]).chain == (6,)


def test_smith_order_equals_index():
    rng = SplitMix64(99)
    for _ in range(60):
        n = 2 + rng.randbelow(3)
        q = 1 + rng.randbelow(40)
        for k, b in enumerate(lattice._enumerate_sublattices(n, q)):
            if k >= 8:
                break
            inv = lattice.smith_invariants(b)
            assert inv.order == q
            assert inv.rank <= n


def _det(rows):
    """Determinant by fraction-free (Bareiss) elimination, exact in integers."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _determinantal_chain(rows):
    """Reference Smith chain from the determinantal divisors: d_k is the gcd
    of the k x k minors and s_k = d_k / d_(k-1).  None when d_n = 0, i.e.
    the rows span less than rank n."""
    m, n = len(rows), len(rows[0])
    d = [1]
    for k in range(1, n + 1):
        d.append(math.gcd(*(
            _det([[rows[i][j] for j in cols] for i in picked])
            for picked in itertools.combinations(range(m), k)
            for cols in itertools.combinations(range(n), k)
        )))
    if d[n] == 0:
        return None
    return tuple(s for s in (d[k] // d[k - 1] for k in range(1, n + 1)) if s != 1)


_BIG_ENTRY = st.integers(-(2**64), 2**64)


@st.composite
def _big_nonsingular(draw):
    # small entries and a common column factor give non-trivial Smith chains
    n = draw(st.integers(1, 6))
    entry = st.one_of(_BIG_ENTRY, st.integers(-4, 4))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    col, scale = draw(st.integers(0, n - 1)), draw(st.sampled_from((1, 2, 6)))
    rows = [r[:col] + [scale * r[col]] + r[col + 1 :] for r in rows]
    det = _det(rows)
    assume(det != 0)
    return rows, det


@settings(deadline=None, max_examples=100)
@given(_big_nonsingular(), st.data())
def test_hnf_canonicality_with_entries_up_to_two_to_the_64(case, data):
    rows, det = case
    n = len(rows)
    h = lattice.hnf_canonicalize(rows)
    assert h.index == abs(det)
    assert lattice.hnf_canonicalize(h.rows) == h
    # a unimodular image: row additions with 64-bit multipliers, a row
    # permutation and sign flips
    mixed = [list(r) for r in rows]
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _BIG_ENTRY)
    for i, j, c in data.draw(st.lists(moves, max_size=8)):
        if i != j:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
    mixed = [r if flip else [-a for a in r] for r, flip in zip(
        data.draw(st.permutations(mixed)), data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))]
    assert lattice.hnf_canonicalize(mixed) == h
    assert lattice.smith_invariants(lattice.hnf_canonicalize(mixed)) == lattice.smith_invariants(h)


@settings(deadline=None, max_examples=100)
@given(_big_nonsingular())
def test_smith_order_with_entries_up_to_two_to_the_64(case):
    rows, det = case
    n = len(rows)
    inv = lattice.smith_invariants(rows)
    assert inv.order == abs(det) and inv.rank <= n
    assert inv == lattice.smith_invariants(lattice.hnf_canonicalize(rows))
    # s_1 is the gcd of the entries; s_n is |det| over the gcd of the
    # (n-1)-minors, the entries of adj(B)
    factors = (1,) * (n - inv.rank) + inv.chain
    assert factors[0] == math.gcd(*(a for r in rows for a in r))
    minors = [
        _det([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]) if n > 1 else 1
        for i in range(n)
        for j in range(n)
    ]
    assert factors[-1] == abs(det) // math.gcd(*minors)
    # every determinantal divisor: s_1 ... s_k is the gcd of the k x k minors
    if n <= 4:
        assert inv.chain == _determinantal_chain(rows)


def test_smith_matches_the_determinantal_divisors():
    rng = SplitMix64(2718)
    entries = [0, 0, 0] + list(range(-6, 7))
    raised = 0
    for _ in range(600):
        m, n = 1 + rng.randbelow(5), 1 + rng.randbelow(4)
        rows = [[entries[rng.randbelow(len(entries))] for _ in range(n)] for _ in range(m)]
        r, scale = rng.randbelow(m), (1, 2, 3, 4, 6)[rng.randbelow(5)]
        rows[r] = [scale * x for x in rows[r]]  # a row factor gives longer chains
        expected = _determinantal_chain(rows)
        if expected is None:
            raised += 1
            with pytest.raises(SingularMatrixError):
                lattice.smith_invariants(rows)
        else:
            assert lattice.smith_invariants(rows).chain == expected, rows
    assert 100 < raised < 500  # both kinds of input are well represented


def test_smith_of_a_40_by_40_matrix():
    # alternating full row HNFs took 52 s here; pivot elimination takes ms
    rng = SplitMix64(40)
    rows = [[rng.randbelow(41) - 20 for _ in range(40)] for _ in range(40)]
    det = _det(rows)
    assert det != 0
    start = time.perf_counter()
    inv = lattice.smith_invariants(rows)
    assert time.perf_counter() - start < 1.0
    assert inv.order == abs(det)


def test_xgcd_is_a_bezout_pair():
    rng = SplitMix64(70)
    values = [0, 1, -1, 2**70, -(2**70)]
    values += [(rng.randbelow(2**71 + 1) - 2**70) >> rng.randbelow(71) for _ in range(400)]
    pairs = list(itertools.product(values[:5], repeat=2))
    pairs += [(values[rng.randbelow(len(values))], values[rng.randbelow(len(values))]) for _ in range(4000)]
    for a, b in pairs:
        g, x, y = lattice._xgcd(a, b)
        assert g == math.gcd(a, b) and a * x + b * y == g, (a, b)


_NON_INTEGERS = (0.9, 2.5, 2.0, Fraction(3, 2), Fraction(2), "3")


def test_hnf_basis_takes_integers_only():
    assert lattice.HnfBasis([[1, 1], [0, 2]]).rows == ((1, 1), (0, 2))
    for x in _NON_INTEGERS:
        with pytest.raises(TypeError):
            lattice.HnfBasis([[1, x], [0, 2]])
    with pytest.raises(ValueError):
        lattice.HnfBasis([[1, 0], [0, 2, 5]])


def test_hnf_canonicalize_takes_integers_only():
    for x in _NON_INTEGERS:
        with pytest.raises(TypeError):
            lattice.hnf_canonicalize([[x, 0], [0, 1]])
    with pytest.raises(ValueError):
        lattice.hnf_canonicalize([[1, 0], [0, 2, 5]])


def test_smith_invariants_takes_integers_only():
    for x in _NON_INTEGERS:
        with pytest.raises(TypeError):
            lattice.smith_invariants([[x, 0], [0, 1]])
    with pytest.raises(ValueError):  # a ragged row used to lose its last entry
        lattice.smith_invariants([[1, 0], [0, 2, 5]])


def test_congruence_vector_takes_integers_only():
    for x in _NON_INTEGERS:
        with pytest.raises(TypeError):
            lattice.CongruenceVector(6, (x, 1))
        with pytest.raises(TypeError):
            lattice.CongruenceVector(x, (1, 1))


def test_invariant_factors_validation():
    with pytest.raises(ValueError):
        lattice.InvariantFactors((1, 2))
    with pytest.raises(ValueError):
        lattice.InvariantFactors((2, 3))  # 2 does not divide 3
    inv = lattice.InvariantFactors((2, 6))
    assert inv.order == 12 and inv.rank == 2


def test_cocyclic_and_rank():
    assert lattice.is_cocyclic(lattice.HnfBasis([[1, 1], [0, 2]]))
    assert lattice.quotient_rank(lattice.HnfBasis([[1, 1], [0, 2]])) == 1
    assert not lattice.is_cocyclic(lattice.HnfBasis([[2, 0], [0, 2]]))
    assert lattice.quotient_rank(lattice.HnfBasis([[2, 0], [0, 2]])) == 2
    assert lattice.is_cocyclic(lattice.HnfBasis.identity(4))
    assert lattice.quotient_rank(lattice.HnfBasis.identity(4)) == 0
    # indices and adj(B) entries above 2^64 (pivots 2^61 - 1 and 2^89 - 1): the
    # adjugate scan runs to the end without meeting a gcd of 1
    p, big = 2**61 - 1, 2**89 - 1
    for rows, rank in (
        ([[p, 0], [0, p]], 2),
        ([[big, 0], [0, big]], 2),
        ([[1, 0, 0], [0, big, 1], [0, 0, big]], 1),
        ([[p, 1, 0], [0, p, 0], [0, 0, p]], 2),
        ([[p, 0, 0], [0, p, 0], [0, 0, p]], 3),
        ([[p, 1], [0, p]], 1),  # Z/p^2: only an off-diagonal minor is a unit
    ):
        basis = lattice.HnfBasis(rows)
        assert lattice.quotient_rank(basis) == rank
        assert lattice.is_cocyclic(basis) == (rank <= 1)


def test_count_sublattices():
    assert lattice.count_sublattices(2, 6) == 12  # sigma(6)
    assert lattice.count_sublattices(3, 2) == 7
    for n in (1, 2, 5):
        assert lattice.count_sublattices(n, 1) == 1
    # sigma identity in dimension 2
    for q in range(1, 80):
        sigma = sum(d for d in range(1, q + 1) if q % d == 0)
        assert lattice.count_sublattices(2, q) == sigma


def test_enumerate_examples():
    got = [b.rows for b in lattice.enumerate_sublattices(2, 2)]
    assert got == [((1, 0), (0, 2)), ((1, 1), (0, 2)), ((2, 0), (0, 1))]
    assert [b.rows for b in lattice.enumerate_sublattices(1, 7)] == [((7,),)]
    assert sum(1 for _ in lattice.enumerate_sublattices(3, 2)) == 7


def test_enumerate_complete_and_duplicate_free():
    for n in (2, 3):
        for q in range(1, 31):
            seen = set()
            for b in lattice.enumerate_sublattices(n, q):
                assert b not in seen
                assert b.index == q
                seen.add(b)
            assert len(seen) == lattice.count_sublattices(n, q)


def _odometer_enumeration(n, q):
    # reference: a template-copy odometer over the above-diagonal positions,
    # row-major, written independently of the enumerator's per-row tuples
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in lattice._ordered_factorizations(q, n):
        template = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for combo in itertools.product(*[range(diag[j]) for _, j in positions]):
            rows = [row[:] for row in template]
            for (i, j), v in zip(positions, combo):
                rows[i][j] = v
            yield tuple(tuple(row) for row in rows)


def test_enumeration_order_matches_the_odometer():
    for n in range(1, 5):
        for q in range(1, 25):
            got = [b.rows for b in lattice._enumerate_sublattices(n, q)]
            assert got == list(_odometer_enumeration(n, q)), (n, q)


_M61 = 2**61 - 1
# pivot -> its primes; factorize refuses the cofactors of 2^61 - 1, so the
# primes of the index are taken from the pivots
_PIVOTS = {
    1: (), 2: (2,), 4: (2,), 8: (2,), 16: (2,), 3: (3,), 9: (3,), 27: (3,), 6: (2, 3),
    12: (2, 3), 10**6 + 3: (10**6 + 3,), 2 * (10**6 + 3): (2, 10**6 + 3),
    _M61: (_M61,), 2 * _M61: (2, _M61), 3 * _M61: (3, _M61), _M61**2: (_M61,),
}


@st.composite
def _hnf_with_primes(draw):
    n = draw(st.integers(1, 6))
    diag = [draw(st.sampled_from(sorted(_PIVOTS))) for _ in range(n)]
    rows = [
        [0] * i + [diag[i]] + [draw(st.integers(0, diag[j] - 1)) for j in range(i + 1, n)]
        for i in range(n)
    ]
    return lattice.HnfBasis(rows), sorted({p for d in diag for p in _PIVOTS[d]})


def _p_rank(rows, p):
    """lattice._p_rank with the pivot split its callers make once per diagonal."""
    divisible = [i for i, row in enumerate(rows) if row[i] % p == 0]
    return lattice._p_rank(rows, p, divisible, [i for i in range(len(rows)) if i not in divisible])


@settings(deadline=None, max_examples=400)
@given(_hnf_with_primes())
def test_p_rank_kernel_matches_smith_rank(case):
    basis, primes = case
    chain = lattice.smith_invariants(basis).chain
    assert lattice.is_cocyclic(basis) == (len(chain) <= 1)
    assert max([_p_rank(basis.rows, p) for p in primes], default=0) == len(chain)
    for p in primes:  # the local rank is the number of invariant factors p divides
        assert _p_rank(basis.rows, p) == sum(d % p == 0 for d in chain)


@pytest.mark.parametrize("n, top", [(1, 60), (2, 60), (3, 60), (4, 24)])
def test_p_rank_of_a_prime_below_two_pivots_is_its_pivot_count(n, top):
    # the premise of the per-diagonal pivot test in counting._rank_counts
    for q in range(1, top + 1):
        primes = arith.factorize(q).primes
        for basis in lattice.enumerate_sublattices(n, q):
            for p in primes:
                k = sum(basis.rows[i][i] % p == 0 for i in range(n))
                if k < 2:
                    assert _p_rank(basis.rows, p) == k, (basis, p)


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        list(lattice.enumerate_sublattices(4, 10**4))  # 3.8e12 lattices, above DEFAULT_ENUM_CAP


def test_congruence_vector_basics():
    v = lattice.CongruenceVector(7, (1, 2))
    assert v.is_primitive
    assert lattice.are_equivalent(v, lattice.CongruenceVector(7, (3, 6)))  # lambda = 3
    assert lattice.are_equivalent(v, v)
    u = lattice.CongruenceVector(4, (1, 0))
    w = lattice.CongruenceVector(4, (2, 0))
    assert not lattice.are_equivalent(u, w)  # w is not even primitive
    with pytest.raises(ValueError):
        lattice.are_equivalent(v, u)


def _scan_equivalent(u, v):
    # reference: the literal scan over every unit lam mod q
    q = u.q
    return any(math.gcd(lam, q) == 1 and v.scaled(lam) == u.a for lam in range(1, q + 1))


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_are_equivalent_matches_the_unit_scan(data):
    q = data.draw(st.integers(1, 60))
    n = data.draw(st.integers(1, 3))
    v = lattice.CongruenceVector(q, data.draw(st.tuples(*[st.integers(0, q - 1)] * n)))
    if data.draw(st.booleans()):  # lam need not be a unit: near misses too
        u = lattice.CongruenceVector(q, v.scaled(data.draw(st.integers(0, q - 1))))
    else:
        u = lattice.CongruenceVector(q, data.draw(st.tuples(*[st.integers(0, q - 1)] * n)))
    assert lattice.are_equivalent(u, v) == _scan_equivalent(u, v)


def test_are_equivalent_at_a_61_bit_modulus():
    q = 2**61 - 1
    start = time.perf_counter()
    assert not lattice.are_equivalent(
        lattice.CongruenceVector(q, (1, 2)), lattice.CongruenceVector(q, (3, 5))
    )
    assert lattice.are_equivalent(
        lattice.CongruenceVector(q, (3, 6)), lattice.CongruenceVector(q, (1, 2))
    )
    assert time.perf_counter() - start < 1.0


def _congruence_hnf_by_generators(v):
    # reference: the generator construction, rows q e_i and a_j e_i - a_i e_j,
    # row-reduced and validated by the checking HnfBasis constructor
    n, q, a = v.n, v.q, v.a
    gens = [[q if k == i else 0 for k in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        row = [0] * n
        row[i], row[j] = a[j], -a[i]
        gens.append(row)
    return lattice.HnfBasis(lattice._row_hnf(gens))


@st.composite
def _congruence_vectors(draw):
    n = draw(st.integers(1, 6))
    q = draw(st.one_of(
        st.integers(1, 60), st.integers(2, 2**90),
        st.builds(lambda e, f: 2**e * 3**f, st.integers(0, 60), st.integers(0, 30)),
    ))
    # zero residues and entries sharing factors with q, not only units
    coords = st.tuples(st.integers(0, 2**90), st.sampled_from((0, 1, 1, 2, 3, 4, 6, 12)))
    return lattice.CongruenceVector(q, tuple(k * m for k, m in draw(st.tuples(*[coords] * n))))


@settings(deadline=None, max_examples=200)
@given(_congruence_vectors(), st.integers(0, 2**100))
def test_are_equivalent_to_a_multiple_iff_the_multiplier_is_a_unit_mod_q_over_g(v, lam):
    # with g = gcd(v, q), lam v = mu v for a unit mu iff lam = mu mod q/g,
    # and the units mod q/g are exactly the residues of the units mod q
    u = lattice.CongruenceVector(v.q, v.scaled(lam))
    assert lattice.are_equivalent(u, v) == (math.gcd(lam, v.q // math.gcd(*v.a, v.q)) == 1)


@settings(deadline=None, max_examples=400)
@given(_congruence_vectors())
def test_congruence_hnf_matches_the_generator_construction(v):
    if not v.is_primitive:
        with pytest.raises(NotPrimitiveError):
            lattice.lattice_from_congruence(v)
        return
    b = lattice.lattice_from_congruence(v)
    assert b.rows == _congruence_hnf_by_generators(v).rows


def test_congruence_hnf_matches_the_generator_construction_exhaustively():
    for n in (2, 3):
        for q in range(1, 31):
            for vec in counting.primitive_class_representatives(n, q):
                v = lattice.CongruenceVector(q, vec)
                assert lattice.lattice_from_congruence(v) == _congruence_hnf_by_generators(v), v


def test_lattice_from_congruence_examples():
    b = lattice.lattice_from_congruence(lattice.CongruenceVector(2, (1, 1)))
    assert b.rows == ((1, 1), (0, 2))
    assert lattice.lattice_from_congruence(
        lattice.CongruenceVector(1, (0, 0, 0))
    ) == lattice.HnfBasis.identity(3)
    b5 = lattice.lattice_from_congruence(lattice.CongruenceVector(5, (0, 1)))
    assert b5.rows == ((1, 0), (0, 5))
    with pytest.raises(NotPrimitiveError):
        lattice.lattice_from_congruence(lattice.CongruenceVector(4, (2, 2)))


def test_congruence_lattice_properties():
    # index q, cyclic quotient of order q, class-invariance
    rng = SplitMix64(5150)
    for _ in range(150):
        n = 2 + rng.randbelow(3)
        q = 2 + rng.randbelow(30)
        a = tuple(rng.randbelow(q) for _ in range(n))
        if math.gcd(*a, q) != 1:
            continue
        v = lattice.CongruenceVector(q, a)
        b = lattice.lattice_from_congruence(v)
        assert b.index == q
        assert lattice.smith_invariants(b).chain == (q,)
        lam = 1 + rng.randbelow(q - 1)
        if math.gcd(lam, q) == 1:
            scaled = lattice.CongruenceVector(q, v.scaled(lam))
            assert lattice.lattice_from_congruence(scaled) == b


def test_membership_of_constructed_lattice():
    # every row of the basis satisfies the defining congruence
    v = lattice.CongruenceVector(12, (3, 4, 1))
    b = lattice.lattice_from_congruence(v)
    for row in b.rows:
        assert sum(c * x for c, x in zip(v.a, row)) % 12 == 0


def test_sampler_support_and_determinism():
    support = {lattice.sample_cocyclic(2, 2, seed) for seed in range(40)}
    expected = {b for b in lattice.enumerate_sublattices(2, 2)}
    assert support == expected  # all three index-2 lattices are co-cyclic
    assert lattice.sample_cocyclic(4, 1, 3) == lattice.HnfBasis.identity(4)
    seen_q4 = {lattice.sample_cocyclic(2, 4, seed) for seed in range(200)}
    assert len(seen_q4) == 6
    assert lattice.HnfBasis([[2, 0], [0, 2]]) not in seen_q4
    a = [b.to_json() for b in lattice.sample_cocyclic_stream(2, 12, 20, 77)]
    b = [b.to_json() for b in lattice.sample_cocyclic_stream(2, 12, 20, 77)]
    assert a == b


def test_verify_sees_a_sampler_that_drops_draws(monkeypatch):
    # dropping the draws with a[0] = 1 and a[-1] even, about half of those,
    # moves each class's weight by at most 1/(2 phi(q)): no chi-square at
    # large q sees it, while the replay sees the first draw that moved
    def biased(n, q, rng):
        while True:
            a = tuple(rng.randbelow(q) for _ in range(n))
            if math.gcd(*a, q) == 1 and not (a[0] == 1 and a[-1] % 2 == 0):
                return lattice.lattice_from_congruence(lattice.CongruenceVector(q, a))

    monkeypatch.setattr(lattice, "sample_cocyclic", biased)
    with pytest.raises(verifysuite.CheckFailure, match=r"^lattice\.sampler-replay: n=2 q=101 "):
        verifysuite.check_sampler_determinism()


def test_json_round_trip():
    b = lattice.HnfBasis([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    doc = b.to_json()
    assert lattice.HnfBasis.from_json(doc) == b
    assert json.loads(doc) == {"n": 3, "rows": [[1, 1, 0], [0, 2, 1], [0, 0, 3]]}
    with pytest.raises(ValueError):
        lattice.HnfBasis.from_json('{"n": 2, "rows": [[1, 0], [1, 2]]}')


def test_to_json_is_the_compact_json_dump():
    rng = SplitMix64(2718)
    bases = list(lattice.enumerate_sublattices(3, 12))
    for q in (1, 2**61 - 1, 2**64 + 1, 2**100 + 277):
        bases += [lattice.sample_cocyclic(n, q, rng) for n in range(1, 7) for _ in range(3)]
    for b in bases:
        assert b.to_json() == json.dumps(b.to_json_dict(), separators=(",", ":"))
        assert lattice.HnfBasis.from_json(b.to_json()) == b


@pytest.mark.parametrize("seed", [1.5, 1.0, "1"], ids=["float", "integral-float", "str"])
def test_sampler_seed_must_be_an_integer(seed):
    # regression: int() truncated 1.5 to seed 1 and parsed "1" as 1
    with pytest.raises(TypeError):
        lattice.sample_cocyclic(2, 12, seed)
    with pytest.raises(TypeError):
        next(lattice.sample_cocyclic_stream(2, 12, 3, seed))


def test_sampler_index_above_two_to_the_64():
    q = 10**20
    start = time.perf_counter()
    basis = lattice.sample_cocyclic(2, q, 1)
    assert time.perf_counter() - start < 1.0
    assert basis.index == q and lattice.is_cocyclic(basis)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.integers(2**64 + 1, 2**90 - 1), st.integers(0, 2**64 - 1))
def test_sampler_support_above_two_to_the_64(n, q, seed):
    b = lattice.sample_cocyclic(n, q, seed)
    assert b.index == q
    assert lattice.smith_invariants(b).chain == (q,)
    assert lattice.hnf_canonicalize(b.rows) == b
    assert lattice.is_cocyclic(b)

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcensus import arith, constants, counting, groups
from latcensus.cli import main
from latcensus.errors import CapExceededError


def test_group_construction_and_validation():
    g = groups.AbelianGroup({2: (1, 2), 3: (1,)})
    assert g.parts == ((2, (2, 1)), (3, (1,)))  # exponents stored descending
    assert g.order == 24 and g.rank == 2
    with pytest.raises(ValueError):
        groups.AbelianGroup({4: (1,)})  # 4 is not prime
    with pytest.raises(ValueError):
        groups.AbelianGroup({2: ()})


def test_invariant_factor_round_trip():
    g = groups.AbelianGroup({2: (2, 1), 3: (1,)})
    inv = g.invariant_factors()
    assert inv.chain == (2, 12)
    assert groups.AbelianGroup.from_invariant_factors(inv.chain) == g
    for chain in ((), (5,), (2, 2), (2, 4), (3, 6, 12)):
        g2 = groups.AbelianGroup.from_invariant_factors(chain)
        assert g2.invariant_factors().chain == chain


def test_census_examples():
    v4 = list(groups.enumerate_groups(4))
    assert [g.describe() for g in v4] == ["1", "2", "3", "2^2", "2*2"]
    assert list(groups.enumerate_groups(1)) == [groups.AbelianGroup.trivial()]
    assert groups.count_isomorphism_classes(8) == 11
    census = list(groups.enumerate_groups(48))
    assert len(census) == groups.count_isomorphism_classes(48)
    assert len(set(census)) == len(census)
    expected = 0
    for bound in range(1, 2001):
        expected += arith.abelian_group_count(bound)
        assert groups.count_isomorphism_classes(bound) == expected
    assert groups.count_isomorphism_classes(10**6) == 2284717  # the per-order sum's value


def test_aut_order_pgroup_examples():
    assert groups.aut_order_pgroup(2, (1, 1)) == 6  # GL_2(F_2)
    assert groups.aut_order_pgroup(2, (2, 1)) == 8
    for p, e in ((2, 3), (3, 2), (5, 1)):
        assert groups.aut_order_pgroup(p, (e,)) == p**e - p ** (e - 1)
    with pytest.raises(ValueError):
        groups.aut_order_pgroup(6, (1,))


def test_aut_order_examples():
    assert groups.aut_order(groups.AbelianGroup.cyclic(6)) == 2
    assert groups.aut_order(groups.AbelianGroup.trivial()) == 1
    assert groups.aut_order(groups.AbelianGroup({2: (1,), 3: (1, 1)})) == 48
    for q in range(2, 30):
        assert groups.aut_order(groups.AbelianGroup.cyclic(q)) == arith.euler_phi(q)


def _naive_group(g):
    """(factors, elements, add, zero) of g from its primary decomposition,
    with tuple arithmetic mod the factors (no _GroupTable involved)."""
    factors = [p**e for p, exps in g.parts for e in exps]
    elements = list(itertools.product(*[range(m) for m in factors]))

    def add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, factors))

    return factors, elements, add, (0,) * len(factors)


def _naive_span(gens, add, zero):
    """The subgroup generated by gens: closure of {0} under adding them."""
    span, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            y = add(x, g)
            if y not in span:
                span.add(y)
                todo.append(y)
    return span


def test_group_table_matches_tuple_addition():
    for g in groups.enumerate_groups(64):
        factors, elements, add, _ = _naive_group(g)
        table = groups._GroupTable(g)
        assert table.elements == elements
        index = {x: i for i, x in enumerate(elements)}
        assert table.add_table == [[index[add(x, y)] for y in elements] for x in elements], g


def test_aut_order_matches_naive_image_enumeration():
    # literal oracle: enumerate all order-compatible generator images and
    # test bijectivity through the induced map
    def aut_naive(g):
        factors, elements, add, zero = _naive_group(g)
        if not factors:
            return 1

        def order(x):
            return math.lcm(*(m // math.gcd(a, m) for a, m in zip(x, factors)))

        candidates = [[e for e in elements if m % order(e) == 0] for m in factors]
        count = 0
        for images in itertools.product(*candidates):
            seen = set()
            for x in elements:
                img = zero
                for xi, b in zip(x, images):
                    for _ in range(xi):
                        img = add(img, b)
                seen.add(img)
            if len(seen) == len(elements):
                count += 1
        return count

    for g in groups.enumerate_groups(12):
        assert groups.aut_order(g) == groups.aut_order_bruteforce(g) == aut_naive(g)


def test_aut_bruteforce_matches_formula_to_order_48():
    for g in groups.enumerate_groups(48):
        assert groups.aut_order(g) == groups.aut_order_bruteforce(g), g


def test_integer_pgroup_formula_matches_fraction_formula():
    def aut_fraction(p, exps):
        runs = [(e, len(list(grp))) for e, grp in itertools.groupby(exps)]
        out = Fraction(p ** sum(min(ei, ej) * ri * rj for ei, ri in runs for ej, rj in runs))
        for _, r in runs:
            for s in range(1, r + 1):
                out *= 1 - Fraction(1, p**s)
        assert out.denominator == 1
        return out.numerator

    for p in (2, 3, 5, 7, 11, 13):
        for k in range(11):
            for exps in groups._partitions_of(k):
                assert groups.aut_order_pgroup(p, exps) == aut_fraction(p, exps), (p, exps)
                assert groups.aut_order_pgroup(p, list(reversed(exps))) == aut_fraction(p, exps)
    with pytest.raises(ValueError):
        groups.aut_order_pgroup(9, (1,))
    with pytest.raises(ValueError):
        groups.aut_order_pgroup(3, (2, 0))


def test_automorphism_maps_are_automorphisms_of_tuples():
    g = groups.AbelianGroup({2: (2, 1)})
    _, elements, add, _ = _naive_group(g)
    autos = groups.automorphism_maps(g)
    assert len(autos) == groups.aut_order(g) == 8
    assert len({tuple(sorted(a.items())) for a in autos}) == len(autos)
    for a in autos:
        assert set(a) == set(a.values()) == set(elements)
        for x in elements:
            for y in elements:
                assert a[add(x, y)] == add(a[x], a[y])


# (group, n values): every group of order <= 16, and groups above 16 whose
# joins <H, e>/H run through composite cyclic orders (join fills of several classes)
_DP_REFERENCE_GRID = [(g, (1, 2, 3)) for g in groups.enumerate_groups(16)] + [
    (groups.AbelianGroup.cyclic(36), (1, 2)),
    (groups.AbelianGroup.cyclic(60), (1, 2)),
    (groups.AbelianGroup.from_invariant_factors((4, 12)), (1, 2)),
]


def test_spanning_tuples_are_the_tuples_the_dp_counts():
    # the literal enumeration lists exactly the tuples the DP counts, for the
    # endomorphism candidates and for every element at each n, each spanning G
    for g, ns in _DP_REFERENCE_GRID:
        table = groups._GroupTable(g)
        _, elements, add, zero = _naive_group(g)
        spans = {}  # element set -> the size of its span
        everything = range(table.order)
        for cands in [table.endomorphism_images()] + [[everything] * n for n in ns]:
            tuples = list(table.spanning_tuples(cands))
            assert len(tuples) == len(set(tuples)) == table.count_spanning_tuples(cands), (g, len(cands))
            for tup in tuples:
                assert all(e in c for e, c in zip(tup, cands)) and len(tup) == len(cands)
                key = frozenset(tup)
                if key not in spans:
                    spans[key] = len(_naive_span([elements[e] for e in key], add, zero))
                assert spans[key] == table.order, (g, tup)


def test_the_dp_extends_once_per_generator_class(monkeypatch):
    # <H, e> is written for every x in k e + H, gcd(k, |<H, e>/H|) = 1, so each
    # generator class of the cyclic quotient costs one extension
    calls = []
    real = groups._GroupTable._extend
    monkeypatch.setattr(groups._GroupTable, "_extend", lambda self, H, g: calls.append(g) or real(self, H, g))

    def extensions(route, *args):
        calls.clear()
        route(*args)
        return len(calls)

    z97, z60 = groups.AbelianGroup.cyclic(97), groups.AbelianGroup.cyclic(60)
    assert extensions(groups.generating_tuples_count, z97, 1) == 2  # 97, one per coset
    assert extensions(groups.generating_tuples_count, z97, 2) == 3  # 98
    assert extensions(groups.generating_tuples_count, z60, 2) == 54  # 168
    # in (Z/2)^5 every quotient <H, e>/H has order 2 and one generator class
    assert extensions(groups.aut_order_bruteforce, groups.AbelianGroup({2: (1,) * 5})) == 2450


def test_automorphism_maps_are_pinned_to_order_24():
    # the digest of every map, in order, as the depth-first image search listed them
    digest, maps = hashlib.sha256(), 0
    for g in groups.enumerate_groups(24):
        for a in groups.automorphism_maps(g):
            digest.update(repr(list(a.items())).encode())
            maps += 1
    assert maps == 21310
    assert digest.hexdigest() == "90ca3e140e19619fb624e1bd0656c8392cb346fb2891d93a827155577629d22b"
    assert groups.automorphism_maps(groups.AbelianGroup.trivial()) == [{(): ()}]


def test_aut_order_qm():
    assert groups.aut_order_qm(2, 2) == 6
    assert groups.aut_order_qm(3, 2) == 48
    for q in (2, 3, 5, 7, 11):
        assert groups.aut_order_qm(q, 1) == q - 1
    for q in range(1, 13):
        for m in (1, 2, 3):
            assert groups.aut_order_qm(q, m) == groups.aut_order(
                groups.AbelianGroup.power_of_cyclic(q, m)
            )


def test_generating_tuples_against_naive_enumeration():
    def generating_naive(g, n):
        _, elements, add, zero = _naive_group(g)
        return sum(
            len(_naive_span(tup, add, zero)) == len(elements)
            for tup in itertools.product(elements, repeat=n)
        )

    cases = [
        (groups.AbelianGroup({2: (1, 1)}), 2),
        (groups.AbelianGroup({2: (1, 1)}), 3),
        (groups.AbelianGroup.cyclic(6), 2),
        (groups.AbelianGroup({2: (2,)}), 2),
        (groups.AbelianGroup({3: (1, 1)}), 2),
    ]
    for g, n in cases:
        assert groups.generating_tuples_count(g, n) == generating_naive(g, n)


def test_lazy_dp_matches_the_closed_generating_count():
    # n below, at and above the rank: the DP reads few join rows below the rank.
    # A p-part of rank r and exponent sum e has p^((e - r) n) prod_{i<r} (p^n - p^i)
    # generating n-tuples: those that span it mod p, times any lift.
    for G in groups.enumerate_groups(64):
        for n in range(6):
            closed = 1
            for p, exps in G.parts:
                r = len(exps)
                closed *= p ** ((sum(exps) - r) * n) * math.prod(p**n - p**i for i in range(r))
            assert groups.generating_tuples_count(G, n) == closed, (G, n)


def test_generating_tuples_examples():
    g22 = groups.AbelianGroup({2: (1, 1)})
    assert groups.generating_tuples_count(g22, 2) == 6
    assert groups.primitive_class_count(g22, 2) == 1  # the unique lattice 2Z^2
    assert groups.primitive_class_count(groups.AbelianGroup.trivial(), 5) == 1
    assert groups.primitive_class_count(g22, 1) == 0  # below the rank


def test_cyclic_class_count_matches_counting_module():
    for q in range(1, 31):
        g = groups.AbelianGroup.cyclic(q)
        for n in (2, 3, 4):
            assert groups.primitive_class_count(g, n) == counting.count_primitive_classes(n, q)


def test_pak_examples():
    assert groups.pak_check(groups.AbelianGroup.cyclic(8), 9, 1)
    assert groups.pak_check(groups.AbelianGroup.trivial(), 1, 1)
    assert groups.pak_check(groups.AbelianGroup({2: (1, 1)}), 7, 1)


def test_mass_examples():
    assert groups.cl_total_mass(3) == Fraction(5, 2)
    assert groups.cl_total_mass(4) == Fraction(19, 6)
    assert groups.cl_predicate_mass(300, "cyclic") == arith.landau_sum(300)
    assert groups.cl_predicate_mass(300, "squarefree-order") == arith.ward_sum(300)
    le1 = groups.cl_predicate_mass(40, "rank-at-most", r=1)
    assert le1 == groups.cl_predicate_mass(40, "cyclic")
    with pytest.raises(ValueError):
        groups.cl_predicate_mass(10, "no-such-predicate")


def test_predicate_mass_rejects_r_without_rank_at_most():
    for predicate in ("cyclic", "squarefree-order"):
        with pytest.raises(ValueError):
            groups.cl_predicate_mass(10, predicate, 3)
    assert groups.cl_predicate_mass(10, "rank-at-most", 3) == groups.cl_total_mass(10)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 10**9)), max_size=50))
def test_reciprocal_sum_is_the_literal_sum(ds):
    # the small range brings repeats and 1s; the empty list sums to 0
    assert groups._reciprocal_sum(ds) == sum((Fraction(1, d) for d in ds), Fraction(0))
    assert groups._reciprocal_sum([]) == 0


def test_reciprocal_sum_merges_seeded_multisets_exactly():
    # long multisets with many repeats and an odd number of distinct values:
    # every level of the pairwise merge carries one unpaired term
    rng = random.Random(2024)
    for size in (0, 1, 2, 3, 1001, 4097):
        ds = [rng.choice((1, 2, 6, rng.randrange(1, 50), rng.randrange(1, 10**12))) for _ in range(size)]
        assert groups._reciprocal_sum(ds) == sum((Fraction(1, d) for d in ds), Fraction(0)), size
    assert groups._reciprocal_sum([7] * 21) == 3


def _literal_masses(V):
    """Every exact mass of order <= V, each a literal per-group Fraction loop:
    key (predicate, r) -> mass, with (None, None) the total."""
    total, cyclic, squarefree = Fraction(0), Fraction(0), Fraction(0)
    by_rank = [Fraction(0)] * 12  # (Z/2)^11 has order 2048
    for G in groups.enumerate_groups(V):
        w = Fraction(1, groups.aut_order(G))
        total += w
        cyclic += w if G.rank <= 1 else 0
        squarefree += w if all(exps == (1,) for _, exps in G.parts) else 0
        by_rank[G.rank] += w
    masses = {(None, None): total, ("cyclic", None): cyclic, ("squarefree-order", None): squarefree}
    masses.update((("rank-at-most", r), sum(by_rank[: r + 1])) for r in range(len(by_rank)))
    return masses


def _ask(V, predicate, r):
    return groups.cl_total_mass(V) if predicate is None else groups.cl_predicate_mass(V, predicate, r)


def test_masses_match_a_literal_fraction_loop():
    # the mass cells of one V are kept: no answer may depend on what was asked
    # before, so every mass is asked in several orders from a cleared memo
    expected = {V: _literal_masses(V) for V in (1, 2, 12, 64, 300, 997, 3027)}
    in_turn = [(V, key) for V, masses in expected.items() for key in masses]
    predicates_first = [(V, key) for V, masses in expected.items() for key in reversed(masses)]
    switching = [(V, key) for key in expected[1] for V in (12, 300, 12, 64, 1, 3027, 64, 997, 2)]
    for order in (in_turn, predicates_first, switching):
        groups._mass_cells.cache_clear()
        for V, key in order:
            assert _ask(V, *key) == expected[V][key], (V, key)


@pytest.fixture
def walks(monkeypatch):
    """The bounds V of every census walk, from a cleared mass memo."""
    seen = []
    aut_walk = groups._aut_walk
    monkeypatch.setattr(groups, "_aut_walk", lambda V: seen.append(V) or aut_walk(V))
    groups._mass_cells.cache_clear()
    yield seen
    groups._mass_cells.cache_clear()


def test_exact_masses_above_the_census_cap_refuse_before_walking(walks, monkeypatch):
    monkeypatch.setattr(groups, "primes_upto", lambda V: pytest.fail("the walk started"))
    V = groups.DEFAULT_CENSUS_CAP + 1
    with pytest.raises(CapExceededError, match=f"census bound {V} exceeds cap"):
        groups.cl_total_mass(V, exact_limit=V)
    for predicate, r in (("cyclic", None), ("squarefree-order", None), ("rank-at-most", 2)):
        with pytest.raises(CapExceededError, match=f"census bound {V} exceeds cap"):
            groups.cl_predicate_mass(V, predicate, r)
    # each mass asks the walk, which refuses before it sieves; no cell is kept
    assert walks == [V] * 4 and groups._mass_cells.cache_info().currsize == 0


def test_one_walk_serves_every_mass_of_the_oracle_job(walks):
    V = 3000
    exact = groups.cl_total_mass(V)
    assert groups.cl_total_mass(V, exact_limit=0).contains(exact)
    assert groups.cl_predicate_mass(V, "cyclic") == arith.landau_sum(V)
    assert groups.cl_predicate_mass(V, "squarefree-order") == arith.ward_sum(V)
    assert walks == [V]


def test_one_walk_serves_clmass_with_a_predicate(walks, capsys):
    assert main(["clmass", "--V", "3000", "--predicate", "cyclic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["predicate_mass"]["exact"] and walks == [3000]


def test_predicate_masses_share_their_walk(walks):
    assert groups.cl_predicate_mass(10**4, "cyclic") == arith.landau_sum(10**4)
    assert groups.cl_predicate_mass(10**4, "squarefree-order") == arith.ward_sum(10**4)
    assert walks == [10**4]


def test_every_exact_mass_at_one_V_costs_one_walk_in_any_order(walks):
    # the cyclic mass first, then the total and the other predicates: one table serves them all
    V = 3000
    assert groups.cl_predicate_mass(V, "cyclic") == arith.landau_sum(V)
    total = groups.cl_total_mass(V)
    assert groups.cl_predicate_mass(V, "squarefree-order") == arith.ward_sum(V)
    assert groups.cl_predicate_mass(V, "rank-at-most", 2) < total
    assert walks == [V]


def test_verify_sees_a_wrong_aut_order_in_a_mass_cell(walks, capsys, monkeypatch):
    # the walk reads #Aut per prime power: Z/7 is the partition (1,) of p^1, p = 7
    aut_order_pgroup = groups._aut_order_pgroup
    wrong = lambda p, exps: aut_order_pgroup(p, exps) + ((p, exps) == (7, (1,)))
    monkeypatch.setattr(groups, "_aut_order_pgroup", wrong)
    assert main(["verify", "--suite", "masses"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["failed"] == "groups.cyclic-mass-landau"


def test_float_mass_matches_exact_at_crossover():
    exact = groups.cl_total_mass(3000)
    approx = groups.cl_total_mass(3000, exact_limit=100)
    assert abs(float(approx.value) - float(exact)) <= 1e-10
    assert approx.contains(exact)


def test_rank_prob():
    p0 = constants.rank_prob(2, 0, 1e-12)
    assert abs(float(p0.value) - 0.288788095) < 1e-8
    total = sum((constants.rank_prob(2, r, 1e-12) for r in range(1, 11)), p0)
    assert abs(float(total.value) - 1.0) < 1e-8
    assert 0.998 <= float(constants.rank_prob(997, 0, 1e-12).value) <= 1.0
    with pytest.raises(ValueError):
        constants.rank_prob(4, 1)


def test_delta_rank_at_most():
    le1 = constants.delta_rank_at_most(1)
    assert le1.overlaps(constants.density_cocyclic_limit())
    le2 = constants.delta_rank_at_most(2)
    assert 0.994 <= float(le2.value) <= 0.996
    assert le1.certainly_less(le2)
    assert float(le2.upper) < 1
    with pytest.raises(ValueError):
        constants.delta_rank_at_most(0)


def test_delta_rank_at_least_bound():
    b2 = constants.delta_rank_at_least_bound(2)
    le1 = constants.delta_rank_at_most(1)
    assert float((1 - le1).value) <= float(b2.upper)
    # the r=3 bound tracks its 8*2^-9 leading term (frozen from evaluation:
    # the ratio is about 1.0201)
    b3 = constants.delta_rank_at_least_bound(3)
    assert 8 * 2.0**-9 * 0.99 <= float(b3.value) <= 8 * 2.0**-9 * 1.021
    b4 = constants.delta_rank_at_least_bound(4)
    assert float(b4.upper) < float(b3.lower) < float(b3.upper) < float(b2.lower)
    with pytest.raises(ValueError):
        constants.delta_rank_at_least_bound(1)


def test_uniform_densities():
    assert 0.43 <= float(constants.uniform_density_cyclic().value) <= 0.45
    assert 0.25 <= float(constants.uniform_density_squarefree().value) <= 0.27
    frac = Fraction(10**5, groups.count_isomorphism_classes(10**5))
    assert abs(float(frac) - float(constants.uniform_density_cyclic().value)) < 0.02


def test_table_cap():
    with pytest.raises(CapExceededError):
        groups.generating_tuples_count(groups.AbelianGroup.cyclic(5000), 2)


def test_subgroup_lattice_and_automorphism_caps():
    # regression: (Z/2)^8 has 417,199 subgroups, a join table of 1.1 * 10^8
    # entries, which was built in full; it is refused early instead
    g = groups.AbelianGroup.power_of_cyclic(2, 8)
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        groups.generating_tuples_count(g, 8)
    assert time.perf_counter() - start < 2
    # and #GL_8(F_2) maps are refused before any is listed
    with pytest.raises(CapExceededError):
        groups.automorphism_maps(g)

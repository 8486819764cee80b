import itertools
import json
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcensus import arith, counting, lattice, verifysuite
from latcensus.errors import CapExceededError


def test_class_count_formula_examples():
    assert counting.count_primitive_classes(2, 2) == 3
    assert counting.count_primitive_classes(3, 2) == 7
    assert counting.count_primitive_classes(2, 12) == 24
    assert counting.count_primitive_classes(2, 1) == 1
    with pytest.raises(ValueError):
        counting.count_primitive_classes(1, 5)


def test_class_count_multiplicative():
    for a, b in ((4, 3), (5, 8), (9, 10), (7, 12)):
        for n in (2, 3, 4):
            assert counting.count_primitive_classes(n, a * b) == counting.count_primitive_classes(
                n, a
            ) * counting.count_primitive_classes(n, b)


def test_bruteforce_examples():
    assert counting.count_primitive_classes_bruteforce(2, 2) == 3
    assert counting.count_primitive_classes_bruteforce(2, 1) == 1
    assert counting.count_primitive_classes_bruteforce(2, 5) == 6


def test_bruteforce_refuses_q_over_the_sieve_cap_before_allocating(monkeypatch):
    def scan(n, q):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(counting, "_primitive_vector_count", scan)
    for n in (2, 3, 4):
        with pytest.raises(CapExceededError):
            counting.count_primitive_classes_bruteforce(n, arith.SIEVE_CAP + 1)


def test_bruteforce_reference_reimplementation():
    # a 12-line literal re-implementation of the seen-set oracle, to pin the
    # gcd scan and the class representatives on small moduli
    def classes_naive(n, q):
        if q == 1:
            return 1
        units = [l for l in range(1, q) if math.gcd(l, q) == 1]
        seen = set()
        for packed in range(q**n):
            vec = tuple(packed // q ** (n - 1 - i) % q for i in range(n))
            if math.gcd(*vec, q) != 1:
                continue
            seen.add(min(tuple(l * x % q for x in vec) for l in units))
        return len(seen)

    for n, qs in ((2, range(1, 13)), (3, (1, 2, 3, 4, 6, 9))):
        for q in qs:
            naive = classes_naive(n, q)
            assert counting.count_primitive_classes_bruteforce(n, q) == naive
            assert len(counting.primitive_class_representatives(n, q)) == naive


def test_class_representatives_equal_the_naive_lex_min_set():
    # every primitive vector scaled by every unit, the least scaling kept
    def naive(n, q):
        units = [lam for lam in range(q) if math.gcd(lam, q) == 1]  # [0] at q = 1
        return sorted({
            min(tuple(lam * x % q for x in vec) for lam in units)
            for vec in itertools.product(range(q), repeat=n)
            if math.gcd(*vec, q) == 1
        })

    for n, top in ((1, 40), (2, 30), (3, 12), (4, 6)):
        for q in range(1, top + 1):
            assert counting.primitive_class_representatives(n, q) == naive(n, q), (n, q)


def test_bruteforce_tiers_agree():
    # the materialized lex-least representatives against the gcd scan
    for n, q in ((2, 30), (2, 97), (3, 18), (4, 9)):
        reps = counting.primitive_class_representatives(n, q)
        oracle = counting.count_primitive_classes_bruteforce(n, q)
        assert len(reps) == oracle == counting.count_primitive_classes(n, q)


def test_class_representatives():
    reps = counting.primitive_class_representatives(2, 5)
    assert len(reps) == 6
    assert all(math.gcd(*vec, 5) == 1 for vec in reps)
    assert counting.primitive_class_representatives(3, 1) == [(0, 0, 0)]


def test_class_representatives_refuse_bad_input():
    for n, q in ((2, -3), (2, 0), (0, 5)):
        with pytest.raises(ValueError):
            counting.primitive_class_representatives(n, q)
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError):
        counting.primitive_class_representatives(4, 10**4)
    assert time.perf_counter() - t0 < 1


def test_class_representatives_cap_on_work_not_only_memory():
    # 547^2 vectors fit in memory, but 546 unit scalings of each took 6 s
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError):
        counting.primitive_class_representatives(2, 547)
    assert time.perf_counter() - t0 < 1
    # sizes near the cap, and (3, 30), the largest grid of verify and the tests
    for n, q in ((3, 66), (4, 23), (5, 12), (3, 30)):
        reps = counting.primitive_class_representatives(n, q)
        assert len(reps) == counting.count_primitive_classes(n, q)


def test_count_cocyclic_examples():
    assert counting.count_cocyclic(2, 4) == 14  # 1 + 3 + 4 + 6
    for n in (2, 3, 5):
        assert counting.count_cocyclic(n, 1) == 1
    small_census = counting.census_cocyclic_bruteforce(2, 30)
    assert counting.count_cocyclic(2, 30) == small_census


def test_count_squarefree_examples():
    assert counting.count_squarefree(2, 6) == 26  # q in {1,2,3,5,6}
    assert counting.count_squarefree(2, 1) == 1
    assert counting.count_squarefree(2, 4) == 8  # q=4 excluded
    direct = sum(
        counting.count_primitive_classes(3, q)
        for q in range(1, 31)
        if arith.is_squarefree(arith.factorize(q))
    )
    assert counting.count_squarefree(3, 30) == direct


def test_total_count_examples():
    assert counting.total_count(2, 4) == 15  # 1 + 3 + 4 + 7
    assert counting.total_count(1, 9) == 9
    assert counting.total_count(2, 4) - counting.count_cocyclic(2, 4) == 1  # only 2Z^2
    assert counting.total_count(3, 50) == sum(lattice.count_sublattices(3, q) for q in range(1, 51))


def test_rank_stratification():
    assert counting.count_by_rank_bruteforce(2, 2, 4) == 1  # the lattice 2Z^2
    assert counting.count_by_rank_bruteforce(2, 0, 4) == 1  # only Z^2
    strat = counting.counts_by_rank_bruteforce(2, 4)
    assert sum(strat.values()) == counting.total_count(2, 4) == 15
    assert strat == {0: 1, 1: 13, 2: 1}


def test_divisor_resummation_identity_small():
    for n in (2, 3):
        V = 60
        direct = sum(counting.count_primitive_classes(n, q) for q in range(1, V + 1))
        resummed = Fraction(0)
        for d in range(1, V + 1):
            w = arith.fn_weight(n, d)
            if w:
                resummed += w * d ** (n - 1) * sum(k ** (n - 1) for k in range(1, V // d + 1))
        assert resummed == direct


def test_leading_terms_scale():
    # the census record's density constant c gives the leading term
    # c V^n / n; the ratio drifts toward 1 at modest V already
    for mode in ("cyclic", "all"):
        record = counting.census(mode, 2)
        r = 2 * record.count(3000) / (float(record.density(1e-10).value) * 3000**2)
        assert 0.99 <= r <= 1.01, (mode, r)


@pytest.mark.parametrize("mode", ["cyclic", "squarefree", "all"])
def test_density_factor_is_the_local_series_of_the_count(mode):
    # c = xi(2, n) prod_p H_p(p^-n), H the correction _powerful_sum walks, so
    # at x = 1/p the density's Euler factor is xi_p sum_e H(p^e) x^(ne),
    # xi_p = prod_{k=2..n} (1 - x^k)^-1; H vanishes beyond e = n + 1
    from latcensus import constants

    def at(factor, x):
        N, D = factor
        return sum(c * x**i for i, c in enumerate(N)) / sum(c * x**i for i, c in enumerate(D))

    for n in range(2, 7):
        record = counting.census(mode, n)
        for p in (2, 3, 5):
            x = Fraction(1, p)
            h = counting._h_series(n, p, counting._local(n, record.high, record.squarefree), n + 4)
            assert not any(h[n + 2 :]), (n, p, h)
            xi_p = 1 / math.prod(1 - x**k for k in range(2, n + 1))
            if mode == "cyclic":
                factor = at(constants.theta_n_factor(n), x)
            elif mode == "squarefree":  # 6/pi^2 = prod_p (1 - p^-2)
                factor = (1 - x**2) * at(constants.rho_n_factor(n), x)
            else:
                factor = xi_p
            assert xi_p * sum(c * x ** (n * e) for e, c in enumerate(h)) == factor, (n, p)


def test_census_at_a_dimension_far_above_log_v():
    # H(p^e) is read only for e <= log_p V, far below n = 300
    assert counting.count_cocyclic(300, 1000) == counting.census("cyclic", 300).sieve(1000)


def test_closed_forms_are_the_rank_factors():
    # rank <= 1 is the class count, rank <= n the total census, at every prime power
    for n in range(1, 7):
        for p in (2, 3, 5, 7):
            for e in range(1, 8):
                assert counting._prime_power_class_count(n, p, e) == counting._rank_factor(n, 1)(p, e)
                assert counting._rank_factor(n, n)(p, e) == lattice._count_prime_power(n, p, e)
    # the second route's cotype counts: each is the surjection count over #Aut
    # of its quotient, one partition at a time, and they sum to every rank factor
    for n in range(1, 9):
        for p in (2, 3, 5, 7):
            for e in range(1, 11):
                for lam in arith._partitions_of(e):
                    l, conjugate = len(lam), tuple(sum(x > i for x in lam) for i in range(lam[0]))
                    surj = p ** (n * (e - l)) * math.prod(p**n - p**i for i in range(l))
                    assert counting._cotype_count(n, p, conjugate) * arith._aut_order_pgroup(p, lam) == surj
                for k in range(1, n + 1):
                    assert counting._cotype_factor(n, k, False)(p, e) == counting._rank_factor(n, k)(p, e)


def test_verify_sees_a_wrong_rank_factor_at_n5(monkeypatch, capsys):
    # the sieve route reads the cotype counts, not the fast route's rank factor
    from latcensus.cli import main

    rank_factor = counting._rank_factor

    def off_by_one(n, m):
        local = rank_factor(n, m)
        return (lambda p, e: local(p, e) + (e == 4)) if (n, m) == (5, 2) else local

    right = counting.count_by_rank(5, 2, 16)
    monkeypatch.setattr(counting, "_rank_factor", off_by_one)
    assert counting.count_by_rank(5, 2, 16) != right
    assert main(["verify", "--suite", "formulas"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["failed"] == "counting.dirichlet-vs-sieve"


def _wrong_rank_factor_at_two_to_the_17(rank_factor):
    def mutant(n, m):
        local = rank_factor(n, m)
        return lambda p, e: local(p, e) + ((n, p, e) == (6, 2, 17))

    return mutant


# function name -> (its module, patch of it, a public call of that module
# whose answer the patch moves); each patch is off by one (or doubles) only
# where no grid before its killing row reaches
FAST_ROUTE_MUTANTS = {
    "_power_sum": (counting, lambda f: lambda j, m: f(j, m) + (m > 10**6), ("count_cocyclic", 2, 2 * 10**6)),
    "_h_series": (
        counting,
        lambda f: lambda n, p, local, top: [h + (p > 1000 and e == 2) for e, h in enumerate(f(n, p, local, top))],
        ("count_cocyclic", 2, 2 * 10**6),
    ),
}
LOCAL_FACTOR_MUTANTS = {
    "_rank_factor": (counting, _wrong_rank_factor_at_two_to_the_17, ("count_by_rank", 6, 2, 2**17)),
    "_prime_power_class_count": (
        counting,
        lambda f: lambda n, p, e: f(n, p, e) + (p > 320 and e >= 2),
        ("count_primitive_classes", 2, 331**2),
    ),
    # the memo is bypassed, so no wrong value outlives the patch
    "_count_prime_power": (
        lattice,
        lambda f: lambda n, p, e: f.__wrapped__(n, p, e) + (n == 3 and p > 150 and e == 2),
        ("count_sublattices", 3, 151**2),
    ),
    # the unmemoized order that _rank_factor reads, doubled at p > 400 for two parts
    "_aut_order_pgroup": (
        counting,
        lambda f: SimpleNamespace(__wrapped__=lambda p, lam: f.__wrapped__(p, lam) * (1 + (p > 400 and len(lam) == 2))),
        ("count_by_rank", 3, 2, 401**2),
    ),
}


def _apply_mutant(monkeypatch, name, mutants):
    module, patch, (public, *args) = mutants[name]
    right = getattr(module, public)(*args)
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    assert getattr(module, public)(*args) != right


@pytest.mark.parametrize("name", sorted(FAST_ROUTE_MUTANTS))
def test_verify_sees_a_fast_route_wrong_above_one_million(monkeypatch, name):
    # only the second route's n = 2 row at V = 2e6 reaches these arguments
    _apply_mutant(monkeypatch, name, FAST_ROUTE_MUTANTS)
    with pytest.raises(verifysuite.CheckFailure, match=r"^counting\.dirichlet-vs-sieve: .* V=2000000: "):
        verifysuite.check_dirichlet_vs_sieve()


@pytest.mark.parametrize("name", sorted(LOCAL_FACTOR_MUTANTS))
def test_verify_sees_a_wrong_local_factor_beyond_the_census_grid(monkeypatch, name):
    _apply_mutant(monkeypatch, name, LOCAL_FACTOR_MUTANTS)
    with pytest.raises(verifysuite.CheckFailure, match=r"^counting\.local-factor-identity: "):
        verifysuite.check_local_factor_identity()


def _answer(route, V):
    try:
        return route(V)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("mode", ["cyclic", "squarefree", "all", "rank"])
def test_the_three_routes_of_a_record_refuse_alike(mode):
    # census() refuses an n below the mode's least dimension, and one V check
    # precedes count, sieve and oracle: the routes give one integer or all raise
    least = 2 if mode in ("cyclic", "squarefree") else 1
    for n in (-1, 0, 1, 2, 3):
        for m in range(n + 2) if mode == "rank" else [None]:
            try:
                record = counting.census(mode, n, m)
            except ValueError:
                assert n < least, (n, m)
                continue
            assert n >= least, (n, m)
            for V in (-5, 0, 1, 7):
                answers = {_answer(route, V) for route in (record.count, record.sieve, record.oracle)}
                assert len(answers) == 1 and (V < 1) == (answers == {ValueError}), (n, m, V, answers)


def test_cocyclic_share_at_desk_scale():
    # in dimension 3 the co-cyclic share approaches a ratio of density
    # constants; at V = 1e4 it is already within 2%
    from latcensus import constants

    V = 10**4
    share = counting.count_cocyclic(3, V) / counting.total_count(3, V)
    limit = float(
        (constants.theta_n(3, 1e-10) / constants.xi(2, 3, 1e-10)).value
    )
    assert abs(share - limit) <= 0.02 * limit


@settings(deadline=None)
@given(
    n=st.integers(2, 6),
    mode=st.sampled_from(("all", "cyclic", "squarefree")),
    V=st.integers(1, 2 * 10**4),
)
def test_dirichlet_route_matches_sieve_route(n, mode, V):
    record = counting.census(mode, n)
    assert record.count(V) == record.sieve(V)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(2, 5), data=st.data(), V=st.integers(1, 2 * 10**4))
def test_rank_route_matches_sieve_route(n, data, V):
    m = data.draw(st.integers(0, n), label="m")
    assert counting.count_by_rank(n, m, V) == counting.census("rank", n, m).sieve(V)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_route_sums_to_the_other_censuses(n):
    V = 10**5
    by_rank = [counting.count_by_rank(n, m, V) for m in range(n + 2)]
    assert by_rank[0] == 1 and by_rank[n + 1] == 0
    assert by_rank[0] + by_rank[1] == counting.count_cocyclic(n, V)
    assert sum(by_rank) == counting.total_count(n, V)
    with pytest.raises(ValueError):
        counting.count_by_rank(n, -1, V)


@pytest.mark.parametrize("n, V", [(2, 150), (3, 40), (4, 20), (5, 12)])
def test_rank_route_matches_enumeration(n, V):
    oracle = counting.counts_by_rank_bruteforce(n, V)
    assert {m: counting.count_by_rank(n, m, V) for m in range(n + 1)} == {
        m: oracle.get(m, 0) for m in range(n + 1)
    }


def test_census_spot_values_at_one_million():
    # values of the sieve route, which summed every q <= 10^6
    assert counting.count_cocyclic(2, 10**6) == 759909706088
    assert counting.count_squarefree(2, 10**6) == 415948408576
    assert counting.total_count(2, 10**6) == 822468118437


def test_cocyclic_census_at_ten_to_the_ten():
    assert counting.count_cocyclic(2, 10**10) == 75990887739024147984


def test_power_sum_matches_direct_sum():
    for j in range(9):
        for m in range(40):
            assert counting._power_sum(j, m) == sum(i**j for i in range(1, m + 1))


def test_census_cap_checked_before_work(monkeypatch):
    for mode, m in (("cyclic", None), ("squarefree", None), ("all", None), ("rank", 1)):
        with pytest.raises(CapExceededError):
            counting.census(mode, 2, m).count(10**30)
    assert counting.total_count(1, 10**30) == 10**30  # no floor-value work
    monkeypatch.setattr(counting, "DEFAULT_FLOOR_VALUE_CAP", 100)
    with pytest.raises(CapExceededError):
        counting.total_count(3, 1000)


def test_correction_must_vanish_at_primes():
    # a local factor that disagrees with the total census at p breaks H(p) = 0
    with pytest.raises(RuntimeError):
        counting._powerful_sum(2, 100, lambda p, e: 1)


def test_enumeration_guard_counts_like_the_table(monkeypatch):
    for n in range(1, 5):
        prefix = 0
        for V in range(1, 201):
            prefix += lattice.count_sublattices(n, V)
            assert counting.total_count(n, V) == prefix, (n, V)
    total = counting.total_count(3, 200)
    monkeypatch.setattr(lattice, "DEFAULT_ENUM_CAP", total)
    counting._guard_enumeration(3, 200)
    monkeypatch.setattr(lattice, "DEFAULT_ENUM_CAP", total - 1)
    with pytest.raises(CapExceededError):
        counting._guard_enumeration(3, 200)


def test_census_oracles_squarefree_and_total():
    assert counting.census_total_bruteforce(2, 10) == counting.total_count(2, 10)
    direct = counting.count_squarefree(2, 20)
    assert counting.census_squarefree_bruteforce(2, 20) == direct


def test_monotone_in_v():
    prev = (0, 0, 0)
    for v in range(1, 60):
        cur = (
            counting.count_cocyclic(2, v),
            counting.count_squarefree(2, v),
            counting.total_count(2, v),
        )
        assert cur >= prev
        prev = cur


@settings(deadline=None, max_examples=25)
@given(n=st.integers(2, 4), data=st.data())
def test_oracle_views_match_a_literal_smith_loop(n, data):
    V = data.draw(st.integers(1, {2: 40, 3: 14, 4: 6}[n]), label="V")
    by_rank = [0] * (n + 2)
    squarefree = 0
    for q in range(1, V + 1):
        for basis in lattice.enumerate_sublattices(n, q):
            rank = len(lattice.smith_invariants(basis).chain)
            by_rank[rank] += 1
            if arith.is_squarefree(q):
                assert rank <= 1
                squarefree += 1
    assert counting.census_cocyclic_bruteforce(n, V) == by_rank[0] + by_rank[1]
    assert counting.census_squarefree_bruteforce(n, V) == squarefree
    assert counting.census_total_bruteforce(n, V) == sum(by_rank)
    for m in range(n + 2):
        assert counting.count_by_rank_bruteforce(n, m, V) == by_rank[m]
    assert counting.counts_by_rank_bruteforce(n, V) == {m: c for m, c in enumerate(by_rank) if c}


def test_oracle_views_reuse_one_pass(monkeypatch):
    counting._rank_counts.cache_clear()
    calls = []
    p_rank = lattice._p_rank
    monkeypatch.setattr(lattice, "_p_rank", lambda rows, p, *split: calls.append((rows, p)) or p_rank(rows, p, *split))
    counting.census_cocyclic_bruteforce(3, 30)
    # the pivot test runs per diagonal: the kernel sees each (basis, p) once,
    # and only for the primes p that divide two or more of its pivots
    assert len(calls) == len(set(calls)) == sum(
        sum(b.rows[i][i] % p == 0 for i in range(3)) >= 2
        for q in range(1, 31)
        for b in lattice.enumerate_sublattices(3, q)
        for p in arith.factorize(q).primes
    )
    for q in range(1, 31):  # every basis is still counted
        assert sum(counting._rank_counts(3, q)) == lattice.count_sublattices(3, q)
    calls.clear()
    counting.census_total_bruteforce(3, 30)
    counting.counts_by_rank_bruteforce(3, 20)
    assert calls == []


@pytest.mark.parametrize("n, top", [(1, 60), (2, 60), (3, 24), (4, 10), (5, 6)])
def test_rank_strata_match_a_per_basis_smith_loop(n, top):
    for q in range(1, top + 1):
        strata = [0] * (n + 1)
        for basis in lattice.enumerate_sublattices(n, q):
            strata[lattice.smith_invariants(basis).rank] += 1
        assert counting._rank_counts.__wrapped__(n, q) == tuple(strata), (n, q)


def test_squarefree_view_rejects_a_rank_two_stratum(monkeypatch):
    monkeypatch.setattr(counting, "_rank_counts", lambda n, q: (0, 0, 1))
    with pytest.raises(RuntimeError):
        counting.census_squarefree_bruteforce(2, 3)

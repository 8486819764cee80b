import itertools
import math
import time
from fractions import Fraction

import pytest

from latcensus import arith, constants, counting, lattice
from latcensus.errbound import ErrBoundedReal
from latcensus.errors import CapExceededError


def test_sieve_table_smallest_prime_factors():
    s = arith.SieveTable(10)
    assert s.spf[4] == 2 and s.spf[9] == 3 and s.spf[7] == 7
    assert arith.SieveTable(2).spf[2] == 2
    assert arith.SieveTable(30).spf[30] == 2


def test_sieve_table_rejects_small_limit():
    with pytest.raises(ValueError):
        arith.SieveTable(1)


def test_sieve_invariants():
    s = arith.SieveTable(500)
    for k in range(2, 501):
        p = int(s.spf[k])
        assert k % p == 0
        # spf[p] == p exactly for primes
        is_prime = all(k % d for d in range(2, k)) if k > 1 else False
        assert (p == k) == is_prime
        # refactoring by repeated spf division reproduces k
        m, prod = k, 1
        while m > 1:
            prod *= int(s.spf[m])
            m //= int(s.spf[m])
        assert prod == k


def test_factorize_examples():
    assert arith.factorize(1) == arith.FactoredInt(1, ())
    assert arith.factorize(12).factors == ((2, 2), (3, 1))
    assert arith.factorize(97).factors == ((97, 1),)
    with pytest.raises(ValueError):
        arith.factorize(0)


def test_trial_division_is_bounded():
    # 99999999999973 is a prime below TRIAL_DIVISION_LIMIT^2: still factored
    start = time.perf_counter()
    assert lattice.count_sublattices(2, 99999999999973) == 99999999999974
    assert time.perf_counter() - start < 2.0
    # the prime 2^61 - 1 is above it: refused instead of a ~10^9-step loop
    for fn in (arith.factorize, lambda q: counting.count_primitive_classes(2, q)):
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            fn(2**61 - 1)
        assert time.perf_counter() - start < 2.0


def test_factorize_with_sieve_matches_trial():
    s = arith.SieveTable(2000)
    for n in range(1, 2001):
        assert s.factorize(n) == arith.factorize(n)


def test_factored_int_validation():
    with pytest.raises(ValueError):
        arith.FactoredInt(6, ((3, 1), (2, 1)))  # primes out of order
    with pytest.raises(ValueError):
        arith.FactoredInt(6, ((2, 1),))  # wrong product
    with pytest.raises(ValueError):
        arith.FactoredInt(4, ((2, 0), (3, 1)))


def test_mobius_against_definition():
    # oracle: mu via direct squarefree/parity test by trial division
    def mu_oracle(n):
        count = 0
        for p in range(2, n + 1):
            if n % p == 0:
                if (n // p) % p == 0:
                    return 0
                count += 1
                while n % p == 0:
                    n //= p
        return -1 if count % 2 else 1

    assert arith.mobius(1) == 1
    assert arith.mobius(30) == -1 == mu_oracle(30)
    assert arith.mobius(18) == 0
    for n in range(1, 200):
        assert arith.mobius(n) == mu_oracle(n)


def test_euler_phi_against_gcd_count():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(12) == sum(1 for k in range(1, 13) if math.gcd(k, 12) == 1) == 4
    for p in (2, 3, 5, 13, 97):
        assert arith.euler_phi(p) == p - 1
    for n in range(1, 150):
        assert arith.euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_omega_and_squarefree():
    f360 = arith.factorize(360)
    assert arith.omega(f360) == 3 and not arith.is_squarefree(f360)
    assert arith.omega(1) == 0 and arith.is_squarefree(1)
    assert arith.omega(30) == 3 and arith.is_squarefree(30)


def test_fn_weight_values():
    # f_2(p) = 1/p so f_2(6) = 1/6; f_3(2) = (4-1)/(8-4)
    assert arith.fn_weight(2, 6) == Fraction(1, 6)
    assert arith.fn_weight(3, 2) == Fraction(3, 4)
    assert arith.fn_weight(2, 4) == 0
    with pytest.raises(ValueError):
        arith.fn_weight(1, 6)


def test_fn_weight_multiplicative():
    for a, b in ((5, 6), (7, 10), (3, 22), (4, 9)):
        for n in (2, 3, 4):
            assert arith.fn_weight(n, a * b) == arith.fn_weight(n, a) * arith.fn_weight(n, b)


def test_partition_count_against_enumeration():
    # oracle: count partitions by explicit descending-part recursion
    def partitions_oracle(k, maxpart=None):
        if k == 0:
            return 1
        maxpart = maxpart or k
        return sum(partitions_oracle(k - p, min(p, k - p)) for p in range(min(k, maxpart), 0, -1))

    assert arith.partition_count(0) == 1
    assert arith.partition_count(4) == 5 == partitions_oracle(4)
    assert arith.partition_count(5) == 7 == partitions_oracle(5)
    for k in range(0, 26):
        assert arith.partition_count(k) == partitions_oracle(k)
    # exact big value stays an int
    assert arith.partition_count(200) == 3972999029388
    with pytest.raises(ValueError):
        arith.partition_count(-1)


def test_abelian_group_count():
    assert arith.abelian_group_count(16) == 5
    assert arith.abelian_group_count(72) == 6
    for n in (1, 2, 30, 210):  # squarefree orders have one class
        assert arith.abelian_group_count(n) == 1


def test_landau_sum_small_values():
    assert arith.landau_sum(1) == 1
    assert arith.landau_sum(5) == Fraction(13, 4)
    big = arith.landau_sum(20000)
    assert isinstance(big, ErrBoundedReal)
    exact = arith.landau_sum(10000)
    partial = float(sum(Fraction(1, arith.euler_phi(d)) for d in range(10001, 20001)) + exact)
    assert abs(float(big.value) - partial) < 1e-9


def test_ward_sum_small_values():
    assert arith.ward_sum(1) == 1
    assert arith.ward_sum(4) == Fraction(5, 2)
    assert arith.ward_sum(5) == Fraction(11, 4)


def test_exact_sums_match_a_literal_fraction_loop():
    for t in [*range(1, 61), 400, 2958]:
        phi = [arith.euler_phi(d) for d in range(1, t + 1)]
        landau = sum((Fraction(1, f) for f in phi), Fraction(0))
        ward = sum((Fraction(1, f) for d, f in enumerate(phi, 1) if arith.is_squarefree(d)), Fraction(0))
        assert arith.landau_sum(t) == landau and arith.ward_sum(t) == ward, t


def test_sum_monotone():
    prev_l = prev_w = Fraction(0)
    for t in range(1, 120):
        l, w = arith.landau_sum(t), arith.ward_sum(t)
        assert l >= prev_l and w >= prev_w
        prev_l, prev_w = l, w


def test_squarefree_coprime_count():
    assert arith.squarefree_coprime_count(10, 1) == 7  # {1,2,3,5,6,7,10}
    assert arith.squarefree_coprime_count(10, 2) == 4  # {1,3,5,7}
    assert arith.squarefree_coprime_count(1, 1) == 1
    # oracle: direct scan
    for x, d in ((50, 6), (100, 30), (77, 5)):
        direct = sum(
            1
            for k in range(1, x + 1)
            if math.gcd(k, d) == 1 and arith.mobius(k) != 0
        )
        assert arith.squarefree_coprime_count(x, d) == direct


def test_divisor_mobius_identity():
    for q in range(1, 120):
        f = arith.factorize(q)
        for n in (2, 3, 4):
            rhs = Fraction(1)
            for p in f.primes:
                rhs *= 1 - Fraction(1, p**n)
            assert arith.divisor_mobius_sum(f, n) == rhs


def test_euler_mascheroni_window():
    g = constants._euler_mascheroni()
    # reference value to 21 digits: 0.577215664901532860607
    assert g.contains(Fraction(577215664901532860607, 10**21))
    assert float(g.err) <= 1e-18


def test_landau_prediction_close_at_moderate_scale():
    t = 10**4
    exact = arith.landau_sum(t)
    pred = constants.landau_prediction(t)
    assert abs(float(exact) - float(pred.value)) < 2e-3


def test_sieve_cap_checked_before_allocation(monkeypatch):
    from latcensus.errors import CapExceededError

    assert arith.SIEVE_CAP >= 16 * 10**6  # prime_log_weight_sum's largest cutoff
    with pytest.raises(CapExceededError):
        arith.SieveTable(arith.SIEVE_CAP + 1)
    monkeypatch.setattr(arith, "SIEVE_CAP", 1000)
    with pytest.raises(CapExceededError):
        arith.SieveTable(1001)


def test_primes_upto_matches_trial_division():
    primes = []
    for limit in range(-2, 3001):
        if limit >= 2 and all(limit % p for p in primes if p * p <= limit):
            primes.append(limit)
        assert arith.primes_upto(limit) == primes, limit
    assert arith.primes_upto(1) == [] and arith.primes_upto(0) == []


def test_primes_upto_cap_checked_before_allocation():
    with pytest.raises(CapExceededError):
        arith.primes_upto(arith.SIEVE_CAP + 1)
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        arith.primes_upto(10**15)  # a petabyte sieve: refused, not attempted
    assert time.perf_counter() - start < 0.1


def test_sieve_table_primes_are_primes_upto():
    for limit in (2, 1000, 10**5):
        primes = arith.SieveTable(limit).primes()
        assert primes == arith.primes_upto(limit)
        assert all(type(p) is int for p in primes)


def test_order_walk_reaches_each_order_once():
    # nodes and their leaf batches are 1..V, each once, also where V // N is
    # below the next prime: an empty tail, lo == hi
    for V in [*range(501), 10**5]:
        primes = arith.primes_upto(V)
        orders = []
        for N, lo, hi in arith._order_walk(V, primes, 1, lambda N, p, e: N * p**e):
            assert lo <= hi, (V, N)
            orders += [N, *(N * p for p in primes[lo:hi])]
        assert sorted(orders) == list(range(1, V + 1)), V


def test_second_route_adds_nothing_for_an_empty_tail():
    # the leaf batch is a prefix-sum difference, so an unclamped tail would subtract
    for n in (2, 3):
        classes = itertools.accumulate(counting.count_primitive_classes(n, q) for q in range(1, 200))
        assert [counting._multiplicative_sum(n, 1, False, V) for V in range(1, 200)] == list(classes)
    with pytest.raises(CapExceededError):
        counting._multiplicative_sum(2, 1, False, arith.SIEVE_CAP + 1)

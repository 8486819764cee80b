"""Bit pins of the float routes: each value below was recorded, as
`float.hex`, from the numpy kernels these routes replaced, so a change to a
kernel that moves any result by one ulp fails here.  An fsum total can hide
one-ulp changes of single terms, so the mass terms are also compared one by
one with the sieve they replaced."""

import itertools

import mpmath
import pytest

from latcensus import arith, constants, groups

MASS_PINS = {
    3000: ("0x1.1bf83746efbf4p+4", "0x1.9834cf75f8a2fp-44"),
    10**5: ("0x1.9cb38518d916ep+4", "0x1.a99921419fdf9p-43"),
    10**6: ("0x1.f13f15a675605p+4", "0x1.2f0271316f86bp-42"),
}
SUM_PINS = {
    "landau_sum": ("0x1.3301a4dab5797p+4", "0x1.3301a4dab5797p-47"),
    "ward_sum": ("0x1.678eeb3bd7ed9p+3", "0x1.678eeb3bd7ed9p-48"),
}
# (lower, upper) of prime_log_weight_sum at each prime cutoff P
PRIME_SUM_PINS = {
    10**6: ("0x1.377dad6d37593p-1", "0x1.37801ad58cacfp-1"),
    2 * 10**6: ("0x1.377dbe35c00f5p-1", "0x1.377f037338f4ap-1"),
    4 * 10**6: ("0x1.377dc6980adf6p-1", "0x1.377e707b6e6ffp-1"),
    8 * 10**6: ("0x1.377dcac9d2403p-1", "0x1.377e235dd7979p-1"),
    16 * 10**6: ("0x1.377dcce296c66p-1", "0x1.377dfafdc339cp-1"),
}


def _hex(x) -> str:
    return float(x).hex()


@pytest.mark.parametrize("V", sorted(MASS_PINS))
def test_cl_total_mass_float_route_bits(V):
    mass = groups.cl_total_mass(V, exact_limit=0)
    assert (_hex(mass.value), _hex(mass.err)) == MASS_PINS[V]


def _mass_sieve(V: int) -> list[float]:
    """The float route's former kernel, in lists: every multiple of each
    prime power p^k times fl(mass(p^k) / mass(p^(k-1))), primes and powers
    ascending."""
    acc = [1.0] * (V + 1)
    for p in arith.primes_upto(V):
        prev, pk, k = 1.0, p, 1
        while pk <= V:
            cur = float(groups._pgroup_mass(p, k))
            ratio = cur / prev
            for n in range(pk, V + 1, pk):
                acc[n] *= ratio
            prev, pk, k = cur, pk * p, k + 1
    return acc[1:]


@pytest.mark.parametrize("V", [1, 2, 3, 4, 8, 9, 30, 3000, 20000])
def test_mass_terms_equal_the_sieve_term_by_term(V):
    terms = list(itertools.chain.from_iterable(groups._mass_terms(V)))
    assert sorted(terms) == sorted(_mass_sieve(V))


@pytest.mark.parametrize("name", sorted(SUM_PINS))
def test_totient_reciprocal_sums_float_route_bits(name):
    value = getattr(arith, name)(20000)  # above EXACT_SUM_LIMIT: the float route
    assert (_hex(value.value), _hex(value.err)) == SUM_PINS[name]


def _tol_for_cutoff(P: int) -> float:
    # the first cutoff whose tail is at most tol / 2 is P itself
    return 2 * constants._prime_sum_tail(P)


def test_prime_sum_pins_cover_every_cutoff():
    assert sorted(PRIME_SUM_PINS) == list(constants._PRIME_SUM_CUTOFFS)


@pytest.mark.parametrize("P", sorted(PRIME_SUM_PINS))
def test_prime_log_weight_sum_bits(P):
    s = constants.prime_log_weight_sum(_tol_for_cutoff(P))
    assert (_hex(s.lower), _hex(s.upper)) == PRIME_SUM_PINS[P]


def test_prime_sum_float_slack_covers_the_log_error():
    # The float sum below the smallest cutoff against a 100-bit sum of the
    # same terms: every float log, division and the one fsum rounding
    # together stay inside the lower end's float slack.
    P = constants._PRIME_SUM_CUTOFFS[0]
    s = constants.prime_log_weight_sum(_tol_for_cutoff(P))
    ctx = mpmath.MPContext()
    ctx.prec = 100
    exact = ctx.fsum(ctx.log(p) / (p * p - p + 1) for p in arith.primes_upto(P))
    assert s.lower <= exact
    assert exact + constants._prime_sum_tail(P) <= s.upper

import functools
import itertools
import math
import time
from fractions import Fraction

import mpmath
import pytest

from latcensus import arith, constants, counting
from latcensus.errbound import ErrBoundedReal
from latcensus.errors import PrecisionError

PI = 3.14159265358979323846


def test_zeta_2_matches_pi_squared_over_six():
    z = constants.zeta(2, 1e-12)
    assert float(z.err) <= 1e-12
    assert abs(float(z.value) - PI * PI / 6) <= 2e-12


def test_zeta_tail_behaviour():
    # zeta(k) - 1 - 2^-k lies below 2*3^-k for k >= 4
    for k in range(4, 30):
        z = constants.zeta(k, 1e-15)
        gap = float(z.value) - 1 - 2.0**-k
        assert 0 < gap <= 2 * 3.0**-k
    z50 = constants.zeta(50, 1e-16)
    assert 1 <= float(z50.value) <= 1 + 1e-14


def test_zeta_validation():
    with pytest.raises(ValueError):
        constants.zeta(1, 1e-10)
    with pytest.raises(ValueError):
        constants.zeta(2, 0.0)


def test_zeta_against_direct_partial_sum():
    # oracle: crude partial sum with bracketed integral tail
    for k in (2, 3, 6):
        J = 2000
        partial = math.fsum(j ** (-k) for j in range(1, J + 1))
        lo = partial + (J + 1) ** (1 - k) / (k - 1)
        hi = partial + J ** (1 - k) / (k - 1)
        z = constants.zeta(k, 1e-12)
        assert lo - 1e-9 <= float(z.value) <= hi + 1e-9


def test_xi_single_factor_equals_zeta():
    assert constants.xi(2, 2, 1e-10).overlaps(constants.zeta(2, 1e-12))
    with pytest.raises(ValueError):
        constants.xi(1, 3)
    with pytest.raises(ValueError):
        constants.xi(3, 2)


def test_xi_inf_windows():
    inv = 1 / constants.xi_inf(2, 1e-10)
    assert 0.435 <= float(inv.value) <= 0.445
    both = 1 / (constants.zeta(2, 1e-12) * constants.xi_inf(2, 1e-10))
    assert 0.255 <= float(both.value) <= 0.266
    with pytest.raises(ValueError):
        constants.xi_inf(1)


def test_theta_matches_reported_digits():
    t = constants.theta()
    assert float(t.err) <= 1e-12
    assert 1.94359 <= float(t.value) < 1.94360
    # closed-form identity theta * zeta(6) / (zeta(2) zeta(3)) = 1
    ratio = t * constants.zeta(6, 1e-13) / (constants.zeta(2, 1e-13) * constants.zeta(3, 1e-13))
    assert ratio.contains(1)


def test_theta_equals_euler_product_form():
    assert constants.theta().overlaps(constants.theta_product(1e-10))


def test_theta_n_against_series_partial_sum():
    # independent series oracle: sum of fn_weight(n, d)/d over squarefree d,
    # with tail bounded by sum_{d>D} 2^omega(d)/d^2 <= 4/sqrt(D)
    D = 20000
    sieve = arith.SieveTable(D)
    for n in (2, 3):
        acc = 0.0
        for d in range(1, D + 1):
            f = sieve.factorize(d)
            if arith.is_squarefree(f):
                acc += float(arith.fn_weight(n, f)) / d
        tail = 4 / math.sqrt(D)
        tn = constants.theta_n(n, 1e-10)
        assert acc - 1e-9 <= float(tn.value) <= acc + tail + 1e-9


def test_theta_n_strictly_below_theta():
    top = constants.theta()
    for n in range(2, 17):
        assert constants.theta_n(n, 1e-10).certainly_less(top)
    assert float((top - constants.theta_n(16, 1e-10)).upper) < 1e-3


def test_theta_sandwich_examples():
    lo2, hi2 = constants.theta_sandwich(2)
    t2 = constants.theta_n(2, 1e-11)
    assert float(lo2.lower) <= float(t2.value) <= float(hi2.upper)
    lo10, hi10 = constants.theta_sandwich(10)
    width = float(hi10.value - lo10.value)
    assert width <= float(constants.theta().value) * 2.0**-9
    lo16, hi16 = constants.theta_sandwich(16)
    assert abs(float(hi16.value) - float(constants.theta().value)) <= 1e-3


def test_rho_is_zeta2():
    r = constants.rho()
    assert abs(float(r.value) - PI * PI / 6) < 1e-12


def test_rho_identities():
    # bare-product identity: product * zeta(n+1) = rho, all n in [2,16]
    target = constants.rho()
    for n in (2, 7, 16):
        prod = constants.rho_n_product(n, 1e-10) * constants.zeta(n + 1, 1e-12)
        assert prod.overlaps(target)
    # full-constant identity: rho_n * zeta(n+1) = 1 exactly in the limit
    for n in (2, 5, 12):
        full = constants.rho_n(n, 1e-10) * constants.zeta(n + 1, 1e-12)
        assert full.contains(1)
    # n = 2 special case pinned numerically: rho_2 = 1/zeta(3)
    r2 = constants.rho_n(2, 1e-10)
    assert abs(float(r2.value) - 1 / 1.2020569031595943) < 1e-9


def test_density_limits():
    coc = constants.density_cocyclic_limit()
    assert 0.845 <= float(coc.value) <= 0.855
    assert float(coc.err) <= 1e-10
    sf = constants.density_squarefree_limit()
    assert 0.7165 <= float(sf.value) <= 0.7175
    assert float(sf.err) <= 1e-10
    alt = constants.theta() / constants.xi_inf(2, 1e-11)
    assert alt.overlaps(coc)


def test_gekeler_windows():
    g1 = constants.gekeler_cyclic()
    g2 = constants.gekeler_squarefree()
    assert 0.805 <= float(g1.value) <= 0.815
    assert 0.435 <= float(g2.value) <= 0.445
    for g in (g1, g2):
        assert 0 < float(g.lower) and float(g.upper) < 1


def test_refinement_nesting():
    coarse = constants.zeta(3, 1e-7)
    fine = constants.zeta(3, 1e-13)
    slack = 1e-25
    assert fine.lower >= coarse.lower - slack
    assert fine.upper <= coarse.upper + slack


def test_unreachable_tolerance_raises():
    # 120-bit rounding alone is ~1e-36 relative: 1e-40 cannot be certified
    with pytest.raises(PrecisionError):
        constants.zeta(2, 1e-40)
    with pytest.raises(PrecisionError):
        constants.theta_n(3, 1e-40)
    with pytest.raises(PrecisionError):
        constants.gekeler_cyclic(1e-40)


def test_euler_product_rejects_bad_local_factors():
    with pytest.raises(ValueError):
        constants.euler_product((2, 1), (1,), 1e-10)  # N(0) != 1
    with pytest.raises(ValueError):
        constants.euler_product((1, 1), (1,), 1e-10)  # 1 + 1/p: diverges


def test_zeta_exponents_are_derived():
    # theta's local factor is exactly zeta(2) zeta(3) / zeta(6)
    b = constants._zeta_exponents(*constants.THETA_FACTOR, 12)
    assert b == (0, 0, 1, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0)
    # rho_n: (1 - x^(n+1)) / (1 - x^2) = zeta(2) / zeta(n+1)
    b = constants._zeta_exponents(*constants.rho_n_factor(5), 8)
    assert b == (0, 0, 1, 0, 0, 0, -1, 0, 0)


# --- independent 300-bit references (private mpmath context) -------------

REF = mpmath.MPContext()
REF.prec = 300
_REF_PRIMES = [p for p in range(2, 101) if all(p % d for d in range(2, p))]


def _series_mul(a, b, terms):
    out = [0] * terms
    for i, x in enumerate(a[:terms]):
        if x:
            for j, y in enumerate(b[: terms - i]):
                out[i + j] += x * y
    return out


def _log_series(num, den, terms):
    """Coefficients of log(num/den) up to x^(terms-1), as Fractions, through
    log(1 + u) = sum_j (-1)^(j+1) u^j / j."""
    inv = [Fraction(0)] * terms  # 1/den as a power series
    inv[0] = Fraction(1)
    for m in range(1, terms):
        inv[m] = -sum(den[i] * inv[m - i] for i in range(1, min(m, len(den) - 1) + 1))
    u = _series_mul(list(num), inv, terms)
    u[0] -= 1
    out = [Fraction(0)] * terms
    power = [Fraction(1)] + [Fraction(0)] * (terms - 1)
    for j in range(1, terms):
        power = _series_mul(power, u, terms)
        if not any(power):
            break
        for m, c in enumerate(power):
            out[m] += Fraction((-1) ** (j + 1), j) * c
    return out


def _euler_reference(num, den, terms=48):
    """prod_p num(1/p)/den(1/p): primes <= 100 directly, the rest through
    sum_m a_m (primezeta(m) - sum_{p<=100} p^-m)."""
    coeffs = _log_series(num, den, terms)
    assert abs(coeffs[-1]) * 101.0 ** -(terms - 1) < 1e-60  # truncation negligible
    total = REF.mpf(0)
    for p in _REF_PRIMES:
        x = REF.mpf(1) / p
        total += REF.log(REF.polyval(list(num)[::-1], x) / REF.polyval(list(den)[::-1], x))
    for m in range(2, terms):
        if coeffs[m]:
            tail = REF.primezeta(m) - REF.fsum(REF.mpf(p) ** -m for p in _REF_PRIMES)
            total += REF.mpf(coeffs[m].numerator) / coeffs[m].denominator * tail
    return REF.exp(total)


def _holds(val, ref):
    value = REF.mpf(val.value)
    return abs(value - ref) <= REF.mpf(val.err)


def test_euler_maclaurin_zeta_against_mpmath():
    for k in range(2, 41):
        z = constants.zeta(k, 1e-30)
        assert z.err <= 1e-30
        assert _holds(z, REF.zeta(k)), k


@pytest.mark.parametrize("k", [40, 64, 200, 3000])
def test_large_k_zeta_bracket_holds_the_reference(k):
    z = constants.zeta(k, 1e-12)  # 2^-k <= tol: the bracket [1 + 2^-k, 1 + 2^(1-k)]
    assert z.err <= 1e-12 and _holds(z, REF.zeta(k)), k


@pytest.mark.parametrize("r", [2, 3, 5, 7, 9])
def test_delta_rank_ge_bound_meets_a_tight_tol(r):
    # zeta(r^2) is asked to tol / 16; at r = 3 and tol 1e-14 this exited 2 (err 3.5e-14)
    ref = 1 - REF.exp(-8 * (REF.zeta(r * r) - 1))
    for tol in (1e-14, 1e-20, 1e-30):
        val, _ = constants.evaluate_constant("delta-rank-ge-bound", r=r, tol=tol)
        assert val.err <= tol and _holds(val, ref), (r, tol)


def test_xi_to_3000_overlaps_xi_inf():
    assert constants.xi(2, 3000, 1e-10).overlaps(constants.xi_inf(2, 1e-12))


def test_euler_products_at_1e30_hold_references():
    z = REF.zeta
    closed = [(constants.theta_product(1e-30), z(2) * z(3) / z(6))]
    closed += [(constants.rho_n_product(n, 1e-30), z(2) / z(n + 1)) for n in range(2, 17)]
    for val, ref in closed:
        assert val.err <= 1e-30 and _holds(val, ref)
    series = [(constants.theta_n(n, 1e-30), constants.theta_n_factor(n)) for n in range(2, 17)]
    series += [
        (constants.gekeler_cyclic(1e-30), constants.GEKELER_CYCLIC_FACTOR),
        (constants.gekeler_squarefree(1e-30), constants.GEKELER_SQUAREFREE_FACTOR),
    ]
    for val, (num, den) in series:
        assert val.err <= 1e-30 and _holds(val, _euler_reference(num, den)), (num, den)
    xi2 = REF.fprod(z(k) for k in range(2, 400))
    for r in range(1, 5):
        val = constants.delta_rank_at_most(r, 1e-30)
        ref = _euler_reference(*constants.delta_rank_factor(r)) / xi2
        assert val.err <= 1e-30 and _holds(val, ref), r


def _poly_mul(a, b):
    return _series_mul(list(a), list(b), len(a) + len(b) - 1)


def test_delta_rank_factor_matches_the_literal_r_pass_sum():
    # (1 - x) sum_{k<=r} x^(k^2) prod_{k<i<=r} (1 - x^i)^2 over prod_{i<=r} (1 - x^i)^2,
    # each term multiplied out on its own
    for r in range(1, 13):
        squares = [_poly_mul(f, f) for f in ([1] + [0] * (i - 1) + [-1] for i in range(1, r + 1))]
        num = [0] * (1 + r * (r + 1))
        for k in range(r + 1):
            term = functools.reduce(_poly_mul, squares[k:], [0] * (k * k) + [1])
            num = [a + b for a, b in zip(num, term + [0] * len(num))]
        den = functools.reduce(_poly_mul, squares, [1])
        assert constants.delta_rank_factor(r) == (tuple(_poly_mul(num, [1, -1])), tuple(den)), r


def _accelerated_vs_plain_factors():
    """The local factors of verify's constants.accelerated-vs-plain check."""
    factors = [constants.THETA_FACTOR, constants.GEKELER_CYCLIC_FACTOR, constants.GEKELER_SQUAREFREE_FACTOR]
    factors += [constants.theta_n_factor(n) for n in range(2, 17)]
    factors += [constants.rho_n_factor(n) for n in range(2, 17)]
    return factors + [constants.delta_rank_factor(r) for r in range(1, 5)]


def test_abs_tail_is_the_sum_of_its_terms():
    for poly in itertools.chain.from_iterable(_accelerated_vs_plain_factors()):
        for q in (2, 3, 5, 97):
            expected = sum(Fraction(abs(a), q**i) for i, a in enumerate(poly) if i)
            assert constants._abs_tail(poly, q) == expected, (poly, q)


@pytest.mark.parametrize("factor", [
    constants.THETA_FACTOR[::-1],  # N shorter than D
    ((1, 0, -1), (1, -1, 1)),  # as long as D
    constants.GEKELER_SQUAREFREE_FACTOR,  # longer than D
    constants.delta_rank_factor(3),
], ids=["shorter", "equal", "longer", "delta-rank-3"])
def test_explicit_product_is_the_per_prime_fraction_product(factor):
    N, D = factor
    at = lambda poly, p: sum(Fraction(a, p**i) for i, a in enumerate(poly))
    for P0 in (2, 97):
        ref = math.prod((at(N, p) / at(D, p) for p in arith.primes_upto(P0)), start=Fraction(1))
        got = constants._explicit_product(N, D, P0)
        assert (got.value, got.err) == (ErrBoundedReal(ref).value, ErrBoundedReal(ref).err)


def test_rank_at_least_bound_covers_the_product_tail():
    # 1 - delta_rank_at_most(r) lies below delta_rank_at_least_bound(r + 1) at every r, with the
    # product evaluated to 1e-30 (the bound is 2.3 to 3.2 times the tail there)
    for r in range(1, 10):
        prod = constants.euler_product(*constants.delta_rank_factor(r), 5e-31)[0] / constants.xi_inf(2, 1.25e-31)
        bound = constants.delta_rank_at_least_bound(r + 1, 1e-30)
        assert 1 - prod.lower <= bound.upper and prod.upper <= 1, r
        assert 0.3 <= float((1 - prod.value) / bound.value) <= 0.45, r


def test_delta_rank_le_answers_from_the_tail_bound_once_it_meets_tol():
    # r = 6 printed a centre above 1 (1.00000000000068 +- 4.5e-12) from the product at P0 = 97
    val, cutoff = constants.evaluate_constant("delta-rank-le", r=6)
    t = constants.delta_rank_at_least_bound(7).upper
    assert cutoff is None and val.lower <= 1 - t and 0 <= val.upper - 1 < 1e-35 and float(val.err) < 1.5e-14
    assert constants.evaluate_constant("delta-rank-le", r=5)[1] == 97  # bound(6) ~ 1.2e-10 > tol
    # the product would build a degree-40200 factor
    val, cutoff = constants.evaluate_constant("delta-rank-le", r=200)
    assert cutoff is None and val.err <= constants.DEFAULT_TOL
    with pytest.raises(ValueError, match="r must be >= 1"):
        constants.delta_rank_at_most(0)


def test_zeta_built_constants_meet_tight_tol():
    z = REF.zeta
    xi = {m: REF.fprod(z(k) for k in range(m, 400)) for m in (2, 3, 4)}
    refs = {
        "theta": z(2) * z(3) / z(6),
        "rho": z(2),
        "density-cocyclic": 1 / (z(6) * xi[4]),
        "density-squarefree": 1 / xi[3],
        "uniform-cyclic": 1 / xi[2],
        "uniform-squarefree": 1 / (z(2) * xi[2]),
    }
    for tol in (1e-20, 1e-30):
        for name, ref in refs.items():
            val, cutoff = constants.evaluate_constant(name, tol=tol)
            assert val.err <= tol and _holds(val, ref) and cutoff is None, (name, tol)


def test_fixed_precision_constants_refuse_a_tighter_tol():
    with pytest.raises(PrecisionError, match="1e-19"):
        constants.evaluate_constant("gamma", tol=1e-20)
    with pytest.raises(PrecisionError, match="reachable"):
        constants.evaluate_constant("landau-prime-sum")  # default tol 1e-10


def test_refinement_nests_from_1e8_to_1e30():
    tols = (1e-8, 1e-12, 1e-16, 1e-20, 1e-25, 1e-30)
    routes = [
        lambda t: constants.zeta(2, t),
        constants.theta_product,
        lambda t: constants.theta_n(3, t),
        lambda t: constants.rho_n_product(7, t),
        constants.gekeler_cyclic,
        constants.gekeler_squarefree,
        lambda t: constants.delta_rank_at_most(2, t),
        lambda t: constants.delta_rank_at_most(6, t),  # the tail bound at 1e-8 and 1e-12, then the product
    ]
    for route in routes:
        vals = [route(t) for t in tols]
        for coarse, fine in zip(vals, vals[1:]):
            assert coarse.lower <= fine.lower and fine.upper <= coarse.upper, (coarse, fine)


def test_named_constants_fast_at_1e30():
    # lazy tables (Bernoulli numbers, exponents, small-prime products) warm
    for r in range(1, 5):
        constants.delta_rank_at_most(r, 1e-30)
    constants.theta_n(16, 1e-30)
    cases = [
        ("theta-product", {}), ("theta-n", {"n": 9}), ("rho-n", {"n": 9}),
        ("rho-n-product", {"n": 9}), ("gekeler-cyclic", {}),
        ("gekeler-squarefree", {}), ("delta-rank-le", {"r": 3}),
    ]
    for name, args in cases:
        start = time.perf_counter()
        val, cutoff = constants.evaluate_constant(name, tol=3e-31, **args)
        elapsed = time.perf_counter() - start
        assert val.err <= 3e-31 and cutoff is not None
        assert elapsed < 0.5, (name, elapsed)  # about 10 ms on a 2-core VM


def test_prime_log_weight_sum_value():
    # cross-check against a directly computed partial sum
    s = constants.prime_log_weight_sum()
    direct = 0.0
    sieve = arith.SieveTable(10**5)
    for p in sieve.primes():
        p = int(p)
        direct += math.log(p) / (p * p - p + 1)
    assert direct <= float(s.upper)
    assert float(s.lower) <= direct + 1e-4


def test_evaluate_constant_registry():
    val, cutoff = constants.evaluate_constant("theta")
    assert 1.94 < float(val.value) < 1.95 and cutoff is None
    val, cutoff = constants.evaluate_constant("theta-n", n=3, tol=1e-8)
    assert cutoff is not None
    with pytest.raises(KeyError):
        constants.evaluate_constant("no-such-constant")
    with pytest.raises(ValueError):
        constants.evaluate_constant("zeta")  # missing k


_TOL_TAKERS = {
    "zeta": lambda tol: constants.zeta(2, tol),
    "xi": lambda tol: constants.xi(2, 4, tol),
    "xi_inf": lambda tol: constants.xi_inf(2, tol),
    "euler_product": lambda tol: constants.euler_product(*constants.THETA_FACTOR, tol),
    "theta": constants.theta,
    "theta_product": constants.theta_product,
    "theta_n": lambda tol: constants.theta_n(3, tol),
    "rho": constants.rho,
    "rho_n_product": lambda tol: constants.rho_n_product(3, tol),
    "rho_n": lambda tol: constants.rho_n(3, tol),
    "density_cocyclic_limit": constants.density_cocyclic_limit,
    "density_squarefree_limit": constants.density_squarefree_limit,
    "gekeler_cyclic": constants.gekeler_cyclic,
    "gekeler_squarefree": constants.gekeler_squarefree,
    "rank_prob": lambda tol: constants.rank_prob(2, 1, tol),
    "delta_rank_at_most": lambda tol: constants.delta_rank_at_most(2, tol),
    "delta_rank_at_least_bound": lambda tol: constants.delta_rank_at_least_bound(2, tol),
    "uniform_density_cyclic": constants.uniform_density_cyclic,
    "uniform_density_squarefree": constants.uniform_density_squarefree,
    "prime_log_weight_sum": constants.prime_log_weight_sum,
    "landau_prediction": lambda tol: constants.landau_prediction(10, tol),
    "census_density": lambda tol: counting.census("cyclic", 3).density(tol),
}
_PARAMS = {"k": 2, "m": 2, "n": 3, "r": 1, "p": 2}
for _name in constants.CONSTANT_NAMES:  # every name, also those whose value ignores tol
    _kwargs = {x: _PARAMS[x] for x in constants._EVALUATORS[_name][0]}
    if _name == "delta-rank-ge-bound":
        _kwargs["r"] = 2  # the bound takes r >= 2
    _TOL_TAKERS[f"evaluate_constant[{_name}]"] = functools.partial(constants.evaluate_constant, _name, **_kwargs)


@pytest.mark.parametrize("name", sorted(_TOL_TAKERS))
def test_a_tol_below_the_120_bit_floor_is_met_or_refused(name):
    # rank_prob returned err 3.5e-36 here, the floor of its 120-bit product
    try:
        out = _TOL_TAKERS[name](tol=1e-37)
    except PrecisionError:
        return
    value = out[0] if isinstance(out, tuple) else out
    assert value.err <= 1e-37


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-12], ids=repr)
@pytest.mark.parametrize("name", sorted(_TOL_TAKERS))
def test_a_tol_that_is_not_positive_and_finite_is_refused_before_any_work(monkeypatch, name, tol):
    # NaN passed `tol <= 0` and reached PrecisionError; inf overflowed in
    # _power_of_ten_below or was capped by min(tol, 1e-12) into an answer
    def work(*args, **kwargs):
        raise AssertionError("evaluation started before tol was checked")

    for helper in ("_euler_maclaurin_plan", "_explicit_product", "_zeta_exponents", "primes_upto"):
        monkeypatch.setattr(constants, helper, work)
    with pytest.raises(ValueError, match="^tol must be a positive finite number$"):
        _TOL_TAKERS[name](tol=tol)

"""Error-bounded evaluation of the real constants used by the census.

Every routine returns an :class:`ErrBoundedReal` whose interval rigorously
contains the exact constant: every truncation is paired with an explicit
remainder bound, never a heuristic.  All evaluation runs in the package's
private 120-bit mpmath context (see errbound).

This is the one module that evaluates constants: the census densities, the
rank and uniform densities of the 1/#Aut group census, and the first-order
predictions for the totient-reciprocal and squarefree-coprime sums.  It
imports only arith, errbound and errors, so every other module can import
it at module level.

Zeta values.  ``zeta(k, tol)`` is Euler-Maclaurin summation: the terms
j < N, the integral and half-term at N, and M Bernoulli corrections, summed
as one exact rational, with the remainder bounded by
2 zeta(2M+1) (2 pi)^-(2M+1) |f^(2M)(N)| for f(x) = x^-k.  (N, M) is the
first pair, on a doubling ladder of N, whose remainder is below tol/2; for
k >= 3 with 2^-k <= tol it is the bracket [1 + 2^-k, 1 + 2^(1-k)].  The one
rounding is to 120 bits (~1e-36 relative): a lower tol raises PrecisionError.

Euler products.  ``euler_product(N, D, tol)`` takes the local factor
f = N/D as two integer polynomials in x = 1/p with N(0) = D(0) = 1.  With
log f = sum_m (c_m / m) x^m (integer c_m, Newton's identities), solving
c_m = sum_{k|m} k b_k (Moebius inversion) gives integer exponents b_k such
that f(x) = prod_{k<=K} (1 - x^k)^(-b_k) * r(x) with log r(x) = O(x^(K+1)),
hence

    prod_p f(1/p) = prod_{p<=P0} f(1/p) * prod_{k=2}^K zeta_{>P0}(k)^(b_k)
                    * prod_{p>P0} r(1/p),

where zeta_{>P0}(k) = zeta(k) prod_{p<=P0} (1 - p^-k).  The products over
p <= P0 are exact integer products.  For 0 < x <= 1/P0, |log r(x)| <= C x^(K+1):
a Cauchy estimate bounds the coefficients of log N - log D on a disc
|x| <= 1/q on which both polynomials stay within 1/2 of 1, and the
harmonics beyond x^K of the extracted zeta factors are summed explicitly.
The product over p > P0 then lies in exp([-S, S]) with S = C P0^-K / K, so
the tail converges like P0^-K.  P0 and K follow from tol: P0 = 97 (25
primes) while K <= 16 suffices, else 997; no sieve beyond P0 is built.  A
tolerance the 120-bit zeta values cannot certify raises PrecisionError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import errbound
from .arith import _FLOAT_EPS, bernoulli, ensure_factored, is_prime, primes_upto
from .errbound import ErrBoundedReal
from .errors import PrecisionError

DEFAULT_TOL = 1e-10


def check_tol(tol: float) -> float:
    """tol itself if it is a positive finite number (NaN fails both comparisons)."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    return tol


def _euler_mascheroni() -> ErrBoundedReal:
    """Euler-Mascheroni constant to 20 digits (standard references), error below
    1e-19; built per call, so that importing this module loads no mpmath."""
    return ErrBoundedReal("0.57721566490153286061", "1e-19")


Poly = tuple[int, ...]  # integer coefficients of 1, x, x^2, ... with x = 1/p


# ---------------------------------------------------------------------------
# zeta and finite/infinite products of zeta values
# ---------------------------------------------------------------------------

_PI_LOWER = Fraction(314159, 100000)
_TWO_ZETA3_UPPER = Fraction(121, 50)  # 2 zeta(3) = 2.4041...; zeta(2M+1) <= zeta(3)
_EM_LADDER = tuple(2**i for i in range(1, 11))


def _euler_maclaurin_plan(k: int, target: float) -> tuple[int, int]:
    """First (N, M) on the N ladder whose remainder bound is below target.

    The log of the bound is estimated in floats, with a margin; zeta()
    computes the bound exactly.  For each N, M grows only while
    k + 2M <= 2 pi N + 2: beyond that the bound grows with M.
    """
    log_target = math.log(target) - 0.05
    log_two_pi = math.log(2 * math.pi)
    base = math.log(float(_TWO_ZETA3_UPPER)) - math.lgamma(k)
    for N in _EM_LADDER:
        M = 1
        while k + 2 * M <= 2 * math.pi * N + 2:
            log_rem = base + math.lgamma(k + 2 * M) - (2 * M + 1) * log_two_pi - (k + 2 * M) * math.log(N)
            if log_rem <= log_target:
                return N, M
            M += 1
    raise PrecisionError(f"zeta({k}) tolerance {target} beyond the Euler-Maclaurin ladder")


@lru_cache(maxsize=None)
def zeta(k: int, tol: float = 1e-12) -> ErrBoundedReal:
    """zeta(k) for integer k >= 2 with err <= tol.

    Euler-Maclaurin summation with N - 1 terms and M Bernoulli corrections:
    zeta(k) = sum_{j<N} j^-k + N^(1-k)/(k-1) + N^-k/2
              + sum_{i<=M} B_2i/(2i)! k(k+1)...(k+2i-2) N^(-k-2i+1) + R,
    |R| <= 2 zeta(3) (2 pi)^-(2M+1) k(k+1)...(k+2M-1) N^(-k-2M).
    For k >= 3 with 2^-k <= tol, the bracket [1 + 2^-k, 1 + 2^(1-k)] instead:
    sum_{j>=3} j^-k <= int_2^oo x^-k dx = 2^(1-k)/(k-1) <= 2^-k.
    """
    if k < 2:
        raise ValueError("zeta requires k >= 2")
    if 2.0**-k <= check_tol(tol) and k >= 3:
        value = ErrBoundedReal.from_interval(1 + Fraction(1, 2**k), 1 + Fraction(2, 2**k))
    else:
        N, M = _euler_maclaurin_plan(k, tol / 2)
        total = sum(Fraction(1, j**k) for j in range(2, N)) + 1
        total += Fraction(1, (k - 1) * N ** (k - 1)) + Fraction(1, 2 * N**k)
        rising = k  # k (k+1) ... (k+2i-2)
        for i in range(1, M + 1):
            total += bernoulli(2 * i) * rising / (math.factorial(2 * i) * N ** (k + 2 * i - 1))
            rising *= (k + 2 * i - 1) * (k + 2 * i)
        rising //= k + 2 * M  # k (k+1) ... (k+2M-1)
        remainder = _TWO_ZETA3_UPPER * rising / ((2 * _PI_LOWER) ** (2 * M + 1) * N ** (k + 2 * M))
        value = ErrBoundedReal(total, remainder)
    if value.err > tol:
        raise PrecisionError(f"zeta({k}) did not reach tol={tol}")
    return value


def _power_of_ten_below(x: float) -> float:
    """10^floor(log10 x): zeta tolerances on a coarse grid share cache entries."""
    return 10.0 ** math.floor(math.log10(check_tol(x)))


def xi(m: int, n: int, tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Finite product zeta(m) zeta(m+1) ... zeta(n)."""
    if m < 2:
        raise ValueError("xi requires m >= 2")
    if n < m:
        raise ValueError("xi requires n >= m")
    each = _power_of_ten_below(tol / (4 * (n - m + 1)))
    out = ErrBoundedReal(1, 0)
    for k in range(m, n + 1):
        out = out * zeta(k, each)
    return out


def xi_inf(m: int, tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Infinite product prod_{k>=m} zeta(k), truncated at K with the log-tail
    bound sum_{k>K} log zeta(k) <= sum_{k>K} 2*2^-k = 2^(1-K) folded in."""
    if m < 2:
        raise ValueError("xi_inf requires m >= 2")
    K = max(m + 1, math.ceil(math.log2(16.0 / check_tol(tol))))
    finite = xi(m, K, tol / 4)
    tail = ErrBoundedReal.from_interval(1, 1 + Fraction(4, 2**K))  # e^x <= 1+2x, x<=1
    return finite * tail


# ---------------------------------------------------------------------------
# generic zeta-accelerated Euler products
# ---------------------------------------------------------------------------

_P0_LADDER = ((97, 16), (997, 40))  # (P0, largest K tried with it)


def _power_sums(poly: Poly, K: int) -> list[int]:
    """[0, c_1, ..., c_K] with log poly(x) = sum_m c_m x^m / m, from Newton's
    identities m p_m = sum_{j=1}^m c_j p_(m-j) (p_0 = 1)."""
    p = list(poly) + [0] * K
    c = [0] * (K + 1)
    for m in range(1, K + 1):
        c[m] = m * p[m] - sum(c[j] * p[m - j] for j in range(1, m))
    return c


@lru_cache(maxsize=None)
def _zeta_exponents(N: Poly, D: Poly, K: int) -> tuple[int, ...]:
    """(b_0, ..., b_K) with N/D = prod_{k<=K} (1 - x^k)^(-b_k) (1 + O(x^(K+1))).

    Solves c_m = sum_{k|m} k b_k for the c_m of log(N/D), smallest m first.
    """
    c = [a - b for a, b in zip(_power_sums(N, K), _power_sums(D, K))]
    b = [0] * (K + 1)
    for m in range(1, K + 1):
        rest = c[m] - sum(k * b[k] for k in range(1, m // 2 + 1) if m % k == 0)
        if rest % m:
            raise RuntimeError(f"zeta exponent b_{m} = {rest}/{m} is not an integer")
        b[m] = rest // m
    return tuple(b)


def _abs_tail(poly: Poly, q: int) -> Fraction:
    """sum_{i>=1} |a_i| q^-i, the largest |poly(x) - 1| on the disc |x| <= 1/q."""
    return Fraction(_at_prime((0, *map(abs, poly[1:])), q), q ** (len(poly) - 1))


@lru_cache(maxsize=None)
def _log_disc(N: Poly, D: Poly) -> tuple[int, Fraction]:
    """(q, M): on |x| <= 1/q both N and D stay within 1/2 of 1, so
    |log N - log D| <= M there, and Cauchy's estimate bounds the x^m
    coefficient of log(N/D) by M q^m."""
    q = 2
    while max(_abs_tail(N, q), _abs_tail(D, q)) > Fraction(1, 2):
        q += 1
    u, v = _abs_tail(N, q), _abs_tail(D, q)
    return q, u / (1 - u) + v / (1 - v)  # |log(1 + w)| <= |w| / (1 - |w|)


def _tail_bound(N: Poly, D: Poly, b: tuple[int, ...], P0: int) -> Fraction:
    """S >= |sum_{p>P0} log r(1/p)| for the residual r left after the zeta
    factors (1 - x^k)^(-b_k), k <= K = len(b) - 1, are taken out of N/D.

    log r(x) = sum_{m>K} a_m x^m - sum_{k<=K} b_k sum_{j>K/k} x^(kj)/j, with
    |a_m| <= M q^m; for x <= 1/P0 both sums are at most a constant times
    x^(K+1), and sum_{p>P0} p^-(K+1) <= P0^-K / K.
    """
    K = len(b) - 1
    q, M = _log_disc(N, D)
    C = M * Fraction(q) ** (K + 1) / (1 - Fraction(q, P0))
    for k in range(2, K + 1):
        if b[k]:
            j = K // k + 1
            C += Fraction(abs(b[k]), j * P0 ** (k * j - K - 1)) / (1 - Fraction(1, P0**k))
    return C / (K * Fraction(P0) ** K)


def _at_prime(poly: Poly, p: int) -> int:
    """p^deg * poly(1/p), an integer."""
    acc = 0
    for a in poly:
        acc = acc * p + a
    return acc


@lru_cache(maxsize=None)
def _explicit_product(N: Poly, D: Poly, P0: int) -> ErrBoundedReal:
    """prod_{p<=P0} N(1/p)/D(1/p), from exact integer products; N and D are
    padded to one length, so the factors p^deg cancel."""
    width = max(len(N), len(D))
    N, D = N + (0,) * (width - len(N)), D + (0,) * (width - len(D))
    num = den = 1
    for p in primes_upto(P0):
        num *= _at_prime(N, p)
        den *= _at_prime(D, p)
    return ErrBoundedReal(Fraction(num, den))  # one rounding of the exact quotient


def euler_product(N: Poly, D: Poly, tol: float) -> tuple[ErrBoundedReal, int]:
    """prod_p N(1/p)/D(1/p) with err <= tol, as (value, P0).

    N and D are integer coefficient tuples (constant term first) with
    N(0) = D(0) = 1 and equal x-coefficients (else the product diverges).
    P0 is the largest prime multiplied explicitly; the rest comes from
    zeta(2..K) and a rigorous tail bound (see the module docstring).
    """
    if not N or not D or N[0] != 1 or D[0] != 1:
        raise ValueError("local factor polynomials need constant term 1")
    check_tol(tol)
    if _zeta_exponents(N, D, 1)[1]:
        raise ValueError("local factor is 1 + c/p + O(p^-2) with c != 0: the product diverges")
    for P0, k_max in _P0_LADDER:
        if _log_disc(N, D)[0] >= P0:
            continue
        explicit = _explicit_product(N, D, P0)
        # Relative budget: the zeta factors are 1 + O(P0^-2), so |value| < 2 |explicit|;
        # the tail takes rel/2 (S <= rel/4), the zeta values rel/4.
        rel = tol / (2 * abs(float(explicit.value)))
        for K in range(2, k_max + 1):
            b = _zeta_exponents(N, D, K)
            S = _tail_bound(N, D, b, P0)
            if S <= rel / 4:
                break
        else:
            continue
        t = _power_of_ten_below(rel / (4 * max(1, sum(map(abs, b)))))
        value = explicit
        for k in range(2, K + 1):
            if b[k]:
                removed = _explicit_product((1,) + (0,) * (k - 1) + (-1,), (1,), P0)
                z = (zeta(k, t) * removed) ** abs(b[k])  # zeta_{>P0}(k)^|b_k|
                value = value * z if b[k] > 0 else value / z
        value = value * ErrBoundedReal.from_interval(1 - S, 1 + 2 * S)  # exp(+-S), S <= 1
        if value.err > tol:
            raise PrecisionError(f"Euler product tolerance {tol} unreachable at 120 bits")
        return value, P0
    raise PrecisionError(f"Euler product tolerance {tol} unreachable within P0, K <= {_P0_LADDER[-1]}")


# ---------------------------------------------------------------------------
# local factors N(x)/D(x), x = 1/p
# ---------------------------------------------------------------------------

# 1 + 1/(p^2 - p) = (1 - x + x^2) / (1 - x)
THETA_FACTOR: tuple[Poly, Poly] = ((1, -1, 1), (1, -1))
# 1 - 1/((p^2-1) p (p-1)) = 1 - x^4 / ((1 - x^2)(1 - x))
GEKELER_CYCLIC_FACTOR: tuple[Poly, Poly] = ((1, -1, -1, 1, -1), (1, -1, -1, 1))
# 1 - (p^3-p-1)/((p^2-1) p^2 (p-1)) = 1 - (x^2 - x^4 - x^5) / ((1 - x^2)(1 - x))
GEKELER_SQUAREFREE_FACTOR: tuple[Poly, Poly] = ((1, -1, -2, 1, 1, 1), (1, -1, -1, 1))


def theta_n_factor(n: int) -> tuple[Poly, Poly]:
    """1 + (p^(n-1) - 1)/(p^(n+1) - p^n) = (1 - x + x^2 - x^(n+1)) / (1 - x)."""
    if n < 2:
        raise ValueError("theta_n requires n >= 2")
    return (1, -1, 1) + (0,) * (n - 2) + (-1,), (1, -1)


def rho_n_factor(n: int) -> tuple[Poly, Poly]:
    """1 + (p^(n-1) - 1)/(p^(n+1) - p^(n-1)) = (1 - x^(n+1)) / (1 - x^2)."""
    if n < 2:
        raise ValueError("rho_n_product requires n >= 2")
    return (1,) + (0,) * n + (-1,), (1, 0, -1)


# ---------------------------------------------------------------------------
# the density constants
# ---------------------------------------------------------------------------


def theta(tol: float = 1e-12) -> ErrBoundedReal:
    """zeta(2) zeta(3) / zeta(6) = 1.9435964..., the limit of theta_n.

    Computed from the closed form, not the Euler product; err <= tol.
    """
    t = tol / 5
    return zeta(2, t) * zeta(3, t) / zeta(6, t)


def theta_product(tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """theta evaluated as its Euler product prod_p (1 + 1/(p^2 - p));
    cross-checks the closed form."""
    return euler_product(*THETA_FACTOR, tol)[0]


def theta_n(n: int, tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Dimension-n co-cyclic density constant
    prod_p (1 + (p^(n-1) - 1)/(p^(n+1) - p^n)), with err <= tol."""
    return euler_product(*theta_n_factor(n), tol)[0]


def theta_sandwich(n: int) -> tuple[ErrBoundedReal, ErrBoundedReal]:
    """Exact bracket for theta_n extracted from the closed-form bound chain:

        theta * (1 - 1/(3*2^(n-1))) * prod_{p>=3} (1 - p^-n)
          <= theta_n <=
        theta * (1 - 1/(3*2^(n-1))) * prod_{p>=3} (1 - p^-(n+1)),

    with prod_{p>=3} (1 - p^-k) rewritten as 1/(zeta(k) (1 - 2^-k)).
    Contract: lower.lower <= theta_n <= upper.upper.
    """
    if n < 2:
        raise ValueError("theta_sandwich requires n >= 2")
    t = 1e-13
    front = theta() * ErrBoundedReal.exact(1 - Fraction(1, 3 * 2 ** (n - 1)))
    lower = front / (zeta(n, t) * ErrBoundedReal.exact(1 - Fraction(1, 2**n)))
    upper = front / (zeta(n + 1, t) * ErrBoundedReal.exact(1 - Fraction(1, 2 ** (n + 1))))
    return lower, upper


def rho(tol: float = 1e-12) -> ErrBoundedReal:
    """prod_p (1 + 1/(p^2 - 1)) = zeta(2), by the closed form; err <= tol."""
    return zeta(2, tol / 5)


def inv_zeta2() -> ErrBoundedReal:
    """6/pi^2, the density of squarefree integers."""
    ctx = errbound.load_mpmath()
    v = 6 / (ctx.pi * ctx.pi)
    return ErrBoundedReal(v, 6 * errbound._EPS * v)


def rho_n_product(n: int, tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """The bare Euler product prod_p (1 + (p^(n-1)-1)/(p^(n+1)-p^(n-1))),
    i.e. the squarefree-index constant without its 6/pi^2 prefactor.

    This is the quantity whose ratio to rho() is exactly 1/zeta(n+1)
    (each local factor equals (1 - p^-(n+1))/(1 - p^-2)).
    """
    return euler_product(*rho_n_factor(n), tol)[0]


def rho_n(n: int, tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Dimension-n squarefree-index density constant
    (6/pi^2) * prod_p (1 + (p^(n-1)-1)/(p^(n+1)-p^(n-1)))."""
    return _rho_n(n, tol)[0]


def _rho_n(n: int, tol: float) -> tuple[ErrBoundedReal, int]:
    val, P = euler_product(*rho_n_factor(n), tol / 2)
    return inv_zeta2() * val, P


def density_cocyclic_limit(tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Large-n limit of the co-cyclic density: 1/(zeta(6) Xi_4) ~ 0.8469."""
    return 1 / (zeta(6, tol / 100) * xi_inf(4, _power_of_ten_below(tol / 5)))


def density_squarefree_limit(tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """The squarefree-index limit constant 1/Xi_3 ~ 0.7168."""
    return 1 / xi_inf(3, _power_of_ten_below(tol / 5))


# ---------------------------------------------------------------------------
# elliptic-curve comparison constants
# ---------------------------------------------------------------------------


def gekeler_cyclic(tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """prod_p (1 - 1/((p^2-1) p (p-1))) ~ 0.8137 (cyclic curve groups)."""
    return euler_product(*GEKELER_CYCLIC_FACTOR, tol)[0]


def gekeler_squarefree(tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """prod_p (1 - (p^3-p-1)/((p^2-1) p^2 (p-1))) ~ 0.4401 (squarefree curve
    group orders)."""
    return euler_product(*GEKELER_SQUAREFREE_FACTOR, tol)[0]


# ---------------------------------------------------------------------------
# rank statistics under the 1/#Aut distribution
# ---------------------------------------------------------------------------


def rank_prob(p: int, r: int, tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Probability that a random abelian p-group (mass 1/#Aut) has rank r:
    p^(-r^2) prod_{i>=1} (1 - p^-i) / prod_{i=1}^r (1 - p^-i)^2."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 0:
        raise ValueError("rank must be >= 0")
    check_tol(tol)
    # truncation depth: tail of the infinite product is >= 1 - p^-I/(p-1)
    I = 1
    tail_bound = 1.0 / (p * (p - 1))
    while tail_bound > tol / 4 and I < 400:
        I += 1
        tail_bound /= p
    finite = Fraction(1)
    for i in range(1, I + 1):
        finite *= 1 - Fraction(1, p**i)
    denom = Fraction(1)
    for i in range(1, r + 1):
        denom *= (1 - Fraction(1, p**i)) ** 2
    value = Fraction(1, p ** (r * r)) * finite / denom
    tail = ErrBoundedReal.from_interval(1 - Fraction(1, p**I * (p - 1)), 1)
    out = ErrBoundedReal.exact(value) * tail
    if out.err > tol:  # I stops at 400, and the 120-bit rounding floor is ~1e-36 relative
        raise PrecisionError(f"rank_prob({p}, {r}) did not reach tol={tol}")
    return out


def delta_rank_at_most(r: int, tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Census density of rank <= r: Xi_2^-1 prod_p sum_{k<=r} P(p, k)-local
    factors, evaluated as an accelerated Euler product; once the bound t of
    delta_rank_at_least_bound(r + 1) is at most tol, as [1 - t, 1] instead."""
    return _delta_rank_at_most(r, tol)[0]


def _delta_rank_at_most(r: int, tol: float) -> tuple[ErrBoundedReal, int | None]:
    if r < 1:
        raise ValueError("r must be >= 1")
    t = delta_rank_at_least_bound(r + 1, tol).upper
    if t <= tol:
        return ErrBoundedReal.from_interval(1 - t, 1), None
    prod, P = euler_product(*delta_rank_factor(r), tol / 2)
    return prod / xi_inf(2, tol / 8), P


def delta_rank_factor(r: int) -> tuple[Poly, Poly]:
    """Local factor sum_{k<=r} P(p, k) = (1 - x) sum_{k<=r} x^(k^2) /
    prod_{i<=k} (1 - x^i)^2 with x = 1/p, as integer polynomials (N, D)
    over the common denominator D = prod_{i<=r} (1 - x^i)^2."""
    if r < 1:
        raise ValueError("r must be >= 1")
    num, suffix = [0] * (1 + r * (r + 1)), [1] + [0] * (r * (r + 1))
    for k in range(r, -1, -1):  # suffix = prod_{k<i<=r} (1 - x^i)^2
        num[k * k :] = [a + b for a, b in zip(num[k * k :], suffix)]
        for _ in range(2 if k else 0):  # suffix times (1 - x^k), in place
            suffix[k:] = [a - b for a, b in zip(suffix[k:], suffix)]
    return tuple(a - b for a, b in zip(num + [0], [0] + num)), tuple(suffix)  # num times (1 - x)


def delta_rank_at_least_bound(r: int, tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Explicit upper bound for the census density of rank >= r, evaluated
    as 1 - exp(-8 (zeta(r^2) - 1)); decreasing in r and ~ 8 * 2^(-r^2).
    zeta(r^2) is asked to min(1e-14, tol / 16), since exp(-8 x) < 1 takes
    x's err times at most 8: every tol >= 1.6e-13 gets the same interval.

    Proof: P(p, k) <= p^(-k^2) / eta_2 <= 3.47 p^(-k^2), eta_2 = prod_{i>=1}
    (1 - 2^-i), and p^(-k^2) falls by p^-(2k+1) <= 1/32 from k >= r >= 2 on,
    so T_p = sum_{k>=r} P(p, k) <= 4 p^(-r^2) <= 1/2.  The density of rank
    <= r - 1 is prod_p (1 - T_p) >= exp(-sum_p 2 T_p) >= exp(-8 (zeta(r^2) - 1)),
    as log(1 - t) >= -2t for 0 <= t <= 1/2."""
    check_tol(tol)
    if r < 2:
        raise ValueError("r must be >= 2")
    z = zeta(r * r, min(1e-14, tol / 16))
    return 1 - ((z - 1) * (-8)).exp()


# ---------------------------------------------------------------------------
# uniform-distribution densities
# ---------------------------------------------------------------------------


def uniform_density_cyclic(tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Limit fraction of cyclic classes among all classes: 1/Xi_2 ~ 0.4358."""
    return 1 / xi_inf(2, _power_of_ten_below(tol / 5))


def uniform_density_squarefree(tol: float = DEFAULT_TOL) -> ErrBoundedReal:
    """Limit fraction of squarefree-order classes: 1/(zeta(2) Xi_2) ~ 0.2649."""
    return 1 / (zeta(2, tol / 100) * xi_inf(2, _power_of_ten_below(tol / 5)))


# ---------------------------------------------------------------------------
# the totient-reciprocal asymptotic and the squarefree-coprime prediction
# ---------------------------------------------------------------------------


_PRIME_SUM_CUTOFFS = (10**6, 2 * 10**6, 4 * 10**6, 8 * 10**6, 16 * 10**6)


def _prime_sum_tail(P: int) -> float:
    return 1.25 * (math.log(P) + 1) / P


@lru_cache(maxsize=None)
def prime_log_weight_sum(tol: float = 2e-5) -> ErrBoundedReal:
    """sum_p log p / (p^2 - p + 1), with the tail over p > P bounded by
    sum_{m>P} 1.25 log m / m^2 <= 1.25 (log P + 1)/P."""
    P = next((c for c in _PRIME_SUM_CUTOFFS if _prime_sum_tail(c) <= check_tol(tol) / 2), None)
    if P is None:
        reachable = 2 * _prime_sum_tail(_PRIME_SUM_CUTOFFS[-1])
        raise PrecisionError(
            f"prime_log_weight_sum tolerance {tol} unreachable; the smallest reachable is {reachable:.2g}"
        )
    value = math.fsum(math.log(p) / (p * p - p + 1) for p in primes_upto(P))
    tail = _prime_sum_tail(P)
    # the terms are positive, and each is within 1.5 eps of its value (libm's
    # log under 1 ulp, the division 1/2 ulp); fsum rounds once more (eps/2)
    float_slack = 4 * _FLOAT_EPS * value
    return ErrBoundedReal.from_interval(value - float_slack, value + tail + float_slack)


def landau_prediction(t: int, tol: float = 1e-4) -> ErrBoundedReal:
    """Leading term of the classical asymptotic for sum_{d<=t} 1/phi(d):
    theta * (log t + gamma - sum_p log p / (p^2 - p + 1)).

    The O(log t / t) remainder is not included; the returned error bound
    covers only the constant evaluation.
    """
    if t < 1:
        raise ValueError("landau_prediction requires t >= 1")
    check_tol(tol)
    lt = math.log(t)
    log_t = ErrBoundedReal(lt, 4 * _FLOAT_EPS * max(1.0, lt))
    return theta() * (log_t + _euler_mascheroni() - prime_log_weight_sum(tol=tol / 4))


def squarefree_coprime_prediction(x: int, d) -> ErrBoundedReal:
    """Companion first-order prediction (6x/pi^2) prod_{p|d} (1 + 1/p)^-1."""
    f = ensure_factored(d)
    scale = Fraction(x)
    for p in f.primes:
        scale *= Fraction(p, p + 1)
    return inv_zeta2() * ErrBoundedReal.exact(scale)


# ---------------------------------------------------------------------------
# named-constant registry (CLI surface)
# ---------------------------------------------------------------------------

# name -> (required parameters, evaluator(*parameters, tol) -> (value, P0 or None)).
# Fixed-precision names cap tol at the precision their plain functions use by
# default, so the default-tol output is unchanged; every name may be asked
# for less, and evaluate_constant checks the reached err against tol.
_EVALUATORS = {
    "zeta": (("k",), lambda k, tol: (zeta(k, min(tol, 1e-12)), None)),
    "xi": (("m", "n"), lambda m, n, tol: (xi(m, n, tol), None)),
    "xi-inf": (("m",), lambda m, tol: (xi_inf(m, tol), None)),
    "theta": ((), lambda tol: (theta(min(tol, 1e-12)), None)),
    "theta-product": ((), lambda tol: euler_product(*THETA_FACTOR, tol)),
    "theta-n": (("n",), lambda n, tol: euler_product(*theta_n_factor(n), tol)),
    "rho": ((), lambda tol: (rho(min(tol, 1e-12)), None)),
    "rho-n": (("n",), _rho_n),
    "rho-n-product": (("n",), lambda n, tol: euler_product(*rho_n_factor(n), tol)),
    "density-cocyclic": ((), lambda tol: (density_cocyclic_limit(min(tol, DEFAULT_TOL)), None)),
    "density-squarefree": ((), lambda tol: (density_squarefree_limit(min(tol, DEFAULT_TOL)), None)),
    "gekeler-cyclic": ((), lambda tol: euler_product(*GEKELER_CYCLIC_FACTOR, tol)),
    "gekeler-squarefree": ((), lambda tol: euler_product(*GEKELER_SQUAREFREE_FACTOR, tol)),
    "gamma": ((), lambda tol: (_euler_mascheroni(), None)),
    "landau-prime-sum": ((), lambda tol: (prime_log_weight_sum(tol), None)),
    "uniform-cyclic": ((), lambda tol: (uniform_density_cyclic(min(tol, DEFAULT_TOL)), None)),
    "uniform-squarefree": ((), lambda tol: (uniform_density_squarefree(min(tol, DEFAULT_TOL)), None)),
    "rank-prob": (("p", "r"), lambda p, r, tol: (rank_prob(p, r, tol), None)),
    "delta-rank-le": (("r",), _delta_rank_at_most),
    "delta-rank-ge-bound": (("r",), lambda r, tol: (delta_rank_at_least_bound(r, tol), None)),
}

CONSTANT_NAMES = tuple(_EVALUATORS)


def evaluate_constant(name: str, *, k=None, n=None, m=None, r=None, p=None,
                      tol: float = DEFAULT_TOL):
    """Evaluate a named constant; returns (ErrBoundedReal, prime_cutoff|None),
    where prime_cutoff is P0 of an Euler product (see euler_product).

    Names accept '-' or '_' interchangeably.  Unknown names raise KeyError,
    a missing parameter or one the name does not take ValueError, and a
    result whose err exceeds tol PrecisionError naming the err that was
    reached.
    """
    check_tol(tol)
    key = name.replace("_", "-")
    if key not in _EVALUATORS:
        raise KeyError(name)
    needs, evaluate = _EVALUATORS[key]
    params = {"k": k, "n": n, "m": m, "r": r, "p": p}
    if any(params[x] is None for x in needs):
        raise ValueError(f"{key} needs " + " and ".join(f"--{x}" for x in needs))
    extra = [x for x, v in params.items() if v is not None and x not in needs]
    if extra:
        raise ValueError(f"{key} takes no " + " or ".join(f"--{x}" for x in extra))
    value, cutoff = evaluate(*(params[x] for x in needs), tol)
    if not value.err <= tol:
        raise PrecisionError(f"{key} reaches err {float(value.err):.2g}, above tol {tol:g}")
    return value, cutoff

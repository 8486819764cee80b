"""Cross-module invariant checks at their full stated scales.

Each check raises CheckFailure (with the violated invariant's identifier in
the message) on the first violation and returns quietly otherwise.  A check
takes no parameter: its one scale (grid, seed, tolerance) is written once,
inside it.  The CLI `verify` subcommand runs a suite of these, and the
acceptance tests call the same checks rather than restating them, so the
two surfaces read one scale.  Every pointwise comparison of two exact routes
goes through `_agree`, one loop over (id, label, lhs, rhs) rows; the five of
two interval routes ask `overlaps`.  The census checks are clients of the
`counting.Census` records: each compares a record's fast route `count` with
its `sieve` or its `oracle`, for every record of a dimension, and holds no
census logic of its own.  run_suite runs a suite on min(checks, CPUs in the
affinity mask) forked workers, with no flag, and reports in CHECKS order as
results arrive, so the output does not depend on the CPUs (one: no worker).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import marshal
import math
import operator
import os
from collections import Counter
from fractions import Fraction

from . import arith, constants, counting, errbound, groups, lattice
from .errbound import ErrBoundedReal
from .rng import SplitMix64


class CheckFailure(AssertionError):
    pass


def _fail(check_id: str, detail: str):
    raise CheckFailure(f"{check_id}: {detail}")


def _agree(rows) -> None:
    """The one pointwise comparison of two routes.  rows yields (check_id,
    label, lhs, rhs), evaluated lazily in order; the first row whose routes
    differ fails under its own id."""
    for check_id, label, lhs, rhs in rows:
        if lhs != rhs:
            _fail(check_id, f"{label}: {lhs} != {rhs}")


def _coprime_pairs(seed: int, bound: int, count: int):
    """The first count coprime pairs (a, b) in [1, bound]^2 of a seeded stream."""
    rng = SplitMix64(seed)
    while count:
        a, b = 1 + rng.randbelow(bound), 1 + rng.randbelow(bound)
        if math.gcd(a, b) == 1:
            count -= 1
            yield a, b


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------


def check_sieve_vs_trial():
    limit = 10**6
    sieve, rng = arith.SieveTable(limit), SplitMix64(101)
    drawn = (1 + rng.randbelow(limit) for _ in range(500))
    ns = itertools.chain(range(1, 2001), drawn)
    _agree(("arith.sieve-vs-trial", f"n={n}", sieve.factorize(n), arith.factorize(n)) for n in ns)


def check_multiplicativity():
    laws = (  # (failure id, function, how it joins over coprime a, b)
        ("arith.multiplicative-mobius", arith.mobius, operator.mul),
        ("arith.multiplicative-phi", arith.euler_phi, operator.mul),
        ("arith.additive-omega", arith.omega, operator.add),
        ("arith.multiplicative-class-count", arith.abelian_group_count, operator.mul),
    )

    def rows():
        for a, b in _coprime_pairs(7, 10**6, 300):
            fa, fb, fab = arith.factorize(a), arith.factorize(b), arith.factorize(a * b)
            for check_id, f, join in laws:
                yield check_id, f"a={a} b={b}", f(fab), join(f(fa), f(fb))
            for n in (2, 3):
                w = functools.partial(arith.fn_weight, n)
                yield "arith.multiplicative-fn-weight", f"n={n} a={a} b={b}", w(fab), w(fa) * w(fb)

    _agree(rows())


def check_fn_weight_bound():
    """fn_weight(n, d) <= 2^omega(d)/d on squarefree d <= limit, n in 2..4."""
    limit = 10**5
    sieve = arith.SieveTable(limit)
    for d in range(1, limit + 1):
        f = sieve.factorize(d)
        if not arith.is_squarefree(f):
            continue
        bound = Fraction(2 ** arith.omega(f), d)
        for n in (2, 3, 4):
            if arith.fn_weight(n, f) > bound:
                _fail("arith.fn-weight-bound", f"n={n} d={d}")


def check_mobius_divisor_identity():
    _agree(
        ("arith.mobius-divisor-identity", f"q={f.value} n={n}",
         arith.divisor_mobius_sum(f, n), math.prod(1 - Fraction(1, p**n) for p in f.primes))
        for f in map(arith.factorize, range(1, 501))
        for n in (2, 3, 4)
    )


def check_sum_monotonicity():
    prev_l, prev_w = Fraction(0), Fraction(0)
    for t in range(1, 401):
        cur_l, cur_w = arith.landau_sum(t), arith.ward_sum(t)
        if cur_l < prev_l or cur_w < prev_w:
            _fail("arith.sum-monotonicity", f"t={t}")
        prev_l, prev_w = cur_l, cur_w


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def check_constant_tolerances():
    cases = [
        (constants.zeta(2, 1e-12), 1e-12),
        (constants.zeta(3, 1e-13), 1e-13),
        (constants.theta(), 1e-12),
        (constants.theta_n(2, 1e-10), 1e-10),
        (constants.theta_n(9, 1e-10), 1e-10),
        (constants.rho_n(2, 1e-10), 1e-10),
        (constants.xi_inf(2, 1e-10), 1e-10),
        (constants.density_cocyclic_limit(), 1e-10),
        (constants.density_squarefree_limit(), 1e-10),
    ]
    for val, tol in cases:
        if not val.err <= tol:
            _fail("constants.err-within-tol", f"err={val.err} tol={tol}")


def check_refinement_nesting():
    slack = ErrBoundedReal("1e-25").value
    pairs = [
        (constants.zeta(2, 1e-8), constants.zeta(2, 1e-12)),
        (constants.zeta(5, 1e-8), constants.zeta(5, 1e-13)),
        (constants.theta_n(3, 1e-7), constants.theta_n(3, 1e-11)),
        (constants.xi_inf(2, 1e-7), constants.xi_inf(2, 1e-11)),
    ]
    for coarse, fine in pairs:
        if not (
            fine.lower >= coarse.lower - slack and fine.upper <= coarse.upper + slack
        ):
            _fail("constants.refinement-nesting", f"{fine} not inside {coarse}")


def check_theta_monotone():
    vals = [constants.theta_n(n, 1e-11) for n in range(2, 17)]
    for a, b in zip(vals, vals[1:]):
        if not a.certainly_less(b):
            _fail("constants.theta-n-monotone", f"{a} !< {b}")
    top = constants.theta()
    for v in vals:
        if not v.certainly_less(top):
            _fail("constants.theta-n-below-limit", f"{v} !< {top}")
    gap = top - vals[-1]
    if not gap.upper < 1e-3:
        _fail("constants.theta-n-converges", f"theta - theta_16 = {gap}")


def check_density_identity():
    lhs = constants.theta() / constants.xi_inf(2, 1e-11)
    rhs = constants.density_cocyclic_limit()
    if not lhs.overlaps(rhs):
        _fail("constants.cocyclic-density-identity", f"{lhs} vs {rhs}")


def check_theta_sandwich():
    for n in range(2, 17):
        lower, upper = constants.theta_sandwich(n)
        tn = constants.theta_n(n, 1e-11)
        if not (lower.lower <= tn.upper and tn.lower <= upper.upper):
            _fail("constants.theta-sandwich", f"n={n}: {lower} <= {tn} <= {upper}")


def check_product_ratio_identity():
    """The bare squarefree-constant Euler product times zeta(n+1) recovers
    the n-independent product (= zeta(2)); the full constant times
    zeta(n+1) is exactly 1."""
    target = constants.rho()
    for n in range(2, 17):
        prod = constants.rho_n_product(n, 1e-11) * constants.zeta(n + 1, 1e-12)
        if not prod.overlaps(target):
            _fail("constants.rho-product-identity", f"n={n}: {prod} vs {target}")
        full = constants.rho_n(n, 1e-11) * constants.zeta(n + 1, 1e-12)
        if not full.contains(1):
            _fail("constants.rho-unit-identity", f"n={n}: {full} vs 1")


def check_theta_product_agreement():
    closed = constants.theta()
    product = constants.theta_product(1e-10)
    if not closed.overlaps(product):
        _fail("constants.theta-product-agreement", f"{closed} vs {product}")


def _plain_euler_product(num, den, primes, P: int) -> ErrBoundedReal:
    """prod_{p<=P} num(1/p)/den(1/p), one exact ratio per prime, times the
    tail exp([-S, S]): for x <= 1/P, |num/den - 1| <= C x^2 with
    C = sum_{i>=2} |num_i - den_i| P^(2-i) / (1 - sum_{i>=1} |den_i| P^-i),
    so |log f(1/p)| <= 2 C p^-2 and S = 2 C / P."""
    L = max(len(num), len(den))
    num, den = tuple(num) + (0,) * (L - len(num)), tuple(den) + (0,) * (L - len(den))
    ctx = errbound.load_mpmath()
    acc = ctx.mpf(1)
    for p in primes:
        top = sum(a * p ** (L - 1 - i) for i, a in enumerate(num))
        bottom = sum(a * p ** (L - 1 - i) for i, a in enumerate(den))
        acc *= ctx.fdiv(top, bottom)  # two roundings per prime
    partial = ErrBoundedReal(acc, 2 * len(primes) * errbound._EPS * abs(acc))
    diff = sum(Fraction(abs(a - b), P ** (i - 2)) for i, (a, b) in enumerate(zip(num, den)) if i >= 2)
    floor = 1 - sum(Fraction(abs(a), P**i) for i, a in enumerate(den) if i >= 1)
    S = 2 * diff / floor / P
    return partial * ErrBoundedReal.from_interval(1 - S, 1 + 2 * S)


def check_accelerated_vs_plain():
    """Each zeta-accelerated Euler product overlaps the plain product over
    primes <= P with its O(1/P) tail interval: the second route for the
    constants without a closed form (gekeler-*, delta-rank-le)."""
    P = 10**4
    factors = [
        ("theta-product", constants.THETA_FACTOR),
        ("gekeler-cyclic", constants.GEKELER_CYCLIC_FACTOR),
        ("gekeler-squarefree", constants.GEKELER_SQUAREFREE_FACTOR),
    ]
    factors += [(f"theta-n n={n}", constants.theta_n_factor(n)) for n in range(2, 17)]
    factors += [(f"rho-n-product n={n}", constants.rho_n_factor(n)) for n in range(2, 17)]
    factors += [(f"delta-rank-le r={r}", constants.delta_rank_factor(r)) for r in range(1, 5)]
    primes = arith.primes_upto(P)
    for label, (num, den) in factors:
        fast, _ = constants.euler_product(num, den, 1e-20)
        plain = _plain_euler_product(num, den, primes, P)
        if not fast.overlaps(plain):
            _fail("constants.accelerated-vs-plain", f"{label}: {fast} vs {plain}")


def check_paper_value_windows():
    cases = [
        ("theta-window", constants.theta(), 1.94359, 1.94360),
        ("density-cocyclic", constants.density_cocyclic_limit(), 0.845, 0.855),
        ("density-squarefree", constants.density_squarefree_limit(), 0.7165, 0.7175),
        ("uniform-cyclic", constants.uniform_density_cyclic(), 0.43, 0.45),
        ("uniform-squarefree", constants.uniform_density_squarefree(), 0.25, 0.27),
        ("delta-rank-le-2", constants.delta_rank_at_most(2, 1e-10), 0.994, 0.996),
        ("gekeler-cyclic", constants.gekeler_cyclic(), 0.805, 0.815),
        ("gekeler-squarefree", constants.gekeler_squarefree(), 0.435, 0.445),
    ]
    for name, val, lo, hi in cases:
        if not (lo <= float(val.value) <= hi):
            _fail(f"constants.window-{name}", f"{val} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def _random_nonsingular(rng: SplitMix64, n: int) -> tuple[list[list[int]], lattice.HnfBasis]:
    while True:
        rows = [[rng.randbelow(41) - 20 for _ in range(n)] for _ in range(n)]
        try:
            return rows, lattice.hnf_canonicalize(rows)
        except lattice.SingularMatrixError:
            continue


def _random_unimodular(rng: SplitMix64, n: int) -> list[list[int]]:
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.randbelow(n), rng.randbelow(n)
        if i == j:
            continue
        c = rng.randbelow(7) - 3
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        if rng.randbelow(4) == 0:
            u[i], u[j] = u[j], u[i]
    return u


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_hnf_canonicality():
    rng = SplitMix64(2024)
    for t in range(1000):
        n = 2 + t % 3
        b, h1 = _random_nonsingular(rng, n)
        u = _random_unimodular(rng, n)
        h2 = lattice.hnf_canonicalize(_matmul(u, b))
        if h1 != h2:
            _fail("lattice.hnf-canonicality", f"B={b} U={u}")
        if lattice.hnf_canonicalize(h1.rows) != h1:
            _fail("lattice.hnf-idempotent", f"B={b}")
        if lattice.smith_invariants(b).order != h1.index:
            _fail("lattice.smith-order-equals-index", f"B={b}")


def check_enumeration_counts():
    _agree(
        ("lattice.enumeration-count", f"n={n} q={q}",
         sum(1 for _ in lattice._enumerate_sublattices(n, q)), lattice.count_sublattices(n, q))
        for n in range(1, 5)
        for q in range(1, 61)
    )


def check_enumeration_no_duplicates():
    for n in range(1, 5):
        for q in range(1, 25):
            seen = set()
            for b in lattice._enumerate_sublattices(n, q):
                if b in seen:
                    _fail("lattice.enumeration-duplicate", f"n={n} q={q} {b}")
                seen.add(b)
                if b.index != q:
                    _fail("lattice.enumeration-index", f"n={n} q={q} {b}")


def _congruence_lattices(n: int, q: int) -> set:
    """The co-cyclic lattices of index q, one per primitive class mod q."""
    return {
        lattice.lattice_from_congruence(lattice.CongruenceVector(q, vec))
        for vec in counting.primitive_class_representatives(n, q)
    }


def check_paz_schnorr():
    for n in (2, 3):
        for q in range(1, 31):
            built = _congruence_lattices(n, q)
            enumerated = {b for b in lattice._enumerate_sublattices(n, q) if lattice.is_cocyclic(b)}
            if built != enumerated:
                _fail(
                    "lattice.paz-schnorr-bijection",
                    f"n={n} q={q}: {len(built)} built vs {len(enumerated)} enumerated",
                )


def check_orbit_sizes():
    """Unit l mod q fixes the pairs over Fix(l) = {a : l a = a}; every primitive
    v in (Z/q)^2 must have exactly one fixer (l = 1)."""
    for q in range(2, 51):
        fixers = Counter()
        for l in range(1, q):
            if math.gcd(l, q) == 1:
                fix = [a for a in range(q) if l * a % q == a]
                fixers.update(v for v in itertools.product(fix, repeat=2) if math.gcd(*v, q) == 1)
        for v in itertools.product(range(q), repeat=2):
            if math.gcd(*v, q) == 1 and fixers[v] != 1:
                _fail("lattice.orbit-size", f"q={q} v={v} fixers={fixers[v]}")


def check_equivalence_relation():
    rng = SplitMix64(5)
    for _ in range(200):
        q = 2 + rng.randbelow(19)
        u = lattice.CongruenceVector(q, (rng.randbelow(q), rng.randbelow(q)))
        v = lattice.CongruenceVector(q, (rng.randbelow(q), rng.randbelow(q)))
        if not lattice.are_equivalent(u, u):
            _fail("lattice.equivalence-reflexive", f"{u}")
        if lattice.are_equivalent(u, v) != lattice.are_equivalent(v, u):
            _fail("lattice.equivalence-symmetric", f"{u} {v}")
        if lattice.are_equivalent(u, v) and u.is_primitive != v.is_primitive:
            _fail("lattice.equivalence-primitivity", f"{u} {v}")


def _chi2_survival(x: float, df: int) -> float:
    """P(chi-square_df > x), h = x/2: e^-h sum_{i<df/2} h^i/i! for even df >= 2,
    erfc(sqrt h) + e^-h sum_{i<df//2} h^(i+1/2)/Gamma(i+3/2) for odd df."""
    h, odd = x / 2, df % 2
    terms = [math.sqrt(h) / math.gamma(1.5) if odd else 1.0]  # h^(i+odd/2) / Gamma(i+1+odd/2)
    for i in range(1, df // 2):
        terms.append(terms[-1] * h / (i + odd / 2))
    return (math.erfc(math.sqrt(h)) if odd else 0.0) + math.exp(-h) * math.fsum(terms[: df // 2])


def sampler_statistics(n: int, q: int, draws: int, seed: int):
    """(per-lattice counts, chi-square statistic, p-value) for uniform draws."""
    expected_support = _congruence_lattices(n, q)
    counts = Counter(lattice.sample_cocyclic_stream(n, q, draws, seed))
    if set(counts) - expected_support:
        _fail("lattice.sampler-support", "draw outside the co-cyclic set")
    k = len(expected_support)
    expected = draws / k
    chi2 = sum((counts[b] - expected) ** 2 / expected for b in expected_support)
    return counts, chi2, _chi2_survival(chi2, k - 1)


def check_sampler_uniformity():
    counts, chi2, pvalue = sampler_statistics(2, 12, 10**4, 20240901)
    if len(counts) != 24:
        _fail("lattice.sampler-support", f"{len(counts)} lattices hit, expected 24")
    if pvalue < 1e-3:
        _fail("lattice.sampler-gof", f"chi2={chi2:.2f} p={pvalue:.5f}")


def check_sampler_determinism():
    """One seed gives one stream, and each draw replays the documented rule
    (a chi-square at large q cannot see dropped draws): n residues mod q from
    SplitMix64(seed) until primitive, then lattice_from_congruence.  The
    replay fails as lattice.sampler-replay."""
    a = [b.to_json() for b in lattice.sample_cocyclic_stream(3, 36, 50, 99)]
    b = [b.to_json() for b in lattice.sample_cocyclic_stream(3, 36, 50, 99)]
    if a != b:
        _fail("lattice.sampler-determinism", "same seed produced different streams")

    def replay(n, q, count, seed):
        rng = SplitMix64(seed)
        for _ in range(count):
            while math.gcd(*(v := [rng.randbelow(q) for _ in range(n)]), q) != 1:
                pass
            yield lattice.lattice_from_congruence(lattice.CongruenceVector(q, v))

    cases = [(2, 101, 50, seed) for seed in range(16)] + [(3, 2**61 - 1, 20, 3), (2, 2**64 + 1, 20, 5)]
    _agree(("lattice.sampler-replay", f"n={n} q={q} seed={seed} draw {i}", got, want) for n, q, count, seed in cases
           for i, (got, want) in enumerate(zip(lattice.sample_cocyclic_stream(n, q, count, seed), replay(n, q, count, seed))))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def check_formula_vs_bruteforce():
    _agree(
        ("counting.formula-vs-bruteforce", f"n={n} q={q}",
         counting.count_primitive_classes(n, q), counting.count_primitive_classes_bruteforce(n, q))
        for n in (2, 3, 4)
        for q in range(1, 201)
    )


def _census_rows(check_id: str, grid, second):
    """Rows of record.count(V) against second(record, V) for every census
    record of each (n, bounds) in grid: cyclic, squarefree, all, and rank m
    for m in 0..n."""
    for n, bounds in grid:
        records = [counting.census(mode, n) for mode in ("cyclic", "squarefree", "all")]
        for record in records + [counting.census("rank", n, m) for m in range(n + 1)]:
            label = f"{record.mode} rank {record.low}..{record.high} n={n}"
            for v in bounds:
                yield check_id, f"{label} V={v}", record.count(v), second(record, v)


def check_census_equality():
    """Fast route equals enumeration for every census record at every V up
    to 150 (n = 2), 40 (n = 3) and 20 (n = 4).  The enumeration is a prefix
    sum of nonnegative strata, so the counts are nondecreasing in V, and the
    squarefree record's enumeration raises on a quotient of rank >= 2 at a
    squarefree index."""
    grid = [(n, range(1, vmax + 1)) for n, vmax in ((2, 150), (3, 40), (4, 20))]
    _agree(_census_rows("counting.census-equality", grid, counting.Census.oracle))


def check_class_count_multiplicativity():
    classes = counting.count_primitive_classes
    _agree(
        ("counting.class-multiplicativity", f"n={n} a={a} b={b}", classes(n, a * b), classes(n, a) * classes(n, b))
        for a, b in _coprime_pairs(11, 400, 200)
        for n in (2, 3)
    )


def check_divisor_resummation():
    """Census sum equals the reordered divisor-weighted double sum, exactly."""
    V = 100

    def resummed(n):
        weights = ((d, arith.fn_weight(n, d)) for d in range(1, V + 1))
        return sum(w * d ** (n - 1) * sum(k ** (n - 1) for k in range(1, V // d + 1)) for d, w in weights if w)

    direct = lambda n: sum(counting.count_primitive_classes(n, q) for q in range(1, V + 1))
    _agree(("counting.divisor-resummation", f"n={n}", resummed(n), direct(n)) for n in (2, 3))


def check_dirichlet_vs_sieve():
    """Fast floor-value route equals the second route for every census
    record, n in 2..6, then n = 2 at V = 2e6; the records of one (n, V)
    share each second-route sum."""
    rng = SplitMix64(29)
    bounds = [1, 2, 16, 997, 3000, 10**5] + [1 + rng.randbelow(20000) for _ in range(3)]
    grid = [(n, bounds) for n in range(2, 7)] + [(2, [2 * 10**6])]
    _agree(_census_rows("counting.dirichlet-vs-sieve", grid, counting.Census.sieve))


def check_local_factor_identity():
    """The fast route's local factor, and count_sublattices(n, p^e) at k = n, equal the second
    route's cotype sum: p^e <= 1e12, p <= 1000, e <= 24, n = 2..8, k <= n, squarefree at k = 1."""
    powers = [(p, e) for p in arith.primes_upto(1000) for e in range(1, 25) if p**e <= 10**12]
    factors = [(n, k, sf) for n in range(2, 9) for k in range(1, n + 1) for sf in (False, True)[: 1 + (k == 1)]]
    sublattices = lambda n: lambda p, e: lattice.count_sublattices(n, p**e)
    _agree(("counting.local-factor-identity", f"n={n} k={k} squarefree={sf} p^e={p}^{e}{tag}", route(p, e), cotype)
           for n, k, sf in factors for p, e in powers for cotype in [counting._cotype_factor(n, k, sf)(p, e)]
           for tag, route in (("", counting._local(n, k, sf)), (" sublattices", sublattices(n)))[: 1 + (k == n)])


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def check_aut_formula_vs_bruteforce():
    _agree(
        ("groups.aut-formula-vs-bruteforce", G.describe(), groups.aut_order(G), groups.aut_order_bruteforce(G))
        for G in groups.enumerate_groups(48)
    )


def check_aut_qm():
    _agree(
        ("groups.aut-qm", f"q={q} m={m}",
         groups.aut_order_qm(q, m), groups.aut_order(groups.AbelianGroup.power_of_cyclic(q, m)))
        for q in range(1, 13)
        for m in range(1, 4)
    )


def check_fact2_multiplicativity():
    census = list(groups.enumerate_groups(48))
    bf, tested = functools.cache(groups.aut_order_bruteforce), 0
    for g1 in census:
        for g2 in census:
            o1, o2 = g1.order, g2.order
            if not 2 <= o1 < o2 or math.gcd(o1, o2) != 1 or o1 * o2 > 100:
                continue
            product = groups.AbelianGroup(dict(g1.parts) | dict(g2.parts))
            if groups.aut_order_bruteforce(product) != bf(g1) * bf(g2):
                _fail(
                    "groups.fact2-multiplicativity",
                    f"{g1.describe()} x {g2.describe()}",
                )
            tested += 1
    if tested < 40:
        _fail("groups.fact2-multiplicativity", f"only {tested} pairs tested")


def check_free_action():
    for G in groups.enumerate_groups(16):
        autos, table = groups.automorphism_maps(G), groups._GroupTable(G)
        if len(autos) != groups.aut_order(G):
            _fail("groups.automorphism-materialization", G.describe())
        for n in range(G.rank, 5):
            total = groups.generating_tuples_count(G, n)
            if total == 0:
                continue
            if total % len(autos):
                _fail("groups.free-action-division", f"{G.describe()} n={n}")
            # explicit orbit partition: every orbit must have size #Aut
            gen_tuples = {tuple(map(table.elements.__getitem__, t))
                          for t in table.spanning_tuples([range(table.order)] * n)}
            orbits = 0
            seen: set = set()
            for tup in sorted(gen_tuples):
                if tup in seen:
                    continue
                orbit = {tuple(a[x] for x in tup) for a in autos}
                if len(orbit) != len(autos):
                    _fail("groups.free-action-orbit", f"{G.describe()} n={n} {tup}")
                seen |= orbit
                orbits += 1
            if orbits * len(autos) != total:
                _fail("groups.free-action-count", f"{G.describe()} n={n}")
            if orbits != groups.primitive_class_count(G, n):
                _fail("groups.class-count-vs-orbits", f"{G.describe()} n={n}")


def check_rank_census_cross_module():
    """Three legs per rank, n in 2..4: the subgroup-lattice DP over the
    group census and the powerful-number fast route, each against lattice
    enumeration."""
    check_id, V = "groups.rank-census-cross-module", 20

    def rows():
        for n in (2, 3, 4):
            for m in range(0, n + 1):
                via_groups = sum(groups.primitive_class_count(G, n) for G in groups.enumerate_groups(V) if G.rank == m)
                via_lattices = counting.count_by_rank_bruteforce(n, m, V)
                label = f"n={n} m={m}"
                yield check_id, f"{label} groups DP vs enumeration", via_groups, via_lattices
                yield check_id, f"{label} fast route vs enumeration", counting.count_by_rank(n, m, V), via_lattices

    _agree(rows())


def check_cyclic_class_counts_match():
    _agree(
        ("groups.cyclic-class-counts", f"q={q} n={n}",
         groups.primitive_class_count(groups.AbelianGroup.cyclic(q), n), counting.count_primitive_classes(n, q))
        for q in range(1, 31)
        for n in range(2, 5)
    )


def check_pak_direction():
    for q in range(2, 51):
        n = 2 + math.ceil(2 * math.log2(q))
        if not groups.pak_check(groups.AbelianGroup.cyclic(q), n, 1):
            _fail("groups.pak-direction", f"q={q} n={n}")


def check_mass_identities():
    V = 10**4
    masses = (("groups.cyclic-mass-landau", "cyclic", arith.landau_sum),
              ("groups.squarefree-mass-ward", "squarefree-order", arith.ward_sum))
    _agree((check_id, f"V={V}", groups.cl_predicate_mass(V, kind), exact(V)) for check_id, kind, exact in masses)


def check_landau_prediction():
    t = 10**6
    gap = abs(float(arith.landau_sum(t).value) - float(constants.landau_prediction(t).value))
    if gap > 0.01:
        _fail("groups.landau-prediction", f"t={t} gap={gap}")


def check_total_mass_growth():
    v = 10**6
    ratio = float(groups.cl_total_mass(v).value) / math.log(v)
    target = float(constants.xi_inf(2, 1e-10).value)
    if abs(ratio - target) > 0.05 * target:
        _fail("groups.total-mass-growth", f"ratio={ratio} target={target}")


def check_rank_prob_distribution():
    total = sum((constants.rank_prob(2, r, 1e-12) for r in range(11)), ErrBoundedReal(0))
    if abs(float(total.value) - 1.0) > 1e-8:
        _fail("groups.rank-prob-distribution", f"sum={total}")
    p0 = constants.rank_prob(997, 0, 1e-12)
    if not 0.998 <= float(p0.value) <= 1.0:
        _fail("groups.rank-prob-large-p", f"{p0}")


def check_delta_rank_consistency():
    le1 = constants.delta_rank_at_most(1, 1e-10)
    cocyc = constants.density_cocyclic_limit()
    if not le1.overlaps(cocyc):
        _fail("groups.delta-le1-identity", f"{le1} vs {cocyc}")
    le2 = constants.delta_rank_at_most(2, 1e-10)
    if not (le1.certainly_less(le2) and float(le2.upper) < 1):
        _fail("groups.delta-monotone", f"{le1} {le2}")
    bound2 = constants.delta_rank_at_least_bound(2)
    tail1 = 1 - le1
    if not tail1.value <= bound2.value + bound2.err + tail1.err:
        _fail("groups.delta-bound-covers", f"{tail1} vs {bound2}")
    b3, b4 = constants.delta_rank_at_least_bound(3), constants.delta_rank_at_least_bound(4)
    if not (b3.certainly_less(bound2) and b4.certainly_less(b3)):
        _fail("groups.delta-bound-monotone", f"{bound2} {b3} {b4}")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

CHECKS: dict[str, tuple[str, object]] = {
    "arith.sieve-vs-trial": ("formulas", check_sieve_vs_trial),
    "arith.multiplicativity": ("formulas", check_multiplicativity),
    "arith.fn-weight-bound": ("formulas", check_fn_weight_bound),
    "arith.mobius-divisor-identity": ("formulas", check_mobius_divisor_identity),
    "arith.sum-monotonicity": ("formulas", check_sum_monotonicity),
    "counting.formula-vs-bruteforce": ("formulas", check_formula_vs_bruteforce),
    "counting.class-multiplicativity": ("formulas", check_class_count_multiplicativity),
    "counting.divisor-resummation": ("formulas", check_divisor_resummation),
    "counting.dirichlet-vs-sieve": ("formulas", check_dirichlet_vs_sieve),
    "counting.census-equality": ("census", check_census_equality),
    "lattice.enumeration-counts": ("census", check_enumeration_counts),
    "lattice.enumeration-no-duplicates": ("census", check_enumeration_no_duplicates),
    "lattice.hnf-canonicality": ("bijection", check_hnf_canonicality),
    "lattice.paz-schnorr": ("bijection", check_paz_schnorr),
    "lattice.orbit-sizes": ("bijection", check_orbit_sizes),
    "lattice.equivalence-relation": ("bijection", check_equivalence_relation),
    "constants.tolerances": ("constants", check_constant_tolerances),
    "constants.refinement-nesting": ("constants", check_refinement_nesting),
    "constants.theta-monotone": ("constants", check_theta_monotone),
    "constants.density-identity": ("constants", check_density_identity),
    "constants.theta-sandwich": ("constants", check_theta_sandwich),
    "constants.product-ratio-identity": ("constants", check_product_ratio_identity),
    "constants.theta-product-agreement": ("constants", check_theta_product_agreement),
    "constants.accelerated-vs-plain": ("constants", check_accelerated_vs_plain),
    "constants.paper-value-windows": ("constants", check_paper_value_windows),
    "groups.aut-formula-vs-bruteforce": ("groups", check_aut_formula_vs_bruteforce),
    "groups.aut-qm": ("groups", check_aut_qm),
    "groups.fact2-multiplicativity": ("groups", check_fact2_multiplicativity),
    "groups.free-action": ("groups", check_free_action),
    "groups.rank-census-cross-module": ("groups", check_rank_census_cross_module),
    "groups.cyclic-class-counts": ("groups", check_cyclic_class_counts_match),
    "groups.pak-direction": ("groups", check_pak_direction),
    "groups.rank-prob-distribution": ("groups", check_rank_prob_distribution),
    "groups.delta-rank-consistency": ("groups", check_delta_rank_consistency),
    "groups.mass-identities": ("masses", check_mass_identities),
    "groups.landau-prediction": ("masses", check_landau_prediction),
    "groups.total-mass-growth": ("masses", check_total_mass_growth),
    "lattice.sampler-uniformity": ("sampler", check_sampler_uniformity),
    "lattice.sampler-determinism": ("sampler", check_sampler_determinism),
    "counting.local-factor-identity": ("formulas", check_local_factor_identity),
}

SUITES = tuple(
    ["all"] + sorted({suite for suite, _ in CHECKS.values()})
)


def _outcomes(ids):
    """Yield None per passing check of ids, in order, then the first failure's message."""
    for check_id in ids:
        try:
            CHECKS[check_id][1]()
        except Exception as exc:  # any error but a CheckFailure surfaces under the check's id
            yield str(exc) if isinstance(exc, CheckFailure) else f"{check_id}: unexpected error: {exc}"
            return
        yield None


def _forked_outcomes(ids, w: int):
    """Yield the outcomes of ids in order from w forked workers, worker j running
    ids[j::w]; closing the generator kills and reaps every worker."""
    workers = []  # (pid, read end of its pipe)
    try:
        for j in range(w):
            r, wr = os.pipe()
            if (pid := os.fork()) == 0:  # leaves only by os._exit, flushing no inherited buffer
                try:
                    for message in _outcomes(ids[j::w]):
                        os.write(wr, marshal.dumps(message))
                finally:
                    os._exit(0)
            workers.append((pid, os.fdopen(r, "rb")))
            os.close(wr)
        for k, check_id in enumerate(ids):
            try:
                yield marshal.load(workers[k % w][1])
            except (EOFError, ValueError):  # the worker died before this check's whole outcome
                yield f"{check_id}: unexpected error: its worker sent no result"
    finally:  # a worker whose outcomes are in has exited or is about to, so the kill stops only stragglers
        for pid, pipe in workers:
            os.kill(pid, 9)  # SIGKILL; the signal module would add about 1 ms to every command
            os.waitpid(pid, 0)
            pipe.close()


def run_suite(name: str, report=None) -> list[str]:
    """Run a suite, calling report(check_id) in CHECKS order as each result arrives;
    returns the check ids, or raises CheckFailure on the first failure."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    ids = [check_id for check_id, (suite, _) in CHECKS.items() if name in ("all", suite)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    w = min(len(ids), cpus) if hasattr(os, "fork") else 1
    with contextlib.closing(_forked_outcomes(ids, w) if w > 1 else _outcomes(ids)) as outcomes:
        for check_id, message in zip(ids, outcomes):
            if report is not None:
                report(check_id)
            if message is not None:
                raise CheckFailure(message)
    return ids

"""Acceptance suite: one test per numbered criterion.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with
`pytest tests/test_acceptance.py -v -s`) and enforces the criterion at its
stated tolerance and runtime budget.  The whole suite takes a few minutes.
"""

import math
import time

from latcensus import arith, constants, counting, groups, lattice, verifysuite


def _passline(num: int, detail: str):
    print(f"criterion {num:02d}: PASS  ({detail})")


def _failline(num: int):
    print(f"criterion {num:02d}: FAIL")


class _Criterion:
    def __init__(self, num):
        self.num = num

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def done(self, detail: str = ""):
        elapsed = time.monotonic() - self.t0
        _passline(self.num, f"{detail + ', ' if detail else ''}{elapsed:.1f}s")

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            _failline(self.num)
        return False


def test_criterion_01_formula_oracle_exactness():
    # class-count formula == brute-force class count, n in {2,3,4}, q <= 200
    with _Criterion(1) as c:
        verifysuite.check_formula_vs_bruteforce(q_max=200)
        elapsed = c.elapsed()
        assert elapsed <= 60, f"runtime {elapsed:.1f}s exceeds 60s"
        c.done("zero mismatches on 600 moduli")


def test_criterion_02_census_exactness():
    with _Criterion(2) as c:
        verifysuite.check_census_equality()  # every record at every V to 150, 40, 20 (n = 2, 3, 4)
        verifysuite.check_enumeration_counts(n_max=4, q_max=60)
        elapsed = c.elapsed()
        assert elapsed <= 120, f"runtime {elapsed:.1f}s exceeds 120s"
        c.done("censuses and enumeration counts all match")


def test_criterion_03_congruence_bijection():
    with _Criterion(3) as c:
        verifysuite.check_paz_schnorr(q_max=30)
        c.done("congruence-built set == enumerated co-cyclic set, n in {2,3}, q <= 30")


def test_criterion_04_dimension_constant_leading_term():
    with _Criterion(4) as c:
        t0 = time.monotonic()
        n2 = counting.count_cocyclic(2, 10**5)
        r2 = 2 * n2 / (float(constants.theta_n(2, 1e-10).value) * 10**10)
        assert time.monotonic() - t0 <= 60
        assert 0.99 <= r2 <= 1.01, r2
        t0 = time.monotonic()
        n3 = counting.count_cocyclic(3, 10**4)
        r3 = 3 * n3 / (float(constants.theta_n(3, 1e-10).value) * 10**12)
        assert time.monotonic() - t0 <= 60
        assert 0.98 <= r3 <= 1.02, r3
        c.done(f"ratios {r2:.6f}, {r3:.6f}")


def test_criterion_05_squarefree_leading_term():
    with _Criterion(5) as c:
        ns = counting.count_squarefree(2, 10**5)
        r = 2 * ns / (float(constants.rho_n(2, 1e-10).value) * 10**10)
        assert 0.98 <= r <= 1.02, r
        c.done(f"ratio {r:.6f}")


def test_criterion_06_total_count_leading_term():
    with _Criterion(6) as c:
        total = counting.total_count(2, 10**5)
        r = 2 * total / (float(constants.xi(2, 2, 1e-10).value) * 10**10)
        assert 0.98 <= r <= 1.02, r
        c.done(f"ratio {r:.6f}")


def test_criterion_07_paper_constants():
    with _Criterion(7) as c:
        th = constants.theta()
        assert abs(float(th.value) - 1.943595) <= 5e-6  # displays as 1.94359...
        assert float(th.err) <= 1e-12
        windows = [
            (constants.density_cocyclic_limit(), 0.845, 0.855),
            (constants.density_squarefree_limit(), 0.7165, 0.7175),
            (1 / constants.xi_inf(2, 1e-10), 0.43, 0.45),
            (1 / (constants.zeta(2, 1e-12) * constants.xi_inf(2, 1e-10)), 0.25, 0.27),
            (constants.delta_rank_at_most(2, 1e-10), 0.994, 0.996),
            (constants.gekeler_cyclic(), 0.805, 0.815),
            (constants.gekeler_squarefree(), 0.435, 0.445),
        ]
        for val, lo, hi in windows:
            assert lo <= float(val.value) <= hi, (float(val.value), lo, hi)
        c.done("all eight reported constants inside their windows")


def test_criterion_08_bracket_inequalities():
    with _Criterion(8) as c:
        for n in range(2, 17):
            lower, upper = constants.theta_sandwich(n)
            tn = constants.theta_n(n, 1e-11)
            assert float(lower.lower) <= float(tn.upper), n
            assert float(tn.lower) <= float(upper.upper), n
        c.done("lower <= theta_n <= upper for n in [2,16]")


def test_criterion_09_squarefree_constant_identity():
    # the Euler-product part of the squarefree constant satisfies
    # product(n) * zeta(n+1) = zeta(2) (= rho) exactly; the full constant
    # (with its squarefree-density prefactor) satisfies rho_n * zeta(n+1) = 1
    with _Criterion(9) as c:
        target = constants.rho()
        for n in range(2, 17):
            prod = constants.rho_n_product(n, 1e-11) * constants.zeta(n + 1, 1e-12)
            gap = abs(float(prod.value) - float(target.value))
            assert gap <= float(prod.err) + float(target.err), n
            full = constants.rho_n(n, 1e-11) * constants.zeta(n + 1, 1e-12)
            assert full.contains(1), n
        c.done("identity holds within combined error, n in [2,16]")


def test_criterion_10_automorphism_formulas():
    with _Criterion(10) as c:
        verifysuite.check_aut_formula_vs_bruteforce(order_max=48)
        verifysuite.check_aut_qm(q_max=12, m_max=3)
        c.done("formulas match brute force for all groups of order <= 48")


def test_criterion_11_free_action_and_rank_census():
    with _Criterion(11) as c:
        verifysuite.check_free_action(order_max=16, n_max=4)
        verifysuite.check_rank_census_cross_module(v_max=20)
        c.done("exact divisions and cross-module rank censuses agree")


def test_criterion_12_census_masses():
    with _Criterion(12) as c:
        v = 10**4
        assert groups.cl_predicate_mass(v, "cyclic") == arith.landau_sum(v)
        exact = arith.landau_sum(10**6)
        predicted = constants.landau_prediction(10**6)
        gap = abs(float(exact.value) - float(predicted.value))
        assert gap <= 0.01, gap
        total = groups.cl_total_mass(10**6)
        ratio = float(total.value) / math.log(10**6)
        target = float(constants.xi_inf(2, 1e-10).value)
        assert abs(ratio - target) <= 0.05 * target, (ratio, target)
        c.done(f"landau gap {gap:.2e}, mass ratio {ratio:.4f} vs {target:.4f}")


def test_criterion_13_sampler():
    with _Criterion(13) as c:
        counts, chi2, pvalue = verifysuite.sampler_statistics(2, 12, 24000, 20240901)
        assert len(counts) == 24 == counting.count_primitive_classes(2, 12)
        expected = {
            lattice.lattice_from_congruence(lattice.CongruenceVector(12, vec))
            for vec in counting.primitive_class_representatives(2, 12)
        }
        assert set(counts) == expected
        assert pvalue >= 1e-3, (chi2, pvalue)
        a = [b.to_json() for b in lattice.sample_cocyclic_stream(2, 12, 100, 4242)]
        b = [b.to_json() for b in lattice.sample_cocyclic_stream(2, 12, 100, 4242)]
        assert a == b
        c.done(f"support 24/24, chi2 {chi2:.1f}, p {pvalue:.3f}, deterministic")


def test_criterion_14_squarefree_coprime_prediction():
    with _Criterion(14) as c:
        worst = 0.0
        for d in (1, 2, 3, 6, 30):
            exact = arith.squarefree_coprime_count(10**5, d)
            pred = float(constants.squarefree_coprime_prediction(10**5, d).value)
            rel = abs(exact - pred) / pred
            worst = max(worst, rel)
            assert rel <= 0.02, (d, rel)
        c.done(f"worst relative gap {worst:.5f}")

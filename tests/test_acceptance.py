"""Acceptance suite: one test per numbered criterion.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with
`pytest tests/test_acceptance.py -v -s`) and enforces the criterion at its
stated tolerance and runtime budget.  Where `verifysuite` states the same
invariant at the same scale, the criterion calls that check, with no
arguments, so `verify` and this suite cannot drift apart.  The whole suite
takes about 3 s (14 tests, 2-core host, Python 3.11).
"""

import time

from latcensus import arith, constants, counting, lattice, verifysuite


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
        verifysuite.check_formula_vs_bruteforce()
        elapsed = c.elapsed()
        assert elapsed <= 60, f"runtime {elapsed:.1f}s exceeds 60s"
        c.done("zero mismatches on 600 moduli")


def test_criterion_02_census_exactness():
    with _Criterion(2) as c:
        verifysuite.check_census_equality()  # every record at every V to 150, 40, 20 (n = 2, 3, 4)
        verifysuite.check_enumeration_counts()
        elapsed = c.elapsed()
        assert elapsed <= 120, f"runtime {elapsed:.1f}s exceeds 120s"
        c.done("censuses and enumeration counts all match")


def test_criterion_03_congruence_bijection():
    with _Criterion(3) as c:
        verifysuite.check_paz_schnorr()
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
        verifysuite.check_paper_value_windows()  # theta and seven more constants
        verifysuite.check_constant_tolerances()  # theta's err within 1e-12, among others
        c.done("all eight reported constants inside their windows")


def test_criterion_08_bracket_inequalities():
    with _Criterion(8) as c:
        verifysuite.check_theta_sandwich()
        c.done("lower <= theta_n <= upper for n in [2,16]")


def test_criterion_09_squarefree_constant_identity():
    # the Euler-product part of the squarefree constant satisfies
    # product(n) * zeta(n+1) = zeta(2) (= rho) exactly; the full constant
    # (with its squarefree-density prefactor) satisfies rho_n * zeta(n+1) = 1
    with _Criterion(9) as c:
        verifysuite.check_product_ratio_identity()
        c.done("identity holds within combined error, n in [2,16]")


def test_criterion_10_automorphism_formulas():
    with _Criterion(10) as c:
        verifysuite.check_aut_formula_vs_bruteforce()
        verifysuite.check_aut_qm()
        c.done("formulas match brute force for all groups of order <= 48")


def test_criterion_11_free_action_and_rank_census():
    with _Criterion(11) as c:
        verifysuite.check_free_action()
        verifysuite.check_rank_census_cross_module()
        c.done("exact divisions and cross-module rank censuses agree")


def test_criterion_12_census_masses():
    with _Criterion(12) as c:
        verifysuite.check_mass_identities()  # cyclic mass = Landau sum, squarefree-order mass = Ward sum
        verifysuite.check_landau_prediction()
        verifysuite.check_total_mass_growth()
        c.done("exact masses at 10^4, Landau gap and mass growth at 10^6 inside their bounds")


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

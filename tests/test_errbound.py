import json
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcensus.errbound import ErrBoundedReal, format_errbounded


def test_exact_contains_value():
    x = ErrBoundedReal.exact(Fraction(1, 3))
    assert x.contains(Fraction(1, 3))
    assert float(x.err) < 1e-30


def test_interval_invariants():
    x = ErrBoundedReal.from_interval(1, 2)
    assert x.contains(1) and x.contains(2) and x.contains(1.5)
    assert not x.contains(3)
    with pytest.raises(ValueError):
        ErrBoundedReal.from_interval(2, 1)
    with pytest.raises(ValueError):
        ErrBoundedReal(1, -1)


@pytest.mark.parametrize("nan", [float("nan"), "nan", mpmath.mpf("nan")])
def test_nan_value_or_bound_is_refused(nan):
    # NaN compares false with everything: it would pass the sign test and
    # build an interval that contains nothing
    with pytest.raises(ValueError):
        ErrBoundedReal(nan)
    with pytest.raises(ValueError):
        ErrBoundedReal(1, nan)
    with pytest.raises(ValueError):
        ErrBoundedReal.from_interval(0, nan)


def test_arithmetic_bounds_contain_truth():
    a = ErrBoundedReal(2, 0.25)
    b = ErrBoundedReal(3, 0.5)
    inside = 1 - 1e-12  # endpoints shrunk to dodge rounding-direction ties

    def spans(x, lo, hi):
        mid = (lo + hi) / 2
        return x.contains(mid + (lo - mid) * inside) and x.contains(mid + (hi - mid) * inside)

    assert spans(a + b, 1.75 + 2.5, 2.25 + 3.5)
    assert spans(a * b, 1.75 * 2.5, 2.25 * 3.5)
    assert spans(a / b, 1.75 / 3.5, 2.25 / 2.5)
    assert spans(-a, -2.25, -1.75)
    assert spans(b - a, 2.5 - 2.25, 3.5 - 1.75)


def test_division_by_interval_containing_zero():
    with pytest.raises(ZeroDivisionError):
        ErrBoundedReal(1) / ErrBoundedReal(0.1, 0.2)


def test_int_power():
    x = ErrBoundedReal(3, 0.01)
    cube = x**3
    assert cube.contains(2.99**3) and cube.contains(3.01**3)
    assert (x**0).contains(1)
    with pytest.raises(ValueError):
        x ** (-1)


def test_exp_log_roundtrip():
    x = ErrBoundedReal(1.5, 1e-6)
    y = x.exp().log()
    assert y.contains(1.5)
    assert float(y.err) < 1e-5
    with pytest.raises(ValueError):
        ErrBoundedReal(0, 1).log()


def test_certain_comparisons():
    a = ErrBoundedReal(1, 0.1)
    b = ErrBoundedReal(2, 0.1)
    assert a.certainly_less(b) and b.certainly_greater(a)
    c = ErrBoundedReal(1.15, 0.1)
    assert not a.certainly_less(c)
    assert a.overlaps(c) and not a.overlaps(b)


def test_coercion_with_scalars():
    x = ErrBoundedReal(10, 1)
    assert (x + 5).contains(14) and (5 + x).contains(16)
    assert (2 * x).contains(22) and (x / 2).contains(4.5)
    assert (1 - x).contains(-10)
    big = ErrBoundedReal.exact(10**60)
    assert big.contains(10**60)


def test_format_errbounded_is_stable():
    x = ErrBoundedReal("1.25", "0.5")
    doc = format_errbounded(x)
    assert set(doc) == {"value", "err"}
    assert doc == format_errbounded(ErrBoundedReal("1.25", "0.5"))


def test_decimal_strings_exact_in_binary_carry_no_conversion_slack():
    assert format_errbounded(ErrBoundedReal("1.25", "0.5")) == {"value": "1.25", "err": "0.5"}
    assert ErrBoundedReal("-3.75e2").err == 0 and ErrBoundedReal("0").err == 0
    # 0.1 has no finite binary expansion: its rounding is charged and still covered
    tenth = ErrBoundedReal("0.1")
    assert 0 < tenth.err < 1e-36 and tenth.contains(Fraction(1, 10))


def test_bounds_ignore_the_callers_mpmath_precision():
    from latcensus import constants

    ref = mpmath.MPContext()
    ref.prec = 200
    saved = mpmath.mp.prec
    mpmath.mp.prec = 20
    try:
        z = constants.zeta.__wrapped__(3, 1e-12)  # fresh, not from the cache
        assert mpmath.mp.prec == 20
    finally:
        mpmath.mp.prec = saved
    assert z.err <= 1e-12
    assert abs(ref.mpf(z.value) - ref.zeta(3)) <= ref.mpf(z.err)
    assert ErrBoundedReal(mpmath.mpf("0.1")).contains(mpmath.mpf("0.1"))


def test_import_leaves_global_precision_alone():
    # the private context is created at the first interval, after the caller
    # may have changed mpmath.mp: neither precision may leak into the other
    zeta3 = ("import latcensus; from latcensus.errbound import format_errbounded; "
             "print(format_errbounded(latcensus.zeta(3, 1e-30)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, check=True, timeout=60).stdout.splitlines()
            for code in ("import mpmath; mpmath.mp.prec = 77; " + zeta3 + "; print(mpmath.mp.prec)", zeta3)]
    assert runs[0][1] == "77"
    assert runs[0][0] == runs[1][0]
    assert runs[1][0].startswith("{'value': '1.202056903159594285399738161511489'")


REF = mpmath.MPContext()
REF.prec = 300


@st.composite
def _operands(draw, max_abs=10**6):
    """An interval with a random value and error, and an exact point of it
    (value + t err, t a dyadic rational in [-1, 1]) in the 300-bit context."""
    value = draw(st.fractions(-max_abs, max_abs, max_denominator=10**30))
    err = draw(st.fractions(0, 10, max_denominator=10**30)) / 10 ** draw(st.integers(0, 30))
    x = ErrBoundedReal(value, err)
    dyadic = st.integers(-(2**20), 2**20).map(lambda i: i / 2**20)
    t = REF.mpf(draw(st.sampled_from((-1, 1)) | dyadic))  # the ends are where bounds are tight
    point = REF.fadd(x.value, REF.fmul(x.err, t, exact=True), exact=True)
    return x, point


def _holds(x: ErrBoundedReal, ref) -> bool:
    lo = REF.fsub(x.value, x.err, exact=True)
    hi = REF.fadd(x.value, x.err, exact=True)
    return lo <= ref <= hi


@settings(deadline=None, max_examples=300)
@given(a=_operands(), b=_operands())
def test_arithmetic_contains_a_300_bit_reference(a, b):
    (x, px), (y, py) = a, b
    assert _holds(x + y, REF.fadd(px, py, exact=True))
    assert _holds(x - y, REF.fsub(px, py, exact=True))
    assert _holds(x * y, REF.fmul(px, py, exact=True))
    if abs(y.value) > y.err:
        assert _holds(x / y, REF.fdiv(px, py))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@settings(deadline=None, max_examples=300)
@given(a=_operands(max_abs=60))
def test_exp_log_contain_a_300_bit_reference(a):
    x, px = a
    assert _holds(x.exp(), REF.exp(px))
    if x.lower > 0:
        assert _holds(x.log(), REF.log(px))
    else:
        with pytest.raises(ValueError):
            x.log()


# one argument set for each name that takes any; the other names take none
_CONSTANT_ARGS = {
    "zeta": {"k": 3}, "xi": {"m": 2, "n": 3}, "xi-inf": {"m": 2}, "theta-n": {"n": 3},
    "rho-n": {"n": 3}, "rho-n-product": {"n": 3}, "rank-prob": {"p": 2, "r": 1},
    "delta-rank-le": {"r": 2}, "delta-rank-ge-bound": {"r": 2},
}


def _exact(x) -> Fraction:
    return Fraction(*mpmath.libmp.to_rational(x._mpf_))


def test_printed_interval_contains_the_proven_one():
    from latcensus import constants
    from latcensus.errors import PrecisionError

    reached = set()
    for name in constants.CONSTANT_NAMES:
        for tol in (1e-10, 1e-20, 1e-25, 1e-30):
            try:
                val, _ = constants.evaluate_constant(name, tol=tol, **_CONSTANT_ARGS.get(name, {}))
            except PrecisionError:
                continue
            reached.add((name, tol))
            doc = format_errbounded(val)
            mid, err = Fraction(doc["value"]), Fraction(doc["err"])
            value, half = _exact(val.value), _exact(val.err)
            assert mid - err <= value - half and value + half <= mid + err, (name, tol, doc)
            assert err <= tol, (name, tol, doc)  # the value prints with the digits err asks for
    # every name but the one whose smallest reachable err is 2.7e-6 prints at 1e-10
    assert {name for name, tol in reached if tol == 1e-10} == set(constants.CONSTANT_NAMES) - {"landau-prime-sum"}


def test_printed_zeta3_interval_holds_zeta3(capsys):
    from latcensus.cli import main

    assert main(["constants", "--name", "zeta", "--k", "3", "--tol", "1e-30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(REF.mpf(doc["value"]) - REF.zeta(3)) <= REF.mpf(doc["err"])
    assert Fraction(doc["err"]) <= 1e-30


def test_constants_refuses_a_printed_err_above_tol(capsys, monkeypatch):
    from latcensus import cli

    monkeypatch.setattr(cli, "format_errbounded", lambda v: {"value": "1", "err": "2e-10"})
    assert cli.main(["constants", "--name", "zeta", "--k", "3", "--tol", "1e-10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "prints err 2e-10, above tol 1e-10" in err

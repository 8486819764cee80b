"""Reals carried together with a rigorous absolute error bound.

Every constant this package evaluates numerically (zeta values, Euler
products, density limits) is returned as an :class:`ErrBoundedReal`: a
working-precision value ``v`` and a bound ``e >= 0`` such that the exact
mathematical quantity is guaranteed to lie in ``[v - e, v + e]``.

Arithmetic propagates bounds conservatively and folds in a small slack per
floating operation; the error terms themselves are rounded upward, so the
bound holds however far the error exceeds the value.  The backing float is
an mpmath ``mpf`` at 120 bits of significand, so the per-operation rounding
slack (~1e-36 relative) is far below every tolerance used in practice, but
it is tracked anyway to keep the interval contract honest.

All evaluation runs in the private mpmath context ``CTX``: the package
neither reads nor writes the caller's global ``mpmath.mp`` precision, so a
caller lowering ``mp.prec`` cannot make a bound unsound.

mpmath is imported here, on first use: ``load_mpmath`` creates ``CTX`` and
the names that depend on it; ``_to_mpf``, the entry of every interval, runs
it first, and ``constants.inv_zeta2`` and verify's ``_plain_euler_product``
call it.  Exact counts build no interval, so they never load mpmath.
"""

from __future__ import annotations

from fractions import Fraction

# Working precision for all error-bounded evaluation in the package.
PRECISION_BITS = 120
CTX = None  # the private mpmath context, created by load_mpmath


def load_mpmath():
    """Import mpmath and create CTX, mpf, mpf_type, the rounding slacks _EPS
    and _TRANS_EPS and the mpmath.libmp primitives; idempotent.  Returns CTX."""
    global CTX, mpf, mpf_type, _EPS, _TRANS_EPS
    global fnan, fzero, mpf_add, mpf_div, mpf_mul, mpf_sub, round_ceiling, round_floor
    if CTX is None:
        from mpmath import MPContext
        from mpmath.libmp import fnan, fzero, mpf_add, mpf_div, mpf_mul, mpf_sub, round_ceiling, round_floor
        ctx = MPContext()
        ctx.prec = PRECISION_BITS
        mpf = ctx.mpf
        mpf_type = type(mpf(0))
        # Conservative relative rounding slack per basic operation (2 ulp).
        _EPS = mpf(2) ** (1 - PRECISION_BITS)
        # Extra slack for transcendental functions (exp/log), per call.
        _TRANS_EPS = mpf(2) ** (3 - PRECISION_BITS)
        CTX = ctx  # last, so a set CTX means every name above is ready
    return CTX


def _op(fn, a, b, rnd) -> mpf:
    """fn(a, b) (an mpmath.libmp operation) at the working precision,
    rounded in the direction rnd."""
    return CTX.make_mpf(fn(a._mpf_, b._mpf_, PRECISION_BITS, rnd))


def _sum_up(*terms) -> mpf:
    """Sum of nonnegative error terms, rounded upward at every step."""
    out = fzero
    for t in terms:
        out = mpf_add(out, t._mpf_, PRECISION_BITS, round_ceiling)
    return CTX.make_mpf(out)


def _mul_up(a, b) -> mpf:
    return _op(mpf_mul, a, b, round_ceiling)


def _to_mpf(x) -> tuple[mpf, mpf]:
    """Convert x to (mpf value, conversion error bound)."""
    if CTX is None:
        load_mpmath()
    if isinstance(x, mpf_type):
        return x, mpf(0)
    if hasattr(x, "_mpf_"):  # an mpf of another context, at any precision
        v = mpf(x)
        return v, abs(v) * _EPS
    if isinstance(x, int):
        v = mpf(x)
        if x.bit_length() <= PRECISION_BITS:
            return v, mpf(0)
        return v, abs(v) * _EPS
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        v = CTX.fdiv(num, den)  # one rounding of the exact quotient
        exact = (
            num.bit_length() <= PRECISION_BITS
            and den.bit_length() <= PRECISION_BITS
            and (den & (den - 1)) == 0  # power of two denominators divide exactly
        )
        return v, mpf(0) if exact else abs(v) * _EPS
    if isinstance(x, float):
        return mpf(x), mpf(0)  # binary64 embeds exactly in 120 bits
    if isinstance(x, str):
        v = mpf(x)
        exact = CTX.isfinite(v) and Fraction(x) == _rational(v)  # e.g. "1.25", unlike "0.1"
        return v, mpf(0) if exact else abs(v) * _EPS
    raise TypeError(f"cannot convert {type(x).__name__} to ErrBoundedReal")


class ErrBoundedReal:
    """A real value plus a rigorous absolute error bound.

    Invariant: the exact quantity lies in [value - err, value + err].
    Instances are immutable; arithmetic returns new instances with
    conservatively propagated bounds.
    """

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        v, ce = _to_mpf(value)
        e, ce2 = _to_mpf(err)
        if v._mpf_ == fnan or not e >= 0:  # a NaN err compares false with 0 too
            raise ValueError("value must not be NaN, error bound must be nonnegative")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "err", _sum_up(e, ce, ce2))

    def __setattr__(self, name, value):
        raise AttributeError("ErrBoundedReal is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, x) -> "ErrBoundedReal":
        """Wrap an int/Fraction/float, folding in conversion error only."""
        return cls(x, 0)

    @classmethod
    def from_interval(cls, lo, hi) -> "ErrBoundedReal":
        lo_v, lo_e = _to_mpf(lo)
        hi_v, hi_e = _to_mpf(hi)
        if hi_v < lo_v:
            raise ValueError("empty interval")
        mid = (lo_v + hi_v) / 2
        half = _op(mpf_sub, hi_v, lo_v, round_ceiling) / 2
        return cls(mid, _sum_up(half, lo_e, hi_e, abs(mid) * _EPS))

    # -- interval views -----------------------------------------------

    @property
    def lower(self) -> mpf_type:
        return _op(mpf_sub, self.value, self.err, round_floor)

    @property
    def upper(self) -> mpf_type:
        return _op(mpf_add, self.value, self.err, round_ceiling)

    def contains(self, x) -> bool:
        v, e = _to_mpf(x)
        return self.lower - e <= v <= self.upper + e

    def overlaps(self, other: "ErrBoundedReal") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def __float__(self) -> float:
        return float(self.value)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ErrBoundedReal":
        if isinstance(x, ErrBoundedReal):
            return x
        return ErrBoundedReal(x, 0)

    def __add__(self, other):
        o = self._coerce(other)
        v = self.value + o.value
        return ErrBoundedReal(v, _sum_up(self.err, o.err, abs(v) * _EPS))

    __radd__ = __add__

    def __neg__(self):
        return ErrBoundedReal(-self.value, self.err)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        v = self.value * o.value
        e = _sum_up(
            _mul_up(abs(self.value), o.err),
            _mul_up(abs(o.value), self.err),
            _mul_up(self.err, o.err),
            abs(v) * _EPS,
        )
        return ErrBoundedReal(v, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if abs(o.value) <= o.err:
            raise ZeroDivisionError("divisor interval contains zero")
        v = self.value / o.value
        # |x/y - a/b| <= (ea + |a/b| eb) / (|b| - eb) on the interval, and
        # |a/b| <= |v| (1 + _EPS)
        num = _sum_up(self.err, _mul_up(_sum_up(abs(v), abs(v) * _EPS), o.err))
        den = _op(mpf_sub, abs(o.value), o.err, round_floor)
        return ErrBoundedReal(v, _sum_up(_op(mpf_div, num, den, round_ceiling), abs(v) * _EPS))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = ErrBoundedReal(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exp(self) -> "ErrBoundedReal":
        v = CTX.exp(self.value)
        # exp is increasing and convex: worst deviation is at the upper end,
        # whose exp `hi` is itself within _TRANS_EPS
        hi = CTX.exp(self.upper)
        e = _sum_up(_op(mpf_sub, hi, v, round_ceiling), (hi + 2 * abs(v)) * _TRANS_EPS)
        return ErrBoundedReal(v, e)

    def log(self) -> "ErrBoundedReal":
        if self.lower <= 0:
            raise ValueError("log of an interval touching zero")
        v = CTX.log(self.value)
        # |log'| <= 1/(value - err) on the interval
        e = _sum_up(
            _op(mpf_div, self.err, self.lower, round_ceiling), _sum_up(abs(v), mpf(1)) * _TRANS_EPS
        )
        return ErrBoundedReal(v, e)

    # -- comparisons (certain only) -------------------------------------

    def certainly_less(self, other) -> bool:
        o = self._coerce(other)
        return self.upper < o.lower

    def certainly_greater(self, other) -> bool:
        o = self._coerce(other)
        return self.lower > o.upper

    def __repr__(self) -> str:
        return f"ErrBoundedReal({CTX.nstr(self.value, 20)} +/- {CTX.nstr(self.err, 3)})"


def _rational(x) -> Fraction:
    """The exact value of an mpf."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man) * Fraction(2) ** exp


def format_errbounded(v: ErrBoundedReal) -> dict:
    """Stable JSON-ready rendering {value, err} as decimal strings: value to
    21 significant digits, or to as many more as keep its rounding near
    err / 100, err widened by that rounding and rounded up at 4 digits, so
    the printed interval contains [v.value - v.err, v.value + v.err]."""
    digits = 21
    if v.value and v.err:  # log10(2) digits per bit from |value| down to err, and 3 below it
        digits = max(digits, 3 + int(0.302 * (CTX.mag(v.value) - CTX.mag(v.err))))
    value = CTX.nstr(v.value, digits)
    err = _rational(v.err) + abs(Fraction(value) - _rational(v.value))
    scale = len(str(err.numerator)) - len(str(err.denominator)) - 4  # err / 10^scale > 10^3
    while (m := -(-err // Fraction(10) ** scale)) >= 10**4:
        scale += 1
    return {"value": value, "err": CTX.nstr(CTX.mpf(f"{m}e{scale}"), 4)}

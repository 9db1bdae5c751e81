"""Arbitrary-precision binary floating point on top of Python integers.

An :class:`MpReal` stores ``sign * man * 2**exp`` with an explicit working
precision.  Nonzero mantissas are kept normalized so that their bit length
sits in the window ``[prec, prec + 8)``; every arithmetic operation rounds
to nearest with ties to even, which keeps the relative error of a single
operation below ``2**(4 - prec)``.

The transcendental kernel at the bottom of this file (exp, ln, sin, cos,
atan, ...) works on fixed-point integers internally and uses the two
series-built constants ``pi_const`` and ``log2_const`` for argument
reduction.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

from ..errors import DomainError, PoleError, PrecisionError

__all__ = [
    "MpReal",
    "MAX_FUNC_PREC",
    "pi_const",
    "log2_const",
    "exp",
    "ln",
    "sin",
    "cos",
    "tan",
    "atan",
    "pow_int",
    "pow_real",
]

# Hard ceiling for the transcendental kernel.  Plain field arithmetic is
# allowed to go far beyond this: series-based digit oracles legitimately
# carry hundreds of kilobits of fixed point state.
MAX_FUNC_PREC = 32768
_MAX_CORE_PREC = 1 << 23

# Extra mantissa bits carried beyond the nominal precision.
_SLACK = 4

Scalar = Union["MpReal", int, Fraction]


def _round_shift(man: int, s: int) -> int:
    """Shift a nonnegative mantissa right by ``s`` bits, rounding to
    nearest with ties to even.  Negative ``s`` shifts left exactly."""
    if s <= 0:
        return man << (-s)
    rem = man & ((1 << s) - 1)
    man >>= s
    if rem:
        half = 1 << (s - 1)
        if rem > half or (rem == half and (man & 1)):
            man += 1
    return man


def _shr0(n: int, s: int) -> int:
    """Right shift truncating toward zero (series terms must shrink to 0;
    floor shifts would pin negative terms at -1)."""
    return -((-n) >> s) if n < 0 else n >> s


def _div0(n: int, d: int) -> int:
    """Integer division truncating toward zero (d > 0)."""
    return -((-n) // d) if n < 0 else n // d


class MpReal:
    """Immutable arbitrary-precision real number."""

    __slots__ = ("sign", "man", "exp", "prec")

    def __init__(self, sign: int, man: int, exp: int, prec: int):
        # Raw constructor: callers are expected to pass normalized fields.
        self.sign = sign
        self.man = man
        self.exp = exp
        self.prec = prec

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def make(sign: int, man: int, exp: int, prec: int) -> "MpReal":
        """Normalize raw fields into a valid MpReal (rounds if needed)."""
        if not 2 <= prec <= _MAX_CORE_PREC:
            raise PrecisionError(f"precision {prec} out of supported range")
        if sign == 0 or man == 0:
            return MpReal(0, 0, 0, prec)
        if man < 0:
            sign = -sign
            man = -man
        s = man.bit_length() - (prec + _SLACK)
        man = _round_shift(man, s)
        return MpReal(sign, man, exp + s, prec)

    @classmethod
    def zero(cls, prec: int) -> "MpReal":
        return cls(0, 0, 0, prec)

    @classmethod
    def from_int(cls, n: int, prec: int) -> "MpReal":
        return cls.make(1 if n >= 0 else -1, abs(n), 0, prec)

    @classmethod
    def from_fraction(cls, q: Fraction, prec: int) -> "MpReal":
        if q.denominator == 1:
            return cls.from_int(q.numerator, prec)
        num, den = q.numerator, q.denominator
        shift = den.bit_length() + prec + 8
        quo, rem = divmod(abs(num) << shift, den)
        if rem:
            quo |= 1
        return cls.make(1 if num >= 0 else -1, quo, -shift, prec)

    @classmethod
    def from_fixed(cls, n: int, wp: int, prec: int) -> "MpReal":
        """Interpret ``n`` as the fixed-point value ``n / 2**wp``."""
        return cls.make(1 if n >= 0 else -1, abs(n), -wp, prec)

    def _coerce(self, other: Scalar) -> "MpReal":
        if isinstance(other, MpReal):
            return other
        if isinstance(other, int):
            return MpReal.from_int(other, self.prec)
        if isinstance(other, Fraction):
            return MpReal.from_fraction(other, self.prec)
        return NotImplemented  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # predicates / conversions

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def bit_top(self) -> int:
        """Exponent of the power-of-two bracket: |x| < 2**bit_top()."""
        if self.sign == 0:
            raise ValueError("bit_top of zero")
        return self.exp + self.man.bit_length()

    def abs_lt_2pow(self, k: int) -> bool:
        """Exact test |x| < 2**k."""
        if self.sign == 0:
            return True
        top = self.bit_top()
        if top != k + 1:
            return top < k + 1
        # |x| in [2**k, 2**(k+1)): equal to 2**k only for a pure power of two
        return False

    def log2_abs(self) -> float:
        """float approximation of log2|x| (for reports; -inf for zero)."""
        if self.sign == 0:
            return -math.inf
        m = self.man
        bl = m.bit_length()
        if bl > 64:
            m >>= bl - 64
            return math.log2(m) + (bl - 64) + self.exp
        return math.log2(m) + self.exp

    def to_fraction(self) -> Fraction:
        if self.sign == 0:
            return Fraction(0)
        if self.exp >= 0:
            return Fraction(self.sign * (self.man << self.exp))
        return Fraction(self.sign * self.man, 1 << -self.exp)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        m = self.man
        e = self.exp
        bl = m.bit_length()
        if bl > 64:
            m >>= bl - 64
            e += bl - 64
        return self.sign * math.ldexp(float(m), e)

    def to_fixed(self, wp: int) -> int:
        """Round x * 2**wp to the nearest integer (ties to even)."""
        if self.sign == 0:
            return 0
        s = -(self.exp + wp)
        return self.sign * _round_shift(self.man, s)

    def to_decimal(self, digits: int = 0) -> str:
        """Decimal string with ``digits`` places after the point."""
        if digits <= 0:
            digits = max(1, int(self.prec * 0.30103) - 1)
        q = self.to_fraction() * 10**digits
        n = q.numerator // q.denominator
        neg = n < 0 or (n == 0 and self.sign < 0)
        n = abs(n)
        s = str(n).rjust(digits + 1, "0")
        out = s[:-digits] + "." + s[-digits:] if digits else s
        return ("-" if neg else "") + out

    # ------------------------------------------------------------------
    # arithmetic

    def round_to(self, prec: int) -> "MpReal":
        if self.sign == 0:
            return MpReal.zero(prec)
        return MpReal.make(self.sign, self.man, self.exp, prec)

    def scalb(self, k: int) -> "MpReal":
        """Exact multiplication by 2**k."""
        if self.sign == 0:
            return self
        return MpReal(self.sign, self.man, self.exp + k, self.prec)

    def __neg__(self) -> "MpReal":
        return MpReal(-self.sign, self.man, self.exp, self.prec)

    def add(self, other: Scalar, prec: int | None = None) -> "MpReal":
        b = self._coerce(other)
        if b is NotImplemented:
            raise TypeError(f"cannot add MpReal and {type(other).__name__}")
        prec = prec or max(self.prec, b.prec)
        a = self
        if a.sign == 0:
            return b.round_to(prec)
        if b.sign == 0:
            return a.round_to(prec)
        if a.exp < b.exp:
            a, b = b, a
        d = a.exp - b.exp
        cap = prec + 16 + a.man.bit_length()
        if d > cap:
            # b is far below one ulp of a: fold it into a sticky nudge so
            # that rounding still moves in the right direction.
            ia = (a.sign * a.man << 16) + b.sign
            return MpReal.make(1, ia, a.exp - 16, prec)
        ic = (a.sign * a.man << d) + b.sign * b.man
        return MpReal.make(1, ic, b.exp, prec)

    def mul(self, other: Scalar, prec: int | None = None) -> "MpReal":
        b = self._coerce(other)
        if b is NotImplemented:
            raise TypeError(f"cannot multiply MpReal and {type(other).__name__}")
        prec = prec or max(self.prec, b.prec)
        if self.sign == 0 or b.sign == 0:
            return MpReal.zero(prec)
        return MpReal.make(self.sign * b.sign, self.man * b.man, self.exp + b.exp, prec)

    def div(self, other: Scalar, prec: int | None = None) -> "MpReal":
        b = self._coerce(other)
        if b is NotImplemented:
            raise TypeError(f"cannot divide MpReal by {type(other).__name__}")
        prec = prec or max(self.prec, b.prec)
        if b.sign == 0:
            raise ZeroDivisionError("division by zero MpReal")
        if self.sign == 0:
            return MpReal.zero(prec)
        shift = b.man.bit_length() + prec + 8
        quo, rem = divmod(self.man << shift, b.man)
        if rem:
            quo |= 1
        return MpReal.make(self.sign * b.sign, quo, self.exp - b.exp - shift, prec)

    def __add__(self, other: Scalar) -> "MpReal":
        return self.add(other)

    def __sub__(self, other: Scalar) -> "MpReal":
        b = self._coerce(other)
        return self.add(-b)

    def sqrt(self, prec: int | None = None) -> "MpReal":
        prec = prec or self.prec
        if self.sign < 0:
            raise DomainError("sqrt of negative value")
        if self.sign == 0:
            return MpReal.zero(prec)
        # shift mantissa so the exponent is even and the shifted mantissa
        # has at least 2*(prec+8) bits
        shift = 2 * (prec + 8) - self.man.bit_length()
        if (shift + self.exp) & 1:
            shift += 1
        m = self.man << shift
        r = math.isqrt(m)
        if r * r != m:
            r |= 1
        return MpReal.make(1, r, (self.exp - shift) >> 1, prec)

    # ------------------------------------------------------------------
    # comparison (by exact value, precision-independent)

    def _cmp(self, other: Scalar) -> int:
        b = self._coerce(other)
        if b is NotImplemented:
            raise TypeError(f"cannot compare MpReal and {type(other).__name__}")
        if self.sign != b.sign:
            return -1 if self.sign < b.sign else 1
        if self.sign == 0:
            return 0
        ta, tb = self.bit_top(), b.bit_top()
        if ta != tb:
            mag = -1 if ta < tb else 1
            return mag * self.sign
        d = self.exp - b.exp
        if d >= 0:
            ia, ib = self.man << d, b.man
        else:
            ia, ib = self.man, b.man << -d
        if ia == ib:
            return 0
        return self.sign * (-1 if ia < ib else 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (MpReal, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self):
        return hash(self.to_fraction())

    def __repr__(self) -> str:
        if self.sign == 0:
            return f"MpReal(0, prec={self.prec})"
        approx = self.to_float()
        if approx != 0.0 and math.isfinite(approx):
            return f"MpReal({approx!r}, prec={self.prec})"
        return f"MpReal(2**{self.log2_abs():.1f}{'-' if self.sign < 0 else '+'}, prec={self.prec})"


# ----------------------------------------------------------------------
# constants


def _check_func_prec(prec: int) -> None:
    if prec > MAX_FUNC_PREC:
        raise PrecisionError(
            f"function precision {prec} exceeds the {MAX_FUNC_PREC}-bit ceiling"
        )
    if prec < 2:
        raise PrecisionError("function precision must be at least 2 bits")


@functools.cache
def _pi_fixed(wp: int) -> int:
    """pi * 2**wp, accurate to a few ulps, from the hexadecimal
    digit-extraction series sum_k 16^-k (4/(8k+1) - 2/(8k+4) - 1/(8k+5)
    - 1/(8k+6))."""
    awp = wp + 32
    acc = 0
    for k in range(awp // 4 + 1):
        e = awp - 4 * k
        base = 8 * k
        acc += (4 << e) // (base + 1)
        acc -= (2 << e) // (base + 4)
        acc -= (1 << e) // (base + 5)
        acc -= (1 << e) // (base + 6)
    return _round_shift(acc, 32)


@functools.cache
def _log2_fixed(wp: int) -> int:
    """log(2) * 2**wp from sum_{k>=1} 2^-k / k."""
    awp = wp + 32
    acc = 0
    for k in range(1, awp + 1):
        acc += (1 << (awp - k)) // k
    return _round_shift(acc, 32)


def pi_const(prec: int) -> MpReal:
    """pi at ``prec`` bits."""
    _check_func_prec(prec)
    wp = prec + 16
    return MpReal.from_fixed(_pi_fixed(wp), wp, prec)


def log2_const(prec: int) -> MpReal:
    """log(2) at ``prec`` bits."""
    _check_func_prec(prec)
    wp = prec + 16
    return MpReal.from_fixed(_log2_fixed(wp), wp, prec)


# ----------------------------------------------------------------------
# exponential / logarithm


def exp(x: MpReal, prec: int) -> MpReal:
    """e**x at ``prec`` bits."""
    _check_func_prec(prec)
    return _exp_impl(x, prec)


def _exp_impl(x: MpReal, prec: int) -> MpReal:
    if x.sign == 0:
        return MpReal.from_int(1, prec)
    mag = x.bit_top()
    if mag > 24:
        raise DomainError("exp argument too large for the supported range")
    wp = prec + 16 + max(0, mag)
    # reduce x = m*log2 + r with |r| <= log2/2
    l2 = _log2_fixed(wp)
    xf = x.to_fixed(wp)
    m = (2 * xf + l2) // (2 * l2)  # round(x / log2)
    rf = xf - m * l2
    # second reduction r -> r / 2**s, then exp by Taylor and square back
    s = max(4, math.isqrt(wp) // 2)
    swp = wp + 2 * s + 8
    rf <<= swp - wp
    rf >>= s
    one = 1 << swp
    term = one
    acc = one
    k = 1
    while term:
        term = _div0(_shr0(term * rf, swp), k)
        acc += term
        k += 1
    for _ in range(s):
        acc = acc * acc >> swp
    return MpReal.make(1, acc, int(m) - swp, prec)


def ln(x: MpReal, prec: int) -> MpReal:
    """Natural logarithm at ``prec`` bits (x > 0)."""
    _check_func_prec(prec)
    return _ln_impl(x, prec)


def _ln_impl(x: MpReal, prec: int) -> MpReal:
    if x.sign <= 0:
        raise DomainError("ln requires a positive argument")
    wp = prec + 16
    # write x = t * 2**e with t in [3/4, 3/2)
    e = x.bit_top()
    t = x.scalb(-e)  # in [1/2, 1)
    if t._cmp(Fraction(3, 4)) < 0:
        t = t.scalb(1)
        e -= 1
    wp += max(0, abs(e).bit_length())
    tf = t.to_fixed(wp)
    one = 1 << wp
    uf = ((tf - one) << wp) // (tf + one)  # (t-1)/(t+1), |u| <= 1/5
    u2 = uf * uf >> wp
    term = uf
    acc = 0
    k = 1
    while term:
        acc += _div0(term, k)
        term = _shr0(term * u2, wp)
        k += 2
    acc *= 2
    if e:
        acc += e * _log2_fixed(wp)
    return MpReal.from_fixed(acc, wp, prec)


def pow_int(x: MpReal, n: int, prec: int) -> MpReal:
    """x**n for integer n (exact repeated squaring with per-step rounding)."""
    if n == 0:
        return MpReal.from_int(1, prec)
    if x.sign == 0:
        if n < 0:
            raise ZeroDivisionError("0 to a negative power")
        return MpReal.zero(prec)
    wp = prec + 8 + 2 * max(1, abs(n).bit_length())
    base = x.round_to(wp)
    if n < 0:
        base = MpReal.from_int(1, wp).div(base, wp)
        n = -n
    acc = MpReal.from_int(1, wp)
    while n:
        if n & 1:
            acc = acc.mul(base, wp)
        n >>= 1
        if n:
            base = base.mul(base, wp)
    return acc.round_to(prec)


def pow_real(x: MpReal, y: MpReal, prec: int) -> MpReal:
    """x**y for positive x."""
    _check_func_prec(prec)
    if x.sign <= 0:
        raise DomainError("pow_real requires a positive base")
    wp = prec + 16
    lx = _ln_impl(x, wp + max(0, y.sign and y.bit_top()))
    return _exp_impl(lx.mul(y, wp + 8), prec)


# ----------------------------------------------------------------------
# trigonometry


def _sincos_taylor(rf: int, wp: int) -> tuple[int, int]:
    """(sin r, cos r) as fixed-point ints for |r| <= pi/4."""
    r2 = rf * rf >> wp
    # sin
    term = rf
    s = term
    k = 1
    while term:
        term = _div0(-_shr0(term * r2, wp), (k + 1) * (k + 2))
        s += term
        k += 2
    # cos
    term = 1 << wp
    c = term
    k = 0
    while term:
        term = _div0(-_shr0(term * r2, wp), (k + 1) * (k + 2))
        c += term
        k += 2
    return s, c


def _sincos(x: MpReal, prec: int) -> tuple[MpReal, MpReal]:
    if x.sign == 0:
        return MpReal.zero(prec), MpReal.from_int(1, prec)
    mag = max(0, x.bit_top())
    if mag > 24:
        raise DomainError("trig argument too large for the supported range")
    wp = prec + 24 + 2 * mag
    pif = _pi_fixed(wp)
    half_pi = pif >> 1
    xf = x.to_fixed(wp)
    q = (2 * xf + half_pi) // (2 * half_pi)  # round(x / (pi/2))
    rf = xf - q * half_pi
    s, c = _sincos_taylor(rf, wp)
    q &= 3
    if q == 1:
        s, c = c, -s
    elif q == 2:
        s, c = -s, -c
    elif q == 3:
        s, c = -c, s
    return MpReal.from_fixed(s, wp, prec), MpReal.from_fixed(c, wp, prec)


def sin(x: MpReal, prec: int) -> MpReal:
    _check_func_prec(prec)
    return _sincos(x, prec)[0]


def cos(x: MpReal, prec: int) -> MpReal:
    _check_func_prec(prec)
    return _sincos(x, prec)[1]


def tan(x: MpReal, prec: int) -> MpReal:
    _check_func_prec(prec)
    s, c = _sincos(x, prec + 8)
    if c.sign == 0 or c.abs_lt_2pow(-(prec + 4)):
        raise PoleError("tan evaluated too close to an odd multiple of pi/2")
    return s.div(c, prec)


def atan(x: MpReal, prec: int) -> MpReal:
    """Arc tangent at ``prec`` bits."""
    _check_func_prec(prec)
    return _atan_impl(x, prec)


def _atan_impl(x: MpReal, prec: int) -> MpReal:
    if x.sign == 0:
        return MpReal.zero(prec)
    wp = prec + 24
    if x.sign < 0:
        return -_atan_impl(-x, prec)
    if x._cmp(1) > 0:
        # atan(x) = pi/2 - atan(1/x)
        inv = MpReal.from_int(1, wp).div(x, wp)
        half_pi = MpReal.from_fixed(_pi_fixed(wp + 8), wp + 8, wp).scalb(-1)
        return half_pi.add(-_atan_impl(inv, wp), prec)
    # halve the argument until it is small: atan(x) = 2 atan(x/(1+sqrt(1+x^2)))
    halvings = 0
    t = x.round_to(wp)
    while not t.abs_lt_2pow(-4):
        denom = MpReal.from_int(1, wp).add(
            MpReal.from_int(1, wp).add(t.mul(t, wp), wp).sqrt(wp), wp
        )
        t = t.div(denom, wp)
        halvings += 1
    tf = t.to_fixed(wp)
    t2 = tf * tf >> wp
    term = tf
    acc = 0
    k = 1
    while term:
        acc += _div0(term, k) if k & 2 == 0 else -_div0(term, k)
        term = _shr0(term * t2, wp)
        k += 2
    return MpReal.from_fixed(acc << halvings, wp, prec)

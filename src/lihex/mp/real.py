"""Arbitrary-precision binary floating point on top of Python integers.

An :class:`MpReal` stores ``sign * man * 2**exp`` with an explicit working
precision.  Nonzero mantissas are kept normalized so that their bit length
sits in the window ``[prec, prec + 8)``; every arithmetic operation rounds
to nearest with ties to even, which keeps the relative error of a single
operation below ``2**(4 - prec)``.

The transcendental kernel at the bottom of this file (exp, ln, atan and
``sincospi``) works on fixed-point integers internally and uses the two
series-built constants ``pi_const`` and ``log2_const`` for argument
reduction.  ``sincospi`` takes sin and cos at pi times a rational, which
it reduces exactly, so only the remainder within a quarter turn is
rounded.  The kernel has no precision ceiling of its own: every
precision in ``MpReal``'s 2..2^23-bit range is accepted, and the entry
point that receives a request bounds what it asks for.  Beside those
constants, ``_alt_fixed`` sums eta(n) and Dirichlet beta(n) as
alternating series under Borwein's acceleration with a counted error
bound, and ``_zeta_fixed`` reads zeta(n) from eta.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from fractions import Fraction
from typing import Union

from ..errors import DomainError, PrecisionError

__all__ = [
    "MpReal",
    "pi_const",
    "log2_const",
    "exp",
    "ln",
    "sincospi",
    "pow_int",
]

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
        raise TypeError(f"MpReal does not combine with {type(other).__name__}")

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
        """Exact test |x| < 2**k: 2**(bit_top-1) <= |x| < 2**bit_top."""
        return self.sign == 0 or self.bit_top() <= k

    def to_fraction(self) -> Fraction:
        if self.sign == 0:
            return Fraction(0)
        if self.exp >= 0:
            return Fraction(self.sign * (self.man << self.exp))
        return Fraction(self.sign * self.man, 1 << -self.exp)

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
        # Decimal prints an int of any length; str(int) stops at the
        # interpreter's digit limit (4300 digits by default)
        s = str(Decimal(abs(n))).rjust(digits + 1, "0")
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
        prec = prec or max(self.prec, b.prec)
        a = self
        if a.sign == 0:
            return b.round_to(prec)
        if b.sign == 0:
            return a.round_to(prec)
        if a.exp < b.exp:
            a, b = b, a
        ic = (a.sign * a.man << (a.exp - b.exp)) + b.sign * b.man
        return MpReal.make(1, ic, b.exp, prec)

    def mul(self, other: Scalar, prec: int | None = None) -> "MpReal":
        b = self._coerce(other)
        prec = prec or max(self.prec, b.prec)
        if self.sign == 0 or b.sign == 0:
            return MpReal.zero(prec)
        return MpReal.make(self.sign * b.sign, self.man * b.man, self.exp + b.exp, prec)

    def div(self, other: Scalar, prec: int | None = None) -> "MpReal":
        b = self._coerce(other)
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

    def __repr__(self) -> str:
        if self.sign == 0:
            return f"MpReal(0, prec={self.prec})"
        top = self.bit_top()
        if abs(top) < 1000:        # within the range of a nonzero float
            return f"MpReal({float(self.to_fraction())!r}, prec={self.prec})"
        sign = "-" if self.sign < 0 else "+"
        return f"MpReal({sign}, |x|<2**{top}, prec={self.prec})"


# ----------------------------------------------------------------------
# constants


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


@functools.cache
def _alt_fixed(n: int, step: int, w: int) -> tuple[int, int]:
    """sum_{k>=0} (-1)^k (step k + 1)^-n * 2**w for n >= 1, and a bound
    in ulps on its error: eta(n) for step 1, Dirichlet beta(n) for step 2.

    Borwein's acceleration (P. Borwein 2000; Cohen, Rodriguez Villegas &
    Zagier 2000): with p_j the integer coefficients of T_N(1 + 2y), d =
    T_N(3) their sum and the weights c_k = sum_{j>k} p_j (d - d_k in
    Borwein's notation), the sum is (1/d) sum_{k<N} (-1)^k c_k a_k within
    S/d < 2^w/d ulps, because a_k = (step k + 1)^-n are the moments of a
    positive measure on [0, 1] and S < 1.  N is the least with
    (3 + sqrt 8)^N >= 2^w, so d >= 2^(w-1).  Each c_k a_k is floored once
    at g = bitlen(N) + 2 fractional bits, N floors worth under
    N 2^(w-g)/d < 1/2 ulp together, and the division by d once.  The
    weights run from p_N = 2^(2N-1) down by p_k = p_(k+1) (k+1)(2k+1) /
    (2(N+k)(N-k)), a division that is exact because every p_k is an
    integer.
    """
    N = math.ceil(w / math.log2(3 + math.sqrt(8)))
    g = N.bit_length() + 2
    p = c = 1 << (2 * N - 1)
    acc = 0
    for k in range(N - 1, -1, -1):
        t = (c << g) // (step * k + 1) ** n
        acc += -t if k & 1 else t
        p = p * (k + 1) * (2 * k + 1) // (2 * (N + k) * (N - k))
        c += p
    d = c << g
    return (acc << w) // d, ((N + (1 << g)) << w) // d + 2


def _zeta_fixed(n: int, w: int) -> tuple[int, int]:
    """zeta(n) * 2**w for n >= 2 and a bound in ulps: eta(n) from
    `_alt_fixed` times the exact 2^(n-1) / (2^(n-1) - 1), one floor more."""
    v, e = _alt_fixed(n, 1, w)
    q = (1 << (n - 1)) - 1
    return (v << (n - 1)) // q, -(-(e << (n - 1)) // q) + 1


def pi_const(prec: int) -> MpReal:
    """pi at ``prec`` bits."""
    wp = prec + 16
    return MpReal.from_fixed(_pi_fixed(wp), wp, prec)


def log2_const(prec: int) -> MpReal:
    """log(2) at ``prec`` bits."""
    wp = prec + 16
    return MpReal.from_fixed(_log2_fixed(wp), wp, prec)


# ----------------------------------------------------------------------
# exponential / logarithm


def exp(x: MpReal, prec: int) -> MpReal:
    """e**x at ``prec`` bits."""
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
    """x**n for an integer n >= 0 (repeated squaring with per-step
    rounding); DomainError for n < 0."""
    if n < 0:
        raise DomainError(f"pow_int takes n >= 0, not {n}")
    wp = prec + 8 + 2 * max(1, n.bit_length())
    base = x.round_to(wp)
    acc = MpReal.from_int(1, wp)
    while n:
        if n & 1:
            acc = acc.mul(base, wp)
        n >>= 1
        if n:
            base = base.mul(base, wp)
    return acc.round_to(prec)


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


def sincospi(q: Fraction, prec: int) -> tuple[MpReal, MpReal]:
    """(sin pi q, cos pi q) at ``prec`` bits for rational q.

    q is split exactly as m/2 + r with |r| <= 1/4, so pi r is the one
    rounded argument of the Taylor series and m mod 4 rotates the pair:
    integer and half-integer q give exact zeros and units, q + 2 gives
    the bits of q, and |q| has no ceiling."""
    m = round(2 * q)
    r = q - Fraction(m, 2)
    wp = prec + 24
    s, c = _sincos_taylor(_pi_fixed(wp) * r.numerator // r.denominator, wp)
    for _ in range(m & 3):  # a quarter turn each
        s, c = c, -s
    return MpReal.from_fixed(s, wp, prec), MpReal.from_fixed(c, wp, prec)


def _atan_impl(x: MpReal, prec: int) -> MpReal:
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

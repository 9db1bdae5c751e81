"""Arbitrary-precision binary floating point on top of Python integers,
and the fixed-point kernels of the package.

An :class:`MpReal` stores ``sign * man * 2**exp`` with an explicit working
precision.  Nonzero mantissas are kept normalized so that their bit length
sits in the window ``[prec, prec + 8)``; ``mul`` rounds to nearest with
ties to even.  It is the value type of the public API -- ``eval_formula``,
the relation search and the command line -- and carries no other
arithmetic: the checkers compute on fixed-point ints.

The kernels at the bottom of this file take and return fixed-point
integers, a value v at wp bits standing for v / 2**wp: ``_exp_fixed``,
which keeps the power of two of its result apart, ``_ln_fixed`` of an
exact positive rational, ``_atan_fixed`` and ``sincospi``, which takes
sin and cos at pi times a rational, reduced exactly, so only the
remainder within a quarter turn is rounded.  They use the two
series-built constants ``_pi_fixed`` and ``_log2_fixed`` and have no
precision ceiling of their own: the entry point that receives a request
bounds what it asks for.  Beside them, ``_alt_fixed`` sums eta(n) and
Dirichlet beta(n) as alternating series under Borwein's acceleration
with a counted error bound, and ``_zeta_fixed`` reads zeta(n) from eta.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from fractions import Fraction

from ..errors import DomainError, PrecisionError

__all__ = ["MpReal", "sincospi", "pow_int"]

_MAX_CORE_PREC = 1 << 23

# Extra mantissa bits carried beyond the nominal precision.
_SLACK = 4


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
            return MpReal.zero(prec)
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

    def mul(self, other: "MpReal", prec: int) -> "MpReal":
        if not isinstance(other, MpReal):
            raise TypeError(f"MpReal does not combine with {type(other).__name__}")
        if self.sign == 0 or other.sign == 0:
            return MpReal.zero(prec)
        return MpReal.make(self.sign * other.sign, self.man * other.man,
                           self.exp + other.exp, prec)

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


# ----------------------------------------------------------------------
# exponential / logarithm


def _exp_fixed(x: int, wp: int) -> tuple[int, int]:
    """e**(x / 2**wp) as (v, m), the value v 2**(m - wp) with v within a
    factor sqrt 2 of 2**wp and within a few ulps of it.  The power of two
    stays apart, so a tiny or huge result keeps wp significant bits."""
    mag = (abs(x) >> wp).bit_length()
    if mag > 24:
        raise DomainError("exp argument too large for the supported range")
    w = wp + 16 + mag
    # reduce x = m log 2 + r with |r| <= log(2)/2
    l2 = _log2_fixed(w)
    xf = x << (w - wp)
    m = (2 * xf + l2) // (2 * l2)  # round(x / log 2)
    rf = xf - m * l2
    # second reduction r -> r / 2**s, then exp by Taylor and square back
    s = max(4, math.isqrt(w) // 2)
    swp = w + 2 * s + 8
    rf = rf << (swp - w) >> s
    term = acc = 1 << swp
    k = 1
    while term:
        term = _div0(_shr0(term * rf, swp), k)
        acc += term
        k += 1
    for _ in range(s):
        acc = acc * acc >> swp
    return acc >> (swp - wp), m


def _ln_fixed(q: Fraction, wp: int) -> int:
    """ln q at wp fixed-point bits for an exact rational q > 0, within a
    few ulps: q = t 2**e with t in [3/4, 3/2) exactly, and ln t from the
    series in u = (t - 1)/(t + 1), |u| <= 1/5, floored once."""
    if q <= 0:
        raise DomainError("ln requires a positive argument")
    n, d = q.numerator, q.denominator
    e = n.bit_length() - d.bit_length()
    n, d = n << max(0, -e), d << max(0, e)  # t = n / d in (1/2, 2)
    if 4 * n < 3 * d:
        n, e = 2 * n, e - 1
    elif 2 * n >= 3 * d:
        d, e = 2 * d, e + 1
    w = wp + 16 + abs(e).bit_length()
    uf = ((n - d) << w) // (n + d)
    u2 = uf * uf >> w
    term = uf
    acc = 0
    k = 1
    while term:
        acc += _div0(term, k)
        term = _shr0(term * u2, w)
        k += 2
    return (2 * acc + e * _log2_fixed(w)) >> (w - wp)


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


def sincospi(q: Fraction, wp: int) -> tuple[int, int]:
    """(sin pi q, cos pi q) at wp fixed-point bits for rational q, each
    within an ulp.

    q is split exactly as m/2 + r with |r| <= 1/4, so pi r is the one
    rounded argument of the Taylor series and m mod 4 rotates the pair:
    integer and half-integer q give exact zeros and units, q + 2 gives
    the bits of q, and |q| has no ceiling."""
    m = round(2 * q)
    r = q - Fraction(m, 2)
    w = wp + 24
    s, c = _sincos_taylor(_pi_fixed(w) * r.numerator // r.denominator, w)
    for _ in range(m & 3):  # a quarter turn each
        s, c = c, -s
    return s >> 24, c >> 24


def _atan_fixed(x: int, wp: int) -> int:
    """atan(x / 2**wp) at wp fixed-point bits, within a few ulps."""
    if x < 0:
        return -_atan_fixed(-x, wp)
    w = wp + 24
    one = 1 << w
    t = x << 24
    flip = t > one  # atan(x) = pi/2 - atan(1/x)
    if flip:
        t = (one << w) // t
    # halve the argument until it is small: atan(x) = 2 atan(x/(1+sqrt(1+x^2)))
    halvings = 0
    while t >> (w - 4):
        t = (t << w) // (one + math.isqrt((one << w) + t * t))
        halvings += 1
    t2 = t * t >> w
    term = t
    acc = 0
    k = 1
    while term:
        acc += _div0(term, k) if k & 2 == 0 else -_div0(term, k)
        term = _shr0(term * t2, w)
        k += 2
    acc <<= halvings
    if flip:
        acc = (_pi_fixed(w) >> 1) - acc
    return acc >> 24

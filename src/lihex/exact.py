"""Exact arithmetic in Q(sqrt2, i) for the special polylogarithm arguments.

Every argument that feeds the series machinery lives in the ring of
complex numbers whose real and imaginary parts have the form
a + b*sqrt(2) with rational a, b.  Working in this ring keeps the
classification of an argument exact: `series.polylog_pattern` reads its
eighth power and the rational parts of its powers, and `ladders` rounds
it to a multiprecision value only for Li_1(z) = -log(1 - z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import UnsupportedArgument
from .mp.cplx import MpComplex
from .mp.real import MpReal

__all__ = ["QuadExt", "ExactComplex", "ARGUMENTS", "SQRT2_HALF"]

_Q = Fraction
QLike = Union[Fraction, int]


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(2) of the real quadratic field Q(sqrt2)."""

    a: Fraction = _Q(0)
    b: Fraction = _Q(0)

    def __add__(self, o: "QuadExt | QLike") -> "QuadExt":
        o = _as_quad(o)
        return QuadExt(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "QuadExt | QLike") -> "QuadExt":
        o = _as_quad(o)
        return QuadExt(self.a - o.a, self.b - o.b)

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b)

    def __mul__(self, o: "QuadExt | QLike") -> "QuadExt":
        o = _as_quad(o)
        return QuadExt(self.a * o.a + 2 * self.b * o.b,
                       self.a * o.b + self.b * o.a)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def rational(self) -> Fraction:
        if self.b != 0:
            raise UnsupportedArgument(f"{self} is irrational over Q")
        return self.a

    def to_mp(self, prec: int) -> MpReal:
        v = MpReal.from_fraction(self.a, prec)
        if self.b != 0:
            s2 = MpReal.from_int(2, prec + 8).sqrt(prec + 8)
            v = v.add(s2.mul(self.b, prec + 8), prec)
        return v

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a} + {self.b}*sqrt2)"


def _as_quad(v: "QuadExt | QLike") -> QuadExt:
    if isinstance(v, QuadExt):
        return v
    return QuadExt(_Q(v))


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with QuadExt components."""

    re: QuadExt = QuadExt()
    im: QuadExt = QuadExt()

    @classmethod
    def make(cls, re: QLike | QuadExt = 0, im: QLike | QuadExt = 0) -> "ExactComplex":
        return cls(_as_quad(re), _as_quad(im))

    def __mul__(self, o: "ExactComplex | QuadExt | QLike") -> "ExactComplex":
        if not isinstance(o, ExactComplex):
            q = _as_quad(o)
            return ExactComplex(self.re * q, self.im * q)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    @property
    def is_real(self) -> bool:
        return self.im.is_zero

    def pow(self, k: int) -> "ExactComplex":
        if k < 0:
            raise ValueError("negative powers not supported")
        acc = ExactComplex.make(1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def to_mp(self, prec: int) -> MpComplex:
        return MpComplex(self.re.to_mp(prec), self.im.to_mp(prec))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"


# sqrt(2)/2 = 1/sqrt(2)
SQRT2_HALF = QuadExt(_Q(0), _Q(1, 2))

# The closed family of arguments whose powers expand through a period-8
# integer pattern over a power-of-two modulus.  Conjugate pairs are
# both present because the source identities use both half planes.
ARGUMENTS: dict[str, ExactComplex] = {
    "1/2": ExactComplex.make(_Q(1, 2)),
    "-1/2": ExactComplex.make(_Q(-1, 2)),
    "-1/4": ExactComplex.make(_Q(-1, 4)),
    "-1/8": ExactComplex.make(_Q(-1, 8)),
    "(1+i)/2": ExactComplex.make(_Q(1, 2), _Q(1, 2)),
    "(1-i)/2": ExactComplex.make(_Q(1, 2), _Q(-1, 2)),
    "(1+i)/4": ExactComplex.make(_Q(1, 4), _Q(1, 4)),
    "(1-i)/4": ExactComplex.make(_Q(1, 4), _Q(-1, 4)),
    "(1+i)/8": ExactComplex.make(_Q(1, 8), _Q(1, 8)),
    "(1-i)/8": ExactComplex.make(_Q(1, 8), _Q(-1, 8)),
    "i/2": ExactComplex.make(0, _Q(1, 2)),
    "-i/2": ExactComplex.make(0, _Q(-1, 2)),
    "i/sqrt2": ExactComplex(QuadExt(), SQRT2_HALF),
    "-i/sqrt2": ExactComplex(QuadExt(), -SQRT2_HALF),
    "i/sqrt8": ExactComplex(QuadExt(), QuadExt(_Q(0), _Q(1, 4))),
    "-i/sqrt8": ExactComplex(QuadExt(), QuadExt(_Q(0), _Q(-1, 4))),
}

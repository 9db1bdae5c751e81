"""Complex arithmetic over :class:`~lihex.mp.real.MpReal` pairs."""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ..errors import DomainError
from .real import MpReal, _atan_impl, _pi_fixed, ln

__all__ = ["MpComplex", "cln"]

CScalar = Union["MpComplex", int, Fraction]


class MpComplex:
    """Immutable complex number with MpReal components."""

    __slots__ = ("re", "im")

    def __init__(self, re: MpReal, im: MpReal):
        self.re = re
        self.im = im

    # ------------------------------------------------------------------

    @classmethod
    def from_real(cls, x: MpReal) -> "MpComplex":
        return cls(x, MpReal.zero(x.prec))

    @classmethod
    def from_int(cls, n: int, prec: int) -> "MpComplex":
        return cls(MpReal.from_int(n, prec), MpReal.zero(prec))

    @classmethod
    def from_fractions(cls, re: Fraction, im: Fraction, prec: int) -> "MpComplex":
        return cls(MpReal.from_fraction(re, prec), MpReal.from_fraction(im, prec))

    def _coerce(self, other: CScalar) -> "MpComplex":
        if isinstance(other, MpComplex):
            return other
        if isinstance(other, int):
            return MpComplex.from_int(other, self.prec)
        if isinstance(other, Fraction):
            return MpComplex.from_fractions(other, Fraction(0), self.prec)
        raise TypeError(
            f"MpComplex does not combine with {type(other).__name__}")

    @property
    def prec(self) -> int:
        return max(self.re.prec, self.im.prec)

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def conj(self) -> "MpComplex":
        return MpComplex(self.re, -self.im)

    def round_to(self, prec: int) -> "MpComplex":
        return MpComplex(self.re.round_to(prec), self.im.round_to(prec))

    def abs2(self, prec: int | None = None) -> MpReal:
        """|z|^2."""
        prec = prec or self.prec
        return self.re.mul(self.re, prec).add(self.im.mul(self.im, prec), prec)

    def abs_val(self, prec: int | None = None) -> MpReal:
        prec = prec or self.prec
        return self.abs2(prec + 8).sqrt(prec)

    # ------------------------------------------------------------------

    def __neg__(self) -> "MpComplex":
        return MpComplex(-self.re, -self.im)

    def add(self, other: CScalar, prec: int | None = None) -> "MpComplex":
        b = self._coerce(other)
        prec = prec or max(self.prec, b.prec)
        return MpComplex(self.re.add(b.re, prec), self.im.add(b.im, prec))

    def mul(self, other: CScalar, prec: int | None = None) -> "MpComplex":
        b = self._coerce(other)
        prec = prec or max(self.prec, b.prec)
        re = self.re.mul(b.re, prec).add(-self.im.mul(b.im, prec), prec)
        im = self.re.mul(b.im, prec).add(self.im.mul(b.re, prec), prec)
        return MpComplex(re, im)

    def div(self, other: CScalar, prec: int | None = None) -> "MpComplex":
        b = self._coerce(other)
        prec = prec or max(self.prec, b.prec)
        wp = prec + 8
        if b.im.is_zero:
            return MpComplex(self.re.div(b.re, prec), self.im.div(b.re, prec))
        d = b.abs2(wp)
        num = self.mul(b.conj(), wp)
        return MpComplex(num.re.div(d, prec), num.im.div(d, prec))

    def __add__(self, other: CScalar) -> "MpComplex":
        return self.add(other)

    def __sub__(self, other: CScalar) -> "MpComplex":
        return self.add(-self._coerce(other))

    def __mul__(self, other: CScalar) -> "MpComplex":
        return self.mul(other)

    def __truediv__(self, other: CScalar) -> "MpComplex":
        return self.div(other)

    def __repr__(self) -> str:
        return f"MpComplex({self.re.to_float()!r}, {self.im.to_float()!r})"


# ----------------------------------------------------------------------


def cln(z: MpComplex, prec: int) -> MpComplex:
    """Principal branch of log(z); imaginary part in (-pi, pi]."""
    if z.is_zero:
        raise DomainError("log of zero")
    wp = prec + 8
    if z.im.is_zero and z.re.sign > 0:
        return MpComplex(ln(z.re, prec), MpReal.zero(prec))
    mag = ln(z.abs2(2 * wp), wp).scalb(-1)
    # atan2 inline
    x, y = z.re, z.im
    if x.is_zero:
        ang = MpReal.from_fixed(_pi_fixed(wp), wp, wp).scalb(-1)
        if y.sign < 0:
            ang = -ang
    elif y.is_zero:
        ang = MpReal.from_fixed(_pi_fixed(wp), wp, wp)  # x < 0 here
    else:
        ang = _atan_impl(y.div(x, wp + 8), wp)
        if x.sign < 0:
            pi_wp = MpReal.from_fixed(_pi_fixed(wp), wp, wp)
            ang = ang.add(pi_wp) if y.sign > 0 else ang.add(-pi_wp)
    return MpComplex(mag.round_to(prec), ang.round_to(prec))

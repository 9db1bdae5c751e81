"""Central binary series S_{n,p}, the formula catalog, and exact solving.

The S-sum

    S_{n,p}(a_1..a_8) = sum_{k>=1} a_k / (2^{floor(p(k+1)/2)} * k^n)

with an 8-periodic integer pattern a_k is the common shape behind every
base-16 digit-extraction formula in this package.  This module knows how
to evaluate such sums, how to expand Re/Im Li_n(z) into them for the
special arguments with z^8 = 16^{-p}, and how to eliminate unwanted
constants from exact linear identities so that new formulas fall out.

It is also where the ladders and their identities are defined, once,
as exact linear forms over S-atoms and monomials: `ladder(name, n)`
builds any ladder from the tables `_BASE`, `_COMBINED` and `_R4_RHS`,
and `IDENTITIES` holds every linear identity of the suite.  Two
consumers read them: `ladders` evaluates the identities numerically
(`check_relation`), and `_derived` solves eight catalog formulas from
named rows of the same table.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Sequence

from .errors import (RankDeficient, UndefinedOrder, UnknownName,
                     UnsupportedArgument)
from .exact import ARGUMENTS, ExactComplex
from .mp.real import MpReal, _div0, log2_const, pi_const, pow_int
from .mp import special as _sp

__all__ = [
    "SeriesSpec", "Formula", "Monomial", "Identity", "IDENTITIES",
    "eval_series", "eval_formula", "polylog_pattern", "solve_formulas",
    "catalog", "derived_catalog", "dump_catalog", "load_catalog",
    "ladder",
]

_Q = Fraction


# ----------------------------------------------------------------------
# series atoms

@dataclass(frozen=True)
class SeriesSpec:
    """One S_{n,p} atom with its 8-periodic pattern."""

    n: int
    p: int
    pattern: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("order n must be >= 1")
        if not 1 <= self.p <= 6:
            raise ValueError("power p must be in 1..6")
        pat = tuple(int(c) for c in self.pattern)
        if len(pat) != 8:
            raise ValueError("pattern must have 8 entries")
        object.__setattr__(self, "pattern", pat)

    def exponent(self, k: int) -> int:
        return (self.p * (k + 1)) // 2

    def __str__(self) -> str:
        body = ",".join(str(c) for c in self.pattern)
        return f"S_{{{self.n},{self.p}}}({body})"


def _canon_term(coef: Fraction, n: int, p: int,
                pattern: Sequence[int]) -> tuple[Fraction, SeriesSpec] | None:
    """Fold the pattern's content into the coefficient.

    The canonical pattern has coprime entries and a positive first
    nonzero entry; a zero pattern collapses to None.
    """
    pat = [int(c) for c in pattern]
    g = 0
    for c in pat:
        g = gcd(g, abs(c))
    if g == 0 or coef == 0:
        return None
    sign = 1
    for c in pat:
        if c:
            sign = -1 if c < 0 else 1
            break
    pat = [sign * c // g for c in pat]
    return coef * g * sign, SeriesSpec(n, p, tuple(pat))


@functools.cache
def eval_series(spec: SeriesSpec, prec: int) -> MpReal:
    """Sum the S-series to absolute error below 2^-prec."""
    if prec < 32:
        raise ValueError("prec must be >= 32")
    wp = prec + 32
    bits_a = max(abs(c) for c in spec.pattern).bit_length()
    if bits_a == 0:
        return MpReal.zero(prec)
    acc = 0
    k = 1
    while True:
        e = spec.exponent(k)
        if e > wp + bits_a + 8:
            break
        a = spec.pattern[(k - 1) & 7]
        if a:
            kn = k ** spec.n
            if e <= wp:
                acc += _div0(a << (wp - e), kn)
            else:
                acc += _div0(a, kn << (e - wp))
        k += 1
    return MpReal.from_fixed(acc, wp, prec)


# ----------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class Formula:
    """A constant expressed as scale * sum of coef * S_{n,p}(pattern)."""

    name: str
    scale: Fraction
    terms: tuple[tuple[Fraction, SeriesSpec], ...]
    description: str = ""
    label: str = ""

    def value(self, prec: int) -> MpReal:
        wp = prec + 16
        acc = MpReal.zero(wp)
        for coef, spec in self.terms:
            t = eval_series(spec, wp).mul(MpReal.from_fraction(coef, wp), wp)
            acc = acc.add(t, wp)
        return acc.mul(MpReal.from_fraction(self.scale, wp), prec)


def _f(name: str, scale: Fraction | int, terms: Iterable, description: str,
       label: str) -> Formula:
    tt = tuple((_Q(c), SeriesSpec(n, p, tuple(pat))) for c, n, p, pat in terms)
    return Formula(name, _Q(scale), tt, description, label)


FORMULAS: dict[str, Formula] = {f.name: f for f in [
    _f("pi", 1,
       [(8, 1, 1, (1, 0, 0, -1, -1, -1, 0, 0))],
       "The classic base-16 series for pi.", "pi"),
    _f("pi_bellard", 1,
       [(16, 1, 1, (0, 1, 0, 0, 0, -1, 0, 0)),
        (-16, 1, 5, (1, 1, 1, 0, -1, -1, -1, 0))],
       "Bellard's faster two-series form of pi.", "FB"),
    _f("pi2", 1,
       [(32, 2, 1, (1, -1, -1, -2, -1, -1, 1, 0))],
       "pi^2 as a single p=1 sum.", "pi2"),
    _f("log2sq", 1,
       [(_Q(8, 3), 2, 1, (2, -5, -2, -7, -2, -5, 2, -3))],
       "log^2(2) as a single p=1 sum.", "l2"),
    _f("catalan", 1,
       [(3, 2, 1, (1, -1, 1, 0, -1, 1, -1, 0)),
        (-2, 2, 3, (1, 1, 1, 0, -1, -1, -1, 0))],
       "Catalan's constant from the order-2 ladder.", "G"),
    _f("log2cu", 1,
       [(192, 3, 1, (0, 1, 0, 4, 0, 1, 0, 16)),
        (-32, 3, 3, (4, -3, -4, -1, -4, -3, 4, 7))],
       "log^3(2) from the order-3 ladder.", "l3"),
    _f("zeta3", _Q(8, 7),
       [(6, 3, 1, (1, -7, -1, 10, -1, -7, 1, 0)),
        (4, 3, 3, (1, 1, -1, -2, -1, 1, 1, 0))],
       "zeta(3) via lambda(3) = (7/8) zeta(3).", "z3"),
    _f("beta3", 1,
       [(5, 3, 1, (1, -6, 1, 0, -1, 6, -1, 0)),
        (_Q(5, 3), 3, 3, (1, 1, 1, 0, -1, -1, -1, 0)),
        (2, 3, 5, (1, 1, 1, 0, -1, -1, -1, 0))],
       "beta(3) = pi^3/32 from the order-3 ladder.", "b3"),
    _f("log2_4", _Q(256, 615),
       [(3, 4, 1, (73, -2617, -73, -5066, -73, -2617, 73, -27564)),
        (1, 4, 3, (1258, -761, -1258, -497, -1258, -761, 1258, 2019))],
       "log^4(2) from the order-4 ladder.", "l4"),
    _f("pi4", _Q(9216, 41),
       [(3, 4, 1, (1, -19, -1, -2, -1, -19, 1, -108)),
        (2, 4, 3, (3, -1, -3, -2, -3, -1, 3, 4))],
       "pi^4 from the order-4 ladder.", "z4"),
    _f("log2_5", _Q(256, 2021),
       [(1, 5, 1, (2783, -261592, -2783, -1500376,
                   -2783, -261592, 2783, 26717696)),
        (1, 5, 3, (29537, 79446, -29537, -108983,
                   -29537, 79446, 29537, -49909)),
        (-26398, 5, 5, (1, 0, -1, -1, -1, 0, 1, 1))],
       "log^5(2) from the order-5 ladder.", "l5"),
    _f("zeta5", _Q(2048, 62651),
       [(9, 5, 1, (31, -1614, -31, -6212, -31, -1614, 31, 74552)),
        (7, 5, 3, (173, 284, -173, -457, -173, 284, 173, -111)),
        (-738, 5, 5, (1, 0, -1, -1, -1, 0, 1, 1))],
       "zeta(5) from the order-5 ladder.", "z5"),
]}


# ----------------------------------------------------------------------
# argument expansion

def _arg_of(arg: "ExactComplex | str") -> ExactComplex:
    if isinstance(arg, str):
        try:
            return ARGUMENTS[arg]
        except KeyError:
            raise UnsupportedArgument(f"unknown argument name {arg!r}") from None
    return arg


_P_BY_DEN = {16: 1, 16 ** 2: 2, 16 ** 3: 3, 16 ** 4: 4, 16 ** 5: 5, 16 ** 6: 6}


@functools.cache
def polylog_pattern(arg: "ExactComplex | str", n: int,
                    part: str) -> tuple[tuple[Fraction, SeriesSpec], ...]:
    """S-basis expansion of Re/Im Li_n(arg).

    Works for any argument with z^8 = 16^{-p}, 1 <= p <= 6, whose chosen
    component expands with integer pattern entries; everything else
    raises UnsupportedArgument.  An identically zero component (the
    imaginary part of a real argument) returns the empty combination.
    """
    if part not in ("re", "im"):
        raise ValueError("part must be 're' or 'im'")
    z = _arg_of(arg)
    if z.is_zero:
        return ()
    if part == "im" and z.is_real:
        return ()
    z8 = z.pow(8)
    if not z8.im.is_zero or not z8.re.is_rational:
        raise UnsupportedArgument(f"{arg}: eighth power is not rational")
    q = z8.re.rational()
    if q.numerator != 1 or q.denominator not in _P_BY_DEN:
        raise UnsupportedArgument(f"{arg}: z^8 = {q} is not 16^-p with p in 1..6")
    p = _P_BY_DEN[q.denominator]
    pattern = []
    zk = ExactComplex.make(1)
    for k in range(1, 9):
        zk = zk * z
        comp = zk.re if part == "re" else zk.im
        scaled = comp * (1 << ((p * (k + 1)) // 2))
        if not scaled.is_rational:
            raise UnsupportedArgument(
                f"{arg}: {part} part has an irrational pattern")
        c = scaled.rational()
        if c.denominator != 1:
            raise UnsupportedArgument(
                f"{arg}: {part} part has a non-integer pattern")
        pattern.append(int(c))
    term = _canon_term(_Q(1), n, p, pattern)
    return () if term is None else (term,)


# ----------------------------------------------------------------------
# monomials and linear forms

@dataclass(frozen=True)
class Monomial:
    """Product pi^pi_exp * log2^log2_exp * zeta(zeta) * beta(beta).

    A zero order in the zeta/beta slots means that factor is absent;
    the empty monomial is the rational unit.
    """

    pi: int = 0
    log2: int = 0
    zeta: int = 0
    beta: int = 0

    def __str__(self) -> str:
        parts = []
        if self.pi:
            parts.append("pi" if self.pi == 1 else f"pi^{self.pi}")
        if self.log2:
            parts.append("log2" if self.log2 == 1 else f"log2^{self.log2}")
        if self.zeta:
            parts.append(f"zeta({self.zeta})")
        if self.beta:
            parts.append(f"beta({self.beta})")
        return "*".join(parts) if parts else "1"

    def value(self, prec: int) -> MpReal:
        wp = prec + 32
        v = MpReal.from_int(1, wp)
        if self.pi:
            v = v.mul(pow_int(pi_const(wp), self.pi, wp), wp)
        if self.log2:
            v = v.mul(pow_int(log2_const(wp), self.log2, wp), wp)
        if self.zeta:
            v = v.mul(_sp.zeta(self.zeta, wp), wp)
        if self.beta:
            v = v.mul(_sp.dirichlet_beta(self.beta, wp), wp)
        return v.round_to(prec)


# A linear form is a dict from S-atoms (SeriesSpec) and Monomials to
# rational coefficients; it stands for the sum of coefficient times value.

def _add(acc: dict, coef: Fraction, form: dict) -> None:
    for atom, c in form.items():
        acc[atom] = acc.get(atom, _Q(0)) + coef * c


def _li(arg: str, n: int, part: str) -> dict:
    """Part Li_n(arg) as a linear form."""
    return {spec: c for c, spec in polylog_pattern(arg, n, part)}


# ----------------------------------------------------------------------
# the ladder algebra
#
# The base ladders A..H at order n are sums of c * r^(n-1) * Part Li_n.
# Every other ladder is a rational combination of lower ones plus
# corrections q * pi^k * L_{n-k}, with L_j = (-log 2)^j / j! (absent for
# j < 0) and q already holding zeta(2m)/pi^(2m) or beta(3)/pi^3.  The
# bar forms absorb the log 2 powers, the tilde forms the order-4
# relations, and U..Z the zeta(6), zeta(8) and zeta(10) steps.

# (c, r, argument, part) per term
_BASE = {
    "A": ((1, 1, "1/2", "re"),),
    "B": ((1, 2, "(1+i)/2", "re"),),
    "C": ((1, _Q(2, 3), "i/sqrt8", "re"), (-2, 2, "-i/sqrt2", "re")),
    "D": ((1, _Q(2, 3), "(1+i)/4", "re"), (-1, 1, "-i/2", "re")),
    "E": ((1, _Q(2, 5), "(1-i)/8", "re"), (-2, 1, "-i/2", "re")),
    "F": ((1, 2, "(1+i)/2", "im"),),
    "G": ((1, _Q(2, 3), "(1+i)/4", "im"), (-1, 1, "-i/2", "im")),
    "H": ((1, _Q(2, 5), "(1-i)/8", "im"), (-2, 1, "-i/2", "im")),
}

# zeta(2m) / pi^(2m) and beta(3) / pi^3, beta(5) / pi^5
_Z2, _Z4, _Z6, _Z8, _Z10 = (_Q(1, 6), _Q(1, 90), _Q(1, 945), _Q(1, 9450),
                            _Q(1, 93555))
_B3, _B5 = _Q(1, 32), _Q(5, 1536)

# the order-4 relations Xbar - a Abar = z zeta(4), read at every use.
# Xtilde = Xbar - a Abar - z zeta(4) L_{n-4} is built from them, so the
# relation r4x states that Xtilde vanishes at order 4
_R4_RHS: dict[str, tuple[str, Fraction, Fraction]] = {
    "r4b": ("B", _Q(5, 2), _Q(343, 128)),
    "r4c": ("C", _Q(7, 9), _Q(5, 54)),
    "r4d": ("D", _Q(1, 3), _Q(-313, 3456)),
    "r4e": ("E", _Q(6, 25), _Q(-1547, 16000)),
}


def _bar(x: str, l_n: Fraction, z2: Fraction):
    """Xbar = X + l_n L_n + z2 zeta(2) L_{n-2}."""
    return ((1, x),), ((l_n, 0), (z2 * _Z2, 2))


def _ibar(x: str):
    """Xbar = X - pi L_{n-1} / 4 for the imaginary ladders."""
    return ((1, x),), ((_Q(-1, 4), 1),)


# name -> (((coef, ladder), ...), ((q, k), ...))
_COMBINED = {
    "Abar": _bar("A", _Q(1), _Q(-1, 2)),
    "Bbar": _bar("B", _Q(1, 2), _Q(-5, 8)),
    "Cbar": _bar("C", _Q(1, 2), _Q(-1, 3)),
    "Dbar": _bar("D", _Q(1, 2), _Q(-5, 24)),
    "Ebar": _bar("E", _Q(1, 2), _Q(-7, 40)),
    "Fbar": _ibar("F"),
    "Gbar": _ibar("G"),
    "Hbar": _ibar("H"),
    # Hbar - (4/5) Fbar + (23/25) beta(3) L_{n-3}
    #      - (648/625) {Gbar - (2/3) Fbar + beta(3) L_{n-3}}
    "Htilde": (((1, "Hbar"), (_Q(-4, 5), "Fbar"), (_Q(-648, 625), "Gbar"),
                (_Q(648, 625) * _Q(2, 3), "Fbar")),
               (((_Q(23, 25) - _Q(648, 625)) * _B3, 3),)),
    "U": (((_Q(13, 23), "Btilde"), (_Q(-243, 8), "Ctilde")),
          ((_Q(-11041, 2048) * _Z6, 6),)),
    "V": (((_Q(19, 23), "Btilde"), (_Q(81, 2), "Dtilde")),
          ((_Q(-87101, 12288) * _Z6, 6),)),
    "W": (((_Q(71, 23), "Btilde"), (_Q(625, 4), "Etilde")),
          ((_Q(-1193757, 40960) * _Z6, 6),)),
    "X": (((_Q(463), "V"), (_Q(-636), "U")),
          ((_Q(-1323636287, 1769472) * _Z8, 8),)),
    "Y": (((_Q(91, 25), "V"), (_Q(-265, 288), "W")),
          ((_Q(-602893337, 113246208) * _Z8, 8),)),
    "Z": (((_Q(2087, 4823), "Y"), (_Q(-37403, 12057500), "X")),
          ((_Q(-12227440999, 135895449600) * _Z10, 10),)),
}


def _combination(name: str):
    for x, a, z4 in _R4_RHS.values():
        if name == x + "tilde":
            return ((1, x + "bar"), (-a, "Abar")), ((-z4 * _Z4, 4),)
    try:
        return _COMBINED[name]
    except KeyError:
        raise UnknownName(name) from None


def ladder(name: str, n: int) -> dict:
    """Ladder `name` at order n as a linear form over S-atoms and monomials.

    Accepts the base names A..H, their bar forms (Abar..Hbar), the
    tilde forms Btilde..Etilde and Htilde, and the deep combinations
    U..Z.  Orders outside 1..11 are not part of the scheme.
    """
    base = _BASE.get(name, ())
    combo, corrections = ((), ()) if base else _combination(name)
    if not 1 <= n <= 11:
        raise UndefinedOrder(f"order {n} is outside 1..11")
    form: dict = {}
    for c, r, arg, part in base:
        _add(form, c * _Q(r) ** (n - 1), _li(arg, n, part))
    for c, sub in combo:
        _add(form, _Q(c), ladder(sub, n))
    for q, k in corrections:
        j = n - k
        if j >= 0:
            m = Monomial(pi=k, log2=j)
            form[m] = form.get(m, _Q(0)) + q * _Q(-1) ** j / factorial(j)
    return form


# ----------------------------------------------------------------------
# the identity table

@dataclass(frozen=True)
class Identity:
    """Linear identity of weight n: all of its sides have one value.

    A side is a sum of (coefficient, key) terms; a key is a ladder name
    (taken at order n), a Monomial, or an (argument, part) pair standing
    for Part Li_n(argument).  `ladders` checks every identity
    numerically; `_derived` solves catalog formulas from some of them.
    """

    name: str
    status: str                    # "proven" or "numeric"
    n: int
    sides: tuple
    min_bits: int = 256

    def forms(self) -> list[dict]:
        """The sides as linear forms, built from the tables at this call."""
        out = []
        for side in self.sides:
            form: dict = {}
            for c, key in side:
                if isinstance(key, Monomial):
                    part = {key: _Q(1)}
                elif isinstance(key, str):
                    part = ladder(key, self.n)
                else:
                    part = _li(key[0], self.n, key[1])
                _add(form, _Q(c), part)
            out.append(form)
        return out


# the 14-term integer relation determining zeta(11)
_F11_LHS = 46090055410032553920
_F11_LIS = (
    (105497707483968307200, "(1+i)/2"),
    (14102390469191270400, "(1+i)/4"),
    (-943412955347681280, "(1+i)/8"),
    (8628616191131674214400, "1/2"),
    (8666542920405771878400, "-1/2"),
    (8389140238437235200, "-1/4"),
    (-73384332676300800, "-1/8"),
)
_F11_MONS = (
    (-5097106123776, Monomial(log2=11)),
    (9394465639680, Monomial(pi=2, log2=9)),
    (-13065007342464, Monomial(pi=4, log2=7)),
    (20585306545056, Monomial(pi=6, log2=5)),
    (-42801564610332, Monomial(pi=8, log2=3)),
    (139087141363625, Monomial(pi=10, log2=1)),
)


def _bars_vanish(name: str, n: int, ladders: str) -> Identity:
    return Identity(name, "proven", n,
                    ((),) + tuple(((1, x + "bar"),) for x in ladders))


def _z(n: int, q: Fraction = _Q(1)) -> tuple[Fraction, Monomial]:
    """q * lambda(n) as a term; lambda(n) = (1 - 2^-n) zeta(n)."""
    return q * _Q((1 << n) - 1, 1 << n), Monomial(zeta=n)


IDENTITIES: dict[str, Identity] = {i.name: i for i in [
    _bars_vanish("r1", 1, "ABCDEFGH"),
    _bars_vanish("r2", 2, "ABCDE"),
    Identity("i2", "proven", 2, (
        ((_Q(1, 2), "Fbar"),), ((_Q(3, 4), "Gbar"),), ((_Q(5, 8), "Hbar"),),
        ((1, Monomial(beta=2)),))),
    Identity("r3", "proven", 3, (
        (_z(3),), ((1, "Abar"),), ((_Q(2, 5), "Bbar"),),
        ((_Q(9, 7), "Cbar"),), ((3, "Dbar"),), ((_Q(25, 6), "Ebar"),))),
    Identity("i3", "proven", 3, (
        ((_B3, Monomial(pi=3)),),
        ((_Q(2, 3), "Fbar"), (-1, "Gbar")),
        ((_Q(20, 23), "Fbar"), (_Q(-25, 23), "Hbar")))),
    *(Identity(key, "proven", 4, ((), ((1, x + "tilde"),)))
      for key, (x, _, _) in _R4_RHS.items()),
    Identity("i4g", "proven", 4, (
        ((1, "Gbar"), (_Q(-2, 3), "Fbar"), (-_B3, Monomial(pi=3, log2=1))),
        ((_Q(-80, 27), Monomial(beta=4)),))),
    Identity("i4h", "proven", 4, (
        ((1, "Hbar"), (_Q(-4, 5), "Fbar"),
         (_Q(-23, 25) * _B3, Monomial(pi=3, log2=1))),
        ((_Q(-384, 125), Monomial(beta=4)),))),
    Identity("r5c", "proven", 5, (((1, "Ctilde"),), (_z(5, _Q(13, 81)),))),
    Identity("r51", "proven", 5, (
        ((1, "Btilde"), (_Q(9, 2), "Dtilde")), (_z(5, _Q(47, 6)),))),
    Identity("r52", "proven", 5, (
        ((1, "Btilde"), (_Q(-729, 8), "Dtilde"), (_Q(625, 16), "Etilde")),
        (_z(5, _Q(18)),))),
    Identity("qef", "numeric", 5, (((1, "Btilde"),), (_z(5, _Q(69, 8)),))),
    Identity("n5h", "numeric", 5, (
        ((1, "Htilde"),), ((_Q(-1567, 3125) * _B5, Monomial(pi=5)),))),
    Identity("r5", "proven", 5, (
        (_z(5),), ((_Q(8, 69), "Btilde"),), ((_Q(81, 13), "Ctilde"),),
        ((_Q(-108, 19), "Dtilde"),), ((_Q(-1250, 213), "Etilde"),))),
    Identity("b6", "numeric", 6, (
        ((_Q(61, 3), Monomial(beta=6)),),
        ((_Q(-3125, 256), "Htilde"),
         (_Q(1567, 256) * _B5, Monomial(pi=5, log2=1))))),
    Identity("z7", "numeric", 7, (
        (_z(7, _Q(340, 23)),), ((_Q(384, 463), "U"),),
        ((_Q(32, 53), "V"),), ((_Q(125, 819), "W"),))),
    Identity("z9", "numeric", 9, (
        (_z(9, _Q(217, 864)),), ((_Q(1, 10435), "X"),),
        ((_Q(500, 37403), "Y"),))),
    Identity("z11", "numeric", 11, (
        (_z(11),), ((_Q(129600000, 41323873), "Z"),))),
    Identity("cat", "proven", 2, (
        ((1, Monomial(beta=2)),),
        ((_Q(3, 2), "F"), (_Q(-3, 2), "G")),
        ((3, ("(1+i)/2", "im")), (-1, ("(1+i)/4", "im")),
         (_Q(3, 2), ("-i/2", "im"))))),
    Identity("h22", "proven", 2, (
        ((1, ("1/2", "re")),),
        ((_Q(1, 12), Monomial(pi=2)), (_Q(-1, 2), Monomial(log2=2))))),
    Identity("h23", "proven", 2, (
        ((1, ("-i/sqrt8", "re")), (-6, ("i/sqrt2", "re"))),
        ((_Q(1, 12), Monomial(pi=2)), (_Q(-3, 8), Monomial(log2=2))))),
    Identity("f11", "numeric", 11, (
        ((_F11_LHS, Monomial(zeta=11)),),
        tuple((c, (arg, "re")) for c, arg in _F11_LIS) + _F11_MONS),
        min_bits=1024),
]}


# ----------------------------------------------------------------------
# exact elimination

def monomial_name(m: Monomial) -> str:
    """Catalog-style identifier for a constant monomial."""
    if m == Monomial(beta=2):
        return "catalan"
    pieces = []
    if m.pi:
        pieces.append("pi" if m.pi == 1 else f"pi{m.pi}")
    if m.log2:
        pieces.append({1: "log2", 2: "log2sq", 3: "log2cu"}.get(
            m.log2, f"log2_{m.log2}"))
    if m.zeta:
        pieces.append(f"zeta{m.zeta}")
    if m.beta:
        pieces.append(f"beta{m.beta}")
    return "_".join(pieces) if pieces else "one"


def _merge_p(coef: Fraction, spec: SeriesSpec) -> tuple[Fraction, SeriesSpec]:
    """Rewrite even-p atoms with 4-periodic patterns at half the power.

    S_{n,2p'}(a) with a_k = a_{k+4} equals S_{n,p'}(b) where the even
    slots b_{2k} carry a_k times a fixed power of two; odd slots vanish.
    """
    n, p = spec.n, spec.p
    pat = list(spec.pattern)
    while p % 2 == 0 and pat[:4] == pat[4:]:
        shift = n - 1 if p in (2, 4) else n - 2
        nxt = [0] * 8
        for k in range(1, 5):
            nxt[2 * k - 1] = pat[k - 1]
        coef = coef * _Q(2) ** shift
        pat = nxt
        p //= 2
    out = _canon_term(coef, n, p, pat)
    assert out is not None
    return out


def _tidy(svec: dict[SeriesSpec, Fraction]) -> tuple[tuple[Fraction, SeriesSpec], ...]:
    halved: dict[SeriesSpec, Fraction] = {}
    for spec, c in svec.items():
        if c == 0:
            continue
        c2, spec2 = _merge_p(c, spec)
        halved[spec2] = halved.get(spec2, _Q(0)) + c2
    # atoms sharing (n, p) collapse into a single combined pattern
    grouped: dict[tuple[int, int], list[Fraction]] = {}
    for spec, c in halved.items():
        if c == 0:
            continue
        vec = grouped.setdefault((spec.n, spec.p), [_Q(0)] * 8)
        for i, a in enumerate(spec.pattern):
            vec[i] += c * a
    out = []
    for (n, p), vec in grouped.items():
        den = 1
        for c in vec:
            den = den * c.denominator // gcd(den, c.denominator)
        canon = _canon_term(_Q(1, den), n, p, [int(c * den) for c in vec])
        if canon is not None:
            out.append(canon)
    out.sort(key=lambda t: (t[1].p, t[1].n, t[1].pattern))
    return tuple(out)


def solve_formulas(identities: Sequence[Identity],
                   targets: Sequence[Monomial]) -> list[Formula]:
    """Eliminate monomials from identities, expressing targets in S-atoms.

    Each identity gives one row per side after the first: that side
    minus the first, as a linear form.  The monomial part is solved by
    exact rational Gaussian elimination with the S-atoms riding along.
    Each target must come out as a unique combination of S-atoms,
    otherwise RankDeficient is raised.
    """
    forms: list[dict] = []
    for ident in identities:
        first, *rest = ident.forms()
        for form in rest:
            _add(form, _Q(-1), first)
            forms.append(form)
    unknowns: list[Monomial] = []
    for form in forms:
        for atom, c in form.items():
            if isinstance(atom, Monomial) and c and atom not in unknowns:
                unknowns.append(atom)
    for t in targets:
        if t not in unknowns:
            raise RankDeficient(f"target {t} never appears in the relations")

    # a row S + M = 0 reads -M = S: monomial coefficients, S-vector
    rows: list[tuple[list[Fraction], dict[SeriesSpec, Fraction]]] = [
        ([-form.get(m, _Q(0)) for m in unknowns],
         {a: c for a, c in form.items() if isinstance(a, SeriesSpec)})
        for form in forms]

    # reduced row echelon form over Q, S-vectors riding along
    pivot_of: dict[int, int] = {}
    r = 0
    for col in range(len(unknowns)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][0][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        mon, svec = rows[r]
        inv = 1 / mon[col]
        rows[r] = ([c * inv for c in mon],
                   {k: v * inv for k, v in svec.items()})
        for i, (m2, s2) in enumerate(rows):
            if i == r or m2[col] == 0:
                continue
            f = m2[col]
            new_m = [a - f * b for a, b in zip(m2, rows[r][0])]
            new_s = dict(s2)
            for k, v in rows[r][1].items():
                new_s[k] = new_s.get(k, _Q(0)) - f * v
            rows[i] = (new_m, new_s)
        pivot_of[col] = r
        r += 1

    out = []
    for t in targets:
        col = unknowns.index(t)
        row = pivot_of.get(col)
        if row is None:
            raise RankDeficient(f"target {t} is not determined")
        mon, svec = rows[row]
        if any(c != 0 for j, c in enumerate(mon) if j != col):
            raise RankDeficient(f"target {t} is entangled with free monomials")
        out.append(Formula(monomial_name(t), _Q(1), _tidy(svec),
                           description=f"Solved S-series form of {t}.",
                           label="solved"))
    return out


# ----------------------------------------------------------------------
# the derived catalog, solved from the identity table

@functools.cache
def _derived() -> dict[str, Formula]:
    out: dict[str, Formula] = {}

    def solve(names: Iterable[str], *targets: Monomial) -> list[Formula]:
        return solve_formulas([IDENTITIES[k] for k in names], targets)

    def put(f: Formula, label: str) -> None:
        out[f.name] = Formula(f.name, f.scale, f.terms, f.description, label)

    (pl,) = solve(["i2"], Monomial(pi=1, log2=1))
    put(pl, "n2")

    # i3 states beta(3) as pi^3/32; the catalog stores the solved form on
    # the beta(3) scale, and pi3 as 32 times it
    p3, plsq = solve(["i3"], Monomial(pi=3), Monomial(pi=1, log2=2))
    b3 = tuple((c * _B3, spec) for c, spec in p3.terms)
    put(Formula("beta3_alt", _Q(1), b3,
                "Solved S-series form of beta(3)."), "n3")
    put(plsq, "n3")
    put(Formula("pi3", _Q(32), b3,
                "pi^3 as 32 times the solved beta(3) form."), "n3")

    (p2l,) = solve(["r3"], Monomial(pi=2, log2=1))
    put(p2l, "n3")

    (p2l2,) = solve(_R4_RHS, Monomial(pi=2, log2=2))
    put(p2l2, "n4")

    p2l3, p4l = solve(["r5"], Monomial(pi=2, log2=3), Monomial(pi=4, log2=1))
    put(p2l3, "n5")
    put(p4l, "n5")
    return out


def derived_catalog() -> dict[str, Formula]:
    """Formulas not printed anywhere, regenerated by exact elimination."""
    return dict(_derived())


def catalog() -> dict[str, Formula]:
    """All known formulas: the twelve classics plus the derived ones."""
    full = dict(FORMULAS)
    full.update(derived_catalog())
    return full


def eval_formula(name: str, prec: int) -> MpReal:
    """Evaluate a catalog constant to error below 2^-(prec-8)."""
    f = FORMULAS.get(name) or derived_catalog().get(name)
    if f is None:
        raise UnknownName(name)
    return f.value(prec)


# ----------------------------------------------------------------------
# catalog (de)serialization

def _record(f: Formula) -> dict:
    return {
        "name": f.name,
        "scale": [f.scale.numerator, f.scale.denominator],
        "terms": [{"coef": [c.numerator, c.denominator],
                   "n": s.n, "p": s.p, "pattern": list(s.pattern)}
                  for c, s in f.terms],
        "description": f.description,
        "label": f.label,
    }


def dump_catalog(formulas: Iterable[Formula]) -> str:
    """Deterministic JSON for a formula collection."""
    recs = sorted((_record(f) for f in formulas), key=lambda r: r["name"])
    return json.dumps(recs, sort_keys=True, separators=(",", ":"))


def load_catalog(text: str) -> dict[str, Formula]:
    out = {}
    for r in json.loads(text):
        terms = tuple((_Q(*t["coef"]), SeriesSpec(t["n"], t["p"],
                                                  tuple(t["pattern"])))
                      for t in r["terms"])
        out[r["name"]] = Formula(r["name"], _Q(*r["scale"]), terms,
                                 r.get("description", ""), r.get("label", ""))
    return out

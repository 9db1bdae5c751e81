"""Central binary series S_{n,p}, the formula catalog, and exact solving.

The S-sum

    S_{n,p}(a_1..a_8) = sum_{k>=1} a_k / (2^{floor(p(k+1)/2)} * k^n)

with an 8-periodic integer pattern a_k is the common shape behind every
base-16 digit-extraction formula in this package.  This module knows how
to evaluate such sums, how to expand Re/Im Li_n(z) into them for the
special arguments with z^8 = 16^{-p}, and how to eliminate unwanted
constants from exact linear identities so that new formulas fall out.

It holds the one evaluator of linear forms: a catalog formula, a
ladder, a monomial and an identity row each get their value from
integer rows over one denominator, summed over fixed-point atoms with
counted error bounds (`_fixed_sums`), and rounded once.  An atom's
fixed-point sum splits by residue class k = r+1 (mod 8) into floor sums
held one per (n, p, r, |a_r|, wp) in `_class_group`, so atoms that
share an order, a power and an entry's size share that sum.  One
division pass per (n, r, |a_r|, wp) serves every power p that an
evaluation asks for (`_class_sums`): with p0 the least of them and
e_p(k) = floor(p(k+1)/2), e_p(k) >= e_p0(k), and floor(floor(x) / 2^t)
= floor(x / 2^t) for t >= 0, so p's term is p0's quotient
floor(|a_r| 2^(wp-e_p0(k)) / k^n) shifted right by e_p(k) - e_p0(k).

Each special argument is z = 2^{-p/2} e^{i pi j/4}, kept as the pair
(p, j) in `ARGUMENTS`.  That table is the one place an argument's value
is written down, and `_power_part` forms every power of an argument
by one rule, Part(z^k) = sign 2^(-(pk + h)/2) with (sign, h) from
`_UNIT_PARTS`: `polylog_pattern` reads each pattern entry from it in
closed form, and `_exact_part` gives Part(z^k) as a Fraction for any
integer k.  `hyper`'s pole sums apply the same rule to `_UNIT_PARTS`
rows that they look up once per term, since a call per power slowed
them by about a tenth.

It is also where the ladders and their identities are defined, once,
as exact linear forms over S-atoms and monomials: `ladder(name, n)`
builds any ladder from the tables `_BASE`, `_COMBINED` and `_R4_RHS`,
and `IDENTITIES` holds every relation of the suite as one entry, a
complex relation with rows for each part.  Two consumers read them:
`ladders` checks the identities (`check_relation`) from the sums of
their integer rows, and `_derived` solves each of eight catalog
formulas from the entries of the same table it rests on, and from no
others.  The three ladder tables are read-only, so each identity's rows
are built once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, count, islice, repeat
from math import factorial, gcd, isqrt, lcm
from operator import floordiv, lshift, mul, rshift
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (DomainError, PrecisionError, RankDeficient,
                     UndefinedOrder, UnknownName, UnsupportedArgument,
                     _require_int)
from .mp.real import (_MAX_CORE_PREC, MpReal, _alt_fixed, _log2_fixed,
                      _pi_fixed, _zeta_fixed)

__all__ = [
    "SeriesSpec", "Formula", "Monomial", "Identity", "IDENTITIES",
    "eval_series", "eval_formula", "polylog_pattern", "solve_formulas",
    "catalog", "derived_catalog", "ladder",
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
        pat = tuple(self.pattern)
        for name, x in (("n", self.n), ("p", self.p),
                        *(("pattern entry", c) for c in pat)):
            _require_int(name, x)
        if self.n < 1:
            raise DomainError("order n must be >= 1")
        if not 1 <= self.p <= 6:
            raise DomainError("power p must be in 1..6")
        if len(pat) != 8:
            raise DomainError("pattern must have 8 entries")
        object.__setattr__(self, "pattern", pat)


def _canon_term(coef: Fraction, n: int, p: int,
                pattern: Sequence[int]) -> tuple[Fraction, SeriesSpec] | None:
    """Fold the pattern's content into the coefficient.

    The canonical pattern has coprime entries and a positive first
    nonzero entry; a zero pattern collapses to None.
    """
    pat = [int(c) for c in pattern]
    g = gcd(*pat)
    if g == 0 or coef == 0:
        return None
    sign = 1
    for c in pat:
        if c:
            sign = -1 if c < 0 else 1
            break
    pat = [sign * c // g for c in pat]
    return coef * g * sign, SeriesSpec(n, p, tuple(pat))


# a chunk of quotients holds about this many bits, at least 8 terms
_CHUNK_BITS = 1 << 18


def _class_sums(n: int, r: int, m: int, wp: int,
                ps: Sequence[int]) -> list[int]:
    """The sum over k = r+1 (mod 8) of floor(m 2^(wp-e_p(k)) / k^n),
    e_p(k) = floor(p(k+1)/2), for each p of ps (ascending, distinct),
    from one division per k at p0 = ps[0].

    Past e = wp + bitlen(m), 2^(e-wp) > m floors every term to 0, so a
    class ends there, and p0's is the longest.  p's term is p0's
    quotient shifted right by e_p(k) - e_p0(k), which rises by 4(p - p0)
    from one k of the class to the next.  Several powers take the
    quotients in chunks of about `_CHUNK_BITS`.
    """
    p0, top = ps[0], wp + m.bit_length()
    ks = range(r + 1, (2 * top + 1) // p0, 8)
    lo = len(range(r + 1, (2 * wp + 1) // p0, 8))  # e_p0(k) <= wp for these
    s0, step = wp - p0 * (r + 2) // 2, 4 * p0       # wp - e_p0(r+1)
    quotients = chain(
        map(floordiv, map(lshift, repeat(m), range(s0, s0 - step * lo, -step)),
            map(pow, ks[:lo], repeat(n))),
        map(floordiv, repeat(m), map(lshift, map(pow, ks[lo:], repeat(n)),
                                     count(step * lo - s0, step))))
    if len(ps) == 1:
        return [sum(quotients)]
    shifts = []
    for p in ps[1:]:
        d, t = p * (r + 2) // 2 - p0 * (r + 2) // 2, 4 * (p - p0)
        terms = len(range(r + 1, (2 * top + 1) // p, 8))
        shifts.append(range(d, d + t * terms, t))
    sums = [0] * len(ps)
    c = max(8, _CHUNK_BITS // wp)
    for i in range(0, len(ks), c):
        chunk = list(islice(quotients, c))
        sums[0] += sum(chunk)
        for j, sh in enumerate(shifts, 1):
            sums[j] += sum(map(rshift, chunk, sh[i:i + c]))
    return sums


@functools.cache
def _class_group(n: int, r: int, m: int, wp: int) -> dict[int, int]:
    """The class sums of one (n, r, |a_r| = m, wp) group made so far,
    by power p, each a function of (n, p, r, m, wp) alone.  A functools
    cache per class could not say which powers are missing, and those
    are summed in one pass."""
    return {}


@functools.cache
def _series_fixed(spec: SeriesSpec, wp: int) -> tuple[int, int]:
    """S * 2^wp as an integer, and a bound in ulps on its error.

    Each of the N terms a_k 2^(wp-e)/k^n with e <= wp + bitlen(max|a|)
    + 8 is truncated toward zero, under one ulp each, and the omitted
    tail (each exponent recurs at most twice) stays under one ulp.  So
    the error is below N + 1 ulps.  Truncation toward zero is sign(a_r)
    times the floor of |a_r| 2^(wp-e)/k^n, so the sum is that signed
    sum of the eight class sums held in `_class_group`; a class's terms
    past e = wp + bitlen(|a_r|) are 0 and are not summed.  A class not
    held is summed here, alone.  `_atom_values` first sums the classes
    that its atoms of several powers share: one division pass per
    (n, r, |a_r|, wp) serves every power p, since with p0 the least,
    e_p(k) >= e_p0(k) and floor(floor(x) / 2^t) = floor(x / 2^t) make
    p's term p0's quotient shifted right by e_p(k) - e_p0(k).
    """
    n, p = spec.n, spec.p
    bits_a = max(map(abs, spec.pattern)).bit_length()
    kmax = (2 * (wp + bits_a + 8) + 1) // p   # the terms summed: k < kmax
    acc = terms = 0
    for r, a in enumerate(spec.pattern):
        if a:
            held = _class_group(n, r, abs(a), wp)
            t = held.get(p)
            if t is None:
                t = held[p] = _class_sums(n, r, abs(a), wp, (p,))[0]
            acc += t if a > 0 else -t
            terms += len(range(r + 1, kmax, 8))
    return acc, terms + 1


def _refuse_above_ceiling(prec: int) -> None:
    """PrecisionError for a value above MpReal's 2^23-bit ceiling, raised
    before any atom is summed rather than when the sum is rounded."""
    if prec > _MAX_CORE_PREC:
        raise PrecisionError(
            f"precision {prec} is above the {_MAX_CORE_PREC}-bit ceiling")


def eval_series(spec: SeriesSpec, prec: int) -> MpReal:
    """Sum the S-series to absolute error below 2^-prec.

    The sum is `_series_fixed` at prec + 32 bits, rounded to prec
    significant bits plus one for each bit that |S| has above 16, so
    large atoms keep their absolute accuracy; atoms with |S| < 16 round
    to prec.
    """
    if prec < 32:
        raise PrecisionError("prec must be >= 32")
    _refuse_above_ceiling(prec)
    wp = prec + 32
    acc, _ = _series_fixed(spec, wp)
    top = abs(acc).bit_length() - wp        # |S| < 2^top
    return MpReal.from_fixed(acc, wp, prec + max(0, top - 4))


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

    @functools.cached_property
    def _rows(self) -> IntegerRows:
        form: dict = {}
        for coef, spec in self.terms:
            form[spec] = form.get(spec, _Q(0)) + self.scale * coef
        return integer_rows([form])

    def value(self, prec: int) -> MpReal:
        return _row_value(self._rows, prec)


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
#
# z = 2^(-p/2) e^(i pi j/4) is the pair (p, j).  With m = jk mod 8 and
# Part(e^(i pi m/4)) = sign * 2^(-h/2) from `_UNIT_PARTS`, Part(z^k) is
# sign * 2^(-(pk + h)/2).  Conjugates are both present because the source
# identities use both half planes.

ARGUMENTS: Mapping[str, tuple[int, int]] = MappingProxyType({
    "1/2": (2, 0), "-1/2": (2, 4), "-1/4": (4, 4), "-1/8": (6, 4),
    "(1+i)/2": (1, 1), "(1-i)/2": (1, 7),
    "(1+i)/4": (3, 1), "(1-i)/4": (3, 7),
    "(1+i)/8": (5, 1), "(1-i)/8": (5, 7),
    "i/2": (2, 2), "-i/2": (2, 6),
    "i/sqrt2": (1, 2), "-i/sqrt2": (1, 6),
    "i/sqrt8": (3, 2), "-i/sqrt8": (3, 6),
})

# (sign, h) for m = 0..7
_UNIT_PARTS = {
    "re": ((1, 0), (1, 1), (0, 0), (-1, 1), (-1, 0), (-1, 1), (0, 0), (1, 1)),
    "im": ((0, 0), (1, 1), (1, 0), (1, 1), (0, 0), (-1, 1), (-1, 0), (-1, 1)),
}


def _argument(arg: str) -> tuple[int, int]:
    try:
        return ARGUMENTS[arg]
    except KeyError:
        raise UnsupportedArgument(f"unknown argument name {arg!r}") from None


def _power_part(p: int, j: int, k: int, part: str) -> tuple[int, int]:
    """Part(z^k) as (sign, e): sign * 2^(-e/2)."""
    if part not in _UNIT_PARTS:
        raise DomainError("part must be 're' or 'im'")
    sign, h = _UNIT_PARTS[part][j * k % 8]
    return sign, p * k + h


def _exact_part(arg: str, k: int, part: str) -> Fraction:
    """Part(z^k) for any integer k, exactly; UnsupportedArgument where it
    is irrational (the imaginary part of an odd power of i/sqrt2,
    -i/sqrt2, i/sqrt8 or -i/sqrt8)."""
    sign, e = _power_part(*_argument(arg), k, part)
    if sign and e % 2:
        raise UnsupportedArgument(f"{part} part of ({arg})^{k} is irrational")
    return _Q(sign << max(-e, 0) // 2, 1 << max(e, 0) // 2)


@functools.cache
def polylog_pattern(arg: str, n: int,
                    part: str) -> tuple[tuple[Fraction, SeriesSpec], ...]:
    """S-basis expansion of Re/Im Li_n at a named argument.

    Entry k of the pattern is Part(z^k) * 2^floor(p(k+1)/2) = sign *
    2^(t/2) with t = 2 floor(p(k+1)/2) - pk - h >= p - 1 - h >= -1; an
    odd t under a nonzero sign makes the pattern irrational, which raises
    UnsupportedArgument, and every other entry is an integer.  An
    identically zero component (the imaginary part of a real argument)
    returns the empty combination.
    """
    p, j = _argument(arg)
    pattern = []
    for k in range(1, 9):
        sign, e = _power_part(p, j, k, part)
        t = 2 * ((p * (k + 1)) // 2) - e
        if sign and t % 2:
            raise UnsupportedArgument(
                f"{arg}: {part} part has an irrational pattern")
        pattern.append(sign << t // 2)
    term = _canon_term(_Q(1), n, p, pattern)
    return () if term is None else (term,)


# ----------------------------------------------------------------------
# monomials

@dataclass(frozen=True)
class Monomial:
    """Product pi^pi * log2^log2 * zeta(zeta) * beta(beta) * sqrt2^sqrt2.

    A zero order in the zeta/beta slots means that factor is absent;
    the empty monomial is the rational unit.  Every slot is an int >= 0,
    and zeta(1) diverges.
    """

    pi: int = 0
    log2: int = 0
    zeta: int = 0
    beta: int = 0
    sqrt2: int = 0

    def __post_init__(self) -> None:
        for name in ("pi", "log2", "zeta", "beta", "sqrt2"):
            x = getattr(self, name)
            _require_int(name, x)
            if x < 0:
                raise DomainError(f"{name} must be >= 0, not {x}")
        if self.zeta == 1:
            raise DomainError("zeta(1) diverges: zeta must be 0 or >= 2")

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
        if self.sqrt2:
            parts.append("sqrt2" if self.sqrt2 == 1 else f"sqrt2^{self.sqrt2}")
        return "*".join(parts) if parts else "1"

    def value(self, prec: int) -> MpReal:
        _refuse_above_ceiling(prec)
        # |value| > 2^-(17 log2 / 32 + 1), as pi, zeta(n) > 1, beta(n) > 1/2
        # and log 2 > 2^(-17/32): wp keeps prec + 32 bits below its top
        wp = prec + 33 + (17 * self.log2 + 31) // 32
        return MpReal.from_fixed(_monomial_fixed(self, wp)[0], wp, prec)


def _fmul(a: int, ea: int, b: int, eb: int, w: int) -> tuple[int, int]:
    """Product of two w-bit fixed-point values off by at most ea and eb
    ulps: the floored product and a bound in ulps on its error."""
    return a * b >> w, (abs(a) * eb + abs(b) * ea + ea * eb >> w) + 2


@functools.cache
def _monomial_fixed(m: Monomial, wp: int) -> tuple[int, int]:
    """The monomial times 2^wp as an integer, and a bound in ulps.

    The factors enter at w = wp + 16 bits with counted bounds: pi and
    log 2 from their fixed-point series and sqrt 2 as isqrt(2^(2w+1)),
    each within one ulp, and zeta(n) < 2 and beta(n) < 1 from the
    Borwein sums of `mp.real`, within the few ulps those count.  Each
    product adds its propagated error and one floor; the final shift by
    16 one more.
    """
    w = wp + 16
    factors = ([(_pi_fixed(w), 1)] * m.pi + [(_log2_fixed(w), 1)] * m.log2
               + [(isqrt(2 << 2 * w), 1)] * m.sqrt2)
    if m.zeta:
        factors.append(_zeta_fixed(m.zeta, w))
    if m.beta:
        factors.append(_alt_fixed(m.beta, 2, w))
    v, e = 1 << w, 0
    for f, ef in factors:
        v, e = _fmul(v, e, f, ef, w)
    return v >> 16, (e >> 16) + 2


# ----------------------------------------------------------------------
# linear forms and their one evaluator
#
# A linear form is a dict from S-atoms (SeriesSpec) and Monomials to
# rational coefficients; it stands for the sum of coefficient times value.

@dataclass(frozen=True, eq=False)
class IntegerRows:
    """Linear forms over shared atoms as integer rows over one denominator.

    Row r stands for sum_i coefs[r][i] * value(atoms[i]) / den.
    ``mass_bits`` bounds log2 of the largest row's sum |coefs| / den.
    Compared and hashed by object.
    """

    den: int
    atoms: tuple
    coefs: tuple[tuple[int, ...], ...]
    mass_bits: int

    @functools.cached_property
    def shared_classes(self) -> tuple[tuple[int, int, int, list[int]], ...]:
        """Each (n, r, |a_r|) class that S-atoms of two or more powers
        hold, with those powers ascending."""
        powers: dict[tuple[int, int, int], set[int]] = {}
        for a in self.atoms:
            if isinstance(a, SeriesSpec):
                for r, c in enumerate(a.pattern):
                    if c:
                        powers.setdefault((a.n, r, abs(c)), set()).add(a.p)
        return tuple((*key, sorted(ps)) for key, ps in powers.items()
                     if len(ps) > 1)


def integer_rows(forms: Sequence[Mapping]) -> IntegerRows:
    """The forms over the atoms any of them uses, on a common denominator."""
    atoms = tuple(a for a in dict.fromkeys(a for f in forms for a in f)
                  if any(f.get(a) for f in forms))
    den = lcm(*(c.denominator for f in forms for c in f.values()))
    coefs = tuple(tuple(int(f.get(a, 0) * den) for a in atoms)
                  for f in forms)
    mass = max((sum(map(abs, row)) for row in coefs), default=0)
    return IntegerRows(den, atoms, coefs,
                       mass.bit_length() - den.bit_length() + 1)


@functools.cache
def _atom_values(rows: IntegerRows, wp: int) -> tuple[tuple[int, ...], ...]:
    """The rows' atoms at wp bits, and their bounds in ulps.  Each class
    that atoms of several powers hold is summed first, in one pass."""
    for n, r, m, ps in rows.shared_classes:
        held = _class_group(n, r, m, wp)
        missing = [p for p in ps if p not in held]
        if missing:
            held.update(zip(missing, _class_sums(n, r, m, wp, missing)))
    pairs = [_series_fixed(a, wp) if isinstance(a, SeriesSpec)
             else _monomial_fixed(a, wp) for a in rows.atoms]
    return tuple(v for v, _ in pairs), tuple(e for _, e in pairs)


def _fixed_sums(rows: IntegerRows, prec: int):
    """Each row summed in fixed point: (wp, [(sum, bound), ...]), row r
    worth sum / (den 2^wp) and off by at most bound / (den 2^wp).

    wp = prec + max(32, mass bits), so a bound, at most the mass times
    E ulps of 2^-wp for atoms within E ulps, stays below E 2^-prec:
    with E < 2^32 that is 2^32 under 2^-(prec-64).
    """
    wp = prec + max(32, rows.mass_bits)
    vals, errs = _atom_values(rows, wp)
    return wp, [(sum(map(mul, row, vals)),
                 sum(map(mul, map(abs, row), errs)))
                for row in rows.coefs]


def _row_value(rows: IntegerRows, prec: int) -> MpReal:
    """The value of a one-row form, its fixed-point sum rounded to prec."""
    _refuse_above_ceiling(prec)
    wp, ((total, _),) = _fixed_sums(rows, prec)
    return MpReal.from_fraction(_Q(total, rows.den << wp), prec)


def _add(acc: dict, coef: Fraction, form: Mapping) -> None:
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
_BASE = MappingProxyType({
    "A": ((1, 1, "1/2", "re"),),
    "B": ((1, 2, "(1+i)/2", "re"),),
    "C": ((1, _Q(2, 3), "i/sqrt8", "re"), (-2, 2, "-i/sqrt2", "re")),
    "D": ((1, _Q(2, 3), "(1+i)/4", "re"), (-1, 1, "-i/2", "re")),
    "E": ((1, _Q(2, 5), "(1-i)/8", "re"), (-2, 1, "-i/2", "re")),
    "F": ((1, 2, "(1+i)/2", "im"),),
    "G": ((1, _Q(2, 3), "(1+i)/4", "im"), (-1, 1, "-i/2", "im")),
    "H": ((1, _Q(2, 5), "(1-i)/8", "im"), (-2, 1, "-i/2", "im")),
})

# zeta(2m) / pi^(2m) and beta(3) / pi^3, beta(5) / pi^5
_Z2, _Z4, _Z6, _Z8, _Z10 = (_Q(1, 6), _Q(1, 90), _Q(1, 945), _Q(1, 9450),
                            _Q(1, 93555))
_B3, _B5 = _Q(1, 32), _Q(5, 1536)

# the order-4 relations Xbar - a Abar = z zeta(4).  Xtilde = Xbar - a Abar
# - z zeta(4) L_{n-4} is built from them, so the relation r4x states that
# Xtilde vanishes at order 4
_R4_RHS: Mapping[str, tuple[str, Fraction, Fraction]] = MappingProxyType({
    "r4b": ("B", _Q(5, 2), _Q(343, 128)),
    "r4c": ("C", _Q(7, 9), _Q(5, 54)),
    "r4d": ("D", _Q(1, 3), _Q(-313, 3456)),
    "r4e": ("E", _Q(6, 25), _Q(-1547, 16000)),
})


def _bar(x: str, l_n: Fraction, z2: Fraction):
    """Xbar = X + l_n L_n + z2 zeta(2) L_{n-2}."""
    return ((1, x),), ((l_n, 0), (z2 * _Z2, 2))


def _ibar(x: str):
    """Xbar = X - pi L_{n-1} / 4 for the imaginary ladders."""
    return ((1, x),), ((_Q(-1, 4), 1),)


# name -> (((coef, ladder), ...), ((q, k), ...))
_COMBINED = MappingProxyType({
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
})


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

@dataclass(frozen=True, eq=False)
class Identity:
    """Linear identity of weight n: all of its sides have one value.

    A side is a sum of (coefficient, key) terms; a key is a ladder name
    (taken at order n), a Monomial, a SeriesSpec, or an (argument, part)
    pair standing for Part Li_n(argument).  A complex relation's real
    part has the sides `sides` and its imaginary part `im_sides`.
    `ladders` checks every identity numerically; `_derived` solves
    catalog formulas from some of them.
    Identities compare and hash by object, as the `rows` cache keys
    them.
    """

    name: str
    status: str                    # "proven" or "numeric"
    n: int
    sides: tuple
    min_bits: int = 256
    im_sides: tuple = ()

    @functools.cache
    def rows(self) -> IntegerRows:
        """Every part's differences as one integer coefficient matrix."""
        return integer_rows(_differences(self))


def _differences(ident: Identity) -> list[dict]:
    """Each side of `ident` minus the first side of its part, as new
    linear forms: the real part's, then the imaginary part's."""
    rows = []
    for sides in (ident.sides, ident.im_sides):
        forms = []
        for side in sides:
            form: dict = {}
            for c, key in side:
                if isinstance(key, (Monomial, SeriesSpec)):
                    part = {key: _Q(1)}
                elif isinstance(key, str):
                    part = ladder(key, ident.n)
                else:
                    part = _li(key[0], ident.n, key[1])
                _add(form, _Q(c), part)
            forms.append(form)
        for form in forms[1:]:
            _add(form, _Q(-1), forms[0])
        rows += forms[1:]
    return rows


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


# complex values as (re side, im side) pairs, for the relations of
# `_complex` below: Li_n(arg) is the pair of its parts,
# ln((1 -+ i)/2) = -log(2)/2 -+ i pi/4 squares to three monomials, and
# Li_2(-i) = -pi^2/48 - i G
def _li_c(arg: str) -> tuple:
    return ((1, (arg, "re")),), ((1, (arg, "im")),)


def _log_sq(sign: int) -> tuple:
    """ln((1 + sign i)/2)^2."""
    return (((_Q(1, 4), Monomial(log2=2)), (_Q(-1, 16), Monomial(pi=2))),
            ((_Q(-sign, 4), Monomial(pi=1, log2=1)),))


_LI2_MINUS_I = (((_Q(-1, 48), Monomial(pi=2)),), ((-1, Monomial(beta=2)),))
_I_PI = ((), ((1, Monomial(pi=1)),))


def _complex(name: str, n: int, *sides) -> Identity:
    """A relation among complex values of weight n as one identity with
    rows for each part.  Each side is a sequence of (rational c, value)
    for the sum of c * value."""
    re, im = (tuple(tuple((c * c2, key) for c, value in side
                          for c2, key in value[part])
                    for side in sides) for part in (0, 1))
    return Identity(name, "proven", n, re, im_sides=im)


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
    # dilogarithm and order-1 relations through complex logarithms
    _complex("w21", 2, ((2, _li_c("(1+i)/2")),),
             ((-1, _log_sq(-1)), (-2, _LI2_MINUS_I))),
    _complex("w23", 2, ((2, _li_c("(1-i)/4")),),
             ((3, _li_c("i/2")), (-3, _log_sq(1)), (4, _LI2_MINUS_I))),
    _complex("w25", 2, ((2, _li_c("(1+i)/8")),),
             ((10, _li_c("i/2")), (-5, _log_sq(1)), (8, _LI2_MINUS_I))),
    # the real part only: Re Li_2(-i) = -pi^2/48
    replace(_complex("h21", 2, ((-1, _li_c("(1+i)/2")),
                                (_Q(-1, 2), _log_sq(-1))),
                     ((1, _LI2_MINUS_I),)), im_sides=()),
    _complex("w11", 1, ((1, _li_c("(1+i)/2")), (_Q(-1, 2), _li_c("1/2"))),
             ((_Q(1, 4), _I_PI),)),
    _complex("w13", 1, ((1, _li_c("(1-i)/4")), (-1, _li_c("i/2")),
                        (_Q(-1, 2), _li_c("1/2"))),
             ((_Q(-1, 4), _I_PI),)),
    _complex("w15", 1, ((1, _li_c("(1+i)/8")), (-2, _li_c("i/2")),
                        (_Q(-1, 2), _li_c("1/2"))),
             ((_Q(-1, 4), _I_PI),)),
    # h1: Li_1(-i/sqrt8) - 2 Li_1(i/sqrt2) - Li_1(1/2)/2 = -i pi/2.  Every
    # nonzero entry of the imaginary patterns at i/sqrt2 and -i/sqrt8 is a
    # multiple of sqrt2 (polylog_pattern refuses them): with
    # c = (1,0,-1,0,1,0,-1,0), Im Li_1(i/sqrt2) = sqrt2 S_{1,1}(c) and
    # Im Li_1(-i/sqrt8) = -2 sqrt2 S_{1,3}(c), so the imaginary part reads
    # S_{1,1}(c) + S_{1,3}(c) = (sqrt2/8) pi
    replace(_complex("h1", 1, ((1, _li_c("-i/sqrt8")), (-2, _li_c("i/sqrt2")),
                               (_Q(-1, 2), _li_c("1/2"))),
                     ((_Q(-1, 2), _I_PI),)), im_sides=(
        tuple((1, SeriesSpec(1, p, (1, 0, -1, 0, 1, 0, -1, 0)))
              for p in (1, 3)),
        ((_Q(1, 8), Monomial(pi=1, sqrt2=1)),))),
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
        den = lcm(*(c.denominator for c in vec))
        canon = _canon_term(_Q(1, den), n, p, [int(c * den) for c in vec])
        if canon is not None:
            out.append(canon)
    out.sort(key=lambda t: (t[1].p, t[1].n, t[1].pattern))
    return tuple(out)


def solve_formulas(identities: Sequence[Identity],
                   targets: Sequence[Monomial]) -> list[Formula]:
    """Eliminate monomials from identities, expressing targets in S-atoms.

    Each identity gives one row per side after the first of its part:
    that side minus the first, as a linear form.  The monomial part is
    solved by exact rational Gaussian elimination with the S-atoms
    riding along.
    Each target must come out as a unique combination of S-atoms,
    otherwise RankDeficient is raised.
    """
    forms = [form for ident in identities for form in _differences(ident)]
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

# each derived formula: the identities it is solved from, alone, the
# monomial it is solved for, and its label.  i3 states beta(3) as
# pi^3/32, so beta3_alt is i3's solved pi^3 form on the beta(3) scale,
# and pi3 is 32 times that
_DERIVED = MappingProxyType({
    "pi_log2": (("i2",), Monomial(pi=1, log2=1), "n2"),
    "beta3_alt": (("i3",), Monomial(pi=3), "n3"),
    "pi_log2sq": (("i3",), Monomial(pi=1, log2=2), "n3"),
    "pi3": (("i3",), Monomial(pi=3), "n3"),
    "pi2_log2": (("r3",), Monomial(pi=2, log2=1), "n3"),
    "pi2_log2sq": (tuple(_R4_RHS), Monomial(pi=2, log2=2), "n4"),
    "pi2_log2cu": (("r5",), Monomial(pi=2, log2=3), "n5"),
    "pi4_log2": (("r5",), Monomial(pi=4, log2=1), "n5"),
})


@functools.cache
def _solved(names: tuple[str, ...]) -> dict[Monomial, Formula]:
    """Each monomial that `_DERIVED` solves from the identities `names`,
    solved from them alone, so one elimination serves its formulas."""
    targets = list(dict.fromkeys(
        t for idents, t, _ in _DERIVED.values() if idents == names))
    return dict(zip(targets, solve_formulas(
        [IDENTITIES[k] for k in names], targets)))


@functools.cache
def _derived(name: str) -> Formula:
    """The derived formula of that name, solving only its identities."""
    try:
        names, target, label = _DERIVED[name]
    except KeyError:
        raise UnknownName(name) from None
    f = _solved(names)[target]
    if name == "beta3_alt":
        f = Formula(name, _Q(1), tuple((c * _B3, s) for c, s in f.terms),
                    "Solved S-series form of beta(3).")
    elif name == "pi3":
        f = replace(_derived("beta3_alt"), name=name, scale=_Q(32),
                    description="pi^3 as 32 times the solved beta(3) form.")
    return replace(f, label=label)


def derived_catalog() -> dict[str, Formula]:
    """Formulas not printed anywhere, regenerated by exact elimination."""
    return {name: _derived(name) for name in _DERIVED}


def catalog() -> dict[str, Formula]:
    """All known formulas: the twelve classics plus the derived ones."""
    full = dict(FORMULAS)
    full.update(derived_catalog())
    return full


def _formula(name: str) -> Formula:
    """The catalog formula of that name: a classic, else a derived one,
    so that a classic is found without solving any derived formula and a
    derived one solves only the identities it comes from."""
    return FORMULAS.get(name) or _derived(name)


def eval_formula(name: str, prec: int) -> MpReal:
    """Evaluate a catalog constant to error below 2^-(prec-8): its one
    integer row, summed in fixed point and rounded once."""
    return _formula(name).value(prec)

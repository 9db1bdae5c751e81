"""Central binary series S_{n,p}, the formula catalog, and exact solving.

The S-sum

    S_{n,p}(a_1..a_8) = sum_{k>=1} a_k / (2^{floor(p(k+1)/2)} * k^n)

with an 8-periodic integer pattern a_k is the common shape behind every
base-16 digit-extraction formula in this package.  This module knows how
to evaluate such sums, how to expand Re/Im Li_n(z) into them for the
special arguments with z^8 = 16^{-p}, and how to eliminate unwanted
constants from exact linear identities so that new formulas fall out.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Sequence

from .errors import RankDeficient, UnknownName, UnsupportedArgument
from .exact import ARGUMENTS, ExactComplex
from .mp.real import MpReal, _div0, log2_const, pi_const, pow_int
from .mp import special as _sp

__all__ = [
    "SeriesSpec", "Formula", "Monomial", "RelationSpec",
    "eval_series", "eval_formula", "polylog_pattern", "solve_formulas",
    "catalog", "derived_catalog", "dump_catalog", "load_catalog",
    "ladder_terms", "bar_monomials", "tilde_parts", "LADDER_NAMES",
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


def polylog_pattern(arg: "ExactComplex | str", n: int,
                    part: str) -> list[tuple[Fraction, SeriesSpec]]:
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
        return []
    if part == "im" and z.is_real:
        return []
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
    return [] if term is None else [term]


# ----------------------------------------------------------------------
# monomials, relations, exact elimination

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


@dataclass(frozen=True)
class RelationSpec:
    """Exact identity: sum of coef*Part(Li_n(arg)) = sum of coef*monomial."""

    name: str
    li_terms: tuple[tuple[Fraction, str, int, str], ...]
    rhs: tuple[tuple[Fraction, Monomial], ...]


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


def _add_terms(acc: dict[SeriesSpec, Fraction], coef: Fraction,
               terms: Iterable[tuple[Fraction, SeriesSpec]]) -> None:
    for c, spec in terms:
        acc[spec] = acc.get(spec, _Q(0)) + coef * c


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


def solve_formulas(relations: Sequence[RelationSpec],
                   targets: Sequence[Monomial]) -> list[Formula]:
    """Eliminate monomials from relations, expressing targets in S-atoms.

    The relations are rewritten through polylog_pattern into the S-basis
    and the monomial side is solved by exact rational Gaussian
    elimination.  Each target must come out as a unique combination of
    S-atoms, otherwise RankDeficient is raised.
    """
    unknowns: list[Monomial] = []
    for rel in relations:
        for _, m in rel.rhs:
            if m not in unknowns:
                unknowns.append(m)
    for t in targets:
        if t not in unknowns:
            raise RankDeficient(f"target {t} never appears in the relations")

    rows: list[tuple[list[Fraction], dict[SeriesSpec, Fraction]]] = []
    for rel in relations:
        mon = [_Q(0)] * len(unknowns)
        for c, m in rel.rhs:
            mon[unknowns.index(m)] += c
        svec: dict[SeriesSpec, Fraction] = {}
        for c, arg, n, part in rel.li_terms:
            _add_terms(svec, c, polylog_pattern(arg, n, part))
        rows.append((mon, svec))

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
# ladder building blocks shared with the ladders module

LADDER_NAMES = "ABCDEFGH"

_LADDER_ARGS = {
    "A": ((None, "1/2", "re"),),
    "B": (("2^", "(1+i)/2", "re"),),
    "C": (("23^", "i/sqrt8", "re"), ("-2n", "-i/sqrt2", "re")),
    "D": (("23^", "(1+i)/4", "re"), ("-1", "-i/2", "re")),
    "E": (("25^", "(1-i)/8", "re"), ("-2", "-i/2", "re")),
    "F": (("2^", "(1+i)/2", "im"),),
    "G": (("23^", "(1+i)/4", "im"), ("-1", "-i/2", "im")),
    "H": (("25^", "(1-i)/8", "im"), ("-2", "-i/2", "im")),
}

_BAR_L = {"A": _Q(1), "B": _Q(1, 2), "C": _Q(1, 2), "D": _Q(1, 2),
          "E": _Q(1, 2)}
_BAR_Z2 = {"A": _Q(-1, 2), "B": _Q(-5, 8), "C": _Q(-1, 3), "D": _Q(-5, 24),
           "E": _Q(-7, 40)}


def _coef(tag: str | None, n: int) -> Fraction:
    if tag is None:
        return _Q(1)
    if tag == "2^":
        return _Q(2) ** (n - 1)
    if tag == "23^":
        return _Q(2, 3) ** (n - 1)
    if tag == "25^":
        return _Q(2, 5) ** (n - 1)
    if tag == "-2n":
        return -(_Q(2) ** n)
    return _Q(int(tag))


def ladder_terms(name: str, n: int) -> tuple[tuple[Fraction, str, int, str], ...]:
    """Raw Li terms (coef, arg, n, part) of ladder `name` at order n."""
    return tuple((_coef(tag, n), arg, n, part)
                 for tag, arg, part in _LADDER_ARGS[name])


def _l_mon(j: int) -> tuple[Fraction, Monomial] | None:
    """(-log2)^j / j! as a signed log2-power monomial; None when j < 0."""
    if j < 0:
        return None
    return _Q(-1) ** j / factorial(j), Monomial(log2=j)


def bar_monomials(name: str, n: int) -> tuple[tuple[Fraction, Monomial], ...]:
    """Monomials added to the raw ladder to build its bar combination."""
    out: list[tuple[Fraction, Monomial]] = []
    if name in _BAR_L:
        ln = _l_mon(n)
        if ln is not None:
            out.append((_BAR_L[name] * ln[0], ln[1]))
        ln2 = _l_mon(n - 2)
        if ln2 is not None:
            c, m = ln2
            out.append((_BAR_Z2[name] * c * _Q(1, 6),
                        Monomial(pi=2 + m.pi, log2=m.log2)))
    else:
        ln1 = _l_mon(n - 1)
        if ln1 is not None:
            c, m = ln1
            out.append((-_Q(1, 4) * c, Monomial(pi=1, log2=m.log2)))
    return tuple(out)


# tilde combinations: (bar coefficients, zeta(4) L_{n-4} coefficient)
_TILDE = {
    "B": ((("B", _Q(1)), ("A", _Q(-5, 2))), _Q(-343, 128)),
    "C": ((("C", _Q(1)), ("A", _Q(-7, 9))), _Q(-5, 54)),
    "D": ((("D", _Q(1)), ("A", _Q(-1, 3))), _Q(313, 3456)),
    "E": ((("E", _Q(1)), ("A", _Q(-6, 25))), _Q(1547, 16000)),
}


def tilde_parts(name: str, n: int) -> tuple[
        tuple[tuple[Fraction, str, int, str], ...],
        tuple[tuple[Fraction, Monomial], ...]]:
    """Tilde ladder at order n as raw Li terms plus monomial corrections."""
    bars, z4c = _TILDE[name]
    li: list[tuple[Fraction, str, int, str]] = []
    mons: list[tuple[Fraction, Monomial]] = []
    for bname, bc in bars:
        li.extend((bc * c, arg, n, part)
                  for c, arg, n, part in ladder_terms(bname, n))
        mons.extend((bc * c, m) for c, m in bar_monomials(bname, n))
    ln4 = _l_mon(n - 4)
    if ln4 is not None:
        c, m = ln4
        # zeta(4) = pi^4/90
        mons.append((z4c * c * _Q(1, 90), Monomial(pi=4 + m.pi, log2=m.log2)))
    return tuple(li), tuple(mons)


# ----------------------------------------------------------------------
# the solve runs that generate the derived catalog

def _lam(n: int) -> tuple[Fraction, Monomial]:
    return _Q(2 ** n - 1, 2 ** n), Monomial(zeta=n)


def _bar_relation(name: str, combo: Sequence[tuple[Fraction, str]], n: int,
                  rhs: Sequence[tuple[Fraction, Monomial]]) -> RelationSpec:
    """Relation sum(coef * bar(ladder)) at order n = rhs monomials."""
    li: list[tuple[Fraction, str, int, str]] = []
    corr: dict[Monomial, Fraction] = {}
    for c, lname in combo:
        li.extend((c * lc, arg, nn, part)
                  for lc, arg, nn, part in ladder_terms(lname, n))
        for mc, m in bar_monomials(lname, n):
            corr[m] = corr.get(m, _Q(0)) + c * mc
    rhs_all: dict[Monomial, Fraction] = {}
    for c, m in rhs:
        rhs_all[m] = rhs_all.get(m, _Q(0)) + c
    for m, c in corr.items():
        rhs_all[m] = rhs_all.get(m, _Q(0)) - c
    return RelationSpec(name, tuple(li),
                        tuple((c, m) for m, c in rhs_all.items() if c != 0))


def _tilde_relation(name: str, combo: Sequence[tuple[Fraction, str]], n: int,
                    rhs: Sequence[tuple[Fraction, Monomial]]) -> RelationSpec:
    li: list[tuple[Fraction, str, int, str]] = []
    corr: dict[Monomial, Fraction] = {}
    for c, lname in combo:
        tli, tmons = tilde_parts(lname, n)
        li.extend((c * lc, arg, nn, part) for lc, arg, nn, part in tli)
        for mc, m in tmons:
            corr[m] = corr.get(m, _Q(0)) + c * mc
    rhs_all: dict[Monomial, Fraction] = {}
    for c, m in rhs:
        rhs_all[m] = rhs_all.get(m, _Q(0)) + c
    for m, c in corr.items():
        rhs_all[m] = rhs_all.get(m, _Q(0)) - c
    return RelationSpec(name, tuple(li),
                        tuple((c, m) for m, c in rhs_all.items() if c != 0))


def order2_im_relations() -> list[RelationSpec]:
    """Imaginary parts of the two order-2 identities behind Catalan."""
    G = Monomial(beta=2)
    pl = Monomial(pi=1, log2=1)
    return [
        RelationSpec("w21.im",
                     ((_Q(2), "(1+i)/2", 2, "im"),),
                     ((_Q(2), G), (_Q(-1, 4), pl))),
        RelationSpec("w23.im",
                     ((_Q(2), "(1-i)/4", 2, "im"), (_Q(-3), "i/2", 2, "im")),
                     ((_Q(-4), G), (_Q(3, 4), pl))),
    ]


def order3_im_relations() -> list[RelationSpec]:
    b3 = Monomial(beta=3)
    return [
        _bar_relation("i3.fg", ((_Q(2, 3), "F"), (_Q(-1), "G")), 3,
                      ((_Q(1), b3),)),
        _bar_relation("i3.fh", ((_Q(20, 23), "F"), (_Q(-25, 23), "H")), 3,
                      ((_Q(1), b3),)),
    ]


def order3_re_relations() -> list[RelationSpec]:
    lam3 = _lam(3)
    return [
        _bar_relation("r3.a", ((_Q(1), "A"),), 3, (lam3,)),
        _bar_relation("r3.b", ((_Q(2, 5), "B"),), 3, (lam3,)),
        _bar_relation("r3.c", ((_Q(9, 7), "C"),), 3, (lam3,)),
        _bar_relation("r3.d", ((_Q(3), "D"),), 3, (lam3,)),
        _bar_relation("r3.e", ((_Q(25, 6), "E"),), 3, (lam3,)),
    ]


def order4_relations() -> list[RelationSpec]:
    # right sides are rational multiples of zeta(4) = pi^4/90
    z4 = Monomial(pi=4)
    return [
        _bar_relation("r4b", ((_Q(1), "B"), (_Q(-5, 2), "A")), 4,
                      ((_Q(343, 128) / 90, z4),)),
        _bar_relation("r4c", ((_Q(1), "C"), (_Q(-7, 9), "A")), 4,
                      ((_Q(5, 54) / 90, z4),)),
        _bar_relation("r4d", ((_Q(1), "D"), (_Q(-1, 3), "A")), 4,
                      ((_Q(-313, 3456) / 90, z4),)),
    ]


def order5_relations() -> list[RelationSpec]:
    lam5 = _lam(5)

    def mult(q: Fraction) -> tuple[tuple[Fraction, Monomial], ...]:
        return ((q * lam5[0], lam5[1]),)

    return [
        _tilde_relation("qef", ((_Q(1), "B"),), 5, mult(_Q(69, 8))),
        _tilde_relation("r5c", ((_Q(1), "C"),), 5, mult(_Q(13, 81))),
        _tilde_relation("r5d", ((_Q(1), "D"),), 5, mult(_Q(-19, 108))),
        _tilde_relation("r5e", ((_Q(1), "E"),), 5, mult(_Q(-213, 1250))),
    ]


@functools.cache
def _derived() -> dict[str, Formula]:
    out: dict[str, Formula] = {}

    def put(f: Formula, name: str | None = None, label: str = "") -> None:
        g = Formula(name or f.name, f.scale, f.terms, f.description,
                    label or f.label)
        out[g.name] = g

    r2 = solve_formulas(order2_im_relations(),
                        [Monomial(pi=1, log2=1)])
    put(r2[0], label="n2")

    b3, plsq = solve_formulas(order3_im_relations(),
                              [Monomial(beta=3), Monomial(pi=1, log2=2)])
    put(b3, name="beta3_alt", label="n3")
    put(plsq, label="n3")
    put(Formula("pi3", _Q(32), b3.terms,
                "pi^3 as 32 times the solved beta(3) form.", "n3"))

    (p2l,) = solve_formulas(order3_re_relations(), [Monomial(pi=2, log2=1)])
    put(p2l, label="n3")

    (p2l2,) = solve_formulas(order4_relations(), [Monomial(pi=2, log2=2)])
    put(p2l2, label="n4")

    p2l3, p4l = solve_formulas(order5_relations(),
                               [Monomial(pi=2, log2=3),
                                Monomial(pi=4, log2=1)])
    put(p2l3, label="n5")
    put(p4l, label="n5")
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

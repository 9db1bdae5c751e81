"""Ladder combinations of polylogarithms and their identity checks.

The eight base sequences A..H are real or imaginary parts of Li_n at
arguments built from the sixteenth roots of unity.  Bar and tilde
variants absorb powers of log 2 and lower-order zeta values so that
successive combinations (U..Z at the deep end) vanish through order
6, 8 and 10 and tie zeta(7), zeta(9) and zeta(11) to the base values
at order 11.  Every identity in the catalog is checked numerically:
a report passes when the residual is below 2**-(bits-64).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .errors import (DomainError, PrecisionError, UndefinedOrder,
                     UnknownName)
from .mp import special as _sp
from .mp.cplx import MpComplex, cln
from .mp.real import MpReal, log2_const, pi_const, pow_int
from .series import (LADDER_NAMES, Monomial, bar_monomials, eval_formula,
                     eval_series, ladder_terms, polylog_pattern, tilde_parts)

__all__ = ["CheckReport", "RELATIONS", "check_all", "check_li5_identity",
           "check_relation", "eval_ladder", "li5", "monomial",
           "relation_names"]

_Q = Fraction

# zeta(2m) = (coef) * pi^(2m)
_EVEN_ZETA = {2: _Q(1, 6), 4: _Q(1, 90), 6: _Q(1, 945), 8: _Q(1, 9450),
              10: _Q(1, 93555)}


@dataclass(frozen=True)
class CheckReport:
    name: str
    bits: int
    log2_residual: float
    passed: bool


# ----------------------------------------------------------------------
# ladder evaluation

_LiKey = tuple[str, int, str]
_LiMap = dict[_LiKey, Fraction]
_MonMap = dict[Monomial, Fraction]

# deeper combinations: coefficients on tilde/deep names, the zeta(2m)
# correction coefficient, and 2m itself
_DEEP: dict[str, tuple[tuple[tuple[Fraction, str], ...], Fraction, int]] = {
    "U": (((_Q(13, 23), "Btilde"), (_Q(-243, 8), "Ctilde")),
          _Q(-11041, 2048), 6),
    "V": (((_Q(19, 23), "Btilde"), (_Q(81, 2), "Dtilde")),
          _Q(-87101, 12288), 6),
    "W": (((_Q(71, 23), "Btilde"), (_Q(625, 4), "Etilde")),
          _Q(-1193757, 40960), 6),
    "X": (((_Q(463), "V"), (_Q(-636), "U")),
          _Q(-1323636287, 1769472), 8),
    "Y": (((_Q(91, 25), "V"), (_Q(-265, 288), "W")),
          _Q(-602893337, 113246208), 8),
    "Z": (((_Q(2087, 4823), "Y"), (_Q(-37403, 12057500), "X")),
          _Q(-12227440999, 135895449600), 10),
}

LADDER_KEYS = (tuple(LADDER_NAMES)
               + tuple(c + "bar" for c in LADDER_NAMES)
               + tuple(c + "tilde" for c in "BCDE") + ("Htilde",)
               + tuple(_DEEP))


def _add_li(li: _LiMap, coef: Fraction,
            terms: Sequence[tuple[Fraction, str, int, str]]) -> None:
    for c, arg, n, part in terms:
        key = (arg, n, part)
        li[key] = li.get(key, _Q(0)) + coef * c


def _add_mons(mons: _MonMap, coef: Fraction,
              terms: Sequence[tuple[Fraction, Monomial]]) -> None:
    for c, m in terms:
        mons[m] = mons.get(m, _Q(0)) + coef * c


def _add_zeta_l(mons: _MonMap, coef: Fraction, two_m: int, j: int) -> None:
    """coef * zeta(2m) * L_j with L_j = (-log 2)^j / j!, folded into pi."""
    if j < 0:
        return
    c = coef * _EVEN_ZETA[two_m] * _Q(-1) ** j / factorial(j)
    m = Monomial(pi=two_m, log2=j)
    mons[m] = mons.get(m, _Q(0)) + c


def _add_beta3_l(mons: _MonMap, coef: Fraction, j: int) -> None:
    """coef * beta(3) * L_j; beta(3) = pi^3/32."""
    if j < 0:
        return
    c = coef * _Q(1, 32) * _Q(-1) ** j / factorial(j)
    m = Monomial(pi=3, log2=j)
    mons[m] = mons.get(m, _Q(0)) + c


def _bar_parts(name: str, n: int) -> tuple[_LiMap, _MonMap]:
    li: _LiMap = {}
    mons: _MonMap = {}
    _add_li(li, _Q(1), ladder_terms(name, n))
    _add_mons(mons, _Q(1), bar_monomials(name, n))
    return li, mons


def _htilde_parts(n: int) -> tuple[_LiMap, _MonMap]:
    # Hbar - (4/5) Fbar + (23/25) beta(3) L_{n-3}
    #      - (648/625) {Gbar - (2/3) Fbar + beta(3) L_{n-3}}
    li: _LiMap = {}
    mons: _MonMap = {}
    for coef, bar in ((_Q(1), "H"), (_Q(-4, 5), "F"),
                      (_Q(-648, 625), "G"), (_Q(648, 625) * _Q(2, 3), "F")):
        bl, bm = _bar_parts(bar, n)
        for k, c in bl.items():
            li[k] = li.get(k, _Q(0)) + coef * c
        for m, c in bm.items():
            mons[m] = mons.get(m, _Q(0)) + coef * c
    _add_beta3_l(mons, _Q(23, 25) - _Q(648, 625), n - 3)
    return li, mons


def _parts(name: str, n: int) -> tuple[_LiMap, _MonMap]:
    if name in LADDER_NAMES:
        li: _LiMap = {}
        _add_li(li, _Q(1), ladder_terms(name, n))
        return li, {}
    if len(name) == 4 and name.endswith("bar") and name[0] in LADDER_NAMES:
        return _bar_parts(name[0], n)
    if name.endswith("tilde") and name[0] in "BCDE":
        lt, mt = tilde_parts(name[0], n)
        li, mons = {}, {}
        _add_li(li, _Q(1), lt)
        _add_mons(mons, _Q(1), mt)
        return li, mons
    if name == "Htilde":
        return _htilde_parts(n)
    if name in _DEEP:
        combo, zc, two_m = _DEEP[name]
        li, mons = {}, {}
        for coef, sub in combo:
            sl, sm = _parts(sub, n)
            for k, c in sl.items():
                li[k] = li.get(k, _Q(0)) + coef * c
            for m, c in sm.items():
                mons[m] = mons.get(m, _Q(0)) + coef * c
        _add_zeta_l(mons, zc, two_m, n - two_m)
        return li, mons
    raise UnknownName(name)


def _li_part_val(arg: str, n: int, part: str, wp: int) -> MpReal:
    acc = MpReal.zero(wp)
    for c, spec in polylog_pattern(arg, n, part):
        acc = acc.add(eval_series(spec, wp).mul(c, wp), wp)
    return acc


def _li_cplx_val(arg: str, n: int, wp: int) -> MpComplex:
    return MpComplex(_li_part_val(arg, n, "re", wp),
                     _li_part_val(arg, n, "im", wp))


def _eval_parts(li: _LiMap, mons: _MonMap, wp: int) -> MpReal:
    acc = MpReal.zero(wp)
    for (arg, n, part), c in li.items():
        if c:
            acc = acc.add(_li_part_val(arg, n, part, wp).mul(c, wp), wp)
    for m, c in mons.items():
        if c:
            acc = acc.add(m.value(wp).mul(c, wp), wp)
    return acc


def eval_ladder(name: str, n: int, prec: int) -> MpReal:
    """Value of a ladder sequence at order n.

    Accepts the base names A..H, their bar forms (Abar..Hbar), the
    tilde forms Btilde..Etilde and Htilde, and the deep combinations
    U..Z.  Orders outside 1..11 are not part of the scheme.
    """
    if name not in LADDER_KEYS:
        raise UnknownName(name)
    if not 1 <= n <= 11:
        raise UndefinedOrder(f"order {n} is outside 1..11")
    wp = prec + 32
    li, mons = _parts(name, n)
    return _eval_parts(li, mons, wp).round_to(prec)


def monomial(a: int, b: int, zetas: Sequence[tuple[int, int]],
             prec: int) -> MpReal:
    """pi^a * log(2)^b * product of zeta(n_i)^(e_i)."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    wp = prec + 32
    v = MpReal.from_int(1, wp)
    if a:
        v = v.mul(pow_int(pi_const(wp), a, wp), wp)
    if b:
        v = v.mul(pow_int(log2_const(wp), b, wp), wp)
    for order, expo in zetas:
        if order < 2:
            raise DomainError("zeta factors need order >= 2")
        if expo < 0:
            raise ValueError("exponents must be nonnegative")
        v = v.mul(pow_int(_sp.zeta(order, wp), expo, wp), wp)
    return v.round_to(prec)


# ----------------------------------------------------------------------
# the extended Li_5 evaluator used by the 34-term functional equation

def _zeta5_val(wp: int) -> MpReal:
    return _sp.zeta(5, wp)


def _zeta_int_neg(s: int) -> Fraction:
    """zeta at integers <= 0 (exact rationals via Bernoulli numbers)."""
    if s == 0:
        return _Q(-1, 2)
    j = -s
    if j % 2 == 0:
        return _Q(0)
    return -_sp.bernoulli(j + 1) / (j + 1)


def _li5_mu(z: MpComplex, wp: int) -> MpComplex:
    """Li_5(e^mu) for z on the annulus 3/4 < |z| < 4/3, z != 1."""
    mu = cln(z, wp)
    pi2 = pow_int(pi_const(wp), 2, wp)
    pi4 = pow_int(pi2, 2, wp)
    zeta = {0: MpComplex.from_real(_zeta5_val(wp)),
            1: MpComplex.from_real(pi4.mul(_Q(1, 90), wp)),
            2: MpComplex.from_real(_sp.zeta(3, wp)),
            3: MpComplex.from_real(pi2.mul(_Q(1, 6), wp))}
    one = MpComplex.from_int(1, wp)
    total = MpComplex.from_int(0, wp)
    power = one                      # mu^k / k!
    tiny = _Q(1, 1 << (2 * wp + 32))
    k = 0
    while True:
        if k <= 3:
            total = total + zeta[k] * power
        elif k == 4:
            # the log-weighted replacement of the missing zeta(1) term
            h4 = MpComplex.from_fractions(_Q(25, 12), _Q(0), wp)
            total = total + power * (h4 - cln(-mu, wp))
        else:
            c = _zeta_int_neg(5 - k)
            if c:
                # the rational coefficients grow with Bernoulli numbers,
                # so the cutoff must look at the whole term
                term = power * c
                total = total + term
                if k > 12 and term.abs2(64)._cmp(tiny) < 0:
                    break
        power = power * mu / (k + 1)
        k += 1
    return total


def li5(z: MpComplex, prec: int) -> MpComplex:
    """Li_5 anywhere in the complex plane (principal branch off [1, oo)).

    Inside |z| <= 3/4 the defining series is summed; outside |z| >= 4/3
    the inversion formula maps back into the disk; the remaining annulus
    goes through the expansion of Li_5(e^mu) around mu = 0.  The four
    unit-circle landmarks 1, -1, i, -i short-circuit to closed forms.
    """
    wp = prec + 48
    re, im = z.re, z.im
    if im.is_zero and re.is_zero:
        return MpComplex.from_int(0, prec)
    z5 = _zeta5_val(wp)
    if im.is_zero and re == 1:
        return MpComplex.from_real(z5.round_to(prec))
    if im.is_zero and re == -1:
        return MpComplex.from_real(z5.mul(_Q(-15, 16), prec))
    if re.is_zero and (im == 1 or im == -1):
        pi5 = pow_int(pi_const(wp), 5, wp)
        r = z5.mul(_Q(-15, 512), wp)
        i = pi5.mul(_Q(5, 1536), wp)
        return MpComplex(r, i if im == 1 else -i).round_to(prec)
    a2 = z.abs2(wp + 8)
    if a2._cmp(_Q(9, 16)) <= 0:
        return _sp.polylog(5, z.round_to(wp), wp).round_to(prec)
    if a2._cmp(_Q(16, 9)) < 0:
        return _li5_mu(z.round_to(wp), wp).round_to(prec)
    inner = li5(MpComplex.from_int(1, wp) / z, wp)
    lnmz = cln(-z, wp)
    ln2 = lnmz * lnmz
    pi2 = pow_int(pi_const(wp), 2, wp)
    pi4 = pow_int(pi2, 2, wp)
    out = (inner
           - lnmz * ln2 * ln2 * _Q(1, 120)
           - lnmz * ln2 * MpComplex.from_real(pi2) * _Q(1, 36)
           - lnmz * MpComplex.from_real(pi4) * _Q(7, 360))
    return out.round_to(prec)


def check_li5_identity(x: MpComplex, y: MpComplex,
                       prec: int) -> CheckReport:
    """Residual of the 34-term two-variable Li_5 functional equation."""
    wp = prec + 64
    one = MpComplex.from_int(1, wp)
    x = x.round_to(wp)
    y = y.round_to(wp)
    xi = one - x
    eta = one - y
    if x.is_zero or y.is_zero or xi.is_zero or eta.is_zero:
        raise DomainError("x and y must avoid 0 and 1")
    al = -x / xi
    be = -y / eta
    plus = (x * al / (y * be), x * al * y * eta, x * al * be / eta,
            x * xi * y * be, x * xi / (y * eta), x * xi * eta / be,
            al * y * be / xi, al / (xi * y * eta), al * eta / (xi * be))
    minus = (x * y, x * be, x * eta, x / y, x / be, x / eta,
             al * y, al * be, al * eta, al / y, al / be, al / eta,
             xi * y, xi * be, xi * eta, y / xi, be / xi, eta / xi)
    singles = (x, al, xi, y, be, eta)
    lhs = MpComplex.from_int(0, wp)
    for z in plus:
        lhs = lhs + li5(z, wp)
    for z in minus:
        lhs = lhs - li5(z, wp) * 9
    for z in singles:
        lhs = lhs + li5(z, wp) * 18
    lhs = lhs - MpComplex.from_real(_zeta5_val(wp)) * 18
    lx, ly = cln(x, wp), cln(y, wp)
    lxi, leta = cln(xi, wp), cln(eta, wp)
    lxi2 = lxi * lxi
    leta2 = leta * leta
    pi2 = MpComplex.from_real(pow_int(pi_const(wp), 2, wp))
    pi4 = MpComplex.from_real(pow_int(pi_const(wp), 4, wp))
    rhs = (lxi * lxi2 * lxi2 * _Q(3, 10)
           + (ly - lx) * lxi2 * lxi2 * _Q(3, 4)
           + (ly * 3 - leta) * leta2 * lxi2 * _Q(3, 2)
           + pi2 * (lxi - leta * 3) * lxi2 * _Q(1, 2)
           + pi4 * lxi * _Q(1, 5))
    resid = (lhs - rhs).abs_val(wp)
    return _report(f"li5({_cfmt(x)},{_cfmt(y)})", prec, resid)


def _cfmt(z: MpComplex) -> str:
    return f"{z.re.to_float():g}{z.im.to_float():+g}i"


# ----------------------------------------------------------------------
# relation catalog

def _log2_mag(x: MpReal) -> float:
    if x.is_zero:
        return float("-inf")
    return float(x.man.bit_length() + x.exp)


def _report(name: str, prec: int, resid: MpReal) -> CheckReport:
    mag = _log2_mag(resid)
    return CheckReport(name, prec, mag, mag <= -(prec - 64))


@dataclass(frozen=True)
class Relation:
    name: str
    status: str                    # "proven" or "numeric"
    members: Callable[[int], list[MpComplex]]
    min_bits: int = 256


RELATIONS: dict[str, Relation] = {}


def _rel(name: str, status: str, members: Callable[[int], list[MpComplex]],
         min_bits: int = 256) -> None:
    RELATIONS[name] = Relation(name, status, members, min_bits)


def relation_names() -> list[str]:
    return list(RELATIONS)


def _mc(x: MpReal) -> MpComplex:
    return MpComplex.from_real(x)


def _lad_side(lads: Sequence[tuple[Fraction, str, int]] = (),
              mons: Sequence[tuple[Fraction, Monomial]] = (),
              lis: Sequence[tuple[Fraction, str, int, str]] = ()):
    def side(wp: int) -> MpComplex:
        acc = MpReal.zero(wp)
        for c, name, n in lads:
            li, mm = _parts(name, n)
            acc = acc.add(_eval_parts(li, mm, wp).mul(c, wp), wp)
        for c, m in mons:
            acc = acc.add(m.value(wp).mul(c, wp), wp)
        for c, arg, n, part in lis:
            acc = acc.add(_li_part_val(arg, n, part, wp).mul(c, wp), wp)
        return _mc(acc)
    return side


def _zero(wp: int) -> MpComplex:
    return MpComplex.from_int(0, wp)


def _chain(*sides):
    def members(wp: int) -> list[MpComplex]:
        return [s(wp) for s in sides]
    return members


def _lam_mon(n: int) -> tuple[Fraction, Monomial]:
    """lambda(n) = (1 - 2^-n) zeta(n)."""
    return _Q((1 << n) - 1, 1 << n), Monomial(zeta=n)


def _bars_zero(n: int, names: str):
    return _chain(_zero, *[_lad_side(lads=((_Q(1), c + "bar", n),))
                           for c in names])


_rel("r1", "proven", _bars_zero(1, "ABCDEFGH"))
_rel("r2", "proven", _bars_zero(2, "ABCDE"))
_rel("i2", "proven", _chain(
    _lad_side(lads=((_Q(1, 2), "Fbar", 2),)),
    _lad_side(lads=((_Q(3, 4), "Gbar", 2),)),
    _lad_side(lads=((_Q(5, 8), "Hbar", 2),)),
    _lad_side(mons=((_Q(1), Monomial(beta=2)),))))
_rel("r3", "proven", _chain(
    _lad_side(mons=(_lam_mon(3),)),
    _lad_side(lads=((_Q(1), "Abar", 3),)),
    _lad_side(lads=((_Q(2, 5), "Bbar", 3),)),
    _lad_side(lads=((_Q(9, 7), "Cbar", 3),)),
    _lad_side(lads=((_Q(3), "Dbar", 3),)),
    _lad_side(lads=((_Q(25, 6), "Ebar", 3),))))
_rel("i3", "proven", _chain(
    _lad_side(mons=((_Q(1, 32), Monomial(pi=3)),)),
    _lad_side(lads=((_Q(2, 3), "Fbar", 3), (_Q(-1), "Gbar", 3))),
    _lad_side(lads=((_Q(20, 23), "Fbar", 3), (_Q(-25, 23), "Hbar", 3)))))

# order-4 bar relations; table kept separate so a test can perturb it
_R4_RHS: dict[str, tuple[str, Fraction, Fraction]] = {
    "r4b": ("B", _Q(5, 2), _Q(343, 128)),
    "r4c": ("C", _Q(7, 9), _Q(5, 54)),
    "r4d": ("D", _Q(1, 3), _Q(-313, 3456)),
    "r4e": ("E", _Q(6, 25), _Q(-1547, 16000)),
}


def _r4_members(key: str):
    def members(wp: int) -> list[MpComplex]:
        name, acoef, z4c = _R4_RHS[key]
        lhs = _lad_side(lads=((_Q(1), name + "bar", 4),
                              (-acoef, "Abar", 4)))
        rhs = _lad_side(mons=((z4c * _Q(1, 90), Monomial(pi=4)),))
        return [lhs(wp), rhs(wp)]
    return members


for _k in _R4_RHS:
    _rel(_k, "proven", _r4_members(_k))

_rel("i4g", "proven", _chain(
    _lad_side(lads=((_Q(1), "Gbar", 4), (_Q(-2, 3), "Fbar", 4)),
              mons=((_Q(-1, 32), Monomial(pi=3, log2=1)),)),
    _lad_side(mons=((_Q(-80, 27), Monomial(beta=4)),))))
_rel("i4h", "proven", _chain(
    _lad_side(lads=((_Q(1), "Hbar", 4), (_Q(-4, 5), "Fbar", 4)),
              mons=((_Q(-23, 25) * _Q(1, 32), Monomial(pi=3, log2=1)),)),
    _lad_side(mons=((_Q(-384, 125), Monomial(beta=4)),))))

_rel("r5c", "proven", _chain(
    _lad_side(lads=((_Q(1), "Ctilde", 5),)),
    _lad_side(mons=((_Q(13, 81) * _lam_mon(5)[0], Monomial(zeta=5)),))))
_rel("r51", "proven", _chain(
    _lad_side(lads=((_Q(1), "Btilde", 5), (_Q(9, 2), "Dtilde", 5))),
    _lad_side(mons=((_Q(47, 6) * _lam_mon(5)[0], Monomial(zeta=5)),))))
_rel("r52", "proven", _chain(
    _lad_side(lads=((_Q(1), "Btilde", 5), (_Q(-729, 8), "Dtilde", 5),
                    (_Q(625, 16), "Etilde", 5))),
    _lad_side(mons=((_Q(18) * _lam_mon(5)[0], Monomial(zeta=5)),))))
_rel("qef", "numeric", _chain(
    _lad_side(lads=((_Q(1), "Btilde", 5),)),
    _lad_side(mons=((_Q(69, 8) * _lam_mon(5)[0], Monomial(zeta=5)),))))
_rel("n5h", "numeric", _chain(
    _lad_side(lads=((_Q(1), "Htilde", 5),)),
    _lad_side(mons=((_Q(-1567, 3125) * _Q(5, 1536), Monomial(pi=5)),))))
_rel("r5", "proven", _chain(
    _lad_side(mons=((_Q(31, 32), Monomial(zeta=5)),)),
    _lad_side(lads=((_Q(8, 69), "Btilde", 5),)),
    _lad_side(lads=((_Q(81, 13), "Ctilde", 5),)),
    _lad_side(lads=((_Q(-108, 19), "Dtilde", 5),)),
    _lad_side(lads=((_Q(-1250, 213), "Etilde", 5),))))
_rel("b6", "numeric", _chain(
    _lad_side(mons=((_Q(61, 3), Monomial(beta=6)),)),
    _lad_side(lads=((_Q(-3125, 256), "Htilde", 6),),
              mons=((_Q(1567, 256) * _Q(5, 1536),
                     Monomial(pi=5, log2=1)),))))
_rel("z7", "numeric", _chain(
    _lad_side(mons=((_Q(340, 23) * _lam_mon(7)[0], Monomial(zeta=7)),)),
    _lad_side(lads=((_Q(384, 463), "U", 7),)),
    _lad_side(lads=((_Q(32, 53), "V", 7),)),
    _lad_side(lads=((_Q(125, 819), "W", 7),))))
_rel("z9", "numeric", _chain(
    _lad_side(mons=((_Q(217, 864) * _lam_mon(9)[0], Monomial(zeta=9)),)),
    _lad_side(lads=((_Q(1, 10435), "X", 9),)),
    _lad_side(lads=((_Q(500, 37403), "Y", 9),))))
_rel("z11", "numeric", _chain(
    _lad_side(mons=((_Q(2047, 2048), Monomial(zeta=11)),)),
    _lad_side(lads=((_Q(129600000, 41323873), "Z", 11),))))
_rel("cat", "proven", _chain(
    _lad_side(mons=((_Q(1), Monomial(beta=2)),)),
    _lad_side(lads=((_Q(3, 2), "F", 2), (_Q(-3, 2), "G", 2))),
    _lad_side(lis=((_Q(3), "(1+i)/2", 2, "im"),
                   (_Q(-1), "(1+i)/4", 2, "im"),
                   (_Q(3, 2), "-i/2", 2, "im")))))


# --- dilogarithm and order-1 identities (complex members) ---

def _wval(wp: int) -> MpComplex:
    return MpComplex.from_fractions(_Q(1, 2), _Q(1, 2), wp)


def _li2_minus_i(wp: int) -> MpComplex:
    # Li_2(-i) = -pi^2/48 - i G, with G summed from its digit formula
    g = eval_formula("catalan", wp)
    re = pow_int(pi_const(wp), 2, wp).mul(_Q(-1, 48), wp)
    return MpComplex(re, -g)


def _ln_sq(z: MpComplex, wp: int) -> MpComplex:
    l = cln(z, wp)
    return l * l


def _ipi(c: Fraction):
    def side(wp: int) -> MpComplex:
        return MpComplex(MpReal.zero(wp), pi_const(wp).mul(c, wp))
    return side


def _li1_log(arg: str, wp: int) -> MpComplex:
    from .exact import ARGUMENTS
    z = ARGUMENTS[arg].to_mp(wp)
    return -cln(MpComplex.from_int(1, wp) - z, wp)


def _half_li1_half(wp: int) -> MpComplex:
    return _mc(_li_part_val("1/2", 1, "re", wp).mul(_Q(1, 2), wp))


_rel("w21", "proven", _chain(
    lambda wp: _li_cplx_val("(1+i)/2", 2, wp) * 2,
    lambda wp: (-_ln_sq(MpComplex.from_fractions(_Q(1, 2), _Q(-1, 2), wp), wp)
                - _li2_minus_i(wp) * 2)))
_rel("w23", "proven", _chain(
    lambda wp: _li_cplx_val("(1-i)/4", 2, wp) * 2,
    lambda wp: ((_li_cplx_val("i/2", 2, wp) - _ln_sq(_wval(wp), wp)) * 3
                + _li2_minus_i(wp) * 4)))
_rel("w25", "proven", _chain(
    lambda wp: _li_cplx_val("(1+i)/8", 2, wp) * 2,
    lambda wp: ((_li_cplx_val("i/2", 2, wp) * 2 - _ln_sq(_wval(wp), wp)) * 5
                + _li2_minus_i(wp) * 8)))
_rel("h21", "proven", _chain(
    lambda wp: _mc((-_li_cplx_val("(1+i)/2", 2, wp)
                    - _ln_sq(MpComplex.from_fractions(_Q(1, 2), _Q(-1, 2),
                                                      wp), wp)
                    * _Q(1, 2)).re),
    _lad_side(mons=((_Q(-1, 48), Monomial(pi=2)),))))
_rel("h22", "proven", _chain(
    _lad_side(lis=((_Q(1), "1/2", 2, "re"),)),
    _lad_side(mons=((_Q(1, 12), Monomial(pi=2)),
                    (_Q(-1, 2), Monomial(log2=2))))))
_rel("h23", "proven", _chain(
    _lad_side(lis=((_Q(1), "-i/sqrt8", 2, "re"),
                   (_Q(-6), "i/sqrt2", 2, "re"))),
    _lad_side(mons=((_Q(1, 12), Monomial(pi=2)),
                    (_Q(-3, 8), Monomial(log2=2))))))

_rel("w11", "proven", _chain(
    lambda wp: _li_cplx_val("(1+i)/2", 1, wp) - _half_li1_half(wp),
    _ipi(_Q(1, 4))))
_rel("w13", "proven", _chain(
    lambda wp: (_li_cplx_val("(1-i)/4", 1, wp)
                - _li_cplx_val("i/2", 1, wp) - _half_li1_half(wp)),
    _ipi(_Q(-1, 4))))
_rel("w15", "proven", _chain(
    lambda wp: (_li_cplx_val("(1+i)/8", 1, wp)
                - _li_cplx_val("i/2", 1, wp) * 2 - _half_li1_half(wp)),
    _ipi(_Q(-1, 4))))
_rel("h1", "proven", _chain(
    lambda wp: (_li1_log("-i/sqrt8", wp) - _li1_log("i/sqrt2", wp) * 2
                - _half_li1_half(wp)),
    _ipi(_Q(-1, 2))))

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
_rel("f11", "numeric", _chain(
    _lad_side(mons=((_Q(_F11_LHS), Monomial(zeta=11)),)),
    _lad_side(lis=tuple((_Q(c), arg, 11, "re") for c, arg in _F11_LIS),
              mons=tuple((_Q(c), m) for c, m in _F11_MONS))),
    min_bits=1024)


def check_relation(name: str, prec: int) -> CheckReport:
    """Evaluate every member of a catalog identity and compare them.

    The residual is the largest pairwise deviation; the check passes
    when it stays below 2**-(prec-64).
    """
    rel = RELATIONS.get(name)
    if rel is None:
        raise UnknownName(name)
    if prec < rel.min_bits:
        raise PrecisionError(
            f"{name} needs at least {rel.min_bits} bits, got {prec}")
    wp = prec + 32
    vals = rel.members(wp)
    resid = MpReal.zero(wp)
    for v in vals[1:]:
        d = (v - vals[0]).abs_val(wp)
        if d._cmp(resid) > 0:
            resid = d
    return _report(name, prec, resid)


def check_all(prec: int) -> list[CheckReport]:
    """Reports for every identity whose bit requirement prec meets."""
    return [check_relation(name, prec) for name, rel in RELATIONS.items()
            if prec >= rel.min_bits]

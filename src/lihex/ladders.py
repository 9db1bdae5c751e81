"""Numeric checks of the ladder identities, and the Li_5 evaluator.

The ladders (A..H, their bar and tilde forms, U..Z) and the linear
identities among them are defined once, as exact linear forms, in
`series`: `series.ladder` builds a ladder and `series.IDENTITIES` holds
the linear identities, which `series` also solves for the derived
catalog formulas.  This module evaluates those forms in fixed point
and adds the identities whose members are complex (dilogarithm and
order-1 relations through complex logarithms) and the two-variable
Li_5 functional equation, which `hyper.CHECKS["order5"]` checks
through `li5`.  Arguments are the names of `series.ARGUMENTS`; the one
relation that needs z itself, h1 through Li_1(z) = -log(1 - z), reads
it from that table.  A report passes when the residual is below
2**-(bits-64).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, PrecisionError, UnknownName
from .mp import special as _sp
from .mp.cplx import MpComplex, cln
from .mp.real import MpReal, pi_const, pow_int
from .series import (IDENTITIES, Identity, Monomial, SeriesSpec,
                     _argument_value, eval_formula, eval_series, ladder,
                     polylog_pattern)

__all__ = ["CheckReport", "RELATIONS", "check_all", "check_li5_identity",
           "check_relation", "eval_ladder", "li5", "relation_names"]

_Q = Fraction


@dataclass(frozen=True)
class CheckReport:
    name: str
    bits: int
    log2_residual: float
    passed: bool


# ----------------------------------------------------------------------
# evaluation of linear forms

def _eval_form(form: dict, wp: int) -> MpReal:
    """Sum of c * eval_series(atom) and c * Monomial.value over a form."""
    acc = MpReal.zero(wp)
    for atom, c in form.items():
        if c:
            v = (eval_series(atom, wp) if isinstance(atom, SeriesSpec)
                 else atom.value(wp))
            acc = acc.add(v.mul(c, wp), wp)
    return acc


def _li_part_val(arg: str, n: int, part: str, wp: int) -> MpReal:
    return _eval_form({s: c for c, s in polylog_pattern(arg, n, part)}, wp)


def _li_cplx_val(arg: str, n: int, wp: int) -> MpComplex:
    return MpComplex(_li_part_val(arg, n, "re", wp),
                     _li_part_val(arg, n, "im", wp))


def eval_ladder(name: str, n: int, prec: int) -> MpReal:
    """Value of a ladder sequence at order n.

    Accepts the names that `series.ladder` defines: A..H, Abar..Hbar,
    Btilde..Etilde, Htilde and U..Z.  Orders outside 1..11 are not part
    of the scheme.
    """
    return _eval_form(ladder(name, n), prec + 32).round_to(prec)


# ----------------------------------------------------------------------
# the extended Li_5 evaluator used by the 34-term functional equation

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
    zeta = {0: MpComplex.from_real(_sp.zeta(5, wp)),
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
    z5 = _sp.zeta(5, wp)
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
    """Residual of the 34-term two-variable Li_5 functional equation.

    With principal branches the equation has been checked to hold for
    real 0 < x, y < 1 and at (1/2, i), (1/2, -i) and (i, i); the points
    of `hyper.CHECKS["order5"]` are among these.  It does not hold
    everywhere: at x = (1+i)/2, y = 1/3 the residual is about 0.11,
    although `li5` matches an independent evaluation at all 33
    arguments there.
    """
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
    lhs = lhs - MpComplex.from_real(_sp.zeta(5, wp)) * 18
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


def _mc(x: MpReal) -> MpComplex:
    return MpComplex.from_real(x)


def _linear_members(ident: Identity) -> Callable[[int], list[MpComplex]]:
    def members(wp: int) -> list[MpComplex]:
        return [_mc(_eval_form(f, wp)) for f in ident.forms()]
    return members


# the linear identities come from the table in `series`; the complex
# ones below compare values of Li_n and of complex logarithms
RELATIONS: dict[str, Relation] = {
    name: Relation(name, i.status, _linear_members(i), i.min_bits)
    for name, i in IDENTITIES.items()}


def _rel(name: str, status: str,
         members: Callable[[int], list[MpComplex]]) -> None:
    RELATIONS[name] = Relation(name, status, members)


def relation_names() -> list[str]:
    return list(RELATIONS)


def _chain(*sides):
    def members(wp: int) -> list[MpComplex]:
        return [s(wp) for s in sides]
    return members


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
    return -cln(MpComplex.from_int(1, wp) - _argument_value(arg, wp), wp)


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
    lambda wp: _mc(Monomial(pi=2).value(wp).mul(_Q(-1, 48), wp))))
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

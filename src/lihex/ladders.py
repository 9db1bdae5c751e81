"""Certified checks of the ladder identities, and the Li_5 evaluator.

The ladders (A..H, their bar and tilde forms, U..Z) and the identities
among them are defined once, as exact linear forms, in `series`:
`series.ladder` builds a ladder and `series.IDENTITIES` holds every
relation as real rows, a complex relation (the dilogarithm and order-1
relations through complex logarithms) as one row per part.  `series`
also evaluates them, by its one fixed-point evaluator; this module
checks.  Each side minus the first is one integer coefficient vector
over a common denominator, summed over atoms that enter at wp bits with
a counted error bound in ulps, and a report passes only when the
residual plus its bound is at most 2**-(bits-64), which certifies the
identity to that accuracy.  wp is prec + 32 bits, more for a row whose
coefficient mass passes 2^32 (f11).  `eval_ladder` reads one ladder's
value from the same evaluator.

The module also holds the two-variable Li_5 functional equation, which
`hyper.CHECKS["order5"]` checks through `li5`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PrecisionError, UnknownName
from .mp import special as _sp
from .mp.cplx import MpComplex, cln
from .mp.real import MpReal, pi_const, pow_int
from .series import (IDENTITIES, Identity, IntegerRows, _fixed_sums,
                     _row_value, integer_rows, ladder)

__all__ = ["CheckReport", "RELATIONS", "check_all", "check_li5_identity",
           "check_relation", "eval_ladder", "li5", "relation_names"]

_Q = Fraction


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one check at ``bits`` bits.

    ``log2_residual`` is the smallest e with |residual| < 2^e (minus
    infinity for an exact zero).  For an identity of the table,
    ``log2_bound`` is the same for the counted bound on the error of
    the computed residual, and a pass certifies that the true residual
    is at most 2^-(bits-64): the computed residual plus its bound stays
    there.  Checks that state no bound (the Li_5 equation and the
    batteries) carry None and pass on the computed residual alone.
    """

    name: str
    bits: int
    log2_residual: float
    passed: bool
    log2_bound: float | None = None


def _log2_top(num: int, den: int) -> float:
    """The smallest e with num < den * 2^e for num >= 0, den > 0: minus
    infinity for num = 0."""
    if not num:
        return float("-inf")
    e = num.bit_length() - den.bit_length()
    return float(e if (num < den << e if e >= 0 else num << -e < den)
                 else e + 1)


@functools.cache
def _ladder_rows(name: str, n: int) -> IntegerRows:
    return integer_rows([ladder(name, n)])


def eval_ladder(name: str, n: int, prec: int) -> MpReal:
    """Value of a ladder sequence at order n.

    Accepts the names that `series.ladder` defines: A..H, Abar..Hbar,
    Btilde..Etilde, Htilde and U..Z.  Orders outside 1..11 are not part
    of the scheme.
    """
    return _row_value(_ladder_rows(name, n), prec)


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
    return _report(f"li5({_cfmt(x)},{_cfmt(y)})", prec, resid, 64)


def _cfmt(z: MpComplex) -> str:
    return f"{z.re.to_float():g}{z.im.to_float():+g}i"


# ----------------------------------------------------------------------
# relation catalog

def _log2_mag(x: MpReal) -> float:
    if x.is_zero:
        return float("-inf")
    return float(x.man.bit_length() + x.exp)


def _report(name: str, prec: int, resid: MpReal, slack: int) -> CheckReport:
    """A check without a stated bound: it passes when the computed
    residual is at most 2^-(prec-slack)."""
    mag = _log2_mag(resid)
    return CheckReport(name, prec, mag, mag <= -(prec - slack))


@dataclass(frozen=True)
class Relation:
    """A catalog relation: real identity rows of the table, one per part
    for a complex relation."""

    name: str
    status: str                    # "proven" or "numeric"
    rows: tuple[Identity, ...]
    min_bits: int = 256


# every identity of the table is a row of the relation that its name
# names before the dot (w21.re and w21.im make w21)
def _table_relations() -> dict[str, Relation]:
    out: dict[str, Relation] = {}
    for ident in IDENTITIES.values():
        name = ident.name.partition(".")[0]
        rows = out[name].rows if name in out else ()
        out[name] = Relation(name, ident.status, rows + (ident,),
                             ident.min_bits)
    return out


RELATIONS: dict[str, Relation] = _table_relations()


def relation_names() -> list[str]:
    return list(RELATIONS)


def check_relation(name: str, prec: int) -> CheckReport:
    """Check that every side of a catalog relation has one value.

    Each row (a side minus the first) is summed exactly in integers
    over fixed-point atoms with counted error bounds.  The residual is
    the largest row sum; the check passes when every row's |sum| plus
    its bound is at most 2**-(prec-64), which certifies the relation
    to that accuracy.
    """
    rel = RELATIONS.get(name)
    if rel is None:
        raise UnknownName(name)
    if prec < rel.min_bits:
        raise PrecisionError(
            f"{name} needs at least {rel.min_bits} bits, got {prec}")
    passed, resids, bounds = True, [], []
    for ident in rel.rows:
        rows = ident.rows()
        wp, sums = _fixed_sums(rows, prec)
        limit = rows.den << (wp - prec + 64)
        for total, err in sums:
            passed = passed and abs(total) + err <= limit
            resids.append(_log2_top(abs(total), rows.den << wp))
            bounds.append(_log2_top(err, rows.den << wp))
    return CheckReport(name, prec, max(resids), passed, max(bounds))


def check_all(prec: int) -> list[CheckReport]:
    """Reports for every identity whose bit requirement prec meets;
    PrecisionError when prec meets none, so no run passes unchecked."""
    names = [name for name, rel in RELATIONS.items() if prec >= rel.min_bits]
    if not names:
        floor = min(rel.min_bits for rel in RELATIONS.values())
        raise PrecisionError(
            f"the relations need at least {floor} bits, got {prec}")
    return [check_relation(name, prec) for name in names]

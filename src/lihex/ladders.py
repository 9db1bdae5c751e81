"""Certified checks of the ladder identities; this module only checks.

The ladders (A..H, their bar and tilde forms, U..Z) and the identities
among them are defined once, as exact linear forms, in `series`:
`series.ladder` builds a ladder and `series.IDENTITIES` holds every
relation as one entry, a complex relation (the dilogarithm and order-1
relations through complex logarithms) with rows for each part; that
table is `RELATIONS`.  `series` also evaluates them, by its one
fixed-point evaluator; this module checks.  Each side minus the first
side of its part is one integer coefficient vector, every part's over
one common denominator, summed over atoms that enter at wp bits with a
counted error bound in ulps, and a report passes only when the residual
plus its bound is at most 2**-(bits-64), which certifies the identity
to that accuracy.  wp is prec + 32 bits, more for a row whose
coefficient mass passes 2^32 (f11).  `eval_ladder` reads one ladder's
value from the same evaluator.  The Li_5 evaluator lives in
`mp.special`, and the Li_5 equation it serves in `hyper`, beside the
`order5` battery that checks it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import PrecisionError, UnknownName
from .mp.real import MpReal
from .series import (IDENTITIES, Identity, IntegerRows, _fixed_sums,
                     _refuse_above_ceiling, _row_value, integer_rows,
                     ladder)

__all__ = ["CheckReport", "RELATIONS", "check_all", "check_relation",
           "eval_ladder", "relation_names"]


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one check at ``bits`` bits.

    ``log2_residual`` is the smallest e with |residual| < 2^e.  Only an
    exact check, a comparison of exact rationals or integers, reports
    minus infinity (JSON null) when it holds; a computed residual held
    at wp fixed-point bits that floors to zero reports -wp, the finest
    the check resolved.  For an identity of the table,
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
# relation catalog

def _report(name: str, prec: int, resid: int, wp: int,
            slack: int) -> CheckReport:
    """A check without a stated bound on its computed residual resid /
    2^wp: it passes when that is at most 2^-(prec-slack).  A residual
    that floors to zero reports -wp."""
    mag = float(abs(resid).bit_length() - wp)
    return CheckReport(name, prec, mag, mag <= slack - prec)


RELATIONS: dict[str, Identity] = IDENTITIES


def relation_names() -> list[str]:
    return list(RELATIONS)


def check_relation(name: str, prec: int) -> CheckReport:
    """Check that the sides of each part of a catalog relation have one
    value.

    Each row (a side minus the first side of its part) is summed
    exactly in integers over fixed-point atoms with counted error
    bounds.  The residual is the largest row sum; the check passes when
    every row's |sum| plus its bound is at most 2**-(prec-64), which
    certifies the relation to that accuracy.
    """
    rel = RELATIONS.get(name)
    if rel is None:
        raise UnknownName(name)
    if prec < rel.min_bits:
        raise PrecisionError(
            f"{name} needs at least {rel.min_bits} bits, got {prec}")
    _refuse_above_ceiling(prec)
    rows = rel.rows()
    wp, sums = _fixed_sums(rows, prec)
    limit, scale = rows.den << (wp - prec + 64), rows.den << wp
    return CheckReport(
        name, prec, _log2_top(max(abs(total) for total, _ in sums), scale),
        all(abs(total) + err <= limit for total, err in sums),
        _log2_top(max(err for _, err in sums), scale))


def check_all(prec: int) -> list[CheckReport]:
    """Reports for every identity whose bit requirement prec meets;
    PrecisionError when prec meets none, so no run passes unchecked,
    or when prec is above the values' ceiling."""
    _refuse_above_ceiling(prec)
    names = [name for name, rel in RELATIONS.items() if prec >= rel.min_bits]
    if not names:
        floor = min(rel.min_bits for rel in RELATIONS.values())
        raise PrecisionError(
            f"the relations need at least {floor} bits, got {prec}")
    return [check_relation(name, prec) for name in names]

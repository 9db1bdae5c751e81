"""End-to-end gate: one test per headline guarantee of the package.

Each test pins the tolerance and the runtime budget it must meet, so a
`pytest -v tests/test_acceptance.py` run reads as a checklist of what
this library promises.  The two ten-million-digit windows are opt-in
(`--run-digits10m`); everything else runs at desk scale.
"""

import time
from fractions import Fraction as Q

import pytest

from lihex.hyper import (CHECKS, U, asymp_coeff, check_li5_identity, eval_W,
                         expu_check, f5, genfn_hyp, genfn_pf, u_rational,
                         utilde_rational)
from lihex.ladders import _log2_top, check_all, check_relation, eval_ladder
from lihex.mp.real import MpReal, _pi_fixed
from lihex.relfind import RelationQuery, pslq, verify_vector
from lihex.series import (_F11_LHS, _F11_LIS, _F11_MONS, Monomial,
                          SeriesSpec, catalog, eval_formula, eval_series,
                          polylog_pattern)
from lihex.spigot import DigitRequest, hex_digits


def _mag(d: Q) -> float:
    """The smallest e with |d| < 2^e for an exact d, minus infinity at 0."""
    return _log2_top(abs(d.numerator), d.denominator)


def _oracle_window(name: str, d: int, count: int = 16) -> str:
    """Hex digits d..d+count-1 read off a direct high-precision value.

    The fixed-point cut sits 64 bits below the window so that rounding
    there cannot ripple into the digits being compared.
    """
    bits = 4 * (d + count) + 64
    fx = eval_formula(name, bits).to_fixed(bits)
    width = bits // 4
    frac = format(fx & ((1 << bits) - 1), f"0{width}X")
    return frac[d - 1:d - 1 + count]


# 1. spigot windows agree with direct summation across the whole catalog
def test_every_catalog_window_matches_direct_summation():
    t0 = time.monotonic()
    for name in catalog():
        for d in (1, 10, 100, 1000, 10**4):
            run = hex_digits(DigitRequest(name, d, 16, threads=1))
            assert run.digits == _oracle_window(name, d), (name, d)
    assert time.monotonic() - t0 < 120


# 2. ten-million-digit windows, and the published strings sit at
#    position 10**7 exactly (not at 10**7 - 1 or 10**7 + 1)
DEEP_WINDOWS = {
    "zeta3": "CDA018F4E167F435B2AB045FB045A42F"
             "86BED12EF82BE2E1C6ECD305E92C5E4B",
    "zeta5": "F7A15E1277F7B2C04106F04B05C48AC7"
             "1ACECAB14D555FDA6E5E1EC299535511",
}


@pytest.mark.digits10m
@pytest.mark.parametrize("name", ["zeta3", "zeta5"])
def test_ten_millionth_digit_window(name):
    want = DEEP_WINDOWS[name]
    # a request holds at most 64 digits: two windows whose 62-digit
    # overlap agrees give the 66 digits at 10**7 - 1 .. 10**7 + 64
    lo = hex_digits(DigitRequest(name, 10**7 - 1, 64, threads=8))
    hi = hex_digits(DigitRequest(name, 10**7 + 1, 64, threads=8))
    assert lo.guard_ok and hi.guard_ok
    assert lo.digits[2:] == hi.digits[:62]
    digits = lo.digits + hi.digits[62:]
    assert digits[1:65] == want
    assert digits[0:64] != want
    assert digits[2:66] != want


# 3. the full ladder of relations at 512 bits
def test_all_ladder_relations_hold_at_512_bits():
    t0 = time.monotonic()
    reports = check_all(512)
    assert len(reports) == 32
    for r in reports:
        assert r.passed and r.log2_residual < -448, r
    assert time.monotonic() - t0 < 600


# 4. the fourteen-term zeta(11) relation at 1024 bits
def test_fourteen_term_zeta11_relation():
    rep = check_relation("f11", 1024)
    assert rep.passed and rep.log2_residual < -960


# 5. hypergeometric spot values
def test_hypergeometric_spot_values():
    w = eval_W((Q(0), Q(0), Q(0), Q(0)), 512)
    pi_ = Q(_pi_fixed(528), 1 << 528)
    assert _mag(w.to_fraction() - pi_ * pi_ / 2) < -500

    inv = CHECKS["inv"](256)
    assert len(inv) == 5 and all(r.passed for r in inv)

    assert f5(Q(1), Q(1, 2), Q(0), Q(-1)) == Q(69, 8)
    assert f5(Q(1, 2), Q(1, 3), Q(1, 6), Q(-1, 2)) == Q(13, 54)
    assert f5(Q(1, 3), Q(1, 6), Q(1, 3), Q(-1, 3)) == Q(-19, 72)

    for name in "BDFG":
        pf = genfn_pf(name, Q(1, 10), 256)[0].to_fraction()
        hyp = genfn_hyp(name, Q(1, 10), 256).to_fraction()
        assert _mag(pf - hyp) < -224, name

    half, eye, minus_eye = (Q(1, 2), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1))
    for x, y in ((half, half), (eye, eye), (half, eye), (half, minus_eye)):
        assert check_li5_identity(x, y, 512).passed


# 6. the interpolation U(t): exact lattice values and the series
def test_u_interpolation_battery():
    assert u_rational(5) == Q(20, 3)
    assert u_rational(10) == Q(20, 3)
    assert u_rational(-5) == Q(1900, 3)
    assert utilde_rational(Q(5, 2)) == 15
    assert u_rational(-10) == (Q(-25600), Q(20310))
    d = U(Q(5), 256).to_fraction() - Q(20, 3)
    assert _mag(d) < -(256 - 32)


# 7. the first six asymptotic integers, exactly
def test_first_six_asymptotic_integers():
    t0 = time.monotonic()
    got = tuple(map(asymp_coeff, range(1, 7)))
    assert got == (11, 157, -1749, -433651, -43430405, -4000517955)
    assert time.monotonic() - t0 < 60


# 8. integer-relation recovery, verification, and exclusion
def test_relation_recovery_and_exclusion():
    t0 = time.monotonic()
    g = eval_formula("catalan", 512)
    s21 = eval_series(SeriesSpec(2, 1, (1, -1, 1, 0, -1, 1, -1, 0)), 512)
    s23 = eval_series(SeriesSpec(2, 3, (1, 1, 1, 0, -1, -1, -1, 0)), 512)
    res = pslq(RelationQuery((g, s21, s23), max_digits=8))
    assert res.status == "found" and res.vector == (1, -3, 2)
    assert time.monotonic() - t0 < 30

    t0 = time.monotonic()
    lam3 = Monomial(zeta=3).value(512)
    lam3 = lam3.mul(MpReal.from_fraction(Q(7, 8), lam3.prec), 512)
    res = pslq(RelationQuery((lam3, eval_ladder("Abar", 3, 512)),
                             max_digits=8))
    assert res.status == "found" and res.vector == (1, -1)
    assert time.monotonic() - t0 < 30

    vector = tuple([_F11_LHS] + [-c for c, _ in _F11_LIS]
                   + [-c for c, _ in _F11_MONS])

    def li11_re(arg, wp):
        (c, spec), = polylog_pattern(arg, 11, "re")
        v = eval_series(spec, wp)
        return v.mul(MpReal.from_fraction(c, v.prec), wp)

    def rhs(wp):
        vals = [li11_re(arg, wp) for _, arg in _F11_LIS]
        return vals + [m.value(wp) for _, m in _F11_MONS]

    vals = [Monomial(zeta=11).value(1120)] + rhs(1120)
    assert verify_vector(vector, vals, 1024).passed

    res = pslq(RelationQuery(tuple(rhs(2048)), max_digits=30))
    assert res.status == "none_within_bound"


# 9. spigot self-consistency and thread invariance
def test_spigot_shift_and_thread_invariance():
    for name in catalog():
        prev = hex_digits(DigitRequest(name, 2, 16)).digits
        for d in range(3, 52):
            cur = hex_digits(DigitRequest(name, d, 16)).digits
            assert prev[1:] == cur[:15], (name, d)
            prev = cur
    for name in catalog():
        runs = {hex_digits(DigitRequest(name, 500, 32, threads=t)).digits
                for t in (1, 4, 8)}
        assert len(runs) == 1, name


# 10. the exponential expansion of U through the t^5 term
def test_exponential_expansion_through_t5():
    rep = expu_check(512)
    assert rep.passed and rep.log2_residual < -128

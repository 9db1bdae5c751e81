"""The identity suite: every catalog relation at 512 bits, the
high-precision 14-term zeta(11) relation, and the Li_5 machinery."""

import sys
from fractions import Fraction as Q

import pytest

import lihex.hyper  # noqa: F401  (its memos must be present to be cleared)
from lihex.errors import PrecisionError, UndefinedOrder, UnknownName
from lihex.ladders import (RELATIONS, _R4_RHS, CheckReport, check_all,
                           check_li5_identity, check_relation, eval_ladder,
                           li5)
from lihex.mp import special as sp
from lihex.mp.cplx import MpComplex
from lihex.mp.real import MpReal
from lihex.series import catalog, eval_formula

SUITE_512 = {
    "r1", "r2", "i2", "r3", "i3",
    "r4b", "r4c", "r4d", "r4e", "i4g", "i4h",
    "r5c", "r51", "r52", "qef", "n5h", "r5",
    "b6", "z7", "z9", "z11", "cat",
    "w21", "w23", "w25", "h21", "h22", "h23",
    "w11", "w13", "w15", "h1",
}


def test_full_suite_at_512_bits():
    reports = check_all(512)
    assert {r.name for r in reports} == SUITE_512
    assert len(reports) == 32
    for r in reports:
        assert r.passed, f"{r.name}: 2^{r.log2_residual}"
        assert r.log2_residual < -448


def test_f11_at_1024_bits():
    rep = check_relation("f11", 1024)
    assert rep.passed and rep.log2_residual < -960


def test_f11_rejects_low_precision():
    with pytest.raises(PrecisionError):
        check_relation("f11", 512)


def test_unknown_relation_name():
    with pytest.raises(UnknownName):
        check_relation("zz99", 256)


def test_perturbed_coefficient_is_caught(monkeypatch):
    # poison one rational in the order-4 table by 2^-100 and make sure
    # the checker notices; the sibling relations must keep passing
    name, acoef, z4c = _R4_RHS["r4b"]
    monkeypatch.setitem(_R4_RHS, "r4b", (name, acoef, z4c + Q(1, 1 << 100)))
    assert not check_relation("r4b", 256).passed
    assert check_relation("r4c", 256).passed


def test_abar3_is_seven_eighths_zeta3():
    P = 256
    got = eval_ladder("Abar", 3, P)
    want = sp.zeta(3, P + 32).mul(Q(7, 8), P)
    d = got - want
    assert d.is_zero or d.man.bit_length() + d.exp < -(P - 16)


def test_tilde_combinations_vanish():
    for name in ("Btilde", "Ctilde", "Dtilde", "Etilde", "Htilde"):
        for n in (2, 3, 4):
            v = eval_ladder(name, n, 192)
            assert v.is_zero or v.man.bit_length() + v.exp < -150, (name, n)


def test_eval_ladder_guards():
    with pytest.raises(UnknownName):
        eval_ladder("Qbar", 2, 128)
    with pytest.raises(UndefinedOrder):
        eval_ladder("Abar", 12, 128)


def test_li5_duplication():
    wp = 320
    for zre, zim in ((Q(1, 2), Q(0)), (Q(0), Q(1, 2))):
        z = MpComplex.from_fractions(zre, zim, wp)
        d = (li5(-z, wp) + li5(z, wp) - li5(z * z, wp) * Q(1, 16)).abs_val(64)
        assert d.is_zero or d.man.bit_length() + d.exp < -(wp - 64)


def test_li5_series_annulus_seam():
    # both arguments on the annulus route, the square on the series one
    wp = 320
    z = MpComplex.from_fractions(Q(4, 5), Q(0), wp)
    d = (li5(-z, wp) + li5(z, wp) - li5(z * z, wp) * Q(1, 16)).abs_val(64)
    assert d.is_zero or d.man.bit_length() + d.exp < -(wp - 64)


def test_li5_functional_equation_point():
    P = 256
    x = MpComplex.from_fractions(Q(1, 2), Q(0), P)
    y = MpComplex.from_fractions(Q(0), Q(1), P)
    rep = check_li5_identity(x, y, P)
    assert rep.passed


def test_report_shape():
    rep = check_relation("r1", 256)
    assert isinstance(rep, CheckReport)
    assert rep.bits == 256 and isinstance(rep.log2_residual, float)
    assert RELATIONS["r1"].status == "proven"


def _clear_caches() -> set[str]:
    """Empty every functools cache in the package's modules and return
    the names found."""
    found = set()
    for name, mod in list(sys.modules.items()):
        if name != "lihex" and not name.startswith("lihex."):
            continue
        for attr, obj in vars(mod).items():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()
                found.add(attr)
    return found


def _suite(order: tuple[int, ...]) -> tuple[dict, dict]:
    values, reports = {}, {}
    for bits in order:
        for name in catalog():
            v = eval_formula(name, bits)
            values[name, bits] = (v.sign, v.man, v.exp, v.prec)
        for r in check_all(bits):
            reports[r.name, bits] = r
    return values, reports


def test_results_do_not_depend_on_earlier_requests():
    assert _clear_caches() >= {
        "_pi_fixed", "_log2_fixed", "zeta", "dirichlet_beta",
        "_spouge_coeffs", "_polylog", "eval_series", "_derived",
        "_kernel_coeffs", "_euler_gamma"}
    up = _suite((256, 300))
    _clear_caches()
    down = _suite((300, 256))
    _clear_caches()
    assert up == down

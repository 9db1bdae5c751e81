"""Hypergeometric side of the ladder identities.

The closed 3F2 forms, the W kernel and its reflection, the rational
pole-sum forms of U, the exact asymptotic integers, the Pochhammer
product identities, and the exponential expansion of U.
"""

import hashlib
import importlib.util
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from lihex.errors import (DivergenceError, DomainError, PoleError,
                          PrecisionError, UnknownName)
from lihex.hyper import (_MAX_BITS, CHECKS, U, Utilde, _hyp3f2_unit,
                         _pole_sum, asymp_coeff, catalan_binomial,
                         check_li5_identity, check_recurrence,
                         check_trig_forms, eval_W, expu_check, f5,
                         genfn_hyp, genfn_pf, geo_checks,
                         pochhammer_check, reflection_check, u_rational,
                         utilde_rational)
from lihex.ladders import _log2_top, eval_ladder
from lihex.mp.real import MpReal, _pi_fixed
from lihex.mp.special import _exact
from lihex.series import eval_formula


def _mag(d: Q) -> float:
    """The smallest e with |d| < 2^e for an exact d, minus infinity at 0."""
    return _log2_top(abs(d.numerator), d.denominator)


def _pi(wp: int) -> Q:
    return Q(_pi_fixed(wp), 1 << wp)


# ----------------------------------------------------------------------
# the W kernel

def test_w_at_origin_is_half_pi_squared():
    P = 512
    w = eval_W((Q(0), Q(0), Q(0), Q(0)), P)
    pi_ = _pi(P + 16)
    assert _mag(w.to_fraction() - pi_ * pi_ / 2) < -500


@pytest.mark.parametrize("pt", [
    (Q(1, 10), Q(1, 5), Q(1, 20), Q(-1, 10)),
    (Q(-1, 6), Q(1, 4), Q(1, 3), Q(-2, 5)),
])
def test_w_argument_pair_symmetry(pt):
    P = 256
    a1, a2, a3, a4 = pt
    base = eval_W((a1, a2, a3, a4), P).to_fraction()
    assert _mag(base - eval_W((a2, a1, a3, a4), P).to_fraction()) < -(P - 16)
    assert _mag(base - eval_W((a1, a2, a4, a3), P).to_fraction()) < -(P - 16)


@pytest.mark.parametrize("pt", [
    (Q(1, 10), Q(1, 8), Q(1, 10), Q(1, 8)),
    (Q(-1, 6), Q(1, 4), Q(-1, 6), Q(1, 4)),
    (Q(1, 3), Q(-1, 7), Q(2, 5), Q(1, 9)),
])
def test_reflection_formula(pt):
    rep = reflection_check(pt, 256)
    assert rep.passed, rep


def test_a_self_reflection_sums_w_once(monkeypatch):
    import lihex.hyper
    calls = []

    def counted(args, wp):
        calls.append(args)
        return eval_W(args, wp)

    monkeypatch.setattr(lihex.hyper, "eval_W", counted)
    # (a1, a2; a1, a2) reflects onto itself: one 3F2 serves both terms
    pt = (Q(1, 10), Q(1, 8), Q(1, 10), Q(1, 8))
    assert reflection_check(pt, 256).passed
    assert calls == [pt]
    calls.clear()
    reflection_check((Q(1, 3), Q(-1, 7), Q(2, 5), Q(1, 9)), 256)
    assert len(calls) == 2


def _q(lo: Q, hi: Q):
    return st.builds(lambda n, d: lo + (hi - lo) * Q(n, d),
                     st.integers(0, 64), st.just(64))


@settings(max_examples=25, deadline=None)
@given(_q(Q(-1), Q(3)), _q(Q(-1), Q(3)), _q(Q(65, 64), Q(8)),
       _q(Q(1, 64), Q(4)), st.integers(64, 320))
def test_3f2_agrees_with_itself_at_four_times_the_precision(
        al, be, rho, ga, prec):
    # rho = ga + de - al - be from just above 1, where the tail is long
    # and the last head term is far below it, up to 8
    de = rho + al + be - ga
    assume(de > 0)
    lo, hi = _hyp3f2_unit(al, be, ga, de, prec), \
        _hyp3f2_unit(al, be, ga, de, 4 * prec)
    d = Q(lo, 1 << prec) - Q(hi, 1 << 4 * prec)
    top = _mag(Q(hi, 1 << 4 * prec)) if hi else 0
    assert _mag(d) <= max(top, 0) - (prec - 8)


def test_w_needs_no_gamma(monkeypatch):
    import lihex.mp.special

    def refused(*args):
        raise AssertionError("eval_W called gamma")

    monkeypatch.setattr(lihex.mp.special, "gamma", refused)
    P = 256
    w = eval_W((Q(0), Q(0), Q(0), Q(0)), P)
    pi_ = _pi(P + 16)
    assert _mag(w.to_fraction() - pi_ * pi_ / 2) < -(P - 8)
    eval_W((Q(1, 3), Q(-1, 5), Q(1, 7), Q(1, 9)), P)


def test_w_divergence_outside_open_box():
    with pytest.raises(DivergenceError):
        eval_W((Q(1, 2), Q(0), Q(0), Q(0)), 128)


def test_w_args_validation():
    # eval_W checks its plain arguments itself: 1/2 + a3 = 0 would
    # divide by zero, so a3 = -1/2 is refused before any summation
    with pytest.raises(DivergenceError):
        eval_W((Q(0), Q(0), Q(-1, 2), Q(0)), 128)


# ----------------------------------------------------------------------
# the closed-form quotient f5

@pytest.mark.parametrize("args,want", [
    ((Q(1), Q(1, 2), Q(0), Q(-1)), Q(69, 8)),
    ((Q(1, 2), Q(0), Q(1, 2), Q(-1, 2)), Q(0)),
    ((Q(1, 2), Q(1, 3), Q(1, 6), Q(-1, 2)), Q(13, 54)),
    ((Q(1, 3), Q(1, 6), Q(1, 3), Q(-1, 3)), Q(-19, 72)),
])
def test_f5_exact_rationals(args, want):
    assert f5(*args) == want


# ----------------------------------------------------------------------
# generating functions: partial fractions vs 3F2 vs trig forms

def test_genfn_forms_agree_at_one_tenth():
    P = 256
    for name in "BDFG":
        pf = genfn_pf(name, Q(1, 10), P)[0]
        hyp = genfn_hyp(name, Q(1, 10), P)
        assert _mag(pf.to_fraction() - hyp.to_fraction()) < -224, name


def test_genfn_registry_and_guards():
    assert all(genfn_hyp(n, Q(1, 10), 128).sign for n in "ABCDFG")
    for name in "EH":
        with pytest.raises(DomainError):
            genfn_hyp(name, Q(1, 10), 128)
    with pytest.raises(UnknownName):
        genfn_hyp("X", Q(1, 10), 128)
    with pytest.raises(DomainError):
        genfn_hyp("A", Q(1, 2), 128)


def test_f_over_t_tends_to_half_pi():
    P = 128
    t = Q(1, 1 << 16)
    v = genfn_pf("F", t, P)[0].to_fraction() * (1 << 16)
    assert _mag(v - _pi(P) / 2) < -13


@pytest.mark.parametrize("name,t", [
    ("A", Q(1, 10)), ("B", Q(1, 4)), ("C", Q(1, 10)), ("D", Q(1, 7)),
])
def test_trig_decompositions(name, t):
    assert check_trig_forms(name, t, 256).passed


@pytest.mark.parametrize("name", "ABCDEFGH")
def test_pole_sums_are_the_ladders_generating_functions(name):
    # sum_n w X_n t^n, w = 1 for A and 2 for the others; at t = 2^-40
    # the terms past n = 11 lie below 2^-480, and the value near t
    # carries 256 bits
    t = Q(1, 1 << 40)
    w = 1 if name == "A" else 2
    want = sum(eval_ladder(name, n, 320).to_fraction() * w * t**n
               for n in range(1, 12))
    assert _mag(genfn_pf(name, t, 256)[0].to_fraction() - want) \
        < -(256 + 40 - 16)


def test_contiguous_recurrences():
    P = 256
    assert check_recurrence("F", Q(1, 3), P).passed
    assert check_recurrence("H", Q(1, 3), P).passed
    assert check_recurrence("G", (Q(1, 5), Q(1, 7)), P).passed


# ----------------------------------------------------------------------
# U and its lattice values

def test_u_series_matches_rational_at_five():
    P = 256
    d = U(Q(5), P).to_fraction() - Q(20, 3)
    assert _mag(d) < -(P - 16)
    # t = 0 is a removable point of the limit assembly, where U vanishes
    assert U(Q(0), P).is_zero and u_rational(0) == 0


def test_u_lattice_closed_forms():
    assert u_rational(5) == Q(20, 3)
    assert u_rational(10) == Q(20, 3)
    assert u_rational(-5) == Q(1900, 3)
    assert u_rational(15) == u_rational(Q(15))


def test_u_pole_data_at_minus_ten():
    res, cst = u_rational(-10)
    assert (res, cst) == (Q(-25600), Q(20310))
    # the numeric evaluator refuses the pole outright
    with pytest.raises(PoleError):
        U(Q(-10), 128)


def test_u_residue_shows_up_numerically():
    eps = Q(1, 1 << 20)
    v = U(Q(-10) + eps, 160)
    ratio = v.to_fraction() * eps / -25600
    assert abs(float(ratio) - 1.0) < 1e-3


def test_u_approaches_six():
    v = U(Q(50), 96)
    assert abs(float(v.to_fraction()) / 6 - 1) < 0.10


def test_utilde_values():
    assert utilde_rational(Q(5, 2)) == 15
    assert utilde_rational(Q(-5, 2)) == (Q(125), Q(-250))
    d = Utilde(Q(5, 2), 192).to_fraction() - 15
    assert _mag(d) < -(192 - 32)
    with pytest.raises(PoleError):
        Utilde(Q(4), 128)


def test_rational_family_guards():
    with pytest.raises(DomainError):
        u_rational(7)
    with pytest.raises(DomainError):
        u_rational(Q(5, 3))
    with pytest.raises(DomainError):
        utilde_rational(Q(7, 2))


# ----------------------------------------------------------------------
# asymptotic integers

ASYMP_SIX = (11, 157, -1749, -433651, -43430405, -4000517955)


def test_first_six_asymptotic_integers():
    assert tuple(map(asymp_coeff, range(1, 7))) == ASYMP_SIX


def test_asymp_oddness_and_divisibility():
    for m in range(1, 25):
        k = asymp_coeff(m)
        assert k % 2 == 1, m
        assert (k % 3 == 0) == (m % 3 == 0), m


def test_asymp_bounds():
    with pytest.raises(DomainError):
        asymp_coeff(0)
    with pytest.raises(DomainError):
        asymp_coeff(65)


def test_asymp_sign_change_spacing_through_64():
    signs = [asymp_coeff(m) > 0 for m in range(1, 65)]
    changes = [m + 1 for m in range(1, 64) if signs[m] != signs[m - 1]]
    assert changes == [3, 11, 18, 25, 33, 40, 47, 55, 62]
    gaps = [b - a for a, b in zip(changes, changes[1:])]
    assert abs(sum(gaps) / len(gaps) - 7.38257) < 0.5


def test_k39_structure():
    k = asymp_coeff(39)
    assert k < 0 and k % (3 * 5**8) == 0
    assert len(str(-k // (3 * 5**8))) == 84


# ----------------------------------------------------------------------
# Pochhammer products, the exponential expansion, geometric checks

@pytest.mark.parametrize("which,t", [
    ("poca", Q(3, 10)), ("pocb", Q(1, 4)), ("pocc", Q(2, 5)),
    ("pocd", Q(1, 2)), ("poc4", Q(3, 10)), ("poc6", Q(3, 10)),
])
def test_pochhammer_identities(which, t):
    assert pochhammer_check(which, t, 256).passed


def test_pochhammer_guards():
    with pytest.raises(UnknownName):
        pochhammer_check("poce", Q(1, 2), 128)
    with pytest.raises(DomainError):
        pochhammer_check("poca", Q(3, 2), 128)


def test_exponential_expansion_through_t5():
    rep = expu_check(512)
    assert rep.passed and rep.log2_residual < -128


def test_geometric_sums_exact():
    reports = geo_checks(256)
    assert all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert len(names) == len(reports) == 3


@pytest.mark.parametrize("P", [16, 48, 100, 128, 256, 1024])
def test_catalan_binomial_form(P):
    d = catalan_binomial(P).to_fraction() \
        - eval_formula("catalan", P + 16).to_fraction()
    assert _mag(d) < -(P - 8)


@pytest.mark.parametrize("P", [15, _MAX_BITS + 1])
def test_catalan_binomial_refuses_bits_outside_16_to_the_ceiling(P):
    with pytest.raises(DomainError):
        catalan_binomial(P)


def test_catalan_binomial_needs_no_transcendental(monkeypatch):
    import lihex.hyper
    import lihex.mp.real
    import lihex.mp.special

    def refused(*args):
        raise AssertionError("catalan_binomial formed a transcendental")

    P = 128
    want = eval_formula("catalan", P + 16).to_fraction()
    for mod in (lihex.hyper, lihex.mp.special, lihex.mp.real):
        for name in ("_pi_fixed", "_log2_fixed", "_ln_fixed", "_exp_fixed",
                     "_atan_fixed", "sincospi"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refused)
    assert _mag(catalan_binomial(P).to_fraction() - want) < -(P - 8)


def test_li5_functional_equation_point():
    rep = check_li5_identity((Q(1, 2), Q(0)), (Q(0), Q(1)), 256)
    assert rep.passed


@pytest.mark.parametrize("x", [(Q(0), Q(0)), (Q(1), Q(0)), Q(0), Q(1),
                               (Q(1), Q(1, 3)), (Q(0), Q(1)), Q(1, 2)])
def test_li5_identity_refuses_exactly_the_points_0_and_1(x):
    # the equation's arguments divide by x, 1 - x, y and 1 - y
    singular = x in (0, 1, (0, 0), (1, 0))
    for pair in ((x, Q(1, 3)), (Q(1, 3), x)):
        if singular:
            with pytest.raises(DomainError):
                check_li5_identity(*pair, 128)
        else:
            assert check_li5_identity(*pair, 128).name.startswith("li5(")


def test_registry_is_the_ten_batteries():
    assert set(CHECKS) == {"W", "inv", "genfn", "recur", "U", "asymp",
                           "poch", "expu", "geo", "order5"}
    for r in CHECKS["U"](192):
        assert r.passed, r.name


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_batteries_refuse_too_few_bits(name):
    # residuals pass below 2^(slack - bits) with slacks up to 64 bits;
    # above _MAX_BITS a request is refused too, before any work
    for bits in (0, 127, _MAX_BITS + 1, 32769):
        t0 = time.perf_counter()
        with pytest.raises(PrecisionError):
            CHECKS[name](bits)
        assert time.perf_counter() - t0 < 1


# the checks that compare exact rationals or integers: only these report
# minus infinity, since a computed residual that floors to zero at its wp
# fixed-point bits reports -wp
EXACT_CHECKS = {"geo-eighth", "geo-quarter", "U-lattice-values",
                "U-pole-at-minus-10", "Utilde(5/2)", "f5-published-values",
                *(f"asymp-k{m}" for m in range(1, 7))}


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_only_exact_checks_report_minus_infinity(bits):
    reports = [r for name in sorted(CHECKS) for r in CHECKS[name](bits)]
    assert all(r.passed for r in reports)
    assert {r.name for r in reports
            if r.log2_residual == float("-inf")} == EXACT_CHECKS


# ----------------------------------------------------------------------
# pinned reports and values: any change to the summation engines, the
# pole sums or the gammas behind them shows up here bit for bit

# the nine batteries that predate order5
NINE = ("W", "inv", "genfn", "recur", "U", "asymp", "poch", "expu", "geo")
BATTERY_SHA256 = {
    256: "7d0408dae5de59b410048bb2770a3ee8719fe7ac47ae2f0c9d4cbdceffd681fd",
    512: "77d0b66b637ebe031fc867438674e446b17b485958df05bd72663c6950639274",
}
ORDER5_SHA256 = {
    256: "7ca6c7064cc59a80a26fcd563ccf175f4f602bab24b6fae79372ca7f72fb3ea7",
    512: "5d4876dca3d75a47d2a9955a2f6ad0a70306209d5f30b951928d90e6e42b8600",
}
GENFN_SHA256 = (
    "e0d9048cc660421654d974a53279c4b6de24ce8d08beb1eaa8c8a49a70437e81")
W_U_SHA256 = (
    "d7e9494356cfd4a1995d495abe4e02b495e5b806701ab43d06a6fd1500a253e5")


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _report_lines(names, bits) -> list[str]:
    return [f"{r.name} {r.passed} {r.log2_residual!r}"
            for name in names for r in CHECKS[name](bits)]


@pytest.mark.parametrize("bits", sorted(BATTERY_SHA256))
def test_battery_reports_are_pinned(bits):
    lines = _report_lines(NINE, bits)
    assert len(lines) == 45
    assert _sha256(lines) == BATTERY_SHA256[bits]


@pytest.mark.parametrize("bits", sorted(ORDER5_SHA256))
def test_order5_reports_are_pinned(bits):
    reports = CHECKS["order5"](bits)
    assert len(reports) == 4 and all(r.passed for r in reports)
    assert _sha256(_report_lines(["order5"], bits)) == ORDER5_SHA256[bits]


# the reports of the batteries named "name:bits" on the command line, in
# order, one line each
_RUN_BATTERIES = """
import sys
from lihex.hyper import CHECKS
for step in sys.argv[1:]:
    name, bits = step.split(":")
    for r in CHECKS[name](int(bits)):
        print(step, r.name, r.passed, repr(r.log2_residual))
"""


def _reports_in_a_fresh_interpreter(steps) -> list[str]:
    src = os.path.dirname(
        importlib.util.find_spec("lihex").submodule_search_locations[0])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", _RUN_BATTERIES, *steps],
                         env=env, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.slow
def test_battery_reports_do_not_depend_on_earlier_batteries():
    # the caches (one gamma value per argument and precision among them)
    # must give a battery the reports it gets when run first
    names = sorted(CHECKS)
    first = [line for name in names
             for line in _reports_in_a_fresh_interpreter([f"{name}:256"])]
    after = _reports_in_a_fresh_interpreter(
        [f"{name}:{bits}" for bits in (1024, 512, 256) for name in names]
        + [f"{name}:256" for name in names])
    n = len(first)
    assert after[-2 * n:-n] == first
    assert after[-n:] == first


def _genfn_cplx(name: str, t, prec: int) -> tuple[MpReal, MpReal]:
    """The complex pole sum at prec + 48 bits, rounded to prec, as the
    values were pinned."""
    wp = prec + 48
    return tuple(MpReal.from_fixed(v, wp, prec)
                 for v in _pole_sum(name, *_exact(t), wp, full=True))


def test_generating_function_values_are_pinned():
    lines = []
    # the complex t is 1/5 + i/7 rounded to 256 bits, as the pins took it
    dyadic = (MpReal.from_fraction(Q(1, 5), 256).to_fraction(),
              MpReal.from_fraction(Q(1, 7), 256).to_fraction())
    for t in (Q(1, 10), Q(-1, 7), dyadic):
        for kind, fn, names in (("pf", genfn_pf, "ABCDEFGH"),
                                ("cplx", _genfn_cplx, "FGH")):
            for name in names:
                re, im = fn(name, t, 256)
                lines.append(f"{kind} {name} {re.to_fixed(256)} "
                             f"{im.to_fixed(256)}")
    assert _sha256(lines) == GENFN_SHA256


def test_w_and_u_values_are_pinned():
    # the reports above resolve residuals to whole bits; these catch a
    # change in the last bit of the gammas, the trig kernel or U's limits
    lines = [f"W {eval_W(a, 256).to_fixed(256)}"
             for a in ((Q(1, 10), Q(1, 8), Q(1, 10), Q(1, 8)),
                       (Q(1, 3), Q(-1, 5), Q(1, 7), Q(1, 9)))]
    for t in (Q(1, 3), Q(2), Q(5, 2), Q(15, 2), Q(-5)):
        lines.append(f"U {t} {U(t, 256).to_fixed(256)}")
    lines.append(f"Utilde {Utilde(Q(5, 2), 256).to_fixed(256)}")
    assert _sha256(lines) == W_U_SHA256

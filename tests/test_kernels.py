"""The fixed-point kernels under the hypergeometric batteries: the kernel
table of the asymptotic integers, the 3F2 tail, the pole sums and
gamma from Stirling's series, each against an independent value or
law."""

import hashlib
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from lihex import hyper
from lihex.errors import PoleError
from lihex.hyper import (U, Utilde, _KERNEL, _pole_sum, asymp_coeff,
                         check_recurrence, genfn_hyp, genfn_pf)
from lihex.ladders import _log2_top
from lihex.mp import special as sp
from lihex.mp.real import _exp_fixed, _log2_fixed, _pi_fixed, sincospi
from lihex.series import _BASE, ARGUMENTS


def _mag(d: Q) -> float:
    """The smallest e with |d| < 2^e for an exact d, minus infinity at 0."""
    return _log2_top(abs(d.numerator), d.denominator)


def _kernel_table_summed_run_by_run(limit):
    """The kernel table summed term by term over every run."""
    g = [0] * (limit + 1)
    for j in range(0, (limit - 1) // 10 + 1):
        base = 10 * j
        if base + 1 <= limit:
            g[base + 1] += 4
        if base + 5 <= limit:
            g[base + 5] -= 8
        if base + 9 <= limit:
            g[base + 9] += 4
        u = base + 7
        sign = 4
        while u <= limit:
            g[u] += sign
            sign = -sign
            u += 4
    return g


def test_kernel_coeffs_match_the_run_by_run_sum():
    g = [_KERNEL[u % 40] for u in range(8193)]
    assert g == _kernel_table_summed_run_by_run(8192)
    assert max(abs(v) for v in g) <= 12


def test_asymptotic_integers_through_64_are_pinned():
    ks = ",".join(str(asymp_coeff(m)) for m in range(1, 65))
    assert hashlib.sha256(ks.encode()).hexdigest() == (
        "943bbe7bae84bf55faefeb659df31b35b94abdb50f3460fb28b487d72744ccd0")


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("t", [Q(1, 10), Q(-1, 5), Q(1, 3)])
def test_partial_fractions_match_the_3f2_forms(prec, t):
    for name in "BDFG":
        pf = genfn_pf(name, t, prec)[0].to_fraction()
        hyp = genfn_hyp(name, t, prec).to_fraction()
        assert _mag(pf - hyp) < -(prec - 32), (name, t)


@pytest.mark.slow
def test_3f2_tail_holds_at_2048_bits():
    pf = genfn_pf("D", Q(1, 10), 2048)[0].to_fraction()
    hyp = genfn_hyp("D", Q(1, 10), 2048).to_fraction()
    assert _mag(pf - hyp) < -(2048 - 32)


@pytest.mark.parametrize("f,t", [
    (U, Q(-2)), (U, Q(-4)), (U, Q(-10)), (U, Q(-20)), (U, Q(-5, 2)),
    (Utilde, Q(4)), (Utilde, Q(2)), (Utilde, Q(-2)), (Utilde, Q(-5, 2)),
])
def test_u_and_utilde_poles_raise(f, t):
    with pytest.raises(PoleError):
        f(t, 128)


@pytest.mark.parametrize("name,t", [("B", Q(2)), ("B", Q(1, 2)), ("C", Q(3)),
                                    ("D", Q(3, 2)), ("E", Q(5, 2))])
def test_pole_sums_raise_at_their_poles(name, t):
    with pytest.raises(PoleError):
        genfn_pf(name, t, 128)


@pytest.mark.parametrize("t", [Q(1), Q(3, 2), Q(3)])
def test_complex_pole_sum_raises_at_its_poles(t):
    with pytest.raises(PoleError):
        _pole_sum("G", t, Q(0), 128, full=True)


@pytest.mark.parametrize("name", "FGH")
def test_recurrence_refuses_t_zero_before_any_pole_sum(name, monkeypatch):
    # scale G(t)/t divides by the exact t
    def refused(*args, **kwargs):
        raise AssertionError("pole sum taken at a refused t")

    monkeypatch.setattr(hyper, "_pole_sum", refused)
    for t in (Q(0), (Q(0), Q(0))):
        with pytest.raises(PoleError):
            check_recurrence(name, t, 128)


def _root(n: int, w: int) -> Q:
    """sqrt(n / 2^w) at w fixed-point bits, floored, as a Fraction."""
    return Q(math.isqrt(n << w), 1 << w)


@pytest.mark.parametrize("prec", [256, 1024, 2048])
def test_gamma_known_values(prec):
    # gamma is a fixed-point int: at w = prec + 8 bits it keeps the
    # relative accuracy of prec bits for every value here (>= 0.27)
    w = prec + 8

    def gamma(q):
        return Q(sp.gamma(Q(q), w), 1 << w)

    def close(x, want):
        return _mag((x - want) / want) <= -(prec - 2)

    pi_ = Q(_pi_fixed(w), 1 << w)
    root_pi = _root(_pi_fixed(w), w)
    half = gamma(Q(1, 2))
    assert close(half * half, pi_)
    quarters = gamma(Q(1, 4)) * gamma(Q(3, 4))
    assert close(quarters, pi_ * _root(2 << w, w))
    for n in (1, 2, 3, 7, 20, 40):
        assert close(gamma(n), math.factorial(n - 1)), n
    assert close(gamma(Q(-7, 2)), root_pi * Q(16, 105))
    # Gamma(12 + 1/2) = 24! / (4^12 12!) sqrt(pi)
    assert close(gamma(Q(25, 2)), root_pi * Q(
        math.factorial(24), 4**12 * math.factorial(12)))


def _gamma_arguments():
    """p/q with q <= 60 and -12 < p/q < 12, not 0 or a negative integer."""
    return st.fractions(-12, 12, max_denominator=60).filter(
        lambda x: abs(x) < 12 and not (x.denominator == 1 and x <= 0))


@settings(max_examples=60, deadline=None)
@given(_gamma_arguments(), st.sampled_from([128, 256, 512, 1024, 2048]))
@example(Q(40), 128)
@example(Q(25, 2), 128)
@example(Q(-23, 2), 128)
@example(Q(40), 2048)
def test_gamma_is_within_an_ulp_of_four_times_the_precision(x, bits):
    # gamma is within an ulp at any precision, so at bits it agrees with
    # its own 4x-precision value cut to bits; Gamma(40) is near 2^152,
    # so its working precision needs Gamma's integer bits on top
    assert abs(sp.gamma(x, bits) - (sp.gamma(x, 4 * bits) >> 3 * bits)) \
        <= 1, (x, bits)


@settings(max_examples=60, deadline=None)
@given(_gamma_arguments(), st.sampled_from([128, 256, 512, 1024, 2048]))
def test_gamma_keeps_reflection_and_duplication(x, bits):
    # both laws tie Gamma at different fractional parts together, so a
    # value cached under the wrong part or precision shows up here.
    # gamma is a fixed-point int: at bits + 128 it keeps bits + 32 bits
    # of relative accuracy down to |Gamma(2x)| ~ 2^-75 at 2x near -24
    w = bits + 32
    g = bits + 128

    def gamma(x):
        return Q(sp.gamma(x, g), 1 << g)

    def assert_close(lhs, rhs):
        assert _mag((lhs - rhs) / rhs) <= -(bits - 8), (x, bits)

    pi_ = Q(_pi_fixed(w), 1 << w)
    if x.denominator != 1:
        # Gamma(x) Gamma(1 - x) = pi / sin(pi x)
        assert_close(gamma(x) * gamma(1 - x),
                     pi_ / Q(sincospi(x, w)[0], 1 << w))
    if not ((2 * x).denominator == 1 and x <= 0):
        # Gamma(x) Gamma(x + 1/2) = 2^(1 - 2x) sqrt(pi) Gamma(2x)
        y = 1 - 2 * x
        v, m = _exp_fixed(_log2_fixed(w) * y.numerator // y.denominator, w)
        two = Q(v, 1 << w) * Q(2) ** m
        assert_close(gamma(x) * gamma(x + Q(1, 2)),
                     two * _root(_pi_fixed(w), w) * gamma(2 * x))


@pytest.mark.parametrize("wp", [304, 1072])
def test_pole_sums_stay_within_their_counted_floors(wp):
    # each family floors kmax terms once per component: the value at wp
    # bits is within (|t| + 1) sum(kmax) + 1 ulps of one at 2 wp bits
    cases = [(name, t, Q(0), False) for t in (Q(1, 10), Q(-1, 7))
             for name in "ABCDEFGH"]
    cases += [(name, Q(1, 5), Q(1, 7), True) for name in "FGH"]
    for name, tr, ti, full in cases:
        tmag = math.hypot(tr, ti)
        floors = sum(int((wp + 48) / (ARGUMENTS[arg][0] / 2) + 3 * tmag) + 16
                     for _c, _r, arg, _part in _BASE[name])
        got = _pole_sum(name, tr, ti, wp, full=full)
        ref = _pole_sum(name, tr, ti, 2 * wp, full=full)
        for a, b in zip(got, ref):
            assert abs(a - (b >> wp)) <= (tmag + 1) * floors + 1, \
                (name, tr, ti)

"""Arithmetic layer: constants against published digits, exact
round-trips, and the basic algebra the rest of the package leans on."""

import importlib.util
import math
from fractions import Fraction
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lihex.errors import DomainError, PoleError, PrecisionError
from lihex.ladders import _log2_top
from lihex.mp import special as sp
from lihex.mp.real import (MpReal, _alt_fixed, _atan_fixed, _exp_fixed,
                           _ln_fixed, _log2_fixed, _pi_fixed, _zeta_fixed,
                           pow_int, sincospi)
from lihex.mp.special import li5

P = 200

# fifty decimal places each, truncated; the trailing digit is compared
# only through place 45 to stay clear of rounding at the cut
KNOWN = {
    "pi": "3.14159265358979323846264338327950288419716939937510",
    "log2": "0.69314718055994530941723212145817656807550013436025",
    "zeta3": "1.20205690315959428539973816151144999076498629234049",
    "zeta5": "1.03692775514336992633136548645703416805708091950191",
    "beta3": "0.96894614625936938048363484584691860006954026768389",
    "catalan": "0.91596559417721901505460351493238411077414937428167",
}


def _places(s: str, n: int) -> str:
    return s[:s.index(".") + 1 + n]


def _mag(d: Fraction) -> float:
    """The smallest e with |d| < 2^e for an exact d, minus infinity at 0."""
    return _log2_top(abs(d.numerator), d.denominator)


def test_constants_match_published_digits():
    vals = {
        "pi": MpReal.from_fixed(_pi_fixed(P), P, P),
        "log2": MpReal.from_fixed(_log2_fixed(P), P, P),
        "zeta3": sp.zeta(3, P),
        "zeta5": sp.zeta(5, P),
        "beta3": sp.dirichlet_beta(3, P),
        "catalan": sp.dirichlet_beta(2, P),
    }
    for name, v in vals.items():
        assert _places(v.to_decimal(46), 45) == _places(KNOWN[name], 45), name


def test_pi_hex_expansion():
    fx = _pi_fixed(256)
    frac = fx % (1 << 256)
    assert format(frac >> (256 - 64), "016X") == "243F6A8885A308D3"


def test_elementary_identities():
    wp = 256
    # exp(ln 2) = 2, sin^2 + cos^2 = 1 and cos = 1/2 at pi/3 and at pi/3
    # past 2^60 half turns, arg(1+i) = pi/4
    v, m = _exp_fixed(_log2_fixed(wp), wp)
    assert abs((v << m) - (2 << wp)) < 1 << 16
    for q in (Fraction(1, 3), (1 << 60) + Fraction(1, 3)):
        s, c = sincospi(q, wp)
        assert abs(s * s + c * c - (1 << 2 * wp)) < 1 << (wp + 16)
        assert abs(c - (1 << wp - 1)) < 1 << 16
    d = 4 * sp._ln_pair(Fraction(1), Fraction(1), wp)[1] - _pi_fixed(wp)
    assert abs(d) < 1 << 16


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(1 << 40), max_value=1 << 40),
       st.sampled_from([1, 2]) | st.integers(min_value=1, max_value=1 << 20),
       st.integers(min_value=2, max_value=1024))
def test_sincospi_is_exact_where_it_can_be_and_periodic(n, d, prec):
    q = Fraction(n, d)
    s, c = sincospi(q, prec)
    # a period of 2 is one exact turn of the reduction: the same bits
    assert sincospi(q + 2, prec) == (s, c)
    # integers and half-integers give exact zeros and units
    if (2 * q).denominator == 1:
        m = int(2 * q) % 4
        assert (s, c) == ((0, 1, 0, -1)[m] << prec, (1, 0, -1, 0)[m] << prec)
    # s^2 + c^2 - 1 within a few ulps at any |q|, far past 2^24 too
    assert _mag(Fraction(s * s + c * c, 1 << 2 * prec) - 1) <= 6 - prec


def test_ln_pow_roundtrip():
    wp = 192
    for q in (Fraction(3, 7), Fraction(13, 5), Fraction(1, 1000)):
        v, m = _exp_fixed(_ln_fixed(q, wp), wp)
        assert _mag(Fraction(v, 1 << wp) * Fraction(2) ** m - q) < -(wp - 24)


def _within(lo: int, hi: int, wp: int, ulps: int) -> bool:
    """lo at wp bits within ulps of hi at 4 wp bits."""
    return abs((lo << 3 * wp) - hi) <= ulps << 3 * wp


_NEAR_ONE = st.builds(lambda k, j: 1 + Fraction(k, 1 << j),
                      st.integers(-(1 << 20), 1 << 20), st.integers(21, 200))
_FAR = st.builds(lambda n, d, e: Fraction(n, d) * Fraction(2) ** e,
                 st.integers(1, 1 << 40), st.integers(1, 1 << 40),
                 st.integers(-300, 300))


@settings(max_examples=150, deadline=None)
@given(st.integers(32, 512), st.data())
def test_int_kernels_agree_with_four_times_the_precision(wp, data):
    # each kernel at wp bits against itself at 4 wp on the same exact
    # argument: sincospi, ln and atan within 2 ulps, and exp within 4 ulps
    # of its own power of two; and at wp, the laws e^x e^-x = 1, ln 2q =
    # ln q + ln 2 and atan x + atan 1/x = pi/2 tie the reductions together
    w4 = 4 * wp
    # exp near Stirling's exponent (X - 1/2) ln X - X, X = wp/2 + 8, as
    # gamma takes it at wp bits, and near 0
    X = wp // 2 + 8
    a = round((X - 0.5) * math.log(X) - X)
    k = data.draw(st.integers(-(1 << 24), 1 << 24))
    for x in ((a << wp) + (k << max(0, wp - 20)), k):
        (v, m), (v4, m4) = _exp_fixed(x, wp), _exp_fixed(x << 3 * wp, w4)
        assert m == m4 and _within(v, v4, wp, 4), (x, wp)
        u, n = _exp_fixed(-x, wp)
        assert abs(v * u * Fraction(2) ** (m + n) - (1 << 2 * wp)) \
            <= 8 << wp, (x, wp)
    # ln near 1 and far from it
    q = data.draw(_NEAR_ONE | _FAR)
    assert _within(_ln_fixed(q, wp), _ln_fixed(q, w4), wp, 2), (q, wp)
    assert abs(_ln_fixed(2 * q, wp) - _ln_fixed(q, wp)
               - _log2_fixed(wp)) <= 4, (q, wp)
    # atan near 0, near 1 and large
    j = data.draw(st.integers(-(1 << 30), 1 << 30))
    for x in (j, (1 << wp) + j, abs(j) << wp, -(abs(j) + 1) << wp):
        assert _within(_atan_fixed(x, wp), _atan_fixed(x << 3 * wp, w4),
                       wp, 2), (x, wp)
    x = (abs(j) + 1) << wp
    assert abs(_atan_fixed(x, wp) + _atan_fixed((1 << 2 * wp) // x, wp)
               - (_pi_fixed(wp) >> 1)) <= 4, (x, wp)
    # sincospi at any rational
    r = data.draw(st.fractions(-(1 << 30), 1 << 30, max_denominator=1 << 30))
    for lo, hi in zip(sincospi(r, wp), sincospi(r, w4)):
        assert _within(lo, hi, wp, 2), (r, wp)


@given(st.fractions(min_value=-100, max_value=100,
                    max_denominator=1 << 30))
def test_from_fraction_to_fraction_dyadic(q):
    # denominators that are powers of two are represented exactly
    q = Fraction(q.numerator, 1 << q.denominator.bit_length())
    v = MpReal.from_fraction(q, 128)
    if q.numerator.bit_length() <= 100:
        assert v.to_fraction() == q


@given(st.integers(min_value=-(1 << 60), max_value=1 << 60),
       st.integers(min_value=-(1 << 60), max_value=1 << 60))
def test_add_mul_match_exact_integers(a, b):
    wp = 160
    va, vb = MpReal.from_int(a, wp), MpReal.from_int(b, wp)
    assert va.to_fraction() + vb.to_fraction() == a + b
    assert va.mul(vb, wp).to_fraction() == a * b


@given(st.fractions(min_value=-8, max_value=8, max_denominator=10**9),
       st.integers(min_value=32, max_value=512))
def test_to_fixed_within_half_ulp(q, wp):
    v = MpReal.from_fraction(q, wp + 64)
    fx = v.to_fixed(wp)
    assert abs(Fraction(fx, 1 << wp) - v.to_fraction()) <= Fraction(1, 1 << (wp + 1))


def test_pow_int_matches_repeated_mul():
    wp = 160
    x = MpReal.from_fraction(Fraction(7, 5), wp)
    acc = MpReal.from_int(1, wp)
    for _ in range(11):
        acc = acc.mul(x, wp)
    d = pow_int(x, 11, wp).to_fraction() - acc.to_fraction()
    assert _mag(d) < acc.bit_top() - (wp - 16)


def test_pow_int_refuses_a_negative_exponent():
    with pytest.raises(DomainError):
        pow_int(MpReal.from_int(3, 64), -1, 64)


def test_real_and_complex_do_not_mix_with_other_types():
    # a complex value is an (re, im) pair, read part by part
    x = MpReal.from_int(1, 64)
    for other in ("1", (1, 0), 1):
        with pytest.raises(TypeError):
            x.mul(other, 64)


def _assert_abs_lt_2pow_exact(x: MpReal, k: int) -> None:
    # bit_top brackets |x| exactly: |x| < 2^k just when bit_top() <= k
    lt = x.is_zero or x.bit_top() <= k
    assert lt == (abs(x.to_fraction()) < Fraction(2) ** k)


@pytest.mark.parametrize("k", [-70, -1, 0, 1, 5, 70])
def test_abs_lt_2pow_at_the_power_and_one_ulp_either_side(k):
    p = 64
    top = p + 4  # a normalized mantissa holds p + 4 bits
    _assert_abs_lt_2pow_exact(MpReal.zero(p), k)
    for sign in (1, -1):
        for man, shift in (((1 << top) - 1, top),      # 2^k - 1 ulp
                           (1 << (top - 1), top - 1),  # 2^k
                           ((1 << (top - 1)) + 1, top - 1)):  # 2^k + 1 ulp
            x = MpReal.make(sign, man, k - shift, p)
            assert x.man == man
            _assert_abs_lt_2pow_exact(x, k)


@given(st.sampled_from([1, -1]), st.integers(1, 1 << 100),
       st.integers(-200, 200), st.integers(-300, 300))
def test_abs_lt_2pow_matches_the_exact_comparison(sign, man, e, k):
    _assert_abs_lt_2pow_exact(MpReal.make(sign, man, e, 64), k)


def test_zeta_and_beta_guards():
    with pytest.raises(Exception):
        sp.zeta(1, 128)
    with pytest.raises(PoleError):
        sp.gamma(Fraction(-3), 128)


def test_polylog_small_argument():
    # Li_2(1/2) = pi^2/12 - log^2(2)/2
    wp = 256
    got = sp.polylog(2, (Fraction(1, 2), Fraction(0)), wp)
    l2 = _log2_fixed(wp)
    want = (_pi_fixed(wp) ** 2 >> wp) // 12 - (l2 * l2 >> wp + 1)
    assert got[1] == 0 and abs(got[0] - want) < 1 << 24


def _duplication_defect(z, wp):
    """The larger part of Li5(z) + Li5(-z) - Li5(z^2)/16, in ulps at wp
    bits, for the exact pair z."""
    zr, zi = z
    a, b = li5(z, wp), li5((-zr, -zi), wp)
    c = li5((zr * zr - zi * zi, 2 * zr * zi), wp)
    return max(abs(a[i] + b[i] - Q(c[i], 16)) for i in (0, 1))


def test_li5_duplication():
    wp = 320
    for z in ((Q(1, 2), Q(0)), (Q(0), Q(1, 2))):
        assert _duplication_defect(z, wp) < 1 << 64


def test_li5_series_annulus_seam():
    # both arguments on the annulus route, the square on the series one
    assert _duplication_defect((Q(4, 5), Q(0)), 320) < 1 << 64


@pytest.mark.parametrize("re, im", [(-1, 0), (0, 1), (0, -1)])
def test_li5_landmarks_agree_with_the_annulus_route(re, im):
    # the closed forms at -1 and +-i stay although the annulus route
    # covers those points: without them a cold order5 battery takes
    # about twice as long
    wp = 256
    a, b = sp.li5((Q(re), Q(im)), wp), sp._li5_mu(Q(re), Q(im), wp)
    assert max(abs(x - y) for x, y in zip(a, b)) <= 1 << 64


def _li5_route(z) -> str:
    a2 = z[0] ** 2 + z[1] ** 2
    if a2 <= Q(9, 16):
        return "disc"
    return "annulus" if a2 < Q(16, 9) else "inversion"


@st.composite
def _li5_points(draw):
    """An exact Gaussian rational on a drawn route of li5, or a real z > 1
    on the cut [1, oo)."""
    route = draw(st.sampled_from(["disc", "annulus", "inversion", "cut"]))
    d = draw(st.integers(1, 24))
    if route == "cut":
        return Q(draw(st.integers(d + 1, 6 * d)), d), Q(0)
    top = {"disc": d, "annulus": 2 * d, "inversion": 6 * d}[route]
    part = st.integers(-top, top).map(lambda a: Q(a, d))
    return draw(st.tuples(part, part).filter(
        lambda z: _li5_route(z) == route))


@settings(max_examples=60, deadline=None)
@given(_li5_points(), st.integers(32, 160))
def test_li5_on_exact_gaussian_rationals(z, prec):
    # each part is within an ulp, so it agrees with the value at 4 prec
    # to two, and the duplication law holds to a few
    lo, hi = li5(z, prec), li5(z, 4 * prec)
    assert all(abs(a - (b >> 3 * prec)) <= 2 for a, b in zip(lo, hi)), z
    assert _duplication_defect(z, prec) <= 4, z
    if z[1] == 0 and z[0] > 1:
        # the value below the cut: Im Li5(x) = -pi ln^4(x) / 24
        w = prec + 16
        want = -(_pi_fixed(w) * _ln_fixed(z[0], w) ** 4 >> 4 * w) // 24
        assert abs(lo[1] - (want + (1 << 15) >> 16)) <= 2, z


def test_bernoulli_exact_values():
    assert sp.bernoulli(2) == Fraction(1, 6)
    assert sp.bernoulli(12) == Fraction(-691, 2730)


def test_precision_bounds_are_enforced():
    with pytest.raises(PrecisionError):
        MpReal.make(1, 12345, 0, 1)


# ----------------------------------------------------------------------
# the Euler-Maclaurin kernel and its Bernoulli table


def _akiyama_tanigawa(m_max: int) -> dict[int, Fraction]:
    """B_m for m <= m_max from the Akiyama-Tanigawa triangle (B_1 = +1/2)."""
    row = []
    out = {}
    for m in range(m_max + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out[m] = row[0]
    return out


def test_bernoulli_table_is_history_independent(monkeypatch):
    monkeypatch.setattr(sp, "_bernoulli_table", sp._BernoulliTable())
    sp.bernoulli(1000)
    top_first = [sp.bernoulli(m) for m in range(2, 1001, 2)]
    monkeypatch.setattr(sp, "_bernoulli_table", sp._BernoulliTable())
    ascending = [sp.bernoulli(m) for m in range(2, 1001, 2)]
    assert top_first == ascending
    ref = _akiyama_tanigawa(200)
    assert ascending[:100] == [ref[m] for m in range(2, 201, 2)]


def test_bernoulli_table_grows_only_to_need():
    table = sp._BernoulliTable()
    table.upto(37)
    assert len(table.b) == 37
    table.upto(5)
    assert len(table.b) == 37


def _close(a: Fraction, b: Fraction, prec: int) -> bool:
    return _mag(a - b) <= _mag(b) - (prec - 4)


@pytest.mark.parametrize("prec", [256, 2048])
def test_hurwitz_closed_forms(prec):
    def hurwitz(n, a, bits):
        return sp.hurwitz(n, Fraction(a), bits).to_fraction()

    for n in (2, 3, 7):
        z = sp.zeta(n, prec).to_fraction()
        assert _close(hurwitz(n, 1, prec), z, prec)
        assert _close(hurwitz(n, Fraction(1, 2), prec), z * ((1 << n) - 1),
                      prec)
        diff = hurwitz(n, Fraction(1, 4), prec + 16) \
            - hurwitz(n, Fraction(3, 4), prec + 16)
        assert _close(diff, sp.dirichlet_beta(n, prec).to_fraction()
                      * (1 << 2 * n), prec)


@pytest.mark.parametrize("wp", [128, 1024])
def test_tail_chain_agrees_with_the_borwein_zeta(wp):
    # the Euler-Maclaurin kernel of hyper's tails against the Borwein sum:
    # sum_(n>=128) n^-3 from the boundary power 128^-3 = 2^-21
    tail = Fraction(sp._em_tail(1 << (wp - 21), 128, 3), 1 << wp)
    head = sum(Fraction(1, k**3) for k in range(1, 128))
    assert _mag(tail - (sp.zeta(3, wp).to_fraction() - head)) <= -(wp - 16)


@settings(max_examples=40, deadline=None)
@given(st.integers(64, 4096),
       st.one_of(st.integers(0, 22).map(lambda j: Fraction(3, 2) + j),
                 st.fractions(1, 24, max_denominator=64).filter(
                     lambda s: s > 1)))
def test_em_logtail_is_the_s_derivative_of_em_tail(x, s):
    # -dE/ds as the five-point central difference of E = _em_tail(2^200,
    # x, .): its error is of order h^4/(s-1)^4 relative, where the
    # two-point (E(s-h) - E(s+h))/(2h) errs by h^2/(s-1)^2, 2^-84 at
    # s = 65/64
    h = Fraction(1, 1 << 48)

    def e(k):
        return sp._em_tail(1 << 200, x, s + k * h)

    diff = Fraction(e(2) - 8 * e(1) + 8 * e(-1) - e(-2)) / (12 * h)
    got = sp._em_logtail(1 << 200, x, s)
    assert abs(got - diff) <= abs(diff) / (1 << 88)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.tuples(st.just(1), st.integers(2, 13)),
                 st.tuples(st.just(2), st.integers(2, 8))),
       st.integers(64, 4096))
def test_borwein_sums_lie_within_their_counted_bounds(kind, w):
    # zeta(n) (step 1, through eta) and beta(n) (step 2) at w bits lie
    # within their bound of the same sums at 4w bits, within theirs
    step, n = kind

    def fixed(bits):
        return _zeta_fixed(n, bits) if step == 1 else _alt_fixed(n, 2, bits)

    (v, e), (v4, e4) = fixed(w), fixed(4 * w)
    assert abs((v << 3 * w) - v4) <= (e << 3 * w) + e4
    # eta and beta count at most 4 ulps; zeta(2) = 2 eta(2) doubles that
    # and adds a floor
    assert e <= 9


@pytest.mark.slow
def test_borwein_weights_stay_integral():
    # every division of the weight recurrence in _alt_fixed is exact, for
    # every term count N up to the one at 8192 + 128 bits, and the
    # weights sum to d = T_N(3), from T_(N+1)(3) = 6 T_N(3) - T_(N-1)(3)
    top = math.ceil((8192 + 128) / math.log2(3 + math.sqrt(8)))
    t_prev, t = 1, 3
    for N in range(1, top + 1):
        p = d = 1 << (2 * N - 1)
        for k in range(N - 1, -1, -1):
            p, r = divmod(p * (k + 1) * (2 * k + 1), 2 * (N + k) * (N - k))
            assert r == 0, (N, k)
            d += p
        assert p == 1 and d == t, N
        t_prev, t = t, 6 * t - t_prev


def test_hurwitz_rejects_non_integer_s():
    with pytest.raises(DomainError):
        sp.hurwitz(Fraction(3, 2), Fraction(1, 2), 128)
    with pytest.raises(DomainError):
        sp.hurwitz(Fraction(1), Fraction(1, 2), 128)


def test_benchmark_trace_names_exist():
    # the traced benchmark pass wraps these module attributes by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for attrs in tracing.SPECIAL_WRAPS.values():
        for attr in attrs:
            assert callable(getattr(sp, attr, None)), attr


def _fresh_real():
    """A private copy of lihex.mp.real that has computed nothing yet,
    whatever the module keeps between calls."""
    spec = importlib.util.find_spec("lihex.mp.real")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# includes 610 -> 641 (pi) and 162 -> 194 (log 2), where serving a lower
# precision by rounding a cached higher one changed the last bit
HISTORY_Q = (64, 162, 256, 400, 512, 610, 777, 1024, 1280, 1536, 1800, 2048)


def test_pi_and_log2_do_not_depend_on_earlier_requests():
    for q in HISTORY_Q:
        after = _fresh_real()
        after._pi_fixed(q)
        after._log2_fixed(q)
        # `after` also keeps every earlier p, which only adds history
        for p in range(q + 1, q + 33):
            fresh = _fresh_real()
            assert after._pi_fixed(p) == fresh._pi_fixed(p), (q, p)
            assert after._log2_fixed(p) == fresh._log2_fixed(p), (q, p)

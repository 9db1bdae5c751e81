"""Special functions: Bernoulli numbers, zeta values, gamma, polylogarithms
in the disc |z| <= 3/4, Li_5 on the whole plane, and numerical Taylor
coefficients.

Everything here is integer fixed-point work, a value v at wp bits
standing for v / 2**wp; only :func:`zeta`, :func:`hurwitz` and
:func:`dirichlet_beta` round their sums once into an
:class:`~lihex.mp.real.MpReal`.  :func:`zeta` and :func:`dirichlet_beta`
round the Borwein sums of :mod:`lihex.mp.real`, the one zeta(n) and
beta(n) algorithm of the package.  Every Euler-Maclaurin tail -- the
integer-argument Hurwitz zeta and the 3F2 and Catalan tails of
:mod:`lihex.hyper`, each measured against its last head term -- goes
through one fixed-point kernel, :func:`_em_tail`, and the Catalan
tail's ln n weights through its s-derivative :func:`_em_logtail`, over
the same corrections; :func:`gamma` reads them at s = 1 as Stirling's
series for ln Gamma, integrated once, at a shifted argument.  These
carry their rational cofactor in fixed point, one floor a step, and
meet each B_2i/(2i)! as a cached fixed-point int as wide as that
cofactor, taken from one shared table of exact Bernoulli numbers that
grows entry by entry and never recomputes one.

:func:`hurwitz` takes integer s only and :func:`gamma` rational
arguments only.

A complex argument is an exact (re, im) pair of rationals, and a
complex value an (re, im) pair of fixed-point ints at a stated scale:
:func:`polylog` sums its powers of the exact z, and the principal log
takes ln|z| from `_ln_fixed` of the exact |z|^2 and arg z from
`_atan_fixed`.
:func:`li5` extends :func:`polylog` at order 5 to the whole plane by
inversion and by the expansion of Li_5(e^mu) on the annulus between,
each route chosen by an exact test; the Li_5 equation of
``hyper.CHECKS["order5"]`` reads it.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import Callable, Iterator

from ..errors import DomainError, IllConditionedError, PoleError
from .real import (MpReal, _alt_fixed, _atan_fixed, _div0, _exp_fixed,
                   _ln_fixed, _pi_fixed, _zeta_fixed)

__all__ = [
    "bernoulli",
    "zeta",
    "hurwitz",
    "dirichlet_beta",
    "gamma",
    "polylog",
    "li5",
    "taylor_coeffs",
]

BERNOULLI_MAX = 2048

# ----------------------------------------------------------------------
# Bernoulli numbers


class _BernoulliTable:
    """Exact B_2, B_4, ..., each computed once, in order, on demand.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers
    T_k (1, 2, 16, 272, ...).  The Knuth-Buckholtz recurrence
    t_j^(k) = (j-k) t_(j-1)^(k) + (j-k+2) t_j^(k-1), t_j^(1) = (j-1)!,
    T_j = t_j^(j), is run one column j at a time: the kept column
    t_j^(1..j) is all the next one needs, so growing to n costs O(n^2)
    however the requests arrive, and the entries never depend on them.
    """

    def __init__(self) -> None:
        self.b: list[Fraction] = [Fraction(1, 6)]
        self._col = [1]  # t_j^(1..j) for j = len(self.b)
        self._lock = threading.Lock()

    def upto(self, n: int) -> list[Fraction]:
        """The table, holding at least B_2..B_2n."""
        if len(self.b) < n:
            with self._lock:
                while len(self.b) < n:
                    col = self._col
                    j = len(col) + 1
                    new = [(j - 1) * col[0]]
                    for k in range(2, j):
                        new.append((j - k) * col[k - 1] + (j - k + 2) * new[-1])
                    new.append(2 * new[-1])
                    self._col = new
                    four_j = 1 << (2 * j)
                    sign = 1 if j % 2 == 1 else -1
                    self.b.append(
                        Fraction(sign * 2 * j * new[-1], four_j * (four_j - 1)))
        return self.b


_bernoulli_table = _BernoulliTable()


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m for even m with 2 <= m <= 2048."""
    if m % 2 != 0 or not 2 <= m <= BERNOULLI_MAX:
        raise DomainError(f"bernoulli defined for even 2 <= m <= {BERNOULLI_MAX}, got {m}")
    return _bernoulli_table.upto(m // 2)[m // 2 - 1]


# ----------------------------------------------------------------------
# the Euler-Maclaurin kernel
#
# For rational x > 0 and s > 1,
#   sum_{k>=0} (x+k)^-s = x^(1-s)/(s-1) + x^-s/2
#                         + sum_{i>=1} B_2i/(2i)! (s)_(2i-1) x^(1-s-2i) + R.
# Callers sum the head of their series directly and pass the boundary
# power bp = x^-s in fixed point, or any multiple of it; every term below
# is bp times a rational cofactor carried at 16 more bits, so no shared
# power can underflow ahead of its cofactor.


@functools.cache
def _bernoulli_fixed(i: int, bits: int) -> int:
    """B_2i/(2i)! as a fixed-point int at bits, floored once."""
    b = _bernoulli_table.upto(i)[i - 1]
    return (b.numerator << bits) // (b.denominator * math.factorial(2 * i))


def _em_corrections(bp: int, x, s) -> Iterator[int]:
    """The corrections B_2i/(2i)! (s)_(2i-1) x^(1-s-2i), i = 1, 2, ...,
    as fixed-point integers on bp's scale (x and s are ints or Fractions).

    The cofactor q = bp (s)_(2i-1) x^(1-2i) is carried with 16 guard
    bits and floored once per step.  It meets B_2i/(2i)! at as many
    fractional bits as q has, not bp: once 2i passes x, q grows by up to
    log2(4 pi^2) = 5.3 bits a step while the terms still fall.  A term
    is then within one ulp and a small fraction of one.  The series is
    asymptotic: it ends before the first term that is zero or no
    smaller than the one before.
    """
    sn, sd = s.numerator, s.denominator
    xn, xd = x.numerator, x.denominator
    q = (bp * sn * xd << 16) // (sd * xn)
    xd2, xx = xd * xd, (sd * xn) ** 2
    u = sn + sd  # (s + 2i - 1) sd
    prev = None
    i = 1
    while True:
        bits = (q.bit_length() + 63) & ~63  # one cached width per 64 bits
        t = q * _bernoulli_fixed(i, bits) >> (bits + 16)
        mag = abs(t)
        if mag == 0 or (prev is not None and mag >= prev):
            return
        yield t
        prev = mag
        q = q * (u * (u + sd) * xd2) // xx
        u += 2 * sd
        i += 1


def _em_tail(bp: int, x, s) -> int:
    """sum_{k>=0} (x+k)^-s on bp's fixed-point scale, from bp = x^-s."""
    sm1 = s - 1
    head = bp * x.numerator * sm1.denominator // (x.denominator * sm1.numerator)
    return head + (bp >> 1) + sum(_em_corrections(bp, x, s))


def _em_logtail(bp: int, x, s) -> int:
    """sum_{k>=0} ln((x+k)/x) (x+k)^-s on bp's fixed-point scale, from
    bp = x^-s: the -d/ds of `_em_tail` at a fixed bp, so no ln x enters."""
    sm1 = s - 1
    acc = bp * x.numerator * sm1.denominator**2 // (
        x.denominator * sm1.numerator**2)
    # the i-th correction carries (s)_(2i-1), whose s-derivative weights it
    # by dl = sum_(r<2i-1) 1/(s+r), kept 16 bits finer than bp, so each
    # product of a term no larger than bp is within about one ulp
    w = abs(bp).bit_length() + 16
    sn, sd = s.numerator, s.denominator
    dl = (sd << w) // sn
    for r, t in enumerate(_em_corrections(bp, x, s)):
        acc -= t * dl >> w
        dl += (sd << w) // (sn + (2 * r + 1) * sd) \
            + (sd << w) // (sn + (2 * r + 2) * sd)
    return acc


# ----------------------------------------------------------------------
# Riemann and Hurwitz zeta at integer arguments


@functools.cache
def zeta(n: int, prec: int) -> MpReal:
    """Riemann zeta at integer n >= 2, relative error below 2**-prec: the
    Borwein sum of `mp.real._zeta_fixed` rounded once."""
    if n < 2:
        raise DomainError("zeta requires an integer argument >= 2")
    wp = prec + 32
    return MpReal.from_fixed(_zeta_fixed(n, wp)[0], wp, prec)


def _hurwitz_int(n: int, a: Fraction, prec: int) -> MpReal:
    """zeta(n, a) for integer n >= 2 and rational 0 < a <= 1."""
    wp = prec + 32
    # direct-sum length N: the correction at index J scales like
    # ((n + 2J) / (2*pi*e*N))**(2J), so N puts it below 2**-(wp+16).
    # J = wp/8 sums about wp/4 direct terms, each one fixed-point
    # division, and needs Bernoulli numbers up to B_(wp/4), whose
    # Fraction products cost far more per correction than a direct
    # term does; J = wp/4 halved N but drew on the table up to B_(wp/2)
    J = max(4, min((wp + 7) // 8, BERNOULLI_MAX // 2 - 2))
    N = max(16, math.ceil((n + 2 * J) / (2 * math.pi * math.e)
                          * 2.0 ** ((wp + 16) / (2 * J))) + 4)
    p, q = a.numerator, a.denominator
    acc = 0
    qn = q**n
    for k in range(N):
        acc += (qn << wp) // (q * k + p) ** n
    bp = (qn << wp) // (q * N + p) ** n
    acc += _em_tail(bp, Fraction(q * N + p, q), n)
    return MpReal.from_fixed(acc, wp, prec)


def hurwitz(s: Fraction, a: Fraction, prec: int) -> MpReal:
    """Hurwitz zeta(s, a) for integer s >= 2 and rational 0 < a <= 1."""
    s, a = Fraction(s), Fraction(a)
    if s.denominator != 1 or s < 2:
        raise DomainError("hurwitz requires an integer s >= 2")
    if not 0 < a <= 1:
        raise DomainError("hurwitz requires 0 < a <= 1")
    return _hurwitz_int(int(s), a, prec)


# ----------------------------------------------------------------------
# Dirichlet beta


@functools.cache
def dirichlet_beta(n: int, prec: int) -> MpReal:
    """Dirichlet beta at integer n >= 2: sum_{k>=0} (-1)^k (2k+1)^-n,
    relative error below 2**-prec, the Borwein sum of
    `mp.real._alt_fixed` rounded once."""
    if n < 2:
        raise DomainError("dirichlet_beta requires n >= 2")
    wp = prec + 32
    return MpReal.from_fixed(_alt_fixed(n, 2, wp)[0], wp, prec)


# ----------------------------------------------------------------------
# Gamma at rationals (Stirling's series)


@functools.cache
def gamma(x: Fraction, prec: int) -> int:
    """Gamma at a rational x, not 0 or a negative integer, at prec
    fixed-point bits within an ulp.

    Gamma(x) = sqrt(2 pi) e^L / prod_(i<N) (x + i), where L is Stirling's
    series for ln Gamma(X) - ln sqrt(2 pi) at X = x + N, N = prec/2 + 8
    plus the shift that makes X positive:
    L = (X - 1/2) ln X - X + sum_i B_2i / (2i (2i-1) X^(2i-1)), the i-th
    term t_i X / (2i - 1) for the s = 1 corrections t_i = B_2i/(2i) X^-2i
    of `_em_corrections` on the scale of X^-1.  For real X > 0 the
    remainder is below the first omitted term (Olver, ch. 8).  The
    product is the exact integer prod (p + i q) over q^N.  L is summed
    at w bits, w covering its floors, which X multiplies up to X^2-fold,
    and the integer bits of Gamma(x), rounded up to a multiple of 64 so
    that nearby requests share their pi and log 2 widths.  The shift
    has N factors and w grows with ln Gamma(x): x is meant to be of
    moderate size.
    """
    if x.denominator == 1 and x <= 0:
        raise PoleError("gamma pole at a non-positive integer")
    p, q = x.numerator, x.denominator
    n = prec // 2 + 8 + max(0, -math.floor(x))
    X = x + n
    xn, xd = X.numerator, X.denominator
    den, qn = math.prod(p + i * q for i in range(n)), q**n
    # log2 |Gamma(x)| = log2 Gamma(X) - log2 |den / qn|, within two bits
    top = math.lgamma(X) / math.log(2) + 2 + qn.bit_length() \
        - abs(den).bit_length()
    w = prec + 2 * xn.bit_length() + 24 + max(0, math.ceil(top))
    w += -w % 64
    # the terms fall while 2i < 2 pi X, to about e^(-2 pi X) = 2^(-9 X),
    # and X > prec/2 puts that far below 2^-w: the corrections end on a
    # term that floors to zero, never on a turn, so the first omitted
    # term, below X ulps, bounds what is left
    L = _ln_fixed(X, w) * (2 * xn - xd) // (2 * xd) - (xn << w) // xd
    for i, t in enumerate(_em_corrections((xd << w) // xn, X, 1), 1):
        L += t * xn // (xd * (2 * i - 1))
    v, m = _exp_fixed(L, w)
    sh = 2 * w - m - prec
    return (math.isqrt(_pi_fixed(w) << w + 1) * v * qn << max(0, -sh)) \
        // (den << max(0, sh))


# ----------------------------------------------------------------------
# complex values: an argument is an exact (re, im) pair of rationals, a
# value an (re, im) pair of ints at a stated number of fractional bits


def _exact(z: Fraction | tuple) -> tuple[Fraction, Fraction]:
    """z, rational or an exact (re, im) pair, as that pair."""
    if isinstance(z, tuple):
        return Fraction(z[0]), Fraction(z[1])
    return Fraction(z), Fraction(0)


def _gmul(a: tuple, b: tuple) -> tuple:
    """a b for exact (re, im) pairs of rationals or ints."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gdiv(a: tuple, b: tuple) -> tuple[Fraction, Fraction]:
    """a / b for exact (re, im) pairs of rationals, b != 0."""
    d = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


def _cmul(a: tuple[int, int], b: tuple[int, int], wp: int) -> tuple[int, int]:
    """a b for fixed-point pairs at wp bits, one floor per component."""
    re, im = _gmul(a, b)
    return re >> wp, im >> wp


def _pi_pow(k: int, wp: int) -> int:
    """pi^k at wp fixed-point bits for a small k >= 1, within about an
    ulp."""
    w = wp + 16
    return _pi_fixed(w) ** k >> ((k - 1) * w + 16)


def _ln_pair(re: Fraction, im: Fraction, wp: int) -> tuple[int, int]:
    """Principal log of the exact re + i im at wp fixed-point bits, each
    part within a few ulps, the imaginary part in (-pi, pi]: ln|z| is
    `_ln_fixed` of the exact |z|^2, halved, and arg z comes from
    `_atan_fixed` of the fixed-point im/re."""
    if not (re or im):
        raise DomainError("log of zero")
    w = wp + 16
    mag = _ln_fixed(re * re + im * im, w) >> 17
    if not im:
        ang = 0 if re > 0 else _pi_fixed(wp)
    elif not re:
        ang = _pi_fixed(wp) >> 1 if im > 0 else -(_pi_fixed(wp) >> 1)
    else:
        q = im / re
        ang = _atan_fixed((q.numerator << w) // q.denominator, w) >> 16
        if re < 0:
            ang += _pi_fixed(wp) if im > 0 else -_pi_fixed(wp)
    return mag, ang


def polylog(n: int, z: Fraction | tuple, prec: int) -> tuple[int, int]:
    """Li_n(z) = sum_{k>0} z^k / k^n for z rational or an exact (re, im)
    pair with |z| <= 3/4, as (re, im) ints at prec fixed-point bits, each
    within one ulp."""
    if n < 1:
        raise DomainError("polylog order must be >= 1")
    re, im = _exact(z)
    if re * re + im * im > Fraction(9, 16):
        raise DomainError("polylog argument must satisfy |z| <= 3/4")
    ar, ai = _polylog(n, re, im, prec + 32)
    return ar >> 32, ai >> 32


@functools.cache
def _polylog(n: int, re: Fraction, im: Fraction, wp: int) -> tuple[int, int]:
    """Li_n(re + i im) at wp fixed-point bits.

    With z = (a + i b)/d exact, each power is the last one times a + i b,
    divided by d and truncated: one ulp a step, which |z| <= 3/4 keeps
    below 6 ulps in every power, and one more a term for k^n."""
    d = math.lcm(re.denominator, im.denominator)
    a, b = int(re * d), int(im * d)
    pr, pi_ = _div0(a << wp, d), _div0(b << wp, d)
    ar = ai = 0
    k = 1
    while pr or pi_:
        ar += _div0(pr, k**n)
        ai += _div0(pi_, k**n)
        pr, pi_ = _div0(pr * a - pi_ * b, d), _div0(pr * b + pi_ * a, d)
        k += 1
    return ar, ai


# ----------------------------------------------------------------------
# Li_5 on the whole plane, around the disc series


def _li5_mu(re: Fraction, im: Fraction, wp: int) -> tuple[int, int]:
    """Li_5(e^mu), mu = log z, at wp fixed-point bits for the exact z =
    re + i im on the annulus 3/4 < |z| < 4/3, z != 1.

    The sum over k of zeta(5-k) mu^k / k!, with the missing zeta(1) of k
    = 4 replaced by H_4 - log(-mu).  Past k = 5 only even k count, with
    zeta(5-k)/k! = -beta_(k-4) / ((k-4)(k-3)(k-2)(k-1)k) for beta_m =
    B_m/m! from the shared Bernoulli table.  mu^k is carried without the
    k!, so it grows with |mu| > 1 where mu^k/k! would underflow, and
    meets beta_(k-4) at as many fractional bits as it has.  The terms
    fall by |mu/(2 pi)|^2 < 1/3 a step, since |mu| < pi + ln(4/3), so
    the sum stops at the first term that truncates to zero.
    """
    mu = _ln_pair(re, im, wp)
    lm = _ln_pair(Fraction(-mu[0], 1 << wp), Fraction(-mu[1], 1 << wp), wp)
    pi2 = _pi_pow(2, wp)
    tr, ti = _zeta_fixed(5, wp)[0], 0
    p = mu
    # zeta(5-k)/k! for k = 1, 2, 3: pi^4/90, zeta(3)/2, pi^2/36
    for c in ((pi2 * pi2 >> wp) // 90, _zeta_fixed(3, wp)[0] // 2, pi2 // 36):
        tr += p[0] * c >> wp
        ti += p[1] * c >> wp
        p = _cmul(p, mu, wp)
    t4 = _cmul(p, ((25 << wp) // 12 - lm[0], -lm[1]), wp)
    tr += t4[0] // 24
    ti += t4[1] // 24
    p = _cmul(p, mu, wp)
    tr -= p[0] // 240       # zeta(0)/5! = -1/240
    ti -= p[1] // 240
    mu2 = _cmul(mu, mu, wp)
    p = _cmul(p, mu, wp)
    k = 6
    while True:
        bits = (max(abs(p[0]), abs(p[1])).bit_length() + 63) & ~63
        den = ((k - 4) * (k - 3) * (k - 2) * (k - 1) * k) << bits
        b = _bernoulli_fixed((k - 4) // 2, bits)
        er, ei = _div0(p[0] * b, den), _div0(p[1] * b, den)
        if not (er or ei):
            return tr, ti
        tr -= er
        ti -= ei
        p = _cmul(p, mu2, wp)
        k += 2


def li5(z: Fraction | tuple, prec: int) -> tuple[int, int]:
    """Li_5 anywhere in the complex plane, principal branch: the logs
    under it take Im in (-pi, pi], so a real z > 1 gets the value below
    the cut [1, oo).

    z is rational or an exact (re, im) pair, and the value an (re, im)
    pair of ints at prec fixed-point bits, each within an ulp.  Inside
    |z| <= 3/4 the defining series is summed (`polylog`); outside |z| >=
    4/3 the inversion formula maps the exact 1/z into the disc; the
    remaining annulus goes through the expansion of Li_5(e^mu) around mu
    = 0.  Each route is chosen by an exact test on |z|^2, and the four
    unit-circle landmarks 1, -1, i, -i short-circuit to closed forms.
    Those at -1 and +-i stay although the annulus route covers them too:
    without them a cold 256-bit `hyper.CHECKS["order5"]` takes about
    twice as long.
    """
    re, im = _exact(z)
    wp = prec + 48
    a2 = re * re + im * im
    if a2 <= Fraction(9, 16):
        vr, vi = polylog(5, (re, im), wp)
    elif a2 == 1 and not re * im:
        z5 = _zeta_fixed(5, wp)[0]
        if re:
            vr, vi = (z5 if re > 0 else -15 * z5 // 16), 0
        else:
            vr, vi = -15 * z5 // 512, 5 * _pi_pow(5, wp) // 1536
            vi = vi if im > 0 else -vi
    elif a2 < Fraction(16, 9):
        vr, vi = _li5_mu(re, im, wp)
    else:
        # Li_5(1/z) - L^5/120 - pi^2 L^3/36 - 7 pi^4 L/360, L = log(-z)
        vr, vi = polylog(5, _gdiv((1, 0), (re, im)), wp)
        lg = _ln_pair(-re, -im, wp)
        l2 = _cmul(lg, lg, wp)
        l3 = _cmul(l2, lg, wp)
        l5 = _cmul(l3, l2, wp)
        pi2 = _pi_pow(2, wp)
        pi4 = pi2 * pi2 >> wp
        vr -= l5[0] // 120 + (pi2 * l3[0] >> wp) // 36 \
            + 7 * (pi4 * lg[0] >> wp) // 360
        vi -= l5[1] // 120 + (pi2 * l3[1] >> wp) // 36 \
            + 7 * (pi4 * lg[1] >> wp) // 360
    return vr >> 48, vi >> 48


# ----------------------------------------------------------------------
# numerical Taylor coefficients


def taylor_coeffs(
    f: Callable[[Fraction, int], int],
    order: int,
    prec: int,
) -> tuple[int, list[int]]:
    """Taylor coefficients c_0..c_order of f at 0, each within 2**-(prec/2),
    as (wp, [c_0, ...]): fixed-point ints at wp = 2 prec + 64 bits.

    f(x, wp) is f at the exact x as a fixed-point int at wp bits.  It is
    sampled at the exact symmetric grid j*h (|j| <= order), with h a
    power of two below 1/4, and the exact rational inverse of the
    Vandermonde system is applied exactly, with one floor, so the only
    error sources are f's own evaluations and the series truncation
    controlled by the grid spacing h.
    """
    if not 0 <= order <= 12:
        raise DomainError("taylor_coeffs supports orders 0..12")
    wp = 2 * prec + 64
    m = order
    t = prec // (order + 1) + 3
    h = Fraction(1, 4 << t)
    nodes = [j * h for j in range(-m, m + 1)]
    # Lagrange basis expansion: rows[j][i] = coefficient of x^i in ell_j(x)
    rows: list[list[Fraction]] = []
    for j, xj in enumerate(nodes):
        poly = [Fraction(1)]
        denom = Fraction(1)
        for l, xl in enumerate(nodes):
            if l == j:
                continue
            # poly *= (x - xl)
            poly = [Fraction(0)] + poly
            for i in range(len(poly) - 1):
                poly[i] -= xl * poly[i + 1]
            denom *= xj - xl
        rows.append([c / denom for c in poly])
    # conditioning: the i-th coefficient sees noise amplified by W_i
    for i in range(order + 1):
        w_bits = max(
            (abs(rows[j][i]).numerator.bit_length()
             - abs(rows[j][i]).denominator.bit_length())
            for j in range(len(nodes))
            if rows[j][i] != 0
        )
        if w_bits > wp - prec // 2 - 8:
            raise IllConditionedError(
                f"coefficient {i}: losing {w_bits} of {wp} working bits"
            )
    samples = [f(xj, wp) for xj in nodes]
    return wp, [math.floor(sum(s * row[i] for s, row in zip(samples, rows)))
                for i in range(order + 1)]

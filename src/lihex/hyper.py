"""Hypergeometric forms of the ladder generating functions.

The level-one ladders have generating functions expressible three ways:
as pole sums over shifted integers (partial fractions) read from the
ladder table ``series._BASE``, as terminating combinations of a
two-parameter kernel ``W`` built from a 3F2 at unit argument, and -- for
the wider family -- through a meromorphic function ``U`` whose lattice
values are exact rationals.  This module evaluates
all three forms and cross-checks them, along with the reflection law for
``W``, recurrences for the complex generating functions, the integer
coefficients of the asymptotic expansion of ``U``, Pochhammer ratio
identities, and the central-binomial series for Catalan's constant.
The ``order5`` battery checks ``f5`` and the two-variable Li_5
equation, which lives here.

Everything here reduces to a single summation engine: a linearly
convergent series is summed directly to a cutoff ``N`` and its tail is
re-expanded against the head's last term as Euler-Maclaurin sums at
``N``, each a rational series in ``1/N``.

Every value here is a fixed-point int, v at wp bits standing for
v / 2**wp, and each check's residual is one such int at a stated wp;
the public value functions (``eval_W``, ``genfn_pf``, ``genfn_hyp``,
``U``, ``Utilde``, ``catalan_binomial``) round theirs once into an
``MpReal``.  The inner sums have an absolute error budget of one floor
(one ulp) per term, held below the result's last bit by stated guard
bits:

- the 3F2 at unit argument and the harmonically weighted Catalan
  series over its terms, at prec + 64 bits: the head of N = 4 wp terms
  runs 2 bitlen(N) + 8 bits finer, which covers its N floors; the ratio
  series is exact before one floor per coefficient, the tail
  coefficients carry 64 more bits, and each tail term comes out of the
  Euler-Maclaurin kernel, or its s-derivative for the ln n of the
  harmonic weight, within about one ulp;
- the pole sums, at prec + 48 bits: exact Gaussian-integer numerators
  and small denominators at the exact t, one integer complex division
  per term, about 2 wp terms at most;
- the Li_5 equation, at prec + 80 bits: 33 li5 values, each within an
  ulp, weighted by up to 18;
- the asymptotic integers k_m: one pass over the kernel, at a precision
  sized from m that keeps the rounding error below 1/8, cut where the
  kernel's tail falls below 1/16.

The Euler-Maclaurin kernel, its s-derivative, Stirling's series for
the gammas and ``li5`` are in :mod:`lihex.mp.special`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import (
    DivergenceError,
    DomainError,
    PoleError,
    PrecisionError,
    UnknownName,
)
from .ladders import CheckReport, _report, eval_ladder
from .mp import special as _sp
from .mp.special import (_cmul, _exact, _gdiv, _gmul, _ln_pair, _pi_pow,
                         li5)
from .mp.real import (MpReal, _exp_fixed, _log2_fixed, _pi_fixed,
                       _zeta_fixed, sincospi)
from .series import (_BASE, _UNIT_PARTS, ARGUMENTS, _exact_part,
                     eval_formula)

__all__ = [
    "eval_W",
    "reflection_check",
    "f5",
    "genfn_pf",
    "genfn_hyp",
    "check_trig_forms",
    "check_recurrence",
    "U",
    "Utilde",
    "u_rational",
    "utilde_rational",
    "asymp_coeff",
    "pochhammer_check",
    "expu_check",
    "geo_checks",
    "catalan_binomial",
    "check_li5_identity",
    "CHECKS",
]

Q = Fraction

_HALF = Q(1, 2)


# ----------------------------------------------------------------------
# small helpers

def _fix(q: Fraction, wp: int) -> int:
    """The rational q at wp fixed-point bits, floored."""
    return (q.numerator << wp) // q.denominator


def _mulq(x: int, q: Fraction) -> int:
    """x q for a fixed-point x and a rational q, floored."""
    return x * q.numerator // q.denominator


def _prod(vals: Iterable[int], wp: int) -> int:
    """The product of fixed-point values at wp bits, floored once."""
    vals = list(vals)
    return math.prod(vals) >> wp * (len(vals) - 1)


def _exact_report(name: str, prec: int, ok: bool) -> CheckReport:
    return CheckReport(
        name=name, bits=prec,
        log2_residual=float("-inf") if ok else 0.0,
        passed=ok,
    )


# ----------------------------------------------------------------------
# the 3F2(1) summation engine
#
# For F = sum_m c_m with c_m = (al)_m (be)_m / ((ga)_m (de)_m), the terms
# are c_m = lam m^-rho T(1/m) with rho = ga + de - al - be, a constant
# lam (four gammas) and a formal series T(x) = 1 + d_1 x + ... that obeys
#
#     T(x/(1+x)) = T(x) (1+al x)(1+be x)(1+x)^rho / ((1+ga x)(1+de x)),
#
# whose order-by-order solution gives the d_j.  The head sums c_0 ..
# c_(N-1) and ends on c_N = lam N^-rho sum_j t_j, t_j = d_j N^-j, so lam
# cancels from the tail past N:
#
#     c_N sum_j t_j H_j / sum_j t_j,   H_j = N^(rho+j) zeta(rho + j, N),
#
# and `mp.special._em_tail` sums t_j H_j from t_j in rationals alone.

def _ratio_series(al: Fraction, be: Fraction, ga: Fraction, de: Fraction,
                  rho: Fraction, jmax: int, wp: int) -> Iterator[int]:
    """r_0 .. r_(jmax+1) of R(x) = (1+al x)(1+be x)(1+x)^rho / ((1+ga x)(1+de x))
    as fixed-point ints at wp bits, each floored once from its exact value.

    With L the common denominator of the parameters, r_k is an integer
    over L^(k+2) k!, so the whole series runs in exact integers.
    """
    lcd = math.lcm(*(v.denominator for v in (al, be, ga, de, rho)))
    A, B, G, E, R = (v.numerator * (lcd // v.denominator)
                     for v in (al, be, ga, de, rho))
    nb = [1]  # nb[k] = prod_(i<k) (R - i L), so C(rho, k) = nb[k] / (L^k k!)
    x = y = 0
    den = lcd * lcd  # L^(k+2) k!
    for k in range(jmax + 2):
        if k:
            nb.append(nb[-1] * (R - (k - 1) * lcd))
            den *= lcd * k
        # (1+al x)(1+be x)(1+x)^rho, then the two divisions, on L^(k+2) k!
        o = nb[k]
        if k >= 1:
            o += (A + B) * k * nb[k - 1]
        if k >= 2:
            o += A * B * k * (k - 1) * nb[k - 2]
        x = o * lcd * lcd - G * k * x
        y = x - E * k * y
        yield (y << wp) // den


def _tail_coeffs(r: Iterator[int], wp: int) -> Iterator[int]:
    """d_0, d_1, ... of T(x) as fixed-point ints at wp bits, from the
    r_k of `_ratio_series` at the same scale, each made when it is asked
    for: the tails stop well before the last r_k.

    Matching x^n in T(x/(1+x)) = T(x) R(x) gives
    (n-1) d_(n-1) = sum_(j<n-1) d_j ((-1)^k C(n-1, k) - r_k), k = n - j.
    The products are exact and each d takes one floor, 1 ulp, beyond what
    it inherits; the binomials cancel to the far smaller d's, and the
    callers' guard bits on wp cover that loss.
    """
    d = [1 << wp]
    yield d[0]
    row = [1, 1]  # C(n-1, k) for k = 0 .. n-1
    rv = [next(r), next(r)]
    for n, rn in enumerate(r, 2):
        rv.insert(0, rn)
        # j = 0 pairs with k = n, where C(n-1, n) = 0
        binom = [0] + [-row[k] if k % 2 else row[k] for k in range(n - 1, 1, -1)]
        acc = (sum(map(operator.mul, d, binom)) << wp) - sum(
            map(operator.mul, d, rv))
        d.append(acc // ((n - 1) << wp))
        yield d[-1]
        row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]


def _unit_tail(al: Fraction, be: Fraction, ga: Fraction, de: Fraction,
               wp: int, c: int, wh: int,
               term: Callable[[list[int], Fraction], int]) -> int:
    """The tail past the head n < N = 4 wp of a series over the 3F2(1)
    terms c_n of (al, be, 1; ga, de), at the head's wh bits, from its last
    term c = c_N at wh bits: c sum_j term(t, rho + j) / sum_j t_j.

    t lists t_0 .. t_j, t_j = d_j N^-j at wp + 64 bits, and term gives the
    kernel's j-th tail term on that scale.
    """
    rho = ga + de - al - be
    wp_d = wp + 64
    big = 4 * wp
    # the d_j lose bits to their binomial sums, but N^-j scales the loss
    # away: against d_j at 3000 more bits, err(d_j) N^-j stayed below
    # 2^-10 ulps at prec 256..4096 for four battery 3F2s, though err(d_j)
    # reached 2^800 ulps at 1024 bits
    r = _ratio_series(al, be, ga, de, rho, max(48, wp // 5), wp_d)
    t: list[int] = []
    num = 0
    best = None
    for j, dj in enumerate(_tail_coeffs(r, wp_d)):
        t.append(dj // big**j)
        num += term(t, rho + j)
        if not j:
            # the terms per t_j are at most about the first, so t_j moves
            # the tail by at most about c_N term_0 t_j: mag is its log2
            scale = c.bit_length() + num.bit_length() - wh - 2 * wp_d
        mag = abs(t[j]).bit_length() + scale
        if not t[j] or mag < -(wp + 16):
            return c * num // sum(t)
        # term magnitudes sawtooth by a few bits; only a sustained rise
        # marks the asymptotic floor
        if best is not None and mag > best + 24:
            break
        best = mag if best is None else min(best, mag)
    raise PrecisionError("3F2 tail expansion turned before converging")


def _hyp3f2_unit(al: Fraction, be: Fraction, ga: Fraction, de: Fraction,
                 prec: int) -> int:
    """3F2(al, be, 1; ga, de; 1) at prec fixed-point bits for rational
    parameters, ga, de > 0."""
    if ga <= 0 or de <= 0:
        raise DomainError("3F2 lower parameters must be positive")
    rho = ga + de - al - be
    if rho <= 1:
        raise DivergenceError(
            f"3F2 series diverges: unit-argument exponent {rho} <= 1"
        )
    wp = prec + 64
    big = 4 * wp
    # the head at wh bits, where c_m is within m ulps and the sum within
    # big^2/2 while the term ratios stay below 1, as all callers' do
    wh = wp + 2 * big.bit_length() + 8
    # c_(m+1) = c_m (al+m)(be+m) / ((ga+m)(de+m)) = c_m a b / (g e)
    p, q = al.denominator * be.denominator, ga.denominator * de.denominator
    a, da = al.numerator * q, al.denominator * q
    g, dg = ga.numerator * p, ga.denominator * p
    b, db = be.numerator, be.denominator
    e, dd = de.numerator, de.denominator
    acc = 0
    c = 1 << wh
    for _ in range(big):
        acc += c
        c = c * (a * b) // (g * e)
        a += da
        b += db
        g += dg
        e += dd
    tail = _unit_tail(al, be, ga, de, wp, c, wh,
                      lambda t, s: _sp._em_tail(t[-1], big, s))
    return acc + tail >> wh - prec


# ----------------------------------------------------------------------
# the W kernel and its reflection law

def eval_W(args: tuple[Fraction, ...], prec: int) -> MpReal:
    """W(a1, a2; a3, a4) = 3F2(1/2-a1, 1/2-a2, 1; 3/2+a3, 3/2+a4; 1)
    divided by (1/2+a3)(1/2+a4), for args = (a1, a2, a3, a4).  Requires
    every |a_k| < 1/2."""
    for a in args:
        if abs(a) >= _HALF:
            raise DivergenceError(f"W argument {a} outside (-1/2, 1/2)")
    a1, a2, a3, a4 = args
    wp = prec + 16
    f = _hyp3f2_unit(_HALF - a1, _HALF - a2, Q(3, 2) + a3, Q(3, 2) + a4, wp)
    return MpReal.from_fixed(_mulq(f, 1 / ((_HALF + a3) * (_HALF + a4))),
                             wp, prec)


def reflection_check(args: tuple[Fraction, ...], prec: int) -> CheckReport:
    """W(a1,a2;a3,a4) + W(a3,a4;a1,a2) against its gamma closed form: the
    betas B(1/2+a_i, 1/2+a_j), i = 1, 2, j = 3, 4, times
    Gamma(1 + a1+a2+a3+a4) / prod_k Gamma(1/2+a_k), read as three gammas
    per beta with the Gamma(1/2+a_k) cancelled."""
    a1, a2, a3, a4 = args
    wp = prec + 32
    w = wp + 16  # W, rounded at wp, reads exactly at w
    lhs = eval_W(args, wp).to_fixed(w)
    if (a3, a4) == (a1, a2):  # a self-reflection: the two terms agree
        lhs *= 2
    else:
        lhs += eval_W((a3, a4, a1, a2), wp).to_fixed(w)
    num = _prod([_sp.gamma(1 + a1 + a2 + a3 + a4, w)]
                + [_sp.gamma(_HALF + a, w) for a in args], w)
    den = _prod([_sp.gamma(1 + ai + aj, w) for ai in (a1, a2)
                 for aj in (a3, a4)], w)
    name = "reflect({},{};{},{})".format(*args)
    return _report(name, prec, lhs - (num << w) // den, w, 32)


# ----------------------------------------------------------------------
# the fifth-order obstruction coefficient

def f5(a1: Fraction, a2: Fraction, a3: Fraction, a4: Fraction) -> Fraction:
    """Exact coefficient 2 s2 d1 - 3 s1 (d2 + s1 d1) of the t^5 term of
    the antisymmetrised W expansion, where s1 and s2 sum the a_k and
    their squares, d1 = a1 + a2 - a3 - a4 and d2 = a1 a2 - a3 a4."""
    s1 = a1 + a2 + a3 + a4
    s2 = a1**2 + a2**2 + a3**2 + a4**2
    d1 = a1 + a2 - a3 - a4
    d2 = a1 * a2 - a3 * a4
    return 2 * s2 * d1 - 3 * s1 * (d2 + s1 * d1)


# ----------------------------------------------------------------------
# generating functions as pole sums
#
# Ladder X_n is sum c r^(n-1) Part Li_n(z) over its terms (c, r, z, part)
# in `series._BASE`, so sum_n w X_n t^n (w = 2, 1 for A) is the pole sum
# t sum_k w c Part(z^k) / (k - r t).  With full=True a term keeps w c z^k
# whole: the complex generating function behind F, G and H.

def _pole_sum(name: str, tr: Fraction, ti: Fraction, wp: int,
              skip: frozenset[tuple[int, int]] = frozenset(),
              full: bool = False) -> tuple[int, int]:
    # fixed point at wp bits on the exact t = (ar + i ai) / b: with r =
    # p/q, k - r t = D / (q b) for the small Gaussian integer D = q b k -
    # p (ar + i ai), so each term num q b / (2^sc (k - r t)) is one exact
    # integer complex division, floored: kmax terms cost at most kmax
    # ulps per component, and |t| + 1 times that after the product with
    # t.  Part(z^k) = sign 2^-sc, sc = (pz k + h)/2, with (sign, h) from
    # `_UNIT_PARTS` at jk mod 8: the rows share h, and an odd pz k + h
    # has sign 0
    if not (tr or ti):
        return 0, 0
    b = math.lcm(tr.denominator, ti.denominator)
    ar, ai = int(tr * b), int(ti * b)
    tmag = math.hypot(tr, ti)
    w = 1 if name == "A" else 2
    re_row, im_row = _UNIT_PARTS["re"], _UNIT_PARTS["im"]
    acc_r = acc_i = 0
    for fi, (c, r, arg, part) in enumerate(_BASE[name]):
        pz, j = ARGUMENTS[arg]
        kmax = int((wp + 48) / (pz / 2) + 3 * tmag) + 16
        p, q = Q(r).numerator, Q(r).denominator
        mult = q * b * w * c
        di = -p * ai
        dr = -p * ar
        row = _UNIT_PARTS[part]
        for k in range(1, kmax + 1):
            dr += q * b
            m = j * k % 8
            if full:
                (nr, h), (ni, _h) = re_row[m], im_row[m]
            else:
                (nr, h), ni = row[m], 0
            if (nr or ni) and (fi, k) not in skip:
                if dr == di == 0:
                    raise PoleError(
                        f"generating function pole at k={k}, family {fi}"
                    )
                # mult sign conj(D) 2^(wp - sc) / |D|^2
                den = dr * dr + di * di
                xr = (nr * dr + ni * di) * mult
                xi = (ni * dr - nr * di) * mult
                e = wp - (pz * k + h) // 2
                if e >= 0:
                    acc_r += (xr << e) // den
                    acc_i += (xi << e) // den
                else:
                    den <<= -e
                    acc_r += xr // den
                    acc_i += xi // den
    return (acc_r * ar - acc_i * ai) // b, (acc_r * ai + acc_i * ar) // b


def genfn_pf(name: str, t: Fraction | tuple,
             prec: int) -> tuple[MpReal, MpReal]:
    """Partial-fraction value (re, im) of generating function `name` at t,
    rational or an exact (re, im) pair."""
    if name not in _BASE:
        raise UnknownName(f"no generating function {name!r}")
    wp = prec + 48
    return tuple(MpReal.from_fixed(v, wp, prec)
                 for v in _pole_sum(name, *_exact(t), wp))


# ----------------------------------------------------------------------
# generating functions as 3F2 values

_HYP_PARAMS: dict[str, Callable[[Fraction], tuple]] = {
    # (alpha, beta, gamma, delta, kind): value = 1 - F  (kind "one")
    # or t/(1-t) * F (kind "ratio")
    "A": lambda t: (-t / 2, _HALF - t / 2, 1 - t / 2, 1 - t, "one"),
    "B": lambda t: (-t / 2, _HALF, 1 - t / 2, 1 - t, "one"),
    "C": lambda t: (-t / 2, _HALF - t / 6, 1 - t / 2, 1 - 2 * t / 3, "one"),
    "D": lambda t: (-t / 2, _HALF - t / 3, 1 - t / 2, 1 - 2 * t / 3, "one"),
    "F": lambda t: (_HALF - t / 2, _HALF, Q(3, 2) - t / 2, 1 - t, "ratio"),
    "G": lambda t: (_HALF - t / 2, _HALF - t / 3, Q(3, 2) - t / 2,
                    1 - 2 * t / 3, "ratio"),
}

def genfn_hyp(name: str, t: Fraction, prec: int) -> MpReal:
    """Closed 3F2 form of a generating function, for |t| < 1/2.

    Only A, B, C, D, F and G reduce to a single 3F2; E and H have no
    known form of this shape.
    """
    if name not in _BASE:
        raise UnknownName(f"no generating function {name!r}")
    if name not in _HYP_PARAMS:
        raise DomainError(f"generating function {name} has no 3F2 form")
    tq = Q(t)
    if abs(tq) >= _HALF:
        raise DomainError("3F2 forms hold for |t| < 1/2")
    wp = prec + 32
    al, be, ga, de, kind = _HYP_PARAMS[name](tq)
    if tq == 0:
        return MpReal.zero(prec)
    f = _hyp3f2_unit(al, be, ga, de, wp)
    return MpReal.from_fixed((1 << wp) - f if kind == "one"
                             else _mulq(f, tq / (1 - tq)), wp, prec)


# ----------------------------------------------------------------------
# trigonometric decompositions
#
# Each real generating function equals an elementary trigonometric part
# plus a quadratic multiple of W, in two variants ("sum" pairs W with
# +sin, "alt" with cot/shifted cosines).  The table entries produce,
# for rational t, the W arguments and the trig prefactor.

def _two_t(t: Fraction, wp: int) -> int:
    """2^t at wp fixed-point bits, e^(t ln 2) within a few ulps."""
    w = wp + 16 + abs(math.floor(t)).bit_length()
    v, m = _exp_fixed(_mulq(_log2_fixed(w), t), w)
    s = w - wp - m
    return v >> s if s >= 0 else v << -s


# name: (divisor of the W term, ("sum" form, "alt" form)); a form is
# (W arguments as multiples of t, (c, num, den)) with the trig prefactor
# c pi t prod f(q pi t) / (2^t prod f(q pi t)) over the (f, q) of num and
# den, f = _SIN or _COS indexing the pair of `sincospi(q t)`.  A tan in
# the denominator is its cos above and its sin below.  A form's value is
# 1 - prefactor +- t^2 W / divisor, + for "sum".
_SIN, _COS = 0, 1
_Q1, _Q3, _Q6 = Q(1), Q(1, 3), Q(1, 6)
_TRIG: dict[str, tuple] = {
    "A": (2, (((_HALF, Q(0), _HALF, -_HALF), (_Q1, (), ((_SIN, _Q1),))),
              ((_HALF, -_HALF, _HALF, Q(0)),
               (_Q1, ((_COS, _Q1),), ((_SIN, _Q1),))))),
    "B": (2, (((_Q1, _HALF, Q(0), -_Q1), (_HALF, (), ((_SIN, _HALF),))),
              ((Q(0), -_Q1, _Q1, _HALF),
               (Q(2), ((_COS, Q(3, 2)),), ((_SIN, Q(2)),))))),
    "C": (3, (((_HALF, _Q3, _Q6, -_HALF),
               (_HALF, (), ((_SIN, _HALF), (_COS, _Q6)))),
              ((_Q6, -_HALF, _HALF, _Q3),
               (_Q1, ((_COS, _Q1),), ((_SIN, _Q1), (_COS, _Q3)))))),
    "D": (3, (((_Q3, _Q6, _Q3, -_Q3),
               (_HALF, (), ((_SIN, _HALF), (_COS, _Q3)))),
              ((_Q3, -_Q3, _Q3, _Q6),
               (_HALF, ((_COS, Q(5, 6)),),
                ((_SIN, _HALF), (_COS, _Q6), (_COS, _Q3)))))),
}


def _trig_values(name: str, tq: Fraction, wp: int) -> list[int]:
    """The "sum" and "alt" trigonometric+W values of generating function
    `name` at t = tq, at wp fixed-point bits; t^2/div scales W's error
    down, so W is taken at wp - 16."""
    div, forms = _TRIG[name]
    two = _two_t(tq, wp)
    out = []
    for sign, (wargs, (c, num, den)) in zip((1, -1), forms):
        top = _prod([_mulq(_pi_fixed(wp), c * tq)]
                    + [sincospi(q * tq, wp)[f] for f, q in num], wp)
        bot = _prod([two] + [sincospi(q * tq, wp)[f] for f, q in den], wp)
        w = eval_W(tuple(m * tq for m in wargs), wp - 16).to_fixed(wp)
        out.append((1 << wp) - (top << wp) // bot
                   + sign * _mulq(w, tq * tq / div))
    return out


def check_trig_forms(name: str, t: Fraction, prec: int) -> CheckReport:
    """Compare both trigonometric+W decompositions of a generating
    function against its pole-sum value, for rational 0 < t < 1/3."""
    if name not in _TRIG:
        raise UnknownName(f"no trigonometric form for {name!r}")
    tq = Q(t)
    if not 0 < tq < Q(1, 3):
        raise DomainError("trigonometric forms checked on 0 < t < 1/3")
    wp = prec + 64
    ref = _pole_sum(name, tq, Q(0), wp + 48)[0] >> 48
    worst = max(abs(v - ref) for v in _trig_values(name, tq, wp))
    return _report(f"trig-{name}@{tq}", prec, worst, wp, 32)


# ----------------------------------------------------------------------
# contiguity recurrences for the complex generating functions

# name: (scale, shift, sign, rhs) for the equation
#   scale G(t) / t + sign (i G(t - shift) - i) / (t - shift)
#     = sum over rhs of (re + i im) / (a + b t)
_RECUR: dict[str, tuple[int, int, int, tuple[tuple[int, ...], ...]]] = {
    "F": (2, 1, -1, ((2, 2, 1, -2),)),
    "G": (8, 3, -1, ((12, 12, 3, -2), (0, 8, 1, -1), (4, 0, 2, -1))),
    "H": (32, 5, 1, ((40, -40, 5, -2), (0, 64, 1, -1), (32, 0, 2, -1),
                     (0, -16, 3, -1), (-8, 0, 4, -1))),
}


def check_recurrence(name: str, t: Fraction | tuple,
                     prec: int) -> CheckReport:
    """Functional equation linking G(t) to G(t - shift) for the complex
    generating functions F, G, H, at t as for `genfn_pf`.  A zero of t,
    t - shift or an a + b t raises PoleError before any pole sum."""
    if name not in _RECUR:
        raise UnknownName(f"no recurrence for {name!r}")
    scale, shift, sign, rhs_terms = _RECUR[name]
    tr, ti = _exact(t)
    # left less right side as terms (re + i im) g / (a + b t), g the
    # function's dyadic value at s, or 1 for s None
    terms = [(scale, 0, 0, 1, tr), (0, sign, -shift, 1, tr - shift),
             (0, -sign, -shift, 1, None),
             *((-re, -im, a, b, None) for re, im, a, b in rhs_terms)]
    for *_, a, b, _s in terms:
        if a + b * tr == 0 == b * ti:
            raise PoleError(f"recurrence pole at {a} + {b} t = 0")
    wp = prec + 96
    parts = []
    for re, im, a, b, s in terms:
        g = (1 << wp, 0) if s is None else _pole_sum(name, s, ti, wp,
                                                     full=True)
        parts.append(_gdiv(_gmul(g, (re, im)), (a + b * tr, b * ti)))
    dr, di = (math.floor(sum(p)) for p in zip(*parts))
    return _report(f"recur-{name}", prec, math.isqrt(dr * dr + di * di),
                   wp, 32)


# ----------------------------------------------------------------------
# the meromorphic interpolation U(t)
#
# E(t), the real part of the H generating function, satisfies
#   E = 1 - (pi t / 2) / (2^t sin(pi t/2)) * [sec(pi t/5) - 8 sin^2(pi t/5)]
#       - (2/5) U(t),
# which defines U everywhere once the removable singularities shared by
# the trigonometric factor and the pole sum are cancelled analytically.
# At an even integer, or at t in 5/2 + 5Z, both sides blow up; the code
# assembles the two Laurent expansions and keeps the finite parts. When
# the 1/eps parts do *not* cancel the point is a genuine pole of U.

def _u_trig_n(t: Fraction, wp: int) -> int:
    """N(t)/pi, N(t) = (pi t / 2) [sec(pi t/5) - 8 sin^2(pi t/5)] / 2^t."""
    su, cu = sincospi(t / 5, wp)
    q = (1 << 2 * wp) // cu - 8 * (su * su >> wp)
    return (_mulq(q, t / 2) << wp) // _two_t(t, wp)


def _u_trig_n_prime(t: Fraction, wp: int) -> int:
    """N'(t)/pi for N above, used for limits at even integers."""
    su, cu = sincospi(t / 5, wp)
    sec = (1 << 2 * wp) // cu
    q = sec - 8 * (su * su >> wp)
    # q' = (pi/5) [sec tan - 8 sin(2u)]
    qp = (sec * su // cu - 16 * (su * cu >> wp)) * _pi_fixed(wp) // (5 << wp)
    inner = q + _mulq(qp, t) - (_mulq(_log2_fixed(wp), t) * q >> wp)
    return (inner << wp) // (2 * _two_t(t, wp))


def _u_trig_m(t: Fraction, wp: int) -> int:
    """M(t)/pi, M(t) = (pi t / 2) / (2^t sin(pi t/2))."""
    sv, _ = sincospi(t / 2, wp)
    return _fix(t / 2, 3 * wp) // (_two_t(t, wp) * sv)


def _u_trig_m_prime(t: Fraction, wp: int) -> int:
    """M'(t)/pi for M above, used for limits at t in 5/2 + 5Z."""
    sv, cv = sincospi(t / 2, wp)
    inner = (1 << wp) - _mulq(_log2_fixed(wp), t) \
        - _mulq(_pi_fixed(wp), t / 2) * cv // sv
    return (inner << 2 * wp - 1) // (_two_t(t, wp) * sv)


def _u_fixed(tq: Fraction, wp: int) -> int:
    """U(t) at wp fixed-point bits, as for `U`."""
    hits: list[tuple] = []  # (c, mu, fam, k)
    for fi, (c, mu, arg, part) in enumerate(_BASE["E"]):
        kq = mu * tq
        if kq.denominator == 1 and kq >= 1:
            hit = 2 * c * _exact_part(arg, int(kq), part)
            if hit:
                hits.append((hit, mu, fi, int(kq)))
    even_hit = tq.denominator == 1 and int(tq) % 2 == 0
    sec_q = 2 * tq / 5
    sec_hit = sec_q.denominator == 1 and int(sec_q) % 2 != 0

    # bracket = 1 - T - E, where at a singular point T and the hit terms
    # of E are replaced by the constant parts of their Laurent expansions
    # (the Laurent parts carry 1/pi, which the helpers' pi cancels)
    pi_ = _pi_fixed(wp)
    parts = []
    if even_hit:
        sgn = 2 if (int(tq) // 2) % 2 == 0 else -2
        parts.append(_u_trig_n(tq, wp) * sgn)
        cst = _u_trig_n_prime(tq, wp) * sgn
    elif sec_hit:
        sgn = -5 if ((int(sec_q) - 1) // 2) % 2 == 0 else 5
        m_val = _u_trig_m(tq, wp)
        parts.append(m_val * sgn)
        cst = _u_trig_m_prime(tq, wp) * sgn \
            - (8 * pi_ * m_val >> wp)  # -8 M sin^2 with sin^2 = 1
    else:
        cst = pi_ * _u_trig_n(tq, wp) // sincospi(tq / 2, wp)[0]
    for c, mu, _fi, _k in hits:
        parts.append(_fix(-tq * c / mu, wp))
        cst += _fix(-c / mu, wp)
    # residues of T and of the singular E terms must cancel exactly;
    # a remainder beyond rounding noise marks a genuine pole
    top = max((abs(p).bit_length() for p in parts), default=0)
    if abs(sum(parts)).bit_length() > max(top, wp) - wp // 2 + 16:
        raise PoleError(f"U has a pole at t = {tq}")
    skip = frozenset((fi, k) for _c, _mu, fi, k in hits)
    e_reg = _pole_sum("E", tq, Q(0), wp, skip=skip)[0]
    return ((1 << wp) - cst - e_reg) * 5 // 2


def U(t: Fraction, prec: int) -> MpReal:
    """The interpolation U(t), finite for t > -2; PoleError at genuine
    poles (even integers t <= -2), removable points handled exactly."""
    wp = prec + 96
    return MpReal.from_fixed(_u_fixed(Q(t), wp), wp, prec)


def Utilde(t: Fraction, prec: int) -> MpReal:
    """U(t) - 5 pi t / (2^t sin(pi t/2)): removes the reflected trig
    term so the half-odd lattice values become rational."""
    wp = prec + 48
    tq = Q(t)
    if tq.denominator == 1 and int(tq) % 2 == 0 and tq != 0:
        raise PoleError("the subtracted term has a pole at even t")
    # 5 pi t / (2^t sin) = 10 M(t)
    u = _u_fixed(tq, wp + 96) >> 96
    return MpReal.from_fixed(
        u - (10 * _pi_fixed(wp) * _u_trig_m(tq, wp) >> wp), wp, prec)


# ----------------------------------------------------------------------
# exact lattice values of U and Utilde
#
# Finite Gaussian-rational sums give U on multiples of 5 and Utilde on
# half-odd multiples of 5/2; at the genuine poles the same sums yield
# the residue and the constant term of the Laurent expansion.

def _parts(arg: str, k: int) -> tuple[Fraction, Fraction]:
    return _exact_part(arg, k, "re"), _exact_part(arg, k, "im")


def _lattice_sum(n: int, s: int) -> Fraction:
    """U(5n) for s = 1, and for s = -1 the finite sum V(n), which equals
    U(-5n) for odd n; n >= 1.  The two sums mirror each other."""
    total = Q(0)  # p = (1-i)/4, 1/p = 2+2i, and q = i/2
    b = (s + 1) // 2
    for k in range(1, 2 * n + b):
        pr, pi_ = _parts("(1-i)/4", -s * k)
        qr, qi = _parts("i/2", s * (5 * n - k))
        total += ((pr - 2) * qr - pi_ * qi) / k
    for k in range(2 * n + b, 5 * n + b):
        total -= Q(2, k) * _exact_part("i/2", s * (5 * n - k), "re")
    return 25 * s * n * total


def u_rational(t: Fraction | int) -> Fraction | tuple[Fraction, Fraction]:
    """Exact U on the lattice 5Z: a Fraction where U is finite, and the
    Laurent data (residue, constant) at the poles t = -10n."""
    tq = Q(t)
    if tq.denominator != 1 or tq % 5 != 0:
        raise DomainError("closed forms exist on integer multiples of 5")
    n = int(tq) // 5
    if n == 0:
        return Q(0)
    if n > 0:
        return _lattice_sum(n, 1)
    n = -n
    if n % 2 == 1:
        return _lattice_sum(n, -1)
    m = n // 2
    unit = Q((-1024) ** m)
    return 25 * m * unit, _lattice_sum(2 * m, -1) - Q(5, 2) * unit


def utilde_rational(t: Fraction) -> Fraction | tuple[Fraction, Fraction]:
    """Exact Utilde on the half-odd lattice (5/2)(2Z+1): a Fraction for
    positive arguments, Laurent (residue, constant) for negative ones."""
    tq = Q(t)
    n = tq * Q(2, 5)
    if n.denominator != 1 or int(n) % 2 == 0:
        raise DomainError(
            "closed forms exist at odd multiples of 5/2 only")
    n = int(n)
    # Re p^k for p = (1-i)/8 (1/p = 4+4i), and m^k for m = -1/4
    pr = functools.partial(_exact_part, "(1-i)/8", part="re")
    m = functools.partial(_exact_part, "-1/4", part="re")
    if n > 0:
        total = Q(0)
        for k in range(n):
            total += Q(25 * n) * pr(k) / (2 * n - 2 * k)
        for k in range(5 * n // 4 + 1):
            total -= Q(50 * n) * m(k) / (5 * n - 4 * k)
        return total
    n = -n
    residue = pr(-n) * Q(125 * n, 4)
    total = -pr(-n) * Q(25, 2)
    for k in range(1, n):
        total -= Q(25 * n) * pr(-k) / (2 * n - 2 * k)
    for k in range(1, 5 * n // 4 + 1):
        total += Q(50 * n) * m(-k) / (5 * n - 4 * k)
    return residue, total


# ----------------------------------------------------------------------
# asymptotic expansion of U: exact integer coefficients
#
# U(t) ~ 6 (1 + sum_m k_m / (10 t)^m).  A contour representation turns
# k_m into moment integrals of x^m cos/sin(x ln 2) against the kernel
# x / sinh(pi x/2) * [1/cosh(pi x/5) + 8 sinh^2(pi x/5)], whose
# expansion in powers of exp(-pi x/10) has small integer coefficients;
# each exponential moment is m! Re/Im (u pi/10 + i ln 2)^-(m+1).

# g_u = _KERNEL[u % 40]: a period-10 part (+4, -8, +4 at u = 1, 5, 9
# mod 10) plus runs +4, -4, +4, ... that start at every u = 7 mod 10 and
# step by 4.  The runs sum to alt[u] = 4 [u = 7 mod 10] - alt[u-4], so
# alt[u+8] - alt[u] = 4 ([u = 9 mod 10] - [u = 3 mod 10]), whose five
# steps over 40 = lcm(10, 8) terms cancel: the table has period 40 from
# u = 0 on.  Every |g_u| <= 8, within the 12 the bounds below assume.
_KERNEL = (0, 4, 0, 0, 0, -8, 0, 4, 0, 4, 0, 0, 0, 0, 0, -4, 0, 4, 0, 0,
           0, 0, 0, 4, 0, -4, 0, 0, 0, 0, 0, 4, 0, 4, 0, -8, 0, 0, 0, 4)

_ASYMP_MAX_M = 64


def asymp_coeff(m: int) -> int:
    """Exact integer k_m in U(t) ~ 6 sum_m k_m / (10 t)^m, for
    1 <= m <= 64.  PrecisionError if the sum cannot resolve the
    nearest integer with margin 1/4."""
    if not 1 <= m <= _ASYMP_MAX_M:
        raise DomainError(
            f"asymptotic coefficients computed for m <= {_ASYMP_MAX_M}")
    # k_m = (scale / 24) Re(i^e sum_u g_u w_u^-e), w_u = u pi/10 + i ln 2
    e = m + 1
    scale = 5 * 10**m * math.factorial(m)
    # Sum in fixed point at wp bits.  With the rounded pi and ln 2, the
    # division and the <= 2 bitlen(e) products of the power, a term costs
    # at most 8 (e + bitlen(e)) max(1, |w_u|^-e) ulps.  |w_u|^-e is below
    # 1.32^e < 2^(2e/5) for u <= 2 and below 1 beyond, |g_u| <= 12 and
    # there are under 2^13 terms: the sum costs under
    # 2^(bitlen(e) + 2e/5 + 22) ulps, which these guard bits keep below
    # 1/8 after scaling.
    wp = scale.bit_length() + 2 * e // 5 + 2 * e.bit_length() + 24
    # Past u_max the terms sum to at most 12 (10/pi)^e u_max^(1-e) / (e-1)
    # <= 12 / 2^(bitlen(scale) + 3), 1/16 after scaling; u_max is 5257 at
    # m = 1 and under 900 for every other m <= 64.
    u_max = math.ceil(2 ** ((scale.bit_length() + 3 + 1.68 * e) / (e - 1)))
    pf = _pi_fixed(wp)
    li = _log2_fixed(wp)
    li2 = li * li
    sr = si = 0
    for u in range(1, u_max + 1):
        gu = _KERNEL[u % 40]
        if gu == 0:
            continue
        wr = u * pf // 10
        d = wr * wr + li2
        # z = 1/w, then z^e by binary powering
        br = (wr << 2 * wp) // d
        bi = -(li << 2 * wp) // d
        pr, pi_ = 1 << wp, 0
        n = e
        while True:
            if n & 1:
                pr, pi_ = (pr * br - pi_ * bi) >> wp, (pr * bi + pi_ * br) >> wp
            n >>= 1
            if not n:
                break
            br, bi = (br + bi) * (br - bi) >> wp, (br * bi) >> (wp - 1)
        sr += gu * pr
        si += gu * pi_
    vq = Q(scale * (sr, -si, -sr, si)[e % 4], 24 << wp)
    k = round(vq)
    if abs(vq - k) >= Q(1, 4):
        raise PrecisionError(
            f"asymptotic coefficient {m} not resolved: margin {float(abs(vq - k)):.3f}"
        )
    return k


# ----------------------------------------------------------------------
# Pochhammer ratio identities
#
# With (a)_n = Gamma(a+n)/Gamma(a) extended to non-integer n, six ratio
# combinations collapse to elementary closed forms.  Ids follow the
# published tags: poca..pocd are single ratios, poc4/poc6 the four- and
# six-factor variants sharing the cos(pi t/10) closed form.

def _poch(a: Fraction, n: Fraction, wp: int) -> int:
    return (_sp.gamma(a + n, wp) << wp) // _sp.gamma(a, wp)


# id -> (n/t, numerator bases, denominator bases, c, angle, k).  With
# n = (n/t) t - 1/2 and each base 1/2 + b t given by its b, the identity
# reads prod (1/2 + b t)_n over the numerators / prod over the
# denominators = 2^(c - t) cos(angle pi t)^k.
_POCH: dict[str, tuple] = {
    "poca": (Q(1, 2), (Q(0),), (Q(1, 2),), 1, Q(0), 0),
    "pocb": (Q(1), (Q(-1, 2),), (Q(0),), 1, Q(1, 2), 1),
    "pocc": (Q(1, 2), (Q(-1, 3),), (Q(1, 6),), 2, Q(1, 3), 1),
    "pocd": (Q(1, 3), (Q(-1, 6),), (Q(1, 3),), 2, Q(1, 6), 1),
    "poc4": (Q(1, 5), (Q(0), Q(-1, 10)), (Q(1, 5), Q(1, 5)), 3, Q(1, 10), 1),
    "poc6": (Q(1, 5), (Q(-1, 10),) * 3, (Q(0), Q(0), Q(1, 5)), 4, Q(1, 10),
             3),
}

def pochhammer_check(which: str, t: Fraction, prec: int) -> CheckReport:
    """One of six Pochhammer-ratio identities at rational 0 < t < 1."""
    tq = Q(t)
    if not 0 < tq < 1:
        raise DomainError("ratio identities checked on 0 < t < 1")
    if which not in _POCH:
        raise UnknownName(f"no ratio identity {which!r}")
    n_t, nums, dens, c, ang, k = _POCH[which]
    wp = prec + 72
    n = n_t * tq - _HALF
    poch = {b: _poch(_HALF + b * tq, n, wp) for b in {*nums, *dens}}
    lhs = (_prod((poch[b] for b in nums), wp) << wp) \
        // _prod((poch[b] for b in dens), wp)
    rhs = _prod([_two_t(c - tq, wp)]
                + [sincospi(ang * tq, wp)[1]] * k, wp)
    return _report(f"{which}@{tq}", prec, lhs - rhs, wp, 48)


# ----------------------------------------------------------------------
# Taylor opening of U against its closed coefficients

def expu_check(prec: int = 512) -> CheckReport:
    """Expand U(t) through t^5 numerically and compare with the closed
    forms: powers of pi and ln 2 from the trigonometric prefactor, the
    alternating ladders at orders 3..5, and (213/250)(31/32) zeta(5) at
    t^5.  The t^6 coefficient involves an alternating double sum with
    no known closed form and is excluded."""
    if prec < 512:
        raise DomainError("the Taylor probe needs prec >= 512")
    w, coeffs = _sp.taylor_coeffs(lambda x, w: _u_fixed(x, w + 96) >> 96,
                                  5, prec)
    wp = prec + 32
    pi2, pi4, ln2 = _pi_pow(2, wp), _pi_pow(4, wp), _log2_fixed(wp)
    l2 = ln2 * ln2 >> wp
    ab = {n: eval_ladder("Abar", n, wp).to_fixed(wp) * 6 // 5
          for n in (3, 4, 5)}
    expect = [0, 0, pi2 // 2, -(pi2 * ln2 >> wp + 1) - ab[3],
              (pi2 * l2 >> wp + 2) + pi4 * 53 // 2400 - ab[4],
              -(pi2 * (l2 * ln2 >> wp) >> wp) // 12
              - (pi4 * ln2 >> wp) * 53 // 2400 - ab[5]
              + _sp.zeta(5, wp).to_fixed(wp) * (213 * 31) // (250 * 32)]
    worst = max(abs((c >> w - wp) - e) for c, e in zip(coeffs, expect))
    return _report("taylor-U-through-t5", prec, worst, wp, prec - prec // 4)


# ----------------------------------------------------------------------
# elementary consistency probes

def geo_checks(prec: int = 256) -> list[CheckReport]:
    """Exact geometric resummations underlying the C and D pole sums,
    and the sec - 8 sin^2 bracket value at t = 2."""
    def geo(arg: str) -> Fraction:
        """Re of sum_(k>=1) z^k = z / (1 - z)."""
        zr, zi = _parts(arg, 1)
        return (zr * (1 - zr) - zi * zi) / ((1 - zr) ** 2 + zi * zi)

    out = [
        _exact_report("geo-eighth", prec,
                      -3 * geo("-1/8") + 2 * geo("-1/2") == Q(-1, 3)),
        _exact_report("geo-quarter", prec,
                      -3 * geo("(1+i)/4") + 2 * geo("-1/4") == -1),
    ]
    wp = prec + 40
    su, cu = sincospi(Q(2, 5), wp)
    bracket = (1 << 2 * wp) // cu - 8 * (su * su >> wp)
    out.append(_report("sec-bracket@2", prec, bracket + (4 << wp), wp, 16))
    return out


# ----------------------------------------------------------------------
# Catalan's constant from central binomials
#
# G = sum_{n>=1} C(2n,n) H_{2n} / (2^(2n+1) (2n+1)) = (1/2) sum_n c_n H_{2n},
# c_n the 3F2(1) terms of (1/2, 1/2, 1; 1, 3/2), converges only like
# n^(-3/2) log n.  Its tail is summed against the head's last term as the
# 3F2 tails are, with the harmonic weight H_{2n} = K + ln(n/N) + g(n) past
# N: K = H_{2N} - g(N) comes from the head, the g(n) series shifts the
# t_j, and ln(n/N) gives the s-derivative of each Euler-Maclaurin sum, so
# no pi, Euler gamma or logarithm is formed.


def catalan_binomial(prec: int) -> MpReal:
    """Catalan's constant via the harmonically weighted central-binomial
    series, summed in fixed point against its last head term; supported
    for 16 <= prec <= _MAX_BITS."""
    if not 16 <= prec <= _MAX_BITS:
        raise DomainError(f"binomial route takes 16..{_MAX_BITS} bits")
    wp = prec + 64
    big = 4 * wp
    # the head at wh bits as in _hyp3f2_unit: c_n <= 1 is within n ulps
    # and the floored H_{2n} < 10 within 2n, so a term within about 12 n
    wh = wp + 2 * big.bit_length() + 8
    one = 1 << wh
    # c_(n+1) = c_n (2n+1)^2 / (2 (n+1) (2n+3)), and H_0 = 0
    acc = hq = 0
    c = one
    for n in range(big):
        acc += c * hq >> wh
        c = c * (2 * n + 1) ** 2 // (2 * (n + 1) * (2 * n + 3))
        hq += one // (2 * n + 1) + one // (2 * n + 2)
    # g(n) = 1/(4n) - sum_i B_2i / (2i (2n)^2i) = sum_k g_k n^-k; gk holds
    # (k, g_k N^-k) at wh bits up to the first that floors to zero
    gk = [(1, one // (4 * big))]
    for k in itertools.count(2, 2):
        bk = _sp.bernoulli(k)
        v = -(bk.numerator << wh) // (bk.denominator * (k << k) * big**k)
        if not v:
            break
        gk.append((k, v))
    K = hq - sum(v for _, v in gk)

    def term(t: list[int], s: Fraction) -> int:
        # tail term j: the zeta sum at s weighted by K t_j + u_j, where
        # u_j = sum_k g_k N^-k t_(j-k) gathers g(n), plus the ln(n/N)-
        # weighted sum of t_j
        j = len(t) - 1
        u = sum(t[j - k] * v for k, v in gk if k <= j)
        return _sp._em_tail(K * t[j] + u >> wh, big, s) \
            + _sp._em_logtail(t[j], big, s)

    tail = _unit_tail(_HALF, _HALF, Q(1), Q(3, 2), wp, c, wh, term)
    return MpReal.from_fixed(acc + tail, wh + 1, prec)


# ----------------------------------------------------------------------
# named check batteries (used by the command-line front end)

def _battery_w(prec: int) -> list[CheckReport]:
    wp = prec + 32
    base = eval_W((Q(0),) * 4, wp).to_fixed(wp)
    out = [_report("W(0,0;0,0)", prec, base - (_pi_pow(2, wp) >> 1), wp, 8)]
    # self-reflection points exercise the kernel against pure gammas
    out.append(reflection_check((Q(1, 10), Q(1, 8), Q(1, 10), Q(1, 8)), prec))
    out.append(reflection_check((Q(-1, 6), Q(1, 4), Q(-1, 6), Q(1, 4)), prec))
    return out


_REFLECT_POINTS = (
    (Q(1, 10), Q(1, 5), Q(1, 20), Q(-1, 10)),
    (Q(1, 3), Q(-1, 5), Q(1, 7), Q(1, 9)),
    (Q(-1, 4), Q(2, 5), Q(1, 6), Q(-1, 8)),
    (Q(3, 10), Q(1, 12), Q(-2, 7), Q(1, 5)),
    (Q(2, 9), Q(-1, 3), Q(4, 11), Q(1, 13)),
)


def _battery_inv(prec: int) -> list[CheckReport]:
    return [reflection_check(p, prec) for p in _REFLECT_POINTS]


def _battery_genfn(prec: int) -> list[CheckReport]:
    wp = prec + 32
    slack = prec - prec // 2 + 16

    def coeffs(name: str, order: int) -> list[int]:
        w, c = _sp.taylor_coeffs(
            lambda x, w: _pole_sum(name, x, Q(0), w + 48)[0] >> 48,
            order, prec)
        return [v >> w - wp for v in c]

    out = [_report("A-linear-term", prec,
                   coeffs("A", 1)[1] - _log2_fixed(wp), wp, slack)]
    probe = (coeffs("F", 2)[2] - coeffs("G", 2)[2]) * 3 >> 2  # (3/2)(F2 - G2)
    out.append(_report("catalan-from-F-G", prec,
                       probe - eval_formula("catalan", wp).to_fixed(wp),
                       wp, slack))
    for name in "BDFG":
        t = Q(1, 10)
        out.append(_report(
            f"pf-vs-hyp-{name}@{t}", prec,
            genfn_pf(name, t, wp)[0].to_fixed(wp)
            - genfn_hyp(name, t, wp).to_fixed(wp), wp, 32))
    out.append(check_trig_forms("A", Q(1, 10), prec))
    out.append(check_trig_forms("B", Q(1, 4), prec))
    out.append(check_trig_forms("C", Q(1, 10), prec))
    out.append(check_trig_forms("D", Q(1, 7), prec))
    return out


def _battery_recur(prec: int) -> list[CheckReport]:
    return [check_recurrence("F", Q(1, 3), prec),
            check_recurrence("G", (Q(1, 5), Q(1, 7)), prec),
            check_recurrence("H", Q(1, 3), prec)]


def _battery_u(prec: int) -> list[CheckReport]:
    wp = prec + 32
    out = [_report("U(5)-series-vs-rational", prec,
                   U(Q(5), wp).to_fixed(wp) - _fix(u_rational(5), wp),
                   wp, 32)]
    ok = (u_rational(5) == Q(20, 3) and u_rational(10) == Q(20, 3)
          and u_rational(-5) == Q(1900, 3))
    out.append(_exact_report("U-lattice-values", prec, ok))
    pole = u_rational(-10)
    out.append(_exact_report(
        "U-pole-at-minus-10", prec,
        pole == (Q(-25600), Q(20310))))
    out.append(_exact_report(
        "Utilde(5/2)", prec, utilde_rational(Q(5, 2)) == 15))
    out.append(_report("Utilde(5/2)-series", prec,
                       Utilde(Q(5, 2), wp).to_fixed(wp) - (15 << wp), wp, 32))
    mag = float((U(Q(50), 64).to_fixed(64) // 6 - (1 << 64)).bit_length()
                - 64)
    out.append(CheckReport("U(50)-near-limit", prec, mag,
                           mag <= math.log2(0.10)))
    eps = Q(1, 1000)
    res, _cst = u_rational(-10)
    ratio = _mulq(U(Q(-10) + eps, wp).to_fixed(64), eps / res) - (1 << 64)
    rmag = float(abs(ratio).bit_length() - 64)
    out.append(CheckReport("U-pole-residue-probe", prec, rmag,
                           rmag <= math.log2(0.01)))
    return out


_ASYMP_KNOWN = (11, 157, -1749, -433651, -43430405, -4000517955)


def _battery_asymp(prec: int) -> list[CheckReport]:
    return [_exact_report(f"asymp-k{m}", prec, asymp_coeff(m) == known)
            for m, known in enumerate(_ASYMP_KNOWN, 1)]


def _battery_poch(prec: int) -> list[CheckReport]:
    return [
        pochhammer_check("poca", Q(3, 10), prec),
        pochhammer_check("pocb", Q(1, 4), prec),
        pochhammer_check("pocc", Q(2, 5), prec),
        pochhammer_check("pocd", Q(1, 2), prec),
        pochhammer_check("poc4", Q(3, 10), prec),
        pochhammer_check("poc6", Q(3, 10), prec),
    ]


def _battery_expu(prec: int) -> list[CheckReport]:
    return [expu_check(max(prec, 512))]


def _battery_geo(prec: int) -> list[CheckReport]:
    out = geo_checks(prec)
    wp = prec + 16
    diff = catalan_binomial(prec).to_fixed(wp) \
        - eval_formula("catalan", wp).to_fixed(wp)
    out.append(_report("catalan-binomial", prec, diff, wp, 8))
    return out


# the Li_5 equation: weight times li5 of each argument, written as its
# exponents -0+ of x, al = -x/xi, xi = 1 - x, y, be and eta, sums to 18
# zeta(5) plus the terms c pi^2a log^b x log^c y log^d xi log^e eta,
# written c:abcde
_LI5_ARGS = (
    (1, "++0--0 ++0+0+ ++00+- +0+++0 +0+-0- +0+0-+ 0+-++0 0+--0- 0+-0-+"),
    (-9, "+00+00 +000+0 +0000+ +00-00 +000-0 +0000- 0+0+00 0+00+0 0+000+"
         " 0+0-00 0+00-0 0+000- 00++00 00+0+0 00+00+ 00-+00 00-0+0 00-00+"),
    (18, "+00000 0+0000 00+000 000+00 0000+0 00000+"),
)
_LI5_LOGS = ("3/10:00050 3/4:00140 -3/4:01040 9/2:00122 -3/2:00023"
             " 1/2:10030 -3/2:10021 1/5:20010")


def check_li5_identity(x: Fraction | tuple, y: Fraction | tuple,
                       prec: int) -> CheckReport:
    """Residual of the 34-term two-variable Li_5 functional equation at x
    and y, each rational or an exact (re, im) pair.

    With principal branches it holds for real 0 < x, y < 1 and at (1/2,
    +-i) and (i, i), not at ((1+i)/2, 1/3): residual 0.11, though `li5`
    is right at all 33 arguments there.
    """
    x, y = _exact(x), _exact(y)
    if {x, y} & {(0, 0), (1, 0)}:
        raise DomainError("x and y must avoid 0 and 1")
    xi, eta = (1 - x[0], -x[1]), (1 - y[0], -y[1])
    bases = (x, _gdiv(x, (x[0] - 1, x[1])), xi,
             y, _gdiv(y, (y[0] - 1, y[1])), eta)
    wp = prec + 80
    lr, li = -18 * _zeta_fixed(5, wp)[0], 0
    for weight, args in _LI5_ARGS:
        for exps in args.split():
            z = (1, 0)
            for base, e in zip(bases, exps):
                if e != "0":
                    z = _gmul(z, base) if e == "+" else _gdiv(z, base)
            vr, vi = li5(z, wp)
            lr += weight * vr
            li += weight * vi
    logs = ((_pi_pow(2, wp), 0),
            *(_ln_pair(*z, wp) for z in (x, y, xi, eta)))
    for term in _LI5_LOGS.split():
        c, exps = term.split(":")
        v = (1 << wp, 0)
        for f, e in zip(logs, exps):
            for _ in range(int(e)):
                v = _cmul(v, f, wp)
        lr -= math.floor(Q(c) * v[0])
        li -= math.floor(Q(c) * v[1])
    name = ",".join(f"{float(re):g}{float(im):+g}i" for re, im in (x, y))
    return _report(f"li5({name})", prec, math.isqrt(lr * lr + li * li),
                   wp, 64)


# the Li_5 equation at points that take every route of `li5` (disc,
# annulus, inversion, unit-circle landmarks), and f5's published values
_LI5_POINTS = ((_HALF, _HALF), (_HALF, (Q(0), Q(1))), (Q(1, 3), Q(1, 5)))
_F5_KNOWN = (
    ((Q(1), _HALF, Q(0), Q(-1)), Q(69, 8)),
    ((_HALF, Q(1, 3), Q(1, 6), -_HALF), Q(13, 54)),
    ((Q(1, 3), Q(1, 6), Q(1, 3), Q(-1, 3)), Q(-19, 72)),
)


def _battery_order5(prec: int) -> list[CheckReport]:
    out = [check_li5_identity(x, y, prec) for x, y in _LI5_POINTS]
    out.append(_exact_report("f5-published-values", prec, all(
        f5(*a) == want for a, want in _F5_KNOWN)))
    return out


# a report passes when its residual is below 2^(slack - bits), and the
# fixed slacks reach 64 bits: below twice that a pass certifies little.
# _MAX_BITS is the largest power of two at which every battery finishes
# within about an hour of one core: each doubling costs 5-14x, and inv
# and genfn, the slowest, took 8.2 and 8.6 minutes at 8192 bits
_MIN_BITS = 128
_MAX_BITS = 8192


def _floored(battery: Callable[[int], list[CheckReport]]) -> Callable:
    """The battery, refusing a precision outside _MIN_BITS.._MAX_BITS
    before any work."""
    def run(prec: int) -> list[CheckReport]:
        if not _MIN_BITS <= prec <= _MAX_BITS:
            raise PrecisionError(f"check batteries take {_MIN_BITS}.."
                                 f"{_MAX_BITS} bits, not {prec}")
        return battery(prec)
    return run


CHECKS: dict[str, Callable[[int], list[CheckReport]]] = {
    "W": _floored(_battery_w),
    "inv": _floored(_battery_inv),
    "genfn": _floored(_battery_genfn),
    "recur": _floored(_battery_recur),
    "U": _floored(_battery_u),
    "asymp": _floored(_battery_asymp),
    "poch": _floored(_battery_poch),
    "expu": _floored(_battery_expu),
    "geo": _floored(_battery_geo),
    "order5": _floored(_battery_order5),
}

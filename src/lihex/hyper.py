"""Hypergeometric forms of the ladder generating functions.

The level-one ladders have generating functions expressible three ways:
as pole sums over shifted integers (partial fractions), as terminating
combinations of a two-parameter kernel ``W`` built from a 3F2 at unit
argument, and -- for the wider family -- through a meromorphic function
``U`` whose lattice values are exact rationals.  This module evaluates
all three forms and cross-checks them, along with the reflection law for
``W``, recurrences for the complex generating functions, the integer
coefficients of the asymptotic expansion of ``U``, Pochhammer ratio
identities, and the central-binomial series for Catalan's constant.

Everything here reduces to a single summation engine: a linearly
convergent series is summed directly to a cutoff ``N`` and its tail is
re-expanded as a combination of Hurwitz zeta values at ``N+1``, which a
chained Euler-Maclaurin evaluation supplies at fixed cost per order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    DivergenceError,
    DomainError,
    PoleError,
    PrecisionError,
    UnknownName,
)
from .ladders import CheckReport, _log2_mag, eval_ladder
from .mp import special as _sp
from .mp.cplx import MpComplex
from .mp.real import (
    MpReal,
    cos,
    exp,
    ln,
    log2_const,
    pi_const,
    pow_int,
    pow_real,
    sin,
    tan,
)
from .series import eval_formula

__all__ = [
    "WArgs",
    "F5Args",
    "GenFnId",
    "AsympCoeff",
    "GENFN_IDS",
    "eval_W",
    "reflection_check",
    "f5",
    "genfn_pf",
    "genfn_cplx",
    "genfn_hyp",
    "check_trig_forms",
    "check_recurrence",
    "U",
    "Utilde",
    "u_rational",
    "utilde_rational",
    "asymp_coeff",
    "asymp_battery",
    "pochhammer_check",
    "POCHHAMMER_IDS",
    "expu_check",
    "geo_checks",
    "catalan_binomial",
    "CHECKS",
]

Q = Fraction

_HALF = Q(1, 2)


# ----------------------------------------------------------------------
# small helpers

def _as_fraction(x: Fraction | int | MpReal) -> Fraction:
    if isinstance(x, MpReal):
        return x.to_fraction()
    return Q(x)


def _as_real(x: Fraction | int | MpReal, wp: int) -> MpReal:
    if isinstance(x, MpReal):
        return x.round_to(wp)
    return MpReal.from_fraction(Q(x), wp)


def _as_cplx(t: MpComplex | MpReal | Fraction | int, wp: int) -> MpComplex:
    if isinstance(t, MpComplex):
        return t.round_to(wp)
    if isinstance(t, MpReal):
        return MpComplex.from_real(t.round_to(wp))
    return MpComplex.from_fractions(Q(t), Q(0), wp)


def _mk_report(name: str, prec: int, resid: MpReal, slack: int) -> CheckReport:
    mag = _log2_mag(resid)
    return CheckReport(
        name=name,
        bits=prec,
        log2_residual=mag,
        passed=mag <= -(prec - slack),
    )


def _exact_report(name: str, prec: int, ok: bool) -> CheckReport:
    return CheckReport(
        name=name, bits=prec,
        log2_residual=float("-inf") if ok else 0.0,
        passed=ok,
    )


# ----------------------------------------------------------------------
# Euler-Maclaurin tail chains
#
# The series engine needs zeta(s0 + j, N + 1) for j = 0, 1, 2, ... and,
# for the harmonically weighted Catalan series, the log-weighted sums
# sum_{n>N} ln(n) / n^(s0+j).  With the origin shifted to N+1 >> 1 the
# Euler-Maclaurin expansion needs no direct terms at all, and stepping
# j -> j+1 only divides one cached fixed-point power by N+1.

class _HurwitzTail:
    def __init__(self, s0: Fraction, a: int, wp: int):
        if s0 <= 1:
            raise DomainError("tail chain requires s0 > 1")
        if a < 2:
            raise DomainError("tail chain requires an origin >= 2")
        self.s0 = s0
        self.a = a
        self.wp = wp
        self._bp = pow_real(
            MpReal.from_int(a, wp + 16),
            MpReal.from_fraction(-s0, wp + 16),
            wp + 8,
        ).to_fixed(wp)
        self._j = 0
        self._ln_a = ln(MpReal.from_int(a, wp + 8), wp).to_fixed(wp)

    def _advance(self, j: int) -> int:
        if j < self._j:
            raise DomainError("tail chain cannot step backwards")
        while self._j < j:
            self._bp //= self.a
            self._j += 1
        return self._bp

    def value(self, j: int) -> MpReal:
        """sum_{n >= a} n^-(s0+j) at the chain's working precision."""
        acc = _sp._em_tail(self._advance(j), self.a, self.s0 + j)
        return MpReal.from_fixed(acc, self.wp, self.wp)

    def logvalue(self, j: int) -> MpReal:
        """sum_{n >= a} ln(n) n^-(s0+j), the -d/ds of value(j)."""
        bp = self._advance(j)
        wp, a = self.wp, self.a
        s = self.s0 + j
        sm1 = s - 1
        la = self._ln_a
        # a^(1-s) [ln(a)/(s-1) + 1/(s-1)^2] + a^-s ln(a)/2
        acc = (bp * a * sm1.denominator // sm1.numerator) * la >> wp
        acc += bp * a * sm1.denominator**2 // sm1.numerator**2
        acc += (bp * la >> wp) >> 1
        # the i-th correction of value(j) is c_i(s) a^(1-s-2i); its -d/ds
        # weights it by ln(a) - dl with dl = sum_{r<2i-1} 1/(s+r)
        sn, sd = s.numerator, s.denominator
        dl = (sd << wp) // sn
        r = 1
        for t in _sp._em_corrections(bp, a, s):
            acc += t * (la - dl) >> wp
            dl += (sd << wp) // (sn + r * sd) + (sd << wp) // (sn + (r + 1) * sd)
            r += 2
        return MpReal.from_fixed(acc, wp, wp)


# ----------------------------------------------------------------------
# the 3F2(1) summation engine
#
# For F = sum_m c_m with c_m = (al)_m (be)_m / ((ga)_m (de)_m) the terms
# behave like lam * m^-rho with rho = ga + de - al - be and
# lam = Gamma(ga)Gamma(de) / (Gamma(al)Gamma(be)).  Writing
# c_m = lam m^-rho T(1/m), the formal series T(x) = 1 + d_1 x + ... obeys
#
#     T(x/(1+x)) = T(x) (1+al x)(1+be x)(1+x)^rho / ((1+ga x)(1+de x))
#
# whose order-by-order solution gives the d_j; the tail past N is then
# lam * sum_j d_j zeta(rho + j, N + 1).

def _ratio_series(al: Fraction, be: Fraction, ga: Fraction, de: Fraction,
                  rho: Fraction, jmax: int) -> list[Fraction]:
    n = jmax + 2
    # (1 + al x)(1 + be x)
    poly = [Q(1), al + be, al * be]
    # times (1 + x)^rho
    binom = [Q(1)]
    for k in range(1, n):
        binom.append(binom[-1] * (rho - k + 1) / k)
    out = [Q(0)] * n
    for i, p in enumerate(poly):
        if p == 0:
            continue
        for k in range(n - i):
            out[i + k] += p * binom[k]
    # divided by (1 + ga x) and (1 + de x)
    for root in (ga, de):
        acc = Q(0)
        for k in range(n):
            acc = out[k] - root * acc
            out[k] = acc
    return out


def _tail_coeffs(r: list[Fraction], jmax: int, wp: int) -> list[MpReal]:
    rv = [MpReal.from_fraction(v, wp) for v in r]
    d = [MpReal.from_int(1, wp)]
    for big in range(2, jmax + 2):
        acc = MpReal.zero(wp)
        for j in range(big - 1):
            k = big - j
            w = MpReal.from_int(
                (-1 if k % 2 else 1) * math.comb(big - 1, k), wp
            ).add(-rv[k], wp)
            acc = acc.add(d[j].mul(w, wp), wp)
        d.append(acc.div(big - 1, wp))
    return d


def _hyp3f2_unit(al: Fraction, be: Fraction, ga: Fraction, de: Fraction,
                 prec: int) -> MpReal:
    """3F2(al, be, 1; ga, de; 1) for rational parameters, ga, de > 0."""
    if ga <= 0 or de <= 0:
        raise DomainError("3F2 lower parameters must be positive")
    rho = ga + de - al - be
    if rho <= 1:
        raise DivergenceError(
            f"3F2 series diverges: unit-argument exponent {rho} <= 1"
        )
    wp = prec + 64
    wp_d = wp + 320
    jmax = max(48, wp // 5)
    aln, ald = al.numerator, al.denominator
    ben, bed = be.numerator, be.denominator
    gan, gad = ga.numerator, ga.denominator
    den_, ded = de.numerator, de.denominator
    big = max(128, wp)
    for _ in range(3):
        # direct block: c_0 .. c_(big-1), with c a fixed-point integer
        acc = 0
        c = 1 << wp
        for m in range(big):
            acc += c
            if c == 0:
                break
            num = (aln + ald * m) * (ben + bed * m) * gad * ded
            den = ald * bed * (gan + gad * m) * (den_ + ded * m)
            c = c * num // den
        head = MpReal.from_fixed(acc, wp, wp)
        if c == 0:
            return head.round_to(prec)  # terminating series
        r = _ratio_series(al, be, ga, de, rho, jmax)
        d = _tail_coeffs(r, jmax, wp_d)
        chain = _HurwitzTail(rho, big, wp + 384)
        tail = MpReal.zero(wp_d)
        best = None
        done = False
        for j in range(jmax + 1):
            term = d[j].mul(chain.value(j), wp_d)
            mag = _log2_mag(term)
            if mag < -(wp + 16):
                done = True
                break
            # term magnitudes sawtooth by a few bits; only a sustained
            # rise marks the asymptotic floor
            if best is not None and mag > best + 24:
                break
            best = mag if best is None else min(best, mag)
            tail = tail.add(term, wp_d)
        if done:
            lam_wp = wp + 32
            lam = _gamma_q(ga, lam_wp).mul(_gamma_q(de, lam_wp), lam_wp)
            lam = lam.div(
                _gamma_q(al, lam_wp).mul(_gamma_q(be, lam_wp), lam_wp),
                lam_wp,
            )
            return head.add(lam.mul(tail.round_to(wp), wp), prec)
        big *= 2
        jmax += 32
    raise PrecisionError("3F2 tail expansion failed to converge")


def _gamma_q(x: Fraction, wp: int) -> MpReal:
    g = _sp.gamma(MpReal.from_fraction(x, wp), wp)
    assert isinstance(g, MpReal)
    return g


# ----------------------------------------------------------------------
# the W kernel and its reflection law

@dataclass(frozen=True)
class WArgs:
    """Arguments of the kernel W(a1, a2; a3, a4)."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    def __post_init__(self) -> None:
        for f in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, f, _as_fraction(getattr(self, f)))
        if self.a3 <= -_HALF or self.a4 <= -_HALF:
            raise DomainError("W needs 1/2 + a3 and 1/2 + a4 positive")

    @property
    def sigma1(self) -> Fraction:
        return self.a1 + self.a2 + self.a3 + self.a4


def eval_W(args: WArgs, prec: int) -> MpReal:
    """W(a1, a2; a3, a4) = 3F2(1/2-a1, 1/2-a2, 1; 3/2+a3, 3/2+a4; 1)
    divided by (1/2+a3)(1/2+a4).  Requires every |a_k| < 1/2."""
    for a in (args.a1, args.a2, args.a3, args.a4):
        if abs(a) >= _HALF:
            raise DivergenceError(f"W argument {a} outside (-1/2, 1/2)")
    f = _hyp3f2_unit(
        _HALF - args.a1, _HALF - args.a2,
        Q(3, 2) + args.a3, Q(3, 2) + args.a4,
        prec + 16,
    )
    scale = (_HALF + args.a3) * (_HALF + args.a4)
    return f.div(scale, prec)


def reflection_check(args: WArgs, prec: int) -> CheckReport:
    """W(a1,a2;a3,a4) + W(a3,a4;a1,a2) against its gamma closed form."""
    wp = prec + 32
    lhs = eval_W(args, wp).add(
        eval_W(WArgs(args.a3, args.a4, args.a1, args.a2), wp), wp
    )
    rhs = _gamma_q(1 + args.sigma1, wp)
    for a in (args.a1, args.a2, args.a3, args.a4):
        rhs = rhs.div(_gamma_q(_HALF + a, wp), wp)
    for ai in (args.a1, args.a2):
        for aj in (args.a3, args.a4):
            rhs = rhs.mul(
                _sp.beta_fn(
                    MpReal.from_fraction(_HALF + ai, wp),
                    MpReal.from_fraction(_HALF + aj, wp),
                    wp,
                ),
                wp,
            )
    name = "reflect({},{};{},{})".format(
        args.a1, args.a2, args.a3, args.a4
    )
    return _mk_report(name, prec, lhs.add(-rhs, wp), 32)


# ----------------------------------------------------------------------
# the fifth-order obstruction coefficient

@dataclass(frozen=True)
class F5Args:
    """Parameter quadruple for the order-5 coefficient of the
    antisymmetrised W expansion."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    def __post_init__(self) -> None:
        for f in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, f, Q(getattr(self, f)))

    @property
    def sigma1(self) -> Fraction:
        return self.a1 + self.a2 + self.a3 + self.a4

    @property
    def sigma2(self) -> Fraction:
        return self.a1**2 + self.a2**2 + self.a3**2 + self.a4**2

    @property
    def delta1(self) -> Fraction:
        return self.a1 + self.a2 - self.a3 - self.a4

    @property
    def delta2(self) -> Fraction:
        return self.a1 * self.a2 - self.a3 * self.a4


def f5(args: F5Args) -> Fraction:
    """Exact coefficient 2 s2 d1 - 3 s1 (d2 + s1 d1) of the t^5 term."""
    s1, s2 = args.sigma1, args.sigma2
    d1, d2 = args.delta1, args.delta2
    return 2 * s2 * d1 - 3 * s1 * (d2 + s1 * d1)


# ----------------------------------------------------------------------
# generating functions as pole sums
#
# Each id carries families (zr, zi, shift, select, mult, mu): the pole
# sum is t * sum_k mult * sel((zr+i zi)^k / 2^(shift k)) / (k - mu t).
# The "A" series carries no factor 2; the others generate 2 sum X_n t^n.

_FamT = tuple[int, int, int, str, int, Fraction]

_PF: dict[str, tuple[_FamT, ...]] = {
    "A": ((1, 0, 1, "re", 1, Q(1)),),
    "B": ((1, 1, 1, "re", 2, Q(2)),),
    "C": ((-1, 0, 3, "re", 1, Q(1, 3)), (-1, 0, 1, "re", -2, Q(1))),
    "D": ((1, 1, 2, "re", 2, Q(2, 3)), (0, -1, 1, "re", -2, Q(1))),
    "E": ((1, -1, 3, "re", 2, Q(2, 5)), (0, -1, 1, "re", -4, Q(1))),
    "F": ((1, 1, 1, "im", 2, Q(2)),),
    "G": ((1, 1, 2, "im", 2, Q(2, 3)), (0, -1, 1, "im", -2, Q(1))),
    "H": ((1, -1, 3, "im", 2, Q(2, 5)), (0, -1, 1, "im", -4, Q(1))),
}


@dataclass(frozen=True)
class GenFnId:
    """A generating-function identifier and which forms it supports."""

    name: str
    has_hyp: bool


GENFN_IDS: dict[str, GenFnId] = {
    name: GenFnId(name, name in "ABCDFG") for name in "ABCDEFGH"
}


def _fam_coeff(fam: _FamT, k: int) -> Fraction:
    """Exact coefficient of 1/(k - mu t) in one family."""
    zr, zi, shift, sel, mult, _ = fam
    ar, ai = 1, 0
    for _ in range(k):
        ar, ai = ar * zr - ai * zi, ar * zi + ai * zr
    num = ar if sel == "re" else ai
    return Q(mult * num, 1 << (shift * k))


def _pole_sum(
    fams: tuple[_FamT, ...],
    t: MpComplex,
    wp: int,
    skip: frozenset[tuple[int, int]] = frozenset(),
) -> MpComplex:
    acc = MpComplex.from_int(0, wp)
    tmag = math.sqrt(max(t.abs2(53).to_float(), 0.0))
    for fi, fam in enumerate(fams):
        zr, zi, shift, sel, mult, mu = fam
        bits = shift - 0.5 * math.log2(zr * zr + zi * zi)
        kmax = int((wp + 48) / bits + 3 * tmag) + 16
        mu_t = t.mul(MpComplex.from_fractions(mu, Q(0), wp), wp)
        ar, ai = zr, zi
        sc = shift
        for k in range(1, kmax + 1):
            if sel == "full":
                num = MpComplex.from_fractions(
                    Q(mult * ar, 1 << sc), Q(mult * ai, 1 << sc), wp
                )
                live = not num.is_zero
            else:
                a_sel = ar if sel == "re" else ai
                num = None
                live = a_sel != 0
            if live and (fi, k) not in skip:
                den = MpComplex.from_int(k, wp).add(-mu_t, wp)
                if den.abs2(32).is_zero:
                    raise PoleError(
                        f"generating function pole at k={k}, family {fi}"
                    )
                if num is None:
                    num = MpComplex.from_fractions(
                        Q(mult * a_sel, 1 << sc), Q(0), wp
                    )
                acc = acc.add(num.div(den, wp), wp)
            ar, ai = ar * zr - ai * zi, ar * zi + ai * zr
            sc += shift
    return acc.mul(t, wp)


def genfn_pf(name: str, t: MpComplex | MpReal | Fraction | int,
             prec: int) -> MpComplex:
    """Partial-fraction value of generating function `name` at t."""
    if name not in _PF:
        raise UnknownName(f"no generating function {name!r}")
    wp = prec + 48
    tc = _as_cplx(t, wp)
    if tc.is_zero:
        return MpComplex.from_int(0, prec)
    return _pole_sum(_PF[name], tc, wp).round_to(prec)


_CPLX_FAMS: dict[str, tuple[_FamT, ...]] = {
    "F": ((1, 1, 1, "full", 2, Q(2)),),
    "G": ((1, 1, 2, "full", 2, Q(2, 3)), (0, -1, 1, "full", -2, Q(1))),
    "H": ((1, -1, 3, "full", 2, Q(2, 5)), (0, -1, 1, "full", -4, Q(1))),
}


def genfn_cplx(name: str, t: MpComplex | MpReal | Fraction | int,
               prec: int) -> MpComplex:
    """The complex-coefficient generating function (F, G or H) whose
    real/imaginary parts generate the paired real ladders."""
    if name not in _CPLX_FAMS:
        raise UnknownName(f"no complex generating function {name!r}")
    wp = prec + 48
    tc = _as_cplx(t, wp)
    if tc.is_zero:
        return MpComplex.from_int(0, prec)
    return _pole_sum(_CPLX_FAMS[name], tc, wp).round_to(prec)


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


def genfn_hyp(name: str, t: Fraction | int | MpReal, prec: int) -> MpReal:
    """Closed 3F2 form of a generating function, for |t| < 1/2.

    Only A, B, C, D, F and G reduce to a single 3F2; E and H have no
    known form of this shape (GENFN_IDS records which is which).
    """
    if name not in GENFN_IDS:
        raise UnknownName(f"no generating function {name!r}")
    if not GENFN_IDS[name].has_hyp:
        raise DomainError(f"generating function {name} has no 3F2 form")
    tq = _as_fraction(t)
    if abs(tq) >= _HALF:
        raise DomainError("3F2 forms hold for |t| < 1/2")
    wp = prec + 32
    al, be, ga, de, kind = _HYP_PARAMS[name](tq)
    if tq == 0:
        return MpReal.zero(prec)
    f = _hyp3f2_unit(al, be, ga, de, wp)
    if kind == "one":
        return MpReal.from_int(1, wp).add(-f, prec)
    return f.mul(tq / (1 - tq), prec)


# ----------------------------------------------------------------------
# trigonometric decompositions
#
# Each real generating function equals an elementary trigonometric part
# plus a quadratic multiple of W, in two variants ("sum" pairs W with
# +sin, "alt" with -tan/shifted cosines).  The table entries produce,
# for rational t, the W arguments and the trig prefactor.

def _two_t(t: MpReal, wp: int) -> MpReal:
    return exp(t.mul(log2_const(wp), wp), wp)


def _trig_A(t: MpReal, tq: Fraction, wp: int) -> tuple[MpReal, MpReal]:
    pi_ = pi_const(wp)
    pt = pi_.mul(t, wp)
    con = pt.div(_two_t(t, wp).mul(sin(pt, wp), wp), wp)
    w1 = eval_W(WArgs(tq / 2, Q(0), tq / 2, -tq / 2), wp)
    v1 = MpReal.from_int(1, wp).add(-con, wp).add(
        w1.mul(tq * tq, wp).div(2, wp), wp)
    alt = pt.div(_two_t(t, wp).mul(tan(pt, wp), wp), wp)
    w2 = eval_W(WArgs(tq / 2, -tq / 2, tq / 2, Q(0)), wp)
    v2 = MpReal.from_int(1, wp).add(-alt, wp).add(
        -w2.mul(tq * tq, wp).div(2, wp), wp)
    return v1, v2


def _trig_B(t: MpReal, tq: Fraction, wp: int) -> tuple[MpReal, MpReal]:
    pi_ = pi_const(wp)
    pt = pi_.mul(t, wp)
    half_pt = pt.div(2, wp)
    con = half_pt.div(_two_t(t, wp).mul(sin(half_pt, wp), wp), wp)
    w1 = eval_W(WArgs(tq, tq / 2, Q(0), -tq), wp)
    v1 = MpReal.from_int(1, wp).add(-con, wp).add(
        w1.mul(tq * tq, wp).div(2, wp), wp)
    alt = pt.mul(2, wp).mul(cos(pt.mul(Q(3, 2), wp), wp), wp).div(
        _two_t(t, wp).mul(sin(pt.mul(2, wp), wp), wp), wp)
    w2 = eval_W(WArgs(Q(0), -tq, tq, tq / 2), wp)
    v2 = MpReal.from_int(1, wp).add(-alt, wp).add(
        -w2.mul(tq * tq, wp).div(2, wp), wp)
    return v1, v2


def _trig_C(t: MpReal, tq: Fraction, wp: int) -> tuple[MpReal, MpReal]:
    pi_ = pi_const(wp)
    pt = pi_.mul(t, wp)
    half_pt = pt.div(2, wp)
    con = half_pt.div(
        _two_t(t, wp).mul(sin(half_pt, wp), wp).mul(
            cos(pt.div(6, wp), wp), wp), wp)
    w1 = eval_W(WArgs(tq / 2, tq / 3, tq / 6, -tq / 2), wp)
    v1 = MpReal.from_int(1, wp).add(-con, wp).add(
        w1.mul(tq * tq, wp).div(3, wp), wp)
    alt = pt.div(
        _two_t(t, wp).mul(tan(pt, wp), wp).mul(
            cos(pt.div(3, wp), wp), wp), wp)
    w2 = eval_W(WArgs(tq / 6, -tq / 2, tq / 2, tq / 3), wp)
    v2 = MpReal.from_int(1, wp).add(-alt, wp).add(
        -w2.mul(tq * tq, wp).div(3, wp), wp)
    return v1, v2


def _trig_D(t: MpReal, tq: Fraction, wp: int) -> tuple[MpReal, MpReal]:
    pi_ = pi_const(wp)
    pt = pi_.mul(t, wp)
    half_pt = pt.div(2, wp)
    con = half_pt.div(
        _two_t(t, wp).mul(sin(half_pt, wp), wp).mul(
            cos(pt.div(3, wp), wp), wp), wp)
    w1 = eval_W(WArgs(tq / 3, tq / 6, tq / 3, -tq / 3), wp)
    v1 = MpReal.from_int(1, wp).add(-con, wp).add(
        w1.mul(tq * tq, wp).div(3, wp), wp)
    alt = half_pt.mul(cos(pt.mul(Q(5, 6), wp), wp), wp).div(
        _two_t(t, wp).mul(sin(half_pt, wp), wp).mul(
            cos(pt.div(6, wp), wp), wp).mul(cos(pt.div(3, wp), wp), wp),
        wp)
    w2 = eval_W(WArgs(tq / 3, -tq / 3, tq / 3, tq / 6), wp)
    v2 = MpReal.from_int(1, wp).add(-alt, wp).add(
        -w2.mul(tq * tq, wp).div(3, wp), wp)
    return v1, v2


_TRIG = {"A": _trig_A, "B": _trig_B, "C": _trig_C, "D": _trig_D}


def check_trig_forms(name: str, t: Fraction | MpReal, prec: int) -> CheckReport:
    """Compare both trigonometric+W decompositions of a generating
    function against its pole-sum value, for rational 0 < t < 1/3."""
    if name not in _TRIG:
        raise UnknownName(f"no trigonometric form for {name!r}")
    tq = _as_fraction(t)
    if not 0 < tq < Q(1, 3):
        raise DomainError("trigonometric forms checked on 0 < t < 1/3")
    wp = prec + 48
    tr = MpReal.from_fraction(tq, wp)
    ref = genfn_pf(name, tq, wp).re
    v1, v2 = _TRIG[name](tr, tq, wp)
    r1 = v1.add(-ref, wp)
    r2 = v2.add(-ref, wp)
    worst = r1 if _log2_mag(r1) >= _log2_mag(r2) else r2
    return _mk_report(f"trig-{name}@{tq}", prec, worst, 32)


# ----------------------------------------------------------------------
# contiguity recurrences for the complex generating functions

def _inv_lin(a: int, b: int, t: MpComplex, wp: int) -> MpComplex:
    """1 / (a + b t), raising PoleError on an exact hit."""
    den = MpComplex.from_int(a, wp).add(
        t.mul(MpComplex.from_int(b, wp), wp), wp)
    if den.abs2(32).is_zero:
        raise PoleError(f"recurrence pole at {a} + {b} t = 0")
    return MpComplex.from_int(1, wp).div(den, wp)


def _ci(re: int, im: int, wp: int) -> MpComplex:
    return MpComplex.from_fractions(Q(re), Q(im), wp)


def check_recurrence(name: str, t: MpComplex | MpReal | Fraction,
                     prec: int) -> CheckReport:
    """Functional equation linking G(t) to G(t - shift) for the complex
    generating functions F, G, H."""
    if name not in _CPLX_FAMS:
        raise UnknownName(f"no recurrence for {name!r}")
    wp = prec + 48
    tc = _as_cplx(t, wp)
    i1 = _ci(0, 1, wp)
    if name == "F":
        lhs = genfn_cplx("F", tc, wp).mul(_ci(2, 0, wp), wp).div(tc, wp)
        back = genfn_cplx("F", tc.add(_ci(-1, 0, wp), wp), wp)
        lhs = lhs.add(
            -back.mul(i1, wp).add(-i1, wp).mul(
                _inv_lin(-1, 1, tc, wp), wp), wp)
        rhs = _ci(2, 2, wp).mul(_inv_lin(1, -2, tc, wp), wp)
    elif name == "G":
        lhs = genfn_cplx("G", tc, wp).mul(_ci(8, 0, wp), wp).div(tc, wp)
        back = genfn_cplx("G", tc.add(_ci(-3, 0, wp), wp), wp)
        lhs = lhs.add(
            -back.mul(i1, wp).add(-i1, wp).mul(
                _inv_lin(-3, 1, tc, wp), wp), wp)
        rhs = _ci(12, 12, wp).mul(_inv_lin(3, -2, tc, wp), wp)
        rhs = rhs.add(_ci(0, 8, wp).mul(_inv_lin(1, -1, tc, wp), wp), wp)
        rhs = rhs.add(_ci(4, 0, wp).mul(_inv_lin(2, -1, tc, wp), wp), wp)
    else:
        lhs = genfn_cplx("H", tc, wp).mul(_ci(32, 0, wp), wp).div(tc, wp)
        back = genfn_cplx("H", tc.add(_ci(-5, 0, wp), wp), wp)
        lhs = lhs.add(
            back.mul(i1, wp).add(-i1, wp).mul(
                _inv_lin(-5, 1, tc, wp), wp), wp)
        rhs = _ci(40, -40, wp).mul(_inv_lin(5, -2, tc, wp), wp)
        rhs = rhs.add(_ci(0, 64, wp).mul(_inv_lin(1, -1, tc, wp), wp), wp)
        rhs = rhs.add(_ci(32, 0, wp).mul(_inv_lin(2, -1, tc, wp), wp), wp)
        rhs = rhs.add(_ci(0, -16, wp).mul(_inv_lin(3, -1, tc, wp), wp), wp)
        rhs = rhs.add(_ci(-8, 0, wp).mul(_inv_lin(4, -1, tc, wp), wp), wp)
    diff = lhs.add(-rhs, wp)
    resid = diff.abs_val(wp)
    return _mk_report(f"recur-{name}", prec, resid, 32)


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

_E_FAMS = _PF["E"]


def _sec_bracket(t: MpReal, wp: int) -> tuple[MpReal, MpReal, MpReal]:
    """(cos(pi t/5), sin(pi t/5), sin(pi t/2)) at wp bits."""
    pi_ = pi_const(wp)
    u = pi_.mul(t, wp).div(5, wp)
    v = pi_.mul(t, wp).div(2, wp)
    return cos(u, wp), sin(u, wp), sin(v, wp)


def _u_trig_n(t: MpReal, wp: int) -> MpReal:
    """N(t) = (pi t / 2) [sec(pi t/5) - 8 sin^2(pi t/5)] / 2^t."""
    cu, su, _ = _sec_bracket(t, wp)
    q = MpReal.from_int(1, wp).div(cu, wp).add(
        -su.mul(su, wp).mul(8, wp), wp)
    return pi_const(wp).mul(t, wp).div(2, wp).mul(q, wp).div(
        _two_t(t, wp), wp)


def _u_trig_n_prime(t: MpReal, wp: int) -> MpReal:
    """d/dt of N(t) above, used for limits at even integers."""
    pi_ = pi_const(wp)
    cu, su, _ = _sec_bracket(t, wp)
    sec = MpReal.from_int(1, wp).div(cu, wp)
    q = sec.add(-su.mul(su, wp).mul(8, wp), wp)
    # q' = (pi/5) [sec tan - 8 sin(2u)]
    qp = sec.mul(su, wp).div(cu, wp).add(
        -su.mul(cu, wp).mul(16, wp), wp).mul(pi_, wp).div(5, wp)
    ln2 = log2_const(wp)
    inner = q.add(t.mul(qp, wp), wp).add(-t.mul(ln2, wp).mul(q, wp), wp)
    return pi_.mul(inner, wp).div(2, wp).div(_two_t(t, wp), wp)


def _u_trig_m(t: MpReal, wp: int) -> MpReal:
    """M(t) = (pi t / 2) / (2^t sin(pi t/2))."""
    _, _, sv = _sec_bracket(t, wp)
    return pi_const(wp).mul(t, wp).div(2, wp).div(
        _two_t(t, wp).mul(sv, wp), wp)


def _u_trig_m_prime(t: MpReal, wp: int) -> MpReal:
    """d/dt of M(t), used for limits at t in 5/2 + 5Z."""
    pi_ = pi_const(wp)
    _, _, sv = _sec_bracket(t, wp)
    cv = cos(pi_.mul(t, wp).div(2, wp), wp)
    ln2 = log2_const(wp)
    inner = MpReal.from_int(1, wp).add(-t.mul(ln2, wp), wp).add(
        -pi_.mul(t, wp).div(2, wp).mul(cv, wp).div(sv, wp), wp)
    return pi_.mul(inner, wp).div(2, wp).div(
        _two_t(t, wp).mul(sv, wp), wp)


def U(t: Fraction | int | MpReal, prec: int) -> MpReal:
    """The interpolation U(t), finite for t > -2; PoleError at genuine
    poles (even integers t <= -2), removable points handled exactly."""
    wp = prec + 96
    tr = _as_real(t, wp)
    tq = tr.to_fraction()
    if tq == 0:
        return MpReal.zero(prec)
    pi_ = pi_const(wp)

    hits: list[tuple[Fraction, Fraction, int, int]] = []  # (c, mu, fam, k)
    for fi, fam in enumerate(_E_FAMS):
        mu = fam[5]
        kq = mu * tq
        if kq.denominator == 1 and kq >= 1:
            c = _fam_coeff(fam, int(kq))
            if c != 0:
                hits.append((c, mu, fi, int(kq)))
    even_hit = tq.denominator == 1 and int(tq) % 2 == 0
    sec_q = 2 * tq / 5
    sec_hit = sec_q.denominator == 1 and int(sec_q) % 2 != 0

    if not hits and not even_hit and not sec_hit:
        trig = _u_trig_n(tr, wp).div(
            sin(pi_.mul(tr, wp).div(2, wp), wp), wp)
        e_val = _pole_sum(_E_FAMS, MpComplex.from_real(tr), wp).re
        val = MpReal.from_int(1, wp).add(-trig, wp).add(-e_val, wp)
        return val.mul(Q(5, 2), prec)

    # limit assembly: bracket = 1 - T - E with T and the hit terms of E
    # replaced by the constant parts of their Laurent expansions
    res = MpReal.zero(wp)
    cst = MpReal.zero(wp)
    mags = [0.0]
    if even_hit:
        sgn = 1 if (int(tq) // 2) % 2 == 0 else -1
        part = _u_trig_n(tr, wp).mul(2 * sgn, wp).div(pi_, wp)
        res = res.add(part, wp)
        mags.append(_log2_mag(part))
        cst = cst.add(
            _u_trig_n_prime(tr, wp).mul(2 * sgn, wp).div(pi_, wp), wp)
    elif sec_hit:
        sgn = 1 if ((int(sec_q) - 1) // 2) % 2 == 0 else -1
        m_val = _u_trig_m(tr, wp)
        part = m_val.mul(-5 * sgn, wp).div(pi_, wp)
        res = res.add(part, wp)
        mags.append(_log2_mag(part))
        cst = cst.add(
            _u_trig_m_prime(tr, wp).mul(-5 * sgn, wp).div(pi_, wp), wp)
        cst = cst.add(m_val.mul(-8, wp), wp)  # -8 M sin^2 with sin^2 = 1
    for c, mu, _fi, _k in hits:
        part = MpReal.from_fraction(-tq * c / mu, wp)
        res = res.add(part, wp)
        mags.append(_log2_mag(part))
        cst = cst.add(MpReal.from_fraction(-c / mu, wp), wp)
    # residues of T and of the singular E terms must cancel exactly;
    # a remainder beyond rounding noise marks a genuine pole
    if _log2_mag(res) > max(mags) - wp // 2 + 16:
        raise PoleError(f"U has a pole at t = {tq}")
    skip = frozenset((fi, k) for _c, _mu, fi, k in hits)
    e_reg = _pole_sum(
        _E_FAMS, MpComplex.from_real(tr), wp, skip=skip).re
    val = MpReal.from_int(1, wp).add(-cst, wp).add(-e_reg, wp)
    return val.mul(Q(5, 2), prec)


def Utilde(t: Fraction | int | MpReal, prec: int) -> MpReal:
    """U(t) - 5 pi t / (2^t sin(pi t/2)): removes the reflected trig
    term so the half-odd lattice values become rational."""
    wp = prec + 48
    tr = _as_real(t, wp)
    tq = tr.to_fraction()
    if tq.denominator == 1 and int(tq) % 2 == 0 and tq != 0:
        raise PoleError("the subtracted term has a pole at even t")
    u = U(tr, wp)
    sub = _u_trig_m(tr, wp).mul(10, wp)  # 5 pi t / (2^t sin) = 10 M(t)
    return u.add(-sub, prec)


# ----------------------------------------------------------------------
# exact lattice values of U and Utilde
#
# Finite Gaussian-rational sums give U on multiples of 5 and Utilde on
# half-odd multiples of 5/2; at the genuine poles the same sums yield
# the residue and the constant term of the Laurent expansion.

def _gpow(re: Fraction, im: Fraction, k: int) -> tuple[Fraction, Fraction]:
    ar, ai = Q(1), Q(0)
    for _ in range(abs(k)):
        ar, ai = ar * re - ai * im, ar * im + ai * re
    if k < 0:
        d = ar * ar + ai * ai
        ar, ai = ar / d, -ai / d
    return ar, ai


def _u_plus(n: int) -> Fraction:
    """U(5n) for integer n >= 1."""
    total = Q(0)
    for k in range(1, 2 * n + 1):
        pr, pi_ = _gpow(Q(2), Q(2), k)
        qr, qi = _gpow(Q(0), _HALF, 5 * n - k)
        total += ((pr - 2) * qr - pi_ * qi) / k
    for k in range(2 * n + 1, 5 * n + 1):
        qr, _qi = _gpow(Q(0), _HALF, 5 * n - k)
        total -= Q(2, k) * qr
    return 25 * n * total


def _v_minus(n: int) -> Fraction:
    """The finite sum V(n); equals U(-5n) for odd n."""
    total = Q(0)
    for k in range(1, 2 * n):
        pr, pi_ = _gpow(Q(2), Q(2), -k)
        qr, qi = _gpow(Q(0), _HALF, k - 5 * n)
        total += ((pr - 2) * qr - pi_ * qi) / k
    for k in range(2 * n, 5 * n):
        qr, _qi = _gpow(Q(0), _HALF, k - 5 * n)
        total -= Q(2, k) * qr
    return -25 * n * total


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
        return _u_plus(n)
    n = -n
    if n % 2 == 1:
        return _v_minus(n)
    m = n // 2
    unit = Q((-1024) ** m)
    return 25 * m * unit, _v_minus(2 * m) - Q(5, 2) * unit


def utilde_rational(t: Fraction) -> Fraction | tuple[Fraction, Fraction]:
    """Exact Utilde on the half-odd lattice (5/2)(2Z+1): a Fraction for
    positive arguments, Laurent (residue, constant) for negative ones."""
    tq = Q(t)
    n = tq * Q(2, 5)
    if n.denominator != 1 or int(n) % 2 == 0:
        raise DomainError(
            "closed forms exist at odd multiples of 5/2 only")
    n = int(n)
    if n > 0:
        total = Q(0)
        for k in range(n):
            pr, _pi = _gpow(Q(4), Q(4), -k)
            total += Q(25 * n) * pr / (2 * n - 2 * k)
        for k in range(5 * n // 4 + 1):
            total -= Q(50 * n) * (Q(-4) ** -k) / (5 * n - 4 * k)
        return total
    n = -n
    pr_n, _ = _gpow(Q(4), Q(4), n)
    residue = pr_n * Q(125 * n, 4)
    total = -pr_n * Q(25, 2)
    for k in range(1, n):
        pr, _pi = _gpow(Q(4), Q(4), k)
        total -= Q(25 * n) * pr / (2 * n - 2 * k)
    for k in range(1, 5 * n // 4 + 1):
        total += Q(50 * n) * (Q(-4) ** k) / (5 * n - 4 * k)
    return residue, total


# ----------------------------------------------------------------------
# asymptotic expansion of U: exact integer coefficients
#
# U(t) ~ 6 (1 + sum_m k_m / (10 t)^m).  A contour representation turns
# k_m into moment integrals of x^m cos/sin(x ln 2) against the kernel
# x / sinh(pi x/2) * [1/cosh(pi x/5) + 8 sinh^2(pi x/5)], whose
# expansion in powers of exp(-pi x/10) has small integer coefficients;
# each exponential moment is m! Re/Im (u pi/10 + i ln 2)^-(m+1).

_G_LIMIT = 1 << 13


@functools.cache
def _kernel_coeffs() -> list[int]:
    g = [0] * (_G_LIMIT + 1)
    for j in range(0, (_G_LIMIT - 1) // 10 + 1):
        base = 10 * j
        if base + 1 <= _G_LIMIT:
            g[base + 1] += 4
        if base + 5 <= _G_LIMIT:
            g[base + 5] -= 8
        if base + 9 <= _G_LIMIT:
            g[base + 9] += 4
        u = base + 7
        sign = 4
        while u <= _G_LIMIT:
            g[u] += sign
            sign = -sign
            u += 4
    return g


@dataclass(frozen=True)
class AsympCoeff:
    """One exact coefficient of the large-t expansion of U."""

    m: int
    value: int


_ASYMP_MAX_M = 64


def asymp_coeff(m: int) -> int:
    """Exact integer k_m in U(t) ~ 6 sum_m k_m / (10 t)^m, for
    1 <= m <= 64.  PrecisionError if the quadrature cannot resolve the
    nearest integer with margin 1/4."""
    if not 1 <= m <= _ASYMP_MAX_M:
        raise DomainError(
            f"asymptotic coefficients computed for m <= {_ASYMP_MAX_M}")
    wp = 256 + 10 * m
    g = _kernel_coeffs()
    pi_ = pi_const(wp)
    ln2 = log2_const(wp)
    acc = MpReal.zero(wp)
    one = MpComplex.from_int(1, wp)
    for u in range(1, _G_LIMIT + 1):
        gu = g[u]
        if gu == 0:
            continue
        w = MpComplex(pi_.mul(u, wp).div(10, wp), ln2)
        p = one
        e = m + 1
        base = w
        while e:
            if e & 1:
                p = p.mul(base, wp)
            e >>= 1
            if e:
                base = base.mul(base, wp)
        inv = one.div(p, wp)
        part = inv.re if m % 2 == 1 else inv.im
        acc = acc.add(part.mul(gu, wp), wp)
    # odd m take -(-1)^((m-1)/2) Re, even m take +(-1)^((m-2)/2) Im
    if m % 2 == 1:
        sgn = -1 if ((m - 1) // 2) % 2 == 0 else 1
    else:
        sgn = 1 if ((m - 2) // 2) % 2 == 0 else -1
    val = acc.mul(
        Q(sgn * 5 * 10**m * math.factorial(m), 24), wp)
    vq = val.to_fraction()
    k = round(vq)
    if abs(vq - k) >= Q(1, 4):
        raise PrecisionError(
            f"asymptotic coefficient {m} not resolved: margin {float(abs(vq - k)):.3f}"
        )
    return k


def asymp_battery(count: int = 6) -> list[AsympCoeff]:
    return [AsympCoeff(m, asymp_coeff(m)) for m in range(1, count + 1)]


# ----------------------------------------------------------------------
# Pochhammer ratio identities
#
# With (a)_n = Gamma(a+n)/Gamma(a) extended to non-integer n, six ratio
# combinations collapse to elementary closed forms.  Ids follow the
# published tags: poca..pocd are single ratios, poc4/poc6 the four- and
# six-factor variants sharing the cos(pi t/10) closed form.

def _poch(a: Fraction, n: Fraction, wp: int) -> MpReal:
    num = _gamma_q(a + n, wp)
    den = _gamma_q(a, wp)
    return num.div(den, wp)


def _closed_2pow(c: int, t: Fraction, ang: Fraction | None, wp: int) -> MpReal:
    """2^(c-t), times cos(ang * pi * t) when ang is given."""
    val = exp(
        MpReal.from_fraction(Q(c) - t, wp).mul(log2_const(wp), wp), wp)
    if ang is not None:
        val = val.mul(
            cos(pi_const(wp).mul(MpReal.from_fraction(ang * t, wp), wp), wp),
            wp)
    return val


POCHHAMMER_IDS = ("poca", "pocb", "pocc", "pocd", "poc4", "poc6")


def pochhammer_check(which: str, t: Fraction | MpReal, prec: int) -> CheckReport:
    """One of six Pochhammer-ratio identities at rational 0 < t < 1."""
    tq = _as_fraction(t)
    if not 0 < tq < 1:
        raise DomainError("ratio identities checked on 0 < t < 1")
    wp = prec + 64
    if which == "poca":
        n = tq / 2 - _HALF
        lhs = _poch(_HALF, n, wp).div(_poch(_HALF + tq / 2, n, wp), wp)
        rhs = _closed_2pow(1, tq, None, wp)
    elif which == "pocb":
        n = tq - _HALF
        lhs = _poch(_HALF - tq / 2, n, wp).div(_poch(_HALF, n, wp), wp)
        rhs = _closed_2pow(1, tq, _HALF, wp)
    elif which == "pocc":
        n = tq / 2 - _HALF
        lhs = _poch(_HALF - tq / 3, n, wp).div(
            _poch(_HALF + tq / 6, n, wp), wp)
        rhs = _closed_2pow(2, tq, Q(1, 3), wp)
    elif which == "pocd":
        n = tq / 3 - _HALF
        lhs = _poch(_HALF - tq / 6, n, wp).div(
            _poch(_HALF + tq / 3, n, wp), wp)
        rhs = _closed_2pow(2, tq, Q(1, 6), wp)
    elif which == "poc4":
        n = tq / 5 - _HALF
        lhs = _poch(_HALF, n, wp).mul(_poch(_HALF - tq / 10, n, wp), wp)
        d = _poch(_HALF + tq / 5, n, wp)
        lhs = lhs.div(d.mul(d, wp), wp)
        rhs = _closed_2pow(3, tq, Q(1, 10), wp)
    elif which == "poc6":
        n = tq / 5 - _HALF
        p = _poch(_HALF - tq / 10, n, wp)
        lhs = p.mul(p, wp).mul(p, wp)
        h = _poch(_HALF, n, wp)
        lhs = lhs.div(
            h.mul(h, wp).mul(_poch(_HALF + tq / 5, n, wp), wp), wp)
        cs = cos(pi_const(wp).mul(
            MpReal.from_fraction(tq / 10, wp), wp), wp)
        rhs = _closed_2pow(4, tq, None, wp).mul(
            cs.mul(cs, wp).mul(cs, wp), wp)
    else:
        raise UnknownName(f"no ratio identity {which!r}")
    return _mk_report(f"{which}@{tq}", prec, lhs.add(-rhs, wp), 48)


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
    coeffs = _sp.taylor_coeffs(
        lambda x, wp: U(x, wp), 5, prec, Q(1, 4))
    wp = prec + 32
    pi_ = pi_const(wp)
    ln2 = log2_const(wp)
    pi2 = pi_.mul(pi_, wp)
    pi4 = pi2.mul(pi2, wp)
    abar = {n: eval_ladder("Abar", n, wp) for n in (3, 4, 5)}
    e2 = pi2.div(2, wp)
    e3 = -pi2.mul(ln2, wp).div(2, wp) - abar[3].mul(Q(6, 5), wp)
    e4 = pi2.mul(ln2.mul(ln2, wp), wp).div(4, wp).add(
        pi4.mul(Q(53, 2400), wp), wp) - abar[4].mul(Q(6, 5), wp)
    e5 = -pi2.mul(pow_int(ln2, 3, wp), wp).div(12, wp) \
        - pi4.mul(ln2, wp).mul(Q(53, 2400), wp) \
        - abar[5].mul(Q(6, 5), wp) \
        + _sp.zeta(5, wp).mul(Q(213 * 31, 250 * 32), wp)
    expect = [MpReal.zero(wp), MpReal.zero(wp), e2, e3, e4, e5]
    worst = MpReal.zero(wp)
    for c, e in zip(coeffs, expect):
        r = c.add(-e, wp)
        if _log2_mag(r) > _log2_mag(worst):
            worst = r
    mag = _log2_mag(worst)
    return CheckReport(
        name="taylor-U-through-t5", bits=prec,
        log2_residual=mag, passed=mag <= -(prec // 4),
    )


# ----------------------------------------------------------------------
# elementary consistency probes

def geo_checks(prec: int = 256) -> list[CheckReport]:
    """Exact geometric resummations underlying the C and D pole sums,
    and the sec - 8 sin^2 bracket value at t = 2."""
    out = []
    s8 = Q(-1, 8) / (1 - Q(-1, 8))
    s2 = Q(-1, 2) / (1 - Q(-1, 2))
    out.append(_exact_report(
        "geo-eighth", prec, -3 * s8 + 2 * s2 == Q(-1, 3)))
    zr, zi = Q(1, 4), Q(1, 4)
    d = (1 - zr) ** 2 + zi * zi
    re_sum = (zr * (1 - zr) - zi * zi) / d
    lhs2 = -3 * re_sum + 2 * (Q(-1, 4) / (1 - Q(-1, 4)))
    out.append(_exact_report("geo-quarter", prec, lhs2 == Q(-1)))
    wp = prec + 32
    two = MpReal.from_int(2, wp)
    cu, su, _ = _sec_bracket(two, wp)
    bracket = MpReal.from_int(1, wp).div(cu, wp).add(
        -su.mul(su, wp).mul(8, wp), wp)
    out.append(_mk_report(
        "sec-bracket@2", prec, bracket.add(4, wp), 16))
    return out


# ----------------------------------------------------------------------
# Catalan's constant from central binomials
#
# G = sum_{n>=1} C(2n,n) H_{2n} / (2^(2n+1) (2n+1)) converges only like
# n^(-3/2) log n; the tail is summed with the same Hurwitz chains, the
# harmonic factor expanded through ln n, Euler's constant and Bernoulli
# corrections, with the log-weighted zeta tails supplied analytically.


@functools.cache
def _euler_gamma(wp: int) -> MpReal:
    big = 128
    while 9 * big < wp + 48:
        big *= 2
    w = wp + 16
    h = sum(Q(1, k) for k in range(1, big + 1))
    acc = MpReal.from_fraction(h - Q(1, 2 * big), w)
    acc = acc.add(-log2_const(w).mul(big.bit_length() - 1, w), w)
    # gamma = H_big - ln(big) - 1/(2 big) + sum_k B_2k / (2k big^2k), the
    # Euler-Maclaurin corrections at s = 1 on the scale of 1/big
    corr = sum(_sp._em_corrections(1 << (w - big.bit_length() + 1), big, 1))
    return acc.add(MpReal.from_fixed(corr, w, w), w).round_to(wp)


def catalan_binomial(prec: int) -> MpReal:
    """Catalan's constant via the harmonically weighted central-binomial
    series; supported for prec <= 128."""
    if not 16 <= prec <= 128:
        raise DomainError("binomial route supported for 16 <= prec <= 128")
    wp = prec + 48
    big = max(96, wp)
    # direct block with c_n and H_{2n} carried as fixed-point integers;
    # the summed terms are b_n H_{2n} = (c_n / 2) H_{2n}
    one = 1 << wp
    b = one // 6  # c_1
    acc = (b >> 1) * (one + (one >> 1)) >> wp  # n = 1 term, H_2 = 3/2
    n = 2
    b = b * 9 // 20  # advance c to n = 2
    hq = one + (one >> 1) + one // 3 + (one >> 2)  # H_4
    while n <= big:
        acc += ((b >> 1) * hq) >> wp
        b = b * (2 * n + 1) ** 2 // (2 * (n + 1) * (2 * n + 3))
        hq += one // (2 * n + 1) + one // (2 * n + 2)
        n += 1
    head = MpReal.from_fixed(acc, wp, wp)
    # tail: c_n = lam n^-3/2 T(1/n), H_{2n} = ln n + (gamma + ln 2)
    #        + 1/(4n) - sum B_{2k} / (2k (2n)^{2k})
    jmax = max(40, wp // 4)
    r = _ratio_series(_HALF, _HALF, Q(1), Q(3, 2), Q(3, 2), jmax)
    d = _tail_coeffs(r, jmax, wp + 128)
    chain = _HurwitzTail(Q(3, 2), big + 1, wp + 160)
    hco: dict[int, Fraction] = {1: Q(1, 4)}
    k = 1
    while 2 * k <= jmax:
        hco[2 * k] = -_sp.bernoulli(2 * k) / (2 * k * 4**k)
        k += 1
    gconst = _euler_gamma(wp + 32).add(log2_const(wp + 32), wp + 32)
    tail = MpReal.zero(wp + 32)
    floor_mag = None
    for j in range(jmax + 1):
        term = d[j].mul(chain.logvalue(j), wp + 32)
        term = term.add(d[j].mul(chain.value(j), wp + 32).mul(
            gconst, wp + 32), wp + 32)
        conv = MpReal.zero(wp + 32)
        for kk, hv in hco.items():
            if kk <= j:
                conv = conv.add(
                    d[j - kk].mul(hv, wp + 32), wp + 32)
        term = term.add(conv.mul(chain.value(j), wp + 32), wp + 32)
        mag = _log2_mag(term)
        if mag < -(wp + 16):
            break
        if floor_mag is not None and mag > floor_mag + 4:
            raise PrecisionError("harmonic tail turned before converging")
        floor_mag = mag if floor_mag is None else min(floor_mag, mag)
        tail = tail.add(term, wp + 32)
    lam = MpReal.from_int(1, wp).div(
        pi_const(wp).sqrt(wp).mul(2, wp), wp)
    return head.add(lam.mul(tail.round_to(wp), wp).div(2, wp), prec)


# ----------------------------------------------------------------------
# named check batteries (used by the command-line front end)

def _battery_w(prec: int) -> list[CheckReport]:
    wp = prec + 32
    base = eval_W(WArgs(Q(0), Q(0), Q(0), Q(0)), wp)
    pi_ = pi_const(wp)
    ref = pi_.mul(pi_, wp).div(2, wp)
    out = [_mk_report("W(0,0;0,0)", prec, base.add(-ref, wp), 8)]
    # self-reflection points exercise the kernel against pure gammas
    out.append(reflection_check(
        WArgs(Q(1, 10), Q(1, 8), Q(1, 10), Q(1, 8)), prec))
    out.append(reflection_check(
        WArgs(Q(-1, 6), Q(1, 4), Q(-1, 6), Q(1, 4)), prec))
    return out


_REFLECT_POINTS = (
    (Q(1, 10), Q(1, 5), Q(1, 20), Q(-1, 10)),
    (Q(1, 3), Q(-1, 5), Q(1, 7), Q(1, 9)),
    (Q(-1, 4), Q(2, 5), Q(1, 6), Q(-1, 8)),
    (Q(3, 10), Q(1, 12), Q(-2, 7), Q(1, 5)),
    (Q(2, 9), Q(-1, 3), Q(4, 11), Q(1, 13)),
)


def _battery_inv(prec: int) -> list[CheckReport]:
    return [reflection_check(WArgs(*p), prec) for p in _REFLECT_POINTS]


def _battery_genfn(prec: int) -> list[CheckReport]:
    wp = prec + 32
    out = []
    c = _sp.taylor_coeffs(
        lambda x, w: genfn_pf("A", x, w).re, 1, prec, Q(1, 4))
    out.append(_mk_report(
        "A-linear-term", prec, c[1].add(-log2_const(wp), wp),
        prec - prec // 2 + 16))
    cf = _sp.taylor_coeffs(
        lambda x, w: genfn_pf("F", x, w).re, 2, prec, Q(1, 4))
    cg = _sp.taylor_coeffs(
        lambda x, w: genfn_pf("G", x, w).re, 2, prec, Q(1, 4))
    probe = cf[2].add(-cg[2], wp).mul(Q(3, 4), wp)  # (3/2)(F2 - G2)
    out.append(_mk_report(
        "catalan-from-F-G", prec,
        probe.add(-eval_formula("catalan", wp), wp),
        prec - prec // 2 + 16))
    for name in "BDFG":
        t = Q(1, 10)
        pf = genfn_pf(name, t, wp).re
        hyp = genfn_hyp(name, t, wp)
        out.append(_mk_report(
            f"pf-vs-hyp-{name}@{t}", prec, pf.add(-hyp, wp), 32))
    out.append(check_trig_forms("A", Q(1, 10), prec))
    out.append(check_trig_forms("B", Q(1, 4), prec))
    out.append(check_trig_forms("C", Q(1, 10), prec))
    out.append(check_trig_forms("D", Q(1, 7), prec))
    return out


def _battery_recur(prec: int) -> list[CheckReport]:
    wp = prec + 32
    g_in = MpComplex.from_fractions(Q(1, 5), Q(1, 7), wp)
    return [
        check_recurrence("F", Q(1, 3), prec),
        check_recurrence("G", g_in, prec),
        check_recurrence("H", Q(1, 3), prec),
    ]


def _battery_u(prec: int) -> list[CheckReport]:
    wp = prec + 32
    out = []
    u5 = U(Q(5), wp)
    out.append(_mk_report(
        "U(5)-series-vs-rational", prec,
        u5.add(-MpReal.from_fraction(u_rational(5), wp), wp), 32))
    ok = (u_rational(5) == Q(20, 3) and u_rational(10) == Q(20, 3)
          and u_rational(-5) == Q(1900, 3))
    out.append(_exact_report("U-lattice-values", prec, ok))
    pole = u_rational(-10)
    out.append(_exact_report(
        "U-pole-at-minus-10", prec,
        pole == (Q(-25600), Q(20310))))
    out.append(_exact_report(
        "Utilde(5/2)", prec, utilde_rational(Q(5, 2)) == 15))
    ut = Utilde(Q(5, 2), wp)
    out.append(_mk_report(
        "Utilde(5/2)-series", prec,
        ut.add(-15, wp), 32))
    u50 = U(Q(50), 64)
    dev = u50.div(6, 64).add(-1, 64)
    mag = _log2_mag(dev)
    out.append(CheckReport(
        name="U(50)-near-limit", bits=prec,
        log2_residual=mag, passed=mag <= math.log2(0.10),
    ))
    eps = Q(1, 1000)
    u_near = U(Q(-10) + eps, wp)
    res, _cst = u_rational(-10)
    ratio = u_near.mul(eps, 64).div(res, 64).add(-1, 64)
    rmag = _log2_mag(ratio)
    out.append(CheckReport(
        name="U-pole-residue-probe", bits=prec,
        log2_residual=rmag, passed=rmag <= math.log2(0.01),
    ))
    return out


_ASYMP_KNOWN = (11, 157, -1749, -433651, -43430405, -4000517955)


def _battery_asymp(prec: int) -> list[CheckReport]:
    out = []
    for m, known in enumerate(_ASYMP_KNOWN, start=1):
        got = asymp_coeff(m)
        out.append(_exact_report(f"asymp-k{m}", prec, got == known))
    return out


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
    p = min(prec, 128)
    wp = p + 16
    diff = catalan_binomial(p).add(-eval_formula("catalan", wp), wp)
    out.append(_mk_report("catalan-binomial", p, diff, 8))
    return out


CHECKS: dict[str, Callable[[int], list[CheckReport]]] = {
    "W": _battery_w,
    "inv": _battery_inv,
    "genfn": _battery_genfn,
    "recur": _battery_recur,
    "U": _battery_u,
    "asymp": _battery_asymp,
    "poch": _battery_poch,
    "expu": _battery_expu,
    "geo": _battery_geo,
}

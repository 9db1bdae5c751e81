"""The fixed-point kernels under the hypergeometric batteries: the kernel
table of the asymptotic integers, the 3F2 tail, the pole sums and the
Spouge sum of gamma, each against an independent value."""

import hashlib
import math
from fractions import Fraction as Q

import pytest

from lihex.errors import PoleError
from lihex.hyper import (U, Utilde, _G_LIMIT, _kernel_coeffs, asymp_coeff,
                         genfn_cplx, genfn_hyp, genfn_pf)
from lihex.mp import special as sp
from lihex.mp.real import MpReal, pi_const


def _mag(x: MpReal) -> float:
    return float("-inf") if x.is_zero else float(x.bit_top())


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
    g = _kernel_coeffs()
    assert list(g) == _kernel_table_summed_run_by_run(_G_LIMIT)
    assert max(abs(v) for v in g) <= 12


def test_asymptotic_integers_through_64_are_pinned():
    ks = ",".join(str(asymp_coeff(m)) for m in range(1, 65))
    assert hashlib.sha256(ks.encode()).hexdigest() == (
        "943bbe7bae84bf55faefeb659df31b35b94abdb50f3460fb28b487d72744ccd0")


@pytest.mark.parametrize("prec", [256, 1024])
@pytest.mark.parametrize("t", [Q(1, 10), Q(-1, 5), Q(1, 3)])
def test_partial_fractions_match_the_3f2_forms(prec, t):
    for name in "BDFG":
        pf = genfn_pf(name, t, prec).re
        hyp = genfn_hyp(name, t, prec)
        assert _mag(pf - hyp) < -(prec - 32), (name, t)


@pytest.mark.slow
def test_3f2_tail_holds_at_2048_bits():
    pf = genfn_pf("D", Q(1, 10), 2048).re
    hyp = genfn_hyp("D", Q(1, 10), 2048)
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
        genfn_cplx("G", t, 128)


@pytest.mark.parametrize("prec", [256, 1024, 2048])
def test_gamma_known_values(prec):
    w = prec + 8

    def gamma(q):
        return sp.gamma(MpReal.from_fraction(Q(q), prec), prec)

    def close(x, want):
        return _mag(x.add(-want, w).div(want, w)) <= -(prec - 2)

    pi_ = pi_const(w)
    half = gamma(Q(1, 2))
    assert close(half.mul(half, w), pi_)
    quarters = gamma(Q(1, 4)).mul(gamma(Q(3, 4)), w)
    assert close(quarters, pi_.mul(MpReal.from_int(2, w).sqrt(w), w))
    for n in (1, 2, 3, 7, 20, 40):
        assert close(gamma(n), MpReal.from_int(math.factorial(n - 1), w)), n

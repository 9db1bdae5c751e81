"""Arbitrary-precision arithmetic and special functions.

The exported surface is small: the two number types, the constants pi and
log2, elementary functions, and the zeta/gamma/polylog family used by the
higher-level modules.  Complex support stops at arithmetic and the
principal logarithm.  Every zeta-type sum (zeta, Dirichlet beta, the
Hurwitz zeta at integer s, and the series tails of :mod:`lihex.hyper`)
ends in one Euler-Maclaurin kernel in :mod:`lihex.mp.special`, which
reads one shared table of exact Bernoulli numbers.  ``hurwitz`` takes
integer s >= 2 and ``gamma`` real arguments only.  Every memo in the
package is ``functools.cache`` on a function of its arguments alone, so
no value depends on what the process computed before; the Bernoulli
table, which only grows one prefix, is the one exception.
"""

from .cplx import MpComplex, cln
from .real import (
    MAX_FUNC_PREC,
    MpReal,
    atan,
    cos,
    exp,
    ln,
    pow_int,
    pow_real,
    sin,
    tan,
)
from .real import log2_const as log2
from .real import pi_const as pi
from .special import (
    BERNOULLI_MAX,
    bernoulli,
    beta_fn,
    dirichlet_beta,
    gamma,
    hurwitz,
    polylog,
    taylor_coeffs,
    zeta,
)

__all__ = [
    "MAX_FUNC_PREC",
    "BERNOULLI_MAX",
    "MpReal",
    "MpComplex",
    "pi",
    "log2",
    "exp",
    "ln",
    "sin",
    "cos",
    "tan",
    "atan",
    "pow_int",
    "pow_real",
    "cln",
    "bernoulli",
    "zeta",
    "hurwitz",
    "dirichlet_beta",
    "gamma",
    "beta_fn",
    "polylog",
    "taylor_coeffs",
]

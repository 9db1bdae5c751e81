"""Arbitrary-precision arithmetic and special functions.

:mod:`lihex.mp.real` holds the one rounded number type, ``MpReal``, the
value type of the public API, and the fixed-point kernels under the
checkers: the constants pi and log 2, exp, ln, atan and ``sincospi``,
which takes sin and cos at pi times an exact rational.  A real value in
the checkers is a fixed-point int at a stated number of bits, not an
``MpReal``.  :mod:`lihex.mp.special` holds the zeta/gamma/polylog
family.  A complex argument there is an exact (re, im) pair of rationals
and a complex value an (re, im) pair of fixed-point ints; complex support
stops at Gaussian-rational arithmetic, Li_n and the principal logarithm.
zeta(n) and Dirichlet beta(n) are alternating sums under Borwein's
acceleration in :mod:`lihex.mp.real`, in integer fixed point with a
counted bound; the Hurwitz zeta at integer s, the series tails of
:mod:`lihex.hyper` and Stirling's series for ``gamma`` end in one
Euler-Maclaurin kernel in :mod:`lihex.mp.special`, which reads one
shared table of exact Bernoulli numbers.  ``hurwitz`` takes integer
s >= 2 and ``gamma`` rational arguments only.  Every memo in the
package is ``functools.cache`` on a function of its arguments alone, or
``functools.cached_property`` on an immutable object, so no value
depends on what the process computed before; the Bernoulli table,
which only grows one prefix, is the one exception.
The kernels check their domains but carry no precision policy beyond
the 2..2^23-bit range of an ``MpReal``: the entry point that receives a
request checks its precision before any work.
"""

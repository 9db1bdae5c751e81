"""Integer-relation detection for the catalog constants.

Given real numbers x_1..x_n, the PSLQ iteration either produces an
integer vector v with v.x = 0 to working accuracy, or certifies that
no relation exists with Euclidean norm below an exclusion bound that
grows as the iteration proceeds.  Everything runs in fixed-point
integer arithmetic: the inputs are scaled by 2**P, y and H are kept at
the same scale, and the transforms stay exactly integral, so a query
is reproducible bit for bit across runs and platforms.

The iteration has two levels (Bailey & Broadhurst, "Parallel integer
relation detection", Math. Comp. 70, 2001):

* a level copies y and H, rounded to about 192 bits below their
  smallest entry, and runs the usual steps on the copies: row choice,
  swap, Givens rotation and Hermite reduction.  It builds the exact
  small-integer transforms A and B = A**-1 as it goes.  It ends when a
  transform entry passes 64 bits, when the smallest |y| or |H_jj| of a
  copy has lost 96 bits (a tiny |y| is a relation candidate), when the
  copy's max |H_jj| says the exclusion bound may hold, or when the row
  choice degenerates.
* a refresh applies the level at full precision: y := y*B, B_total :=
  B_total*B, H := A*H brought back to lower-trapezoidal form by Givens
  rotations, then a full Hermite reduction.  Only then are the exits
  tested, so rounding in the copies can cost iterations but never
  correctness.

Parameter choices, documented here because they are ours:

* gamma = sqrt(4/3), the smallest value permitted by the convergence
  theory; row selection maximizes gamma**i * |H_ii| via an exact
  cross-multiplied integer comparison, ties going to the lowest row.
* nearest-integer reductions round halves up.
* a candidate relation (the column of B under the smallest |y|) is
  accepted only after an exact confirmation against the unnormalized
  inputs.  The residual must be below n * height input ulps with 40
  bits of slack, and never above 2**(-P/2).  It must also lie 32 bits
  below the pigeonhole floor h**-(n-1) for the vector's own height h:
  n reals admit a coincidental vector that close, and the first check
  alone admits such vectors when P is short for n.
* absence is reported when 1/max|H_jj| exceeds 10**max_digits, the
  standard norm bound: every relation, known or not, has Euclidean
  norm at least 1/max|H_jj|.  It holds for H = A*H_0*Q with any
  unimodular A and orthogonal Q, so it is read from the full-precision
  H at a refresh and never from a copy.  ``bound_digits`` on the
  result records the bound reached.

The precision rule (``required_bits``) asks for P >= 16*max_digits and
P >= n*max_digits*log2(10) + 64, which keeps a search from reaching
the heights where coincidences live (Ferguson, Bailey & Arno,
"Analysis of PSLQ", Math. Comp. 68, 1999).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain

from .errors import DomainError, PrecisionError
from .ladders import CheckReport
from .mp.real import MpReal

__all__ = ["RelationQuery", "RelationResult", "pslq", "required_bits",
           "verify_vector"]


# ----------------------------------------------------------------------
# query / result types

@dataclass(frozen=True)
class RelationQuery:
    """A request to find an integer relation among some real values.

    ``max_digits`` bounds the decimal size of acceptable coefficients.
    The values' common precision P must be at least
    ``required_bits(len(values), max_digits)``, or neither a find nor an
    exclusion would be trustworthy.  ``max_iterations`` caps the
    iterations made (the default grows with the size of the search).
    """

    values: tuple[MpReal, ...]
    max_digits: int = 30
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 2:
            raise DomainError("a relation needs at least two values")
        if self.max_digits < 1:
            raise DomainError("max_digits must be positive")

    @property
    def prec(self) -> int:
        return min(v.prec for v in self.values)


@dataclass(frozen=True)
class RelationResult:
    """Outcome of a relation search.

    ``status`` is one of "found", "none_within_bound" or
    "inconclusive".  ``vector`` is the primitive relation (gcd one,
    first nonzero entry positive) when found, else None, and
    ``log2_residual`` measures |sum v_i x_i| for the found vector.
    ``bound_digits`` is the exclusion bound reached: no relation has
    Euclidean norm below 10**bound_digits.  It is not part of
    ``as_dict``.
    """

    status: str
    vector: tuple[int, ...] | None
    log2_residual: float | None
    iterations: int
    bound_digits: int = 0

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "vector": None if self.vector is None else list(self.vector),
            "log2_residual": self.log2_residual,
        }


# ----------------------------------------------------------------------
# integer helpers

def _round_div(a: int, b: int) -> int:
    """Nearest integer to a/b, halves away from zero."""
    if b == 0:
        return 0
    if b < 0:
        a, b = -a, -b
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


def _canonical(vec: list[int]) -> tuple[int, ...]:
    """Divide out the gcd and make the first nonzero entry positive."""
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    if g > 1:
        vec = [v // g for v in vec]
    for v in vec:
        if v > 0:
            break
        if v < 0:
            vec = [-w for w in vec]
            break
    return tuple(vec)


def _dot_mag(vec, x: list[int], prec: int) -> tuple[int, float]:
    """Exact scaled residual sum(v*x) and its log2 magnitude in value."""
    r = 0
    for v, xi in zip(vec, x):
        r += int(v) * xi
    if r == 0:
        return 0, float("-inf")
    return r, float(abs(r).bit_length() - prec)


# ----------------------------------------------------------------------
# the iteration

# bits the smallest entry of a low-level copy of y or H keeps.  A level
# ends once a transform entry passes a third of them, or the smallest
# |y| or |H_jj| of a copy has lost half of them: with transform entries
# below 2**64 a copy's rounding grows to at most n * 2**63 units, far
# below the 2**96 at which a small |y| or |H_jj| ends a level
_LEVEL_BITS = 192
_TRANSFORM_BITS = _LEVEL_BITS // 3
# a confirmed vector counts as found only this many bits below the
# pigeonhole floor for its height
_PIGEONHOLE_MARGIN = 32


def required_bits(n: int, max_digits: int) -> int:
    """Precision a search over n values for max_digits-digit vectors needs.

    At least 16 bits per digit, and n*max_digits*log2(10) + 64: n values
    admit a coincidental vector of height 10**d with a residual near
    10**(-d(n-1)), and the search must see past it.
    """
    return max(16 * max_digits, (10 ** (n * max_digits)).bit_length() + 64)


def _shift(v: int, s: int) -> int:
    """Nearest integer to v / 2**s, s >= 0, halves rounded up."""
    return (v + (1 << s >> 1)) >> s


def _rotate(H: list[list[int]], i: int, j: int, k: int) -> None:
    """Zero H[i][j] by rotating columns i and j of rows i..n-1.

    The cosine and sine are rounded to k fractional bits, so k should
    exceed the bit length of the entries.
    """
    a, b = H[i][i], H[i][j]
    if b == 0:
        return
    norm2 = a * a + b * b
    d = math.isqrt(norm2)
    c = ((a << (k + 1)) + d) // (2 * d)
    s = ((b << (k + 1)) + d) // (2 * d)
    half = 1 << (k - 1)
    H[i][i], H[i][j] = _round_div(norm2, d), 0
    for row in H[i + 1:]:
        p, r = row[i], row[j]
        row[i] = (p * c + r * s + half) >> k
        row[j] = (r * c - p * s + half) >> k


def _width(H: list[list[int]]) -> int:
    """Bit length of the largest entry of H."""
    return max(map(abs, chain.from_iterable(H))).bit_length()


def _reduce(y, H, B, A, start: int, cap: int) -> None:
    """Hermite reduction of rows start..n-1 of H against columns <= cap.

    Each step subtracts t times row j of H from row i; y and the columns
    of B (stored as rows) follow with y_j += t*y_i, and the rows of A, if
    given, with A_i -= t*A_j, so that A stays the inverse of B.
    """
    n = len(y)
    for i in range(start, n):
        for j in range(min(i - 1, cap), -1, -1):
            hjj = H[j][j]
            if hjj == 0:
                continue
            t = (2 * H[i][j] + hjj) // (2 * hjj)
            if t == 0:
                continue
            y[j] += t * y[i]
            Hi, Hj = H[i], H[j]
            for k in range(j + 1):
                Hi[k] -= t * Hj[k]
            Bi, Bj = B[i], B[j]
            for k in range(n):
                Bj[k] += t * Bi[k]
            if A is not None:
                Ai, Aj = A[i], A[j]
                for k in range(n):
                    Ai[k] -= t * Aj[k]


def _level(y, H, weights, budget: int, stop: int):
    """Run PSLQ iterations on low-precision copies of y and H.

    The smallest entry of each copy keeps _LEVEL_BITS bits.  The level
    ends when it has made ``budget`` iterations, when a copy or a
    transform runs out of room (see _LEVEL_BITS), when the row choice
    degenerates, or when every |H_jj| of the copy has fallen below
    ``stop`` (full-precision scale), where the exclusion bound may hold.
    Returns (A, B, steps): the exact integer transforms of the level,
    A = B**-1 with A acting on the rows of H and B on y (B stored by
    columns), and the number of iterations made, at least one.
    """
    n = len(y)
    sy = max(0, min(map(abs, y)).bit_length() - _LEVEL_BITS)
    sh = max(0, min(abs(H[j][j]) for j in range(n - 1)).bit_length()
             - _LEVEL_BITS)
    yl = [_shift(v, sy) for v in y]
    Hl = [[_shift(v, sh) for v in row] for row in H]
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    floor = 1 << (_LEVEL_BITS // 2)
    cap = 1 << _TRANSFORM_BITS
    stop >>= sh
    k = _width(Hl) + _TRANSFORM_BITS + 8
    steps = 0
    while steps < budget:
        # row choice: largest gamma**i |H_ii|, gamma**2 = 4/3
        m, best, top = 0, 0, 0
        for i in range(n - 1):
            h = abs(Hl[i][i])
            sc = h * h * weights[i]
            if sc > best:
                m, best = i, sc
            if h > top:
                top = h
        if best == 0 or (steps and top < stop):
            break
        steps += 1
        yl[m], yl[m + 1] = yl[m + 1], yl[m]
        Hl[m], Hl[m + 1] = Hl[m + 1], Hl[m]
        A[m], A[m + 1] = A[m + 1], A[m]
        B[m], B[m + 1] = B[m + 1], B[m]
        if m < n - 2:
            _rotate(Hl, m, m + 1, k)
        _reduce(yl, Hl, B, A, m + 1, m + 1)
        # only rows m, m+1 changed their diagonal, only rows m+1.. of A
        # and columns ..m+1 of B their entries
        if (min(map(abs, yl)) < floor
                or abs(Hl[m][m]) < floor
                or (m < n - 2 and abs(Hl[m + 1][m + 1]) < floor)
                or max(map(abs, chain.from_iterable(A[m + 1:]))) > cap
                or max(map(abs, chain.from_iterable(B[:m + 2]))) > cap):
            break
    return A, B, steps


def _refresh(y, H, B, Al, Bl) -> None:
    """Apply a level's transforms to the full-precision state.

    y := y*Bl and B := B*Bl (both B's stored by columns), H := Al*H
    brought back to lower-trapezoidal form by Givens rotations, then a
    full Hermite reduction.
    """
    n = len(y)
    y[:] = [sum(map(operator.mul, y, col)) for col in Bl]
    B[:] = [[sum(c * old[r] for c, old in zip(col, B) if c)
             for r in range(n)] for col in Bl]
    H[:] = [[sum(a * H[k][c] for k, a in enumerate(row) if a)
             for c in range(n - 1)] for row in Al]
    k = _width(H) + 8
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            _rotate(H, i, j, k)
    _reduce(y, H, B, None, 1, n - 2)


def _pigeonhole(vec: tuple[int, ...], log2_residual: float) -> bool:
    """True when the residual is no smaller than chance allows.

    n reals admit a vector of height h with residual near h**-(n-1); a
    real relation must sit well below that floor.
    """
    floor = -(len(vec) - 1) * math.log2(max(abs(v) for v in vec))
    return log2_residual > floor - _PIGEONHOLE_MARGIN


def _bound_digits(hmax: int, prec: int) -> int:
    """floor(log10(2**prec / hmax)), and 0 when that is negative."""
    q = (1 << prec) // hmax if hmax else 0
    return len(str(q)) - 1 if q else 0


def pslq(q: RelationQuery) -> RelationResult:
    """Run the relation search described by ``q``.

    Deterministic: the same query always yields the same result.
    Raises PrecisionError when the inputs carry too few bits for the
    requested coefficient height (see ``required_bits``), DomainError on
    zero inputs.
    """
    prec = q.prec
    n = len(q.values)
    need = required_bits(n, q.max_digits)
    if prec < need:
        raise PrecisionError(
            f"{q.max_digits}-digit search over {n} values needs {need} "
            f"bits, values carry {prec}")
    x = [v.to_fixed(prec) for v in q.values]
    if any(xi == 0 for xi in x):
        raise DomainError("relation inputs must be nonzero")
    # inputs that agree to all P bits are not rejected: two constants
    # that round identically ARE a relation, and the trivial (1, -1)
    # that comes back is the honest answer
    height = 10 ** q.max_digits
    limit = q.max_iterations
    if limit is None:
        # generous: bound growth is ~0.1 bit per sweep of n rows
        limit = max(2000, 100 * n * q.max_digits)

    one = 1 << prec

    # partial norms s_k = |(x_k..x_n)| and the normalized vector y
    ss = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        ss[k] = ss[k + 1] + x[k] * x[k]
    s = [math.isqrt(ss[k]) for k in range(n)]       # scale 2**prec
    y = [_round_div(xi * one, s[0]) for xi in x]

    # lower-trapezoidal H (n rows, n-1 columns), scale 2**prec
    H = [[0] * (n - 1) for _ in range(n)]
    for j in range(n - 1):
        H[j][j] = _round_div(s[j + 1] * one, s[j])
        d = s[j] * s[j + 1]
        for i in range(j + 1, n):
            H[i][j] = _round_div(-x[i] * x[j] * one, d)

    B = [[int(i == j) for j in range(n)] for i in range(n)]   # columns
    _reduce(y, H, B, None, 1, n - 2)

    # |y| gate below which a column is worth confirming exactly, and
    # the accept bound: n * height ulps with 40 bits of slack, capped
    # so an accepted residual always sits below 2**(-prec/2)
    detect = 1 << (prec // 2)
    accept = 1 << min(height.bit_length() + 40 + n.bit_length(),
                      prec - prec // 2 - 1)
    weights = [4 ** i * 3 ** (n - 2 - i) for i in range(n - 1)]

    def result(status, vec=None, mag=None):
        return RelationResult(status, vec, mag, it, _bound_digits(hmax, prec))

    it = 0
    while True:
        # checks on the full-precision state, after each refresh
        hmax = max(abs(H[j][j]) for j in range(n - 1))
        # smallest |y_i| names the candidate column of B; the exact
        # residual decides, a failed confirmation just keeps iterating
        mi = min(range(n), key=lambda i: abs(y[i]))
        if abs(y[mi]) < detect:
            vec = _canonical(B[mi])
            r, mag = _dot_mag(vec, x, prec)
            if abs(r) < accept and not _pigeonhole(vec, mag):
                if max(abs(v) for v in vec) < height:
                    return result("found", vec, mag)
                # a genuine relation, but taller than asked for: the
                # exclusion bound can never clear it, so stop here
                return result("inconclusive")
        if hmax == 0 or it >= limit:
            return result("inconclusive")
        if hmax * height < one:
            # every relation has norm >= 2**prec / hmax > 10**max_digits
            return result("none_within_bound")
        Al, Bl, steps = _level(y, H, weights, limit - it, one // height)
        it += steps
        _refresh(y, H, B, Al, Bl)


# ----------------------------------------------------------------------
# confirmation

def verify_vector(vector, values, prec: int) -> CheckReport:
    """Check a claimed relation against values at a pass threshold.

    The residual |sum v_i x_i| is computed exactly from the values'
    own bits.  Values good to 2**-prec leave a true relation a residual
    up to max|v_i| times that, so the report passes iff the residual
    stays below 2**-(prec-64) * max|v_i| and, as for a `found` from
    `pslq`, well below the pigeonhole floor for the vector's height.
    A zero residual, as for the all-zero vector, passes.
    """
    vec = tuple(int(v) for v in vector)
    vals = list(values)
    if len(vec) != len(vals):
        raise DomainError(
            f"vector has {len(vec)} entries, values {len(vals)}")
    if not vals:
        return CheckReport("vector", prec, float("-inf"), True)
    wp = max(v.prec for v in vals) + 64
    x = [v.to_fixed(wp) for v in vals]
    r, mag = _dot_mag(vec, x, wp)
    if r == 0:
        return CheckReport("vector", prec, mag, True)
    height = math.log2(max(abs(v) for v in vec))
    passed = mag <= height - (prec - 64) and not _pigeonhole(vec, mag)
    return CheckReport("vector", prec, mag, passed)

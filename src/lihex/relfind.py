"""Integer-relation detection for the catalog constants.

Given real numbers x_1..x_n, the PSLQ iteration either produces an
integer vector v with v.x = 0 to working accuracy, or certifies that
no relation exists with Euclidean norm below an exclusion bound that
grows as the iteration proceeds.  We run the classic algorithm
entirely in fixed-point integer arithmetic: the inputs are scaled by
2**P, the H matrix is kept at the same scale, and the update matrices
A and B stay exactly integral.  Every step is a bigint operation, so
a query is reproducible bit for bit across runs and platforms.

Parameter choices, documented here because they are ours:

* gamma = sqrt(4/3), the smallest value permitted by the convergence
  theory; row selection maximizes gamma**i * |H_ii| via an exact
  cross-multiplied integer comparison, ties going to the lowest row.
* nearest-integer reductions round half away from zero.
* a candidate relation is accepted only after an exact confirmation
  against the unnormalized inputs, and the acceptance threshold is
  height-aware: a true relation of height 10**d leaves a residual of
  at most about n * 10**d input ulps, whereas the best height-10**d
  fake that n independent reals admit sits near the pigeonhole floor
  10**(-d(n-1)), which for many values is far above the ulp scale.
  Cutting between the two (with 40 bits of slack over the ulp
  estimate, and never above 2**(-P/2)) keeps long exclusion runs
  from misreading a merely-small combination as a relation.
* absence is reported when 1/max|H_jj| exceeds 10**max_digits, the
  standard norm bound: every relation, known or not, has Euclidean
  norm at least 1/max|H_jj|.

The precision rule P >= 16*max_digits keeps the accept threshold at
least a comfortable margin above the ulp floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionError
from .ladders import CheckReport
from .mp.real import MpReal

__all__ = ["RelationQuery", "RelationResult", "pslq", "verify_vector"]


# ----------------------------------------------------------------------
# query / result types

@dataclass(frozen=True)
class RelationQuery:
    """A request to find an integer relation among some real values.

    ``max_digits`` bounds the decimal size of acceptable coefficients;
    the values' common precision P must be at least 16 times it, or
    neither a find nor an exclusion would be trustworthy.
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
    """

    status: str
    vector: tuple[int, ...] | None
    log2_residual: float | None
    iterations: int

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

def pslq(q: RelationQuery) -> RelationResult:
    """Run the relation search described by ``q``.

    Deterministic: the same query always yields the same result.
    Raises PrecisionError when the inputs carry too few bits for the
    requested coefficient height, DomainError on zero or duplicated
    inputs.
    """
    prec = q.prec
    if prec < 16 * q.max_digits:
        raise PrecisionError(
            f"{q.max_digits}-digit search needs {16 * q.max_digits} bits, "
            f"values carry {prec}")
    n = len(q.values)
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

    B = [[int(i == j) for j in range(n)] for i in range(n)]

    def reduce_rows(start: int, cap: int) -> None:
        # Hermite reduction of rows start..n-1 against columns <= cap
        for i in range(start, n):
            for j in range(min(i - 1, cap), -1, -1):
                t = _round_div(H[i][j], H[j][j])
                if t == 0:
                    continue
                y[j] += t * y[i]
                Hi, Hj = H[i], H[j]
                for k in range(j + 1):
                    Hi[k] -= t * Hj[k]
                for row in B:
                    row[j] += t * row[i]

    reduce_rows(1, n - 2)

    # |y| gate below which a column is worth confirming exactly, and
    # the accept bound: n * height ulps with 40 bits of slack, capped
    # so an accepted residual always sits below 2**(-prec/2)
    detect = 1 << (prec // 2)
    accept = 1 << min(height.bit_length() + 40 + n.bit_length(),
                      prec - prec // 2 - 1)

    for it in range(1, limit + 1):
        # row choice: largest gamma**i |H_ii|, gamma**2 = 4/3
        m, best = 0, -1
        for i in range(n - 1):
            sc = H[i][i] * H[i][i] * (4 ** i) * (3 ** (n - 2 - i))
            if sc > best:
                m, best = i, sc
        if best == 0:
            return RelationResult("inconclusive", None, None, it)

        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        for row in B:
            row[m], row[m + 1] = row[m + 1], row[m]

        if m < n - 2:
            # rotate columns m, m+1 to restore the trapezoid
            a, b = H[m][m], H[m][m + 1]
            d = math.isqrt(a * a + b * b)
            for i in range(m, n):
                p, r = H[i][m], H[i][m + 1]
                H[i][m] = _round_div(p * a + r * b, d)
                H[i][m + 1] = _round_div(r * a - p * b, d)

        reduce_rows(m + 1, m + 1)

        # smallest |y_i| names the candidate column of B; the exact
        # residual decides, a failed confirmation just keeps iterating
        mi = min(range(n), key=lambda i: abs(y[i]))
        if abs(y[mi]) < detect:
            vec = _canonical([B[k][mi] for k in range(n)])
            r, mag = _dot_mag(vec, x, prec)
            if abs(r) < accept:
                if max(abs(v) for v in vec) < height:
                    return RelationResult("found", vec, mag, it)
                # a genuine relation, but taller than asked for: the
                # exclusion bound can never clear it, so stop here
                return RelationResult("inconclusive", None, None, it)

        hmax = max(abs(H[j][j]) for j in range(n - 1))
        if hmax * height < one:
            # every relation has norm >= 2**prec / hmax > 10**max_digits
            return RelationResult("none_within_bound", None, None, it)

    return RelationResult("inconclusive", None, None, limit)


# ----------------------------------------------------------------------
# confirmation

def verify_vector(vector, values, prec: int) -> CheckReport:
    """Check a claimed relation against values at a pass threshold.

    The residual |sum v_i x_i| is computed exactly from the values'
    own bits; the report passes iff it stays below 2**-(prec-64).
    The all-zero vector passes trivially.
    """
    vec = [int(v) for v in vector]
    vals = list(values)
    if len(vec) != len(vals):
        raise DomainError(
            f"vector has {len(vec)} entries, values {len(vals)}")
    if not vals:
        return CheckReport("vector", prec, float("-inf"), True)
    wp = max(v.prec for v in vals) + 64
    x = [v.to_fixed(wp) for v in vals]
    r, mag = _dot_mag(vec, x, wp)
    return CheckReport("vector", prec, mag, r == 0 or mag <= -(prec - 64))

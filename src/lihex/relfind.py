"""Integer-relation detection for the catalog constants.

Given real numbers x_1..x_n, the PSLQ iteration either produces an
integer vector v with v.x = 0 to working accuracy, or certifies that
no relation exists with Euclidean norm below an exclusion bound that
grows as the iteration proceeds.  Everything runs in fixed-point
integer arithmetic, and the transforms stay exactly integral, so a
query is reproducible bit for bit across runs and platforms.

Every input is read as an integer at one scale, set by the largest.
With t and b the largest and smallest ``bit_top()`` of the inputs and
P their common precision:

* the search runs on x_i = round(v_i * 2**(W-t)), with y, H and every
  exit test at scale 2**W, where W = min(P, required_bits(n, d) + 64 +
  (t - b)): the smallest input keeps at least required_bits + 64 bits
  of its own.  W = P whenever a query needs all its bits, as with the
  CLI's default max_digits for up to 19 values.
* a candidate is confirmed exactly against all P bits at the same
  scale, round(v_i * 2**(P-t)), and its accept and pigeonhole tests
  read the residual relative to the largest input.

The cut is sound: the search is the one the library already runs, and
certifies, for the same values rounded to W bits, which meet the
precision rule, and a ``found`` is still checked against every input
bit.  The common scale is not optional.  Read at a fixed scale 2**-P,
values far below 1 lose their low bits until the detect gate never
opens, and the residual of values far above 1 fails an absolute accept
bound; either way a true relation was reported ``none_within_bound``.

The iteration has two levels (Bailey & Broadhurst, "Parallel integer
relation detection", Math. Comp. 70, 2001):

* a level copies y and H, rounded to about 192 bits below their
  smallest entry, and runs the usual steps on the copies: row choice,
  swap, Givens rotation and Hermite reduction.  It builds the exact
  small-integer transforms A and B = A**-1 as it goes, each row of A
  and each column of B packed into one int of n signed 192-bit slots
  (three times the 64-bit cap), so a reduction step B_j += t*B_i,
  A_i -= t*A_j is two big-integer multiply-adds; the rows are unpacked
  once, when the level ends.  It ends when a transform entry reaches
  2**64 (leaves [-2**64, 2**64), a test of two big-integer operations
  on each row the iteration changed), when the smallest |y| or |H_jj|
  of a copy has lost 96 bits (a tiny |y| is a relation candidate), when
  the copy's max |H_jj| says the exclusion bound may hold, or when the
  row choice degenerates.
* a level also stops in the middle of an iteration, before a step
  whose quotient could spill a slot.  Every entry starts the iteration
  within the cap, and a step with quotient t multiplies the largest by
  at most 1 + |t| <= 2**bitlen(t), so the level stops before the sum of
  bitlen(t) over the iteration passes 192 - 67 = 125 bits, which keeps
  every entry below 2**189, where the cap test and unpacking are exact.
  The stop is sound: each step keeps A = B**-1 exactly, whatever state
  the copies are left in, and the refresh re-triangularizes and fully
  reduces at W bits.  It is rare: it fired once over the 2,310 queries
  of the benchmark's relations lists for seeds 1 to 5.
* a refresh applies the level at W bits: y := y*B, B_total :=
  B_total*B, H := A*H brought back to lower-trapezoidal form by Givens
  rotations, then a full Hermite reduction.  Only then are the exits
  tested, so rounding in the copies can cost iterations but never
  correctness.

Parameter choices, documented here because they are ours:

* gamma = 4.  Ferguson, Bailey & Arno's PSLQ(tau) takes gamma =
  1/sqrt(1/tau**2 - 1/4) with 1 < tau <= 2, and bounds the iterations
  by a multiple of 1/log(tau); gamma = 4 gives tau = 4/sqrt(5).  Row
  selection maximizes 4**i * |H_ii|, an exact integer comparison, ties
  going to the lowest row.  Over the 462 queries of the benchmark's
  seed-1 relations list it took 112,845 iterations against 128,754 for
  gamma = 2 and 202,710 for the limit gamma = sqrt(4/3) (tau = 1, where
  the bound says nothing); 3,295 against 3,662 and 7,474 for the
  14-term f11 relation at 2048 bits, and 3,811 against 4,443 and 8,960
  for the 13-value exclusion beside it, with the same answers.
* nearest-integer reductions round halves up.
* a candidate relation (the column of B under the smallest |y|) is
  accepted only after an exact confirmation against the P-bit inputs.
  The residual must be below n * height ulps of the largest input with
  40 bits of slack, and never above 2**(-P/2) relative to it.  It must
  also lie 32 bits below the pigeonhole floor h**-(n-1) for the
  vector's own height h: n reals admit a coincidental vector that
  close, and the first check alone admits such vectors when P is short
  for n.
* absence is reported when 1/max|H_jj| exceeds 10**max_digits *
  (isqrt(n-1) + 1), from the standard norm bound: every relation,
  known or not, has Euclidean norm at least 1/max|H_jj|.  A vector
  whose n entries all lie below 10**max_digits has a norm below
  sqrt(n) * 10**max_digits, and isqrt(n-1) + 1 >= sqrt(n), so such an
  exclusion covers every such vector.  The bound holds for H =
  A*H_0*Q with any unimodular A and orthogonal Q, so it is read from
  the W-bit H at a refresh and never from a copy.
  ``bound_digits`` on the result records the norm bound reached.

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

from .errors import DomainError, PrecisionError, _require_int
from .ladders import CheckReport
from .mp.real import MpReal

__all__ = ["RelationQuery", "RelationResult", "pslq", "required_bits",
           "verify_vector"]


# ----------------------------------------------------------------------
# query / result types

@dataclass(frozen=True)
class RelationQuery:
    """A request to find an integer relation among some real values.

    ``max_digits``, an int, bounds the decimal size of acceptable
    coefficients.  The values' common precision P must be at least
    ``required_bits(len(values), max_digits)``, or neither a find nor an
    exclusion would be trustworthy.  The search itself runs at W =
    required_bits + 64 + (t - b) bits when that is less than P, t and b
    the largest and smallest ``bit_top()`` of the values; bits beyond W
    only confirm a candidate, and they make its ``log2_residual`` and
    pigeonhole test sharper, never the search longer.  A value that is
    zero at P bits relative to the largest raises DomainError from
    ``pslq``.  ``max_iterations``, when given, must be a positive int
    and caps the iterations made (the default grows with the size of
    the search).
    """

    values: tuple[MpReal, ...]
    max_digits: int = 30
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 2:
            raise DomainError("a relation needs at least two values")
        _require_int("max_digits", self.max_digits)
        if self.max_digits < 1:
            raise DomainError("max_digits must be positive")
        if self.max_iterations is not None:
            _require_int("max_iterations", self.max_iterations)
            if self.max_iterations < 1:
                raise DomainError("max_iterations must be positive")

    @property
    def prec(self) -> int:
        return min(v.prec for v in self.values)


@dataclass(frozen=True)
class RelationResult:
    """Outcome of a relation search.

    ``status`` is one of "found", "none_within_bound" or
    "inconclusive".  ``vector`` is the primitive relation (gcd one,
    first nonzero entry positive) when found, else None, and
    ``log2_residual`` measures |sum v_i x_i| for the found vector from
    all P bits of the values, in the values' own units.
    ``bound_digits`` is the norm bound reached: no relation has
    Euclidean norm below 10**bound_digits.  A "none_within_bound"
    says more: no relation has every entry below 10**max_digits in
    absolute value, which needs the norm bound to pass sqrt(n) *
    10**max_digits.  ``bound_digits`` is not part of ``as_dict``.
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
    """Nearest integer to a/b for b > 0, halves away from zero."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


def _canonical(vec: list[int]) -> tuple[int, ...]:
    """Divide out the gcd and make the first nonzero entry positive."""
    g = math.gcd(*vec)
    if g > 1:
        vec = [v // g for v in vec]
    for v in vec:
        if v > 0:
            break
        if v < 0:
            vec = [-w for w in vec]
            break
    return tuple(vec)


def _top(values) -> int:
    """bit_top() of the largest nonzero value: the inputs' common scale."""
    return max((v.bit_top() for v in values if not v.is_zero), default=0)


def _dot_mag(vec, x: list[int], prec: int) -> tuple[int, float]:
    """Exact residual sum(v*x) and its log2 magnitude at scale 2**prec."""
    r = 0
    for v, xi in zip(vec, x):
        r += int(v) * xi
    if r == 0:
        return 0, float("-inf")
    return r, float(abs(r).bit_length() - prec)


# ----------------------------------------------------------------------
# the iteration

# bits the smallest entry of a low-level copy of y or H keeps.  A level
# ends once a transform entry reaches 2**64, a third of them, or once
# the smallest |y| or |H_jj| of a copy has lost half of them: with
# transform entries below 2**64 a copy's rounding grows to at most
# n * 2**63 units, far below the 2**96 at which a small |y| or |H_jj|
# ends a level
_LEVEL_BITS = 192
_TRANSFORM_BITS = _LEVEL_BITS // 3
# a packed transform row holds one entry in each slot of _SLOT bits.  An
# iteration starts with every entry within 2**_TRANSFORM_BITS, and the
# level stops before the iteration's quotients could grow the largest
# by more than _GROWTH bits, to 2**(_SLOT-3): inside the range where the
# cap test and unpacking are exact (see _cap_masks and _unpack)
_SLOT = 3 * _TRANSFORM_BITS
_GROWTH = _SLOT - _TRANSFORM_BITS - 3
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


def _reduce(y, H, B) -> None:
    """Hermite reduction of rows 1..n-1 of H.

    Each step subtracts t times row j of H from row i; y and the columns
    of B (stored as rows) follow with y_j += t*y_i and B_j += t*B_i.
    """
    n = len(y)
    for i in range(1, n):
        for j in range(i - 1, -1, -1):
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


def _ones(n: int) -> int:
    """A packed row with a one in each of its n slots."""
    return ((1 << _SLOT * n) - 1) // ((1 << _SLOT) - 1)


def _cap_masks(n: int) -> tuple[int, int, int]:
    """(bias, mask, want) for the cap test of a packed row of n slots.

    Every slot of X lies in [-2**_TRANSFORM_BITS, 2**_TRANSFORM_BITS)
    iff (X + bias) & mask == want, for X whose slots all lie within
    +-(2**(_SLOT-2) - 2**_TRANSFORM_BITS): bias lifts each slot by
    2**(_SLOT-2) + 2**_TRANSFORM_BITS into [0, 2**_SLOT), so no slot
    borrows from the next, and a slot within the cap lands in
    [2**(_SLOT-2), 2**(_SLOT-2) + 2**(_TRANSFORM_BITS+1)), which is where
    its bits above _TRANSFORM_BITS read exactly 2**(_SLOT-2).
    """
    ones, cap = _ones(n), 1 << _TRANSFORM_BITS
    return (ones * ((1 << _SLOT - 2) + cap),
            ones * (((1 << _SLOT) - 1) ^ (2 * cap - 1)),
            ones << _SLOT - 2)


def _unpack(rows: list[int], n: int) -> list[list[int]]:
    """The n signed slots of each packed row, lowest slot first.

    Exact while every slot lies in [-2**(_SLOT-1), 2**(_SLOT-1)).
    """
    half, low = 1 << _SLOT - 1, (1 << _SLOT) - 1
    lift = _ones(n) * half
    return [[((X + lift) >> _SLOT * q & low) - half for q in range(n)]
            for X in rows]


def _level(y, H, budget: int, stop: int):
    """Run PSLQ iterations on low-precision copies of y and H.

    The smallest entry of each copy keeps _LEVEL_BITS bits.  The level
    ends when it has made ``budget`` iterations, when a copy or a
    transform runs out of room (see _LEVEL_BITS and _GROWTH), when the
    row choice degenerates, or when every |H_jj| of the copy has fallen
    below ``stop`` (W-bit scale), where the exclusion bound may hold.
    Returns (A, B, steps): the exact integer transforms of the level,
    A = B**-1 with A acting on the rows of H and B on y (B stored by
    columns), and the number of iterations made, at least one.  Inside
    the level each row of A and column of B is one int with entry q in
    slot q of n slots of _SLOT bits.
    """
    n = len(y)
    sy = max(0, min(map(abs, y)).bit_length() - _LEVEL_BITS)
    sh = max(0, min(abs(H[j][j]) for j in range(n - 1)).bit_length()
             - _LEVEL_BITS)
    yl = [_shift(v, sy) for v in y]
    Hl = [[_shift(v, sh) for v in row] for row in H]
    A = [1 << _SLOT * i for i in range(n)]
    B = A[:]
    bias, mask, want = _cap_masks(n)
    floor = 1 << (_LEVEL_BITS // 2)
    stop >>= sh
    k = _width(Hl) + _TRANSFORM_BITS + 8
    steps = 0
    while steps < budget:
        # row choice: largest 4**i |H_ii|, exact, ties to the lowest row
        m, best, top = 0, 0, 0
        for i in range(n - 1):
            h = abs(Hl[i][i])
            sc = h << 2 * i
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
        # Hermite reduction of rows m+1.. against columns <= m+1; a step
        # with quotient t multiplies the largest transform entry by at
        # most 1 + |t| <= 2**bitlen(t), and the level stops before the
        # iteration's growth could pass _GROWTH bits
        grown = 0
        for i in range(m + 1, n):
            Hi = Hl[i]
            for j in range(min(i - 1, m + 1), -1, -1):
                hjj = Hl[j][j]
                if hjj == 0:
                    continue
                t = (2 * Hi[j] + hjj) // (2 * hjj)
                if t == 0:
                    continue
                grown += t.bit_length()
                if grown > _GROWTH:
                    return _unpack(A, n), _unpack(B, n), steps
                yl[j] += t * yl[i]
                Hj = Hl[j]
                for q in range(j + 1):
                    Hi[q] -= t * Hj[q]
                B[j] += t * B[i]
                A[i] -= t * A[j]
        # only rows m, m+1 changed their diagonal, only rows m+1.. of A
        # and columns ..m+1 of B their entries
        if (min(map(abs, yl)) < floor
                or abs(Hl[m][m]) < floor
                or (m < n - 2 and abs(Hl[m + 1][m + 1]) < floor)
                or any((X + bias) & mask != want for X in A[m + 1:])
                or any((X + bias) & mask != want for X in B[:m + 2])):
            break
    return _unpack(A, n), _unpack(B, n), steps


def _refresh(y, H, B, Al, Bl) -> None:
    """Apply a level's transforms to the W-bit state.

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
    _reduce(y, H, B)


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
    an input that is zero at P bits relative to the largest one.
    """
    prec = q.prec
    n = len(q.values)
    need = required_bits(n, q.max_digits)
    if prec < need:
        raise PrecisionError(
            f"{q.max_digits}-digit search over {n} values needs {need} "
            f"bits, values carry {prec}")
    # every input as an integer at one scale, set by the largest: all P
    # bits for the confirmation, wp for the search, which leaves the
    # smallest input need + 64 bits of its own
    top = _top(q.values)
    xp = [v.to_fixed(prec - top) for v in q.values]
    if 0 in xp:
        raise DomainError(f"relation inputs must be nonzero at {prec} "
                          f"bits relative to the largest")
    wp = min(prec, need + 64 + top - min(v.bit_top() for v in q.values))
    x = [v.to_fixed(wp - top) for v in q.values]
    # inputs that agree to all P bits are not rejected: two constants
    # that round identically ARE a relation, and the trivial (1, -1)
    # that comes back is the honest answer
    height = 10 ** q.max_digits
    # entries below 10**d allow a Euclidean norm up to sqrt(n) 10**d,
    # and isqrt(n-1) + 1 >= sqrt(n): an exclusion must reach this norm
    reach = height * (math.isqrt(n - 1) + 1)
    limit = q.max_iterations
    if limit is None:
        # generous: bound growth is ~0.1 bit per sweep of n rows
        limit = max(2000, 100 * n * q.max_digits)

    one = 1 << wp

    # partial norms s_k = |(x_k..x_n)| and the normalized vector y
    ss = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        ss[k] = ss[k + 1] + x[k] * x[k]
    s = [math.isqrt(ss[k]) for k in range(n)]       # scale 2**wp
    y = [_round_div(xi * one, s[0]) for xi in x]

    # lower-trapezoidal H (n rows, n-1 columns), scale 2**wp
    H = [[0] * (n - 1) for _ in range(n)]
    for j in range(n - 1):
        H[j][j] = _round_div(s[j + 1] * one, s[j])
        d = s[j] * s[j + 1]
        for i in range(j + 1, n):
            H[i][j] = _round_div(-x[i] * x[j] * one, d)

    B = [[int(i == j) for j in range(n)] for i in range(n)]   # columns
    _reduce(y, H, B)

    # |y| gate below which a column is worth confirming exactly, and
    # the accept bound on the P-bit residual: n * height ulps with 40
    # bits of slack, capped so an accepted residual always sits below
    # 2**(-prec/2) relative to the largest input
    detect = 1 << (wp // 2)
    accept = 1 << min(height.bit_length() + 40 + n.bit_length(),
                      prec - prec // 2 - 1)

    def result(status, vec=None, mag=None):
        return RelationResult(status, vec, mag, it, _bound_digits(hmax, wp))

    it = 0
    while True:
        # checks on the W-bit state, after each refresh
        hmax = max(abs(H[j][j]) for j in range(n - 1))
        # smallest |y_i| names the candidate column of B; the exact
        # residual decides, a failed confirmation just keeps iterating
        mi = min(range(n), key=lambda i: abs(y[i]))
        if abs(y[mi]) < detect:
            vec = _canonical(B[mi])
            r, mag = _dot_mag(vec, xp, prec)
            if abs(r) < accept and not _pigeonhole(vec, mag):
                if max(abs(v) for v in vec) < height:
                    return result("found", vec, mag + top)
                # a genuine relation, but taller than asked for: the
                # exclusion bound can never clear it, so stop here
                return result("inconclusive")
        if hmax == 0 or it >= limit:
            return result("inconclusive")
        if hmax * reach < one:
            # every relation has norm >= 2**wp / hmax > reach, so no
            # relation has all its entries below 10**max_digits
            return result("none_within_bound")
        Al, Bl, steps = _level(y, H, limit - it, one // reach)
        it += steps
        _refresh(y, H, B, Al, Bl)


# ----------------------------------------------------------------------
# confirmation

def verify_vector(vector, values, prec: int) -> CheckReport:
    """Check a claimed relation against values at a pass threshold.

    The residual |sum v_i x_i| is computed exactly from the values'
    own bits, at the scale of the largest value, as in `pslq`.  Values
    good to 2**-prec relative to the largest leave a true relation a
    relative residual up to max|v_i| times that, so the report passes
    iff that residual stays below 2**-(prec-64) * max|v_i| and, as for
    a `found` from `pslq`, well below the pigeonhole floor for the
    vector's height.  ``log2_residual`` is in the values' own units.  A
    zero residual, as for the all-zero vector, passes.  Each entry of
    the vector must be an int; DomainError otherwise.
    """
    vec = tuple(vector)
    for v in vec:
        _require_int("a vector entry", v)
    vals = list(values)
    if len(vec) != len(vals):
        raise DomainError(
            f"vector has {len(vec)} entries, values {len(vals)}")
    if not vals:
        return CheckReport("vector", prec, float("-inf"), True)
    wp = max(v.prec for v in vals) + 64
    top = _top(vals)
    x = [v.to_fixed(wp - top) for v in vals]
    r, mag = _dot_mag(vec, x, wp)
    if r == 0:
        return CheckReport("vector", prec, mag, True)
    height = math.log2(max(abs(v) for v in vec))
    passed = mag <= height - (prec - 64) and not _pigeonhole(vec, mag)
    return CheckReport("vector", prec, mag + top, passed)

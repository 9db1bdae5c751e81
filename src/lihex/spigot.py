"""Arbitrary-position hexadecimal digit extraction.

Digits of a catalog constant starting at fractional position d are read
off frac(16^(d-1) * value) without ever forming the full expansion.
Every catalog formula is a sum of S_{n,p} with one order n, and term k
of S_{n,p} is 2^-floor(p/2) * p^n times term K = p*k of S_{n,1}, since
floor(p(k+1)/2) = floor((K+1)/2) + floor(p/2).  So a formula is summed
as one S_{n,1} series over K, its numerators periodic in K mod
P = 8*lcm(p) over one odd denominator V.  Terms whose net power of two
is nonnegative are folded in groups: the fractions A 2^e / odd(K)^n of
consecutive terms of one residue class of K mod P and one 2-adic
valuation of K are summed exactly over V times the product of their
moduli, so one modular exponentiation and one floor serve the whole
group.  The small remainder of the series is added in fixed point.
Peak memory is therefore independent of d.  The guard bits below the
window are sized from the number of summed terms, and a window is
returned only when that error bound proves every digit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import DomainError, GuardExhausted, _require_int
from .series import Formula, _formula, eval_formula

__all__ = ["DigitRequest", "DigitRun", "hex_digits", "self_check",
           "MAX_MODULUS_BITS"]

MAX_MODULUS_BITS = 192
_BLOCK = 1 << 16
# a window at position d sums K up to about 8d, so a request sums at most
# about 2^30 terms: over an hour on one core at 4 us per term, the cost
# measured for zeta5 at position 10^6 on a shared x86-64 host (a term
# costs more as the position, and so the modulus, grows)
_MAX_POSITION = 1 << 27
# a fixed bound, so that whether a request is valid never depends on the
# machine; a pool never gets more workers than the request has jobs
_MAX_THREADS = 256
# a group of terms is folded once the product of its moduli reaches this
# many bits; on the catalog 400 ran faster than 200 (more groups, each
# with its own pow and floor) and than 800 or 1600 (pow over a longer
# modulus costs more than the terms it serves save).  Re-swept with the
# stepped class loop: 320 and 400 tied, and 200, 512 and 800 were 5%, 7%
# and 20% slower
_FOLD_BITS = 400


@dataclass(frozen=True)
class DigitRequest:
    formula: str
    position: int
    count: int = 16
    threads: int = 1

    def __post_init__(self) -> None:
        for field in ("position", "count", "threads"):
            _require_int(field, getattr(self, field))
        if self.position < 1:
            raise DomainError("position is 1-based")
        if not 1 <= self.count <= 64:
            raise DomainError("count must be in 1..64")
        if self.position + self.count > _MAX_POSITION:
            raise DomainError("position beyond the supported range")
        if not 1 <= self.threads <= _MAX_THREADS:
            raise DomainError(f"threads must be in 1..{_MAX_THREADS}")


@dataclass(frozen=True)
class DigitRun:
    digits: str
    position: int
    guard_ok: bool
    retries: int
    terms: int
    guard_bits: int


class _Table(NamedTuple):
    """A formula as one series: term K >= 1 is
    nums[K mod P] * 2^shift / (v * K^n * 2^floor((K+1)/2)), P = len(nums).

    v is odd, and counts[i] is the number of nonzero nums[:i].
    """

    n: int
    nums: tuple[int, ...]
    v: int
    shift: int
    counts: tuple[int, ...]


@functools.cache
def _table(f: Formula) -> _Table:
    """Merge the formula's S_{n,p} into one S_{n,1} over K = p*k.

    K = r (mod P) takes a term of S_{n,p} exactly when p | r, with
    k = K/p = r/p (mod 8), since 8 divides P/p.  Every catalog formula
    has one order n (unpacking fails otherwise).
    """
    (n,) = {spec.n for _, spec in f.terms}
    period = 8 * lcm(*(spec.p for _, spec in f.terms))
    nums = [Fraction(0)] * period
    for coef, spec in f.terms:
        q = f.scale * coef * spec.p ** n / 2 ** (spec.p // 2)
        for r in range(0, period, spec.p):
            nums[r] += q * spec.pattern[(r // spec.p - 1) & 7]
    den = lcm(*(a.denominator for a in nums))
    ints = [int(a * den) for a in nums]
    # powers of two of the common denominator and of the numerators'
    # content move into the shift
    tz = min(((a & -a).bit_length() - 1 for a in ints if a), default=0)
    td = (den & -den).bit_length() - 1
    counts = itertools.accumulate((a != 0 for a in ints), initial=0)
    return _Table(n, tuple(a >> tz for a in ints), den >> td, tz - td,
                  tuple(counts))


def _terms(t: _Table, k0: int, k1: int) -> int:
    """How many K in [k0, k1) have a nonzero numerator."""
    period = len(t.nums)

    def below(x: int) -> int:
        q, r = divmod(x, period)
        return q * t.counts[-1] + t.counts[r]
    return below(k1) - below(k0)


def _sum_block(t: _Table, shift: int, acc_bits: int, k0: int,
               k1: int) -> int:
    """Signed fixed-point contribution of terms k0 <= K < k1.

    Term K is a * 2^ee / (v*m) with m = odd(K)^n.  Terms are folded per
    residue class r of K mod P and 2-adic valuation of K (so a and the
    valuation are fixed), each walked from its largest K down: terms
    with ee >= 0 are collected until the product M of their m reaches
    _FOLD_BITS less the bits of v; with e0 the least ee of the group,
    C = sum 2^(ee - e0) * M/m, and the group is the one fraction
    a * 2^e0 * C / (v*M), exact mod 1 for any moduli, floored once.
    """
    period = len(t.nums)
    acc = 0
    for r, a in enumerate(t.nums):
        top = k1 - 1 - (k1 - 1 - r) % period
        if a and top >= k0:
            acc += _class_sum(t, a, shift, acc_bits, k0, top, period)
    return acc


def _tail_term(a: int, vm: int, sh: int) -> int:
    """A term a / vm of the series' tail at sh fractional bits, floored;
    0 once it lies below 2^-8 of an ulp."""
    if sh >= 0:
        return (a << sh) // vm
    if -sh < a.bit_length() + 8:
        return a // (vm << -sh)
    return 0


def _floor_group(a: int, C: int, vM: int, e0: int, acc_bits: int) -> int:
    """A folded group a * 2^e0 * C / vM mod 1 at acc_bits bits, floored."""
    return (pow(2, e0, vM) * (a * C) % vM << acc_bits) // vM


def _class_sum(t: _Table, a: int, shift: int, acc_bits: int, k0: int,
               top: int, stride: int) -> int:
    """The terms K = top, top - stride, ... >= k0 of one class, numerator a.

    While v2(top) >= v2(stride) the class mixes valuations: its terms
    K = top - stride, top - 3*stride, ... are summed by a recursive call
    at stride 2*stride, and the stride doubles, so each valuation is
    summed as one class.  What is left has top's valuation v2, so down
    the class the odd part q = K >> v2 falls by stride >> v2 and
    ee = shift - floor((K+1)/2) - v2*n rises by h = stride/2: the
    leading terms with ee < 0 are the tail, and every later one joins a
    group at 2^s above the group's least ee, e0, with no rescale.
    """
    acc = 0
    while top & -top >= stride & -stride:
        if top - stride >= k0:
            acc += _class_sum(t, a, shift, acc_bits, k0, top - stride,
                              2 * stride)
        stride *= 2
    n, v = t.n, t.v
    # a group is full once M has _FOLD_BITS less the bits of v
    full = 1 << (_FOLD_BITS - v.bit_length() - 1)
    h = stride >> 1
    v2 = (top & -top).bit_length() - 1
    step = stride >> v2
    q = top >> v2
    ee = shift - ((top + 1) >> 1) - v2 * n
    # the class holds (top - k0)//stride + 1 terms, of which the first
    # ceil(-ee / h) have ee < 0
    terms = (top - k0) // stride + 1
    tail = min(terms, max(0, -(ee // h)))
    for _ in range(tail):
        acc += _tail_term(a, v * q ** n, acc_bits + ee)
        q -= step
        ee += h
    C, M, e0, s = 0, 1, ee, 0
    for q in range(q, q - (terms - tail) * step, -step):
        m = q ** n
        C = C * m + (M << s)
        M *= m
        s += h
        if M >= full:
            acc += _floor_group(a, C, M * v, e0, acc_bits)
            C, M, e0, s = 0, 1, e0 + s, 0
    if C:
        acc += _floor_group(a, C, M * v, e0, acc_bits)
    return acc


class _Jobs(Sequence):
    """A series as (table, shift, acc_bits, k0, k1) blocks of 2^16 K each
    over [1, kmax], cut at fixed K so that the jobs never depend on
    threads.  Each block is made when it is read: only kmax is stored."""

    def __init__(self, table: _Table, shift: int, acc_bits: int,
                 kmax: int) -> None:
        self.table, self.shift = table, shift
        self.acc_bits, self.kmax = acc_bits, kmax

    def __len__(self) -> int:
        return -(-self.kmax // _BLOCK)

    def __getitem__(self, i: int) -> tuple:
        k = range(1, self.kmax + 1, _BLOCK)[i]
        return (self.table, self.shift, self.acc_bits, k,
                min(k + _BLOCK, self.kmax + 1))


def _sum_job(job: tuple) -> int:
    return _sum_block(*job)


def _formula_jobs(f: Formula, shift0: int, acc_bits: int) -> _Jobs:
    """The formula's series as blocks of 2^16 K, after checking that
    every modulus stays under the cap."""
    t = _table(f)
    shift = shift0 + t.shift
    # beyond kmax every term is below 2^-(acc_bits + 8): floor((K+1)/2)
    # passes shift + bitlen(max |a|) + acc_bits + 8
    bits_a = max(abs(a) for a in t.nums).bit_length()
    kmax = max(2 * (shift + bits_a + acc_bits + 8) + 2, 1)
    # the largest modulus v * odd(K)^n: a class of K mod P with K mod 8
    # nonzero has its largest odd part at its last K, within the last P;
    # the classes K = 0 (mod 8), whose odd parts vary, count as K/8
    period = len(t.nums)
    top = max((K >> min((K & -K).bit_length() - 1, 3)
               for K in range(max(1, kmax - period + 1), kmax + 1)
               if t.nums[K % period]), default=1)
    bits = (t.v * top ** t.n).bit_length()
    if bits > MAX_MODULUS_BITS:
        raise DomainError(
            f"position needs a {bits}-bit modulus, above the "
            f"{MAX_MODULUS_BITS}-bit cap")
    return _Jobs(t, shift, acc_bits, kmax)


def _error_bound(jobs: _Jobs) -> int:
    """E: the exact accumulator lies within (-1, E) ulps above the summed one.

    Each folded group and each tail term is floored once, always
    downwards, and every group holds at least one of the N summed terms
    (those with a nonzero numerator), so there are at most N floors; the
    terms dropped below 2^-8 ulp and the tail past kmax stay under one
    ulp together.  The blocks partition [1, kmax], so N is counted over
    that range at once.
    """
    return 1 + _terms(jobs.table, 1, jobs.kmax + 1)


def _proved(acc: int, guard: int, bound: int) -> bool:
    """Whether every value within (-1, bound) ulps above acc has its digits."""
    return bound <= acc % (1 << guard) <= (1 << guard) - bound


def _window(f: Formula, position: int, count: int, guard: int,
            pool=None) -> tuple[str | None, int]:
    """The count digits at position if guard bits prove them, else None;
    and the error bound E of the accumulator.  The jobs are summed in
    process, or by the workers of pool."""
    acc_bits = 4 * count + guard
    jobs = _formula_jobs(f, 4 * (position - 1), acc_bits)
    if pool is None:
        acc = sum(map(_sum_job, jobs))
    else:
        # Pool.starmap would list every job first; imap_unordered reads
        # them as workers free up, and the sum does not depend on order
        acc = sum(pool.imap_unordered(_sum_job, jobs, chunksize=1))
    bound = _error_bound(jobs)
    if not _proved(acc, guard, bound):
        return None, bound
    return format(acc % (1 << acc_bits) >> guard, f"0{count}X"), bound


def _pool(threads: int):
    """A context giving a pool of threads worker processes, or None for
    one thread; only a pool imports multiprocessing."""
    if threads == 1:
        return contextlib.nullcontext()
    import multiprocessing
    return multiprocessing.get_context("fork").Pool(threads)


def hex_digits(req: DigitRequest) -> DigitRun:
    """Hex digits of a catalog constant at the requested position.

    The guard is derived from the term count: with the error bound E of
    `_error_bound`, the first guard is bitlen(E) + 16 bits, and a window
    is accepted only when its guard bits lie in [E, 2^guard - E], which
    proves every digit (`guard_ok`).  A value that close to a carry
    boundary is retried with 32 more guard bits, up to three times.
    The run reports the terms summed over all attempts (E - 1 each) and
    the guard of the accepted window.  With threads > 1 every attempt
    shares one pool, no larger than the job list summed without guard
    bits, which no attempt's list is shorter than.
    """
    f = _formula(req.formula)
    jobs = _formula_jobs(f, 4 * (req.position - 1), 4 * req.count)
    guard = _error_bound(jobs).bit_length() + 16
    terms = 0
    with _pool(min(req.threads, len(jobs))) as pool:
        for retries in range(4):
            digits, bound = _window(f, req.position, req.count, guard, pool)
            terms += bound - 1
            if digits is not None:
                return DigitRun(digits, req.position, True, retries, terms,
                                guard)
            guard += 32
    raise GuardExhausted(
        f"{req.formula} at position {req.position}: still within E = "
        f"{bound} ulps of a carry boundary with a {guard - 32}-bit guard")


def self_check(formula: str, d: int, count: int) -> bool:
    """Cross-validate a digit run against a direct high-precision value.

    Compares the run with (i) digits sliced out of the constant summed
    conventionally at 4*(d+count)+64 bits and (ii) the overlap of a
    second run starting one position earlier.
    """
    if d > 100_000:
        raise DomainError("self_check oracle is limited to d <= 100000")
    run = hex_digits(DigitRequest(formula, d, count))
    wp = 4 * (d + count) + 64
    val = eval_formula(formula, wp)
    fx = val.to_fixed(wp) << (4 * (d - 1))
    window = (fx % (1 << wp)) >> (wp - 4 * count)
    oracle = format(window, f"0{count}X")
    if run.digits != oracle:
        return False
    if d > 1:
        prev = hex_digits(DigitRequest(formula, d - 1, min(count + 1, 64)))
        if prev.digits[1:1 + count] != run.digits[:len(prev.digits) - 1]:
            return False
    return True

"""Arbitrary-position hexadecimal digit extraction.

Digits of a catalog constant starting at fractional position d are read
off frac(16^(d-1) * value) without ever forming the full expansion.
Terms whose net power of two is nonnegative are folded in groups: the
fractions a 2^e / m of consecutive terms of one residue class of k mod 8
are summed exactly over the product M of their moduli, so one modular
exponentiation modulo M and one floor serve the whole group.  The small
remainder of the series is added in fixed point.  Peak memory is
therefore independent of d.  The guard bits below the window are sized
from the number of summed terms, and a window is returned only when that
error bound proves every digit.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .errors import DomainError, GuardExhausted, UnknownName
from .series import Formula, SeriesSpec, catalog, eval_formula

__all__ = ["DigitRequest", "DigitRun", "hex_digits", "self_check",
           "MAX_MODULUS_BITS"]

MAX_MODULUS_BITS = 192
_BLOCK = 1 << 16
_MAX_POSITION = 1 << 40
# a group of terms is folded once the product of its moduli reaches this
# many bits; on the catalog 400 ran faster than 200 (more groups, each
# with its own pow and floor) and than 800 or 1600 (pow over a longer
# modulus costs more than the terms it serves save)
_FOLD_BITS = 400


@dataclass(frozen=True)
class DigitRequest:
    formula: str
    position: int
    count: int = 16
    threads: int = 1

    def __post_init__(self) -> None:
        if self.position < 1:
            raise DomainError("position is 1-based")
        if not 1 <= self.count <= 64:
            raise DomainError("count must be in 1..64")
        if self.position + self.count > _MAX_POSITION:
            raise DomainError("position beyond the supported range")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")


@dataclass(frozen=True)
class DigitRun:
    digits: str
    position: int
    guard_ok: bool
    retries: int
    terms: int
    guard_bits: int


def _term_ranges(spec: SeriesSpec, shift: int, bits_u: int,
                 acc_bits: int) -> int:
    """Largest k worth summing: beyond it every term is below resolution."""
    # exponent(k) grows like p*k/2; stop once shift - exponent(k) plus the
    # numerator magnitude is under -(acc_bits + 8)
    bits_a = max(abs(a) for a in spec.pattern).bit_length()
    target = shift + bits_u + bits_a + acc_bits + 8
    # smallest k with p*(k+1)//2 > target
    k = (2 * target) // spec.p + 2
    return max(k, 1)


def _sum_block(spec: SeriesSpec, u: int, v: int, shift: int, acc_bits: int,
               k0: int, k1: int) -> int:
    """Signed fixed-point contribution of terms k0 <= k < k1.

    Term k is a*u * 2^ee / m with m = v * odd(k)^n.  Terms with ee >= 0
    are collected per residue class of k mod 8 (so a is fixed) until the
    product M of their moduli reaches _FOLD_BITS; with e0 the least ee of
    the group, C = sum 2^(ee - e0) * M/m, and the group is the one fraction
    a*u * 2^e0 * C / M, exact mod 1 for any moduli, floored once.
    """
    n, p = spec.n, spec.p
    acc = 0
    for r, a in enumerate(spec.pattern):
        if not a:
            continue
        au = a * u
        odd = not r & 1  # k = r + 1 (mod 8) is odd: no 2-adic valuation
        C, M, e0 = 0, 1, 0
        # largest k first: ee then mostly rises along a group, so C is
        # seldom rescaled to a new least ee
        for k in range(k1 - 1 - ((k1 - 2 - r) & 7), k0 - 1, -8):
            ee = shift - (p * (k + 1) >> 1)
            if odd:
                m = v * k ** n
            else:
                v2 = (k & -k).bit_length() - 1
                m = v * (k >> v2) ** n
                ee -= v2 * n
            if ee >= 0:
                if not C:
                    e0 = ee
                elif ee < e0:
                    C <<= e0 - ee
                    e0 = ee
                C = C * m + (M << (ee - e0))
                M *= m
                if M.bit_length() >= _FOLD_BITS:
                    acc += (pow(2, e0, M) * (au * C) % M << acc_bits) // M
                    C, M = 0, 1
            else:
                sh = acc_bits + ee
                if sh >= 0:
                    acc += (au << sh) // m
                elif -sh < au.bit_length() + 8:
                    acc += au // (m << -sh)
        if C:
            acc += (pow(2, e0, M) * (au * C) % M << acc_bits) // M
    return acc


def _job(args: tuple) -> int:
    n, p, pattern, u, v, shift, acc_bits, k0, k1 = args
    return _sum_block(SeriesSpec(n, p, pattern), u, v, shift, acc_bits,
                      k0, k1)


def _formula_jobs(f: Formula, shift0: int, acc_bits: int) -> list[tuple]:
    jobs = []
    for coef, spec in f.terms:
        q = f.scale * coef
        u, v = q.numerator, q.denominator
        if u == 0:
            continue
        tz = (u & -u).bit_length() - 1
        u >>= tz
        shift = shift0 + tz
        tz = (v & -v).bit_length() - 1
        v >>= tz
        shift -= tz
        kmax = _term_ranges(spec, shift, abs(u).bit_length(), acc_bits)
        # the largest modulus v * odd(k)^n: each residue of k mod 8 reaches
        # its largest odd part within the last 16 k, so only those count
        top = max((k >> ((k & -k).bit_length() - 1)
                   for k in range(max(1, kmax - 15), kmax + 1)
                   if spec.pattern[(k - 1) & 7]), default=1)
        bits = (v * top ** spec.n).bit_length()
        if bits > MAX_MODULUS_BITS:
            raise DomainError(
                f"position needs a {bits}-bit modulus, above the "
                f"{MAX_MODULUS_BITS}-bit cap")
        k = 1
        while k <= kmax:
            hi = min(k + _BLOCK, kmax + 1)
            jobs.append((spec.n, spec.p, spec.pattern, u, v, shift,
                         acc_bits, k, hi))
            k = hi
    return jobs


def _lookup(name: str) -> Formula:
    f = catalog().get(name)
    if f is None:
        raise UnknownName(name)
    return f


def _error_bound(jobs: list[tuple]) -> int:
    """E: the exact accumulator lies within (-1, E) ulps above the summed one.

    Each folded group and each tail term is floored once, always
    downwards, and every group holds at least one of the N summed terms,
    so there are at most N floors; the terms dropped below 2^-8 ulp and
    the tail past kmax stay under one ulp together.
    """
    return 1 + sum(j[-1] - j[-2] for j in jobs)


def _proved(acc: int, guard: int, bound: int) -> bool:
    """Whether every value within (-1, bound) ulps above acc has its digits."""
    return bound <= acc % (1 << guard) <= (1 << guard) - bound


def _window(f: Formula, position: int, count: int, guard: int,
            threads: int = 1) -> tuple[str | None, int]:
    """The count digits at position if guard bits prove them, else None;
    and the error bound E of the accumulator."""
    acc_bits = 4 * count + guard
    jobs = _formula_jobs(f, 4 * (position - 1), acc_bits)
    if threads == 1 or len(jobs) <= 1:
        acc = sum(map(_job, jobs))
    else:
        with multiprocessing.get_context("fork").Pool(threads) as pool:
            acc = sum(pool.map(_job, jobs, chunksize=1))
    bound = _error_bound(jobs)
    if not _proved(acc, guard, bound):
        return None, bound
    return format(acc % (1 << acc_bits) >> guard, f"0{count}X"), bound


def hex_digits(req: DigitRequest) -> DigitRun:
    """Hex digits of a catalog constant at the requested position.

    The guard is derived from the term count: with the error bound E of
    `_error_bound`, the first guard is bitlen(E) + 16 bits, and a window
    is accepted only when its guard bits lie in [E, 2^guard - E], which
    proves every digit (`guard_ok`).  A value that close to a carry
    boundary is retried with 32 more guard bits, up to three times.
    The run reports the terms summed over all attempts (E - 1 each) and
    the guard of the accepted window.
    """
    f = _lookup(req.formula)
    bound = _error_bound(_formula_jobs(f, 4 * (req.position - 1),
                                      4 * req.count))
    guard = bound.bit_length() + 16
    terms = 0
    for retries in range(4):
        digits, bound = _window(f, req.position, req.count, guard,
                                req.threads)
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

"""Arbitrary-position hexadecimal digit extraction.

Digits of a catalog constant starting at fractional position d are read
off frac(16^(d-1) * value) without ever forming the full expansion.
Terms whose net power of two is nonnegative reduce through three-line
modular exponentiation; the small remainder of the series is added in
fixed point.  Peak memory is therefore independent of d.
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


@dataclass(frozen=True)
class DigitRequest:
    formula: str
    position: int
    count: int = 16
    guard_bits: int = 64
    threads: int = 1

    def __post_init__(self) -> None:
        if self.position < 1:
            raise DomainError("position is 1-based")
        if not 1 <= self.count <= 64:
            raise DomainError("count must be in 1..64")
        if self.position + self.count > _MAX_POSITION:
            raise DomainError("position beyond the supported range")
        if self.guard_bits < 16 or self.guard_bits % 4:
            raise DomainError("guard_bits must be a multiple of 4, >= 16")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")


@dataclass(frozen=True)
class DigitRun:
    digits: str
    position: int
    guard_ok: bool
    retries: int


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
    """Signed fixed-point contribution of terms k0 <= k < k1."""
    n, p = spec.n, spec.p
    pattern = spec.pattern
    acc = 0
    for k in range(k0, k1):
        a = pattern[(k - 1) & 7]
        if not a:
            continue
        e = (p * (k + 1)) // 2
        v2 = (k & -k).bit_length() - 1
        kodd = k >> v2
        m = v * kodd ** n
        ee = shift - e - v2 * n
        au = a * u
        if ee >= 0:
            t = (au * pow(2, ee, m)) % m
            acc += (t << acc_bits) // m
        else:
            sh = acc_bits + ee
            if sh >= 0:
                acc += (au << sh) // m
            elif -sh < au.bit_length() + 8:
                acc += au // (m << -sh)
    return acc


def _carry_run(acc: int, acc_bits: int, count: int) -> int:
    """Longest all-0 or all-F nibble run touching the window/guard boundary.

    A long uniform run there means a small perturbation at the bottom of
    the accumulator could ripple a carry into the output digits.
    """
    s = format(acc % (1 << acc_bits), f"0{acc_bits // 4}X")
    longest = 0
    for ch in "0F":
        w = 0
        while w < count and s[count - 1 - w] == ch:
            w += 1
        g = 0
        while count + g < len(s) and s[count + g] == ch:
            g += 1
        longest = max(longest, w + g)
    return longest


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


def _accumulate(f: Formula, position: int, acc_bits: int,
                threads: int) -> int:
    shift0 = 4 * (position - 1)
    jobs = _formula_jobs(f, shift0, acc_bits)
    if threads == 1 or len(jobs) <= 1:
        total = sum(_job(j) for j in jobs)
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=threads) as pool:
            total = sum(pool.map(_job, jobs, chunksize=1))
    return total % (1 << acc_bits)


def hex_digits(req: DigitRequest) -> DigitRun:
    """Hex digits of a catalog constant at the requested position.

    The accumulator carries guard bits below the output window; when the
    value sits too close to a carry boundary the computation is retried
    with twice the guard, up to three times.
    """
    f = _lookup(req.formula)
    guard = req.guard_bits
    retries = 0
    while True:
        acc_bits = 4 * req.count + guard
        acc = _accumulate(f, req.position, acc_bits, req.threads)
        guard_ok = _carry_run(acc, acc_bits, req.count) < 8
        if guard_ok or retries >= 3:
            break
        guard *= 2
        retries += 1
    if not guard_ok:
        raise GuardExhausted(
            f"{req.formula} at position {req.position}: accumulator still "
            f"hugs a carry boundary with {guard}-bit guard")
    digits = format(acc >> guard, f"0{req.count}X")
    return DigitRun(digits, req.position, guard_ok, retries)


def self_check(formula: str, d: int, count: int) -> bool:
    """Cross-validate a digit run against a direct high-precision value.

    Compares the run with (i) digits sliced out of the constant summed
    conventionally at 4*(d+count)+64 bits and (ii) the overlap of a
    second run starting one position earlier.
    """
    if d > 100_000:
        raise ValueError("self_check oracle is limited to d <= 100000")
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

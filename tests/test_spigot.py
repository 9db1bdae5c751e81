"""Digit extraction: spigot runs against windows sliced from direct
high-precision summation, window-overlap consistency, the exact
thread-count independence of the accumulator, the grouped fold against
exact fractions, and the error-bound test that proves each window."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lihex import spigot
from lihex.errors import DomainError, GuardExhausted
from lihex.series import SeriesSpec, catalog, eval_formula
from lihex.spigot import (DigitRequest, DigitRun, _error_bound, _formula_jobs,
                          _proved, _sum_block, _window, hex_digits,
                          self_check)

# windows produced by summing the constants conventionally at
# 4*(d+16)+64 bits and slicing -- never by the spigot itself
ORACLE_WINDOWS = [
    ("pi", 1, "243F6A8885A308D3"),
    ("zeta3", 10000, "8F811A52EA1EFFB4"),
    ("catalan", 1000, "46294D65DFA36421"),
    ("pi2", 100, "53CB0B510A49254C"),
    ("log2sq", 1, "7AFEF7FE0B163AA1"),
    ("zeta5", 500, "8E30B7F175E774D9"),
    ("pi4_log2", 250, "FC92A69B9D3E32E1"),
]


@pytest.mark.parametrize("name,pos,want", ORACLE_WINDOWS)
def test_spigot_agrees_with_direct_summation(name, pos, want):
    run = hex_digits(DigitRequest(name, pos, 16))
    assert run.digits == want
    assert run.guard_ok and run.position == pos


def test_runs_are_deterministic():
    a = hex_digits(DigitRequest("zeta3", 777, 32))
    b = hex_digits(DigitRequest("zeta3", 777, 32))
    assert a == b


def test_overlapping_windows_agree():
    # digits d..d+31 must reappear inside the window starting at d-1
    d = 4321
    lo = hex_digits(DigitRequest("catalan", d - 1, 33)).digits
    hi = hex_digits(DigitRequest("catalan", d, 32)).digits
    assert lo[1:] == hi


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["pi", "zeta3", "catalan"]),
       st.integers(min_value=2, max_value=200))
def test_shift_consistency_property(name, d):
    a = hex_digits(DigitRequest(name, d - 1, 17)).digits
    b = hex_digits(DigitRequest(name, d, 16)).digits
    assert a[1:] == b


def test_threads_do_not_change_a_single_bit():
    runs = {t: hex_digits(DigitRequest("zeta5", 3000, 48, threads=t))
            for t in (1, 4, 8)}
    assert runs[1] == runs[4] == runs[8]
    # pi at 10000 sums past k = 2^16, so its job list holds two blocks
    jobs = _formula_jobs(catalog()["pi"], 4 * 9999, 4 * 16 + 24)
    assert len(jobs) == 2
    runs = [hex_digits(DigitRequest("pi", 10000, 16, threads=t))
            for t in (1, 2)]
    assert runs[0] == runs[1]


def _exact_block(spec, u, v, shift, k0, k1):
    """The block's terms a_k * u/v * 2^shift / (2^e(k) * k^n), exactly."""
    return sum(Fraction(spec.pattern[(k - 1) & 7] * u, v * k ** spec.n)
               * Fraction(2) ** (shift - spec.exponent(k))
               for k in range(k0, k1))


def test_one_group_is_floored_once():
    # k = 8, 16, ..., 72: moduli 9 * odd(k)^3 repeat (k = 8, 16, 32, 64)
    # and share factors (k = 24, 48, 72); k = 64 has a smaller net power
    # of two than k = 72; a and u are negative.  All of it is one group,
    # so the block is the exact fractional part, floored once.
    spec = SeriesSpec(3, 1, (0, 0, 0, 0, 0, 0, 0, -3))
    u, v, shift, acc_bits = -5, 9, 60, 40
    exact = _exact_block(spec, u, v, shift, 8, 80)
    assert exact.denominator > 1
    got = _sum_block(spec, u, v, shift, acc_bits, 8, 80)
    assert got == math.floor(exact % 1 * 2 ** acc_bits)


_JOBS = [j for f in catalog().values() for j in _formula_jobs(f, 0, 8)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_JOBS), st.integers(min_value=-16, max_value=400),
       st.integers(min_value=16, max_value=80),
       st.integers(min_value=1, max_value=600),
       st.integers(min_value=1, max_value=160))
def test_block_lies_within_the_error_interval(job, shift, acc_bits, k0, width):
    # the interval `_error_bound` claims: above the summed block by less
    # than one ulp per summed term plus one, below it by less than one
    n, p, pattern, u, v = job[:5]
    spec = SeriesSpec(n, p, pattern)
    k1 = k0 + width
    got = _sum_block(spec, u, v, shift, acc_bits, k0, k1)
    one = 1 << acc_bits
    diff = (_exact_block(spec, u, v, shift, k0, k1) * one - got) % one
    if diff > one // 2:
        diff -= one
    assert -1 < diff < width + 1


def test_self_check_facility():
    assert self_check("pi", 100, 24)
    assert self_check("zeta3", 50, 16)
    with pytest.raises(DomainError):
        self_check("pi", 200000, 8)


def test_request_validation():
    with pytest.raises(ValueError):
        DigitRequest("pi", 0)
    with pytest.raises(ValueError):
        DigitRequest("pi", 1, 65)
    with pytest.raises(ValueError):
        DigitRequest("pi", 1, 16, threads=0)


def test_unreachable_position_fails_before_summing():
    # weight-5 moduli pass the 192-bit cap near position 4.98e9; the
    # request is refused before any of its ~2**35 terms is summed
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        hex_digits(DigitRequest("zeta5", 2**33))
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(DomainError):
        DigitRequest("pi", 0)


def _direct_window(name, d, count):
    wp = 4 * (d + count) + 64
    fx = eval_formula(name, wp).to_fixed(wp) << (4 * (d - 1))
    return format((fx % (1 << wp)) >> (wp - 4 * count), f"0{count}X")


def test_window_is_accepted_only_inside_the_error_interval():
    guard, bound = 12, 100
    top = 0xABC << guard  # window digits above the guard play no part
    for r, ok in ((bound - 1, False), (bound, True),
                  ((1 << guard) - bound, True),
                  ((1 << guard) - bound + 1, False)):
        assert _proved(top + r, guard, bound) is ok, r


def test_error_bound_counts_every_summed_term():
    f = catalog()["zeta3"]
    jobs = _formula_jobs(f, 4 * 999, 4 * 16 + 24)
    n = sum(k1 - k0 for *_, k0, k1 in jobs)
    assert _error_bound(jobs) == n + 1
    # the derived guard holds the window with room: no retry at 1000
    assert hex_digits(DigitRequest("zeta3", 1000, 16)).retries == 0
    digits, _ = _window(f, 1000, 16, 24)
    assert digits == _direct_window("zeta3", 1000, 16)


def test_rejected_windows_retry_with_32_more_guard_bits(monkeypatch):
    guards = []

    def reject_first(acc, guard, bound):
        guards.append(guard)
        return len(guards) > 1 and _proved(acc, guard, bound)

    monkeypatch.setattr(spigot, "_proved", reject_first)
    run = hex_digits(DigitRequest("pi", 1, 8))
    assert run.digits == "243F6A88" and run.retries == 1 and run.guard_ok
    assert guards[1] == guards[0] + 32
    monkeypatch.setattr(spigot, "_proved", lambda acc, guard, bound: False)
    with pytest.raises(GuardExhausted, match=r"E = \d+ .* \d+-bit guard"):
        hex_digits(DigitRequest("pi", 1, 8))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(catalog())),
       st.integers(min_value=1, max_value=600),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=6))
def test_forced_small_guards_accept_only_right_windows(name, d, count, extra):
    # guards at and just above bitlen(E) reject many windows; every one
    # they accept must still be the directly summed digits
    f = catalog()[name]
    bound = _error_bound(_formula_jobs(f, 4 * (d - 1), 4 * count))
    digits, _ = _window(f, d, count, bound.bit_length() + extra)
    if digits is not None:
        assert digits == _direct_window(name, d, count)


def test_digit_run_shape():
    run = hex_digits(DigitRequest("pi", 1, 8))
    assert isinstance(run, DigitRun)
    assert run.digits == "243F6A88"
    assert run.retries == 0

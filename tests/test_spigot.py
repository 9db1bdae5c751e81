"""Digit extraction: spigot runs against windows sliced from direct
high-precision summation, window-overlap consistency, and the exact
thread-count independence of the accumulator."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from lihex.errors import DomainError
from lihex.series import eval_formula
from lihex.spigot import DigitRequest, DigitRun, _carry_run, hex_digits, self_check

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


def test_self_check_facility():
    assert self_check("pi", 100, 24)
    assert self_check("zeta3", 50, 16)
    with pytest.raises(ValueError):
        self_check("pi", 200000, 8)


def test_request_validation():
    with pytest.raises(ValueError):
        DigitRequest("pi", 0)
    with pytest.raises(ValueError):
        DigitRequest("pi", 1, 65)
    with pytest.raises(ValueError):
        DigitRequest("pi", 1, 16, guard_bits=13)
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


def test_carry_run_measures_boundary_runs():
    # acc layout: [count digits][guard digits]; runs touch the boundary
    count = 8
    acc_bits = 4 * (count + 8)
    mk = lambda s: int(s, 16)
    assert _carry_run(mk("12345678" + "9ABCDEF0"), acc_bits, count) == 0
    # window ends in three F's, guard starts with two more
    assert _carry_run(mk("12345FFF" + "FF345678"), acc_bits, count) == 5
    # all-zero guard head only
    assert _carry_run(mk("12345678" + "000ABCDE"), acc_bits, count) == 3
    # a run of 8+ is what forces a retry inside hex_digits
    assert _carry_run(mk("1234FFFF" + "FFFF5678"), acc_bits, count) == 8


def test_digit_run_shape():
    run = hex_digits(DigitRequest("pi", 1, 8))
    assert isinstance(run, DigitRun)
    assert run.digits == "243F6A88"
    assert run.retries == 0

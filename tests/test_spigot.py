"""Digit extraction: spigot runs against windows sliced from direct
high-precision summation, window-overlap consistency, the exact
thread-count independence of the accumulator, the merged series and the
grouped fold against exact fractions built from the catalog's own
per-spec terms, and the error-bound test that proves each window."""

import contextlib
import math
import multiprocessing
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lihex import spigot
from lihex.errors import DomainError, GuardExhausted
from lihex.series import Formula, SeriesSpec, catalog, eval_formula
from lihex.spigot import (DigitRequest, DigitRun, _class_sum, _error_bound,
                          _formula_jobs, _proved, _stepped_class_sum,
                          _sum_block, _table, _terms, _window, hex_digits,
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
    ("pi2_log2cu", 10000, "35D3D0372A6B3A92"),
    ("beta3", 10000, "5EE1F94870EEFD74"),
    # log2_5 has 15 classes r = 0 (mod 8), whose 2-adic valuations vary
    # along the class, and pi_bellard's period is 40
    ("log2_5", 4097, "5A07C12D46F42E73"),
    ("log2_4", 3000, "6D25CAB0DE33ED2A"),
    ("pi_bellard", 20000, "AE937C2354A69FF6"),
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


def _spec_terms(f, shift0, k0, k1):
    """Each K in [k0, k1) that is p*k for some spec, with the sum of those
    terms scale*coef*a_k * 2^(shift0 - e(k)) / k^n, exactly: read from the
    catalog's own per-spec terms, not from the merged table."""
    out = {}
    for coef, spec in f.terms:
        q = f.scale * coef
        for k in range(-(-k0 // spec.p), -(-k1 // spec.p)):
            term = (q * spec.pattern[(k - 1) & 7] / k ** spec.n
                    * Fraction(2) ** (shift0 - spec.p * (k + 1) // 2))
            out[spec.p * k] = out.get(spec.p * k, 0) + term
    return out


@pytest.mark.parametrize("name", sorted(catalog()))
def test_merged_table_is_the_sum_of_the_specs(name):
    # one order n and p = 1 in every formula: then term k of S_{n,p} is
    # term K = p*k of one S_{n,1}, and K runs over every integer
    f = catalog()[name]
    assert len({spec.n for _, spec in f.terms}) == 1
    assert 1 in {spec.p for _, spec in f.terms}
    t = _table(f)
    period = len(t.nums)
    assert period == 8 * math.lcm(*(spec.p for _, spec in f.terms))
    assert t.v & 1
    want = _spec_terms(f, 0, 1, 3 * period + 1)
    for K in range(1, 3 * period + 1):
        got = (Fraction(t.nums[K % period], t.v * K ** t.n)
               * Fraction(2) ** (t.shift - (K + 1) // 2))
        assert got == want.get(K, 0), K


def test_one_group_is_floored_once():
    # P = 24: the p = 1 spec reaches K = 0, 8, 16 (mod 24), the p = 3 spec
    # K = 0 (mod 24), where the two add to a negative numerator.  In each
    # class the moduli odd(K)^3 repeat (K = 8, 32, 128) and share factors
    # (K = 24, 72, 216), and K = 256 has a smaller net power of two than
    # K = 280 before it.  Every class stays under the fold, so each is one
    # group: its exact fractional part, floored once.
    f = Formula("test", Fraction(-5, 9),
                ((Fraction(1), SeriesSpec(3, 1, (0, 0, 0, 0, 0, 0, 0, -3))),
                 (Fraction(2, 7), SeriesSpec(3, 3, (0, 0, 0, 0, 0, 0, 0, 1)))))
    shift0, acc_bits, k0, k1 = 160, 40, 8, 288
    t, shift, *_ = _formula_jobs(f, shift0, acc_bits)[0]
    assert len(t.nums) == 24 and t.nums[0] < 0
    terms = _spec_terms(f, shift0, k0, k1)
    want = 0
    for r in (0, 8, 16):
        exact = sum(x for K, x in terms.items() if K % 24 == r)
        assert exact.denominator > 1
        want += math.floor(exact % 1 * 2 ** acc_bits)
    assert _sum_block(t, shift, acc_bits, k0, k1) == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(catalog())),
       st.integers(min_value=-16, max_value=400),
       st.integers(min_value=16, max_value=80),
       st.integers(min_value=1, max_value=600),
       st.integers(min_value=1, max_value=160))
def test_block_lies_within_the_error_interval(name, shift0, acc_bits, k0,
                                              width):
    # the interval `_error_bound` claims: above the summed block by less
    # than one ulp per summed term plus one, below it by less than one
    f = catalog()[name]
    t, shift, *_ = _formula_jobs(f, shift0, acc_bits)[0]
    got = _sum_block(t, shift, acc_bits, k0, k0 + width)
    one = 1 << acc_bits
    exact = sum(_spec_terms(f, shift0, k0, k0 + width).values())
    diff = (exact * one - got) % one
    if diff > one // 2:
        diff -= one
    assert -1 < diff < _terms(t, k0, k0 + width) + 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(catalog())),
       st.integers(min_value=1, max_value=2**17),
       st.integers(min_value=0, max_value=4000),
       st.integers(min_value=-64, max_value=2000),
       st.integers(min_value=16, max_value=200))
def test_stepped_classes_match_the_per_term_loop(name, k0, width, lead,
                                                 acc_bits):
    # k0 up to 2^17 makes odd parts of up to 17 bits, so a wide block
    # fills groups to the fold; a shift near k0/2 puts the split between
    # the tail (ee < 0) and the folded terms anywhere in the block
    t = _table(catalog()[name])
    period, k1, shift = len(t.nums), k0 + width, k0 // 2 + lead
    for r, a in enumerate(t.nums):
        top = k1 - 1 - (k1 - 1 - r) % period
        if a and r & 7 and top >= k0:
            args = (t, a, shift, acc_bits, k0, top)
            assert _stepped_class_sum(*args) == _class_sum(*args), r


@pytest.mark.parametrize("name", ["pi", "catalan", "zeta3", "beta3",
                                  "pi4", "zeta5"])
def test_term_count_matches_a_brute_force_count(name):
    # only K whose per-spec terms sum to nonzero are summed and counted
    f = catalog()[name]
    t = _table(f)
    for k0, k1 in ((1, 2), (1, 500), (37, 1000), (119, 241), (5, 5)):
        want = sum(1 for x in _spec_terms(f, 0, k0, k1).values() if x)
        assert _terms(t, k0, k1) == want, (k0, k1)


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
    # a fixed bound, whatever the machine; construction starts no pool
    assert DigitRequest("pi", 1, 16, threads=256).threads == 256
    with pytest.raises(DomainError):
        DigitRequest("pi", 1, 16, threads=257)
    # position, count and threads are ints: a float or a bool is refused
    # at construction, not deep inside the kernel
    for args, kw in ((("pi", 1.5, 8), {}), (("pi", 10, 8.0), {}),
                     (("pi", True, 8), {}), (("pi", 10, True), {}),
                     (("pi", 1, 16), {"threads": 1.0}),
                     (("pi", 1, 16), {"threads": True}),
                     (("pi", "1", 16), {})):
        with pytest.raises(DomainError, match="must be an int"):
            DigitRequest(*args, **kw)
    # positions are capped by the work they imply: pi at 2^39 would sum
    # about 2.2e12 terms, zeta(5) at 10^8 about 8e8
    with pytest.raises(DomainError):
        DigitRequest("pi", 2**39)
    for name in ("zeta3", "zeta5"):
        for position in (10**7, 10**8):
            assert DigitRequest(name, position).position == position


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with an in-process fake; the sizes of
    the pools opened."""
    sizes = []

    def pool(size):
        sizes.append(size)
        return contextlib.nullcontext(SimpleNamespace(
            imap_unordered=lambda fn, jobs, chunksize: map(fn, jobs)))

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=pool))
    return sizes


def test_pool_never_outgrows_the_job_list(pool_sizes):
    sizes = pool_sizes
    assert hex_digits(DigitRequest("pi", 1, 8, threads=256)).digits \
        == "243F6A88"
    assert sizes == []  # one job: summed in process
    run = hex_digits(DigitRequest("zeta3", 10000, 16, threads=256))
    assert run.digits == "8F811A52EA1EFFB4"
    assert sizes == [2]


def test_one_pool_serves_every_retry(pool_sizes, monkeypatch):
    guards = []

    def reject_first(acc, guard, bound):
        guards.append(guard)
        return len(guards) > 1 and _proved(acc, guard, bound)

    monkeypatch.setattr(spigot, "_proved", reject_first)
    run = hex_digits(DigitRequest("zeta3", 10000, 16, threads=2))
    assert run.digits == "8F811A52EA1EFFB4" and run.retries == 1
    assert pool_sizes == [2]


def test_sizing_a_far_window_lists_no_jobs():
    # pi at position 2^30 spans 131,073 blocks of 2^16 K; the jobs and
    # their error bound come from arithmetic on kmax, not from a list
    f = catalog()["pi"]
    _table(f)  # the formula's cached table is not part of the sizing
    tracemalloc.start()
    try:
        jobs = _formula_jobs(f, 4 * (2**30 - 1), 4 * 16)
        bound = _error_bound(jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(jobs) == 131_073
    assert bound == _terms(_table(f), 1, jobs[-1][-1]) + 1
    assert peak < 1 << 20


def test_unreachable_position_fails_before_summing():
    # the position cap refuses the request before any of its ~2**35 terms
    # is summed; the 192-bit modulus cap, which first binds at weight 5
    # near position 4.98e9, still guards the job list
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        hex_digits(DigitRequest("zeta5", 2**33))
    with pytest.raises(DomainError, match="192-bit cap"):
        _formula_jobs(catalog()["zeta5"], 4 * (2**33 - 1), 4 * 16)
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
    kmax = jobs[-1][-1] - 1
    n = sum(1 for x in _spec_terms(f, 0, 1, kmax + 1).values() if x)
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

"""Integer-relation detection and vector verification."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from lihex import relfind
from lihex.errors import DomainError, PrecisionError
from lihex.ladders import eval_ladder
from lihex.mp.real import MpReal, _log2_fixed, _pi_fixed
from lihex.relfind import (_SLOT, _TRANSFORM_BITS, RelationQuery,
                           RelationResult, _canonical, _cap_masks,
                           _pigeonhole, _rotate, _round_div, _shift,
                           _unpack, _width, pslq, required_bits,
                           verify_vector)
from lihex.series import (_F11_LHS, _F11_LIS, _F11_MONS, Monomial,
                          SeriesSpec, eval_formula, eval_series,
                          polylog_pattern)

def pi_const(p: int) -> MpReal:
    return MpReal.from_fixed(_pi_fixed(p + 16), p + 16, p)


def log2_const(p: int) -> MpReal:
    return MpReal.from_fixed(_log2_fixed(p + 16), p + 16, p)


def _times(v: MpReal, q, prec: int) -> MpReal:
    """v times the rational q, q read at v's precision, rounded to prec."""
    return v.mul(MpReal.from_fraction(Q(q), v.prec), prec)


F11_VECTOR = tuple([_F11_LHS] + [-c for c, _ in _F11_LIS]
                   + [-c for c, _ in _F11_MONS])


def _li11_re(arg, wp):
    (c, spec), = polylog_pattern(arg, 11, "re")
    return _times(eval_series(spec, wp), c, wp)


def _f11_values(wp):
    vals = [Monomial(zeta=11).value(wp)]
    vals += [_li11_re(arg, wp) for _, arg in _F11_LIS]
    vals += [m.value(wp) for _, m in _F11_MONS]
    return vals


def _catalan_triple(prec):
    g = eval_formula("catalan", prec)
    s21 = eval_series(SeriesSpec(2, 1, (1, -1, 1, 0, -1, 1, -1, 0)), prec)
    s23 = eval_series(SeriesSpec(2, 3, (1, 1, 1, 0, -1, -1, -1, 0)), prec)
    return g, s21, s23


# ----------------------------------------------------------------------
# recovery of known relations

def test_recovers_catalan_series_relation():
    vals = _catalan_triple(512)
    res = pslq(RelationQuery(vals, max_digits=8))
    assert res.status == "found"
    assert res.vector == (1, -3, 2)
    assert res.iterations <= 20
    assert verify_vector(res.vector, vals, 512).passed


def _r3_pair(prec):
    """The first two sides of r3: lambda(3) = (7/8) zeta(3) and Abar_3."""
    return (_times(Monomial(zeta=3).value(prec), Q(7, 8), prec),
            eval_ladder("Abar", 3, prec))


@pytest.mark.parametrize("bits", [256, 512])
def test_recovers_equal_pair(bits):
    lam, abar = _r3_pair(bits)
    res = pslq(RelationQuery((lam, abar), max_digits=8))
    assert res.status == "found"
    assert res.vector == (1, -1)


def test_identical_inputs_give_difference_vector():
    res = pslq(RelationQuery((pi_const(512), pi_const(512)), max_digits=4))
    assert res.status == "found"
    assert res.vector == (1, -1)


def test_result_is_deterministic():
    vals = _catalan_triple(512)
    assert pslq(RelationQuery(vals, max_digits=8)) == \
        pslq(RelationQuery(vals, max_digits=8))


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=Q(-50), max_value=Q(50)).filter(bool))
def test_recovery_is_scale_invariant(c):
    P = 256
    vals = tuple(_times(v, c, P) for v in _catalan_triple(P))
    res = pslq(RelationQuery(vals, max_digits=8))
    assert res.vector == (1, -3, 2)


@pytest.mark.parametrize("P", [512, 2048])
@pytest.mark.parametrize("k", [-1100, -260, 0, 60, 100, 600])
def test_recovery_at_any_binary_scale(P, k):
    # the inputs are read at the scale of the largest: values far from 1
    # keep all their bits for the search, the detect gate and the accept
    # bound
    vals = tuple(_times(v, Q(2) ** k, P) for v in _catalan_triple(P))
    res = pslq(RelationQuery(vals, max_digits=8))
    assert res.status == "found"
    assert res.vector == (1, -3, 2)


def test_confirmation_reads_every_input_bit():
    # the search runs at about 210 bits, the confirmation at all 4096
    res = pslq(RelationQuery(_catalan_triple(4096), max_digits=8))
    assert res.status == "found" and res.vector == (1, -3, 2)
    assert res.log2_residual == -4095


# ----------------------------------------------------------------------
# exclusion bounds

def test_algebraically_independent_triple_is_excluded():
    P = 1024
    vals = (MpReal.from_int(1, P), pi_const(P), log2_const(P))
    res = pslq(RelationQuery(vals, max_digits=20))
    assert res.status == "none_within_bound"
    assert res.vector is None and res.log2_residual is None


def test_exclusion_over_thirteen_constants():
    P = 2048
    vals = _f11_values(P)[1:]
    res = pslq(RelationQuery(tuple(vals), max_digits=30))
    assert res.status == "none_within_bound"
    assert res.iterations <= 4200


@pytest.mark.slow
def test_recovers_fourteen_term_vector():
    P = 2048
    vals = _f11_values(P)
    res = pslq(RelationQuery(tuple(vals), max_digits=23))
    assert res.status == "found"
    assert res.vector == F11_VECTOR
    assert res.log2_residual < -1900
    assert res.iterations <= 3700


# ----------------------------------------------------------------------
# guards and result shape

def test_precision_guard():
    P = 1024
    vals = (MpReal.from_int(1, P), pi_const(P), log2_const(P))
    with pytest.raises(PrecisionError):
        pslq(RelationQuery(vals, max_digits=100))


def test_zero_input_rejected():
    with pytest.raises(DomainError):
        pslq(RelationQuery((pi_const(256), MpReal.zero(256)), max_digits=4))


def test_query_validation():
    with pytest.raises(DomainError):
        RelationQuery((pi_const(256),), max_digits=4)
    with pytest.raises(DomainError):
        RelationQuery((pi_const(256), log2_const(256)), max_digits=0)
    for cap in (0, -3):
        with pytest.raises(DomainError):
            RelationQuery((pi_const(256), log2_const(256)), max_digits=4,
                          max_iterations=cap)
    q = RelationQuery((pi_const(256), log2_const(128)), max_digits=4)
    assert q.prec == 128


@pytest.mark.parametrize("field, x", [
    ("max_digits", 2.5), ("max_digits", True),
    ("max_iterations", 10.0), ("max_iterations", True)])
def test_query_refuses_a_bound_that_is_not_an_int(field, x):
    with pytest.raises(DomainError, match=field):
        RelationQuery((pi_const(256), log2_const(256)), **{field: x})


def test_result_dict_shape():
    res = pslq(RelationQuery(_catalan_triple(512), max_digits=8))
    d = res.as_dict()
    assert d == {"status": "found", "vector": [1, -3, 2],
                 "log2_residual": res.log2_residual}


# ----------------------------------------------------------------------
# canonical form of returned vectors

@settings(max_examples=200)
@given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=10)
       .filter(any))
def test_canonical_form_properties(vec):
    out = _canonical(list(vec))
    g = 0
    for v in out:
        g = math.gcd(g, v)
    assert g == 1
    lead = next(v for v in out if v != 0)
    assert lead > 0
    for a, b in zip(vec, out):
        assert a * out[0] == b * vec[0]


# ----------------------------------------------------------------------
# verify_vector

def test_verify_fourteen_term_vector():
    vals = _f11_values(1024 + 96)
    rep = verify_vector(F11_VECTOR, vals, 1024)
    assert rep.passed and rep.log2_residual < -960

    bad = list(F11_VECTOR)
    bad[0] += 1
    assert not verify_vector(bad, vals, 1024).passed


def test_verify_allows_for_the_vector_height():
    # values good to exactly 2**-8192 leave the f11 vector, of height
    # about 2**73, a residual above 2**-(8192-64); it is still a relation
    P = 4 * 2048
    rep = verify_vector(F11_VECTOR, _f11_values(P), P)
    assert rep.passed and rep.log2_residual > -(P - 64)


def test_verify_rejects_a_pigeonhole_coincidence():
    # the coincidence of test_pigeonhole_gate among the eight constants
    # it came from: its residual is inside the height allowance, but not
    # below the pigeonhole floor
    fake = (3099624, 2382306, -12816464, 106971, 31551745, -302267,
            -379542, -16475735)
    vals = [eval_formula(c, 256) for c in
            ("pi", "zeta3", "catalan", "log2cu", "zeta5", "pi4", "beta3",
             "log2_4")]
    rep = verify_vector(fake, vals, 256)
    height = math.log2(max(abs(v) for v in fake))
    assert rep.log2_residual <= height - (256 - 64)
    assert not rep.passed


@pytest.mark.parametrize("k", [-64, -1000])
def test_verify_rejects_a_scaled_pigeonhole_coincidence(k):
    # the residual is judged relative to the largest value: scaling the
    # values leaves the coincidence above its pigeonhole floor
    fake = (3099624, 2382306, -12816464, 106971, 31551745, -302267,
            -379542, -16475735)
    vals = [_times(eval_formula(c, 256), Q(2) ** k, 256) for c in
            ("pi", "zeta3", "catalan", "log2cu", "zeta5", "pi4", "beta3",
             "log2_4")]
    rep = verify_vector(fake, vals, 256)
    assert not rep.passed
    assert rep.log2_residual > k - 256


def test_verify_passes_a_scaled_relation():
    P = 512
    vals = [_times(v, Q(2) ** 100, P) for v in _catalan_triple(P)]
    rep = verify_vector((1, -3, 2), vals, P)
    assert rep.passed and rep.log2_residual < 100 - (P - 64)


def test_verify_zero_vector_and_mismatch():
    vals = (pi_const(256), log2_const(256))
    rep = verify_vector((0, 0), vals, 256)
    assert rep.passed and rep.log2_residual == float("-inf")
    with pytest.raises(DomainError):
        verify_vector((1, 2, 3), vals, 256)


@pytest.mark.parametrize("vec", [(1.5, -1), (True, -1), (1, Q(-1))])
def test_verify_refuses_entries_that_are_not_ints(vec):
    # int() would truncate 1.5 to 1, and (1, -1) holds for (pi, pi)
    with pytest.raises(DomainError):
        verify_vector(vec, (pi_const(256), pi_const(256)), 256)


# ----------------------------------------------------------------------
# precision rule, pigeonhole gate and the certified bound

@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=2000))
@example(3, 7102)  # 3 * 7102 = 21306, where k*log2(10) is 1.0e-5 from 70777
def test_precision_rule_equals_the_formed_power(n, d):
    assert required_bits(n, d) == max(16 * d,
                                       (10 ** (n * d)).bit_length() + 64)


@pytest.mark.parametrize("k", [0, 1, 3, 28, 4004, 76573, 97879, 100001])
def test_power_of_ten_bit_length_at_edges_and_convergents(k):
    # denominators of log2(10)'s convergents put k*log2(10) closest to
    # an integer: 97879 * log2(10) lies 5.2e-7 below 325147
    assert relfind._bitlen_pow10(k) == (10 ** k).bit_length()


def test_precision_rule_grows_with_dimension():
    # 16 bits per digit is not enough for 8 values: 8*12 digits need
    # 319 bits before the 64-bit margin
    assert required_bits(8, 12) == 383
    assert required_bits(2, 12) == 16 * 12
    vals = tuple(eval_formula(c, 256) for c in
                 ("pi", "zeta3", "catalan", "log2cu", "zeta5", "pi4",
                  "beta3", "log2_4"))
    with pytest.raises(PrecisionError):
        pslq(RelationQuery(vals, max_digits=12))
    # 7 digits is the most 256 bits allow for 8 values
    assert required_bits(8, 7) <= 256 < required_bits(8, 8)
    with pytest.raises(PrecisionError):
        pslq(RelationQuery(vals, max_digits=8))
    assert pslq(RelationQuery(vals, max_digits=7)).status != "found"


def test_pigeonhole_gate():
    # a coincidence eight 256-bit constants admit: 2**-172 is above the
    # floor h**-7 for its height h ~ 2**24.9, so it is no relation
    fake = (3099624, 2382306, -12816464, 106971, 31551745, -302267,
            -379542, -16475735)
    assert _pigeonhole(fake, -172.0)
    assert not _pigeonhole(fake, -250.0)
    assert not _pigeonhole((1, -3, 2), float("-inf"))


def test_bound_digits_reports_the_exclusion():
    P = 1024
    vals = (MpReal.from_int(1, P), pi_const(P), log2_const(P))
    res = pslq(RelationQuery(vals, max_digits=20))
    assert res.status == "none_within_bound"
    assert res.bound_digits >= 20
    short = pslq(RelationQuery(vals, max_digits=20, max_iterations=40))
    assert short.status == "inconclusive"
    assert 0 < short.bound_digits < 20
    assert "bound_digits" not in res.as_dict()


# ----------------------------------------------------------------------
# properties of the search

# catalog constants and products of them, grouped by weight 0..8.
# Values of different weights are taken to be linearly independent
# over Q, so any set with pairwise different weights has no relation
_BY_WEIGHT = (
    ("1",), ("pi",), ("catalan", "log2sq", "pi2"),
    ("zeta3", "log2cu", "pi_log2sq"), ("pi4", "log2_4"),
    ("zeta5", "log2_5"), ("zeta3*zeta3", "pi*zeta5"),
    ("zeta3*pi4", "catalan*zeta5"), ("zeta3*zeta5",))


def _value(expr, prec):
    wp = prec + 32
    acc = MpReal.from_int(1, wp)
    for name in expr.split("*"):
        if name != "1":
            acc = acc.mul(eval_formula(name, wp), wp)
    return acc.round_to(prec)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_unrelated_values_are_never_found(data):
    n = data.draw(st.integers(3, 8))
    weights = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n,
                                 unique=True))
    exprs = [data.draw(st.sampled_from(_BY_WEIGHT[w])) for w in weights]
    digits = data.draw(st.integers(2, 8))
    P = required_bits(n, digits)
    res = pslq(RelationQuery(tuple(_value(e, P) for e in exprs),
                             max_digits=digits))
    assert res.status != "found", (exprs, P, res)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_unrelated_values_are_never_found_far_above_the_rule(data):
    # P well beyond required_bits: the search runs at a fraction of P,
    # the confirmation at all of it
    n = data.draw(st.integers(3, 8))
    weights = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n,
                                 unique=True))
    exprs = [data.draw(st.sampled_from(_BY_WEIGHT[w])) for w in weights]
    digits = data.draw(st.integers(2, 8))
    P = data.draw(st.integers(2 * required_bits(n, digits), 1024))
    res = pslq(RelationQuery(tuple(_value(e, P) for e in exprs),
                             max_digits=digits))
    assert res.status != "found", (exprs, P, res)


def _planted_tall(n, d, seed, P):
    # every entry in [10**d / 2, 10**d): the vector is within max_digits
    # entry by entry, though its Euclidean norm reaches sqrt(n) 10**d.
    # The other values are random, so the planted vector is the only
    # relation; a seeded generator keeps them so while shrinking
    rng = random.Random(seed)
    m = [rng.choice((-1, 1)) * rng.randrange(10 ** d // 2, 10 ** d)
         for _ in range(n)]
    w = P + 64
    xs = [rng.getrandbits(w) | 1 << (w - 1) for _ in range(n - 1)]
    vals = [MpReal.from_fixed(x, w, P) for x in xs]
    last = Q(-sum(mi * xi for mi, xi in zip(m, xs)), m[-1] << w)
    vals.append(MpReal.from_fraction(last, P))
    return m, tuple(vals)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.integers(2, 4), st.integers(0, 2**32))
def test_planted_tall_vectors_are_never_excluded(n, d, seed):
    m, vals = _planted_tall(n, d, seed, required_bits(n, d))
    res = pslq(RelationQuery(vals, max_digits=d))
    assert res.status == "found", (m, res)
    assert res.vector == _canonical(m)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_bits_beyond_the_search_precision_change_no_answer(data):
    # values at P bits are searched at W = required_bits + 64 + (t - b)
    # bits, t and b the largest and smallest bit_top, and answer as the
    # same query with its values rounded to W bits
    n = data.draw(st.integers(3, 8))
    d = data.draw(st.integers(2, 4))
    P = data.draw(st.integers(required_bits(n, d) + 64, 1024))
    m, vals = _planted_tall(n, d, data.draw(st.integers(0, 2**32)), P)
    tops = [v.bit_top() for v in vals]
    W = min(P, required_bits(n, d) + 64 + max(tops) - min(tops))
    res = pslq(RelationQuery(vals, max_digits=d))
    short = pslq(RelationQuery(tuple(v.round_to(W) for v in vals),
                               max_digits=d))
    assert res.status == "found", (m, P, res)
    assert res.vector == _canonical(m)
    assert (short.status, short.vector) == (res.status, res.vector)


# ----------------------------------------------------------------------
# the packed transforms of a level

_CAP = 1 << _TRANSFORM_BITS


def _random_values(n, seed, P):
    rng = random.Random(seed)
    w = P + 64
    return tuple(MpReal.from_fixed(rng.getrandbits(w) | 1 << (w - 1), w, P)
                 for _ in range(n))


def _levels(vals, d):
    """pslq's answer and, for each level it ran, its arguments and the
    transforms it returned."""
    runs, level = [], relfind._level

    def recorded(y, H, budget, stop):
        args = (list(y), [list(row) for row in H], budget, stop)
        out = level(y, H, budget, stop)
        runs.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relfind, "_level", recorded)
        res = pslq(RelationQuery(vals, max_digits=d))
    return res, runs


def _is_inverse(A, B):
    # B is stored by columns
    n = len(A)
    return all(sum(a * b for a, b in zip(A[i], B[j])) == (i == j)
               for i in range(n) for j in range(n))


_EDGES = (0, 1, -1, _CAP - 1, _CAP, _CAP + 1, -_CAP + 1, -_CAP, -_CAP - 1,
          (1 << _SLOT - 2) - _CAP, -(1 << _SLOT - 2) + _CAP)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 14).flatmap(lambda n: st.lists(
    st.sampled_from(_EDGES) | st.integers(-2 * _CAP, 2 * _CAP),
    min_size=n, max_size=n)))
def test_cap_test_and_unpacking_are_exact_at_the_edges(row):
    # around +-2**64, and out to the slot range in which the cap test
    # is exact
    n = len(row)
    X = sum(v << _SLOT * q for q, v in enumerate(row))
    bias, mask, want = _cap_masks(n)
    assert ((X + bias) & mask == want) == all(-_CAP <= v < _CAP for v in row)
    assert _unpack([X], n) == [row]


@pytest.mark.parametrize("n", [3, 14])
def test_unpacking_is_exact_at_the_slot_extremes(n):
    lo, hi = -(1 << _SLOT - 1), (1 << _SLOT - 1) - 1
    for row in ([lo] * n, [hi] * n, [lo, hi] * (n // 2) + [lo] * (n % 2)):
        X = sum(v << _SLOT * q for q, v in enumerate(row))
        assert _unpack([X], n) == [row]


def test_the_growth_allowance_keeps_the_cap_test_exact():
    # an entry within the cap that grows by _GROWTH bits stays where
    # the cap test and unpacking are exact
    assert _CAP << relfind._GROWTH <= (1 << _SLOT - 2) - _CAP


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 14), st.integers(2, 4), st.integers(0, 2**32),
       st.booleans(), st.sampled_from((_TRANSFORM_BITS, 8)))
def test_level_transforms_stay_exact_inverses_within_the_cap(
        n, d, seed, planted, cap_bits):
    # a cap of 2**8 ends most levels on it, which tests that the cap
    # test reads every row and column an iteration changes
    P = required_bits(n, d)
    vals = (_planted_tall(n, d, seed, P)[1] if planted
            else _random_values(n, seed, P))
    cap = 1 << cap_bits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relfind, "_TRANSFORM_BITS", cap_bits)
        _, runs = _levels(vals, d)
        assert runs
        for (y, H, budget, stop), (A, B, steps) in runs:
            assert 1 <= steps <= budget
            assert _is_inverse(A, B)
            # no slot spilled: even a stopped level stays in range
            assert all(abs(v) < 1 << _SLOT - 3 for row in A + B for v in row)
            # every iteration but the last left every entry within the
            # cap, or the level would have ended on it
            A1, B1, steps1 = relfind._level(y, H, steps - 1, stop)
            assert steps1 == steps - 1 and _is_inverse(A1, B1)
            assert all(-cap <= v < cap for row in A1 + B1 for v in row)


# a guard that stops each level at its second nonzero quotient, or at
# its first of more than one bit
_GUARD_CASES = {
    "readme": lambda: (_catalan_triple(512), 8),
    "f11-exclusion": lambda: (tuple(_f11_values(2048)[1:]), 30),
    **{f"planted-8-{seed}":
       (lambda seed=seed: (_planted_tall(8, 3, seed,
                                         required_bits(8, 3))[1], 3))
       for seed in range(3)},
}


@pytest.mark.parametrize("name", [
    pytest.param(k, marks=pytest.mark.slow) if k == "f11-exclusion" else k
    for k in _GUARD_CASES])
def test_a_level_stopped_by_the_growth_guard_changes_no_answer(name):
    vals, d = _GUARD_CASES[name]()
    res, runs = _levels(vals, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relfind, "_GROWTH", 1)
        guarded, guarded_runs = _levels(vals, d)
    assert (guarded.status, guarded.vector) == (res.status, res.vector)
    # the guard ended nearly every level after its first iteration
    assert 10 * len(guarded_runs) >= 9 * guarded.iterations
    assert all(_is_inverse(A, B) for _, (A, B, _) in guarded_runs)


def _reference_rotate(H, i, j, k):
    # the rotation with the new diagonal as a rounded division
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


def _reference_level(y, H, budget, stop):
    """The level with its row choice and exit test as full scans: every
    diagonal for the row choice; all of y, the diagonals of rows m and
    m+1, every row of A[m+1:] and column of B[:m+2] for the exit.  The
    module's constants are read at the call, so a patched cap or growth
    allowance applies to both."""
    n = len(y)
    sy = max(0, min(map(abs, y)).bit_length() - relfind._LEVEL_BITS)
    sh = max(0, min(abs(H[j][j]) for j in range(n - 1)).bit_length()
             - relfind._LEVEL_BITS)
    yl = [_shift(v, sy) for v in y]
    Hl = [[_shift(v, sh) for v in row] for row in H]
    A = [1 << _SLOT * i for i in range(n)]
    B = A[:]
    bias, mask, want = _cap_masks(n)
    floor = 1 << (relfind._LEVEL_BITS // 2)
    stop >>= sh
    k = _width(Hl) + relfind._TRANSFORM_BITS + 8
    steps = 0
    while steps < budget:
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
            _reference_rotate(Hl, m, m + 1, k)
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
                if grown > relfind._GROWTH:
                    return _unpack(A, n), _unpack(B, n), steps
                yl[j] += t * yl[i]
                Hj = Hl[j]
                for q in range(j + 1):
                    Hi[q] -= t * Hj[q]
                B[j] += t * B[i]
                A[i] -= t * A[j]
        if (min(map(abs, yl)) < floor
                or abs(Hl[m][m]) < floor
                or (m < n - 2 and abs(Hl[m + 1][m + 1]) < floor)
                or any((X + bias) & mask != want for X in A[m + 1:])
                or any((X + bias) & mask != want for X in B[:m + 2])):
            break
    return _unpack(A, n), _unpack(B, n), steps


@pytest.mark.parametrize("patch", [
    None, ("_TRANSFORM_BITS", 8), ("_GROWTH", 1)])
@settings(max_examples=15, deadline=None)
@given(st.integers(3, 14), st.integers(2, 4), st.integers(0, 2**32),
       st.booleans())
def test_level_matches_the_full_scan_on_every_level_a_query_runs(
        patch, n, d, seed, planted):
    # a cap of 2**8 ends most levels on a transform entry, and a growth
    # allowance of one bit ends most on the growth guard: between them
    # and the real constants every exit of the level fires
    P = required_bits(n, d)
    vals = (_planted_tall(n, d, seed, P)[1] if planted
            else _random_values(n, seed, P))
    with pytest.MonkeyPatch.context() as mp:
        if patch:
            mp.setattr(relfind, *patch)
        _, runs = _levels(vals, d)
        assert runs
        for (y, H, budget, stop), out in runs:
            assert out == _reference_level(y, H, budget, stop)


@settings(max_examples=300, deadline=None)
@given(*[st.integers(0, 4096).flatmap(
    lambda w: st.integers(-(1 << w), 1 << w))] * 2)
@example(3, 4).via("a perfect square: r = 0")
@example(-5, 12).via("a perfect square, a < 0")
@example(7, 0).via("b = 0 leaves H alone")
@example(-7, 0).via("b = 0 leaves a negative diagonal alone")
@example(1, 2).via("2r = d: 5/2 rounds up")
@example(1, 3).via("2r = d - 1: 10/3 rounds down")
@example(1, 1).via("2r = 3d - 1: 2/1 stays")
@example(3, 6).via("2r = 3d: 45/6 rounds up")
@example(2, 2).via("r = 2d: 8/2")
def test_rotation_reads_the_new_diagonal_from_the_isqrt_remainder(a, b):
    H = [[a, b], [5, 6]]
    _rotate(H, 0, 1, 16)
    if b == 0:
        assert H == [[a, 0], [5, 6]]
    else:
        norm2 = a * a + b * b
        assert H[0] == [_round_div(norm2, math.isqrt(norm2)), 0]


# padding of weights 1, 3, 4 and 5 for the weight-2 catalan triple
_PADDING = ("pi", "zeta3", "pi4", "zeta5")


def _padded_triple(k, prec):
    return list(_catalan_triple(prec)) + [eval_formula(c, prec)
                                          for c in _PADDING[:k]]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 4).flatmap(lambda k: st.permutations(range(3 + k))))
def test_planted_relation_follows_a_permutation(order):
    P = 512
    vals = _padded_triple(len(order) - 3, P)
    want = (1, -3, 2) + (0,) * (len(order) - 3)
    res = pslq(RelationQuery(tuple(vals[i] for i in order), max_digits=8))
    assert res.status == "found"
    assert res.vector == _canonical([want[i] for i in order])
    vals4 = _padded_triple(len(order) - 3, 4 * P)
    assert verify_vector(res.vector, [vals4[i] for i in order], 4 * P).passed


# every query above that expects "found": (values at a precision, bits,
# max_digits)
_FOUND = {
    "catalan": (_catalan_triple, 512, 8),
    "r3-256": (_r3_pair, 256, 8),
    "r3-512": (_r3_pair, 512, 8),
    "identical": (lambda p: (pi_const(p), pi_const(p)), 512, 4),
    "scaled": (lambda p: tuple(_times(v, Q(-7, 3), p)
                               for v in _catalan_triple(p)), 256, 8),
    "f11": (lambda p: tuple(_f11_values(p)), 2048, 23),
}


@pytest.mark.parametrize("name", [
    pytest.param(k, marks=pytest.mark.slow) if k == "f11" else k
    for k in _FOUND])
def test_found_vectors_hold_at_four_times_the_precision(name):
    build, P, digits = _FOUND[name]
    res = pslq(RelationQuery(tuple(build(P)), max_digits=digits))
    assert res.status == "found"
    # 96 guard bits cover the height of the f11 vector (2**73)
    assert verify_vector(res.vector, build(4 * P + 96), 4 * P).passed

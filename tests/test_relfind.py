"""Integer-relation detection and vector verification."""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from lihex.errors import DomainError, PrecisionError
from lihex.ladders import RELATIONS, _F11_LHS, _F11_LIS, _F11_MONS, _li_part_val
from lihex.mp.real import MpReal, log2_const, pi_const
from lihex.relfind import (RelationQuery, RelationResult, _canonical,
                           _pigeonhole, pslq, required_bits, verify_vector)
from lihex.series import Monomial, SeriesSpec, eval_formula, eval_series

F11_VECTOR = tuple([_F11_LHS] + [-c for c, _ in _F11_LIS]
                   + [-c for c, _ in _F11_MONS])


def _f11_values(wp):
    vals = [Monomial(zeta=11).value(wp)]
    vals += [_li_part_val(arg, 11, "re", wp) for _, arg in _F11_LIS]
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


@pytest.mark.parametrize("bits", [256, 512])
def test_recovers_equal_pair(bits):
    mem = RELATIONS["r3"].members(bits)
    lam, abar = mem[0].re, mem[1].re
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
    vals = tuple(v.mul(c, P) for v in _catalan_triple(P))
    res = pslq(RelationQuery(vals, max_digits=8))
    assert res.vector == (1, -3, 2)


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


@pytest.mark.slow
def test_recovers_fourteen_term_vector():
    P = 2048
    vals = _f11_values(P)
    res = pslq(RelationQuery(tuple(vals), max_digits=23))
    assert res.status == "found"
    assert res.vector == F11_VECTOR
    assert res.log2_residual < -1900


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
    q = RelationQuery((pi_const(256), log2_const(128)), max_digits=4)
    assert q.prec == 128


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


def test_verify_zero_vector_and_mismatch():
    vals = (pi_const(256), log2_const(256))
    rep = verify_vector((0, 0), vals, 256)
    assert rep.passed and rep.log2_residual == float("-inf")
    with pytest.raises(DomainError):
        verify_vector((1, 2, 3), vals, 256)


# ----------------------------------------------------------------------
# precision rule, pigeonhole gate and the certified bound

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


def _r3_pair(prec):
    mem = RELATIONS["r3"].members(prec)
    return mem[0].re, mem[1].re


# every query above that expects "found": (values at a precision, bits,
# max_digits)
_FOUND = {
    "catalan": (_catalan_triple, 512, 8),
    "r3-256": (_r3_pair, 256, 8),
    "r3-512": (_r3_pair, 512, 8),
    "identical": (lambda p: (pi_const(p), pi_const(p)), 512, 4),
    "scaled": (lambda p: tuple(v.mul(Q(-7, 3), p)
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

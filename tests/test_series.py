"""Formula catalog: every entry against an independent value of the
constant it claims to be, plus the series evaluator against an exact
rational reference sum."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lihex import series
from lihex.errors import UnknownName
from lihex.ladders import RELATIONS, check_relation
from lihex.mp import special as sp
from lihex.mp.real import MpReal, log2_const, pi_const, pow_int
from lihex.series import (IDENTITIES, Monomial, SeriesSpec, catalog,
                          derived_catalog, dump_catalog, eval_formula,
                          eval_series, load_catalog, solve_formulas)

P = 192


def _close(a, b, slack=16):
    d = a - b
    return d.is_zero or d.man.bit_length() + d.exp < -(P - slack)


def _mono(pi=0, log2=0):
    v = pow_int(pi_const(P + 32), pi, P + 32)
    return v.mul(pow_int(log2_const(P + 32), log2, P + 32), P)


# every catalog formula against the constant built from first
# principles: pi/log2 by AGM-free const routines, zeta/beta by the
# special-function module
REFERENCES = {
    "pi": lambda: pi_const(P),
    "pi_bellard": lambda: pi_const(P),
    "pi2": lambda: _mono(pi=2),
    "pi3": lambda: _mono(pi=3),
    "pi4": lambda: _mono(pi=4),
    "log2sq": lambda: _mono(log2=2),
    "log2cu": lambda: _mono(log2=3),
    "log2_4": lambda: _mono(log2=4),
    "log2_5": lambda: _mono(log2=5),
    "zeta3": lambda: sp.zeta(3, P),
    "zeta5": lambda: sp.zeta(5, P),
    "beta3": lambda: sp.dirichlet_beta(3, P),
    "beta3_alt": lambda: sp.dirichlet_beta(3, P),
    "catalan": lambda: sp.dirichlet_beta(2, P),
    "pi_log2": lambda: _mono(pi=1, log2=1),
    "pi_log2sq": lambda: _mono(pi=1, log2=2),
    "pi2_log2": lambda: _mono(pi=2, log2=1),
    "pi2_log2sq": lambda: _mono(pi=2, log2=2),
    "pi2_log2cu": lambda: _mono(pi=2, log2=3),
    "pi4_log2": lambda: _mono(pi=4, log2=1),
}


def test_catalog_is_exactly_the_twenty_formulas():
    assert set(catalog()) == set(REFERENCES)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_formula_matches_reference(name):
    assert _close(eval_formula(name, P), REFERENCES[name]())


def test_unknown_formula():
    with pytest.raises(UnknownName):
        eval_formula("nope", 64)


def test_catalog_serialization_roundtrip():
    text = dump_catalog(catalog().values())
    back = load_catalog(text)
    assert set(back) == set(catalog())
    for name, f in catalog().items():
        g = back[name]
        assert (g.scale, g.terms) == (f.scale, f.terms)
    # canonical form: dumping again is byte-identical
    assert dump_catalog(back.values()) == text


def _brute(spec: SeriesSpec, kmax: int) -> Fraction:
    total = Fraction(0)
    for k in range(1, kmax + 1):
        a = spec.pattern[(k - 1) % 8]
        if a:
            total += Fraction(a, k**spec.n << spec.exponent(k))
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6),
       st.lists(st.integers(-9, 9), min_size=8, max_size=8))
def test_eval_series_matches_rational_sum(n, p, pattern):
    if not any(pattern):
        return
    spec = SeriesSpec(n, p, tuple(pattern))
    prec = 96
    got = eval_series(spec, prec).to_fraction()
    kmax = 2 * (prec + 40) // p + 8
    want = _brute(spec, kmax)
    assert abs(got - want) < Fraction(1, 1 << (prec - 8))


def test_monomial_values():
    m = Monomial(pi=2, log2=1, zeta=3)
    want = _mono(pi=2, log2=1).mul(sp.zeta(3, P), P)
    assert _close(m.value(P), want)
    assert Monomial().value(P).to_fraction() == 1


def test_series_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(0, 1, (1,) * 8)
    with pytest.raises(ValueError):
        SeriesSpec(1, 7, (1,) * 8)
    with pytest.raises(ValueError):
        SeriesSpec(1, 1, (1, 2, 3))


# sha256 of the canonical dump of the eight solved formulas; any change
# to the identity table or the elimination that alters a formula moves it
DERIVED_SHA256 = (
    "188a7f6bd54577c6770f48a36dea3f47b18c578e1c73fcb5702c2eac64f6bfaf")


def test_derived_catalog_is_pinned():
    text = dump_catalog(derived_catalog().values())
    assert hashlib.sha256(text.encode()).hexdigest() == DERIVED_SHA256


def test_derived_formulas_come_from_checked_identities(monkeypatch):
    used = []

    def recording(identities, targets):
        used.extend(identities)
        return solve_formulas(identities, targets)

    monkeypatch.setattr(series, "solve_formulas", recording)
    series._derived.cache_clear()
    try:
        derived_catalog()
    finally:
        series._derived.cache_clear()
    assert {i.name for i in used} == {
        "i2", "i3", "r3", "r4b", "r4c", "r4d", "r4e", "r5"}
    for ident in used:
        assert IDENTITIES[ident.name] is ident
        assert RELATIONS[ident.name].status == ident.status
        assert check_relation(ident.name, 512).passed

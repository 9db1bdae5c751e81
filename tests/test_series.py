"""Formula catalog: every entry against an independent value of the
constant it claims to be, plus the series evaluator against an exact
rational reference sum."""

import cmath
import hashlib
import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lihex import series
from lihex.errors import (DomainError, PrecisionError, RankDeficient,
                          UnknownName, UnsupportedArgument)
from lihex.ladders import RELATIONS, check_relation, eval_ladder
from lihex.mp import special as sp
from lihex.ladders import _log2_top
from lihex.mp.real import (MpReal, _atan_fixed, _ln_fixed, _log2_fixed,
                           _pi_fixed, pow_int)
from lihex.series import (IDENTITIES, Monomial, SeriesSpec, catalog,
                          derived_catalog, eval_formula, eval_series,
                          polylog_pattern, solve_formulas)

P = 192


def pi_const(p: int) -> MpReal:
    return MpReal.from_fixed(_pi_fixed(p + 16), p + 16, p)


def log2_const(p: int) -> MpReal:
    return MpReal.from_fixed(_log2_fixed(p + 16), p + 16, p)


def _close(a, b, slack=16):
    d = a.to_fraction() - b.to_fraction()
    return d == 0 or _log2_top(abs(d.numerator), d.denominator) < -(P - slack)


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


def _brute(spec: SeriesSpec, kmax: int) -> Fraction:
    total = Fraction(0)
    for k in range(1, kmax + 1):
        a = spec.pattern[(k - 1) % 8]
        if a:
            total += Fraction(a, k**spec.n << spec.p * (k + 1) // 2)
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


def _div0(n: int, d: int) -> int:
    return -((-n) // d) if n < 0 else n // d


def _per_term_fixed(spec: SeriesSpec, wp: int) -> tuple[int, int]:
    """The fixed-point sum term by term, each term truncated toward zero,
    up to e = wp + bitlen(max|a|) + 8: (S * 2^wp, terms summed + 1)."""
    bits_a = max(abs(c) for c in spec.pattern).bit_length()
    acc = terms = 0
    k = 1
    while bits_a:
        e = spec.p * (k + 1) // 2
        if e > wp + bits_a + 8:
            break
        a = spec.pattern[(k - 1) & 7]
        if a:
            kn = k ** spec.n
            if e <= wp:
                acc += _div0(a << (wp - e), kn)
            else:
                acc += _div0(a, kn << (e - wp))
            terms += 1
        k += 1
    return acc, terms + 1


# At wp >= 64 the last nonzero term of a class lies at least 5 bits
# below e = wp + bitlen(|a_r|); the first example has one exactly there
# (k = 27, a_3 = 2^25 - 1), so a class that stops short of it fails.
@settings(max_examples=150, deadline=None)
@example(1, 6, [0, 0, 2**25 - 1, 0, 0, 0, 0, 0], 64)
@example(1, 6, [99999999, 0, -100000000, 0, 0, 7, 0, -1], 64)
@example(2, 1, [3, -100000000, 0, 0, 1, 0, 0, 0], 3000)
@given(st.integers(1, 12), st.integers(1, 6),
       st.lists(st.one_of(st.just(0), st.integers(-10**8, 10**8)),
                min_size=8, max_size=8),
       st.integers(64, 3000))
def test_class_sums_give_the_per_term_sum_bit_for_bit(n, p, pattern, wp):
    spec = SeriesSpec(n, p, tuple(pattern))
    assert series._series_fixed(spec, wp) == _per_term_fixed(spec, wp)
    # each class sum is a function of (n, p, r, |a_r|, wp) alone
    for r, a in enumerate(pattern):
        if a:
            one = SeriesSpec(n, p, tuple(abs(a) if i == r else 0
                                         for i in range(8)))
            assert (series._class_sums(n, r, abs(a), wp, [p])
                    == [_per_term_fixed(one, wp)[0]])


# one pass over p0 = min(ps) gives each larger p by right shifts; at
# wp = 3000 a pass makes its quotients in 9 chunks of 87
@settings(max_examples=150, deadline=None)
@example(1, 0, 1, 3000, [1, 2, 3, 4, 5, 6])
@example(3, 5, 100000000, 64, [2, 5])
@example(12, 7, 99999999, 2999, [1, 6])
@given(st.integers(1, 12), st.integers(0, 7), st.integers(1, 10**8),
       st.integers(64, 3000),
       st.sets(st.integers(1, 6), min_size=1).map(sorted))
def test_grouped_class_sums_equal_single_power_sums(n, r, m, wp, ps):
    assert series._class_sums(n, r, m, wp, ps) == [
        series._class_sums(n, r, m, wp, [p])[0] for p in ps]


def test_a_class_sum_keeps_one_term_at_a_time():
    # 8192 terms of about 2^15 bits each: a list of them all held 17 MB,
    # so peak memory grew with the square of the precision; a pass holds
    # a bounded chunk of quotients, however many powers it serves
    for ps in ([1], [1, 2, 5]):
        tracemalloc.start()
        try:
            series._class_sums(1, 0, 1, 1 << 15, ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_a_lone_atom_divides_at_its_own_power_alone(clear_caches,
                                                    monkeypatch):
    # an atom's classes are summed at its power p, never at a smaller
    # one that would serve p by shifts; a formula over p = 1 and p = 5
    # shares a pass for the classes its two atoms both hold
    divided = series._class_sums
    passes = []

    def record(n, r, m, wp, ps):
        passes.append(tuple(ps))
        return divided(n, r, m, wp, ps)

    monkeypatch.setattr(series, "_class_sums", record)
    clear_caches()
    eval_series(SeriesSpec(3, 5, (1, 1, 1, 0, -1, -1, -1, 0)), 256)
    assert passes == [(5,)] * 6
    passes.clear()
    eval_formula("pi", 256)
    assert passes == [(1,)] * 4
    passes.clear()
    clear_caches()
    eval_formula("pi_bellard", 256)
    assert sorted(passes) == [(1, 5)] * 2 + [(5,)] * 4


def test_values_above_the_precision_ceiling_are_refused_before_summing(
        monkeypatch):
    # a request one bit above MpReal's 2^23-bit ceiling would sum for
    # hours before the rounding refused it
    def summed(*args):
        raise AssertionError("an atom was summed")

    monkeypatch.setattr(series, "_series_fixed", summed)
    monkeypatch.setattr(series, "_monomial_fixed", summed)
    over = (1 << 23) + 1
    spec = SeriesSpec(1, 1, (1, 0, 0, -1, -1, -1, 0, 0))
    for request in (lambda: eval_formula("pi", over),
                    lambda: eval_series(spec, over),
                    lambda: Monomial(pi=1).value(over),
                    lambda: eval_ladder("A", 2, over)):
        start = time.perf_counter()
        with pytest.raises(PrecisionError):
            request()
        assert time.perf_counter() - start < 1
    series._refuse_above_ceiling(1 << 23)     # the ceiling itself is served


def test_eval_series_error_is_absolute_for_large_atoms():
    # an atom of pi2_log2cu with |S| = 8490.5: prec significant bits
    # alone would leave an error near 2^-248 at 256 bits
    big = SeriesSpec(5, 3, (65725, 143736, -65725, -209461,
                            -65725, 143736, 65725, -78011))
    prec = 256
    want = _brute(big, 2 * (prec + 64) // 3 + 8)
    assert abs(eval_series(big, prec).to_fraction() - want) \
        < Fraction(1, 1 << prec)
    # atoms with |S| < 16 keep prec significant bits
    small = SeriesSpec(2, 1, (1, -1, 1, 0, -1, 1, -1, 0))
    assert eval_series(small, prec).man.bit_length() == prec + 4


def test_monomial_values():
    m = Monomial(pi=2, log2=1, zeta=3)
    want = _mono(pi=2, log2=1).mul(sp.zeta(3, P), P)
    assert _close(m.value(P), want)
    assert Monomial().value(P).to_fraction() == 1


# sha256 of the JSON list of [name, bits, value] over eval_formula and
# [a, b, bits, value] over pi^a log2^b, each value as [sign, hexadecimal
# mantissa, exponent, prec]: a change to the evaluator that moves one
# bit of one value moves it
VALUE_SHA256 = (
    "e9e393bc00846ae443a29e4275efd20e09f9d38518b36921bb4616c8562d1a29")


def _fields(v: MpReal) -> list:
    return [v.sign, f"{v.man:x}", v.exp, v.prec]


def test_values_are_pinned():
    rows = [[name, bits, _fields(eval_formula(name, bits))]
            for bits in (64, 128, 256, 300, 544, 1056, 2080)
            for name in sorted(catalog())]
    rows += [[a, b, bits, _fields(Monomial(pi=a, log2=b).value(bits))]
             for bits in (128, 544, 2080)
             for a in range(13) for b in range(13 - a)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == VALUE_SHA256


@pytest.mark.parametrize("m", [Monomial(log2=11), Monomial(log2=100),
                               Monomial(log2=200),
                               Monomial(pi=3, log2=7, zeta=3, beta=4),
                               Monomial(pi=1, sqrt2=1)])
def test_monomial_value_keeps_relative_accuracy(m):
    # log2^200 is about 2^-106: a working precision fixed above the
    # binary point would leave it far fewer than 256 significant bits
    wp = 4 * 256
    want = pow_int(pi_const(wp), m.pi, wp).mul(
        pow_int(log2_const(wp), m.log2, wp), wp)
    if m.zeta:
        want = want.mul(sp.zeta(m.zeta, wp), wp)
    if m.beta:
        want = want.mul(sp.dirichlet_beta(m.beta, wp), wp)
    for _ in range(m.sqrt2):
        want = want.mul(MpReal.from_fixed(math.isqrt(2 << 2 * wp), wp, wp), wp)
    want = want.to_fraction()
    got = m.value(256).to_fraction()
    assert abs(got - want) <= abs(want) / (1 << 252)


def test_series_spec_validation():
    with pytest.raises(DomainError):
        SeriesSpec(0, 1, (1,) * 8)
    with pytest.raises(DomainError):
        SeriesSpec(1, 7, (1,) * 8)
    with pytest.raises(DomainError):
        SeriesSpec(1, 1, (1, 2, 3))
    with pytest.raises(PrecisionError):
        eval_series(SeriesSpec(1, 1, (1,) * 8), 31)
    with pytest.raises(DomainError):
        polylog_pattern("1/2", 2, "abs")
    with pytest.raises(UnsupportedArgument):
        polylog_pattern("1/3", 2, "re")


@pytest.mark.parametrize("cls, args, kwargs", [
    (SeriesSpec, (2, 1, (Fraction(3, 2),) + (0,) * 7), {}),
    (SeriesSpec, (2, 1, (True,) + (0,) * 7), {}),
    (SeriesSpec, (2.0, 1, (1,) * 8), {}),
    (SeriesSpec, (2, True, (1,) * 8), {}),
    (Monomial, (), {"pi": -1}),
    (Monomial, (), {"zeta": 1}),
    (Monomial, (), {"zeta": -2}),
    (Monomial, (), {"log2": 1.0}),
    (Monomial, (), {"beta": True}),
])
def test_atoms_refuse_values_they_cannot_represent(cls, args, kwargs):
    with pytest.raises(DomainError):
        cls(*args, **kwargs)


# the sixteen special arguments written independently as complex literals
R2 = 2 ** -0.5
ARGUMENT_LITERALS = {
    "1/2": 0.5, "-1/2": -0.5, "-1/4": -0.25, "-1/8": -0.125,
    "(1+i)/2": 0.5 + 0.5j, "(1-i)/2": 0.5 - 0.5j,
    "(1+i)/4": 0.25 + 0.25j, "(1-i)/4": 0.25 - 0.25j,
    "(1+i)/8": 0.125 + 0.125j, "(1-i)/8": 0.125 - 0.125j,
    "i/2": 0.5j, "-i/2": -0.5j,
    "i/sqrt2": R2 * 1j, "-i/sqrt2": -R2 * 1j,
    "i/sqrt8": R2 / 2 * 1j, "-i/sqrt8": -R2 / 2 * 1j,
}


def test_argument_table_matches_literals():
    assert set(series.ARGUMENTS) == set(ARGUMENT_LITERALS)
    for name, z in ARGUMENT_LITERALS.items():
        p = next(p for p in range(1, 7) if abs(z ** 8 * 16 ** p - 1) < 1e-9)
        assert series.ARGUMENTS[name][0] == p
        j = series.ARGUMENTS[name][1]
        assert abs(2 ** (-p / 2) * cmath.exp(1j * cmath.pi * j / 4) - z) \
            < 1e-15


def _gpow(re: Fraction, im: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """(re + i im)^k by repeated multiplication."""
    ar, ai = Fraction(1), Fraction(0)
    for _ in range(abs(k)):
        ar, ai = ar * re - ai * im, ar * im + ai * re
    if k < 0:
        d = ar * ar + ai * ai
        ar, ai = ar / d, -ai / d
    return ar, ai


# z^2 of the four arguments whose parts are irrational
SQRT2_SQUARES = {"i/sqrt2": Fraction(-1, 2), "-i/sqrt2": Fraction(-1, 2),
                 "i/sqrt8": Fraction(-1, 8), "-i/sqrt8": Fraction(-1, 8)}


@pytest.mark.parametrize("name", sorted(ARGUMENT_LITERALS))
def test_exact_parts_of_argument_powers(name):
    z = ARGUMENT_LITERALS[name]
    for k in range(-12, 13):
        if name not in SQRT2_SQUARES:
            want = _gpow(Fraction(z.real), Fraction(z.imag), k)
        elif k % 2 == 0:
            want = _gpow(SQRT2_SQUARES[name], Fraction(0), k // 2)
        else:
            assert series._exact_part(name, k, "re") == 0
            with pytest.raises(UnsupportedArgument):
                series._exact_part(name, k, "im")
            continue
        got = (series._exact_part(name, k, "re"),
               series._exact_part(name, k, "im"))
        assert got == want, (name, k)


@pytest.mark.parametrize("name", sorted(ARGUMENT_LITERALS))
def test_polylog_pattern_against_literal_powers(name):
    z = ARGUMENT_LITERALS[name]
    p = series.ARGUMENTS[name][0]
    for part in ("re", "im"):
        want = []
        for k in range(1, 9):
            zk = z ** k
            want.append((zk.real if part == "re" else zk.imag)
                        * 2 ** ((p * (k + 1)) // 2))
        integral = all(abs(w - round(w)) < 1e-9 for w in want)
        for n in range(1, 12):
            if not integral:
                with pytest.raises(UnsupportedArgument):
                    polylog_pattern(name, n, part)
                continue
            got = [0] * 8
            for coef, spec in polylog_pattern(name, n, part):
                assert (spec.n, spec.p) == (n, p)
                got = [g + coef * a for g, a in zip(got, spec.pattern)]
            assert all(abs(g - w) < 1e-9 for g, w in zip(got, want))


@pytest.mark.parametrize("bits", [256, 1024])
def test_h1_rows_against_complex_logarithms(bits):
    # Li_1(z) = -log(1 - z) at four times the precision, as (re, im):
    # Li_1(1/2) = ln 2, Li_1(i/sqrt2) = -ln(3/2)/2 + i atan(1/sqrt2) and
    # Li_1(-i/sqrt8) = -ln(9/8)/2 - i atan(1/sqrt8).  Against them: the
    # sqrt2-scaled S-atoms of the imaginary parts, the real parts' S-basis
    # expansions, and h1 itself, Li_1(-i/sqrt8) - 2 Li_1(i/sqrt2) -
    # Li_1(1/2)/2 = -i pi/2
    wp = 4 * bits
    r2 = math.isqrt(2 << 2 * wp)  # sqrt 2 at wp fixed-point bits

    def half_ln(q):
        return -_ln_fixed(q, wp) // 2

    li1 = {"1/2": (_ln_fixed(Fraction(2), wp), 0),
           "i/sqrt2": (half_ln(Fraction(3, 2)), _atan_fixed(r2 >> 1, wp)),
           "-i/sqrt8": (half_ln(Fraction(9, 8)), -_atan_fixed(r2 >> 2, wp))}

    def close(a, b):
        # a and b at wp fixed-point bits
        return abs(a - b) < Fraction(1 << wp, 1 << (bits - 8))

    c = (1, 0, -1, 0, 1, 0, -1, 0)
    s11 = eval_series(SeriesSpec(1, 1, c), wp).to_fixed(wp)
    s13 = eval_series(SeriesSpec(1, 3, c), wp).to_fixed(wp)
    assert close(li1["i/sqrt2"][1], r2 * s11 >> wp)
    assert close(li1["-i/sqrt8"][1], -2 * (r2 * s13 >> wp))
    for arg, v in li1.items():
        (coef, spec), = polylog_pattern(arg, 1, "re")
        assert close(v[0], eval_series(spec, wp).to_fixed(wp) * coef)
    h1 = [a - 2 * b - Fraction(c, 2)
          for a, b, c in zip(li1["-i/sqrt8"], li1["i/sqrt2"], li1["1/2"])]
    assert close(h1[0], 0)
    assert close(h1[1], Fraction(-_pi_fixed(wp), 2))
    assert check_relation("h1", bits).log2_bound <= -(bits - 64) - 16


def _dump(formulas) -> str:
    """Deterministic JSON for a formula collection."""
    recs = sorted(({
        "name": f.name,
        "scale": [f.scale.numerator, f.scale.denominator],
        "terms": [{"coef": [c.numerator, c.denominator],
                   "n": s.n, "p": s.p, "pattern": list(s.pattern)}
                  for c, s in f.terms],
        "description": f.description,
        "label": f.label,
    } for f in formulas), key=lambda r: r["name"])
    return json.dumps(recs, sort_keys=True, separators=(",", ":"))


# sha256 of the canonical dump of the eight solved formulas; any change
# to the identity table or the elimination that alters a formula moves it
DERIVED_SHA256 = (
    "188a7f6bd54577c6770f48a36dea3f47b18c578e1c73fcb5702c2eac64f6bfaf")


def test_derived_catalog_is_pinned():
    text = _dump(derived_catalog().values())
    assert hashlib.sha256(text.encode()).hexdigest() == DERIVED_SHA256


def test_derived_formulas_come_from_checked_identities(monkeypatch):
    used = []

    def recording(identities, targets):
        used.extend(identities)
        return solve_formulas(identities, targets)

    monkeypatch.setattr(series, "solve_formulas", recording)
    series._solved.cache_clear()
    series._derived.cache_clear()
    try:
        derived_catalog()
    finally:
        series._solved.cache_clear()
        series._derived.cache_clear()
    assert {i.name for i in used} == {
        "i2", "i3", "r3", "r4b", "r4c", "r4d", "r4e", "r5"}
    for ident in used:
        assert IDENTITIES[ident.name] is ident
        assert RELATIONS[ident.name].status == ident.status
        assert check_relation(ident.name, 512).passed


def test_a_derived_formula_solves_only_its_own_identities(clear_caches,
                                                           monkeypatch):
    # pi3 comes from i3 alone, and beta3_alt, which i3 also gives, needs
    # no second elimination; the whole catalog then solves the rest once
    solved = []

    def recording(identities, targets):
        solved.append(tuple(i.name for i in identities))
        return solve_formulas(identities, targets)

    monkeypatch.setattr(series, "solve_formulas", recording)
    clear_caches()
    pi3 = series._formula("pi3")
    assert solved == [("i3",)]
    assert series._formula("beta3_alt").terms == pi3.terms
    assert solved == [("i3",)]
    assert derived_catalog()["pi3"] is pi3
    assert sorted(solved) == [("i2",), ("i3",), ("r3",),
                              ("r4b", "r4c", "r4d", "r4e"), ("r5",)]


# sha256 of every identity's integer rows: its denominator, each atom's
# repr with its column of coefficients, and the mass bound.  The derived
# formulas are solved from these rows, and the checks sum them
ROWS_SHA256 = (
    "af358f8f45019d9c1886bf4367e9cdeb6541e7e939d3c9685685461e171914aa")


def test_identity_rows_are_pinned():
    recs = []
    for name, ident in IDENTITIES.items():
        rows = ident.rows()
        recs.append([name, rows.den,
                     [[repr(a), [row[i] for row in rows.coefs]]
                      for i, a in enumerate(rows.atoms)],
                     rows.mass_bits])
    text = json.dumps(recs, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == ROWS_SHA256


@pytest.mark.parametrize("target, message", [
    (Monomial(zeta=3), "target zeta(3) never appears in the relations"),
    # log2^4 takes r4b's one pivot, so pi^2 log2^2 has none
    (Monomial(pi=2, log2=2), "target pi^2*log2^2 is not determined"),
    (Monomial(log2=4),
     "target log2^4 is entangled with free monomials"),
])
def test_an_undetermined_target_is_rank_deficient(target, message):
    with pytest.raises(RankDeficient) as err:
        solve_formulas([IDENTITIES["r4b"]], [target])
    assert str(err.value) == message


def test_a_solved_sqrt2_monomial_is_named_for_its_factor():
    # h1's imaginary part: S_{1,1}(c) + S_{1,3}(c) = (sqrt2/8) pi
    target = Monomial(pi=1, sqrt2=1)
    f, = solve_formulas([IDENTITIES["h1"]], [target])
    assert f.name == "pi_sqrt2" and f.name not in catalog()
    assert _close(f.value(P), target.value(P), slack=2)

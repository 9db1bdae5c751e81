"""The identity suite: every catalog relation at 512 bits and the
high-precision 14-term zeta(11) relation."""

import dataclasses
import hashlib
import json
from fractions import Fraction as Q
from types import MappingProxyType

import pytest

import lihex.hyper  # noqa: F401  (its memos must be present to be cleared)
from lihex import series
from lihex.errors import PrecisionError, UndefinedOrder, UnknownName
from lihex.ladders import (RELATIONS, CheckReport, _fixed_sums, _log2_top,
                           check_all, check_relation, eval_ladder,
                           relation_names)
from lihex.mp import special as sp
from lihex.mp.real import MpReal
from lihex.series import IDENTITIES, Monomial, catalog, eval_formula

SUITE_512 = {
    "r1", "r2", "i2", "r3", "i3",
    "r4b", "r4c", "r4d", "r4e", "i4g", "i4h",
    "r5c", "r51", "r52", "qef", "n5h", "r5",
    "b6", "z7", "z9", "z11", "cat",
    "w21", "w23", "w25", "h21", "h22", "h23",
    "w11", "w13", "w15", "h1",
}


def test_full_suite_at_512_bits():
    reports = check_all(512)
    assert {r.name for r in reports} == SUITE_512
    assert len(reports) == 32
    for r in reports:
        assert r.passed, f"{r.name}: 2^{r.log2_residual}"
        assert r.log2_residual < -448


# sha256 of the JSON list of (name, bits, repr(log2_residual),
# repr(log2_bound), passed) over check_all(bits): any change to an
# argument, a table entry or the fixed-point evaluation that moves a
# single residual or bound bit moves it
RESIDUAL_SHA256 = {
    256: "331d789fc3206e4edc87f46903921bbf7330dba1e12271f996d54b427609835a",
    512: "bde391b3aad607f4cf2ed41dfe3b775c1ccef9b16d8d1a84f9e21504bc134b4b",
    1024: "a848ca7737bb83449d9f3245125ef767c1c23de20527b02169610c63bcc49a9c",
    2048: "4ed92213772b7785ea2f1a33ba8f723d8ec2f139d3ea792be483a453c00f3aa7",
}


@pytest.mark.parametrize("bits", sorted(RESIDUAL_SHA256))
def test_relation_residuals_are_pinned(bits):
    rows = [[r.name, r.bits, repr(r.log2_residual), repr(r.log2_bound),
             r.passed] for r in check_all(bits)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == RESIDUAL_SHA256[bits]


@pytest.mark.parametrize("bits", [256, 512, 1024, 2048])
def test_every_report_passes_with_its_bound_16_bits_clear(bits):
    reports = check_all(bits)
    assert len(reports) == (33 if bits >= 1024 else 32)
    for r in reports:
        assert r.passed, r
        assert r.log2_bound <= -(bits - 64) - 16, r


@pytest.mark.parametrize("bits", [256, 512, 1024])
def test_bounds_cover_the_error_at_four_times_the_precision(bits):
    # a row sum t at wp bits and t4 at wp4 bits, bounds b and b4: if both
    # bounds hold, |t 2^(wp4-wp) - t4| <= b 2^(wp4-wp) + b4
    for rel in RELATIONS.values():
        if bits < rel.min_bits:
            continue
        rows = rel.rows()
        wp, sums = _fixed_sums(rows, bits)
        wp4, sums4 = _fixed_sums(rows, 4 * bits)
        for (t, b), (t4, b4) in zip(sums, sums4):
            shift = wp4 - wp
            assert abs((t << shift) - t4) <= (b << shift) + b4, \
                (rel.name, bits)


def test_working_precision_follows_the_coefficient_mass():
    # prec + 32 bits cover every row but f11's, whose mass is 2^74.9
    masses = {i.name: i.rows().mass_bits for i in IDENTITIES.values()}
    assert masses.pop("f11") == 75
    assert max(masses.values()) == masses["z11"] == 19
    rows = IDENTITIES["f11"].rows()
    assert _fixed_sums(rows, 1024)[0] == 1024 + 75
    assert _fixed_sums(IDENTITIES["z11"].rows(), 1024)[0] == 1024 + 32


def _with_unit_term(monkeypatch, name: str, delta: Q) -> None:
    """Add delta times the rational unit to the last side of the first
    part (the real one) of relation `name`."""
    rel = RELATIONS[name]
    sides = rel.sides[:-1] + (rel.sides[-1] + ((delta, Monomial()),),)
    monkeypatch.setitem(RELATIONS, name, dataclasses.replace(rel, sides=sides))


@pytest.mark.parametrize("name,bits", [("r3", 256), ("w21", 512),
                                       ("z11", 256), ("f11", 1024),
                                       ("h1", 256)])
def test_threshold_is_sharp(monkeypatch, name, bits):
    threshold = Q(1, 1 << (bits - 64))
    _with_unit_term(monkeypatch, name, threshold * (1 - Q(1, 1 << 16)))
    assert check_relation(name, bits).passed
    _with_unit_term(monkeypatch, name, threshold * (1 + Q(1, 1 << 16)))
    assert not check_relation(name, bits).passed


def test_complex_relations_are_rows_of_the_table():
    # one entry per relation, with a row for each side but the first of
    # each part
    for name in ("w21", "w23", "w25", "w11", "w13", "w15", "h1"):
        ident = IDENTITIES[name]
        assert ident.im_sides
        assert len(ident.rows().coefs) == (
            len(ident.sides) - 1 + len(ident.im_sides) - 1), name
    h21 = IDENTITIES["h21"]
    assert h21.im_sides == ()
    assert len(h21.rows().coefs) == len(h21.sides) - 1
    assert not any("." in key for key in IDENTITIES)


def test_relation_names_and_floors_are_pinned():
    # the benchmark's identities workload draws its requests from the
    # names in this order and their floors, so a reorder or a new floor
    # would change it silently
    names = ["r1", "r2", "i2", "r3", "i3", "r4b", "r4c", "r4d", "r4e",
             "i4g", "i4h", "r5c", "r51", "r52", "qef", "n5h", "r5", "b6",
             "z7", "z9", "z11", "cat", "h22", "h23", "f11", "w21", "w23",
             "w25", "h21", "w11", "w13", "w15", "h1"]
    numeric = {"qef", "n5h", "b6", "z7", "z9", "z11", "f11"}
    assert relation_names() == names
    assert [(RELATIONS[r].min_bits, RELATIONS[r].status) for r in names] == [
        (1024 if r == "f11" else 256, "numeric" if r in numeric else "proven")
        for r in names]


def test_f11_at_1024_bits():
    rep = check_relation("f11", 1024)
    assert rep.passed and rep.log2_residual < -960


def test_f11_rejects_low_precision():
    with pytest.raises(PrecisionError):
        check_relation("f11", 512)


def test_check_all_refuses_precision_below_every_relation():
    # an empty list of reports would pass without checking anything
    with pytest.raises(PrecisionError):
        check_all(255)


def test_checks_above_the_precision_ceiling_are_refused_before_summing(
        monkeypatch):
    # f11 one bit above MpReal's 2^23-bit ceiling would sum until stopped
    def summed(*args):
        raise AssertionError("a row was summed")

    monkeypatch.setattr("lihex.ladders._fixed_sums", summed)
    over = (1 << 23) + 1
    for request in (lambda: check_relation("f11", over),
                    lambda: check_all(over)):
        with pytest.raises(PrecisionError, match="ceiling"):
            request()


def test_unknown_relation_name():
    with pytest.raises(UnknownName):
        check_relation("zz99", 256)


def test_perturbed_coefficient_is_caught(monkeypatch, clear_caches):
    # poison one rational in the order-4 table by 2^-100 and make sure
    # the checker notices; the sibling relations must keep passing.  The
    # table is read-only, so the test swaps in a perturbed copy
    with pytest.raises(TypeError):
        series._R4_RHS["r4b"] = series._R4_RHS["r4b"]
    table = dict(series._R4_RHS)
    name, acoef, z4c = table["r4b"]
    table["r4b"] = (name, acoef, z4c + Q(1, 1 << 100))
    monkeypatch.setattr(series, "_R4_RHS", MappingProxyType(table))
    clear_caches()
    assert not check_relation("r4b", 256).passed
    assert check_relation("r4c", 256).passed


def test_abar3_is_seven_eighths_zeta3():
    P = 256
    got = eval_ladder("Abar", 3, P).to_fraction()
    d = got - sp.zeta(3, P + 32).to_fraction() * Q(7, 8)
    assert d == 0 or _log2_top(abs(d.numerator), d.denominator) < -(P - 16)


def test_tilde_combinations_vanish():
    for name in ("Btilde", "Ctilde", "Dtilde", "Etilde", "Htilde"):
        for n in (2, 3, 4):
            v = eval_ladder(name, n, 192)
            assert v.is_zero or v.man.bit_length() + v.exp < -150, (name, n)


def test_eval_ladder_guards():
    with pytest.raises(UnknownName):
        eval_ladder("Qbar", 2, 128)
    with pytest.raises(UndefinedOrder):
        eval_ladder("Abar", 12, 128)


def test_report_shape():
    rep = check_relation("r1", 256)
    assert isinstance(rep, CheckReport)
    assert rep.bits == 256 and isinstance(rep.log2_residual, float)
    assert RELATIONS["r1"].status == "proven"


def _suite(order: tuple[int, ...]) -> tuple[dict, dict]:
    values, reports = {}, {}
    for bits in order:
        for name in catalog():
            v = eval_formula(name, bits)
            values[name, bits] = (v.sign, v.man, v.exp, v.prec)
        for r in check_all(bits):
            reports[r.name, bits] = r
    return values, reports


def test_atoms_share_their_class_sums(clear_caches, monkeypatch):
    # a cold check_all sums each (n, p, r, |a_r|, wp) class once, however
    # many (spec, wp) atoms hold it, and each check makes at most one
    # division pass per (n, r, |a_r|, wp) group: one pass serves every
    # power of a group that its atoms lack
    clear_caches()
    used, passes = set(), []
    summed, divided = series._series_fixed, series._class_sums
    atom_values = series._atom_values

    def record(spec, wp):
        used.add((spec, wp))
        return summed(spec, wp)

    def record_pass(n, r, m, wp, ps):
        passes.append((n, r, m, wp, tuple(ps)))
        return divided(n, r, m, wp, ps)

    def one_pass_per_group(rows, wp):
        start = len(passes)
        out = atom_values(rows, wp)
        groups = [g[:4] for g in passes[start:]]
        assert len(groups) == len(set(groups))
        return out

    monkeypatch.setattr(series, "_series_fixed", record)
    monkeypatch.setattr(series, "_class_sums", record_pass)
    monkeypatch.setattr(series, "_atom_values", one_pass_per_group)
    check_all(256)
    classes = [(spec.n, spec.p, r, abs(a), wp) for spec, wp in used
               for r, a in enumerate(spec.pattern) if a]
    summed_once = [(n, p, r, m, wp) for n, r, m, wp, ps in passes for p in ps]
    assert sorted(summed_once) == sorted(set(classes))
    assert series._class_group.cache_info().currsize == len(
        {(n, r, m, wp) for n, _, r, m, wp in classes})
    assert len(set(classes)) < len(classes)
    assert len(passes) < len(summed_once)


def test_results_do_not_depend_on_earlier_requests(clear_caches):
    assert clear_caches() >= {
        "_pi_fixed", "_log2_fixed", "zeta", "dirichlet_beta",
        "gamma", "_polylog", "_series_fixed", "_class_group",
        "_derived"}
    up = _suite((256, 300))
    clear_caches()
    down = _suite((300, 256))
    assert up == down

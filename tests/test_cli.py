"""Command-line interface: subcommands, JSON output, exit codes."""

import json
import re
import time

import pytest

import lihex.series
from lihex.cli import main
from lihex.hyper import _MAX_BITS, CHECKS

CANONICAL = dict(sort_keys=True, separators=(",", ":"))


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_list_names_everything(capsys):
    rc, out, _ = run(capsys, "list")
    for token in ("pi", "zeta5", "pi4_log2", "f11", "cat", "asymp", "expu"):
        assert token in out.split()
    assert rc == 0


def test_digits_plain(capsys):
    rc, out, _ = run(capsys, "digits", "--constant", "pi",
                     "--position", "1", "--count", "8")
    assert rc == 0
    assert out.strip() == "243F6A88"


def test_digits_json_is_canonical(capsys):
    rc, out, _ = run(capsys, "digits", "--constant", "zeta3",
                     "--position", "100", "--count", "12", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert json.dumps(doc, **CANONICAL) == out.strip()
    assert set(doc) == {"digits", "guard_bits", "guard_ok", "position",
                        "retries", "terms"}
    assert doc["position"] == 100 and len(doc["digits"]) == 12
    assert doc["digits"] == doc["digits"].upper()


def test_eval_hex_and_decimal(capsys):
    rc, out, _ = run(capsys, "eval", "--constant", "catalan",
                     "--bits", "128")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "hex 0.EA7CB89F409AE845215822E37D32D0C6"
    assert lines[1].startswith("dec 0.91596559417721901505460351")


def test_eval_json_round_trip(capsys):
    rc, out, _ = run(capsys, "eval", "--constant", "pi", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"dec", "hex"}
    assert doc["hex"].startswith("3.243F6A8885A308D3")
    assert json.dumps(doc, **CANONICAL) == out.strip()


def test_eval_prints_decimals_past_the_int_to_str_limit(capsys):
    # 14,400 bits print 4,333 decimal places, past the 4,300 digits that
    # str(int) converts by default
    lines = {}
    for bits in ("14000", "14400"):
        rc, out, _ = run(capsys, "eval", "--constant", "pi", "--bits", bits)
        assert rc == 0
        lines[bits] = out.splitlines()[1]
    short, long = lines["14000"], lines["14400"]
    assert short.startswith("dec 3.14159265358979")
    assert len(long) > len(short) > 4200
    assert long.startswith(short)


def test_verify_single_relation(capsys):
    rc, out, _ = run(capsys, "verify", "--relation", "f11",
                     "--bits", "1024")
    assert rc == 0
    assert "f11" in out and "pass" in out


def test_verify_json_null_for_exact_zero(capsys):
    # the asymptotic coefficients are compared exactly: a zero residual
    # and no bound, both printed as null
    rc, out, _ = run(capsys, "hyper", "--check", "asymp", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert [r["name"] for r in doc] == [f"asymp-k{m}" for m in range(1, 7)]
    for r in doc:
        assert r == {"bits": 256, "log2_bound": None, "log2_residual": None,
                     "name": r["name"], "passed": True}


def test_verify_json_carries_the_bound(capsys):
    rc, out, _ = run(capsys, "verify", "--relation", "r3", "--json")
    assert rc == 0
    assert json.dumps(json.loads(out), **CANONICAL) == out.strip()
    (doc,) = json.loads(out)
    assert set(doc) == {"bits", "log2_bound", "log2_residual", "name",
                        "passed"}
    assert isinstance(doc["log2_bound"], float)
    assert max(doc["log2_residual"], doc["log2_bound"]) < -(256 - 64)


def test_verify_all_default_bits(capsys):
    rc, out, _ = run(capsys, "verify", "--all")
    assert rc == 0
    assert out.count(" pass") == 32 and "FAIL" not in out


def test_verify_failure_exit_code(capsys, monkeypatch, clear_caches):
    from fractions import Fraction as Q
    from types import MappingProxyType
    table = dict(lihex.series._R4_RHS)
    name, acoef, z4c = table["r4b"]
    table["r4b"] = (name, acoef, z4c + Q(1, 2**100))
    monkeypatch.setattr(lihex.series, "_R4_RHS", MappingProxyType(table))
    clear_caches()
    rc, out, _ = run(capsys, "verify", "--relation", "r4b")
    assert rc == 1
    assert "FAIL" in out


def test_hyper_battery(capsys):
    rc, out, _ = run(capsys, "hyper", "--check", "geo")
    assert rc == 0
    assert out.count(" pass") == 4
    assert "catalan-binomial" in out


def test_hyper_battery_refuses_too_few_bits(capsys):
    for bits in (0, _MAX_BITS + 1, 32769):
        rc, out, err = run(capsys, "hyper", "--check", "poch",
                           "--bits", str(bits))
        assert rc == 2 and out == ""
        assert "usage error" in err


def test_unknown_battery_exits_two_and_lists_the_batteries(capsys):
    # a usage error whether argparse or the handler refuses the name
    try:
        rc = main(["hyper", "--check", "nosuch"])
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert "nosuch" in out.err
    assert len(CHECKS) == 10
    assert set(CHECKS) <= set(re.findall(r"\w+", out.err))


def test_verify_all_refuses_too_few_bits(capsys):
    # below every relation's min_bits there is nothing to check
    for flag in ((), ("--json",)):
        rc, out, err = run(capsys, "verify", "--all", "--bits", "255", *flag)
        assert rc == 2 and out == ""
        assert "usage error" in err


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_hyper_json_residuals_are_floats(capsys, check):
    # the same field from `verify --json` is a float too
    rc, out, _ = run(capsys, "hyper", "--check", check, "--json")
    assert rc == 0
    for r in json.loads(out):
        assert r["log2_residual"] is None or isinstance(r["log2_residual"], float)


def test_discover_found(capsys):
    rc, out, _ = run(capsys, "discover", "--values",
                     "catalan,S(2,1,1,-1,1,0,-1,1,-1,0),"
                     "S(2,3,1,1,1,0,-1,-1,-1,0)",
                     "--bits", "512", "--max-digits", "8", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert doc["vector"] == [1, -3, 2]


def test_discover_found_plain(capsys):
    rc, out, _ = run(capsys, "discover", "--values",
                     "catalan,S(2,1,1,-1,1,0,-1,1,-1,0),"
                     "S(2,3,1,1,1,0,-1,-1,-1,0)",
                     "--bits", "512", "--max-digits", "8")
    assert rc == 0
    assert re.fullmatch(r"found \(1 -3 2\) log2\|r\|=\S+ "
                        r"after \d+ iterations\n", out), out


def test_discover_products_and_exclusion(capsys):
    rc, out, _ = run(capsys, "discover", "--values",
                     "monomial(0,0),pi,monomial(0,1)",
                     "--bits", "1024", "--max-digits", "20", "--json")
    assert rc == 0
    assert json.loads(out)["status"] == "none_within_bound"


def test_discover_inconclusive_is_failure(capsys):
    rc, out, _ = run(capsys, "discover", "--values",
                     "S(2,1,1,-1,1,0,-1,1,-1,0),"
                     "S(2,1,101,-101,101,0,-101,101,-101,0)",
                     "--max-digits", "1", "--json")
    assert rc == 1
    assert json.loads(out)["status"] == "inconclusive"


@pytest.mark.parametrize("argv, status, code", [
    (("pi,log2sq,catalan", "--bits", "256"), "none_within_bound", 0),
    (("S(2,1,1,-1,1,0,-1,1,-1,0),S(2,1,101,-101,101,0,-101,101,-101,0)",
      "--max-digits", "1"), "inconclusive", 1),
])
def test_discover_names_the_bound_reached(capsys, argv, status, code):
    rc, out, _ = run(capsys, "discover", "--values", *argv)
    assert rc == code
    assert re.fullmatch(rf"{status} after \d+ iterations: "
                        r"no relation has norm below 10\^\d+\n", out)
    # --json keeps its three keys
    rc, out, _ = run(capsys, "discover", "--values", *argv, "--json")
    doc = json.loads(out)
    assert rc == code and doc["status"] == status
    assert sorted(doc) == ["log2_residual", "status", "vector"]


def test_discover_rejects_a_nonpositive_iteration_cap(capsys):
    rc, out, err = run(capsys, "discover", "--values", "pi,log2sq,catalan",
                       "--max-iterations", "-3")
    assert rc == 2 and out == ""
    assert "usage error" in err and "max_iterations" in err


def test_discover_power_grammar(capsys):
    # pi^2 * log2 as a product atom against its catalog twin
    rc, out, _ = run(capsys, "discover", "--values",
                     "pi^2*monomial(0,1),pi2_log2",
                     "--bits", "256", "--max-digits", "4", "--json")
    assert rc == 0
    assert json.loads(out)["vector"] == [1, -1]


EIGHT = "pi,zeta3,catalan,log2cu,zeta5,pi4,beta3,log2_4"


def test_discover_reports_no_coincidence(capsys):
    # with --max-digits 12 at 256 bits this once printed a "relation"
    # whose residual stayed at 2**-172 at any precision
    rc, out, _ = run(capsys, "discover", "--values", EIGHT)
    assert "found" not in out
    assert rc in (0, 1)


def test_discover_default_digits_follow_the_precision_rule(capsys):
    # 8 values at 256 bits: 7 digits fit the precision rule, 8 do not
    default = run(capsys, "discover", "--values", EIGHT, "--json")
    assert default == run(capsys, "discover", "--values", EIGHT, "--json",
                          "--max-digits", "7")
    rc, _, err = run(capsys, "discover", "--values", EIGHT,
                     "--max-digits", "8")
    assert rc == 2 and "usage error" in err and "bits" in err


# ----------------------------------------------------------------------
# exit codes and config

def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["digits", "--wat"])
    assert exc.value.code == 2


def test_missing_required_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["digits"])
    assert exc.value.code == 2


def test_bad_expression_is_usage_error(capsys):
    rc, _, err = run(capsys, "discover", "--values", "pi,,log2")
    assert rc == 2
    assert "usage error" in err


def test_bad_position_is_usage_error(capsys):
    rc, _, err = run(capsys, "digits", "--constant", "pi",
                     "--position", "0")
    assert rc == 2
    assert "usage error" in err


def test_unreachable_position_is_usage_error(capsys):
    rc, _, err = run(capsys, "digits", "--constant", "zeta5",
                     "--position", "8589934592")
    assert rc == 2
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--constant", "pi", "--bits", str((1 << 23) + 1)),
    ("discover", "--values", "pi,log2sq", "--bits", str((1 << 23) + 1)),
    # the values are read at bits + 32, past the ceiling here
    ("discover", "--values", "pi,log2sq", "--bits", str((1 << 23) - 31)),
    ("verify", "--relation", "f11", "--bits", str((1 << 23) + 1)),
    ("verify", "--all", "--bits", str((1 << 23) + 1)),
])
def test_a_value_above_the_precision_ceiling_is_usage_error(
        capsys, monkeypatch, argv):
    def summed(*args):
        raise AssertionError("an atom was summed")

    monkeypatch.setattr(lihex.series, "_series_fixed", summed)
    monkeypatch.setattr(lihex.series, "_monomial_fixed", summed)
    start = time.perf_counter()
    rc, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert "usage error" in err and "ceiling" in err


def test_unknown_name_is_usage_error(capsys):
    # every command refuses a name it does not know as hyper --check does
    for argv, name in ((("digits", "--constant", "sqrt2", "--position", "1"),
                        "sqrt2"),
                       (("eval", "--constant", "nope"), "nope"),
                       (("verify", "--relation", "nope"), "nope")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("usage error") and repr(name) in err


def test_an_empty_factor_is_usage_error_naming_the_expression(capsys):
    for expr in ("pi*", "^2", "pi*log2,*catalan"):
        rc, out, err = run(capsys, "discover", "--values", expr)
        assert rc == 2 and out == ""
        assert err.startswith("usage error")
    assert "'pi*'" in run(capsys, "discover", "--values", "pi*,log2")[2]


@pytest.mark.parametrize("values,number,factor,expr", [
    ("pi^,log2", "''", "pi^", "pi^"),
    ("S(2,1,a,b,c,d,e,f,g,h),log2", "'a'", "S(2,1,a,b,c,d,e,f,g,h)",
     "S(2,1,a,b,c,d,e,f,g,h)"),
    ("pi,catalan*pi^x", "'x'", "pi^x", "catalan*pi^x"),
])
def test_a_malformed_number_is_usage_error_naming_its_factor(
        capsys, values, number, factor, expr):
    rc, out, err = run(capsys, "discover", "--values", values)
    assert rc == 2 and out == ""
    assert err.startswith(f"usage error: malformed number {number} ")
    assert f"in factor {factor!r} of {expr!r}" in err


def test_config_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "lihex.cfg"
    cfg.write_text("# comment\nbits = 128\nthreads = 2\n")
    rc, out, _ = run(capsys, "--config", str(cfg),
                     "eval", "--constant", "catalan")
    assert rc == 0
    frac = out.splitlines()[0].split(".", 1)[1]
    assert len(frac) == 128 // 4


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "lihex.cfg"
    cfg.write_text("bits = 128\n")
    rc, out, _ = run(capsys, "--config", str(cfg),
                     "eval", "--constant", "catalan", "--bits", "64")
    assert rc == 0
    frac = out.splitlines()[0].split(".", 1)[1]
    assert len(frac) == 64 // 4


def test_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bits = twelve\n")
    rc, _, err = run(capsys, "--config", str(cfg), "list")
    assert rc == 2 and "config error" in err
    cfg.write_text("colour = blue\n")
    rc, _, err = run(capsys, "--config", str(cfg), "list")
    assert rc == 2 and "config error" in err
    rc, _, err = run(capsys, "--config", str(tmp_path / "nope.cfg"), "list")
    assert rc == 2 and "config error" in err

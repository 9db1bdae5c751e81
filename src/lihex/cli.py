"""Command-line surface: digit runs, evaluation, verification, discovery.

Exit codes follow the usual convention: 0 for success, 1 when a check
fails (or a computation reports an error), 2 for usage problems.  With
``--json`` the machine-readable form is canonical: keys sorted, no
whitespace, so byte-identical output round-trips through a parser.
Each subcommand imports the modules it runs, so that ``lihex digits``
never compiles the checkers or the relation search.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import LihexError, UnknownName

if TYPE_CHECKING:
    from .ladders import CheckReport
    from .mp.real import MpReal

__all__ = ["main"]


# ----------------------------------------------------------------------
# output helpers

def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jfloat(x: float | None):
    # an exact check that holds carries log2 = -inf, which JSON cannot
    # spell; emit null for it
    if x is None or x == float("-inf"):
        return None
    return x


def _report_dict(r: CheckReport) -> dict:
    return {"name": r.name, "bits": r.bits,
            "log2_residual": _jfloat(r.log2_residual),
            "log2_bound": _jfloat(r.log2_bound), "passed": r.passed}


def _print_reports(reports: list[CheckReport], as_json: bool) -> int:
    if as_json:
        print(_jdump([_report_dict(r) for r in reports]))
    else:
        for r in reports:
            mark = "pass" if r.passed else "FAIL"
            bound = ("" if r.log2_bound is None
                     else f"bound={r.log2_bound:<8g} ")
            print(f"{r.name:<14} bits={r.bits:<6} "
                  f"log2|r|={r.log2_residual:<8g} {bound}{mark}")
    return 0 if all(r.passed for r in reports) else 1


def _hex_string(v: MpReal, bits: int) -> str:
    """Uppercase hexadecimal rendering with bits/4 fractional digits."""
    nd = max(1, bits // 4)
    fx = v.to_fixed(4 * nd)
    sign = "-" if fx < 0 else ""
    ip, fp = divmod(abs(fx), 1 << (4 * nd))
    return f"{sign}{ip:X}.{fp:0{nd}X}"


# ----------------------------------------------------------------------
# config file: plain key=value lines for default bits/threads

class _ConfigError(Exception):
    pass


def _read_config(path: str) -> dict[str, int]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _ConfigError(str(e)) from None
    out: dict[str, int] = {}
    for no, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        key, eq, val = s.partition("=")
        key, val = key.strip(), val.strip()
        if not eq or key not in ("bits", "threads"):
            raise _ConfigError(f"{path}:{no}: expected bits=N or threads=N")
        try:
            out[key] = int(val)
        except ValueError:
            raise _ConfigError(f"{path}:{no}: {val!r} is not an integer") \
                from None
    return out


# ----------------------------------------------------------------------
# the discover value grammar: catalog names, S(n,p,w1..w8),
# monomial(a,b) for pi**a * log2**b, and '*'/'^' products of powers

def _split_values(text: str) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in --values")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError("unbalanced parentheses in --values")
    parts.append("".join(cur))
    out = [p.strip() for p in parts]
    if not all(out):
        raise ValueError("empty entry in --values")
    return out


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"malformed number {tok!r}") from None


def _eval_atom(tok: str, wp: int) -> MpReal:
    from .series import Monomial, SeriesSpec, eval_formula, eval_series
    if tok.endswith(")"):
        head, _, body = tok.partition("(")
        args = [a.strip() for a in body[:-1].split(",")]
        head = head.strip()
        if head == "S":
            if len(args) != 10:
                raise ValueError(f"S() takes n, p and 8 weights: {tok!r}")
            n, p, *w = (_int(a) for a in args)
            return eval_series(SeriesSpec(n, p, tuple(w)), wp)
        if head == "monomial":
            if len(args) != 2:
                raise ValueError(f"monomial() takes two exponents: {tok!r}")
            return Monomial(pi=_int(args[0]), log2=_int(args[1])).value(wp)
        raise ValueError(f"unknown value function {head!r}")
    return eval_formula(tok, wp)


def _eval_expr(expr: str, wp: int) -> MpReal:
    from .mp.real import pow_int
    acc: MpReal | None = None
    for factor in expr.split("*"):
        base, caret, power = factor.strip().partition("^")
        base = base.strip()
        if not base:
            raise ValueError(f"empty factor in {expr!r}")
        try:
            k = _int(power) if caret else 1
            if k < 1:
                raise ValueError("power exponents must be positive")
            v = _eval_atom(base, wp)
        except ValueError as e:
            raise ValueError(
                f"{e} in factor {factor.strip()!r} of {expr!r}") from None
        if caret:
            v = pow_int(v, k, wp)
        acc = v if acc is None else acc.mul(v, wp)
    assert acc is not None
    return acc


# ----------------------------------------------------------------------
# subcommands

def _cmd_list(args: argparse.Namespace) -> int:
    from .hyper import CHECKS
    from .ladders import RELATIONS
    from .series import catalog
    print("formulas:")
    for name, f in catalog().items():
        print(f"  {name:<12} {f.description}")
    print("relations:")
    for name, rel in RELATIONS.items():
        print(f"  {name:<5} {rel.status:<8} min_bits={rel.min_bits}")
    print("hyper checks:")
    print("  " + " ".join(CHECKS))
    return 0


def _cmd_digits(args: argparse.Namespace) -> int:
    from .spigot import DigitRequest, hex_digits
    run = hex_digits(DigitRequest(args.constant, args.position,
                                  args.count, threads=args.threads))
    if args.json:
        print(_jdump({"digits": run.digits, "guard_bits": run.guard_bits,
                      "guard_ok": run.guard_ok, "position": run.position,
                      "retries": run.retries, "terms": run.terms}))
    else:
        print(run.digits)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .series import eval_formula
    v = eval_formula(args.constant, args.bits)
    hx = _hex_string(v, args.bits)
    dec = v.to_decimal()
    if args.json:
        print(_jdump({"dec": dec, "hex": hx}))
    else:
        print(f"hex {hx}")
        print(f"dec {dec}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .ladders import check_all, check_relation
    if args.all:
        reports = check_all(args.bits)
    else:
        reports = [check_relation(args.relation, args.bits)]
    return _print_reports(reports, args.json)


def _cmd_hyper(args: argparse.Namespace) -> int:
    from .hyper import CHECKS
    if args.check not in CHECKS:
        raise ValueError(f"unknown battery {args.check!r}; choose from "
                         f"{', '.join(CHECKS)}")
    return _print_reports(CHECKS[args.check](args.bits), args.json)


def _default_digits(bits: int, n: int) -> int:
    """Largest coefficient size a search over n values at bits admits,
    at least 1: a bisection, since required_bits rises with the digits
    and is at least 16 bits a digit."""
    from .relfind import required_bits
    lo, hi = 1, bits // 16 + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if required_bits(n, mid) <= bits:
            lo = mid
        else:
            hi = mid
    return lo


def _cmd_discover(args: argparse.Namespace) -> int:
    from .relfind import RelationQuery, pslq
    wp = args.bits + 32
    vals = tuple(_eval_expr(e, wp).round_to(args.bits)
                 for e in _split_values(args.values))
    digits = args.max_digits
    if digits is None:
        digits = _default_digits(args.bits, len(vals))
    res = pslq(RelationQuery(vals, max_digits=digits,
                             max_iterations=args.max_iterations))
    if args.json:
        d = res.as_dict()
        d["log2_residual"] = _jfloat(d["log2_residual"])
        print(_jdump(d))
    elif res.status == "found":
        vec = " ".join(str(v) for v in res.vector)
        print(f"found ({vec}) log2|r|={res.log2_residual:g} "
              f"after {res.iterations} iterations")
    else:
        print(f"{res.status} after {res.iterations} iterations: no "
              f"relation has norm below 10^{res.bound_digits}")
    return 0 if res.status in ("found", "none_within_bound") else 1


# ----------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lihex",
        description="hex digit extraction and identity checks for "
                    "polylogarithmic constants")
    top.add_argument("--config", metavar="FILE",
                     help="key=value file with default bits/threads")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="show the formula/relation catalog")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("digits", help="hex digits at a 1-based position")
    p.add_argument("--constant", required=True)
    p.add_argument("--position", type=int, required=True)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_digits)

    p = sub.add_parser("eval", help="value of a catalog constant")
    p.add_argument("--constant", required=True)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="check catalog identities")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--relation")
    g.add_argument("--all", action="store_true")
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hyper", help="hypergeometric-side check batteries")
    p.add_argument("--check", required=True,
                   help="battery name, as `lihex list` shows them")
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hyper)

    p = sub.add_parser("discover", help="search for an integer relation")
    p.add_argument("--values", required=True,
                   help="comma-separated expressions: catalog names, "
                        "S(n,p,w1..w8), monomial(a,b), products of powers")
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--max-digits", type=int, default=None,
                   help="decimal digits of the largest coefficient sought "
                        "(default: the most that --bits allows for this "
                        "many values)")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_discover)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config) if args.config else {}
    except _ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if getattr(args, "bits", None) is None:
        args.bits = cfg.get("bits", 256)
    if getattr(args, "threads", None) is None:
        args.threads = cfg.get("threads", 1)
    try:
        return args.func(args)
    except (ValueError, UnknownName) as e:
        # malformed numbers, grammar that argparse could not see, or a
        # name that no catalog holds
        what = f"unknown name {e}" if isinstance(e, UnknownName) else e
        print(f"usage error: {what}", file=sys.stderr)
        return 2
    except LihexError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Every function under src/lihex is reached from an entry point.

The entry points are the command line, ``lihex.__all__`` and
``hyper.CHECKS``.  One fresh interpreter installs a profiler before
``import lihex`` (import-time builders such as ``series._f`` run then),
drives each CLI command, every check battery and every public callable
once, and lists the functions and methods defined under the package
whose code was never entered.  That list must equal ``ALLOWED``: code
that nothing reaches is either reached from an entry point or deleted.

Run this file as a script to print the list.
"""

import contextlib
import functools
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import types

# name -> why it stays although no entry point enters it
ALLOWED = {
    "mp.real.MpReal.__repr__": "debugging aid, read by no program path",
    "mp.special.hurwitz":
        "perfbench/tracing.py wraps it by name for the traced benchmark",
    "mp.special._hurwitz_int":
        "perfbench/tracing.py wraps it by name for the traced benchmark",
    "mp.special.dirichlet_beta":
        "perfbench/tracing.py wraps it by name for the traced benchmark",
}


def _drive() -> list[str]:
    """Run the entry points under a profiler; the never-entered names."""
    entered = set()

    def profile(frame, event, arg):
        entered.add(frame.f_code)

    sys.setprofile(profile)
    import lihex
    from lihex import cli, hyper

    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "lihex.conf")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("# defaults\nbits = 128\nthreads = 1\n")
        relation = ("catalan,S(2,1,1,-1,1,0,-1,1,-1,0),"
                    "S(2,3,1,1,1,0,-1,-1,-1,0)")
        runs = [
            ["list"],
            ["--config", config, "digits", "--constant", "pi",
             "--position", "1", "--count", "8"],
            ["digits", "--constant", "zeta3", "--position", "100",
             "--count", "12", "--json"],
            ["eval", "--constant", "catalan", "--bits", "128"],
            ["eval", "--constant", "pi", "--json"],
            ["verify", "--all", "--bits", "1024"],
            ["verify", "--relation", "w21", "--json"],
            ["discover", "--values", relation, "--bits", "512",
             "--max-digits", "8", "--json"],
            ["discover", "--values", "zeta3,pi^3,log2cu,pi2*log2sq,"
             "monomial(1,2),S(3,1,1,1,1,1,1,1,1,1)", "--bits", "384"],
        ]
        runs += [["hyper", "--check", name, "--bits", "256", "--json"]
                 for name in hyper.CHECKS]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code:
                raise SystemExit(f"lihex {' '.join(argv)} exited {code}")

    g = lihex.eval_formula("catalan", 256)
    calls = {
        "LihexError": lambda: lihex.LihexError("reached"),
        "CheckReport": lambda: lihex.CheckReport("x", 64, -80.0, True),
        "check_all": lambda: lihex.check_all(256),
        "check_relation": lambda: lihex.check_relation("w21", 256),
        "eval_ladder": lambda: lihex.eval_ladder("A", 3, 128),
        "relation_names": lihex.relation_names,
        "RelationQuery": lambda: lihex.RelationQuery((g, g), max_digits=4),
        "RelationResult": lambda: lihex.RelationResult("found", (1, -1),
                                                       None, 1),
        "pslq": lambda: lihex.pslq(lihex.RelationQuery((g, g), 4)),
        "verify_vector": lambda: lihex.verify_vector((1, -1), (g, g), 256),
        "catalog": lihex.catalog,
        "eval_formula": lambda: lihex.eval_formula("zeta5", 128),
        "DigitRequest": lambda: lihex.DigitRequest("pi", 1, 8),
        "DigitRun": lambda: lihex.DigitRun("243F6A88", 1, True, 0, 1, 24),
        "hex_digits": lambda: lihex.hex_digits(
            lihex.DigitRequest("catalan", 1000, 8)),
        "self_check": lambda: lihex.self_check("log2sq", 50, 8),
    }
    if set(calls) != set(lihex.__all__):
        raise SystemExit("calls and lihex.__all__ differ: "
                         f"{sorted(set(calls) ^ set(lihex.__all__))}")
    for call in calls.values():
        call()
    sys.setprofile(None)
    return _never_entered(entered)


def _never_entered(entered: set) -> list[str]:
    import lihex

    root = os.path.dirname(lihex.__file__)
    mods = [lihex] + [importlib.import_module(m.name) for m in
                      pkgutil.walk_packages(lihex.__path__, "lihex.")]
    missed = {}

    def visit(obj, modname: str) -> None:
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            for f in (obj.fget, obj.fset, obj.fdel):
                visit(f, modname)
            return
        if isinstance(obj, functools.cached_property):
            obj = obj.func
        while hasattr(obj, "__wrapped__"):
            obj = obj.__wrapped__
        if isinstance(obj, types.FunctionType):
            code = obj.__code__
            if (code.co_filename.startswith(root)
                    and code not in entered):
                missed[code] = f"{modname[len('lihex.'):]}.{obj.__qualname__}"
        elif isinstance(obj, type) and obj.__module__ == modname:
            for v in vars(obj).values():
                visit(v, modname)

    for mod in mods:
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) == mod.__name__:
                visit(obj, mod.__name__)
    return sorted(set(missed.values()))


def test_every_function_is_reached_from_an_entry_point():
    src = os.path.dirname(
        importlib.util.find_spec("lihex").submodule_search_locations[0])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, __file__], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    missed = set(json.loads(out.stdout.splitlines()[-1]))
    assert not missed - set(ALLOWED), \
        f"no entry point reaches {sorted(missed - set(ALLOWED))}"
    assert not set(ALLOWED) - missed, \
        f"allowed but reached: {sorted(set(ALLOWED) - missed)}"


if __name__ == "__main__":
    print(json.dumps(_drive()))

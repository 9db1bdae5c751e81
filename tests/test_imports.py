"""What each entry point imports: ``import lihex`` loads the errors
alone, a public name loads its own submodule on first use, the light
CLI commands never load the checkers, the relation search or
``multiprocessing``, and the identity checks never load the special
functions.  Modules stay loaded once imported, so every case
runs in a fresh interpreter."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

# modules a digit run or an evaluation never calls
UNREACHED = ("lihex.hyper", "lihex.ladders", "lihex.relfind",
             "lihex.mp.special", "multiprocessing")


def _fresh(code: str) -> tuple[set[str], str]:
    """The modules a fresh interpreter holds after running code, and
    what the code printed before them."""
    src = os.path.dirname(
        importlib.util.find_spec("lihex").submodule_search_locations[0])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    *printed, modules = out.stdout.splitlines()
    return set(json.loads(modules)), "\n".join(printed)


def test_import_and_catalog_load_only_the_series():
    modules, _ = _fresh("import lihex\nlihex.catalog()")
    assert {m for m in modules if m.split(".")[0] == "lihex"} == {
        "lihex", "lihex.errors", "lihex.series", "lihex.mp",
        "lihex.mp.real"}
    assert "multiprocessing" not in modules


@pytest.mark.parametrize("argv, printed", [
    (["digits", "--constant", "zeta3", "--position", "100", "--count",
      "12"], "56A352A65193"),
    (["eval", "--constant", "catalan", "--bits", "128"],
     "hex 0.EA7CB89F409AE845215822E37D32D0C6"),
])
def test_light_commands_load_no_checker(argv, printed):
    modules, out = _fresh(f"from lihex.cli import main\n"
                          f"assert main({argv!r}) == 0")
    assert out.splitlines()[0] == printed
    assert not modules & set(UNREACHED), sorted(modules & set(UNREACHED))


def test_verify_loads_no_special_function():
    # every zeta and beta factor is a Borwein sum in mp.real
    modules, _ = _fresh("from lihex.cli import main\n"
                        "assert main(['verify', '--all', '--bits', '512'])"
                        " == 0")
    assert "lihex.ladders" in modules
    assert "lihex.mp.special" not in modules


def test_a_classic_digit_run_solves_no_derived_formula():
    _, out = _fresh(
        "from lihex import series\n"
        "from lihex.errors import UnknownName\n"
        "from lihex.spigot import DigitRequest, hex_digits\n"
        "print(hex_digits(DigitRequest('pi', 1, 8)).digits)\n"
        "print(series._derived.cache_info().currsize,"
        " series._solved.cache_info().currsize)\n"
        "try:\n"
        "    hex_digits(DigitRequest('nosuch', 1, 8))\n"
        "except UnknownName as e:\n"
        "    print(e)\n")
    assert out.splitlines() == ["243F6A88", "0 0", "'nosuch'"]


def test_every_public_name_and_submodule_resolves():
    _, out = _fresh(
        "import lihex\n"
        "print(all(getattr(lihex, n).__name__ == n for n in lihex.__all__))\n"
        "print(lihex.hyper.__name__, lihex.mp.__name__)\n"
        "ns = {}\n"
        "exec('from lihex import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}) == sorted(lihex.__all__))\n"
        "try:\n"
        "    lihex.nosuch\n"
        "except AttributeError as e:\n"
        "    print(e)\n")
    assert out.splitlines() == [
        "True", "lihex.hyper lihex.mp", "True",
        "module 'lihex' has no attribute 'nosuch'"]

"""Hexadecimal digit extraction and identity checking for the
polylogarithmic constants: pi, log 2, Catalan's constant, zeta(3),
zeta(5) and their power products.

The pieces fit together like this: :mod:`lihex.series` holds the
catalog of base-16 summation formulas, :mod:`lihex.spigot` turns any
of them into digits at an arbitrary 1-based position without computing
the earlier ones, :mod:`lihex.ladders` and :mod:`lihex.hyper` verify
the web of identities the formulas rest on, and :mod:`lihex.relfind`
searches for (or excludes) new integer relations.  Everything runs on
the integer-backed arithmetic in :mod:`lihex.mp`.

``import lihex`` loads :mod:`lihex.errors` alone.  Every other public
name, and every submodule read as ``lihex.<name>``, is imported on
first use: ``lihex.catalog()`` loads :mod:`lihex.series` and
:mod:`lihex.mp.real`, ``lihex.check_all`` adds :mod:`lihex.ladders`.
The command line likewise imports only what its subcommand runs.
"""

import importlib

from .errors import LihexError

# public name -> the submodule that defines it, imported on first use
_HOME = {
    "CheckReport": "ladders", "check_all": "ladders",
    "check_relation": "ladders", "eval_ladder": "ladders",
    "relation_names": "ladders",
    "RelationQuery": "relfind", "RelationResult": "relfind",
    "pslq": "relfind", "verify_vector": "relfind",
    "catalog": "series", "eval_formula": "series",
    "DigitRequest": "spigot", "DigitRun": "spigot",
    "hex_digits": "spigot", "self_check": "spigot",
}
_SUBMODULES = frozenset({"cli", "hyper", "ladders", "mp", "relfind",
                         "series", "spigot"})

__all__ = ["LihexError", *_HOME]


def __getattr__(name: str):
    """Import a public name or a submodule when it is first read."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                    name)
    globals()[name] = value
    return value

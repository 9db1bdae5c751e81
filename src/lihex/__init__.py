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
"""

from .errors import LihexError
from .series import catalog, eval_formula
from .ladders import (CheckReport, check_all, check_relation, eval_ladder,
                      relation_names)
from .relfind import RelationQuery, RelationResult, pslq, verify_vector
from .spigot import DigitRequest, DigitRun, hex_digits, self_check

__all__ = [
    "LihexError",
    "CheckReport", "check_all", "check_relation", "eval_ladder",
    "relation_names",
    "RelationQuery", "RelationResult", "pslq", "verify_vector",
    "catalog", "eval_formula",
    "DigitRequest", "DigitRun", "hex_digits", "self_check",
]

"""Seeded request lists for the lihex benchmark.

Everything here is plain data and the standard library: the generators
take the library's name tables (``Names``) and a seed, and return the
request list the client sends.  The library itself only ever sees the
generated inputs.

Workload sizes are stratified so that two seeds give lists of nearly the
same total cost: a seed changes the exact inputs and the order in which
they arrive, not how much work the list holds.  Without that, ten seeds
of a 100-request list spread by more than the bounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

WORKLOADS = ("digits", "identities", "relations")

DIGIT_COUNTS = (8, 16, 32)
DIGIT_LOG2_POSITIONS = (8, 15)       # positions log-uniform in [2^8, 2^15]
DIGIT_REQUESTS_PER_CONSTANT = 5
RELATION_BITS = (256, 512, 1024, 2048)
# the 512-bit battery runs cost 14 s together (inv and genfn 4.5 and
# 5.7 s), as much as all the rest of an identities pass; the run budget
# holds only the 256-bit ones
BATTERY_BITS = (256,)
# every (relation, bits) pair this many times, plus one request per
# (battery, bits).  A seed fixes only the order, so the multiset of keys,
# and with it the number of cold requests, is the same for every seed.
# The 9 battery runs and the ~130 first checks of a pair cost 1-5000 ms
# and pay the cold caches; repeats cost 1-8 ms.  With six repeats the
# 90th percentile falls among the first checks, where costs rise by a
# few percent per rank; with two (drawn at random) it sat at the top of
# them, rose 8% per rank and moved with the order of the cold requests
RELATION_REPEATS = 6
QUERY_BITS = (512, 1024, 2048)
QUERY_SIZES = (3, 4, 5, 6, 7, 8)
# queries per (status, bits, size) cell.  Found queries cost less than
# exclusions, so an even split puts the median request in the gap
# between the two groups; one exclusion more per cell moves it inside
# the exclusions and halves its seed-to-seed spread
QUERIES_PER_CELL = {"found": 5, "none_within_bound": 6}
# 2048-bit exclusions cost 0.1-1 s each and take most of a pass; the
# cheaper precisions get this many times as many queries per cell, which
# more than doubles the samples around the median for 40% more run time.
# Five seeds of the unweighted list spread 0.27 (IQR/median) in the
# median latency, of this one 0.08
QUERY_BITS_WEIGHT = {512: 3, 1024: 3, 2048: 1}


@dataclass(frozen=True)
class Names:
    """The library's catalog, as the generators need it."""

    constants: tuple[str, ...]
    # name -> (scale, ((coef, n, p, pattern), ...))
    formulas: dict
    relations: dict                  # relation name -> min_bits
    batteries: tuple[str, ...]


@dataclass(frozen=True)
class Request:
    """One call into the library.

    ``key`` names the work: two requests with equal keys ask for the same
    result, which is what a cache could serve.  ``expect`` holds the
    answer the check compares against, where it is known up front.
    """

    rid: int
    kind: str                        # digits | relation | battery | pslq
    key: tuple
    args: tuple
    expect: tuple | None = None


def names_from_library() -> Names:
    """Read the name tables out of an imported lihex."""
    from lihex import hyper, ladders, series

    cat = series.catalog()
    formulas = {
        name: (f.scale, tuple((c, s.n, s.p, s.pattern) for c, s in f.terms))
        for name, f in cat.items()}
    return Names(
        constants=tuple(sorted(cat)),
        formulas=formulas,
        relations={r: ladders.RELATIONS[r].min_bits
                   for r in ladders.relation_names()},
        batteries=tuple(hyper.CHECKS))


def generate(workload: str, seed: int, names: Names) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "digits":
        reqs = _digits(rng, names)
    elif workload == "identities":
        reqs = _identities(rng, names)
    elif workload == "relations":
        reqs = _relations(rng, names)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return [replace(r, rid=i) for i, r in enumerate(reqs)]


# ----------------------------------------------------------------------
# digits: every constant gets one position in each fifth of the
# log-position range, at a seeded point inside a narrow sub-stratum.
# Which sub-stratum a constant takes is fixed, and so is the count each
# (constant, stratum) asks for, so the multiset of request costs
# (constant term cost times depth) barely moves between seeds; with
# seeded pairings the median request alone spread by 18%.

def _digits(rng: random.Random, names: Names) -> list[Request]:
    lo, hi = DIGIT_LOG2_POSITIONS
    consts = names.constants
    m = DIGIT_REQUESTS_PER_CONSTANT
    total = m * len(consts)
    out = []
    for q in range(m):
        for i, name in enumerate(consts):
            slot = (i + 7 * q) % len(consts)
            u = (q * len(consts) + slot + rng.random()) / total
            pos = round(2 ** (lo + (hi - lo) * u))
            count = DIGIT_COUNTS[(i + q) % len(DIGIT_COUNTS)]
            out.append(Request(0, "digits", (name, pos), (name, pos, count)))
    return out


# ----------------------------------------------------------------------
# identities: every (battery, bits) pair once, and every (relation, bits)
# pair allowed by the relation's min_bits RELATION_REPEATS times

def _identities(rng: random.Random, names: Names) -> list[Request]:
    out = [Request(0, "battery", (b, bits), (b, bits))
           for b in names.batteries for bits in BATTERY_BITS]
    for bits in RELATION_BITS:
        for rel, mb in sorted(names.relations.items()):
            if mb <= bits:
                out += [Request(0, "relation", (rel, bits), (rel, bits))
                        ] * RELATION_REPEATS
    return out


# ----------------------------------------------------------------------
# relations: value specs and the classes that say which values are
# rationally related
#
# A value spec is ("formula", name), ("series", n, p, pattern),
# ("monomial", a, b) or ("product", spec, spec).  Each catalog constant
# is a rational multiple of one monomial in pi, log 2, Catalan's G,
# zeta(3), zeta(5); the class is its exponent vector.  Distinct monomials
# are assumed linearly independent over Q, as the constants are
# conjectured algebraically independent.

_CLASS = {   # name -> ((pi, log2, G, zeta3, zeta5), rational factor)
    "pi": ((1, 0, 0, 0, 0), 1), "pi_bellard": ((1, 0, 0, 0, 0), 1),
    "pi2": ((2, 0, 0, 0, 0), 1), "log2sq": ((0, 2, 0, 0, 0), 1),
    "catalan": ((0, 0, 1, 0, 0), 1), "log2cu": ((0, 3, 0, 0, 0), 1),
    "zeta3": ((0, 0, 0, 1, 0), 1), "beta3": ((3, 0, 0, 0, 0), Fraction(1, 32)),
    "log2_4": ((0, 4, 0, 0, 0), 1), "pi4": ((4, 0, 0, 0, 0), 1),
    "log2_5": ((0, 5, 0, 0, 0), 1), "zeta5": ((0, 0, 0, 0, 1), 1),
    "pi_log2": ((1, 1, 0, 0, 0), 1),
    "beta3_alt": ((3, 0, 0, 0, 0), Fraction(1, 32)),
    "pi_log2sq": ((1, 2, 0, 0, 0), 1), "pi3": ((3, 0, 0, 0, 0), 1),
    "pi2_log2": ((2, 1, 0, 0, 0), 1), "pi2_log2sq": ((2, 2, 0, 0, 0), 1),
    "pi2_log2cu": ((2, 3, 0, 0, 0), 1), "pi4_log2": ((4, 1, 0, 0, 0), 1),
}
_WEIGHTS = (1, 1, 2, 3, 5)


def _weight(cls: tuple) -> int:
    return sum(e * w for e, w in zip(cls, _WEIGHTS))


def _spec_class(spec: tuple) -> tuple[tuple, Fraction]:
    """(class, factor) of a monomial-valued spec: value = factor * class."""
    if spec[0] == "formula":
        cls, f = _CLASS[spec[1]]
        return cls, Fraction(f)
    if spec[0] == "monomial":
        return (spec[1], spec[2], 0, 0, 0), Fraction(1)
    if spec[0] == "product":
        c1, f1 = _spec_class(spec[1])
        c2, f2 = _spec_class(spec[2])
        return tuple(a + b for a, b in zip(c1, c2)), f1 * f2
    raise ValueError(f"series atoms have no single class: {spec!r}")


def _monomial_specs(rng: random.Random, names: Names) -> list[tuple]:
    """Candidate distractor and exclusion values, one draw of each shape."""
    consts = [c for c in names.constants if c in _CLASS]
    a, b = rng.choice([(a, b) for a in range(5) for b in range(6)
                       if 1 <= a + b <= 6])
    return [("formula", rng.choice(consts)),
            ("monomial", a, b),
            ("product", ("formula", rng.choice(consts)),
             ("formula", rng.choice(consts)))]


def _distinct_values(rng: random.Random, names: Names, k: int,
                     taken: set, weight_taken: int | None) -> list[tuple]:
    """k monomial-valued specs whose classes are new and pairwise distinct.

    With ``weight_taken`` set, classes of that weight are skipped too:
    series atoms of weight w are combinations of weight-w monomials.
    """
    out: list[tuple] = []
    while len(out) < k:
        spec = rng.choice(_monomial_specs(rng, names))
        cls, _ = _spec_class(spec)
        if cls in taken or (weight_taken is not None
                            and _weight(cls) == weight_taken):
            continue
        taken.add(cls)
        out.append(spec)
    return out


def _canonical(vec: list[int]) -> tuple[int, ...]:
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    vec = [v // g for v in vec]
    first = next(v for v in vec if v)
    return tuple(-v for v in vec) if first < 0 else tuple(vec)


def _atom_relation(name: str, names: Names) -> tuple[list[tuple], list[int]]:
    """A constant against its own S-atoms: value - scale*sum(coef*S) = 0."""
    scale, terms = names.formulas[name]
    coefs = [Fraction(scale) * Fraction(c) for c, *_ in terms]
    den = 1
    for c in coefs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    specs = [("formula", name)] + [("series", n, p, tuple(pat))
                                   for _, n, p, pat in terms]
    return specs, [den] + [-int(c * den) for c in coefs]


def _pair_relation(rng: random.Random, names: Names
                   ) -> tuple[list[tuple], list[int]]:
    """Two specs of one class, e.g. a catalog constant against the
    monomial it equals, or a product of constants against a constant."""
    consts = [c for c in names.constants if c in _CLASS]
    while True:
        shape = rng.randrange(3)
        c = rng.choice(consts)
        cls, _ = _CLASS[c]
        if shape == 0:
            if cls[2:] != (0, 0, 0):
                continue
            pair = [("formula", c), ("monomial", cls[0], cls[1])]
        elif shape == 1:
            same = [d for d in consts if d != c and _CLASS[d][0] == cls]
            if not same:
                continue
            pair = [("formula", c), ("formula", rng.choice(same))]
        else:
            d = rng.choice(consts)
            prod = ("product", ("formula", c), ("formula", d))
            pcls, _ = _spec_class(prod)
            match = [e for e in consts if _CLASS[e][0] == pcls]
            if match:
                other = ("formula", rng.choice(match))
            elif pcls[2:] == (0, 0, 0):
                other = ("monomial", pcls[0], pcls[1])
            else:
                continue
            pair = [prod, other]
        f1 = _spec_class(pair[0])[1]
        f2 = _spec_class(pair[1])[1]
        # f2 * x1 - f1 * x2 = 0
        r = f2 / f1
        return pair, [r.numerator, -r.denominator]


def max_digits(bits: int, size: int, height_digits: int = 0) -> int:
    """Coefficient bound for a query: an exclusion must be certifiable.

    Certifying that no relation of height 10**D exists among ``size``
    values takes about size * D * log2(10) bits; D = bits / (8 * size)
    leaves a wide margin and keeps one 8-value exclusion near a second.
    It never exceeds bits / 16, the library's rule.
    """
    return min(bits // 16, max(height_digits + 1, bits // (8 * size)))


def _relations(rng: random.Random, names: Names) -> list[Request]:
    atom_names = [c for c in names.constants if c in _CLASS]
    out = []
    for kind in ("found", "none_within_bound"):
        for bits in QUERY_BITS:
            for size in QUERY_SIZES:
                for i in range(QUERIES_PER_CELL[kind]
                               * QUERY_BITS_WEIGHT[bits]):
                    if kind == "found":
                        specs, vec = _planted(rng, names, atom_names, size,
                                              atoms=i % 2 == 0)
                    else:
                        specs = _distinct_values(rng, names, size, set(), None)
                        vec = None
                    order = list(range(size))
                    rng.shuffle(order)
                    specs = [specs[i] for i in order]
                    hd = 0
                    if vec is not None:
                        vec = list(_canonical([vec[i] for i in order]))
                        hd = len(str(max(abs(v) for v in vec)))
                    expect = (kind, None if vec is None else tuple(vec))
                    d = max_digits(bits, size, hd)
                    out.append(Request(0, "pslq", (tuple(specs), bits),
                                       (tuple(specs), bits, d), expect))
    return out


def _planted(rng: random.Random, names: Names, atom_names: list[str],
             size: int, atoms: bool) -> tuple[list[tuple], list[int]]:
    """A known relation padded with unrelated values to ``size`` values:
    a constant against its S-atoms, or a pair of one monomial class."""
    fits = [c for c in atom_names if len(names.formulas[c][1]) + 1 <= size]
    if atoms and fits:
        c = rng.choice(fits)
        specs, vec = _atom_relation(c, names)
        w = _weight(_CLASS[c][0])
        extra = _distinct_values(rng, names, size - len(specs), set(), w)
    else:
        specs, vec = _pair_relation(rng, names)
        cls, _ = _spec_class(specs[0])
        extra = _distinct_values(rng, names, size - 2, {cls}, None)
    return specs + extra, vec + [0] * len(extra)

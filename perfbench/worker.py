"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py smoke
    python3 perfbench/worker.py pass WORKLOAD SEED TRACE CHECK

``setup`` times ``import lihex`` plus ``series.catalog()``.  ``smoke``
checks known answers.  ``pass`` sends one workload's seeded request list
as a closed loop with one client and no think time, checks every answer
after the loop (unless CHECK is 0: a pass whose outputs the caller
compares with a checked pass), and prints its raw results.  Each mode
prints one JSON object as its last line of output.  A pass starts from
empty module caches, as every ``lihex`` command does.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402

# A window whose oracle precision 4*(d+count)+64 stays within this many
# bits is compared with a slice of eval_formula; deeper windows with the
# overlapping run one position earlier.  Both oracles cost about as much
# as the request at 16k bits, and the slice grows quadratically beyond.
ORACLE_BITS = 16384
OUT_DIR = ROOT / ".perfbench_out"


def _setup() -> dict:
    ref = [reference.sample() for _ in range(3)]
    t0 = time.perf_counter()
    import lihex  # noqa: F401
    t1 = time.perf_counter()
    from lihex import series
    series.catalog()
    t2 = time.perf_counter()
    ref += [reference.sample() for _ in range(3)]
    return {"import_s": t1 - t0, "catalog_s": t2 - t1, "reference": ref}


# ----------------------------------------------------------------------
# known answers, checked before any workload

def smoke_failures() -> list[str]:
    from lihex import (DigitRequest, RelationQuery, check_relation,
                       eval_formula, hex_digits, pslq)
    from lihex.series import SeriesSpec, eval_series

    bad = []
    for name, pos, count, want in (("pi", 1, 8, "243F6A88"),
                                   ("zeta3", 100, 12, "56A352A65193"),
                                   ("zeta3", 10000, 16, "8F811A52EA1EFFB4")):
        got = hex_digits(DigitRequest(name, pos, count)).digits
        if got != want:
            bad.append(f"{name}@{pos}: {got} != {want}")
    fx = eval_formula("catalan", 128).to_fixed(128)
    got = f"{fx % (1 << 128):032X}"
    if got != "EA7CB89F409AE845215822E37D32D0C6":
        bad.append(f"catalan@128 bits: {got}")
    if not check_relation("f11", 1024).passed:
        bad.append("f11 at 1024 bits does not pass")
    wp = 512 + 32
    vals = (eval_formula("catalan", wp),
            eval_series(SeriesSpec(2, 1, (1, -1, 1, 0, -1, 1, -1, 0)), wp),
            eval_series(SeriesSpec(2, 3, (1, 1, 1, 0, -1, -1, -1, 0)), wp))
    res = pslq(RelationQuery(tuple(v.round_to(512) for v in vals), 8))
    if (res.status, res.vector) != ("found", (1, -3, 2)):
        bad.append(f"discover example: {res.status} {res.vector}")
    return bad


# ----------------------------------------------------------------------
# the client

class Client:
    """Sends requests one after another and keeps what came back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        from lihex import hyper, ladders, relfind, series, spigot
        self.hyper, self.ladders, self.relfind = hyper, ladders, relfind
        self.series, self.spigot = series, spigot

    def value(self, spec: tuple, bits: int):
        """An MpReal for a value spec, as ``lihex discover`` builds it."""
        series, sp = self.series, self.tracer.span
        kind = spec[0]
        if kind == "formula":
            with sp("series.eval_formula"):
                return series.eval_formula(spec[1], bits)
        if kind == "series":
            s = series.SeriesSpec(spec[1], spec[2], spec[3])
            with sp("series.eval_series"):
                return series.eval_series(s, bits)
        if kind == "monomial":
            with sp("series.monomial"):
                return series.Monomial(pi=spec[1], log2=spec[2]).value(bits)
        a = self.value(spec[1], bits)
        b = self.value(spec[2], bits)
        return a.mul(b, bits)

    def values(self, specs, bits: int) -> tuple:
        wp = bits + 32
        return tuple(self.value(s, wp).round_to(bits) for s in specs)

    def call(self, req: workloads.Request):
        sp = self.tracer.span
        if req.kind == "digits":
            name, pos, count = req.args
            with sp("spigot.hex_digits"):
                run = self.spigot.hex_digits(
                    self.spigot.DigitRequest(name, pos, count))
            return run.digits, run.retries
        if req.kind == "relation":
            with sp("ladders.check_relation"):
                return self.ladders.check_relation(*req.args).passed
        if req.kind == "battery":
            name, bits = req.args
            with sp(f"hyper.{name}"):
                return all(r.passed for r in self.hyper.CHECKS[name](bits))
        specs, bits, digits = req.args
        vals = self.values(specs, bits)
        with sp("relfind.pslq"):
            res = self.relfind.pslq(self.relfind.RelationQuery(vals, digits))
        return res.status, res.vector, res.iterations

    def run(self, requests: list) -> dict:
        """Send every request; failures keep their latency sample.

        Every time here is on the reference clock, which leaves out its
        own samples; ``nominal`` holds each latency at nominal host speed.
        """
        latency, outputs, errors = [], [], {}
        with reference.Clock() as clock:
            self.tracer.now = clock.now
            t_start = clock.now()
            for req in requests:
                self.tracer.rid = req.rid
                t0 = clock.now()
                try:
                    with self.tracer.span("request"):
                        out = self.call(req)
                except Exception as exc:  # a failed request is a result
                    out = None
                    errors[req.rid] = f"{type(exc).__name__}: {exc}"
                latency.append((t0, clock.now()))
                outputs.append(out)
            wall = clock.now() - t_start
        self.tracer.now = time.perf_counter
        return {"latency": [t1 - t0 for t0, t1 in latency],
                "nominal": [clock.nominal(t0, t1) for t0, t1 in latency],
                "outputs": outputs, "errors": errors, "wall": wall,
                "reference": clock.took}


# ----------------------------------------------------------------------
# answer checks, after the timed loop

def check_outputs(client: Client, requests: list, outputs: list,
                  errors: dict) -> dict[int, str]:
    """Request id -> reason, for every request that raised or answered
    wrongly."""
    bad = dict(errors)
    answered = [(r, o) for r, o in zip(requests, outputs) if r.rid not in bad]
    bad.update(_check_digits(client, [(r, o) for r, o in answered
                                      if r.kind == "digits"]))
    for req, out in answered:
        if req.kind != "digits":
            why = _check_one(client, req, out)
            if why:
                bad[req.rid] = why
    return bad


def _check_one(client: Client, req, out) -> str | None:
    if req.kind in ("relation", "battery"):
        return None if out is True else "check did not pass"
    status, vector, _ = out
    want_status, want_vector = req.expect
    if status != want_status:
        return f"status {status}, expected {want_status}"
    if status != "found":
        return None
    if vector != want_vector:
        return f"vector {vector}, expected {want_vector}"
    specs, bits, _ = req.args
    vals = client.values(specs, 2 * bits)
    rep = client.relfind.verify_vector(vector, vals, 2 * bits)
    return None if rep.passed else "vector fails at twice the precision"


def _check_digits(client: Client, answered: list) -> dict[int, str]:
    need: dict[str, int] = {}
    shallow, deep = [], []
    for req, out in answered:
        name, d, count = req.args
        wp = 4 * (d + count) + 64
        if wp <= ORACLE_BITS:
            need[name] = max(need.get(name, 0), wp)
            shallow.append((req, out))
        else:
            deep.append((req, out))
    # one evaluation per constant at the deepest precision any shallow
    # window needs; every shallow window is a slice of it
    exact = {name: client.series.eval_formula(name, wp).to_fixed(wp)
             for name, wp in need.items()}
    bad = {}
    for req, out in shallow:
        name, d, count = req.args
        wp = need[name]
        window = (exact[name] >> (wp - 4 * (d - 1 + count))) % (1 << 4 * count)
        if out[0] != f"{window:0{count}X}":
            bad[req.rid] = f"{name}@{d}: {out[0]} != {window:0{count}X}"
    # the overlap runs cost as much as the requests; two processes halve
    # the wait, deepest first so neither idles at the end
    deep.sort(key=lambda t: -t[0].args[1])
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        prevs = pool.map(_window_before, [r.args for r, _ in deep],
                         chunksize=1)
    for (req, out), prev in zip(deep, prevs):
        name, d, count = req.args
        if prev[1:1 + count] != out[0][:len(prev) - 1]:
            bad[req.rid] = f"{name}@{d}: {out[0]} disagrees with {prev} at d-1"
    return bad


def _window_before(args: tuple) -> str:
    """Digits from one position earlier, one digit longer."""
    from lihex import DigitRequest, hex_digits
    name, d, count = args
    return hex_digits(DigitRequest(name, d - 1, min(count + 1, 64))).digits


# ----------------------------------------------------------------------
# layer metrics from the traced run

def layer_metrics(stats: SpanStats, requests: list, outputs: list,
                  bad: dict) -> dict:
    """Per-layer numbers; a timing whose span never appeared is None."""
    from lihex import catalog
    m: dict[str, float | int | None] = {}
    by_kind: dict[str, list] = {}
    for req, out in zip(requests, outputs):
        by_kind.setdefault(req.kind, []).append((req, out))

    digit_runs = [(r, o) for r, o in by_kind.get("digits", []) if o]
    m["spigot.calls"] = stats.calls("spigot.hex_digits")
    m["spigot.busy_s"] = stats.busy("spigot.hex_digits")
    cat = catalog()
    terms = 0
    for req, (_, retries) in digit_runs:
        name, d, count = req.args
        for attempt in range(retries + 1):
            acc = 4 * count + 64 * 2 ** attempt
            terms += sum(2 * (4 * (d - 1) + acc + 8) // s.p + 2
                         for _, s in cat[name].terms)
    m["spigot.terms"] = terms
    m["spigot.ns_per_term"] = (None if not terms or m["spigot.busy_s"] is None
                               else m["spigot.busy_s"] / terms * 1e9)
    m["spigot.guard_retries"] = sum(o[1] for _, o in digit_runs)
    m["spigot.guard_exhausted"] = sum(
        1 for r, _ in by_kind.get("digits", [])
        if "GuardExhausted" in bad.get(r.rid, ""))

    for name in ("eval_formula", "eval_series"):
        m[f"series.{name}.calls"] = stats.calls(f"series.{name}")
        m[f"series.{name}.busy_s"] = stats.busy(f"series.{name}")
    m["series.monomial.busy_s"] = stats.busy("series.monomial")

    m["ladders.check_relation.calls"] = stats.calls("ladders.check_relation")
    m["ladders.check_relation.busy_s"] = stats.busy("ladders.check_relation")
    m["ladders.check_relation.self_s"] = stats.self_time(
        "ladders.check_relation")
    m["ladders.failed"] = sum(1 for r, _ in by_kind.get("relation", [])
                              if r.rid in bad)
    from lihex import hyper
    for name in hyper.CHECKS:
        m[f"hyper.{name}.busy_s"] = stats.busy(f"hyper.{name}")
    m["hyper.failed"] = sum(1 for r, _ in by_kind.get("battery", [])
                            if r.rid in bad)

    for name in ("zeta", "dirichlet_beta", "bernoulli", "hurwitz", "polylog",
                 "gamma"):
        m[f"mp.special.{name}.busy_s"] = stats.busy(f"mp.special.{name}")
    m["mp.special.bernoulli.calls"] = stats.calls("mp.special.bernoulli")

    results = [o for _, o in by_kind.get("pslq", []) if o]
    m["relfind.pslq.calls"] = stats.calls("relfind.pslq")
    m["relfind.pslq.busy_s"] = stats.busy("relfind.pslq")
    iters = sum(o[2] for o in results)
    m["relfind.iterations"] = iters
    m["relfind.us_per_iteration"] = (
        None if not iters or m["relfind.pslq.busy_s"] is None
        else m["relfind.pslq.busy_s"] / iters * 1e6)
    for status in ("found", "none_within_bound", "inconclusive"):
        m[f"relfind.{status}"] = sum(1 for o in results if o[0] == status)
    return m


def input_properties(requests: list) -> dict:
    """Repeat share and the depth histograms a cache change must cite."""
    seen, repeats = set(), 0
    hist: dict[str, dict[str, int]] = {}
    for req in requests:
        if req.key in seen:
            repeats += 1
        seen.add(req.key)
        if req.kind == "digits":
            pos = req.args[1]
            b = f"2^{pos.bit_length() - 1}"
            hist.setdefault("position", {})
            hist["position"][b] = hist["position"].get(b, 0) + 1
        else:
            bits = req.args[1]
            h = hist.setdefault(f"{req.kind}_bits", {})
            h[str(bits)] = h.get(str(bits), 0) + 1
    return {"repeat_share": repeats / len(requests), "histograms": hist}


def _pass(workload: str, seed: int, trace: bool, check: bool) -> dict:
    tracer = Tracer(trace)
    names = workloads.names_from_library()
    if trace:
        tracer.install_special_wrappers()
    requests = workloads.generate(workload, seed, names)
    client = Client(tracer)
    res = client.run(requests)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    loop_spans, tracer.spans = tracer.spans, []
    if trace:
        # verify_vector belongs to the relations answer check; it is the
        # one call traced after the loop, into a span list of its own
        client.relfind.verify_vector = tracer.wrap(
            "relfind.verify_vector", client.relfind.verify_vector)
    tracer.rid = -1
    bad = (check_outputs(client, requests, res["outputs"], res["errors"])
           if check else dict(res["errors"]))
    out = {
        "attempted": len(requests),
        "failed": len(bad),
        "failures": {str(k): v for k, v in sorted(bad.items())[:10]},
        "latency": res["latency"],
        "wall": res["wall"],
        "nominal": res["nominal"],
        "reference": res["reference"],
        "peak_rss_mb": max(own, kids) / 1024.0,
        "inputs": input_properties(requests),
        "outputs": [repr(o) for o in res["outputs"]],
    }
    if trace:
        check_spans, tracer.spans = tracer.spans, loop_spans
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
        stats, checks = SpanStats(loop_spans), SpanStats(check_spans)
        out["layers"] = layer_metrics(stats, requests, res["outputs"], bad)
        out["layers"]["relfind.verify_vector.busy_s"] = checks.busy(
            "relfind.verify_vector")
        out["span_names"] = sorted(stats.names | checks.names)
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = _setup()
    elif mode == "smoke":
        result = {"failures": smoke_failures()}
    elif mode == "pass":
        result = _pass(argv[1], int(argv[2]), argv[3] == "1", argv[4] == "1")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

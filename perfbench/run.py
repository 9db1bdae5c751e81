"""lihex benchmark: one command, one workload, every answer checked.

    python3 perfbench/run.py --workload digits --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run checks the known-answer smoke gate, times set-up in
fresh interpreters, then sends the workload's seeded request list from a
fresh interpreter (see worker.py) and prints one JSON object as the last
line of output.  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` makes an untraced and a traced pass with
the same seed and reports the per-layer metrics, the tracing overhead
among them.  Input properties of the request list go on the line before.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9
# a pass is sized to take about --seconds; one that needs three times as
# long has regressed far past any bound, and the run fails instead of
# hanging.  The whole run must end within 180 s.
PASS_TIMEOUT_FACTOR = 3
RUN_DEADLINE_S = 170
MISSING = -1.0   # per-layer value of a timing whose span never appeared
TIME_UNITS = ("s", "ms", "us", "ns")


def _worker(*args: str, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantiles(xs: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    cuts = statistics.quantiles(xs, n=10, method="inclusive")
    return statistics.median(xs), cuts[8]


def setup_seconds(s: dict) -> float:
    """One set-up sample at nominal host speed."""
    return (s["import_s"] + s["catalog_s"]) * reference.scale(s["reference"])


def end_to_end(p: dict, setup: list[dict]) -> dict:
    """Every timing at nominal host speed (see reference.py).  The loop
    has one client and no think time, so its wall clock is the sum of
    the latencies."""
    p50, p90 = _quantiles(p["nominal"])
    return {
        "setup_s": {"value": statistics.median(map(setup_seconds, setup)),
                    "unit": "s"},
        "requests_per_s": {"value": p["attempted"] / sum(p["nominal"]),
                           "unit": "1/s"},
        "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": p["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(traced: dict, plain: dict, setup: list[dict],
              units: dict[str, str]) -> dict:
    k = reference.scale(traced["reference"])
    layers = {name: v * k if v is not None and units.get(name) in TIME_UNITS
              else v for name, v in traced["layers"].items()}
    for part, name in (("catalog_s", "series.catalog_s"),
                       ("import_s", "setup.import_s")):
        layers[name] = statistics.median(
            s[part] * reference.scale(s["reference"]) for s in setup)
    rps_plain = end_to_end(plain, setup)["requests_per_s"]["value"]
    rps_traced = end_to_end(traced, setup)["requests_per_s"]["value"]
    layers["trace.overhead_share"] = 1.0 - rps_traced / rps_plain
    layers["input.repeat_share"] = traced["inputs"]["repeat_share"]
    layers["failed_share"] = traced["failed"] / traced["attempted"]
    layers["latency.samples"] = len(traced["latency"])
    return {name: {"value": MISSING if layers.get(name) is None
                   else layers[name], "unit": unit}
            for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "lihex" / "__init__.py").is_file():
        print("no lihex sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    pass_timeout = PASS_TIMEOUT_FACTOR * args.seconds

    def left(cap: float) -> float:
        return max(1.0, min(cap, deadline - time.monotonic()))

    try:
        smoke = _worker("smoke", timeout=left(60))
        if smoke["failures"]:
            print("known-answer smoke gate failed; no numbers published:",
                  *smoke["failures"], sep="\n  ", file=sys.stderr)
            return 1
        setup = [_worker("setup", timeout=left(30))
                 for _ in range(SETUP_SAMPLES)]
        # with --trace 1 the untraced pass only gives the overhead's
        # baseline; its outputs must equal those of the checked traced pass
        passes = [_worker("pass", args.workload, str(args.seed), "0",
                          "0" if args.trace else "1",
                          timeout=left(pass_timeout))]
        if args.trace:
            passes.append(_worker("pass", args.workload, str(args.seed), "1",
                                  "1", timeout=left(pass_timeout)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    p = passes[-1]
    correct = all(q["failed"] == 0 for q in passes)
    if args.trace and passes[0]["outputs"] != passes[1]["outputs"]:
        correct = False
        print("traced and untraced passes disagree", file=sys.stderr)
    for q in passes:
        for rid, why in q["failures"].items():
            print(f"request {rid} failed: {why}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed,
            "samples": len(p["latency"]), "inputs": p["inputs"],
            "reference_ms": statistics.median(p["reference"]) * 1e3,
            "measured": {"setup_s": statistics.median(
                             s["import_s"] + s["catalog_s"] for s in setup),
                         "wall_s": p["wall"]}}
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = per_layer(p, passes[0], setup, units)
        expected = json.loads((HERE / "predictions.json").read_text())
        info["missing"] = [s for s in
                           expected["workloads"][args.workload]["spans"]
                           if s not in p["span_names"]]
    else:
        metrics = end_to_end(p, setup)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": p["attempted"],
                      "failed": p["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def names():
    return workloads.names_from_library()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_request_list(names, workload):
    a = workloads.generate(workload, 7, names)
    assert a == workloads.generate(workload, 7, names)
    assert a != workloads.generate(workload, 8, names)
    assert len(a) >= 100


def test_benchmark_names_every_workload():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def _small_requests(names):
    """One cheap request of each kind, answers known."""
    reqs = [
        workloads.Request(0, "digits", ("pi", 1), ("pi", 1, 8)),
        workloads.Request(1, "digits", ("zeta3", 5000), ("zeta3", 5000, 8)),
        workloads.Request(2, "relation", ("w11", 256), ("w11", 256)),
        workloads.Request(3, "battery", ("U", 256), ("U", 256)),
    ]
    specs = (("formula", "catalan"),
             ("series", 2, 1, (1, -1, 1, 0, -1, 1, -1, 0)),
             ("series", 2, 3, (1, 1, 1, 0, -1, -1, -1, 0)))
    reqs.append(workloads.Request(4, "pslq", (specs, 512), (specs, 512, 8),
                                  ("found", (1, -3, 2))))
    specs = (("formula", "pi"), ("formula", "zeta3"), ("monomial", 0, 1))
    reqs.append(workloads.Request(5, "pslq", (specs, 512), (specs, 512, 8),
                                  ("none_within_bound", None)))
    return reqs


def test_wrong_expected_answer_counts_as_failed(names):
    reqs = _small_requests(names)
    reqs[4] = replace(reqs[4], expect=("found", (1, -3, 3)))
    client = worker.Client(Tracer(False))
    res = client.run(reqs)
    bad = worker.check_outputs(client, reqs, res["outputs"],
                                 res["errors"])
    assert set(bad) == {4}
    assert len(res["latency"]) == len(reqs)
    assert all(t > 0 for t in res["latency"])


def test_wrong_digits_count_as_failed(names):
    reqs = _small_requests(names)[:2]
    client = worker.Client(Tracer(False))
    res = client.run(reqs)
    assert worker.check_outputs(client, reqs, res["outputs"], {}) == {}
    res["outputs"][1] = ("0" * 8, 0)
    assert set(worker.check_outputs(client, reqs, res["outputs"], {})) == {1}


def test_every_benchmark_metric_is_reported_with_its_unit(names):
    reqs = _small_requests(names)
    tracer = Tracer(True)
    client = worker.Client(tracer)
    res = client.run(reqs)
    bad = worker.check_outputs(client, reqs, res["outputs"],
                                 res["errors"])
    assert bad == {}
    layers = worker.layer_metrics(SpanStats(tracer.spans), reqs,
                                  res["outputs"], bad)
    p = {"attempted": len(reqs), "failed": 0, "wall": res["wall"],
         "latency": res["latency"], "peak_rss_mb": 20.0, "layers": layers,
         "inputs": worker.input_properties(reqs),
         "nominal": res["nominal"], "reference": res["reference"]}
    setup = [{"import_s": 0.1, "catalog_s": 0.05, "reference": [0.01]}]
    e2e = run.end_to_end(p, setup)
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    lay = run.per_layer(p, p, setup, units)
    for section, got in (("end_to_end", e2e), ("per_layer", lay)):
        for m in BENCH[section]:
            assert got[m["name"]]["unit"] == m["unit"], m["name"]
            assert isinstance(got[m["name"]]["value"], (int, float))
    assert set(e2e) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(lay) == set(units)


def test_timings_are_scaled_by_the_host_speed_around_them():
    """A request timed while the reference loop ran twice as slow as
    nominal is reported at half its measured time."""
    n = reference.NOMINAL_S
    clock = reference.Clock()
    clock.at, clock.took = [0.0, 0.5, 10.0, 10.5], [2 * n, 2 * n, n, n]
    assert clock.nominal(0.1, 0.3) == pytest.approx(0.1)
    assert clock.nominal(10.1, 10.3) == pytest.approx(0.2)
    setup = [{"import_s": 0.2, "catalog_s": 0.1, "reference": [2 * n] * 3}]
    p = {"attempted": 4, "nominal": [0.1] * 4, "peak_rss_mb": 20.0}
    e2e = run.end_to_end(p, setup)
    assert e2e["setup_s"]["value"] == pytest.approx(0.15)
    assert e2e["latency_p50_ms"]["value"] == pytest.approx(100.0)
    assert e2e["requests_per_s"]["value"] == pytest.approx(10.0)


def test_span_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    st = SpanStats(spans)
    assert st.busy("a") == 10.0
    assert st.self_time("a") == 6.0
    assert st.busy("b") == 4.0
    assert st.calls("b") == 2
    assert st.busy("missing") is None


def test_nested_spans_of_one_name_count_once():
    spans = [["h", 0.0, 5.0, -1, 0], ["h", 1.0, 2.0, 0, 0]]
    assert SpanStats(spans).busy("h") == 5.0

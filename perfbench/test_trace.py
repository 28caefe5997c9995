"""Reads a trace file back and checks its structure.

    python3 -m pytest perfbench/test_trace.py
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qalb  # noqa: E402
import qalb.cli  # noqa: E402,F401

import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import Clock  # noqa: E402


def _traced_run(tmp_path):
    t = tracer.Tracer("test-run")
    with t.instrumented(layers.LayerProbes(qalb).targets()):
        clock = Clock(t)
        with clock.op():
            code = qalb.cli.main(
                ["quantum", "--set", "qc=1", "--set", "steps=3", "--out", str(tmp_path / "q.csv")]
            )
        with clock.op():
            model = qalb.lattice.build_lattice("D2Q9")
            fld = qalb.classical.DistributionField(model=model, data=np.ones((4, 4, 9)))
            qalb.classical.step(fld, 1.0, 0.5)
        audit = layers.certificate_audit(qalb, t)
    path = tmp_path / "trace.json"
    t.write(path, {"audit": audit})
    return code, audit, tracer.read(path)


def test_trace_file_round_trip(tmp_path):
    code, audit, doc = _traced_run(tmp_path)
    assert code == 0
    assert not hasattr(qalb.engine.propagator, "__wrapped__"), "wrappers not removed"
    spans = doc["spans"]
    by_id = {s["id"]: s for s in spans}
    assert [s["id"] for s in spans] == list(range(len(spans)))

    # parent links: the parent exists, was opened first, belongs to the same
    # run and encloses the child in time
    for s in spans:
        assert s["run"] == "test-run"
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        assert parent["id"] < s["id"]
        assert parent["run"] == s["run"]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]

    def child_names(name):
        return {c["name"] for s in spans if s["name"] == name for c in spans if c["parent"] == s["id"]}

    assert {"engine.hamiltonian_nonhermitian", "linalg.expm"} <= child_names("engine.propagator")
    assert {"classical.collide", "classical.stream"} <= child_names("classical.step")
    assert {"engine.evolve_quantum_0d", "cli.write_csv"} <= child_names("cli.main")

    # self times plus the uncovered time add up to each root span
    roots = tracer.root_summary(spans)
    assert {r["name"] for r in roots} == {"bench.op", "bench.audit"}
    for r in roots:
        total = sum(r["self_by_name"].values()) + r["uncovered"]
        assert abs(total - r["duration"]) <= 1e-9 * max(1.0, r["duration"])
        assert r["uncovered"] >= 0.0

    assert len(doc["audit"]) == 6


def test_layer_metrics_match_benchmark_json(tmp_path):
    _, audit, doc = _traced_run(tmp_path)
    metrics = layers.layer_metrics(doc["spans"], audit, span_cost=0.0)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert metrics["engine.H_nnz"]["value"] > 0
    assert metrics["classical.collide_ms"]["value"] > 0.0
    assert metrics["streaming.stream_state_ms"]["value"] == 0.0

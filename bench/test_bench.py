"""Tests of the benchmark itself: inputs, failure counting and the wrappers.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
from types import SimpleNamespace

# workloads puts src/ on sys.path, so it is imported before krtorus
from workloads import PINS, WORKLOADS, Op, Result, build_ops, check, check_ownership, run_op

import krtorus.cli  # noqa: E402
from krtorus.fields import preset_field  # noqa: E402
from krtorus.surface import dump_surface  # noqa: E402
from run import ROOT, UNITS, Checker  # noqa: E402
from tracer import PER_LAYER, TARGETS, Tracer  # noqa: E402


def _inputs(workload, seed, work):
    build_ops(workload, seed, work)
    return {p.name: p.read_bytes() for p in sorted((work / "in").iterdir())}


def test_same_seed_same_inputs_and_seed_moves_only_reeb_random(tmp_path):
    for workload in WORKLOADS:
        a = _inputs(workload, 0, tmp_path / f"{workload}-a")
        b = _inputs(workload, 0, tmp_path / f"{workload}-b")
        c = _inputs(workload, 1, tmp_path / f"{workload}-c")
        assert a == b, workload
        if workload == "reeb-random":
            assert a.keys() == c.keys()
            assert all(a[name] != c[name] for name in a)
        else:
            assert a == c, workload


def _analyze_op(tmp_path, name="two-cell", grid=32):
    path = tmp_path / f"{name}-{grid}.txt"
    path.write_text(dump_surface(preset_field(name, grid)))
    op_id = f"analyze {name}@{grid}"
    return Op(op_id, "analyze", ["analyze", str(path), "--out", str(tmp_path / "out.json")],
              tmp_path / "out.json", PINS["presets-scale"][op_id])


def _reject_op(tmp_path):
    path = tmp_path / "cyclic.txt"
    path.write_text(dump_surface(preset_field("cyclic-height", 64)))
    op_id = "analyze cyclic-height@64"
    return Op(op_id, "reject", ["analyze", str(path), "--format", "json"], None,
              PINS["presets-scale"][op_id])


def test_negative_controls_count_as_failed_ops(tmp_path):
    ok_op, rej_op = _analyze_op(tmp_path), _reject_op(tmp_path)
    ok = run_op(ok_op)
    rej = run_op(rej_op)
    assert check(ok_op, ok) == [] and check(rej_op, rej) == []

    flipped = bytearray(ok.output)
    flipped[len(flipped) // 2] ^= 1
    bad = [
        (ok_op, Result(0, bytes(flipped), "")),  # one flipped output byte
        (ok_op, Result(2, ok.output, "")),  # wrong exit code
        (rej_op, Result(1, b"", rej.stderr.replace("not-a-tree", "degenerate-level"))),
        (rej_op, Result(0, b"", rej.stderr)),  # accepted a rejected input
        (ok_op, Result(None, b"", "", "ValueError: boom")),  # uncaught exception
    ]
    for op, res in bad:
        assert check(op, res), res

    checker = Checker([ok_op, rej_op])
    checker.add("pass 1", [ok, rej])
    checker.add("pass 2", [bad[0][1], bad[2][1]])
    assert checker.attempted == 4 and len(checker.failures) == 2


def test_verify_and_reeb_checks_catch_bad_outputs():
    verify_op = Op("verify", "verify", [])
    good = {"passed": True, "checks": [{"name": n, "passed": True, "detail": ""}
                                       for n in ("wreath-axioms-exactness",
                                                 "index-lattice-exactness", "kernel-size")]}
    assert check(verify_op, Result(0, json.dumps(good).encode(), "")) == []
    failing = json.loads(json.dumps(good))
    failing["checks"][2]["passed"] = False
    assert check(verify_op, Result(0, json.dumps(failing).encode(), ""))
    missing = {"passed": True, "checks": good["checks"][:2]}
    assert check(verify_op, Result(0, json.dumps(missing).encode(), ""))

    reeb_op = Op("reeb", "reeb", [])
    broken = {"nodes": [{"euler": 1}], "edges": []}
    assert check(reeb_op, Result(0, json.dumps(broken).encode(), ""))
    assert check(reeb_op, Result(0, b'{"nodes": [{}]}', ""))  # malformed, not a crash

    pinned = Op("reeb random_field(16)", "reeb", [], None,
                PINS["reeb-random"]["reeb random_field(16)"])
    g = SimpleNamespace(node_map={0: (0, 1)}, band_map={0: (1, 2)})
    assert check_ownership(pinned, g, 3)
    assert check_ownership(Op("reeb", "reeb", []), g, 3)  # triangle 1 owned twice
    assert not check_ownership(Op("reeb", "reeb", []),
                               SimpleNamespace(node_map={0: (0,)}, band_map={0: (1, 2)}), 3)


def test_wrappers_install_and_remove_leave_analyze_bytes_unchanged(tmp_path):
    op = _analyze_op(tmp_path)
    originals = [getattr(owner, attr) for owner, attr, _, _ in TARGETS]
    before = run_op(op)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_op(op)
    finally:
        tracer.remove()
    after = run_op(op)
    assert check(op, before) == check(op, traced) == check(op, after) == []
    assert before.output == traced.output == after.output
    assert [getattr(owner, attr) for owner, attr, _, _ in TARGETS] == originals
    assert krtorus.cli.main is originals[0]

    metrics = tracer.metrics(0.0)
    assert metrics["pipeline.analyze.s"] > 0
    assert metrics["reeb.compute_reeb.s"] <= metrics["pipeline.analyze.s"] <= metrics["cli.main.s"]
    assert metrics["surface.load_surface.calls"] == 1
    assert metrics["partition.level_structure.calls"] == 1
    assert metrics["symmetry.kept"] == 1 and metrics["symmetry.candidates"] >= 1


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, None, "op"],
                    ["pipeline.analyze", 1.0, 9.0, 0, "op"],
                    ["reeb.compute_reeb", 2.0, 5.0, 1, "op"],
                    ["partition.build_partition", 5.0, 8.0, 1, "op"]]
    m = tracer.metrics(0.25)
    assert m["cli.main.s"] == 10.0 and m["cli.main.self_s"] == 2.0
    assert m["pipeline.analyze.self_s"] == 2.0
    assert m["reeb.compute_reeb.self_s"] == 3.0
    assert m["trace.overhead_ratio"] == 0.25


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

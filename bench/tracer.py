"""Per-module spans recorded from outside the program.

The wrappers replace a function at the module binding its callers look
up (``from .reeb import compute_reeb`` in pipeline.py makes
``krtorus.pipeline.compute_reeb`` the binding analyze() calls), so no
file under src/ changes. Each span keeps its name, start, end, parent
span and op id in memory; the run writes them out when it ends.
"""
from __future__ import annotations

import json
import time
from collections import Counter

import krtorus.cli
import krtorus.homology
import krtorus.partition
import krtorus.pipeline
import krtorus.reeb
import krtorus.symmetry
import krtorus.wreath


def _reeb_sizes(counts, args, g):
    counts["reeb.nodes"] += len(g.nodes)
    counts["reeb.edges"] += len(g.edges)


def _cell_counts(counts, args, p):
    counts["partition.zero_cells"] += len(p.zero_cells)
    counts["partition.one_cells"] += len(p.one_cells)
    counts["partition.two_cells"] += len(p.two_cells)


def _kept(counts, args, elements):
    counts["symmetry.kept"] += len(elements)


def _snf_cells(counts, args, res):
    rows, cols = args[0].shape
    counts["homology.snf_max_cells"] = max(counts["homology.snf_max_cells"], rows * cols)


# (module, attribute, span name, observer of the result)
TARGETS = (
    (krtorus.cli, "main", "cli.main", None),
    (krtorus.cli, "load_surface", "surface.load_surface", None),
    (krtorus.cli, "validate_closed_orientable", "surface.validate_closed_orientable", None),
    (krtorus.pipeline, "validate_closed_orientable", "surface.validate_closed_orientable", None),
    (krtorus.reeb, "vertex_classes", "surface.vertex_classes", None),
    (krtorus.partition, "vertex_classes", "surface.vertex_classes", None),
    (krtorus.symmetry, "vertex_classes", "surface.vertex_classes", None),
    (krtorus.cli, "compute_reeb", "reeb.compute_reeb", _reeb_sizes),
    (krtorus.pipeline, "compute_reeb", "reeb.compute_reeb", _reeb_sizes),
    (krtorus.reeb, "level_structure", "reeb.level_structure", None),
    (krtorus.pipeline, "find_special_vertex", "reeb.find_special_vertex", None),
    (krtorus.pipeline, "build_partition", "partition.build_partition", _cell_counts),
    (krtorus.partition, "level_structure", "partition.level_structure", None),
    (krtorus.partition, "chain_homology", "partition.chain_homology", None),
    (krtorus.pipeline, "enumerate_symmetries", "symmetry.enumerate_symmetries", _kept),
    (krtorus.pipeline, "group_structure", "symmetry.group_structure", None),
    (krtorus.pipeline, "index_orbits", "symmetry.index_orbits", None),
    (krtorus.symmetry, "h1_action", "homology.h1_action", None),
    (krtorus.symmetry, "cokernel_invariants", "homology.cokernel_invariants", None),
    (krtorus.homology, "smith_normal_form", "homology.smith_normal_form", _snf_cells),
    (krtorus.homology, "unimodular_inverse", "homology.unimodular_inverse", None),
    (krtorus.cli, "analyze", "pipeline.analyze", None),
    (krtorus.pipeline, "extract_disk_field", "pipeline.extract_disk_field", None),
    (krtorus.cli, "canonical_json", "pipeline.canonical_json", None),
    (krtorus.cli, "verify_extension", "pipeline.verify_extension", None),
    (krtorus.pipeline, "check_group_axioms", "wreath.check_group_axioms", None),
    (krtorus.pipeline, "check_exact_sequence", "wreath.check_exact_sequence", None),
)
# called ~10^6 times per verify pass, so it is counted, not spanned
COUNTED = ((krtorus.wreath.WreathGroup, "multiply", "wreath.multiply.calls"),)

TIMED = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("surface.load_surface.calls", "count"), ("surface.load_surface.s", "s"),
    ("surface.validate_closed_orientable.s", "s"),
    ("surface.vertex_classes.calls", "count"), ("surface.vertex_classes.s", "s"),
    ("reeb.compute_reeb.s", "s"), ("reeb.compute_reeb.self_s", "s"),
    ("reeb.level_structure.calls", "count"), ("reeb.level_structure.s", "s"),
    ("reeb.find_special_vertex.s", "s"), ("reeb.nodes", "count"), ("reeb.edges", "count"),
    ("partition.build_partition.s", "s"), ("partition.build_partition.self_s", "s"),
    ("partition.level_structure.calls", "count"), ("partition.chain_homology.s", "s"),
    ("partition.zero_cells", "count"), ("partition.one_cells", "count"),
    ("partition.two_cells", "count"),
    ("symmetry.enumerate_symmetries.s", "s"), ("symmetry.enumerate_symmetries.self_s", "s"),
    ("symmetry.group_structure.s", "s"), ("symmetry.group_structure.self_s", "s"),
    ("symmetry.index_orbits.s", "s"), ("symmetry.candidates", "count"),
    ("symmetry.kept", "count"), ("symmetry.kept_ratio", "ratio"),
    ("homology.h1_action.calls", "count"), ("homology.h1_action.s", "s"),
    ("homology.smith_normal_form.calls", "count"), ("homology.smith_normal_form.s", "s"),
    ("homology.unimodular_inverse.calls", "count"), ("homology.unimodular_inverse.s", "s"),
    ("homology.cokernel_invariants.s", "s"), ("homology.snf_max_cells", "cells"),
    ("pipeline.analyze.s", "s"), ("pipeline.analyze.self_s", "s"),
    ("pipeline.extract_disk_field.calls", "count"), ("pipeline.extract_disk_field.s", "s"),
    ("pipeline.canonical_json.s", "s"),
    ("pipeline.verify_extension.s", "s"), ("pipeline.verify_extension.self_s", "s"),
    ("wreath.check_group_axioms.s", "s"), ("wreath.check_exact_sequence.s", "s"),
    ("wreath.multiply.calls", "count"),
    ("cli.main.s", "s"), ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them again."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []

    def _span(self, name, fn, observe):
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for owner, attr, name, observe in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn, observe))
        for owner, attr, name in COUNTED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count(name, fn))

    def remove(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-layer totals over every span recorded, as {name: value}."""
        calls, total, child = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += dur
            if not self._nested_in_same(i):
                total[name] += dur
        self_s = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        cand = calls["homology.h1_action"]
        out["symmetry.candidates"] = cand
        out["symmetry.kept_ratio"] = self.counts["symmetry.kept"] / cand if cand else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out.get(name, 0) for name, _ in PER_LAYER}

    def _nested_in_same(self, i) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}, sort_keys=True) + "\n")

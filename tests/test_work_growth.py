"""Work growth of the pipeline stages, counted without a stopwatch.

The count is the number of ``sys.settrace`` "line" events in the
package's own files during one call on a fresh surface, so it does not
depend on the machine or its load. Each size step quadruples the mesh:
a linear stage grows about x4 and a quadratic one x8 or more. Only the
ratios between consecutive sizes are asserted, since line events differ
between Python versions.
"""
from __future__ import annotations

import itertools
import sys
from functools import lru_cache, partial
from pathlib import Path

import pytest

import krtorus
from krtorus.fields import PRESET_NAMES, preset_field, pullback_cosine_field, random_field
from krtorus.partition import build_partition
from krtorus.pipeline import extract_disk_field
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.surface import validate_closed_orientable
from krtorus.symmetry import enumerate_symmetries, group_structure, index_orbits
from krtorus.wreath import CyclicGroup, WreathGroup, check_group_axioms

import oracles

PACKAGE = str(Path(krtorus.__file__).resolve().parent)


def line_events(fn, *args) -> int:
    """Lines of the package executed by fn(*args)."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def growth(make, sizes=(16, 32, 64), stage=compute_reeb) -> list[float]:
    counts = [line_events(stage, make(n)) for n in sizes]
    return [b / a for a, b in zip(counts, counts[1:])]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_reeb_grows_linearly_on_presets(name):
    # about x3.3-3.9 per step
    assert max(growth(lambda n: preset_field(name, n))) <= 5


def test_reeb_grows_near_linearly_on_random_fields():
    # the sweep meets x4.2-4.3 here (n log n: the split walks); the bound
    # is x5. Walking every critical contour whole grew x7.9 and x6.6
    assert max(growth(lambda n: random_field(n, 1))) <= 5


@lru_cache(maxsize=None)
def _diag(k: int, grid: int):
    """The stage inputs of the pullback along diag(k, k), order k^2."""
    s = pullback_cosine_field(grid, ((k, 0), (0, k)))
    g = compute_reeb(s)
    v = find_special_vertex(g)
    p = build_partition(s, g, v)
    elements = enumerate_symmetries(p)
    return s, g, v, p, elements, group_structure(elements)


STAGE_ARGS = {
    find_special_vertex: lambda s, g, v, p, els, sg: (g,),
    build_partition: lambda s, g, v, p, els, sg: (s, g, v),
    enumerate_symmetries: lambda s, g, v, p, els, sg: (p,),
    group_structure: lambda s, g, v, p, els, sg: (els,),
    index_orbits: lambda s, g, v, p, els, sg: (sg, p),
}


def stage_growth(stage, ks, per_k) -> list[float]:
    """Growth of one stage on diag(k,k)@(per_k * k) between consecutive ks."""
    args = STAGE_ARGS[stage]
    counts = [line_events(stage, *args(*_diag(k, per_k * k))) for k in ks]
    return [b / a for a, b in zip(counts, counts[1:])]


def test_orbits_grow_linearly():
    # diag(k,k)@8k, k = 2, 4, 8 (order 4, 16, 64): x3.4 and x3.8. Checking
    # equivariance for every L^a M^b grew x9.4 and x14.0
    assert max(stage_growth(index_orbits, (2, 4, 8), 8)) <= 5


def test_symmetries_grow_near_linearly():
    # x3.8 and x3.9. Whole automorphisms with a freeness scan and an
    # h1_action call each grew x8.5 and x12.5. The 2-cell permutation
    # composed per automorphism runs in C, so it adds no line
    assert max(stage_growth(enumerate_symmetries, (2, 4, 8), 8)) <= 5


def test_group_grows_near_linearly():
    # x4.6 and x6.8: the cycles through 2-cell 0 add up the element orders,
    # which on Z_k x Z_k grow as order^1.5 (x7.9 and x8.0 per step). A
    # walk composing whole automorphisms on Cayley edges grew x8.1 and x13.9
    assert max(stage_growth(group_structure, (2, 4, 8), 8)) <= 10.5


def test_partition_grows_linearly():
    # diag(k,k)@4k, k = 4, 8, 16 (order 16, 64, 256): x4.0 and x4.0. The
    # all-pairs branch scans grew x4.4 and x5.4
    assert max(stage_growth(build_partition, (4, 8, 16), 4)) <= 5


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_validate_grows_linearly(name):
    # x3.99 and x4.00 on each preset
    assert max(growth(lambda n: preset_field(name, n), stage=validate_closed_orientable)) <= 5


def test_special_vertex_grows_linearly():
    # the preset graphs keep their size as the grid grows, so the pullbacks
    # diag(k,k)@8k, k = 2, 4, 8 (9, 33, 129 nodes): x3.71 and x3.92
    assert max(stage_growth(find_special_vertex, (2, 4, 8), 8)) <= 5


def _every_disk(p, reps):
    for rep in reps:
        extract_disk_field(p, rep)


def _disk_inputs(s):
    """The partition of s and its orbit representatives."""
    g = compute_reeb(s)
    p = build_partition(s, g, find_special_vertex(g))
    return p, index_orbits(group_structure(enumerate_symmetries(p)), p)[1]


@pytest.mark.parametrize("name", ("two-cell", "z2-sym", "z2xz2-sym"))
def test_disks_grow_linearly(name):
    # every orbit's disk of the tree presets at 16, 32 and 64: x2.1-2.5
    # (two-cell x2.28, x2.50). The mesh grows x4 per step but its walk only
    # x2, and the cut turns once per walk visit; a set of every disk dart
    # grew x2.5-3.2
    counts = [line_events(_every_disk, *_disk_inputs(preset_field(name, n)))
              for n in (16, 32, 64)]
    assert max(b / a for a, b in zip(counts, counts[1:])) <= 2.6


def test_disks_grow_linearly_with_the_orbits():
    # the bump field at k = 4, 8, 16 has order 1, so every one of its 2k^2
    # 2-cells is a representative, and they grow x4 per step: x4.0 and
    # x4.0. Finding each representative by a scan of the orbit table grew
    # x6.0 and x9.3
    counts = [line_events(_every_disk, *_disk_inputs(oracles.bump_field(k)))
              for k in (4, 8, 16)]
    assert max(b / a for a, b in zip(counts, counts[1:])) <= 5


def test_associativity_grows_with_the_pairs():
    # exhaustive pools of 18, 36 and 72 elements (Z2, Z4, Z8 on a 1 x 1 grid
    # times the 9 shifts of the verify window), every triple: x3.90 and x3.95,
    # since each (x, y) run is compared as two rows of ids. Stepping through
    # the triples one at a time grew x5.81 and x6.55
    def every_triple(k):
        wg = WreathGroup(CyclicGroup(k), 1, 1)
        pool = [wg.element(g, s) for g in wg.grids()
                for s in itertools.product((-1, 0, 1), repeat=2)]
        return partial(check_group_axioms, wg, pool, triple_budget=len(pool) ** 3)

    counts = [line_events(every_triple(k)) for k in (2, 4, 8)]
    assert max(b / a for a, b in zip(counts, counts[1:])) <= 5

"""The sweep's contour graph against two references.

``reeb_cut_surface.compute_reeb_cut_surface`` glues slabs of node
components into the cut surface, and ``reeb_sweep.compute_reeb_sweep``
rebuilds every critical level. The sweep must agree with both on nodes,
edges (parallel ones in the same order), triangle ownership and the
on-level vertices of every node, and must reject the same inputs with
the same code and message. The cut maps are not kept on the graph: the
component that ``level_structure`` walks for a node, its on-level
vertices, the triangles it crosses or runs along with their apexes and
the edges it crosses, must be the all-levels sweep's component of the
same node, for every node.
The quantized grids carry exact value ties: flat edges, flat triangles
at non-critical values, and flat triangles at critical values, which
both reject as ``degenerate-level``. Hypothesis draws integer grids, and
their exact ``Fraction`` rescalings, with corners tied to the level.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.errors import InputRejected
from krtorus.fields import (PRESET_NAMES, grid_field, preset_field, pullback_cosine_field,
                            random_field)
from krtorus.reeb import compute_reeb, level_structure
from krtorus.surface import SurfaceField, vertex_classes

from oracles import surface_edges, triangle_level_pieces
from reeb_cut_surface import compute_reeb_cut_surface
from reeb_sweep import compute_reeb_sweep, level_sweep
from test_reeb import integer_grids

PULLBACKS = ((((2, 0), (0, 2)), 32), (((3, 0), (0, 3)), 48),
             (((2, 1), (-1, 2)), 40), (((4, 0), (0, 4)), 32))


def outcome(build, s):
    try:
        g = build(s)
    except InputRejected as exc:
        return ("rejected", exc.code, str(exc), exc.details)
    return (g.nodes, g.edges, g.node_map, g.band_map)


def agree(s) -> bool:
    return outcome(compute_reeb, s) == outcome(compute_reeb_sweep, s)


def agrees_with_cut_surface(s) -> bool:
    return outcome(compute_reeb, s) == outcome(compute_reeb_cut_surface, s)


def bench_random_fields(seed: int = 0) -> list:
    """The reeb-random fields of one benchmark seed (bench/workloads.reeb_random_seeds)."""
    rng = random.Random(f"reeb-random/{seed}")
    return [random_field(n, rng.randrange(2 ** 31)) for n in (16, 24, 32)]


def apex_of(tri, pieces) -> tuple[str, int]:
    """(case, apex) of a triangle with two level pieces, decoded from the pieces.

    The apex is the corner the level separates from the other two.
    """
    on = [p[1] for p in pieces if p[0] == "v"]
    if len(on) == 2:
        return "flat segment", (set(tri) - set(on)).pop()
    if on:
        return "on-level corner", on[0]
    (_, *e1), (_, *e2) = pieces
    return "two crossed edges", (set(e1) & set(e2)).pop()


def misread_nodes(s, apex_cases: Counter | None = None) -> list[int]:
    """Nodes whose level_structure differs from the sweep's component of that node.

    The sweep's side is the component's on-level vertices, its triangles
    with two or more pieces, each with the apex decoded from its pieces,
    and its crossed edges, all in index order. The apex cases met are
    counted into apex_cases when it is given.
    """
    g = compute_reeb(s)
    classes = vertex_classes(s)
    swept = {}
    for level in dict.fromkeys(n.level for n in g.nodes):
        comps, _ = level_sweep(s, level, classes)
        for comp in comps:
            if comp.is_node:
                cut = []
                for idx in comp.triangles:
                    pieces = triangle_level_pieces(s.triangles[idx], s.values, level)
                    if len(pieces) >= 2:
                        case, apex = apex_of(s.triangles[idx], pieces)
                        cut.append((idx, apex))
                        if apex_cases is not None:
                            apex_cases[case] += 1
                swept[comp.critical_vertices] = (
                    tuple(sorted(p[1] for p in comp.pieces if p[0] == "v")),
                    tuple(cut),
                    tuple(sorted(p[1:] for p in comp.pieces if p[0] == "e")))
    return [n.id for n in g.nodes
            if level_structure(s, g, n.id) != swept[n.critical_vertices]]


def quantized_grid(seed: int):
    """Grid torus of side 4-8 with small integer values, four tie patterns.

    By seed mod 4: i.i.d. values in range(q); one value in range(q) per
    grid row; a row value plus a column value, each in range(q); and a
    terrace, whose rows rise with ties and then fall strictly. Equal rows
    on the way up give flat triangles that the index tie-break turns into
    regular terraces.
    """
    rng = random.Random(seed)
    n, q = rng.randint(4, 8), rng.randint(2, 7)
    kind = seed % 4
    if kind == 0:
        vals = [rng.randrange(q) for _ in range(n * n)]
        return grid_field(n, lambda i, j: vals[j * n + i])
    rows = [rng.randrange(q) for _ in range(n)]
    if kind == 3:
        fall = rng.randint(1, n // 2)
        rise = sorted(rows[:n - fall])
        rows = rise + [rise[-1] + fall - k for k in range(fall)]
    cols = [rng.randrange(q) if kind == 2 else 0 for _ in range(n)]
    return grid_field(n, lambda i, j: rows[j] + cols[i])


@pytest.mark.parametrize("grid", (16, 32, 64))
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_agree_with_cut_surface(name, grid):
    assert agrees_with_cut_surface(preset_field(name, grid))


@pytest.mark.parametrize("mat,grid", PULLBACKS)
def test_pullbacks_agree_with_cut_surface(mat, grid):
    assert agrees_with_cut_surface(pullback_cosine_field(grid, mat))


def test_random_fields_agree_with_cut_surface():
    fields = {(n, seed): random_field(n, seed) for n in (16, 24, 32) for seed in range(1, 4)}
    fields.update(((n, "bench"), s) for n, s in zip((16, 24, 32), bench_random_fields()))
    assert [key for key, s in fields.items() if not agrees_with_cut_surface(s)] == []


def test_tied_grids_agree_with_cut_surface():
    # i.i.d. values in range(2-5) on grids of side 4-7: plateaus where a
    # regular vertex lies on the node its arc rises to; most are rejected
    agreed = accepted = 0
    for seed in range(300):
        rng = random.Random(seed)
        n, q = rng.randint(4, 7), rng.randint(2, 5)
        vals = [rng.randrange(q) for _ in range(n * n)]
        s = grid_field(n, lambda i, j: vals[j * n + i])
        ours = outcome(compute_reeb, s)
        agreed += ours == outcome(compute_reeb_cut_surface, s)
        accepted += ours[0] != "rejected"
    assert agreed == 300 and accepted >= 15


@pytest.mark.parametrize("s,distinct", ((preset_field("cyclic-height", 16), True),
                                        (random_field(12, 2), False)),
                         ids=("cyclic-height@16", "random(12,2)"))
def test_parallel_edges_in_cut_surface_order(s, distinct):
    # two edges with the same ends are ordered by the first triangle each
    # meets; on cyclic-height their bands differ, so a swap shows in
    # band_map, while on random(12,2) both bands are empty
    g, ref = compute_reeb(s), compute_reeb_cut_surface(s)
    twins = [ends for ends, k in Counter((e.lower, e.upper) for e in g.edges).items() if k == 2]
    assert len(twins) == 1
    pair = [e.id for e in g.edges if (e.lower, e.upper) == twins[0]]
    assert (g.band_map[pair[0]] != g.band_map[pair[1]]) == distinct
    assert (g.edges, g.band_map, g.node_map) == (ref.edges, ref.band_map, ref.node_map)


@pytest.mark.parametrize("grid", (8, 16, 32))
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_agree(name, grid):
    assert agree(preset_field(name, grid))


@pytest.mark.parametrize("mat,grid", PULLBACKS)
def test_pullbacks_agree(mat, grid):
    assert agree(pullback_cosine_field(grid, mat))


def test_random_fields_agree():
    sizes = (8, 10, 12)
    mismatched = [seed for seed in range(42)
                  if not agree(random_field(sizes[seed % 3], seed))]
    assert mismatched == []


def test_quantized_grids_agree():
    mismatched = []
    rejected = flat_edges = flat_triangles = 0
    for seed in range(160):
        s = quantized_grid(seed)
        ours = outcome(compute_reeb, s)
        if ours != outcome(compute_reeb_sweep, s):
            mismatched.append(seed)
        if ours[0] == "rejected":
            assert ours[1] == "degenerate-level"
            rejected += 1
            continue
        vals = s.values
        flat_edges += any(vals[u] == vals[w] for u, w in surface_edges(s.triangles))
        crit_levels = {vals[v] for v, c in enumerate(vertex_classes(s)) if c.is_critical}
        flat_triangles += any(vals[a] == vals[b] == vals[c] not in crit_levels
                              for a, b, c in s.triangles)
    assert mismatched == []
    # the pool reaches every tie pattern the sweep handles specially
    assert rejected >= 20 and flat_edges >= 20 and flat_triangles >= 5


@settings(max_examples=150, deadline=None)
@given(integer_grids(), st.fractions(min_value=Fraction(1, 7), max_value=7),
       st.integers(-9, 9))
def test_integer_grids_agree_before_and_after_affine_rescaling(s, a, b):
    # small value ranges tie corners to the level and lay segments along
    # flat edges; exact rescaling keeps every tie
    assert agree(s)
    assert agree(SurfaceField(s.triangles, [a * v + b for v in s.values]))


@pytest.mark.parametrize("grid", (8, 16, 32))
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_read_every_node_component(name, grid):
    assert misread_nodes(preset_field(name, grid)) == []


@pytest.mark.parametrize("mat,grid", PULLBACKS)
def test_pullbacks_read_every_node_component(mat, grid):
    assert misread_nodes(pullback_cosine_field(grid, mat)) == []


def test_random_fields_read_every_node_component():
    sizes = (8, 10, 12)
    misread = {seed: misread_nodes(random_field(sizes[seed % 3], seed)) for seed in range(12)}
    assert {seed: ids for seed, ids in misread.items() if ids} == {}


def test_quantized_grids_read_every_node_component():
    misread = {}
    read = 0
    apex_cases = Counter()
    for seed in range(160):
        s = quantized_grid(seed)
        try:
            misread[seed] = misread_nodes(s, apex_cases)
        except InputRejected:
            continue
        read += 1
    assert {seed: ids for seed, ids in misread.items() if ids} == {}
    assert read >= 40
    # the pool reaches every way a level cuts a triangle
    assert set(apex_cases) == {"flat segment", "on-level corner", "two crossed edges"}

"""The cut-surface contour graph against the all-levels sweep.

Both constructions must agree on nodes, edges, triangle ownership and
the two cut maps, and must reject the same inputs with the same code
and message. The component that ``level_structure`` reads off the
graph must be the sweep's component of the same node, for every node.
The quantized grids carry exact value ties: flat edges, flat triangles
at non-critical values, and flat triangles at critical values, which
both reject as ``degenerate-level``. Hypothesis draws integer grids, and
their exact ``Fraction`` rescalings, with corners tied to the level.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.errors import InputRejected
from krtorus.fields import (PRESET_NAMES, grid_field, preset_field, pullback_cosine_field,
                            random_field)
from krtorus.reeb import compute_reeb, level_structure, triangle_level_pieces
from krtorus.surface import SurfaceField, vertex_classes

from oracles import surface_edges
from reeb_sweep import compute_reeb_sweep, level_sweep
from test_reeb import integer_grids

PULLBACKS = ((((2, 0), (0, 2)), 32), (((3, 0), (0, 3)), 48),
             (((2, 1), (-1, 2)), 40), (((4, 0), (0, 4)), 32))


def outcome(build, s):
    try:
        g = build(s)
    except InputRejected as exc:
        return ("rejected", exc.code, str(exc), exc.details)
    return (g.nodes, g.edges, g.node_map, g.band_map, g.on_node, g.tri_cuts)


def agree(s) -> bool:
    return outcome(compute_reeb, s) == outcome(compute_reeb_sweep, s)


def misread_nodes(s) -> list[int]:
    """Nodes whose level_structure differs from the sweep's component of that node.

    The sweep's side is the component's on-level vertices and its
    triangles with two or more pieces, both in index order.
    """
    g = compute_reeb(s)
    classes = vertex_classes(s)
    swept = {}
    for level in dict.fromkeys(n.level for n in g.nodes):
        comps, _ = level_sweep(s, level, classes)
        for comp in comps:
            if comp.is_node:
                swept[comp.critical_vertices] = (
                    tuple(sorted(p[1] for p in comp.pieces if p[0] == "v")),
                    tuple(idx for idx in comp.triangles
                          if len(triangle_level_pieces(s, s.triangles[idx], level)) >= 2))
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
    for seed in range(160):
        s = quantized_grid(seed)
        try:
            misread[seed] = misread_nodes(s)
        except InputRejected:
            continue
        read += 1
    assert {seed: ids for seed, ids in misread.items() if ids} == {}
    assert read >= 40

"""Contour graph construction, the tree test and branch decompositions."""
from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.errors import InputRejected
from krtorus.fields import grid_field, random_field
from krtorus.pipeline import extract_disk_field
from krtorus.reeb import (_UnionFind, branch_euler, compute_reeb, find_special_vertex,
                          is_tree, reeb_to_dot)
from krtorus.surface import SurfaceField, vertex_classes

import oracles
from reeb_sweep import level_sweep


def test_two_cell_graph(stage):
    g = stage("two-cell").graph
    assert len(g.nodes) == 3 and len(g.edges) == 2
    assert is_tree(g) and g.b1() == 0
    levels = [nd.level for nd in g.nodes]
    assert levels == sorted(levels) == [-2.0, 0.0, 2.0]
    assert [nd.kinds for nd in g.nodes] == [
        ("minimum",), ("saddle", "saddle"), ("maximum",)]
    # the unique 2-fold node is a path vertex of degree 2
    assert g.degree(1) == 2


def test_z2_sym_graph(stage):
    g = stage("z2-sym").graph
    assert len(g.nodes) == 5 and len(g.edges) == 4
    assert is_tree(g)
    center = [nd for nd in g.nodes if nd.level == 0.0]
    assert len(center) == 1 and len(center[0].kinds) == 4
    assert g.degree(center[0].id) == 4


def test_z2xz2_sym_graph(stage):
    g = stage("z2xz2-sym").graph
    assert len(g.nodes) == 9 and len(g.edges) == 8
    assert is_tree(g)
    center = [nd for nd in g.nodes if len(nd.kinds) > 1]
    assert len(center) == 1 and len(center[0].kinds) == 8
    assert g.degree(center[0].id) == 8


def test_cyclic_height_graph(surface):
    g = compute_reeb(surface("cyclic-height"))
    assert len(g.nodes) == 4 and len(g.edges) == 4
    assert g.b1() == 1 and not is_tree(g)
    assert [nd.level for nd in g.nodes] == [-1.3, -0.7, 0.7, 1.3]


def test_node_census_routes_agree(stage, surface):
    graphs = [stage(n).graph for n in ("two-cell", "z2-sym", "z2xz2-sym")]
    graphs.append(compute_reeb(surface("cyclic-height")))
    for g in graphs:
        for nd in g.nodes:
            assert nd.census_euler == nd.index_sum


def test_node_level_is_the_scalar_of_its_lowest_critical_vertex(surface):
    s = surface("two-cell")
    first, second = compute_reeb(s).nodes[1].critical_vertices  # two saddles at 0.0
    vals = list(s.values)
    vals[second] = 0
    assert repr(compute_reeb(SurfaceField(s.triangles, vals)).nodes[1].level) == "0.0"
    vals[first] = Fraction(0)
    node = compute_reeb(SurfaceField(s.triangles, vals)).nodes[1]
    assert type(node.level) is Fraction and node.critical_vertices == (first, second)


def test_compute_reeb_memory_stays_compact():
    # the node components near the median level percolate at this size, so
    # any per-piece or per-segment object kept for every node shows up here
    s = random_field(32, 1)
    tracemalloc.start()
    try:
        compute_reeb(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_extract_disk_field_memory_stays_compact(stage):
    # the cut glues corners at the boundary walk only, so it keeps nothing
    # per region corner beyond the disk it returns
    st = stage("two-cell", 64)
    tracemalloc.start()
    try:
        extract_disk_field(st.part, st.table, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_contour_counts_match_oracle(surface):
    # regular-level slice counts, checked against the union-find oracle
    for name in ("two-cell", "z2-sym", "cyclic-height"):
        s = surface(name)
        g = compute_reeb(s)
        classes = vertex_classes(s)
        for level in (-1.11, -0.33, 0.27, 0.81):
            comps, _ = level_sweep(s, level, classes)
            expected = oracles.count_contours(s.triangles, s.values, level)
            assert len(comps) == expected
            # every band at a regular level is a single circle
            for comp in comps:
                assert comp.census_euler == 0


def test_level_euler_matches_oracle(surface):
    s = surface("z2-sym")
    classes = vertex_classes(s)
    comps, _ = level_sweep(s, 0.0, classes)
    ours = sorted(c.census_euler for c in comps)
    oracle = sorted(oracles.component_euler(c)
                    for c in oracles.level_components(s.triangles, s.values, 0.0))
    assert ours == oracle


def test_band_count_between_nodes(stage):
    # two-cell: one annulus family below and one above the saddle level
    g = stage("two-cell").graph
    assert [(e.lower, e.upper) for e in g.edges] == [(0, 1), (1, 2)]
    for e in g.edges:
        lo = g.node(e.lower).level
        hi = g.node(e.upper).level
        assert e.interval == (lo, hi)


def test_special_vertex(stage):
    for name, expected_kinds in (("two-cell", 2), ("z2-sym", 4), ("z2xz2-sym", 8)):
        st = stage(name)
        nd = st.graph.node(st.node)
        assert nd.level == 0.0
        assert len(nd.kinds) == expected_kinds
        assert set(nd.kinds) == {"saddle"}


def test_special_vertex_rejects_cycles(surface):
    g = compute_reeb(surface("cyclic-height"))
    with pytest.raises(InputRejected) as exc:
        find_special_vertex(g)
    assert exc.value.code == "not-a-tree"
    assert exc.value.details["b1"] == 1


def test_branches(stage, twin_peaks):
    st = stage("two-cell")
    branches = st.graph.branches_at(st.node)
    assert [b.side for b in branches] == ["down", "up"]
    for b in branches:
        assert branch_euler(st.graph, st.node, b) == 1

    g = compute_reeb(twin_peaks)
    node = find_special_vertex(g)
    up = [b for b in g.branches_at(node) if b.side == "up"]
    assert len(up) == 1
    kinds = sorted(k for nid in up[0].nodes for k in g.node(nid).kinds)
    assert kinds == ["maximum", "maximum", "saddle"]
    assert branch_euler(g, node, up[0]) == 1


def test_branch_euler_multi_node_subtree(twin_peaks):
    # census route: 1 disk minus interior circles; index route: -1+1+1
    g = compute_reeb(twin_peaks)
    assert len(g.nodes) == 5 and is_tree(g)
    node = find_special_vertex(g)
    for b in g.branches_at(node):
        assert branch_euler(g, node, b) == 1


def test_dot_output(stage):
    dot = reeb_to_dot(stage("two-cell").graph)
    assert dot.startswith("graph kr {")
    assert dot.rstrip().endswith("}")
    assert dot.count("--") == 2
    assert "minimum" in dot and "maximum" in dot


@st.composite
def integer_grids(draw):
    """Grid torus of side 3-6 with integer values; small ranges force ties."""
    n = draw(st.integers(3, 6))
    top = draw(st.sampled_from((3, 6, 12, 1000)))
    vals = draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n))
    return grid_field(n, lambda i, j: vals[j * n + i])


def shape(s):
    """compute_reeb as (graph without levels, node levels), or (rejection code, None)."""
    try:
        g = compute_reeb(s)
    except InputRejected as exc:
        return exc.code, None
    return ([(n.id, n.kinds, n.critical_vertices, n.census_euler, n.index_sum)
             for n in g.nodes],
            [(e.id, e.lower, e.upper) for e in g.edges],
            g.node_map, g.band_map, g.on_node), [n.level for n in g.nodes]


@settings(max_examples=150, deadline=None)
@given(integer_grids(), st.fractions(min_value=Fraction(1, 7), max_value=7),
       st.integers(-9, 9))
def test_graph_invariant_under_positive_affine_rescaling(s, a, b):
    graph, levels = shape(s)
    scaled_graph, scaled_levels = shape(SurfaceField(s.triangles, [a * v + b for v in s.values]))
    assert scaled_graph == graph
    if levels is not None:
        assert scaled_levels == [a * x + b for x in levels]


@settings(max_examples=150, deadline=None)
@given(integer_grids(), st.data())
def test_graph_invariant_under_triangle_rotation(s, data):
    shifts = data.draw(st.lists(st.integers(0, 2), min_size=s.triangle_count,
                                max_size=s.triangle_count))
    rotated = [tri[k:] + tri[:k] for tri, k in zip(s.triangles, shifts)]
    assert shape(SurfaceField(rotated, s.values)) == shape(s)


@st.composite
def union_sequences(draw):
    n = draw(st.integers(1, 40))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("union"), st.integers(0, n - 1), st.integers(0, n - 1)),
        st.tuples(st.just("find"), st.integers(0, n - 1))), max_size=80))
    return n, ops


@settings(max_examples=300, deadline=None)
@given(union_sequences())
def test_union_find_matches_oracle(case):
    # both hang the root of a under the root of b, and path compression
    # never moves a root, so every find must agree, not just the blocks
    n, ops = case
    uf, ref = _UnionFind(n), oracles.UnionFind()
    for op in ops:
        if op[0] == "union":
            uf.union(op[1], op[2])
            ref.union(op[1], op[2])
        else:
            assert uf.find(op[1]) == ref.find(op[1])
    assert [uf.find(x) for x in range(n)] == [ref.find(x) for x in range(n)]

"""Contour graph construction, the tree test and branch decompositions."""
from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krtorus.reeb
from krtorus.errors import InputRejected, InternalInvariantError
from krtorus.fields import grid_field, preset_field, random_field
from krtorus.pipeline import extract_disk_field
from krtorus.reeb import (ReebEdge, ReebGraph, ReebNode, _UnionFind, compute_reeb,
                          find_special_vertex, is_tree, reeb_to_dot)
from krtorus.surface import SurfaceField, VertexClass, vertex_classes

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
    assert len(g.edges_at(1)) == 2


def test_z2_sym_graph(stage):
    g = stage("z2-sym").graph
    assert len(g.nodes) == 5 and len(g.edges) == 4
    assert is_tree(g)
    center = [nd for nd in g.nodes if nd.level == 0.0]
    assert len(center) == 1 and len(center[0].kinds) == 4
    assert len(g.edges_at(center[0].id)) == 4


def test_z2xz2_sym_graph(stage):
    g = stage("z2xz2-sym").graph
    assert len(g.nodes) == 9 and len(g.edges) == 8
    assert is_tree(g)
    center = [nd for nd in g.nodes if len(nd.kinds) > 1]
    assert len(center) == 1 and len(center[0].kinds) == 8
    assert len(g.edges_at(center[0].id)) == 8


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
    # the cut turns at the boundary walk only and checks the disk at its
    # walk, so it keeps nothing per region corner or dart beyond the disk
    # it returns. About 0.9 MiB; a set of every disk dart took 1.8 MiB
    st = stage("two-cell", 64)
    tracemalloc.start()
    try:
        extract_disk_field(st.part, st.reps[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


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
        lo = g.nodes[e.lower].level
        hi = g.nodes[e.upper].level
        assert e.interval == (lo, hi)


def test_special_vertex(stage):
    for name, expected_kinds in (("two-cell", 2), ("z2-sym", 4), ("z2xz2-sym", 8)):
        st = stage(name)
        nd = st.graph.nodes[st.node]
        assert nd.level == 0.0
        assert len(nd.kinds) == expected_kinds
        assert set(nd.kinds) == {"saddle"}


def test_special_vertex_rejects_cycles(surface):
    g = compute_reeb(surface("cyclic-height"))
    with pytest.raises(InputRejected) as exc:
        find_special_vertex(g)
    assert exc.value.code == "not-a-tree"
    assert exc.value.details["b1"] == 1


def branch_euler(g, branch) -> int:
    """Euler number of a branch by the census and the index route, which must agree."""
    census = sum(g.nodes[w].census_euler for w in branch.nodes)
    index = sum(g.nodes[w].index_sum for w in branch.nodes)
    assert census == index
    return index


def test_branches(stage, twin_peaks):
    st = stage("two-cell")
    branches = st.graph.branches_at(st.node)
    assert [b.side for b in branches] == ["down", "up"]
    for b in branches:
        assert branch_euler(st.graph, b) == 1

    g = compute_reeb(twin_peaks)
    node = find_special_vertex(g)
    up = [b for b in g.branches_at(node) if b.side == "up"]
    assert len(up) == 1
    kinds = sorted(k for nid in up[0].nodes for k in g.nodes[nid].kinds)
    assert kinds == ["maximum", "maximum", "saddle"]
    assert branch_euler(g, up[0]) == 1


def test_branch_euler_multi_node_subtree(twin_peaks):
    # census route: 1 disk minus interior circles; index route: -1+1+1
    g = compute_reeb(twin_peaks)
    assert len(g.nodes) == 5 and is_tree(g)
    node = find_special_vertex(g)
    for b in g.branches_at(node):
        assert branch_euler(g, b) == 1


def _hand_tree(pairs, census, index=None) -> ReebGraph:
    """A graph with edge k joining pairs[k], node i carrying census[i] and index[i]."""
    index = census if index is None else index
    nodes = [ReebNode(i, i, ("node",), (i,), c, x) for i, (c, x) in enumerate(zip(census, index))]
    edges = [ReebEdge(k, a, b, (a, b)) for k, (a, b) in enumerate(pairs)]
    return ReebGraph(nodes, edges, {}, {}, surface_chi=sum(census))


def test_special_vertex_rejects_a_tree_without_one():
    g = _hand_tree([(0, 1), (1, 2)], [0, 0, 0])
    with pytest.raises(InputRejected) as exc:
        find_special_vertex(g)
    assert exc.value.code == "no-special-vertex"


def test_special_vertex_refuses_two_winners():
    g = _hand_tree([(0, 1)], [1, 1])
    with pytest.raises(InternalInvariantError, match=r"^multiple special vertices \[0, 1\]$"):
        find_special_vertex(g)


def test_special_vertex_refuses_disagreeing_routes():
    # node 2's census says 1, its index sum 0: node 0's one branch disagrees first
    g = _hand_tree([(0, 1), (1, 2)], [1, -1, 1], [1, -1, 0])
    with pytest.raises(InternalInvariantError,
                       match="^branch Euler computations disagree at node 0: census 0 vs index sum -1$"):
        find_special_vertex(g)


def test_special_vertex_search_builds_no_branches(stage, monkeypatch):
    g = stage("z2-sym").graph

    def refuse(self, node_id):
        raise AssertionError("branches_at called")

    monkeypatch.setattr(ReebGraph, "branches_at", refuse)
    assert find_special_vertex(g) == stage("z2-sym").node


def test_special_vertex_on_a_long_path():
    # a per-node union-find search would take about 4e8 steps here
    n = 20_001
    euler = [0] * n
    euler[0] = euler[-1] = 1
    euler[n // 2] = -2
    g = _hand_tree([(i, i + 1) for i in range(n - 1)], euler)
    assert find_special_vertex(g) == n // 2
    branches = g.branches_at(n // 2)
    assert [b.root_edge for b in branches] == [n // 2 - 1, n // 2]
    assert [branch_euler(g, b) for b in branches] == [1, 1]


def _prufer_pairs(seq, n):
    """The edges of the labelled tree on n nodes with Pruefer sequence seq."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    pairs = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        pairs.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    pairs.append(tuple(v for v in range(n) if degree[v] == 1))
    return pairs


@st.composite
def euler_trees(draw, skewed=False):
    """Trees of 2-40 nodes with Euler numbers in [-3, 1], in any edge order and orientation.

    Half the draws plant Euler 2 - degree on every node, which makes each
    branch carry 1, then lower one node by 0-2: a tree where every node,
    one node or none is special. The rest draw every number freely.
    With skewed=True one node's census differs from its index sum.
    """
    n = draw(st.integers(2, 40))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    pairs = draw(st.permutations(_prufer_pairs(seq, n)))
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]
    if draw(st.booleans()):
        degree = [0] * n
        for a, b in pairs:
            degree[a] += 1
            degree[b] += 1
        census = [2 - d for d in degree]
        census[draw(st.integers(0, n - 1))] -= draw(st.integers(0, 2))
        census = [min(1, max(-3, c)) for c in census]
    else:
        census = draw(st.lists(st.integers(-3, 1), min_size=n, max_size=n))
    index = list(census)
    if skewed:
        v = draw(st.integers(0, n - 1))
        index[v] += draw(st.sampled_from([-1, 1]))
    return _hand_tree(pairs, census, index)


def _special_outcome(search, g):
    """(winner, None, None), or the code and message of a refusal."""
    try:
        return search(g), None, None
    except InputRejected as exc:
        return None, exc.code, str(exc)
    except InternalInvariantError as exc:
        return None, "internal-invariant", str(exc)
    except oracles.Rejected as exc:
        return None, exc.code, exc.message


@settings(max_examples=300, deadline=None)
@given(euler_trees())
def test_special_vertex_matches_the_quadratic_oracle(g):
    assert _special_outcome(find_special_vertex, g) == _special_outcome(oracles.special_vertex, g)


@settings(max_examples=150, deadline=None)
@given(euler_trees(skewed=True))
def test_special_vertex_disagreement_matches_the_quadratic_oracle(g):
    assert _special_outcome(find_special_vertex, g) == _special_outcome(oracles.special_vertex, g)


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
            g.node_map, g.band_map), [n.level for n in g.nodes]


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


def _with_class(monkeypatch, s, v, kind):
    """compute_reeb sees vertex v of s as kind; every other class is the true one."""
    classes = list(vertex_classes(s))
    classes[v] = VertexClass(kind)
    monkeypatch.setattr(krtorus.reeb, "vertex_classes", lambda _: tuple(classes))


def test_sweep_catches_a_maximum_read_as_regular(monkeypatch):
    # the top vertex passes its label on, so its arc is never closed
    s = preset_field("two-cell", 16)
    vertex_classes(s)
    order, _ = s.ranks
    _with_class(monkeypatch, s, order[-1], "regular")
    with pytest.raises(InternalInvariantError, match=r"arc from vertex \d+ is never closed"):
        compute_reeb(s)


def test_sweep_catches_a_regular_vertex_read_as_a_maximum(monkeypatch):
    # the arc closes there, and again at the true maximum its contour rises to
    s = preset_field("two-cell", 16)
    classes = vertex_classes(s)
    order, _ = s.ranks
    regular = [v for v in order if classes[v].kind == "regular"]
    _with_class(monkeypatch, s, regular[len(regular) // 2], "maximum")
    with pytest.raises(InternalInvariantError, match=r"arc from vertex \d+ closes twice"):
        compute_reeb(s)


def test_saddle_walk_that_never_returns_is_caught(monkeypatch):
    # contours that never come back to the saddle: the walk stops at its bound
    monkeypatch.setattr(krtorus.reeb, "_contour", lambda *args: itertools.repeat((-1, -1, -1)))
    with pytest.raises(InternalInvariantError, match=r"contour walk at saddle \d+ does not close"):
        compute_reeb(preset_field("two-cell", 16))


def test_first_triangle_walk_that_never_returns_is_caught(monkeypatch):
    # cyclic-height has two edges between one pair of nodes, so their order is
    # read off a contour walk; without its stop the walk reaches its bound
    monkeypatch.setattr(krtorus.reeb, "takewhile", lambda pred, it: it)
    with pytest.raises(InternalInvariantError, match=r"contour walk above vertex \d+ does not close"):
        compute_reeb(preset_field("cyclic-height", 16))


@pytest.mark.parametrize("field, message", [
    ("census_euler", "node census does not add up to the surface Euler number"),
    ("index_sum", "index sum does not add up to the surface Euler number")])
def test_euler_routes_are_checked_against_the_surface(monkeypatch, field, message):
    # node 0 carries one more on one route: the sums over the nodes miss chi
    def off_by_one(*args):
        node = ReebNode(*args)
        return dataclasses.replace(node, **{field: getattr(node, field) + 1}) if node.id == 0 else node

    monkeypatch.setattr(krtorus.reeb, "ReebNode", off_by_one)
    with pytest.raises(InternalInvariantError, match=message):
        compute_reeb(preset_field("two-cell", 16))


def test_graph_cut_in_two_is_caught(monkeypatch):
    # edge 0 leaves its upper node for a loop at its lower one: a tree falls apart
    def loop_first(eid, lower, upper, interval):
        return ReebEdge(eid, lower, lower if eid == 0 else upper, interval)

    monkeypatch.setattr(krtorus.reeb, "ReebEdge", loop_first)
    with pytest.raises(InternalInvariantError, match="graph is disconnected for a connected surface"):
        compute_reeb(preset_field("two-cell", 16))

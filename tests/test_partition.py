"""The special level set as a CW structure on the torus."""
from __future__ import annotations

import dataclasses
import random
from array import array
from collections import Counter

import pytest

import krtorus.homology
import krtorus.partition
from krtorus.errors import InputRejected, InternalInvariantError
from krtorus.fields import grid_vertex, preset_field, pullback_cosine_field, random_field
from krtorus.homology import tree_cotree
from krtorus.partition import OneCell, branch_signature, build_partition
from krtorus.reeb import (Branch, ReebEdge, ReebGraph, ReebNode, _node_component, _UnionFind,
                          compute_reeb, find_special_vertex, level_structure)
from krtorus.surface import SurfaceField, vertex_classes

import oracles
from dense_h1 import dense_boundaries
from test_reeb_differential import quantized_grid

EXPECTED_COUNTS = {
    "two-cell": (2, 4, 2),
    "z2-sym": (4, 8, 4),
    "z2xz2-sym": (8, 16, 8),
}


def test_cell_counts(stage):
    for name, counts in EXPECTED_COUNTS.items():
        assert oracles.cell_counts(stage(name).part) == counts


def test_euler_characteristic_from_cells(stage):
    for name in EXPECTED_COUNTS:
        z, o, t = oracles.cell_counts(stage(name).part)
        assert z - o + t == 0


def test_zero_cells_are_saddles_on_level(stage):
    for name in EXPECTED_COUNTS:
        st = stage(name)
        p = st.part
        classes = vertex_classes(st.surface)
        for rv in p.zero_cells:
            assert rv < st.surface.vertex_count  # crossing points never end up as 0-cells
            assert classes[rv].kind == "saddle"
            assert p.refined_values[rv] == p.level


def test_one_cell_endpoints_and_paths(stage):
    for name in EXPECTED_COUNTS:
        p = stage(name).part
        zset = set(p.zero_cells)
        for arc in p.one_cells:
            assert arc.path[0] == arc.tail and arc.path[-1] == arc.head
            assert arc.tail in zset and arc.head in zset
            # interior points are on-level but not 0-cells
            for rv in arc.path[1:-1]:
                assert rv not in zset
                assert p.refined_values[rv] == p.level


def test_boundary_composition_vanishes(stage):
    for name in EXPECTED_COUNTS:
        p = stage(name).part
        z, o, t = oracles.cell_counts(p)
        d1, d2 = dense_boundaries(p)
        assert (d1 @ d2).to_lists() == oracles.zeros(z, t).to_lists()


def test_cocycles_pair_with_cycles(stage):
    # phi_i is a cocycle (0 on every 2-cell walk) with phi_i(gamma_j) = delta_ij,
    # and gamma_j is a cycle (its dense boundary vanishes)
    for name in EXPECTED_COUNTS:
        p = stage(name).part
        d1, _ = dense_boundaries(p)
        for phi in p.cocycles:
            assert len(phi) == len(p.one_cells)
            assert all(sum(s * phi[a] for a, s in c.boundary) == 0 for c in p.two_cells)
        for i, phi in enumerate(p.cocycles):
            for j, gamma in enumerate(p.cycles):
                assert sum(c * phi[a] for a, c in gamma) == (i == j)
        for gamma in p.cycles:
            assert all(sum(row[a] * c for a, c in gamma) == 0 for row in d1.entries)


def _loops(count):
    # arcs 0..count-1, each a loop at the single 0-cell 0
    return [OneCell(i, 0, 0, (0, 0)) for i in range(count)]


def test_tree_cotree_of_the_square_torus():
    cycles, cocycles = tree_cotree((0,), _loops(2), [((0, 1), (1, 1), (0, -1), (1, -1))])
    assert cycles == (((0, 1),), ((1, 1),))
    assert cocycles == ((1, 0), (0, 1))


@pytest.mark.parametrize("zero_cells, arcs, walks, message", [
    # three leftover arcs: a torus square with one more loop folded into its walk
    ((0,), _loops(3), [((0, 1), (1, 1), (0, -1), (1, -1), (2, 1), (2, -1))],
     "3 arcs are left over"),
    # two square tori sharing only their 0-cell: the dual graph is disconnected
    ((0,), _loops(4), [((0, 1), (1, 1), (0, -1), (1, -1)), ((2, 1), (3, 1), (2, -1), (3, -1))],
     "reaches 1 of 2 2-cells"),
    # arc 0 used twice with the same sign
    ((0,), _loops(2), [((0, 1), (1, 1), (0, 1), (1, -1))], "opposite signs"),
    # two arcs 0 -> 1 walked head to head
    ((0, 1), [OneCell(0, 0, 1, (0, 1)), OneCell(1, 0, 1, (0, 1))],
     [((0, 1), (1, 1)), ((1, -1), (0, -1))], "does not close up"),
    # a 0-cell no arc reaches
    ((0, 1), _loops(2), [((0, 1), (1, 1), (0, -1), (1, -1))], "reaches 1 of 2 0-cells"),
], ids=["three-leftover", "disconnected-dual", "same-sign", "open-walk", "unreached-0-cell"])
def test_tree_cotree_rejects(zero_cells, arcs, walks, message):
    with pytest.raises(InternalInvariantError, match=message):
        tree_cotree(zero_cells, arcs, walks)


def test_corrupted_cotree_value_fails_the_root_equation(stage, monkeypatch):
    p = stage("z2xz2-sym").part
    walks = [c.boundary for c in p.two_cells]
    assert tree_cotree(p.zero_cells, p.one_cells, walks) == (p.cycles, p.cocycles)
    pairing = krtorus.homology._pairing
    calls = []

    def off_by_one_once(walk, phi):
        calls.append(walk)
        # the first call solves a leaf of the cotree; the value it gives is off by one
        return pairing(walk, phi) + (len(calls) == 1)

    monkeypatch.setattr(krtorus.homology, "_pairing", off_by_one_once)
    with pytest.raises(InternalInvariantError, match="cotree root"):
        tree_cotree(p.zero_cells, p.one_cells, walks)
    assert len(calls) == len(walks)


def test_each_arc_borders_two_cell_sides(stage):
    for name in EXPECTED_COUNTS:
        p = stage(name).part
        uses = {arc.id: 0 for arc in p.one_cells}
        for cell in p.two_cells:
            for arc_id, _sign in cell.boundary:
                uses[arc_id] += 1
        assert all(v == 2 for v in uses.values())


def test_regions_partition_refined_triangles(stage):
    for name in EXPECTED_COUNTS:
        st = stage(name)
        p = st.part
        seen = []
        for cell in p.two_cells:
            seen.extend(cell.refined_triangles)
        assert len(seen) == len(set(seen)) == len(p.refined_triangles)


def test_two_cells_are_open_disks(stage):
    # chi(closure) = chi(boundary image) + chi(open region), open region a disk.
    # The closure is not embedded: it can run along the whole level graph.
    for name in EXPECTED_COUNTS:
        p = stage(name).part
        for cell in p.two_cells:
            tris = [p.refined_triangles[i] for i in cell.refined_triangles]
            assert oracles.triangle_component_count(tris) == 1
            on_level = {v for t in tris for v in t
                        if p.refined_values[v] == p.level}
            level_edges = {e for e in oracles.surface_edges(tris)
                           if set(e) <= on_level}
            boundary_chi = len(on_level) - len(level_edges)
            assert oracles.euler_characteristic(tris) == boundary_chi + 1


def test_refinement_bookkeeping(stage):
    st = stage("z2-sym")
    p = st.part
    s = st.surface
    nv = s.vertex_count
    assert p.refined_values[:nv] == s.values
    # refined vertex nv + k sits strictly inside the k-th crossed edge, at the level
    _, _, crossed = level_structure(s, st.graph, st.node)
    assert len(p.refined_values) == nv + len(crossed) > nv
    for k, (u, w) in enumerate(crossed):
        lo, hi = sorted((s.values[u], s.values[w]))
        assert lo < p.level < hi
        assert p.refined_values[nv + k] == p.level


def test_signatures_label_two_cells(stage):
    st = stage("z2-sym")
    branches = st.graph.branches_at(st.node)
    sigs = {branch_signature(st.graph, st.node, b) for b in branches}
    assert {c.level_signature for c in st.part.two_cells} == sigs
    sides = sorted(c.level_signature[0] for c in st.part.two_cells)
    assert sides == ["down", "down", "up", "up"]


def recursive_signature(g, node_id, branch):
    """The recursive form of branch_signature, kept as the reference."""
    eid = branch.root_edge
    e = g.edges[eid]
    root = e.upper if e.lower == node_id else e.lower
    side = "up" if e.lower == node_id else "down"

    def canon(w, via_edge):
        subs = []
        for eid2 in g.edges_at(w):
            if eid2 == via_edge:
                continue
            e2 = g.edges[eid2]
            other = e2.upper if e2.lower == w else e2.lower
            direction = "up" if e2.lower == w else "down"
            subs.append((direction, canon(other, eid2)))
        node = g.nodes[w]
        return (node.level, node.kinds, tuple(sorted(subs)))

    return (side, canon(root, eid))


def _path_graph(n: int) -> ReebGraph:
    nodes = [ReebNode(i, i, ("minimum",) if i == 0 else ("node",), (i,), 0, 0)
             for i in range(n)]
    edges = [ReebEdge(i, i, i + 1, (i, i + 1)) for i in range(n - 1)]
    return ReebGraph(nodes, edges, {}, {}, surface_chi=0)


@pytest.mark.parametrize("name", ["two-cell", "z2-sym", "z2xz2-sym", "twin-peaks"])
def test_signature_matches_recursive_form(stage, twin_peaks, name):
    if name == "twin-peaks":
        g = compute_reeb(twin_peaks)
        node = find_special_vertex(g)
    else:
        g, node = stage(name).graph, stage(name).node
    for b in g.branches_at(node):
        assert branch_signature(g, node, b) == recursive_signature(g, node, b)


def test_signature_of_deep_path():
    # far past the default recursion limit of 1,000
    n = 3000
    g = _path_graph(n)
    (branch,) = g.branches_at(0)
    side, form = branch_signature(g, 0, branch)
    assert side == "up"
    # walk the nested form with a loop: comparing it whole would recurse in C
    for level in range(1, n):
        node_level, kinds, subs = form
        assert (node_level, kinds) == (level, ("node",))
        if level == n - 1:
            assert subs == ()
        else:
            ((direction, form),) = subs
            assert direction == "up"


def _triangle_graph() -> ReebGraph:
    nodes = [ReebNode(i, i, ("node",), (i,), 0, 0) for i in range(3)]
    edges = [ReebEdge(0, 0, 1, (0, 1)), ReebEdge(1, 0, 2, (0, 2)), ReebEdge(2, 1, 2, (1, 2))]
    return ReebGraph(nodes, edges, {}, {}, surface_chi=0)


def test_signature_rejects_a_cyclic_branch():
    # branches_at refuses this graph, so the branch is built by hand
    branch = Branch(0, frozenset({1, 2}), "up")
    with pytest.raises(InternalInvariantError, match="is not a tree"):
        branch_signature(_triangle_graph(), 0, branch)


@pytest.mark.parametrize("node", [0, 1, 2])
def test_branches_at_rejects_a_cycle(node):
    with pytest.raises(InternalInvariantError, match="is not a tree"):
        _triangle_graph().branches_at(node)


def test_branches_at_rejects_a_cycle_out_of_reach():
    # an edge 0-1 beside a triangle 2-3-4: as many edges as a tree, but
    # the walks from node 0 never meet the cycle
    nodes = [ReebNode(i, i, ("node",), (i,), 0, 0) for i in range(5)]
    edges = [ReebEdge(0, 0, 1, (0, 1)), ReebEdge(1, 2, 3, (2, 3)),
             ReebEdge(2, 2, 4, (2, 4)), ReebEdge(3, 3, 4, (3, 4))]
    g = ReebGraph(nodes, edges, {}, {}, surface_chi=0)
    with pytest.raises(InternalInvariantError, match="is not a tree"):
        g.branches_at(0)
    with pytest.raises(InternalInvariantError, match="disconnected"):
        find_special_vertex(g)


def test_twin_peaks_partition(twin_peaks):
    g = compute_reeb(twin_peaks)
    node = find_special_vertex(g)
    p = build_partition(twin_peaks, g, node)
    assert oracles.cell_counts(p) == (2, 4, 2)
    up = [c for c in p.two_cells if c.level_signature[0] == "up"]
    down = [c for c in p.two_cells if c.level_signature[0] == "down"]
    assert len(up) == len(down) == 1
    # asymmetric subtrees: the two cells carry different labels now
    assert up[0].level_signature[1] != down[0].level_signature[1]
    _, (_lvl, kinds, subs) = up[0].level_signature
    assert kinds == ("saddle",)
    assert len(subs) == 2


def test_flat_triangle_at_node_level_rejected(surface):
    s0 = surface("two-cell")
    vals = list(s0.values)
    for v in s0.triangles[0]:
        vals[v] = 0.0
    flat = SurfaceField(s0.triangles, vals, s0.coords)
    with pytest.raises(InputRejected) as exc:
        compute_reeb(flat)
    assert exc.value.code == "degenerate-level"


def test_coarse_sample_with_collapsed_rays_rejected():
    # ties collapse two level rays at a saddle of this coarse sample; the
    # tie-broken classification and the exact level set disagree
    s = pullback_cosine_field(8, ((-2, 0), (-2, -1)))
    g = compute_reeb(s)
    node = find_special_vertex(g)
    with pytest.raises(InputRejected) as exc:
        build_partition(s, g, node)
    assert exc.value.code == "degenerate-level"
    assert "level rays" in str(exc.value)


@pytest.mark.parametrize("seed", [22, 128])
def test_on_level_vertex_with_three_rays_rejected(seed):
    # integer ties on the special level give a regular on-level vertex a
    # third exact level ray
    s = quantized_grid(seed)
    g = compute_reeb(s)
    with pytest.raises(InputRejected) as exc:
        build_partition(s, g, find_special_vertex(g))
    assert exc.value.code == "degenerate-level"
    assert str(exc.value) == (
        "on-level vertex 1 has 3 exact level rays where a regular point has 2; "
        "the sample is too degenerate at its critical level")


def _graph_and_node(s: SurfaceField):
    g = compute_reeb(s)
    return g, find_special_vertex(g)


DIFFERENTIAL_FIELDS = (
    [(f"{name}@{grid}", lambda name=name, grid=grid: preset_field(name, grid))
     for name in EXPECTED_COUNTS for grid in (16, 32)]
    + [(f"pullback {mat}@{grid}", lambda mat=mat, grid=grid: pullback_cosine_field(grid, mat))
       for mat, grid in ((((2, 0), (0, 2)), 32), (((3, 0), (0, 3)), 48),
                         (((2, 1), (-1, 2)), 40), (((4, 0), (0, 4)), 32))]
    + [(f"covering {mat}", lambda mat=mat: SurfaceField(*oracles.covering_field(8, mat)))
       for mat in (((2, 0), (0, 2)), ((3, 0), (0, 3)), ((2, 0), (0, 4)), ((2, 2), (-2, 2)))])


def _check_against_whole_mesh_rebuild(s: SurfaceField, g: ReebGraph, node: int) -> None:
    # build_partition glues only V's carrier itself and reads the rest of
    # each region off the graph's triangle ownership; the oracle rebuilds
    # the directed-edge map of the whole refined complex from raw triangles
    p = build_partition(s, g, node)
    # the region walks turn around V on the refined complex; its every
    # link, at V too, must be one cycle, or this raises not-a-surface
    SurfaceField(p.refined_triangles, p.refined_values).fans()
    # V on its own: the refined edges at the level, in the 0-cells' component.
    # The 1-cells are the walks cut at the 0-cells; they must cover V, each
    # edge once, and be the arcs that a tracer from the 0-cells finds
    v_edges = oracles.level_component_edges(
        p.refined_triangles, p.refined_values, p.level, p.zero_cells)
    arc_edges = Counter((min(x, y), max(x, y))
                        for cell in p.one_cells for x, y in zip(cell.path, cell.path[1:]))
    assert set(arc_edges) == v_edges and set(arc_edges.values()) == {1}
    arcs = oracles.trace_arcs(v_edges, p.zero_cells)
    assert [cell.path for cell in p.one_cells] == arcs
    # each 2-cell's boundary, laid out on the reference arcs, is its walk
    # from the first 0-cell on it
    zset = set(p.zero_cells)
    for cell in p.two_cells:
        walk = cell.boundary_vertices
        k = next(i for i, v in enumerate(walk) if v in zset)
        laid = [v for a, sign in cell.boundary for v in arcs[a][::sign][:-1]]
        assert laid == list(walk[k:] + walk[:k])
    on_v = {v for e in v_edges for v in e}
    regions = oracles.cut_regions(p.refined_triangles, v_edges)
    cells = sorted(p.two_cells, key=lambda c: c.refined_triangles[0])
    assert len(regions) == len(cells) == len(g.edges_at(node))
    for (tris, (nv, ne, nt), darts), cell in zip(regions, cells):
        assert tuple(tris) == cell.refined_triangles
        assert nt == len(cell.refined_triangles)
        assert nv == len({v for ti in tris for v in p.refined_triangles[ti]} - on_v)
        assert nv - ne + nt == 1
        walk = cell.boundary_vertices
        assert darts == set(zip(walk, walk[1:] + walk[:1]))


@pytest.mark.parametrize("make", [m for _, m in DIFFERENTIAL_FIELDS],
                         ids=[label for label, _ in DIFFERENTIAL_FIELDS])
def test_patched_refined_complex_matches_a_whole_mesh_rebuild(make):
    s = make()
    _check_against_whole_mesh_rebuild(s, *_graph_and_node(s))


def _coarse_pool(kind: str):
    """The grid-8 fields of the acceptance pool: pullbacks along its seeded
    matrix draws (the first 40 distinct ones hold the pool's 17), or the
    random_field(8, seed) draws."""
    if kind == "random":
        yield from (random_field(8, seed) for seed in range(120))
        return
    rng = random.Random(20260819)
    seen: set = set()
    while len(seen) < 40:
        mat = ((rng.randint(-2, 2), rng.randint(-2, 2)),
               (rng.randint(-2, 2), rng.randint(-2, 2)))
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        if det != 0 and abs(det) <= 4 and mat not in seen:
            seen.add(mat)
            yield pullback_cosine_field(8, mat)


@pytest.mark.parametrize("kind,floor", [("pullback", 17), ("random", 3)])
def test_patched_refined_complex_matches_a_whole_mesh_rebuild_on_coarse_fields(kind, floor):
    # coarse samples have branches that own no triangle off V's carrier,
    # so their regions are made of carrier pieces alone
    checked = 0
    for s in _coarse_pool(kind):
        try:
            g, node = _graph_and_node(s)
            build_partition(s, g, node)
        except InputRejected:
            continue  # cyclic graph or tie degeneracy, as the tool rejects it
        _check_against_whole_mesh_rebuild(s, g, node)
        checked += 1
    assert checked >= floor


@pytest.mark.parametrize("name,k,message", [
    ("two-cell", 0, "share a region"), ("two-cell", -1, "share a region"),
    ("z2-sym", 36, "lies in two regions")])
def test_band_triangle_filed_under_another_branch_is_caught(name, k, message):
    # the triangle still lies in the first branch's region: next to the
    # carrier its pieces join the two units, further in its vertices are
    # in both regions
    s = preset_field(name, 16)
    g, node = _graph_and_node(s)
    first, second = [b.root_edge for b in g.branches_at(node)][:2]
    band = list(g.band_map[first])
    g.band_map[second] += (band.pop(k),)
    g.band_map[first] = tuple(band)
    with pytest.raises(InternalInvariantError, match=message):
        build_partition(s, g, node)


def test_band_triangle_filed_nowhere_is_caught():
    s = preset_field("z2-sym", 16)
    g, node = _graph_and_node(s)
    eid = g.branches_at(node)[0].root_edge
    g.band_map[eid] = g.band_map[eid][1:]
    with pytest.raises(InternalInvariantError, match="does not file every triangle exactly once"):
        build_partition(s, g, node)


def test_branches_with_swapped_triangles_are_caught():
    # every triangle of the two branches changes hands: the gluing is
    # consistent, but each unit lands in the region of the other branch's
    # critical vertices
    s = preset_field("two-cell", 16)
    g, node = _graph_and_node(s)
    e1, e2 = (b.root_edge for b in g.branches_at(node))
    (w1,), (w2,) = (b.nodes for b in g.branches_at(node))
    g.band_map[e1], g.band_map[e2] = g.band_map[e2], g.band_map[e1]
    g.node_map[w1], g.node_map[w2] = g.node_map[w2], g.node_map[w1]
    with pytest.raises(InternalInvariantError, match="owns triangles off its region"):
        build_partition(s, g, node)


def test_partition_glues_only_the_carrier(monkeypatch):
    # the union-find sees V's carrier and its pieces, never the whole mesh
    s = preset_field("two-cell", 64)
    g, node = _graph_and_node(s)
    unions = 0
    union = _UnionFind.union

    def counting(self, a, b):
        nonlocal unions
        unions += 1
        return union(self, a, b)

    monkeypatch.setattr(_UnionFind, "union", counting)
    p = build_partition(s, g, node)
    _, cut, _ = level_structure(s, g, node)
    tris = [t for t, _ in cut]
    carrier = len(set(g.node_map[node]).union(tris))
    pieces = len(p.refined_triangles) - (s.triangle_count - len(tris))
    assert 0 < unions <= 3 * (carrier + pieces)
    assert 3 * (carrier + pieces) < s.triangle_count / 2


def _flipped(s: SurfaceField, flip) -> tuple:
    return tuple((a, c, b) if idx in flip else (a, b, c)
                 for idx, (a, b, c) in enumerate(s.triangles))


def test_flipped_piece_repeats_a_directed_edge(monkeypatch):
    # the surface's adjacency is built from the true triangles; one of V's
    # triangles is then reversed, so its refined pieces flip orientation
    # and each repeats a directed edge of a neighboring piece
    s = preset_field("z2-sym", 16)
    g, node = _graph_and_node(s)
    _, cut, _ = level_structure(s, g, node)
    monkeypatch.setattr(s, "triangles", _flipped(s, {cut[0][0]}))
    with pytest.raises(InternalInvariantError, match="refined complex repeats a directed edge"):
        build_partition(s, g, node)


def test_seam_lost_from_the_twin_table_is_caught(monkeypatch):
    # a half-edge of one of V's triangles, off the level at both ends and
    # with an untouched triangle across it, is made its own twin: the seam
    # there is lost, so the piece edge has a triangle on one side only.
    # Neither walk of V reads that twin: it is not crossed, and it does not
    # end at a vertex on the level
    s = preset_field("z2-sym", 16)
    g, node = _graph_and_node(s)
    _, cut, _ = level_structure(s, g, node)
    split = {t for t, _ in cut}
    twin, level = array("l", s.twins()), g.nodes[node].level
    h = next(h for t in sorted(split) for h in range(3 * t, 3 * t + 3)
             if twin[h] // 3 not in split and level not in (
                 s.values[s.triangles[t][h % 3]], s.values[s.triangles[t][h % 3 - 2]]))
    twin[h] = h
    monkeypatch.setattr(s, "_twin", twin)
    with pytest.raises(InternalInvariantError, match=r"refined edge \(\d+, \d+\) is not shared"):
        build_partition(s, g, node)


def test_branch_that_owns_nothing_is_caught():
    # branch 0's triangles all filed under branch 1: its unit owns no
    # triangle and glues to no piece, so one region goes missing
    s = preset_field("two-cell", 16)
    g, node = _graph_and_node(s)
    b0, b1 = g.branches_at(node)
    (w0,), (w1,) = b0.nodes, b1.nodes
    g.node_map[w1] += g.node_map[w0]
    g.node_map[w0] = ()
    g.band_map[b1.root_edge] += g.band_map[b0.root_edge]
    g.band_map[b0.root_edge] = ()
    with pytest.raises(InternalInvariantError, match=r"^1 regions for 2 branches at node \d+$"):
        build_partition(s, g, node)


@pytest.mark.parametrize("extra, message", [
    # the minimum is a critical vertex that is not on the level
    (0, "level component of node 1 does not hold exactly its critical vertices"),
    # an off-level vertex taken for V: its region loses it and reads as an annulus
    (1, "region 0 has open Euler characteristic 0, not a disk")])
def test_level_component_with_a_vertex_off_the_level_is_caught(monkeypatch, extra, message):
    s = preset_field("two-cell", 16)
    g, node = _graph_and_node(s)
    verts, cut, crossed = level_structure(s, g, node)
    assert extra not in verts
    monkeypatch.setattr(krtorus.partition, "level_structure",
                        lambda *_: (tuple(sorted(verts + (extra,))), cut, crossed))
    with pytest.raises(InternalInvariantError, match=message):
        build_partition(s, g, node)


def test_region_of_two_components_is_caught(monkeypatch):
    # a dip to -1 inside the maximum's disk, ringed by -0.5 and one vertex
    # at 0, leaves a regular circle at V's level there. Passed off as part
    # of V, it cuts the disk into an annulus and a disk that one branch
    # owns: the region is a surface of Euler characteristic 0 + 1 = 1 that
    # passes every check before the walk, but has two boundary walks
    s = preset_field("two-cell", 32)
    values, dip = list(s.values), grid_vertex(32, 3, 3)
    ring = s.fans()[dip]
    values[dip] = -1.0
    for w in ring:
        values[w] = -0.5 if w != ring[0] else 0.0
    s = SurfaceField(s.triangles, values)
    g, node = _graph_and_node(s)
    assert g.nodes[node].level == 0.0
    build_partition(s, g, node)  # the true V is accepted
    _, circle, circle_cut, circle_crossed = _node_component(s, 0.0, ring[0])
    forged = [tuple(sorted(set(part).union(extra))) for part, extra in zip(
        level_structure(s, g, node), (circle, circle_cut, circle_crossed))]
    monkeypatch.setattr(krtorus.partition, "level_structure", lambda *_: forged)
    with pytest.raises(InternalInvariantError,
                       match=r"^region \d+ boundary is not a single closed walk$"):
        build_partition(s, g, node)


def test_region_whose_criticals_no_branch_has_is_caught():
    # the minimum's node also claims the maximum: the maximum's region
    # still matches the other branch, the minimum's region matches none
    s = preset_field("two-cell", 16)
    g, node = _graph_and_node(s)
    (w0,), (w1,) = (b.nodes for b in g.branches_at(node))
    nodes = list(g.nodes)
    nodes[w0] = dataclasses.replace(
        nodes[w0], critical_vertices=nodes[w0].critical_vertices + nodes[w1].critical_vertices)
    g.nodes = tuple(nodes)
    with pytest.raises(InternalInvariantError,
                       match=r"^region \d+ does not match exactly one branch \(criticals \[\d+\]\)$"):
        build_partition(s, g, node)

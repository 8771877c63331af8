"""Kronrod-Reeb graph of a generic PL field on a closed oriented surface.

Nodes are connected components of critical level sets; edges are the
annulus families of regular contours between them. Everything is
combinatorial, and the work is proportional to the node components and
the cuts they make, never to levels x triangles:

- a level set is a union of pieces (on-level vertices and edges whose
  endpoints strictly straddle the level) glued by the segments that the
  level cuts inside triangles; a triangle meets at most one component
  of a given level, so gluing pieces within triangles is sound;
- node components are found by a local traversal from their critical
  vertices, through the triangles around each on-level vertex and the
  two triangles of each crossing edge; regular level components are
  never built;
- graph edges are the connected components of the surface cut along
  the node components. Each triangle splits into slabs at the node
  levels that cross its interior. Slabs of the two triangles at a mesh
  edge are glued once per stretch of that edge between consecutive
  node crossings; a flat edge glues its two sides unless it lies in a
  node component. A component's lower and upper node are read off the
  cuts and corner vertices that bound its slabs, and there must be
  exactly one of each.

Each node stores two independently computed Euler numbers: the census
of its level component (pieces minus segments) and the sum of PL
indices of its critical vertices. Downstream consumers compare them.
Segments are counted, never stored: a flat segment (a mesh edge in the
level) is met from both of its triangles and counted once, every other
segment lies in one triangle. A node component is folded into the cut
maps, by node id, as soon as its level is done. The graph keeps two of
them: ``on_node``, the node of every on-level vertex of a node
component, and ``tri_cuts``, the nodes that cut each triangle's
interior. ``level_structure`` reads one node's component back off
them, so the cell partition never sweeps a level again.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import itemgetter

from .errors import InputRejected, InternalInvariantError
from .surface import SurfaceField, format_scalar, vertex_classes


class _UnionFind:
    """Disjoint sets over 0..n-1: a parent list with path halving.

    union(a, b) hangs the root of a under the root of b.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = x = p[p[x]]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def triangle_level_pieces(s: SurfaceField, tri: tuple[int, int, int], level) -> list:
    a, b, c = tri
    pieces = [("v", v) for v in tri if s.values[v] == level]
    if len(pieces) == 3:
        raise InputRejected(
            "degenerate-level",
            f"triangle {tri} lies entirely in critical level {format_scalar(level)}; "
            "the tie-broken order cannot repair a flat triangle")
    for u, w in ((a, b), (b, c), (c, a)):
        fu, fw = s.values[u], s.values[w]
        if (fu < level < fw) or (fw < level < fu):
            pieces.append(("e", min(u, w), max(u, w)))
    return pieces


@dataclass(frozen=True)
class ReebNode:
    id: int
    level: object
    kinds: tuple[str, ...]
    critical_vertices: tuple[int, ...]
    census_euler: int
    index_sum: int


@dataclass(frozen=True)
class ReebEdge:
    id: int
    lower: int
    upper: int
    interval: tuple  # open level interval (a, b), a < b


@dataclass(frozen=True)
class Branch:
    """One component of the graph minus a vertex, with its attaching edges."""

    root_edges: tuple[int, ...]
    nodes: frozenset
    side: str  # "up", "down", or "mixed" relative to the removed vertex


class ReebGraph:
    def __init__(self, nodes, edges, node_map, band_map, on_node, tri_cuts, surface_chi):
        self.nodes: tuple[ReebNode, ...] = tuple(nodes)
        self.edges: tuple[ReebEdge, ...] = tuple(edges)
        self.node_map: dict[int, tuple[int, ...]] = dict(node_map)
        self.band_map: dict[int, tuple[int, ...]] = dict(band_map)
        # the node of every vertex lying in a node component
        self.on_node: dict[int, int] = dict(on_node)
        # the nodes cutting each triangle's interior, in level order
        self.tri_cuts: dict[int, list[int]] = dict(tri_cuts)
        self.surface_chi = surface_chi
        adj: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            adj[e.lower].append(e.id)
            adj[e.upper].append(e.id)
        self._adj = {k: tuple(sorted(v)) for k, v in adj.items()}

    def node(self, node_id: int) -> ReebNode:
        return self.nodes[node_id]

    def edge(self, edge_id: int) -> ReebEdge:
        return self.edges[edge_id]

    def edges_at(self, node_id: int) -> tuple[int, ...]:
        return self._adj[node_id]

    def degree(self, node_id: int) -> int:
        return len(self._adj[node_id])

    def b1(self) -> int:
        return len(self.edges) - len(self.nodes) + 1

    def branches_at(self, node_id: int) -> tuple[Branch, ...]:
        """Components of the graph minus one vertex, ordered by smallest root edge."""
        uf = _UnionFind(len(self.nodes))
        for e in self.edges:
            if e.lower != node_id and e.upper != node_id:
                uf.union(e.lower, e.upper)
        comp_nodes: dict = {}
        for n in self.nodes:
            if n.id != node_id:
                comp_nodes.setdefault(uf.find(n.id), set()).add(n.id)
        comp_roots: dict = {}
        comp_sides: dict = {}
        for eid in self._adj[node_id]:
            e = self.edges[eid]
            other = e.upper if e.lower == node_id else e.lower
            root = uf.find(other)
            comp_roots.setdefault(root, []).append(eid)
            comp_sides.setdefault(root, set()).add("up" if e.lower == node_id else "down")
        if set(comp_roots) != set(comp_nodes):
            raise InternalInvariantError("graph minus a vertex has an unreachable component")
        branches = []
        for root, roots_edges in comp_roots.items():
            sides = comp_sides[root]
            side = sides.pop() if len(sides) == 1 else "mixed"
            branches.append(Branch(tuple(sorted(roots_edges)), frozenset(comp_nodes[root]), side))
        return tuple(sorted(branches, key=lambda b: b.root_edges[0]))


def level_structure(s: SurfaceField, g: ReebGraph, node_id: int):
    """The level component of one node, read off the graph's cut maps.

    Returns (vertices, triangles): the component's on-level vertices,
    and the triangles it crosses (the node cuts their interior) or runs
    along (two of their corners lie in it), both in index order.
    Triangles it only touches at a corner are left out.
    """
    verts = sorted(v for v, nid in g.on_node.items() if nid == node_id)
    on = set(verts)
    crossed = {idx for idx, cuts in g.tri_cuts.items() if node_id in cuts}
    tris = [idx for idx, (a, b, c) in enumerate(s.triangles)
            if idx in crossed or (a in on) + (b in on) + (c in on) >= 2]
    return tuple(verts), tuple(tris)


def _node_component(s: SurfaceField, level, start: int, classes, vertex_tris, edge_tris):
    """The component of one level set through vertex start, found locally.

    Pieces are reached through the triangles around them: all triangles
    at an on-level vertex, the two triangles of a crossing edge. Returns
    (sort key, census, critical vertices, on-level vertices, crossing
    edge keys, triangles, cut triangles); the sort key is the smallest
    piece, and a triangle is cut across its interior iff it has a
    crossing edge.
    """
    verts, edges, tris, cut = {start}, set(), set(), []
    stack = [vertex_tris[start]]
    segments = 0  # doubled: a flat segment is met from both of its triangles
    while stack:
        for idx in stack.pop():
            if idx in tris:
                continue
            tris.add(idx)
            tp = triangle_level_pieces(s, s.triangles[idx], level)
            if len(tp) == 2:
                segments += 1 if tp[1][0] == "v" else 2
            if tp[-1][0] == "e":
                cut.append(idx)
            for q in tp:
                if q[0] == "v":
                    if q[1] not in verts:
                        verts.add(q[1])
                        stack.append(vertex_tris[q[1]])
                elif q[1:] not in edges:
                    edges.add(q[1:])
                    stack.append(edge_tris[q[1:]])
    crit = tuple(sorted(v for v in verts if classes[v].is_critical))
    key = ("e", *min(edges)) if edges else ("v", min(verts))
    return key, len(verts) + len(edges) - segments // 2, crit, verts, edges, tris, cut


def compute_reeb(s: SurfaceField) -> ReebGraph:
    classes = vertex_classes(s)
    values = s.values
    crit = sorted((v for v, c in enumerate(classes) if c.is_critical), key=values.__getitem__)
    if not crit:
        raise InternalInvariantError("closed surface field with no critical vertex")
    # a flat triangle at a critical level is rejected by triangle_level_pieces;
    # report the one on the lowest such level, lowest index first
    crit_level = {x: x for x, _ in groupby(crit, key=values.__getitem__)}
    flat = min(((values[a], idx) for idx, (a, b, c) in enumerate(s.triangles)
                if values[a] == values[b] == values[c] and values[a] in crit_level), default=None)
    if flat is not None:
        triangle_level_pieces(s, s.triangles[flat[1]], crit_level[flat[0]])

    vertex_tris: list[list[int]] = [[] for _ in values]
    edge_tris: dict[tuple[int, int], list[int]] = {}
    for idx, (a, b, c) in enumerate(s.triangles):
        for u, w in ((a, b), (b, c), (c, a)):
            vertex_tris[u].append(idx)
            edge_tris.setdefault((u, w) if u < w else (w, u), []).append(idx)

    # node ids ascend with their levels, and a triangle meets at most one
    # component of a level, so every cut list below is in level order
    nodes = []
    on_node: dict[int, int] = {}  # every vertex lying in a node component
    tri_node: dict[int, int] = {}  # smallest node meeting each triangle
    tri_cuts: dict[int, list[int]] = {}  # nodes with a segment across the interior
    edge_cuts: dict[tuple[int, int], list[int]] = {}  # nodes crossing each edge
    for level, group in groupby(crit, key=values.__getitem__):
        comps = []
        covered = set()
        for v in group:
            if v not in covered:
                comp = _node_component(s, level, v, classes, vertex_tris, edge_tris)
                covered.update(comp[2])
                comps.append(comp)
        comps.sort(key=itemgetter(0))
        for _, census, cv, verts, edges, tris, cut in comps:
            nid = len(nodes)
            nodes.append(ReebNode(nid, level, tuple(sorted(classes[v].label() for v in cv)),
                                  cv, census, sum(classes[v].index for v in cv)))
            for v in verts:
                on_node[v] = nid
            for key in edges:
                edge_cuts.setdefault(key, []).append(nid)
            for idx in tris:
                tri_node.setdefault(idx, nid)
            for idx in cut:
                tri_cuts.setdefault(idx, []).append(nid)

    # slabs: triangle idx is split at its cut levels into slabs base[idx] + i;
    # only the few cut triangles have more than one
    node_level = [n.level for n in nodes]
    base = list(accumulate((len(tri_cuts.get(idx, ())) + 1
                            for idx in range(s.triangle_count)), initial=0))

    def slab_above(idx, x):
        return base[idx] + bisect_right(tri_cuts.get(idx, ()), x, key=node_level.__getitem__)

    # glue slabs across each mesh edge, one cut-free stretch of it at a time;
    # a crossed edge cuts both its triangles, so an edge between two uncut
    # triangles is a single stretch
    uf = _UnionFind(base[-1])
    for key, (t1, t2) in edge_tris.items():
        fu, fw = values[key[0]], values[key[1]]
        if fu == fw and key[0] in on_node:
            continue
        if t1 not in tri_cuts and t2 not in tri_cuts:
            uf.union(base[t1], base[t2])
            continue
        for x in [min(fu, fw)] + [node_level[n] for n in edge_cuts.get(key, ())]:
            uf.union(slab_above(t1, x), slab_above(t2, x))

    # each cut-surface component: its bounding nodes and smallest triangle
    ends: dict = {}
    for idx, tri in enumerate(s.triangles):
        cuts = tri_cuts.get(idx, ())
        # nodes at the lowest and highest corner, if any corner is on a node
        bottom = top = None
        if cuts or tri[0] in on_node or tri[1] in on_node or tri[2] in on_node:
            bottom = on_node.get(min(tri, key=values.__getitem__))
            top = on_node.get(max(tri, key=values.__getitem__))
        for i in range(len(cuts) + 1):
            root = uf.find(base[idx] + i)
            entry = ends.get(root)
            if entry is None:
                entry = ends[root] = (set(), set(), idx)
            lower = cuts[i - 1] if i else bottom
            upper = cuts[i] if i < len(cuts) else top
            if lower is not None:
                entry[0].add(lower)
            if upper is not None:
                entry[1].add(upper)
    edge_raw = []
    for root, (lows, ups, first) in ends.items():
        if len(lows) != 1 or len(ups) != 1:
            raise InternalInvariantError(
                "cut-surface component does not end at exactly one lower and one upper node")
        edge_raw.append((lows.pop(), ups.pop(), first, root))
    edge_raw.sort(key=lambda r: r[:3])
    edges = []
    root_edge = {}
    for eid, (a, b, _, root) in enumerate(edge_raw):
        la, lb = node_level[a], node_level[b]
        if not la < lb:
            raise InternalInvariantError("edge interval is not increasing")
        edges.append(ReebEdge(eid, a, b, (la, lb)))
        root_edge[root] = eid

    # exclusive triangle ownership: node carriers first, then the edge of the only slab
    node_map: dict[int, list[int]] = {n.id: [] for n in nodes}
    band_map: dict[int, list[int]] = {e.id: [] for e in edges}
    for idx in range(s.triangle_count):
        if idx in tri_node:
            node_map[tri_node[idx]].append(idx)
        else:
            band_map[root_edge[uf.find(base[idx])]].append(idx)

    g = ReebGraph(nodes,
                  edges,
                  {k: tuple(v) for k, v in node_map.items()},
                  {k: tuple(v) for k, v in band_map.items()},
                  on_node,
                  tri_cuts,
                  surface_chi=s.vertex_count - len(edge_tris) + s.triangle_count)

    # connectivity of the graph itself
    uf = _UnionFind(len(g.nodes))
    for e in g.edges:
        uf.union(e.lower, e.upper)
    if len({uf.find(n.id) for n in g.nodes}) != 1:
        raise InternalInvariantError("graph is disconnected for a connected surface")
    # bands are annuli, so nodes alone must carry the Euler characteristic
    if sum(n.census_euler for n in g.nodes) != g.surface_chi:
        raise InternalInvariantError("node census does not add up to the surface Euler number")
    if sum(n.index_sum for n in g.nodes) != g.surface_chi:
        raise InternalInvariantError("index sum does not add up to the surface Euler number")
    return g


def is_tree(g: ReebGraph) -> bool:
    return len(g.edges) == len(g.nodes) - 1


def reeb_to_dot(g: ReebGraph) -> str:
    """Deterministic DOT rendering of the graph."""
    lines = ["graph kr {"]
    for n in g.nodes:
        kinds = ",".join(n.kinds)
        lines.append(f'  n{n.id} [label="level={format_scalar(n.level)} {kinds}"];')
    for e in g.edges:
        lo, hi = e.interval
        lines.append(f'  n{e.lower} -- n{e.upper} '
                     f'[label="({format_scalar(lo)},{format_scalar(hi)})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def branch_euler(g: ReebGraph, node_id: int, branch: Branch) -> int:
    """Euler characteristic of the part of the surface over one branch.

    Computed two independent ways: summing level-census Euler numbers of
    the branch nodes (regular contour families are annuli and contribute
    zero), and summing PL indices of the critical vertices over the
    branch. A mismatch is an internal error, never silently resolved.
    """
    route_census = sum(g.nodes[w].census_euler for w in branch.nodes)
    route_index = sum(g.nodes[w].index_sum for w in branch.nodes)
    if route_census != route_index:
        raise InternalInvariantError(
            f"branch Euler computations disagree at node {node_id}: "
            f"census {route_census} vs index sum {route_index}")
    return route_index


def find_special_vertex(g: ReebGraph) -> int:
    """The unique tree vertex all of whose branches carry Euler number 1."""
    if not is_tree(g):
        raise InputRejected("not-a-tree",
                            f"graph has first Betti number {g.b1()}, expected a tree",
                            b1=g.b1())
    winners = []
    for n in g.nodes:
        branches = g.branches_at(n.id)
        if branches and all(branch_euler(g, n.id, b) == 1 for b in branches):
            winners.append(n.id)
    if not winners:
        raise InputRejected(
            "no-special-vertex",
            "no vertex has all branches of Euler number 1; "
            "the torus/tree hypotheses do not hold for this input")
    if len(winners) > 1:
        raise InternalInvariantError(f"multiple special vertices {winners}")
    return winners[0]

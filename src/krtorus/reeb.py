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
  two triangles of each crossing edge, all read off the surface's
  ``left_triangles`` map (``vertex_classes`` has closed every fan, so it
  names both triangles of each edge). A triangle met is read off its
  corner values, with no piece list, and only crossing edges get a key.
  Regular level components are never built;
- graph edges are the connected components of the surface cut along
  the node components. Each triangle splits into slabs at the node
  levels that cross its interior. Each mesh edge is taken once from the
  same map, and the slabs of its two triangles are glued once per
  stretch of that edge between consecutive node crossings, each slab
  found by its node's id in the triangle's cut list; a flat edge glues
  its two sides unless it lies in a node component. A component's
  lower and upper node are read off the
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
    """One component of the tree minus a vertex, with the edge that attaches it."""

    root_edge: int
    nodes: frozenset
    side: str  # "up" or "down" relative to the removed vertex


class ReebGraph:
    def __init__(self, nodes, edges, node_map, band_map, on_node, tri_cuts, surface_chi):
        self.nodes: tuple[ReebNode, ...] = tuple(nodes)
        self.edges: tuple[ReebEdge, ...] = tuple(edges)
        # every triangle is filed once: under the lowest node meeting it, else its band's edge
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

    def edges_at(self, node_id: int) -> tuple[int, ...]:
        return self._adj[node_id]

    def b1(self) -> int:
        return len(self.edges) - len(self.nodes) + 1

    def walk(self, start: int, via: int | None = None) -> list[tuple[int, int | None]]:
        """(node, edge it is reached by) breadth-first from start, never crossing via.

        A node met twice closes a cycle and raises, so the nodes walked form a tree.
        """
        order = [(start, via)]
        seen = {start}
        for w, arrived in order:
            for eid in self._adj[w]:
                if eid != arrived:
                    e = self.edges[eid]
                    other = e.upper if e.lower == w else e.lower
                    if other in seen:
                        raise InternalInvariantError(f"branch at node {start} is not a tree")
                    seen.add(other)
                    order.append((other, eid))
        return order

    def branches_at(self, node_id: int) -> tuple[Branch, ...]:
        """The branches of a tree at one vertex, one per edge, in edge-id order."""
        branches = []
        for eid in self._adj[node_id]:
            e = self.edges[eid]
            up = e.lower == node_id
            nodes = frozenset(w for w, _ in self.walk(e.upper if up else e.lower, eid))
            branches.append(Branch(eid, nodes, "up" if up else "down"))
        if sum(len(b.nodes) for b in branches) != len(self.nodes) - 1:
            raise InternalInvariantError(f"graph at node {node_id} is not a tree")
        return tuple(branches)


def level_structure(s: SurfaceField, g: ReebGraph, node_id: int):
    """The level component of one node, read off the cut maps and its vertices' fans.

    Returns (vertices, triangles): the component's on-level vertices,
    and the triangles it crosses (the node cuts their interior) or runs
    along (two of their corners lie in it), both in index order.
    Triangles it only touches at a corner are left out.
    """
    verts = sorted(v for v, nid in g.on_node.items() if nid == node_id)
    on = set(verts)
    tris = {idx for idx, cuts in g.tri_cuts.items() if node_id in cuts}
    tris.update(idx for v in verts for idx in s.left_triangles()[v].values()
                if sum(u in on for u in s.triangles[idx]) >= 2)
    return tuple(verts), tuple(sorted(tris))


def _node_component(s: SurfaceField, level, start: int, classes, left):
    """The component of one level set through vertex start, found locally.

    Pieces are reached through the triangles around them: all triangles
    at an on-level vertex, the two triangles of a crossing edge. Each is
    read off its corner values (it meets the level and is not flat): two
    on-level corners make a flat segment, and a crossing edge an interior
    one that cuts the triangle. Returns (sort key, census, critical
    vertices, on-level vertices, crossing edge keys, triangles, cut
    triangles); the sort key is the smallest piece.
    """
    values, triangles = s.values, s.triangles
    verts, edges, tris, cut = {start}, set(), set(), []
    stack = [left[start].values()]
    segments = 0  # doubled: a flat segment is met from both of its triangles
    while stack:
        for idx in stack.pop():
            if idx in tris:
                continue
            tris.add(idx)
            a, b, c = triangles[idx]
            fa, fb, fc = values[a], values[b], values[c]
            if fa != level and fb != level and fc != level:
                # the corner alone on its side ends both crossing edges
                x, ends = ((c, (a, b)) if (fa < level) == (fb < level) else
                           (b, (a, c)) if (fa < level) == (fc < level) else (a, (b, c)))
            else:
                on = [v for v in (a, b, c) if values[v] == level]
                for v in on:
                    if v not in verts:
                        verts.add(v)
                        stack.append(left[v].values())
                x, w = (v for v in (a, b, c) if v != on[0])
                if len(on) == 2 or (values[x] < level) == (values[w] < level):
                    segments += len(on) - 1  # a flat segment, or none
                    continue
                ends = (w,)
            segments += 2
            cut.append(idx)
            for w in ends:
                key = (x, w) if x < w else (w, x)
                if key not in edges:
                    edges.add(key)
                    stack.append((left[x][w], left[w][x]))
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

    left = s.left_triangles()

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
                comp = _node_component(s, level, v, classes, left)
                covered.update(comp[2])
                comps.append(comp)
        comps.sort(key=itemgetter(0))
        for _, census, cv, verts, edges, tris, cut in comps:
            nid = len(nodes)
            nodes.append(ReebNode(nid, level, tuple(sorted(classes[v].label() for v in cv)),
                                  cv, census, sum(classes[v].index for v in cv)))
            on_node.update(dict.fromkeys(verts, nid))
            for key in edges:  # not setdefault: most keys are hits, and it builds a list each call
                cuts = edge_cuts.get(key)
                if cuts is None:
                    edge_cuts[key] = [nid]
                else:
                    cuts.append(nid)
            tri_node.update(dict.fromkeys(tris.difference(tri_node), nid))
            for idx in cut:
                cuts = tri_cuts.get(idx)
                if cuts is None:
                    tri_cuts[idx] = [nid]
                else:
                    cuts.append(nid)

    # slabs: triangle idx is split at its cut levels into slabs base[idx] + i;
    # only the few cut triangles have more than one
    node_level = [n.level for n in nodes]
    base = list(accumulate((len(tri_cuts.get(idx, ())) + 1
                            for idx in range(s.triangle_count)), initial=0))

    # glue slabs across each mesh edge, one cut-free stretch of it at a time;
    # a crossed edge cuts both its triangles, so an edge between two uncut
    # triangles is a single stretch. Each stretch starts above a node: the
    # last one at or below the edge's lower end, then each node crossing
    # it. Cut lists ascend in id as in level, so slabs are found by node id
    uf = _UnionFind(base[-1])
    for u, d in enumerate(left):
        fu = values[u]
        for w, t1 in d.items():
            fw = values[w]
            if w < u or fu == fw and u in on_node:
                continue  # each edge once, from its smaller end; none across a node
            t2 = left[w][u]
            if t1 not in tri_cuts and t2 not in tri_cuts:
                uf.union(base[t1], base[t2])
                continue
            c1, c2 = tri_cuts.get(t1, ()), tri_cuts.get(t2, ())
            for n in [bisect_right(node_level, min(fu, fw)) - 1, *edge_cuts.get((u, w), ())]:
                uf.union(base[t1] + bisect_right(c1, n), base[t2] + bisect_right(c2, n))

    # each cut-surface component: its bounding nodes, smallest triangle and
    # the uncut triangles it owns; node carriers own the rest
    node_map: dict[int, list[int]] = {n.id: [] for n in nodes}
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
                entry = ends[root] = (set(), set(), idx, [])
            lower = cuts[i - 1] if i else bottom
            upper = cuts[i] if i < len(cuts) else top
            if lower is not None:
                entry[0].add(lower)
            if upper is not None:
                entry[1].add(upper)
        if idx in tri_node:
            node_map[tri_node[idx]].append(idx)
        else:
            entry[3].append(idx)  # an uncut triangle's only slab
    edge_raw = []
    for lows, ups, first, owned in ends.values():
        if len(lows) != 1 or len(ups) != 1:
            raise InternalInvariantError(
                "cut-surface component does not end at exactly one lower and one upper node")
        edge_raw.append((lows.pop(), ups.pop(), first, owned))
    edge_raw.sort(key=lambda r: r[:3])
    edges = []
    for eid, (a, b, _, _) in enumerate(edge_raw):
        la, lb = node_level[a], node_level[b]
        if not la < lb:
            raise InternalInvariantError("edge interval is not increasing")
        edges.append(ReebEdge(eid, a, b, (la, lb)))

    g = ReebGraph(nodes,
                  edges,
                  {k: tuple(v) for k, v in node_map.items()},
                  {eid: tuple(r[3]) for eid, r in enumerate(edge_raw)},
                  on_node,
                  tri_cuts,
                  surface_chi=s.vertex_count - sum(map(len, left)) // 2 + s.triangle_count)

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


def _agreed_euler(node_id: int, census: int, index: int) -> int:
    if census != index:
        raise InternalInvariantError(
            f"branch Euler computations disagree at node {node_id}: "
            f"census {census} vs index sum {index}")
    return index


def branch_euler(g: ReebGraph, node_id: int, branch: Branch) -> int:
    """Euler characteristic of the part of the surface over one branch.

    Computed two independent ways: summing level-census Euler numbers of
    the branch nodes (regular contour families are annuli and contribute
    zero), and summing PL indices of the critical vertices over the
    branch. A mismatch is an internal error, never silently resolved.
    """
    return _agreed_euler(node_id,
                         sum(g.nodes[w].census_euler for w in branch.nodes),
                         sum(g.nodes[w].index_sum for w in branch.nodes))


def find_special_vertex(g: ReebGraph) -> int:
    """The unique tree vertex all of whose branches carry Euler number 1.

    One walk from node 0 sums both Euler routes over every subtree. A
    branch across a child edge is that subtree, the one across the
    parent edge is the rest of the tree.
    """
    if not is_tree(g):
        raise InputRejected("not-a-tree",
                            f"graph has first Betti number {g.b1()}, expected a tree",
                            b1=g.b1())
    order = g.walk(0)
    if len(order) != len(g.nodes):
        raise InternalInvariantError("graph is disconnected")
    parent_edge = dict(order)  # node -> the edge it is reached by; None at node 0
    census, index = {}, {}  # edge -> sums over the subtree below it; None -> the whole tree
    for w, via in reversed(order):
        below = [eid for eid in g.edges_at(w) if eid != via]
        census[via] = g.nodes[w].census_euler + sum(census[eid] for eid in below)
        index[via] = g.nodes[w].index_sum + sum(index[eid] for eid in below)

    def euler(node_id: int, eid: int) -> int:
        if eid != parent_edge[node_id]:
            return _agreed_euler(node_id, census[eid], index[eid])
        return _agreed_euler(node_id, census[None] - census[eid], index[None] - index[eid])

    winners = [n.id for n in g.nodes if g.edges_at(n.id)
               and all(euler(n.id, eid) == 1 for eid in g.edges_at(n.id))]
    if not winners:
        raise InputRejected(
            "no-special-vertex",
            "no vertex has all branches of Euler number 1; "
            "the torus/tree hypotheses do not hold for this input")
    if len(winners) > 1:
        raise InternalInvariantError(f"multiple special vertices {winners}")
    return winners[0]

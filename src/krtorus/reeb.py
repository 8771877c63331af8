"""Kronrod-Reeb graph of a generic PL field on a closed oriented surface.

Nodes are connected components of critical level sets; edges are the
annulus families of regular contours between them. The graph comes from
one sweep over the vertices in rank order (by value, ties broken by
index), after Cole-McLaughlin, Edelsbrunner, Harer, Natarajan and
Pascucci, "Loops in Reeb graphs of 2-manifolds" (DCG 32, 2004):

- each mesh edge across the sweep level carries a label in a union-find
  whose roots name the open arcs of the tie-broken graph: one label per
  vertex for all its upper edges, and a small map for edges relabelled
  later. A regular vertex passes its label on, a minimum opens an arc,
  a maximum closes one, and a saddle closes its lower arcs under a new
  one. Unless a simple saddle joins two contours, the contours above it
  are walked from its upper runs in lockstep until all but one close,
  and each closed one becomes a new arc, so no contour is walked whole;
- the tie-broken level at a vertex of value c meets the same simplices
  as the exact level c, so the nodes are the arcs contracted where both
  ends have one value, every other arc is an edge, and a regular vertex
  lies on a node when its arc ends at its own value;
- a node's census is the sum over its on-level vertices of
  1 - (level segments at the vertex) / 2;
- a triangle maps onto a monotone path of the graph: it is filed under
  its lowest corner's node, else under the node that corner's arc rises
  to if the triangle reaches that level, else in the arc's band.

Each node also stores the sum of PL indices of its critical vertices,
which downstream consumers compare with its census. Node components are
walked only to order the nodes of one level by their smallest piece, and
in ``level_structure``, which also hands the partition each triangle
the component cuts, with its apex, and the edges it crosses.
Edges with the same ends are ordered by the first triangle each meets,
read off the contour just above their lower node.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby, islice, takewhile

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
    """One component of the tree minus a vertex, with the edge that attaches it.

    Equal signatures mean branches that look alike to any level-preserving symmetry.
    """

    root_edge: int
    nodes: frozenset
    side: str  # "up" or "down" relative to the removed vertex
    signature: tuple  # (side, form), form = (level, kinds, sorted (direction, form) children)


class ReebGraph:
    def __init__(self, nodes, edges, node_map, band_map, surface_chi):
        self.nodes: tuple[ReebNode, ...] = tuple(nodes)
        self.edges: tuple[ReebEdge, ...] = tuple(edges)
        # every triangle is filed once: under the lowest node meeting it, else its band's edge
        self.node_map: dict[int, tuple[int, ...]] = dict(node_map)
        self.band_map: dict[int, tuple[int, ...]] = dict(band_map)
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
        """The branches of a tree at one vertex, one per edge, in edge-id order.

        One walk gives each branch its nodes and its signature; the forms are built
        children first, in reverse walk order, so they need no recursion."""
        branches = []
        for eid in self._adj[node_id]:
            e = self.edges[eid]
            side = "up" if e.lower == node_id else "down"
            order = self.walk(e.upper if side == "up" else e.lower, eid)
            form: dict[int, tuple] = {}  # edge -> canonical form of the subtree it reaches
            for w, via in reversed(order):
                subs = sorted(("up" if self.edges[x].lower == w else "down", form.pop(x))
                              for x in self._adj[w] if x != via)
                form[via] = (self.nodes[w].level, self.nodes[w].kinds, tuple(subs))
            branches.append(Branch(eid, frozenset(w for w, _ in order), side, (side, form[eid])))
        if sum(len(b.nodes) for b in branches) != len(self.nodes) - 1:
            raise InternalInvariantError(f"graph at node {node_id} is not a tree")
        return tuple(branches)


def level_structure(s: SurfaceField, g: ReebGraph, node_id: int):
    """The level component of one node, walked from its first critical vertex:
    its on-level vertices, the (triangle, apex) pairs of the triangles it
    crosses or runs along (two corners in it) but does not only touch at a
    corner, and the edges it crosses, all in index order."""
    node = g.nodes[node_id]
    _, verts, cut, crossed = _node_component(s, node.level, node.critical_vertices[0])
    return tuple(sorted(verts)), tuple(sorted(cut)), tuple(sorted(crossed))


def _node_component(s: SurfaceField, level, start: int):
    """The component of one level set through vertex start, found locally.

    Pieces are reached through the triangles around them: all triangles
    at an on-level vertex, swung around it, and the triangle across a
    crossing edge, through the edge's twin. Each triangle crossed or run
    along is kept with its apex, the corner the level separates from the
    other two: the on-level corner when the level crosses the opposite
    edge, the off-level corner of a flat segment, or the corner between
    two crossed edges. Returns (smallest piece, on-level vertices,
    (triangle, apex) pairs, crossed edges).
    """
    values, triangles, twin = s.values, s.triangles, s.twins()
    verts, edges, tris, cut = {start}, set(), set(), []
    stack = [[h // 3 for h in s.out_edges(start)]]
    while stack:
        for idx in stack.pop():
            if idx in tris:
                continue
            tris.add(idx)
            a, b, c = tri = triangles[idx]
            fa, fb, fc = values[a], values[b], values[c]
            if fa != level and fb != level and fc != level:
                # the corner alone on its side ends both crossing half-edges
                k = 2 if (fa < level) == (fb < level) else 1 if (fa < level) == (fc < level) else 0
                apex = tri[k]
                crossing = (3 * idx + k, 3 * idx + k - 1 if k else 3 * idx + 2)
            else:
                on = [k for k in range(3) if values[tri[k]] == level]
                for k in on:
                    if tri[k] not in verts:
                        verts.add(tri[k])
                        stack.append([h // 3 for h in s.out_edges(tri[k])])
                k = on[0]
                x, w = tri[k - 2], tri[k - 1]  # the edge opposite on[0], as x->w
                if len(on) == 2:
                    cut.append((idx, tri[3 - k - on[1]]))  # a flat segment
                    continue
                if (values[x] < level) == (values[w] < level):
                    continue  # touched at a corner
                apex, crossing = tri[k], (3 * idx + (k + 1) % 3,)
            cut.append((idx, apex))
            for h in crossing:
                x, w = tri[h % 3], tri[h % 3 - 2]
                key = (x, w) if x < w else (w, x)
                if key not in edges:
                    edges.add(key)
                    stack.append((twin[h] // 3,))
    key = ("e", *min(edges)) if edges else ("v", min(verts))
    return key, verts, cut, edges


def _contour(s: SurfaceField, rank, r: int, h: int):
    """The crossing half-edges x -> y (rank[x] <= r < rank[y]) after h on its
    contour at level r + 1/2, as (x, y, half-edge): the contour leaves
    triangle h // 3 through the twin of next(h) or of prev(h)."""
    tris, twin = s.triangles, s.twins()
    x, y = tris[h // 3][h % 3], tris[h // 3][h % 3 - 2]
    while True:
        k = h % 3
        z = tris[h // 3][k - 1]
        if rank[z] <= r:
            x = z
            h = twin[h + 1 if k < 2 else h - 2]
        else:
            y = z
            h = twin[h - 1 if k else h + 2]
        yield x, y, h


def compute_reeb(s: SurfaceField) -> ReebGraph:
    classes = vertex_classes(s)
    order, rank = s.ranks
    values, tris, fans = s.values, s.triangles, s.fans()
    n, limit = len(values), len(tris)  # no contour crosses more triangles than there are
    # never empty: the last vertex in rank order has every neighbor below it
    crit = [v for v in order if classes[v].is_critical]
    # a flat triangle at a critical level cannot be cut into level pieces;
    # report the one on the lowest such level, lowest index first
    crit_level = {x: x for x, _ in groupby(crit, key=values.__getitem__)}
    flat = min(((values[a], idx) for idx, (a, b, c) in enumerate(tris)
                if values[a] == values[b] == values[c] and values[a] in crit_level), default=None)
    if flat is not None:
        raise InputRejected("degenerate-level", f"triangle {tris[flat[1]]} lies entirely in "
                            f"critical level {format_scalar(crit_level[flat[0]])}; the tie-broken "
                            "order cannot repair a flat triangle")

    # the sweep; arc a is union-find element a, a root while the arc is open
    uf = _UnionFind(0)
    parent, find = uf.parent, uf.find
    low, high, via = [], [], []  # each arc's ends, and a lower neighbour of its upper end
    lab = [-1] * n  # the label of every upper edge of a vertex, unless moved
    moved: dict[tuple[int, int], int] = {}  # edges relabelled after their lower end

    def open_arc(v: int) -> int:
        parent.append(len(low))
        low.append(v)
        high.append(-1)
        via.append(-1)
        return len(low) - 1

    for v in order:
        r, c, fan = rank[v], classes[v], fans[v]
        if c.kind == "regular":
            for u in fan:
                if rank[u] < r:
                    break
            lab[v] = find(moved.get((u, v), lab[u]))
            continue
        if c.kind == "minimum":
            lab[v] = open_arc(v)
            continue
        below = [rank[u] < r for u in fan]
        # one edge of each lower run, or any edge at a maximum
        firsts = [u for u, b, p in zip(fan, below, below[-1:] + below[:-1]) if b and not p]
        ends = {find(moved.get((u, v), lab[u])): u for u in firsts or fan[:1]}
        for a, u in ends.items():
            if high[a] >= 0:
                raise InternalInvariantError(f"arc from vertex {low[a]} closes twice")
            high[a], via[a] = v, u
        if c.kind == "maximum":
            continue
        lab[v] = top = open_arc(v)
        for a in ends:
            parent[a] = top
        if c.multiplicity == 1 and len(ends) == 2:
            continue  # two contours joined into one
        k = below.index(True)
        runs = [list(run) for up, run in groupby(fan[k:] + fan[:k], key=lambda u: rank[u] > r)
                if up]
        start = {run[0]: i for i, run in enumerate(runs)}
        out = s.out_edges(v)  # in fan order
        walks = [_contour(s, rank, r, out[fan.index(run[-1])]) for run in runs]
        paths: list[list] = [[] for _ in runs]
        nxt: dict[int, int] = {}  # run -> the run its contour reaches next
        live = list(range(len(runs)))
        for _ in range(limit):
            for i in live:
                x, y, _ = next(walks[i])
                if x == v:
                    nxt[i] = start[y]
                else:
                    paths[i].append((x, y))
            live = [i for i in live if i not in nxt]
            if len(live) < 2:
                break
        else:
            raise InternalInvariantError(f"contour walk at saddle {v} does not close")
        for i in live:
            nxt[i] = set(range(len(runs))).difference(nxt.values()).pop()
        # the live walk's contour keeps top, every other contour is a new arc
        done: set[int] = set()
        for i in [*live, *range(len(runs))]:
            a = open_arc(v) if done and i not in done else top
            while i not in done:
                done.add(i)
                if a != top:
                    moved.update(dict.fromkeys(paths[i] + [(v, w) for w in runs[i]], a))
                i = nxt[i]
    if -1 in high:
        raise InternalInvariantError(f"arc from vertex {low[high.index(-1)]} is never closed")

    # exact nodes: the arcs with both ends at one value contracted; a
    # vertex lies on a node if its arc ends at its own value
    nodes_uf = _UnionFind(n)
    for p, q in zip(low, high):
        if values[p] == values[q]:
            nodes_uf.union(p, q)
    at = {v: nodes_uf.find(v) for v in crit}
    for v, a in enumerate(lab):
        if a >= 0 and values[v] in (values[low[a]], values[high[a]]):
            at[v] = nodes_uf.find(low[a] if values[low[a]] == values[v] else high[a])
    groups: dict[int, list[int]] = {}
    census: dict[int, int] = {}  # doubled: each vertex adds 2 - its level segments
    for v, g in at.items():
        level, fs = values[v], [values[u] for u in fans[v]]
        segments = fs.count(level) + sum(p < level < q or q < level < p
                                         for p, q in zip(fs, fs[1:] + fs[:1]))
        census[g] = census.get(g, 0) + 2 - segments
        if classes[v].is_critical:
            groups.setdefault(g, []).append(v)
    nodes, node_of = [], {}
    for level, group in groupby(crit, key=values.__getitem__):
        roots = list(dict.fromkeys(at[v] for v in group))
        if len(roots) > 1:
            roots.sort(key=lambda g: _node_component(s, level, groups[g][0])[0])
        for g in roots:
            cv = tuple(sorted(groups[g]))
            node_of[g] = len(nodes)
            nodes.append(ReebNode(len(nodes), level, tuple(sorted(classes[v].label() for v in cv)),
                                  cv, census[g] // 2, sum(classes[v].index for v in cv)))
    on_node = {v: node_of[g] for v, g in at.items()}
    ordered = [values[v] for v in order]

    def first_triangle(a: int) -> int:
        # the smallest triangle meeting the arc's edge: those its contour
        # crosses just above the lower level, and those around its
        # vertices strictly between the two levels. The contour there
        # runs through the lower edges of the arc's first vertex above
        lo, hi = values[low[a]], values[high[a]]
        r = bisect_right(ordered, lo) - 1
        above = [v for v, b in enumerate(lab) if b == a and values[v] > lo]
        w = min(above, key=rank.__getitem__, default=high[a])
        x = next(u for u in fans[w] if rank[u] < rank[w]) if above else via[a]
        h = s.half_edge(x, w)
        walk = list(islice(takewhile((x, w, h).__ne__, _contour(s, rank, r, h)), limit))
        if len(walk) == limit:
            raise InternalInvariantError(f"contour walk above vertex {low[a]} does not close")
        return min([h // 3 for _, _, h in [(x, w, h), *walk]]
                   + [g // 3 for v in above if values[v] < hi for g in s.out_edges(v)])

    ends_of: dict[tuple[int, int], list[int]] = {}
    for a, (p, q) in enumerate(zip(low, high)):
        if values[p] != values[q]:
            ends_of.setdefault((on_node[p], on_node[q]), []).append(a)
    edges, edge_of = [], {}
    # an arc closes above its low vertex in the rank order, so its ends,
    # unequal in value, make the levels of its edge increase
    for (lower, upper), arcs in sorted(ends_of.items()):
        la, lb = nodes[lower].level, nodes[upper].level
        for a in sorted(arcs, key=first_triangle) if len(arcs) > 1 else arcs:
            edge_of[a] = len(edges)
            edges.append(ReebEdge(len(edges), lower, upper, (la, lb)))

    # file each triangle by its lowest corner: under its node, else under
    # the node its arc rises to if the triangle reaches that level, else
    # in the arc's band
    node_map: dict[int, list[int]] = {nid: [] for nid in range(len(nodes))}
    band_map: dict[int, list[int]] = {eid: [] for eid in range(len(edges))}
    reach = [bisect_left(ordered, node.level) for node in nodes]  # first rank at each level
    # per vertex: the node it lies on or rises to, the rank to reach, the band
    rises = [(node_map[on_node[q]], reach[on_node[q]], band_map[edge_of[a]]) if a in edge_of
             else None for a, q in enumerate(high)]
    spot = list(map(rises.__getitem__, lab))  # a maximum's -1 is overwritten below
    for v, nid in on_node.items():
        spot[v] = (node_map[nid], 0, None)
    for idx, (a, b, c) in enumerate(tris):
        ra, rb, rc = rank[a], rank[b], rank[c]
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        filed, target, band = spot[order[rc if rc < lo else lo]]
        (filed if rc >= target or hi >= target else band).append(idx)

    g = ReebGraph(nodes, edges, {k: tuple(v) for k, v in node_map.items()},
                  {k: tuple(v) for k, v in band_map.items()},
                  surface_chi=s.vertex_count - s.triangle_count // 2)

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

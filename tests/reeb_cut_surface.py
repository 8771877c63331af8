"""Reference contour graph: node components glued into a cut surface.

``compute_reeb_cut_surface`` is the construction ``compute_reeb`` used
before the sweep in vertex order. It builds each node's whole level
component by a local traversal from its critical vertices, splits every
triangle into slabs at the node levels that cross its interior, and
glues the slabs across mesh edges into the components of the surface cut
along the node components: one graph edge each, with exactly one lower
and one upper node. Every critical contour is walked whole, so it costs
about O(m^1.5) on random fields and only serves as the oracle of the
differential tests.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, groupby
from operator import itemgetter

from krtorus.errors import InternalInvariantError
from krtorus.reeb import ReebEdge, ReebGraph, ReebNode, _UnionFind
from krtorus.surface import SurfaceField, vertex_classes
from oracles import left_triangles
from reeb_sweep import flat_triangle


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


def compute_reeb_cut_surface(s: SurfaceField) -> ReebGraph:
    classes = vertex_classes(s)
    values = s.values
    crit = sorted((v for v, c in enumerate(classes) if c.is_critical), key=values.__getitem__)
    if not crit:
        raise InternalInvariantError("closed surface field with no critical vertex")
    # a flat triangle at a critical level is rejected; report the one on
    # the lowest such level, lowest index first
    crit_level = {x: x for x, _ in groupby(crit, key=values.__getitem__)}
    flat = min(((values[a], idx) for idx, (a, b, c) in enumerate(s.triangles)
                if values[a] == values[b] == values[c] and values[a] in crit_level), default=None)
    if flat is not None:
        raise flat_triangle(s.triangles[flat[1]], crit_level[flat[0]])

    left = left_triangles(s.triangles, s.vertex_count)

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

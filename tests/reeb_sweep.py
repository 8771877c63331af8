"""Reference contour graph and level sets: the all-levels sweep.

``compute_reeb_sweep`` is the construction ``compute_reeb`` used before
it moved to node components and the cut surface. It rebuilds every
component of every critical level with ``level_sweep``, unions the
triangles of every open band between consecutive critical values, and
chains bands through the regular components they share. It costs
O(levels x triangles), so it only serves as the oracle for the
differential tests; ``level_sweep`` is also the oracle for the node
components that ``krtorus.reeb.level_structure`` reads off the graph.
"""
from __future__ import annotations

from dataclasses import dataclass

from krtorus.errors import InputRejected, InternalInvariantError
from krtorus.reeb import ReebEdge, ReebGraph, ReebNode
from krtorus.surface import SurfaceField, format_scalar, vertex_classes
from oracles import UnionFind, surface_edges, triangle_level_pieces


def flat_triangle(tri, level) -> InputRejected:
    """The package's rejection of a triangle lying entirely in a critical level."""
    return InputRejected(
        "degenerate-level",
        f"triangle {tri} lies entirely in critical level {format_scalar(level)}; "
        "the tie-broken order cannot repair a flat triangle")


@dataclass(frozen=True)
class LevelComponent:
    """One connected component of one level set, with its census data."""

    level: object
    pieces: frozenset
    segments: frozenset
    triangles: tuple[int, ...]
    critical_vertices: tuple[int, ...]

    @property
    def census_euler(self) -> int:
        return len(self.pieces) - len(self.segments)

    @property
    def is_node(self) -> bool:
        return bool(self.critical_vertices)


def level_sweep(s: SurfaceField, level, classes):
    """All components of one level set, from the pieces of every triangle.

    Returns (components, triangle_component) where triangle_component
    maps each triangle meeting the level to its component index.
    Components are ordered by their smallest piece.
    """
    segments = set()
    tri_pieces = {}
    uf = UnionFind()
    for idx, tri in enumerate(s.triangles):
        try:
            pieces = triangle_level_pieces(tri, s.values, level)
        except ValueError:
            raise flat_triangle(tri, level) from None
        if not pieces:
            continue
        tri_pieces[idx] = pieces
        if len(pieces) == 2:
            segments.add(frozenset(pieces))
        for p in pieces[1:]:
            uf.union(p, pieces[0])
    groups: dict = {}
    for pieces in tri_pieces.values():
        for p in pieces:
            groups.setdefault(uf.find(p), set()).add(p)
    roots = sorted(groups, key=lambda r: min(groups[r]))
    comp_index = {r: i for i, r in enumerate(roots)}
    triangle_component = {idx: comp_index[uf.find(pieces[0])]
                          for idx, pieces in tri_pieces.items()}
    comp_tris: list[list[int]] = [[] for _ in roots]
    for idx, ci in triangle_component.items():
        comp_tris[ci].append(idx)
    components = []
    for ci, r in enumerate(roots):
        pieces = groups[r]
        crit = tuple(sorted(p[1] for p in pieces
                            if p[0] == "v" and classes[p[1]].is_critical))
        components.append(LevelComponent(
            level=level,
            pieces=frozenset(pieces),
            segments=frozenset(sg for sg in segments if sg <= pieces),
            triangles=tuple(comp_tris[ci]),
            critical_vertices=crit))
    return components, triangle_component


def compute_reeb_sweep(s: SurfaceField) -> ReebGraph:
    classes = vertex_classes(s)
    crit = [v for v, c in enumerate(classes) if c.is_critical]
    if not crit:
        raise InternalInvariantError("closed surface field with no critical vertex")
    levels = sorted({s.values[v] for v in crit})

    per_level = []
    for c in levels:
        per_level.append(level_sweep(s, c, classes))

    # node ids in (level, component key) order
    tmin = [min(s.values[v] for v in tri) for tri in s.triangles]
    tmax = [max(s.values[v] for v in tri) for tri in s.triangles]
    nodes = []
    node_ref: dict[tuple[int, int], int] = {}
    for t, (comps, _) in enumerate(per_level):
        for ci, comp in enumerate(comps):
            if not comp.is_node:
                continue
            nid = len(nodes)
            node_ref[(t, ci)] = nid
            kinds = tuple(sorted(classes[v].label() for v in comp.critical_vertices))
            idx_sum = sum(classes[v].index for v in comp.critical_vertices)
            nodes.append(ReebNode(nid, comp.level, kinds, comp.critical_vertices,
                                  comp.census_euler, idx_sum))

    edge_tris: dict = {}
    for idx, (a, b, c) in enumerate(s.triangles):
        for u, w in ((a, b), (b, c), (c, a)):
            edge_tris.setdefault((min(u, w), max(u, w)), []).append(idx)

    # band components per critical-value gap
    band_comps = []  # (t, member triangles tuple)
    tri_bands: dict[int, list[int]] = {}
    band_sides = []  # per band comp: ((t, ci) of lower attachment, (t+1, ci) of upper)
    for t in range(len(levels) - 1):
        lo, hi = levels[t], levels[t + 1]
        members = [i for i in range(s.triangle_count)
                   if tmax[i] > lo and tmin[i] < hi]
        uf = UnionFind()
        for i in members:
            uf.find(i)
        for (u, w), tris in edge_tris.items():
            eu, ew = s.values[u], s.values[w]
            if max(eu, ew) > lo and min(eu, ew) < hi and len(tris) == 2:
                uf.union(tris[0], tris[1])
        groups: dict = {}
        for i in members:
            groups.setdefault(uf.find(i), []).append(i)
        for root in sorted(groups, key=lambda r: min(groups[r])):
            tris = tuple(sorted(groups[root]))
            bi = len(band_comps)
            band_comps.append((t, tris))
            for i in tris:
                tri_bands.setdefault(i, []).append(bi)
            lower_refs = {per_level[t][1][i] for i in tris if tmin[i] <= lo}
            upper_refs = {per_level[t + 1][1][i] for i in tris if tmax[i] >= hi}
            if len(lower_refs) != 1 or len(upper_refs) != 1:
                raise InternalInvariantError(
                    f"band component between {lo} and {hi} has ambiguous attachments")
            band_sides.append(((t, lower_refs.pop()), (t + 1, upper_refs.pop())))

    # chain bands through regular components into graph edges
    glue = UnionFind()
    reg_band_count: dict = {}
    for bi, ((lt, lc), (ut, uc)) in enumerate(band_sides):
        glue.find(("b", bi))
        for ref in ((lt, lc), (ut, uc)):
            if ref in node_ref:
                continue
            glue.union(("b", bi), ("r", ref))
            reg_band_count[ref] = reg_band_count.get(ref, 0) + 1
    for ref, count in reg_band_count.items():
        if count != 2:
            raise InternalInvariantError(
                f"regular level component {ref} does not continue on both sides")

    chains: dict = {}
    for bi in range(len(band_comps)):
        chains.setdefault(glue.find(("b", bi)), []).append(bi)
    edge_raw = []
    for bis in chains.values():
        lowers = []
        uppers = []
        for bi in bis:
            (lref, uref) = band_sides[bi]
            if lref in node_ref:
                lowers.append(node_ref[lref])
            if uref in node_ref:
                uppers.append(node_ref[uref])
        if len(lowers) != 1 or len(uppers) != 1:
            raise InternalInvariantError("contour family does not end at exactly two nodes")
        a, b = lowers[0], uppers[0]
        min_tri = min(min(band_comps[bi][1]) for bi in bis)
        edge_raw.append((a, b, min_tri, tuple(sorted(bis))))
    edge_raw.sort(key=lambda r: (r[0], r[1], r[2]))
    edges = []
    band_edge = {}
    for eid, (a, b, _, bis) in enumerate(edge_raw):
        la, lb = nodes[a].level, nodes[b].level
        if not la < lb:
            raise InternalInvariantError("edge interval is not increasing")
        edges.append(ReebEdge(eid, a, b, (la, lb)))
        for bi in bis:
            band_edge[bi] = eid

    # exclusive triangle ownership: node carriers first, then the unique edge
    tri_nodes: dict[int, list[int]] = {}
    for t, (comps, tri_comp) in enumerate(per_level):
        for idx, ci in tri_comp.items():
            if (t, ci) in node_ref:
                tri_nodes.setdefault(idx, []).append(node_ref[(t, ci)])
    node_map: dict[int, list[int]] = {n.id: [] for n in nodes}
    band_map: dict[int, list[int]] = {e.id: [] for e in edges}
    for idx in range(s.triangle_count):
        if idx in tri_nodes:
            node_map[min(tri_nodes[idx])].append(idx)
            continue
        owners = {band_edge[bi] for bi in tri_bands.get(idx, [])}
        if len(owners) != 1:
            raise InternalInvariantError(f"triangle {idx} is not owned by exactly one edge")
        band_map[owners.pop()].append(idx)

    g = ReebGraph(nodes,
                  edges,
                  {k: tuple(v) for k, v in node_map.items()},
                  {k: tuple(v) for k, v in band_map.items()},
                  surface_chi=s.vertex_count - len(surface_edges(s.triangles)) + s.triangle_count)

    uf = UnionFind()
    for n in g.nodes:
        uf.find(n.id)
    for e in g.edges:
        uf.union(e.lower, e.upper)
    if len({uf.find(n.id) for n in g.nodes}) != 1:
        raise InternalInvariantError("graph is disconnected for a connected surface")
    if sum(n.census_euler for n in g.nodes) != g.surface_chi:
        raise InternalInvariantError("node census does not add up to the surface Euler number")
    if sum(n.index_sum for n in g.nodes) != g.surface_chi:
        raise InternalInvariantError("index sum does not add up to the surface Euler number")
    return g

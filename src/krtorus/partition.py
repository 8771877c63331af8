"""Cell partition of the torus induced by one critical level component.

The chosen component V (with its critical vertices as 0-cells and its
maximal arcs as 1-cells) cuts the surface into open 2-cells, one per
branch of the graph at the chosen vertex. The triangulation is refined
so that V becomes a subcomplex: every contour segment inside a triangle
turns into real edges, crossing points on straddled edges become new
vertices at the critical level.

V is not swept again: ``reeb.level_structure`` walks V alone, from its
first critical vertex, for its on-level vertices, the edges it crosses
(one new vertex each) and the triangles it crosses or runs along, each
with its apex, the corner V separates from the other two. Only those
triangles are cut, from the apex and the corner values alone.
Full-edge segments (both endpoints on the level) do occur in the model
fields and are handled as first-class V-edges, not as an error case.

The 2-cells are read off the graph: each branch at the chosen vertex
owns what ``compute_reeb`` files under its nodes and edges. Only V's
carrier (what is filed under V, and the triangles V crosses or runs
along) is glued, across edges off V, to itself and to the owners on the
other side. Each class of that gluing is a region, matched to a branch
by its critical vertices; on coarse samples it may hold pieces alone.

Only the pieces get a directed-edge map, which also holds the untouched
side of each seam (an edge between one of V's triangles and an untouched
one), read off the twins of the cut triangles' half-edges. Repeated
directed edges and edges with one triangle are checked on the pieces and
their seams only: validation and the fan swings of the half-edge table
proved the untouched triangles closed and consistently oriented, and a
piece edge between two original vertices is an edge of its own
triangle. A region's boundary walk turns around each vertex of V on
this map, and on the half-edge table off it, one triangle at a time to
the next edge of V: the "next edge around a vertex" step of a
doubly-connected edge list. No fan at V is walked whole. V's arcs are
not traced apart: the walks cut at the 0-cells are the 1-cells, each
met once in each direction, and a 2-cell's pieces are its signed
boundary, as a face's edges are read off its boundary cycle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress, filterfalse

from .errors import InputRejected, InternalInvariantError
# chain_homology stays bound here because bench/tracer.py wraps this binding
from .homology import chain_homology, tree_cotree  # noqa: F401
from .reeb import ReebGraph, _UnionFind, level_structure
from .surface import SurfaceField, vertex_classes


@dataclass(frozen=True)
class OneCell:
    """A maximal arc of V between 0-cells, by number; loops have tail == head."""

    id: int
    tail: int
    head: int
    path: tuple[int, ...]  # refined vertex ids, from zero_cells[tail] to zero_cells[head]


@dataclass(frozen=True)
class TwoCell:
    """An open disk of the complement, tied to one branch of the graph."""

    id: int
    level_signature: tuple
    boundary: tuple[tuple[int, int], ...]  # (one-cell id, +-1) in walk order
    boundary_vertices: tuple[int, ...]  # refined vertex cycle under the walk
    refined_triangles: tuple[int, ...]


@dataclass(frozen=True)
class CellPartition:
    """The cells of the torus cut along V; a 0-cell's number is its place in zero_cells."""

    level: object
    zero_cells: tuple[int, ...]  # V's critical vertices, sorted
    zero_labels: tuple[str, ...]  # each 0-cell's VertexClass.label()
    one_cells: tuple[OneCell, ...]
    two_cells: tuple[TwoCell, ...]
    sides: tuple  # per arc, its two (2-cell, walk position, sign) uses from tree_cotree, +1 first
    # H1 = Z^2: gamma_j is the cycle of leftover arc j closed up in the
    # spanning tree, as (arc id, +-1) pairs; cocycle phi_i reads 1 on
    # gamma_i and 0 on gamma_j (one integer per arc)
    cycles: tuple[tuple[tuple[int, int], ...], ...]
    cocycles: tuple[tuple[int, ...], ...]
    # refined complex data, used by disk extraction
    refined_values: tuple
    refined_triangles: tuple[tuple[int, int, int], ...]
    refined_coords: tuple | None


def _norm(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


def build_partition(s: SurfaceField, g: ReebGraph, node_id: int) -> CellPartition:
    classes = vertex_classes(s)
    node = g.nodes[node_id]
    level = node.level
    verts, cut, xlist = level_structure(s, g, node_id)
    if tuple(v for v in verts if classes[v].is_critical) != node.critical_vertices:
        raise InternalInvariantError(
            f"level component of node {node_id} does not hold exactly its critical vertices")

    vset = set(verts)
    nv = s.vertex_count
    xid = {e: nv + k for k, e in enumerate(xlist)}

    # the apex is on the level and the level crosses the edge opposite it,
    # or the level runs along that edge, or it crosses both edges at the apex
    split: dict[int, list[tuple[int, int, int]]] = {}  # V's triangles cut into pieces
    vedges: set[tuple[int, int]] = set()
    for idx, apex in cut:
        tri = s.triangles[idx]
        p_, q_ = tri[tri.index(apex) - 2], tri[tri.index(apex) - 1]  # the corners after it
        if s.values[apex] == level:
            x = xid[_norm(p_, q_)]
            split[idx] = [(apex, p_, x), (apex, x, q_)]
            vedges.add(_norm(apex, x))
        elif s.values[p_] == level:
            vedges.add(_norm(p_, q_))
            split[idx] = [tri]
        else:
            x1, x2 = xid[_norm(apex, p_)], xid[_norm(apex, q_)]
            split[idx] = [(apex, x1, x2), (x1, p_, q_), (x1, q_, x2)]
            vedges.add(_norm(x1, x2))
    # the untouched triangles are copied in slices between V's triangles
    nt = s.triangle_count
    # first: the first refined index of each original triangle, then the end
    refined, parent, first, done = [], [], [], 0
    for idx, pieces in split.items():  # in index order
        first += range(len(refined), len(refined) + idx - done + 1)
        refined += s.triangles[done:idx]
        refined += pieces
        parent += range(done, idx)
        parent += [idx] * len(pieces)
        done = idx + 1
    first += range(len(refined), len(refined) + nt - done + 1)
    refined += s.triangles[done:]
    parent += range(done, nt)

    vv = vset | set(xid.values())
    refined_values = list(s.values) + [level] * len(xlist)
    refined_coords = None
    if s.coords is not None:
        ext = []
        for (u, w) in xlist:
            fu, fw = s.values[u], s.values[w]
            t = float(level - fu) / float(fw - fu)
            ext.append(tuple(cu + t * (cw - cu)
                             for cu, cw in zip(s.coords[u], s.coords[w])))
        refined_coords = s.coords + tuple(ext)

    # each branch owns what the graph files under its nodes and edges; V's
    # carrier is what it files under V and the triangles V crosses or runs along
    branches = g.branches_at(node_id)
    nb = len(branches)
    owned = [list(chain.from_iterable([g.node_map[w] for w in br.nodes] + [
        g.band_map[e] for e in dict.fromkeys(chain.from_iterable(map(g.edges_at, br.nodes)))]))
        for br in branches] + [g.node_map[node_id]]
    owner: list = [None] * nt  # the branch of each triangle, nb in the carrier
    for bi, ts in enumerate(owned):
        for t in ts:
            owner[t] = bi
    if sum(map(len, owned)) != nt or None in owner:
        raise InternalInvariantError("the graph does not file every triangle exactly once")
    for t in split:
        owner[t] = nb

    # refined topology: a directed-edge map of V's pieces and their seams
    twin = s.twins()
    directed_tri: dict[tuple[int, int], int] = {}
    for idx in split:
        tri = s.triangles[idx]
        for k in range(3):
            if (o := twin[3 * idx + k] // 3) not in split:
                directed_tri[(tri[k - 2], tri[k])] = first[o]
    for idx in split:
        for ti in range(first[idx], first[idx + 1]):
            a, b, c = refined[ti]
            for x, y in ((a, b), (b, c), (c, a)):
                if (x, y) in directed_tri:
                    raise InternalInvariantError("refined complex repeats a directed edge")
                directed_tri[(x, y)] = ti
    # glue the carrier across its edges off V: a carrier triangle to itself,
    # an owned one to its branch's unit, numbered after the refined triangles
    nr = len(refined)
    ruf = _UnionFind(nr + nb)

    def unit(ti: int) -> int:
        return ti if owner[parent[ti]] == nb else nr + owner[parent[ti]]

    for (x, y), ti in directed_tri.items():
        other = directed_tri.get((y, x))
        if other is None:
            raise InternalInvariantError(
                f"refined edge {_norm(x, y)} is not shared by two triangles")
        if x < y and (x, y) not in vedges:
            ruf.union(unit(ti), unit(other))
    for t in owned[nb]:
        if t not in split:
            for h in range(3 * t, 3 * t + 3):
                if (o := twin[h] // 3) not in split:
                    ruf.union(first[t], unit(first[o]))

    # complement regions: the classes of the gluing, a unit with the
    # carrier pieces glued to it, or pieces alone where the branch owns no
    # triangle off the carrier; numbered by their smallest refined triangle
    members: dict[int, list[int]] = {}
    for t in sorted(set(owned[nb]).union(split)):
        for ti in range(first[t], first[t + 1]):
            members.setdefault(ruf.find(ti), []).append(ti)
    roots = [ruf.find(nr + bi) for bi in range(nb)]
    if len(set(roots)) != nb:
        raise InternalInvariantError(f"two branches at node {node_id} share a region")
    for bi, root in enumerate(roots):
        kept = compress(owned[bi], map(bi.__eq__, map(owner.__getitem__, owned[bi])))
        members[root] = sorted(chain(members.get(root, ()), map(first.__getitem__, kept)))
    regions = sorted(((root, rt) for root, rt in members.items() if rt), key=lambda kv: kv[1][0])
    region_id = {root: rid for rid, (root, _) in enumerate(regions)}
    region_tris = [rt for _, rt in regions]
    n_regions = len(region_tris)
    # the darts of V, each on the side of the region to its left
    region_darts: list[set[tuple[int, int]]] = [set() for _ in range(n_regions)]
    for (u, w) in vedges:
        for dart in ((u, w), (w, u)):
            region_darts[region_id[ruf.find(directed_tri[dart])]].add(dart)

    # match regions to branches through the critical vertices they contain
    branch_crit = [frozenset(v for w in br.nodes
                             for v in g.nodes[w].critical_vertices)
                   for br in branches]
    region_verts = [set(filterfalse(vv.__contains__, chain.from_iterable(
        map(refined.__getitem__, rt)))) for rt in region_tris]
    # every vertex off V is in some region, so a larger count puts one in two
    if sum(map(len, region_verts)) != nv - len(vset):
        u = min(u for a, b in combinations(region_verts, 2) for u in a & b)
        raise InternalInvariantError(f"vertex {u} lies in two regions")
    crit_off_v = frozenset().union(*branch_crit)
    region_crit = [crit_off_v & vs for vs in region_verts]  # frozensets, to look up below
    if len(branches) != n_regions:
        raise InternalInvariantError(
            f"{n_regions} regions for {len(branches)} branches at node {node_id}")
    crit_branches: dict[frozenset, list[int]] = {}
    for bi, bc in enumerate(branch_crit):
        crit_branches.setdefault(bc, []).append(bi)
    # region -> branch is a bijection: there are nb regions, and disjoint regions
    # hold disjoint, non-empty sets of criticals (every node has one)
    cell_region = [None] * nb
    for rid, crit in enumerate(region_crit):
        hits = crit_branches.get(crit, [])
        if len(hits) != 1:
            raise InternalInvariantError(
                f"region {rid} does not match exactly one branch (criticals {sorted(crit)})")
        cell_region[hits[0]] = rid
    for bi, root in enumerate(roots):
        if region_id.get(root, cell_region[bi]) != cell_region[bi]:
            raise InternalInvariantError(
                f"branch {bi} owns triangles off its region {cell_region[bi]}")

    # census Euler characteristic of each open region must be 1; the darts
    # of its triangles not on V pair up into its open edges
    for rid in range(n_regions):
        n_tris = len(region_tris[rid])
        chi = len(region_verts[rid]) - (3 * n_tris - len(region_darts[rid])) // 2 + n_tris
        if chi != 1:
            raise InternalInvariantError(
                f"region {rid} has open Euler characteristic {chi}, not a disk")
    del owned, owner, region_verts  # per-triangle and per-vertex state, no longer read

    zero_cells = tuple(sorted(node.critical_vertices))
    number = {v: i for i, v in enumerate(zero_cells)}  # the one 0-cell numbering
    # A disagreement between the tie-broken classification and the exact
    # level geometry means value ties collapsed or split level rays; the
    # sample is too coarse, so reject it rather than flag an internal bug.
    # A 0-cell extremum has a ray: V gains each vertex but its start by a
    # flat segment or a crossed triangle at it, and a start with neither is V
    # alone, whose region (the torus less a point) failed the Euler check
    degree = Counter(chain.from_iterable(vedges))
    for w in vv:
        deg = degree[w]
        if w in number:
            kind = classes[w]
            if kind.kind == "saddle" and deg != 2 * (kind.multiplicity + 1):
                raise InputRejected(
                    "degenerate-level",
                    f"saddle {w} has {deg} exact level rays where the tie-broken "
                    f"order predicts {2 * (kind.multiplicity + 1)}; the sample is "
                    "too degenerate at its critical level")
        elif deg != 2:
            raise InputRejected(
                "degenerate-level",
                f"on-level vertex {w} has {deg} exact level rays where a regular "
                "point has 2; the sample is too degenerate at its critical level")

    def turn(x: int, w: int) -> int:
        """The third corner of the refined triangle left of x->w."""
        ti = directed_tri.get((x, w))  # a piece or a seam, else an untouched triangle
        return sum(refined[ti] if ti is not None else s.triangles[s.half_edge(x, w) // 3]) - x - w

    # boundary walk of each region, region kept on the left: a step u->w
    # turns around w, one refined triangle at a time, to the next edge of V.
    # Each refined dart has one triangle on its left (the repeated-edge check
    # on the pieces, the twin table elsewhere) and each refined edge one on
    # either side (the shared-edge check on pieces and seams, closed fans
    # elsewhere), so the turn permutes w's neighbours and stops at u at the
    # latest, since w-u is on V. The reverse turn undoes a step, so steps
    # permute V's darts; inside an arc the turn follows the arc. The turn
    # crosses only edges w-z with z off V (V holds its on-level neighbours and,
    # as flat critical triangles are rejected, every edge between two of its
    # vertices), and z lies in one region, so a walk keeps to its region. Cut
    # along V, a region is an orientable surface with its walks as boundary:
    # a disk with one walk by its Euler characteristic if it is connected,
    # which a graph with too few branches at the node breaks. A region with no
    # dart meets no edge of V, so V, connected, is one vertex: an extremum at a
    # leaf, as a saddle with no ray failed the ray count. Its one region, the
    # surface less a point, passed the open Euler check with 1: chi is 2
    def walk(rid: int) -> list[tuple[int, int]]:
        darts = region_darts[rid]
        if not darts:
            raise InputRejected("not-a-torus", f"node {node_id} is a lone extremum, so the "
                                "surface has Euler characteristic 2, not 0", chi=2)
        cycle = [min(darts)]
        while True:
            u, w = cycle[-1]
            z = turn(u, w)
            while _norm(w, z) not in vedges:
                z = turn(z, w)
            if (w, z) == cycle[0]:
                break
            cycle.append((w, z))
        if len(cycle) != len(darts):
            raise InternalInvariantError(
                f"region {rid} boundary is not a single closed walk")
        return cycle

    # the 1-cells are the walks cut at the 0-cells. The region darts split
    # V's darts and each walk covers its region's darts, so the cut meets
    # each arc once in each direction. V is connected and holds a 0-cell,
    # and its other vertices have two rays, so every walk passes a 0-cell
    walks, pieces = [], []
    for bi in range(nb):
        cycle = walk(cell_region[bi])
        k = next(i for i, (u, _) in enumerate(cycle) if u in number)
        paths: list[list[int]] = []
        for u, w in cycle[k:] + cycle[:k]:
            if u in number:
                paths.append([u])
            paths[-1].append(w)
        walks.append(tuple(u for u, _ in cycle))
        pieces.append(list(map(tuple, paths)))
    canon_paths = sorted({min(q, q[::-1]) for q in chain.from_iterable(pieces)})
    one_cells = tuple(OneCell(i, number[q[0]], number[q[-1]], q) for i, q in enumerate(canon_paths))
    arc_id = {q: i for i, q in enumerate(canon_paths)}
    two_cells = [TwoCell(
        id=bi,
        level_signature=br.signature,
        boundary=tuple((arc_id[q], 1) if q in arc_id else (arc_id[q[::-1]], -1)
                       for q in pieces[bi]),
        boundary_vertices=walks[bi],
        refined_triangles=tuple(region_tris[cell_region[bi]]))
        for bi, br in enumerate(branches)]
    cycles, cocycles, sides = tree_cotree(zero_cells, one_cells, [c.boundary for c in two_cells])
    return CellPartition(
        level=level,
        zero_cells=zero_cells,
        zero_labels=tuple(classes[v].label() for v in zero_cells),
        one_cells=one_cells,
        two_cells=tuple(two_cells),
        sides=sides,
        cycles=cycles,
        cocycles=cocycles,
        refined_values=tuple(refined_values),
        refined_triangles=tuple(refined),
        refined_coords=refined_coords)

"""Cell partition of the torus induced by one critical level component.

The chosen component V (with its critical vertices as 0-cells and its
maximal arcs as 1-cells) cuts the surface into open 2-cells, one per
branch of the graph at the chosen vertex. The triangulation is refined
so that V becomes a subcomplex: every contour segment inside a triangle
turns into real edges, crossing points on straddled edges become new
vertices at the critical level.

V is not swept again: ``reeb.level_structure`` reads its on-level
vertices and the triangles it crosses or runs along off the cut maps
that ``compute_reeb`` keeps, and only those triangles are cut into
level pieces. Full-edge segments (both endpoints on the level) do occur
in the model fields and are handled as first-class V-edges, not as an
error case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputRejected, InternalInvariantError
# chain_homology stays bound here because bench/tracer.py wraps this binding
from .homology import IntMatrix, _ChainBasis, cellular_homology, chain_homology  # noqa: F401
from .reeb import Branch, ReebGraph, _UnionFind, level_structure, triangle_level_pieces
from .surface import SurfaceField, vertex_classes


@dataclass(frozen=True)
class OneCell:
    """A maximal arc of V between critical vertices; loops have tail == head."""

    id: int
    tail: int
    head: int
    path: tuple[int, ...]  # refined vertex ids, tail first

    @property
    def edge_count(self) -> int:
        return len(self.path) - 1


@dataclass(frozen=True)
class TwoCell:
    """An open disk of the complement, tied to one branch of the graph."""

    id: int
    level_signature: tuple
    boundary: tuple[tuple[int, int], ...]  # (one-cell id, +-1) in walk order
    boundary_vertices: tuple[int, ...]  # refined vertex cycle under the walk
    support: tuple[int, ...]  # original triangles meeting the closed cell
    refined_triangles: tuple[int, ...]


@dataclass(frozen=True)
class CellPartition:
    node: int
    level: object
    zero_cells: tuple[int, ...]
    one_cells: tuple[OneCell, ...]
    two_cells: tuple[TwoCell, ...]
    boundary_1: IntMatrix
    boundary_2: IntMatrix
    # refined complex data, used by disk extraction
    refined_values: tuple
    refined_triangles: tuple[tuple[int, int, int], ...]
    refined_parent: tuple[int, ...]
    refined_coords: tuple | None
    vertex_sources: tuple  # ("v", id) for originals, ("x", u, w) for crossings

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.zero_cells), len(self.one_cells), len(self.two_cells))

    @cached_property
    def chain_basis(self) -> _ChainBasis:
        """Smith bases of the boundary matrices; the homology check and h1_action share it."""
        return _ChainBasis(self.boundary_1, self.boundary_2)


def branch_signature(g: ReebGraph, node_id: int, branch: Branch) -> tuple:
    """Canonical rooted form of a branch subtree, labeled by levels and kinds.

    Equal signatures mean the branches look identical to any level
    preserving symmetry; the signature is the f-data attached to 2-cells.
    """
    eid = branch.root_edges[0]
    e = g.edge(eid)
    root = e.upper if e.lower == node_id else e.lower
    side = "up" if e.lower == node_id else "down"

    # (node, edge it is reached by) in breadth-first order from the root;
    # the forms are built in reverse, so children come before parents and
    # the depth of the tree never reaches the interpreter stack
    order = [(root, eid)]
    seen = {node_id, root}
    for w, via in order:
        for eid2 in g.edges_at(w):
            if eid2 != via:
                e2 = g.edge(eid2)
                other = e2.upper if e2.lower == w else e2.lower
                if other in seen:
                    raise InternalInvariantError(f"branch at node {node_id} is not a tree")
                seen.add(other)
                order.append((other, eid2))
    form: dict[int, tuple] = {}  # edge -> canonical form of the subtree it reaches
    for w, via in reversed(order):
        subs = []
        for eid2 in g.edges_at(w):
            if eid2 != via:
                direction = "up" if g.edge(eid2).lower == w else "down"
                subs.append((direction, form.pop(eid2)))
        node = g.node(w)
        form[via] = (node.level, node.kinds, tuple(sorted(subs)))
    return (side, form[eid])


def _norm(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


def build_partition(s: SurfaceField, g: ReebGraph, node_id: int) -> CellPartition:
    classes = vertex_classes(s)
    node = g.node(node_id)
    level = node.level
    verts, tris = level_structure(s, g, node_id)
    if tuple(v for v in verts if classes[v].is_critical) != node.critical_vertices:
        raise InternalInvariantError(
            f"level component of node {node_id} does not hold exactly its critical vertices")
    tri_pieces = {idx: triangle_level_pieces(s, s.triangles[idx], level) for idx in tris}

    vset = set(verts)
    xlist = sorted({(p[1], p[2]) for pieces in tri_pieces.values() for p in pieces
                    if p[0] == "e"})
    nv = s.vertex_count
    xid = {e: nv + k for k, e in enumerate(xlist)}

    refined: list[tuple[int, int, int]] = []
    parent: list[int] = []
    vedges: set[tuple[int, int]] = set()
    for idx, tri in enumerate(s.triangles):
        pieces = tri_pieces.get(idx)
        if pieces is None:
            refined.append(tri)
            parent.append(idx)
            continue
        vparts = [p for p in pieces if p[0] == "v"]
        eparts = [(p[1], p[2]) for p in pieces if p[0] == "e"]
        if len(vparts) == 2 and not eparts:
            u, w = vparts[0][1], vparts[1][1]
            vedges.add(_norm(u, w))
            refined.append(tri)
            parent.append(idx)
        elif len(vparts) == 1 and len(eparts) == 1:
            v0 = vparts[0][1]
            e = eparts[0]
            x = xid[e]
            a, b, c = tri
            if a == v0:
                p_, q_ = b, c
            elif b == v0:
                p_, q_ = c, a
            else:
                p_, q_ = a, b
            if {p_, q_} != set(e):
                raise InternalInvariantError("crossing edge is not opposite the on-level corner")
            refined.append((v0, p_, x))
            refined.append((v0, x, q_))
            parent.extend((idx, idx))
            vedges.add(_norm(v0, x))
        elif len(eparts) == 2 and not vparts:
            shared = set(eparts[0]) & set(eparts[1])
            if len(shared) != 1:
                raise InternalInvariantError("crossing edges do not share one corner")
            a0 = shared.pop()
            a, b, c = tri
            if a == a0:
                p_, q_ = b, c
            elif b == a0:
                p_, q_ = c, a
            else:
                p_, q_ = a, b
            x1 = xid[_norm(a0, p_)]
            x2 = xid[_norm(a0, q_)]
            refined.append((a0, x1, x2))
            refined.append((x1, p_, q_))
            refined.append((x1, q_, x2))
            parent.extend((idx, idx, idx))
            vedges.add(_norm(x1, x2))
        else:
            raise InternalInvariantError(f"unexpected level piece pattern in triangle {tri}")

    vv = vset | set(xid.values())
    refined_values = list(s.values) + [level] * len(xlist)
    vertex_sources = tuple([("v", v) for v in range(nv)]
                           + [("x", u, w) for (u, w) in xlist])
    refined_coords = None
    if s.coords is not None:
        ext = []
        for (u, w) in xlist:
            fu, fw = s.values[u], s.values[w]
            t = float(level - fu) / float(fw - fu)
            ext.append(tuple(cu + t * (cw - cu)
                             for cu, cw in zip(s.coords[u], s.coords[w])))
        refined_coords = s.coords + tuple(ext)

    # refined topology
    directed_tri: dict[tuple[int, int], int] = {}
    succ: dict[int, dict[int, int]] = {}
    for ti, (a, b, c) in enumerate(refined):
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if (x, y) in directed_tri:
                raise InternalInvariantError("refined complex repeats a directed edge")
            directed_tri[(x, y)] = ti
            if x in vv:
                succ.setdefault(x, {})[y] = z
    # each edge, smaller end first, with the triangles on its two sides
    edge_tris: dict[tuple[int, int], tuple[int, int]] = {}
    for (x, y), ti in directed_tri.items():
        other = directed_tri.get((y, x))
        if other is None:
            raise InternalInvariantError(
                f"refined edge {_norm(x, y)} is not shared by two triangles")
        if x < y:
            edge_tris[(x, y)] = (ti, other)

    fan_of: dict[int, tuple[int, ...]] = {}
    for w in vv:
        d = succ[w]
        start = min(d)
        cyc = [start]
        cur = d[start]
        while cur != start:
            cyc.append(cur)
            if len(cyc) > len(d):
                raise InternalInvariantError(f"refined fan at {w} does not close")
            cur = d[cur]
        if len(cyc) != len(d):
            raise InternalInvariantError(f"refined fan at {w} is not a single cycle")
        fan_of[w] = tuple(cyc)

    # complement regions: glue refined triangles across non-V edges
    ruf = _UnionFind(len(refined))
    for key, (t1, t2) in edge_tris.items():
        if key not in vedges:
            ruf.union(t1, t2)
    # regions are numbered by their smallest refined triangle
    region_ids: dict[int, int] = {}
    region_of: list[int] = []
    region_tris: list[list[int]] = []
    for ti in range(len(refined)):
        rid = region_ids.setdefault(ruf.find(ti), len(region_tris))
        if rid == len(region_tris):
            region_tris.append([])
        region_of.append(rid)
        region_tris[rid].append(ti)
    n_regions = len(region_tris)

    # match regions to branches through the critical vertices they contain
    branches = g.branches_at(node_id)
    branch_crit = [frozenset(v for w in br.nodes
                             for v in g.nodes[w].critical_vertices)
                   for br in branches]
    region_vertex: dict[int, int] = {}
    for ti, tri in enumerate(refined):
        for u in tri:
            if u not in vv:
                prev = region_vertex.get(u)
                if prev is None:
                    region_vertex[u] = region_of[ti]
                elif prev != region_of[ti]:
                    raise InternalInvariantError(f"vertex {u} lies in two regions")
    region_crit: list[set[int]] = [set() for _ in range(n_regions)]
    for u, rid in region_vertex.items():
        if u < nv and classes[u].is_critical:
            region_crit[rid].add(u)
    if len(branches) != n_regions:
        raise InternalInvariantError(
            f"{n_regions} regions for {len(branches)} branches at node {node_id}")
    region_branch = [None] * n_regions
    for rid, crit in enumerate(region_crit):
        hits = [bi for bi, bc in enumerate(branch_crit) if bc == crit]
        if len(hits) != 1:
            raise InternalInvariantError(
                f"region {rid} does not match exactly one branch (criticals {sorted(crit)})")
        region_branch[rid] = hits[0]
    if sorted(region_branch) != list(range(len(branches))):
        raise InternalInvariantError("region/branch matching is not a bijection")
    cell_region = [region_branch.index(bi) for bi in range(len(branches))]

    # census Euler characteristic of each open region must be 1
    region_edge_count = [0] * n_regions
    for key, (t1, t2) in edge_tris.items():
        if key in vedges:
            continue
        if region_of[t1] != region_of[t2]:
            raise InternalInvariantError("non-V edge separates two regions")
        region_edge_count[region_of[t1]] += 1
    region_vert_count = [0] * n_regions
    for u, rid in region_vertex.items():
        region_vert_count[rid] += 1
    for rid in range(n_regions):
        chi = region_vert_count[rid] - region_edge_count[rid] + len(region_tris[rid])
        if chi != 1:
            raise InternalInvariantError(
                f"region {rid} has open Euler characteristic {chi}, not a disk")

    # V as a graph: arcs between critical vertices
    vadj: dict[int, set[int]] = {w: set() for w in vv}
    for (u, w) in vedges:
        vadj[u].add(w)
        vadj[w].add(u)
    zero_cells = tuple(sorted(node.critical_vertices))
    zset = set(zero_cells)
    # A disagreement between the tie-broken classification and the exact
    # level geometry means value ties collapsed or split level rays; the
    # sample is too coarse, so reject it rather than flag an internal bug.
    for w in vv:
        deg = len(vadj[w])
        if w in zset:
            kind = classes[w]
            if kind.kind == "saddle" and deg != 2 * (kind.multiplicity + 1):
                raise InputRejected(
                    "degenerate-level",
                    f"saddle {w} has {deg} exact level rays where the tie-broken "
                    f"order predicts {2 * (kind.multiplicity + 1)}; the sample is "
                    "too degenerate at its critical level")
            if deg < 1:
                raise InputRejected(
                    "degenerate-level",
                    f"critical vertex {w} is isolated in its exact level set; "
                    "the sample is too degenerate at its critical level")
        elif deg != 2:
            raise InputRejected(
                "degenerate-level",
                f"on-level vertex {w} has {deg} exact level rays where a regular "
                "point has 2; the sample is too degenerate at its critical level")

    visited: set[tuple[int, int]] = set()
    raw_paths: list[tuple[int, ...]] = []
    for z in zero_cells:
        for nb in sorted(vadj[z]):
            if _norm(z, nb) in visited:
                continue
            path = [z, nb]
            visited.add(_norm(z, nb))
            while path[-1] not in zset:
                cur, prev = path[-1], path[-2]
                nxt = next(x for x in vadj[cur] if x != prev)
                path.append(nxt)
                visited.add(_norm(cur, nxt))
            raw_paths.append(tuple(path))
    if len(visited) != len(vedges):
        raise InternalInvariantError(
            "V contains a contour cycle without critical vertices")

    canon_paths = sorted(min(p, tuple(reversed(p))) for p in raw_paths)
    one_cells = tuple(OneCell(i, p[0], p[-1], p) for i, p in enumerate(canon_paths))
    dart_info: dict[tuple[int, int], tuple[int, int, int]] = {}
    for cell in one_cells:
        p = cell.path
        for t in range(len(p) - 1):
            dart_info[(p[t], p[t + 1])] = (cell.id, 1, t)
            dart_info[(p[t + 1], p[t])] = (cell.id, -1, t)

    zc_index = {v: i for i, v in enumerate(zero_cells)}
    d1 = [[0] * len(one_cells) for _ in zero_cells]
    for cell in one_cells:
        d1[zc_index[cell.head]][cell.id] += 1
        d1[zc_index[cell.tail]][cell.id] -= 1
    boundary_1 = IntMatrix.from_rows(d1, cols=len(one_cells))

    # boundary walk of each region, region kept on the left
    region_darts: list[set[tuple[int, int]]] = [set() for _ in range(n_regions)]
    for (u, w) in vedges:
        for dart in ((u, w), (w, u)):
            region_darts[region_of[directed_tri[dart]]].add(dart)

    def walk(rid: int) -> list[tuple[int, int]]:
        darts = region_darts[rid]
        start = min(darts)
        cycle = [start]
        used = {start}
        cur = start
        while True:
            u, w = cur
            fan = fan_of[w]
            i = fan.index(u)
            nxt = None
            for off in range(1, len(fan) + 1):
                z = fan[(i - off) % len(fan)]
                if _norm(w, z) in vedges:
                    nxt = (w, z)
                    break
            if nxt is None or nxt not in darts:
                raise InternalInvariantError(f"boundary walk left region {rid}")
            if nxt == start:
                break
            if nxt in used:
                raise InternalInvariantError(f"boundary walk stalled in region {rid}")
            cycle.append(nxt)
            used.add(nxt)
            cur = nxt
        if len(cycle) != len(darts):
            raise InternalInvariantError(
                f"region {rid} boundary is not a single closed walk")
        return cycle

    arc_len = {c.id: c.edge_count for c in one_cells}

    def to_items(cycle: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        def is_start(dart):
            aid, sign, pos = dart_info[dart]
            return pos == 0 if sign > 0 else pos == arc_len[aid] - 1

        k = next(i for i, d in enumerate(cycle) if is_start(d))
        cyc = cycle[k:] + cycle[:k]
        items = []
        i = 0
        while i < len(cyc):
            aid, sign, _ = dart_info[cyc[i]]
            ln = arc_len[aid]
            for t in range(ln):
                a2, s2, p2 = dart_info[cyc[i + t]]
                want = t if sign > 0 else ln - 1 - t
                if a2 != aid or s2 != sign or p2 != want:
                    raise InternalInvariantError("boundary walk enters an arc mid-way")
            items.append((aid, sign))
            i += ln
        return tuple(items)

    two_cells = []
    d2 = [[0] * len(branches) for _ in one_cells]
    arc_uses = {c.id: 0 for c in one_cells}
    for cell_id, br in enumerate(branches):
        rid = cell_region[cell_id]
        cycle = walk(rid)
        items = to_items(cycle)
        for aid, sign in items:
            d2[aid][cell_id] += sign
            arc_uses[aid] += 1
        two_cells.append(TwoCell(
            id=cell_id,
            level_signature=branch_signature(g, node_id, br),
            boundary=items,
            boundary_vertices=tuple(d[0] for d in cycle),
            support=tuple(sorted({parent[ti] for ti in region_tris[rid]})),
            refined_triangles=tuple(region_tris[rid])))
    for aid, uses in arc_uses.items():
        if uses != 2:
            raise InternalInvariantError(f"arc {aid} is traversed {uses} times, expected 2")
    boundary_2 = IntMatrix.from_rows(d2, cols=len(branches))

    prod = boundary_1 @ boundary_2
    if any(x for row in prod.entries for x in row):
        raise InternalInvariantError("boundary of a boundary is nonzero")
    n0, n1, n2 = len(zero_cells), len(one_cells), len(two_cells)
    if n0 - n1 + n2 != 0:
        raise InternalInvariantError(f"alternating cell count {n0 - n1 + n2} is not zero")
    if n2 != g.degree(node_id):
        raise InternalInvariantError("two-cell count differs from the vertex degree")
    p = CellPartition(
        node=node_id,
        level=level,
        zero_cells=zero_cells,
        one_cells=one_cells,
        two_cells=tuple(two_cells),
        boundary_1=boundary_1,
        boundary_2=boundary_2,
        refined_values=tuple(refined_values),
        refined_triangles=tuple(refined),
        refined_parent=tuple(parent),
        refined_coords=refined_coords,
        vertex_sources=vertex_sources)
    # builds the chain basis that h1_action reads later
    summary = cellular_homology(p)
    if summary.betti != (1, 2, 1) or any(summary.torsion):
        raise InternalInvariantError(
            f"partition homology {summary.betti} torsion {summary.torsion}, expected torus")
    return p

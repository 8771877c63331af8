"""Cell partition of the torus induced by one critical level component.

The chosen component V (with its critical vertices as 0-cells and its
maximal arcs as 1-cells) cuts the surface into open 2-cells, one per
branch of the graph at the chosen vertex. The triangulation is refined
so that V becomes a subcomplex: every contour segment inside a triangle
turns into real edges, crossing points on straddled edges become new
vertices at the critical level.

V is not swept again: ``reeb.level_structure`` walks V alone, from its
first critical vertex, for its on-level vertices and the triangles it
crosses or runs along, and only those triangles are cut into level
pieces. Full-edge segments (both endpoints on the level) do occur
in the model fields and are handled as first-class V-edges, not as an
error case.

The 2-cells are read off the graph: each branch at the chosen vertex
owns what ``compute_reeb`` files under its nodes and edges. Only V's
carrier (what is filed under V, and the triangles V crosses or runs
along) is glued, across edges off V, to itself and to the owners on the
other side. Each class of that gluing is a region, matched to a branch
by its critical vertices; on coarse samples it may hold pieces alone.

Only the pieces get a directed-edge map, which also holds the untouched
side of each seam (an edge between one of V's triangles and an untouched
one). Repeated directed edges and edges with one triangle are checked on
the pieces and their seams only: validation and the fan walks of
``vertex_classes`` proved the untouched triangles closed and
consistently oriented, and a piece edge between two original vertices is
an edge of its own triangle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress, filterfalse, repeat

from .errors import InputRejected, InternalInvariantError
# chain_homology stays bound here because bench/tracer.py wraps this binding
from .homology import chain_homology, tree_cotree  # noqa: F401
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
    # H1 = Z^2: gamma_j is the cycle of leftover arc j closed up in the
    # spanning tree, as (arc id, +-1) pairs; cocycle phi_i reads 1 on
    # gamma_i and 0 on gamma_j (one integer per arc)
    cycles: tuple[tuple[tuple[int, int], ...], ...]
    cocycles: tuple[tuple[int, ...], ...]
    # refined complex data, used by disk extraction
    refined_values: tuple
    refined_triangles: tuple[tuple[int, int, int], ...]
    refined_parent: tuple[int, ...]
    refined_coords: tuple | None
    vertex_sources: tuple  # ("v", id) for originals, ("x", u, w) for crossings

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.zero_cells), len(self.one_cells), len(self.two_cells))


def branch_signature(g: ReebGraph, node_id: int, branch: Branch) -> tuple:
    """Canonical rooted form of a branch subtree, labeled by levels and kinds.

    Equal signatures mean the branches look identical to any level
    preserving symmetry; the signature is the f-data attached to 2-cells.
    """
    eid = branch.root_edge
    e = g.edges[eid]
    root = e.upper if e.lower == node_id else e.lower
    # the forms are built in reverse walk order, so children come before
    # parents and the depth of the tree never reaches the interpreter stack
    form: dict[int, tuple] = {}  # edge -> canonical form of the subtree it reaches
    for w, via in reversed(g.walk(root, eid)):
        subs = []
        for eid2 in g.edges_at(w):
            if eid2 != via:
                direction = "up" if g.edges[eid2].lower == w else "down"
                subs.append((direction, form.pop(eid2)))
        node = g.nodes[w]
        form[via] = (node.level, node.kinds, tuple(sorted(subs)))
    return (branch.side, form[eid])


def _norm(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


def _after(tri: tuple[int, int, int], v: int) -> tuple[int, int]:
    """The two corners that follow corner v of tri in CCW order."""
    a, b, c = tri
    return (b, c) if v == a else (c, a) if v == b else (a, b)


def build_partition(s: SurfaceField, g: ReebGraph, node_id: int) -> CellPartition:
    classes = vertex_classes(s)
    node = g.nodes[node_id]
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

    # level_structure keeps two corners on the level, or one and the crossed
    # edge opposite it, or two crossed edges, which share a corner
    split: dict[int, list[tuple[int, int, int]]] = {}  # V's triangles cut into pieces
    vedges: set[tuple[int, int]] = set()
    for idx, pieces in tri_pieces.items():
        tri = s.triangles[idx]
        vparts = [p[1] for p in pieces if p[0] == "v"]
        eparts = [(p[1], p[2]) for p in pieces if p[0] == "e"]
        if len(vparts) == 2:
            vedges.add(_norm(*vparts))
            split[idx] = [tri]
        elif vparts:
            v0, x = vparts[0], xid[eparts[0]]
            p_, q_ = _after(tri, v0)
            split[idx] = [(v0, p_, x), (v0, x, q_)]
            vedges.add(_norm(v0, x))
        else:
            a0 = (set(eparts[0]) & set(eparts[1])).pop()
            p_, q_ = _after(tri, a0)
            x1 = xid[_norm(a0, p_)]
            x2 = xid[_norm(a0, q_)]
            split[idx] = [(a0, x1, x2), (x1, p_, q_), (x1, q_, x2)]
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
    vertex_sources = (*zip(repeat("v"), range(nv)), *(("x", u, w) for (u, w) in xlist))
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
    for t in tris:
        owner[t] = nb

    # refined topology: a directed-edge map of V's pieces and their seams
    left = s.left_triangles()
    directed_tri: dict[tuple[int, int], int] = {}
    for idx in tri_pieces:
        a, b, c = s.triangles[idx]
        for x, y in ((a, b), (b, c), (c, a)):
            if left[y][x] not in tri_pieces:
                directed_tri[(y, x)] = first[left[y][x]]
    succ: dict[int, dict[int, int]] = {w: {} for w in vv}
    for idx in tri_pieces:
        for ti in range(first[idx], first[idx + 1]):
            a, b, c = refined[ti]
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                if (x, y) in directed_tri:
                    raise InternalInvariantError("refined complex repeats a directed edge")
                directed_tri[(x, y)] = ti
                if x in vv:
                    succ[x][y] = z
    for w in verts:
        for y, t in left[w].items():
            if t not in tri_pieces:
                succ[w][y] = sum(s.triangles[t]) - w - y
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
        if t not in tri_pieces:
            a, b, c = s.triangles[t]
            for x, y in ((a, b), (b, c), (c, a)):
                if left[y][x] not in tri_pieces:
                    ruf.union(first[t], unit(first[left[y][x]]))

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

    # complement regions: the classes of the gluing, a unit with the
    # carrier pieces glued to it, or pieces alone where the branch owns no
    # triangle off the carrier; numbered by their smallest refined triangle
    members: dict[int, list[int]] = {}
    for t in sorted(set(owned[nb]).union(tri_pieces)):
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
    region_branch = [None] * n_regions
    for rid, crit in enumerate(region_crit):
        hits = crit_branches.get(crit, [])
        if len(hits) != 1:
            raise InternalInvariantError(
                f"region {rid} does not match exactly one branch (criticals {sorted(crit)})")
        region_branch[rid] = hits[0]
    # region_branch is a bijection: there are nb regions, and disjoint regions
    # hold disjoint, non-empty sets of criticals (every node has one)
    cell_region = [region_branch.index(bi) for bi in range(len(branches))]
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

    # V is one level component with a critical vertex, and its other
    # vertices have two rays, so arcs from its criticals cover it
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

    canon_paths = sorted(min(p, tuple(reversed(p))) for p in raw_paths)
    one_cells = tuple(OneCell(i, p[0], p[-1], p) for i, p in enumerate(canon_paths))
    dart_info: dict[tuple[int, int], tuple[int, int, int]] = {}
    for cell in one_cells:
        p = cell.path
        for t in range(len(p) - 1):
            dart_info[(p[t], p[t + 1])] = (cell.id, 1, t)
            dart_info[(p[t + 1], p[t])] = (cell.id, -1, t)

    # boundary walk of each region, region kept on the left: a step turns
    # around w to the next edge of V, which the reverse turn undoes, so
    # steps permute V's darts; inside an arc the turn follows the arc
    def walk(rid: int) -> list[tuple[int, int]]:
        darts = region_darts[rid]
        start = min(darts)
        cycle = [start]
        cur = start
        while True:
            u, w = cur
            fan = fan_of[w]
            i = fan.index(u)
            for off in range(1, len(fan) + 1):
                z = fan[(i - off) % len(fan)]
                if _norm(w, z) in vedges:
                    nxt = (w, z)
                    break
            if nxt not in darts:  # the turn stops at u itself if nowhere before
                raise InternalInvariantError(f"boundary walk left region {rid}")
            if nxt == start:
                break
            cycle.append(nxt)
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
            items.append((aid, sign))
            i += arc_len[aid]
        return tuple(items)

    two_cells = []
    for cell_id, br in enumerate(branches):
        rid = cell_region[cell_id]
        cycle = walk(rid)
        two_cells.append(TwoCell(
            id=cell_id,
            level_signature=branch_signature(g, node_id, br),
            boundary=to_items(cycle),
            boundary_vertices=tuple(d[0] for d in cycle),
            support=tuple(dict.fromkeys(map(parent.__getitem__, region_tris[rid]))),
            refined_triangles=tuple(region_tris[rid])))
    cycles, cocycles = tree_cotree(zero_cells, one_cells, [c.boundary for c in two_cells])
    return CellPartition(
        node=node_id,
        level=level,
        zero_cells=zero_cells,
        one_cells=one_cells,
        two_cells=tuple(two_cells),
        cycles=cycles,
        cocycles=cocycles,
        refined_values=tuple(refined_values),
        refined_triangles=tuple(refined),
        refined_parent=tuple(parent),
        refined_coords=refined_coords,
        vertex_sources=vertex_sources)

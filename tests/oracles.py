"""Independent brute-force reference implementations.

Everything here works on raw triangle/value data and never imports the
package under test, except in these places. ``zeros``, ``identity`` and
``report_from_json`` build the package's ``IntMatrix`` and
``AnalysisReport`` records, which only tests build that way. The whole
cell automorphisms use the package's ``CellAutomorphism`` record, and
``all_flag_automorphisms`` is the plain every-flag search that the
symmetry stage's orbit closure replaced, built on the package's own seed
propagation. ``CorruptedWreath`` is the package's wreath engine with a
wrong shift action, the negative control of the verify checks.
``tau_reindex`` is the paper's family reindexing, which no stage of the
package uses; only the tests build its grids. ``bump_field`` and
``decorated_field`` raise minima of a package pullback field, and
``grid_translations`` reads the regions of a package cell partition,
never its symmetries. Expected values in the suite are either computed
against these functions or frozen from hand calculations that are
spelled out at the point of use.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from math import lcm

from krtorus.wreath import WreathGroup


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent
        if x not in p:
            p[x] = x
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def surface_edges(triangles):
    """Undirected edges of a triangle list, smaller end first."""
    out = set()
    for a, b, c in triangles:
        for u, w in ((a, b), (b, c), (c, a)):
            out.add((u, w) if u < w else (w, u))
    return out


def euler_characteristic(triangles):
    verts = {v for t in triangles for v in t}
    return len(verts) - len(surface_edges(triangles)) + len(triangles)


def triangle_component_count(triangles):
    """Connected components of a triangle set glued along shared edges."""
    uf = UnionFind()
    owner = {}
    for idx, (a, b, c) in enumerate(triangles):
        uf.find(idx)
        for u, w in ((a, b), (b, c), (c, a)):
            key = (min(u, w), max(u, w))
            if key in owner:
                uf.union(idx, owner[key])
            else:
                owner[key] = idx
    return len({uf.find(i) for i in range(len(triangles))})


def left_triangles(triangles, vertex_count):
    """left[u][w]: the triangle with u->w on its CCW boundary, one dict per
    vertex, as the mesh kept its adjacency before the half-edge table. A
    directed edge met a second time, in triangle order, raises ValueError
    with the package's not-a-surface message."""
    left = [{} for _ in range(vertex_count)]
    for idx, (a, b, c) in enumerate(triangles):
        for x, y in ((a, b), (b, c), (c, a)):
            if y in left[x]:
                raise ValueError(f"directed edge {x}->{y} used by two triangles; "
                                 "orientations are inconsistent or the gluing is not orientable")
            left[x][y] = idx
    return left


def fan_walk(triangles, left):
    """Each vertex's neighbors in CCW order from the least, walked on the
    left dicts: from w to the third corner of the triangle left of v->w.
    The first vertex in no triangle, or with an open or pinched fan,
    raises ValueError: with the package's message, save for an open fan,
    which the package names by an edge (``surface_rejection``)."""
    out = []
    for v, d in enumerate(left):
        if not d:
            raise ValueError(f"vertex {v} has no incident triangle")
        start = min(d)
        cyc = [start]
        cur = sum(triangles[d[start]]) - v - start
        while cur != start:
            if cur not in d:
                raise ValueError(f"the fan of vertex {v} does not close")
            cyc.append(cur)
            cur = sum(triangles[d[cur]]) - v - cur
        if len(cyc) != len(d):
            raise ValueError(f"vertex {v} is pinched: its link is not a single cycle")
        out.append(tuple(cyc))
    return out


def surface_rejection(triangles, vertex_count):
    """The first message of the closed-surface check on the left dicts,
    None for a closed connected oriented surface: a repeated directed
    edge, else, if a fan fails, the first edge without its reverse (by
    tail, then triangle order) or the fan's own message, else
    disconnection."""
    try:
        left = left_triangles(triangles, vertex_count)
        fans = fan_walk(triangles, left)
    except ValueError as exc:
        if str(exc).startswith("directed edge"):
            return str(exc)
        edge = next(((u, w) for u, d in enumerate(left) for w in d if u not in left[w]), None)
        return f"boundary edge {edge[0]}-{edge[1]}: no opposite triangle" if edge else str(exc)
    seen, stack = {0}, [0]
    while stack:
        for w in fans[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return None if len(seen) == vertex_count else "surface is disconnected"


def cut_regions(triangles, cut_edges):
    """Regions of a closed oriented complex cut along an edge set, by a whole-mesh rebuild.

    Every directed edge of every triangle is mapped to its triangle; a
    repeated directed edge, or one without its reverse, raises
    ValueError. Triangles are glued across every edge not in cut_edges
    (pairs, smaller end first). Returns one (triangles, (V, E, T), darts)
    per region, ordered by smallest triangle: V counts the region's
    vertices off the cut, E its edges off the cut, and darts are the
    directed cut edges that have the region on their left.
    """
    directed = {}
    for ti, (a, b, c) in enumerate(triangles):
        for x, y in ((a, b), (b, c), (c, a)):
            if (x, y) in directed:
                raise ValueError(f"directed edge {x}->{y} is repeated")
            directed[(x, y)] = ti
    uf = UnionFind()
    for (x, y), ti in directed.items():
        if (y, x) not in directed:
            raise ValueError(f"edge {x}-{y} has a triangle on one side only")
        uf.find(ti)
        if (min(x, y), max(x, y)) not in cut_edges:
            uf.union(ti, directed[(y, x)])
    groups = {}
    for ti in range(len(triangles)):
        groups.setdefault(uf.find(ti), []).append(ti)
    on_cut = {v for e in cut_edges for v in e}
    out = []
    for tris in sorted(groups.values()):
        verts, edges, darts = set(), set(), set()
        for ti in tris:
            a, b, c = triangles[ti]
            verts.update(v for v in (a, b, c) if v not in on_cut)
            for x, y in ((a, b), (b, c), (c, a)):
                key = (min(x, y), max(x, y))
                if key in cut_edges:
                    darts.add((x, y))
                else:
                    edges.add(key)
        out.append((tris, (len(verts), len(edges), len(tris)), darts))
    return out


def level_component_edges(triangles, values, level, seeds):
    """Edges of a complex with both ends at the level, kept to the component
    of the level graph that holds the seed vertices (pairs, smaller end first)."""
    edges = {e for e in surface_edges(triangles) if values[e[0]] == level == values[e[1]]}
    uf = UnionFind()
    for u, w in edges:
        uf.union(u, w)
    (root,) = {uf.find(v) for v in seeds}
    return {e for e in edges if uf.find(e[0]) == root}


def trace_arcs(v_edges, zero_cells):
    """The arcs of a graph between its 0-cells, traced from each 0-cell.

    Every vertex off zero_cells must have two edges. Returns the vertex
    paths, each as the smaller of its two directions, sorted.
    """
    adj = {}
    for u, w in v_edges:
        adj.setdefault(u, set()).add(w)
        adj.setdefault(w, set()).add(u)
    zset = set(zero_cells)
    visited = set()
    paths = []
    for z in sorted(zero_cells):
        for nb in sorted(adj.get(z, ())):
            if (min(z, nb), max(z, nb)) in visited:
                continue
            path = [z, nb]
            visited.add((min(z, nb), max(z, nb)))
            while path[-1] not in zset:
                cur, prev = path[-1], path[-2]
                (nxt,) = adj[cur] - {prev}
                path.append(nxt)
                visited.add((min(cur, nxt), max(cur, nxt)))
            paths.append(tuple(path))
    return sorted(min(q, q[::-1]) for q in paths)


def cell_counts(p):
    """(0-cells, 1-cells, 2-cells) of a cell partition."""
    return (len(p.zero_cells), len(p.one_cells), len(p.two_cells))


def triangle_level_pieces(tri, values, level):
    """Pieces of one level set inside one triangle.

    A piece is an on-level vertex ("v", v) or an edge whose endpoints
    strictly straddle the level ("e", lo, hi).
    """
    a, b, c = tri
    pieces = [("v", v) for v in tri if values[v] == level]
    if len(pieces) == 3:
        raise ValueError(f"triangle {tri} lies entirely in level {level}")
    for u, w in ((a, b), (b, c), (c, a)):
        fu, fw = values[u], values[w]
        if (fu < level < fw) or (fw < level < fu):
            pieces.append(("e", min(u, w), max(u, w)))
    return pieces


def level_components(triangles, values, level):
    """Connected components of a level set, with a cell census per component.

    Returns a list of dicts {"pieces", "segments", "vertices"}; the census
    Euler characteristic of a component is len(pieces) - len(segments).
    """
    uf = UnionFind()
    segments = set()
    for tri in triangles:
        pieces = triangle_level_pieces(tri, values, level)
        if not pieces:
            continue
        first = pieces[0]
        uf.find(first)
        for p in pieces[1:]:
            uf.union(first, p)
        if len(pieces) == 2:
            segments.add(frozenset(pieces))
    groups = {}
    for p in list(uf.parent):
        groups.setdefault(uf.find(p), set()).add(p)
    out = []
    for root, pieces in sorted(groups.items(), key=lambda kv: min(kv[1])):
        segs = {s for s in segments if s <= pieces}
        verts = {p[1] for p in pieces if p[0] == "v"}
        out.append({"pieces": pieces, "segments": segs, "vertices": verts})
    return out


def count_contours(triangles, values, level):
    return len(level_components(triangles, values, level))


def component_euler(comp) -> int:
    return len(comp["pieces"]) - len(comp["segments"])


def cokernel_pair(mat2):
    """Invariant factors (d1, d2) of Z^2 / A Z^2 for a nonsingular integer 2x2 A.

    Brute force: the order of a standard generator e is the least t >= 1
    with t*e in the column lattice, tested by exact divisibility against
    adj(A); d2 is the group exponent lcm(ord e1, ord e2) and d1 follows
    from d1*d2 = |det A|.
    """
    (a, b), (c, d) = mat2
    det = a * d - b * c
    if det == 0:
        raise ValueError("matrix is singular")
    big = abs(det)
    adj = ((d, -b), (-c, a))

    def order(e):
        x = adj[0][0] * e[0] + adj[0][1] * e[1]
        y = adj[1][0] * e[0] + adj[1][1] * e[1]
        for t in range(1, big + 1):
            if (t * x) % big == 0 and (t * y) % big == 0:
                return t
        raise AssertionError("generator order exceeded the group order")

    d2 = lcm(order((1, 0)), order((0, 1)))
    assert big % d2 == 0
    d1 = big // d2
    assert d2 % d1 == 0
    return (d1, d2)


def invariant_factors(diagonal):
    """The invariant factors > 1 of a Smith diagonal."""
    return tuple(d for d in diagonal if d > 1)


def permutation_orbits(perms, count):
    """Orbits of {0..count-1} under a list of permutations (given as tuples)."""
    uf = UnionFind()
    for x in range(count):
        uf.find(x)
        for p in perms:
            uf.union(x, p[x])
    orbits = {}
    for x in range(count):
        orbits.setdefault(uf.find(x), set()).add(x)
    return sorted(orbits.values(), key=min)


def det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matmul(a, b):
    """Product of two integer matrices given as nonempty row lists."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def signed_permutation_matrices(perm0, perm1, perm2):
    """Dense chain maps of a cell automorphism: column j holds the image of cell j.

    perm1 entries are (image arc, +-1); perm0 and perm2 are plain images.
    """
    n0, n1, n2 = len(perm0), len(perm1), len(perm2)
    p0 = [[0] * n0 for _ in range(n0)]
    for j in range(n0):
        p0[perm0[j]][j] = 1
    p1 = [[0] * n1 for _ in range(n1)]
    for j in range(n1):
        img, sign = perm1[j]
        p1[img][j] = sign
    p2 = [[0] * n2 for _ in range(n2)]
    for j in range(n2):
        p2[perm2[j]][j] = 1
    return p0, p1, p2


def shift_cells(grid, shift):
    """grid moved by shift, one cell at a time: moved[i][j] = grid[(i+k) % rows][(j+l) % cols]."""
    rows, cols = len(grid), len(grid[0])
    k, l = shift
    return tuple(tuple(grid[(i + k) % rows][(j + l) % cols] for j in range(cols))
                 for i in range(rows))


class CorruptedWreath(WreathGroup):
    """Engine whose shift action is off by one column: a negative control."""

    def shift_action(self, grid, shift):
        return super().shift_action(grid, (shift[0], shift[1] + 1))


def wreath_cells(op, x_grid, x_shift, y_grid):
    """Grid part of (x_grid, x_shift) * (y_grid, _): op(x, y moved by x_shift) per cell."""
    moved = shift_cells(y_grid, x_shift)
    return tuple(tuple(op(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(x_grid, moved))


def group_axioms(wg, pool, *, rng=None, triple_budget=300_000, samples=2_000):
    """Group-law check by recomputing both sides of every triple.

    The reference for `krtorus.wreath.check_group_axioms`: the same laws,
    triples, draws and messages, with no product shared between triples.
    Only the engine passed in is used.
    """
    pool = list(pool)
    e = wg.identity()
    for x in pool:
        if wg.multiply(e, x) != x:
            return f"identity law e*x = x fails at x = {wg.render(x)}"
        if wg.multiply(x, e) != x:
            return f"identity law x*e = x fails at x = {wg.render(x)}"
        ix = wg.inverse(x)
        if wg.multiply(x, ix) != e or wg.multiply(ix, x) != e:
            return f"inverse law fails at x = {wg.render(x)}"
    n = len(pool)
    if n ** 3 <= triple_budget:
        triples = itertools.product(pool, repeat=3)
    else:
        if rng is None:
            raise ValueError("pool too large for exhaustive triples; pass rng")
        triples = [(rng.choice(pool), rng.choice(pool), rng.choice(pool))
                   for _ in range(samples)]
    for x, y, z in triples:
        if wg.multiply(wg.multiply(x, y), z) != wg.multiply(x, wg.multiply(y, z)):
            return ("associativity fails at "
                    f"{wg.render(x)}, {wg.render(y)}, {wg.render(z)}")
    return None


def permutation_table(perms):
    """Multiplication table of a group of permutations: entry (i, j) is perms[i] after perms[j]."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def cayley_relation_matrix(mul):
    """The k x (k^2 + 1) presentation of a group read off its whole table.

    Column i*k + j is the relation e_i + e_j - e_{i*j} of the ordered pair
    (i, j); the last column is e_0 for the identity, element 0.
    """
    k = len(mul)
    cols = []
    for i in range(k):
        for j in range(k):
            col = [0] * k
            col[i] += 1
            col[j] += 1
            col[mul[i][j]] -= 1
            cols.append(col)
    cols.append([1] + [0] * (k - 1))
    return [list(r) for r in zip(*cols)]


def _axpy(v, q, b):
    """v - q * b on sparse vectors {position: nonzero entry}."""
    out = dict(v)
    for i, x in b.items():
        y = out.get(i, 0) - q * x
        if y:
            out[i] = y
        else:
            out.pop(i, None)
    return out


def cokernel_factors(rows):
    """Invariant factors > 1 of Z^r / column span, or None if it is infinite.

    The columns go one at a time into a sparse echelon lattice basis:
    each entry at a pivot position is removed by the pivot's vector, or
    replaces it by a gcd step, and every basis vector is kept reduced
    modulo the pivots after its own. The square basis is then
    diagonalised by repeated gcd steps on rows and columns. No
    transforms are kept.
    """
    dim = len(rows)
    basis = {}  # pivot position -> vector with nothing before it, pivot > 0

    def reduced(v, start):
        for q in sorted(v):
            b = basis.get(q)
            if q > start and q in v and b is not None:
                v = _axpy(v, v[q] // b[q], b)
        return v

    for col in sorted(set(zip(*rows))):
        v = {i: x for i, x in enumerate(col) if x}
        while v:
            p = min(v)
            b = basis.get(p)
            if b is None:
                new, v = v, {}
            elif v[p] % b[p] == 0:
                v = _axpy(v, v[p] // b[p], b)
                continue
            else:
                while v.get(p):
                    b, v = v, _axpy(b, b[p] // v[p], v)
                new = b
            if new[p] < 0:
                new = {i: -x for i, x in new.items()}
            basis[p] = reduced(new, p)
            for q, c in list(basis.items()):
                if q < p and p in c:
                    basis[q] = reduced(c, q)
    if len(basis) < dim:
        return None
    # row p holds the p-th basis vector
    a = [[basis[p].get(i, 0) for i in range(dim)] for p in range(dim)]
    diag = []
    for t in range(dim):
        while True:
            e, i, j = min((abs(a[i][j]), i, j) for i in range(t, dim)
                          for j in range(t, dim) if a[i][j])
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
            piv = a[t][t]
            clean = True
            for i in range(t + 1, dim):
                q = a[i][t] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                clean = clean and not a[i][t]
            for j in range(t + 1, dim):
                q = a[t][j] // piv
                for r in a:
                    r[j] -= q * r[t]
                clean = clean and not a[t][j]
            if clean and all(a[i][j] % piv == 0 for i in range(t + 1, dim)
                             for j in range(t + 1, dim)):
                break
            if clean:
                i = next(i for i in range(t + 1, dim)
                         if any(a[i][j] % piv for j in range(t + 1, dim)))
                a[t] = [x + y for x, y in zip(a[t], a[i])]
        diag.append(abs(a[t][t]))
    return tuple(d for d in diag if d > 1)


def _egcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def symmetric_cosines(n):
    """cos(2 pi k / n) for k < n with t[n - k] == t[k], t[n/2 + k] == -t[k]
    and exact zeros at n/4 and 3n/4, so mirrored lattice points tie exactly."""
    if n % 4:
        raise ValueError("the table size must be a multiple of 4")
    t = [0.0] * n
    for k in range(n // 4):
        v = math.cos(2.0 * math.pi * k / n)
        t[k] = t[(n - k) % n] = v
        t[n // 2 - k] = t[n // 2 + k] = -v
    t[n // 4] = t[3 * n // 4] = 0.0
    return t


def covering_field(n, mat):
    """The two-cell grid field lifted through the covering of degree |det A|.

    The base is the n x n grid torus Z^2 / nZ^2 with values
    cos(2 pi i / n) + cos(2 pi j / n) and the diagonal split of each
    square into (A, B, C), (A, C, D), A = (i, j), B = (i+1, j),
    C = (i+1, j+1), D = (i, j+1). The cover is Z^2 / L with L spanned by
    the columns of n*A. L has the basis (w, 0), (x0, h) (Hermite form,
    from one gcd step on the second row), so each vertex has one
    representative (i, j) with 0 <= i < w, 0 <= j < h, numbered j*w + i.
    Triangles are the lifted diagonal split, and a vertex's value is read
    at any lift, which is well defined since L lies in nZ^2. The deck
    group nZ^2 / L is Z^2 / AZ^2. Returns (triangles, values).
    """
    (a, b), (c, d) = mat
    det = a * d - b * c
    if det == 0:
        raise ValueError("matrix is singular")
    h, s, t = _egcd(n * c, n * d)
    x0 = n * (s * a + t * b)
    w = n * n * abs(det) // h

    def vid(i, j):
        q = j // h
        return (j - q * h) * w + (i - q * x0) % w

    cos = symmetric_cosines(n)
    triangles, values = [], [0.0] * (w * h)
    for j in range(h):
        for i in range(w):
            values[vid(i, j)] = cos[i % n] + cos[j % n]
            va, vb, vc, vd = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            triangles.append((va, vb, vc))
            triangles.append((va, vc, vd))
    return triangles, values


def bump_field(k):
    """diag(k, k)@4k with 0.3 added to the minimum at grid point (2 + k, 2 + k).

    The pullback's Z_k x Z_k is broken to order 1, so r = 2k^2, while half
    of its 2k^2 2-cells keep 2-cell 0's signature and walk length. k is a
    multiple of 4, so that the grid point is a minimum.
    """
    from krtorus.fields import grid_vertex, pullback_cosine_field
    from krtorus.surface import SurfaceField

    s = pullback_cosine_field(4 * k, ((k, 0), (0, k)))
    values = list(s.values)
    values[grid_vertex(4 * k, 2 + k, 2 + k)] += 0.3
    return SurfaceField(s.triangles, values)


def monkey_field(n):
    """The n x n grid torus, 7 | n, lifted from a 7-vertex torus with a monkey saddle.

    Vertex (i, j) takes (0, 1, 2, -1, 3, -2, -3)[(i + 2j) % 7]. On the
    7-vertex torus (triangles {i, i+1, i+3} and {i, i+3, i+2} mod 7) these
    values give one maximum, one minimum and a 2-fold saddle at value 0,
    whose level is one 0-cell with 3 arcs cutting 2 disks. The grid field
    is its lift by the lattice {(a, b) : a + 2b = 0 mod 7}, so the deck
    group is that lattice mod nZ^2: (n/7, n) = cokernel_pair of
    ((n/7, 2n/7), (0, n)), m = 7, r = 2 and order n^2 / 7.
    """
    from krtorus.fields import grid_field

    return grid_field(n, lambda i, j: (0, 1, 2, -1, 3, -2, -3)[(i + 2 * j) % 7])


def subgroup(k, gens):
    """The subgroup of Z_k x Z_k that gens generate, closed by adding generators."""
    elements, todo = {(0, 0)}, [(0, 0)]
    while todo:
        a, b = todo.pop()
        for c, d in gens:
            x = ((a + c) % k, (b + d) % k)
            if x not in elements:
                elements.add(x)
                todo.append(x)
    return elements


def decorated_field(k, gens):
    """diag(k, k)@4k with 0.3 added to the minimum at (2 + 4a, 2 + 4b) for (a, b) in H.

    H is ``subgroup(k, gens)``. The pullback's deck translations by
    (4a, 4b) form Z_k x Z_k, and those that keep the raised minima are
    the ones by H, so the symmetry group should be H and r = 2k^2 / |H|.
    ``bump_field(k)`` is the case H = 1, moved by a deck translation.
    """
    from krtorus.fields import grid_vertex, pullback_cosine_field
    from krtorus.surface import SurfaceField

    s = pullback_cosine_field(4 * k, ((k, 0), (0, k)))
    values = list(s.values)
    for a, b in subgroup(k, gens):
        values[grid_vertex(4 * k, 2 + 4 * a, 2 + 4 * b)] += 0.3
    return SurfaceField(s.triangles, values)


def decorated_monkey_field(n, gens):
    """monkey_field(n) with 1 added to the maximum at (4 + a, b) for (a, b) in H.

    H is ``subgroup(n, gens)``; gens lie in the lattice {(a, b) : a + 2b
    = 0 mod 7}, so H is a subgroup of the deck group and moves the
    maximum at (4, 0) onto maxima. The deck translations that keep the
    raised maxima are those by H, so the symmetry group should be H and
    r = 2n^2 / (7|H|).
    """
    from krtorus.fields import grid_vertex
    from krtorus.surface import SurfaceField

    if any((a + 2 * b) % 7 for a, b in gens):
        raise ValueError(f"generators {gens} are not deck translations")
    s = monkey_field(n)
    values = list(s.values)
    for a, b in subgroup(n, gens):
        values[grid_vertex(n, 4 + a, b)] += 1
    return SurfaceField(s.triangles, values)


def grid_translations(n, values, p):
    """The 2-cell permutations of the value-preserving translations of a grid field.

    values are those of the n x n grid torus, vertex j*n + i at (i, j) as
    ``krtorus.fields.grid_field`` numbers it, and p is its cell partition.
    A translation (i, j) -> (i + a, j + b) that keeps every value is
    isotopic to the identity and moves every cell, so its 2-cell
    permutation should be a symmetry. Each 2-cell goes through an original
    vertex inside it off the special level: such a vertex lies in one
    2-cell only. Only translations that keep the value of vertex 0 are
    tried in full.
    """
    size = n * n

    def moved(v, a, b):
        return (v // n + b) % n * n + (v % n + a) % n

    home = {u: c for c, cell in enumerate(p.two_cells) for ti in cell.refined_triangles
            for u in p.refined_triangles[ti] if u < size and values[u] != p.level}
    inside = {c: u for u, c in home.items()}
    perms = []
    for a, b in itertools.product(range(n), repeat=2):
        if values[moved(0, a, b)] != values[0] or any(
                values[moved(v, a, b)] != values[v] for v in range(size)):
            continue
        perm = tuple(home[moved(inside[c], a, b)] for c in range(len(p.two_cells)))
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"translation ({a}, {b}) does not permute the 2-cells")
        perms.append(perm)
    return perms


def cut_disk(refined_triangles, refined_values, region, walk):
    """A 2-cell cut free of the torus by a whole-region corner union-find.

    Corner 3*j + k is corner k of the region's j-th triangle. The corners
    at both ends of every region edge that does not join two walk
    vertices are glued to the corners across it; each class becomes one
    disk vertex, numbered in order of its first corner. Returns
    (triangles, values, boundary, sources): boundary is the rim cycle of
    the cut, disk on its left, started at its smallest vertex, and
    sources maps each disk vertex to its refined vertex.
    """
    walkset = set(walk)
    tris = [refined_triangles[ti] for ti in region]
    uf = UnionFind()
    sides = {}
    for j, (a, b, c) in enumerate(tris):
        k = 3 * j
        for u, w, cu, cw in ((a, b, k, k + 1), (b, c, k + 1, k + 2), (c, a, k + 2, k)):
            if u in walkset and w in walkset:
                continue
            key = (min(u, w), max(u, w))
            sides.setdefault(key, []).append((cu, cw) if u < w else (cw, cu))
    for key, pairs in sides.items():
        if len(pairs) != 2:
            raise ValueError(f"edge {key} has {len(pairs)} triangles in the region")
        (u1, w1), (u2, w2) = pairs
        uf.union(u1, u2)
        uf.union(w1, w2)
    number, sources, corner_vertex = {}, [], []
    for corner in range(3 * len(tris)):
        root = uf.find(corner)
        if root not in number:
            number[root] = len(sources)
            sources.append(tris[corner // 3][corner % 3])
        corner_vertex.append(number[root])
    disk = [tuple(corner_vertex[3 * j:3 * j + 3]) for j in range(len(tris))]
    directed = {(u, w) for a, b, c in disk for u, w in ((a, b), (b, c), (c, a))}
    step = {u: w for u, w in directed if (w, u) not in directed}
    boundary = [min(step)]
    while step[boundary[-1]] != boundary[0]:
        boundary.append(step[boundary[-1]])
    return disk, [refined_values[u] for u in sources], boundary, sources


def zeros(r, c):
    """The r x c zero matrix as the package's IntMatrix."""
    from krtorus.homology import IntMatrix
    return IntMatrix.from_rows(tuple((0,) * c for _ in range(r)), cols=c)


def identity(n):
    """The n x n identity matrix as the package's IntMatrix."""
    from krtorus.homology import IntMatrix
    return IntMatrix.from_rows(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), cols=n)


def report_from_json(data):
    """An AnalysisReport back from its JSON text or parsed dict."""
    from krtorus.pipeline import AnalysisReport
    if isinstance(data, str):
        data = json.loads(data)
    return AnalysisReport(**data)


def identity_automorphism(p):
    from krtorus.symmetry import CellAutomorphism

    return CellAutomorphism(tuple(range(len(p.zero_cells))),
                            tuple((j, 1) for j in range(len(p.one_cells))),
                            tuple(range(len(p.two_cells))))


def compose(a, b):
    """Whole automorphism a after b."""
    from krtorus.symmetry import CellAutomorphism

    return CellAutomorphism(tuple(a.perm0[x] for x in b.perm0),
                            tuple((a.perm1[img][0], sg * a.perm1[img][1]) for img, sg in b.perm1),
                            tuple(a.perm2[x] for x in b.perm2))


def is_identity(a) -> bool:
    return (a.perm2 == tuple(range(len(a.perm2)))
            and a.perm0 == tuple(range(len(a.perm0)))
            and all(img == j and sg == 1 for j, (img, sg) in enumerate(a.perm1)))


def fixes_some_cell(a) -> bool:
    return (any(img == j for j, img in enumerate(a.perm0))
            or any(img == j for j, (img, _) in enumerate(a.perm1))
            or any(img == j for j, img in enumerate(a.perm2)))


def all_flag_automorphisms(p):
    """Every automorphism found by seeding each flag (t, r) of 2-cell 0.

    The reference for ``krtorus.symmetry._automorphisms``: one
    propagation per flag, in the order t, then r, with no flag skipped
    for being reached already. Returns {flag: whole automorphism},
    before the freeness and H1 filters.
    """
    from krtorus.symmetry import _attempt

    cells = p.two_cells
    found = {}
    for t in range(len(cells)):
        for r in range(len(cells[0].boundary)):
            if (a := _attempt(p, t, r)) is not None:
                found[t, r] = a[0]
    return found


def free_automorphisms(p):
    """{2-cell permutation: whole automorphism} for the identity and every
    automorphism of the every-flag search that moves every cell.

    A free action is told apart by its 2-cell permutations, so no two
    share a key.
    """
    free = [a for a in all_flag_automorphisms(p).values()
            if is_identity(a) or not fixes_some_cell(a)]
    out = {a.perm2: a for a in free}
    assert len(out) == len(free), "two free automorphisms share a 2-cell permutation"
    return out


class Rejected(Exception):
    """An oracle's refusal, with the code and message the package must give."""

    def __init__(self, code, message):
        super().__init__(code, message)
        self.code, self.message = code, message


def special_vertex(g):
    """The tree vertex all of whose branches carry Euler number 1, by brute force.

    The reference for ``krtorus.reeb.find_special_vertex``, reading only
    ``g.nodes`` and ``g.edges``. For every node in id order, one
    union-find over the other edges splits the rest of the graph into
    branches; both Euler routes (census and index sum) are summed over
    each branch's nodes, in order of the smallest edge attaching it,
    up to the first branch whose Euler number is not 1. That is
    O(nodes x edges). Raises Rejected with the code and message the
    package gives; its internal errors carry the code the CLI reports.
    """
    b1 = len(g.edges) - len(g.nodes) + 1
    if b1 != 0:
        raise Rejected("not-a-tree", f"graph has first Betti number {b1}, expected a tree")
    winners = []
    for n in g.nodes:
        uf = UnionFind()
        for e in g.edges:
            if n.id not in (e.lower, e.upper):
                uf.union(e.lower, e.upper)
        attach = {}  # component root -> its smallest attaching edge
        for e in g.edges:
            if n.id in (e.lower, e.upper):
                attach.setdefault(uf.find(e.upper if e.lower == n.id else e.lower), e.id)
        if any(uf.find(m.id) not in attach for m in g.nodes if m.id != n.id):
            raise Rejected("internal-invariant", "graph is disconnected")
        eulers = []
        for root in sorted(attach, key=attach.get):
            branch = [m for m in g.nodes if m.id != n.id and uf.find(m.id) == root]
            census = sum(m.census_euler for m in branch)
            index = sum(m.index_sum for m in branch)
            if census != index:
                raise Rejected("internal-invariant",
                               f"branch Euler computations disagree at node {n.id}: "
                               f"census {census} vs index sum {index}")
            eulers.append(index)
            if index != 1:
                break
        if eulers and all(x == 1 for x in eulers):
            winners.append(n.id)
    if not winners:
        raise Rejected("no-special-vertex",
                       "no vertex has all branches of Euler number 1; "
                       "the torus/tree hypotheses do not hold for this input")
    if len(winners) > 1:
        raise Rejected("internal-invariant", f"multiple special vertices {winners}")
    return winners[0]


def parse_scalar(tok):
    """A value token the slow way: Fraction with a '/', else int, else float."""
    if "/" in tok:
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise Rejected("malformed-input", f"bad rational literal {tok!r}")
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise Rejected("malformed-input", f"bad scalar literal {tok!r}")


def parse_field_text(text):
    """The torus-field v1 text, read one line at a time.

    Returns (triangles, values, coords) for the surface constructor, or
    raises Rejected naming the first bad line. Every check runs on each
    line in file order: token count, value, form, coordinates.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    if not lines or lines[0] != "torus-field v1":
        raise Rejected("malformed-input", "missing or wrong header; expected 'torus-field v1'")
    if len(lines) < 2:
        raise Rejected("malformed-input", "missing count line")
    try:
        nv, nt = (int(h) for h in lines[1].split())
    except ValueError:
        raise Rejected("malformed-input", f"count line must hold two integers, got {lines[1]!r}")
    if nv <= 0 or nt <= 0:
        raise Rejected("malformed-input", "vertex and triangle counts must be positive")
    body = lines[2:]
    if len(body) != nv + nt:
        raise Rejected("malformed-input", f"expected {nv + nt} data lines, found {len(body)}")
    values, coords, have_coords = [], [], None
    for ln in body[:nv]:
        toks = ln.split()
        if len(toks) not in (1, 4):
            raise Rejected("malformed-input", f"vertex line {ln!r} must hold 1 or 4 numbers")
        values.append(parse_scalar(toks[0]))
        with_xyz = len(toks) == 4
        if have_coords is None:
            have_coords = with_xyz
        elif have_coords != with_xyz:
            raise Rejected("malformed-input", "vertex lines mix bare and coordinate forms")
        if with_xyz:
            try:
                coords.append(tuple(float(t) for t in toks[1:]))
            except ValueError:
                raise Rejected("malformed-input", f"bad coordinates in line {ln!r}")
    triangles = []
    for ln in body[nv:]:
        toks = ln.split()
        if len(toks) != 3:
            raise Rejected("malformed-input", f"triangle line {ln!r} must hold 3 indices")
        try:
            triangles.append(tuple(map(int, toks)))
        except ValueError:
            raise Rejected("malformed-input", f"bad triangle indices in line {ln!r}")
    return triangles, values, coords if have_coords else None


def checked_triangles(triangles, vertex_count):
    """The surface constructor's triangle check with one sorted tuple per
    triangle for the duplicate test: whole-sequence checks first, then,
    if any fails, one loop naming the first bad triangle or index.

    Returns the triangles as tuples of plain ints, or raises Rejected
    with the constructor's message.
    """
    tris = list(map(tuple, triangles))
    flat = list(itertools.chain.from_iterable(tris))
    ids = list(range(vertex_count))
    shared = ([(ids[a], ids[b], ids[c]) for a, b, c in tris if a != b != c != a]
              if set(map(len, tris)) == {3} and set(map(type, flat)) == {int}
              and 0 <= min(flat) and max(flat) < vertex_count
              and len(set(map(tuple, map(sorted, tris)))) == len(tris) else [])
    if len(shared) != len(tris):
        seen = set()
        for t in tris:
            if len(t) != 3:
                raise Rejected("malformed-input", f"triangle {t} does not have 3 vertices")
            for i in t:
                if not isinstance(i, int) or isinstance(i, bool) or i < 0 or i >= vertex_count:
                    raise Rejected("malformed-input", f"vertex index {i!r} out of range")
            key = frozenset(t)
            if len(key) != 3:
                raise Rejected("malformed-input", f"triangle {t} repeats a vertex")
            if key in seen:
                raise Rejected("malformed-input", f"duplicate triangle {sorted(t)}")
            seen.add(key)
        shared = [(ids[a], ids[b], ids[c]) for a, b, c in tris]
    if not tris:
        raise Rejected("malformed-input", "surface has no triangles")
    return tuple(shared)


def field_text(values, coords, triangles):
    """The torus-field v1 text, written one line at a time: values as
    ``n/d`` for a Fraction, ``repr`` for a float, ``str`` otherwise, and
    each coordinate by ``repr``."""
    out = ["torus-field v1", f"{len(values)} {len(triangles)}"]
    for v, x in enumerate(values):
        if isinstance(x, Fraction):
            line = f"{x.numerator}/{x.denominator}"
        else:
            line = repr(x) if isinstance(x, float) else str(x)
        if coords is not None:
            line += " " + " ".join(repr(c) for c in coords[v])
        out.append(line)
    for a, b, c in triangles:
        out.append(f"{a} {b} {c}")
    return "\n".join(out) + "\n"


def order_key(values, v):
    """Strict total order simulating genericity: value first, index breaks ties."""
    return (values[v], v)


def vertex_classes(triangles, values):
    """(kind, multiplicity) of each vertex, from cyclic below/above runs of its fan.

    Fans are rebuilt from the triangles: each CCW triangle (v, w, x)
    steps w -> x around v, and every fan must be one closed cycle.
    """
    steps = [{} for _ in values]
    for a, b, c in triangles:
        for v, w, x in ((a, b, c), (b, c, a), (c, a, b)):
            steps[v][w] = x
    out = []
    for v, step in enumerate(steps):
        fan = [min(step)]
        while step[fan[-1]] != fan[0]:
            fan.append(step[fan[-1]])
        assert len(fan) == len(step), f"fan of vertex {v} is not one cycle"
        below = [order_key(values, u) < order_key(values, v) for u in fan]
        n = len(fan)
        c_minus = sum(1 for i in range(n) if below[i] and not below[i - 1])
        c_plus = sum(1 for i in range(n) if not below[i] and below[i - 1])
        assert c_minus == c_plus
        if not any(below):
            out.append(("minimum", 0))
        elif all(below):
            out.append(("maximum", 0))
        else:
            out.append(("regular", 0) if c_minus == 1 else ("saddle", c_minus - 1))
    return out


def tau_reindex(rows: int, cols: int, atom_count: int, family: dict, transports: dict):
    """Assemble per-disk elements into one grid over the index torus.

    family[(i, j, k)] is an element attached to disk orbit i at grid
    position (j, k), i running 1..atom_count; transports[(i, j, k)] maps
    it into the reference copy for orbit i. The output grid holds, at
    (j, k), the tuple of transported values across i. Missing entries
    are an error.
    """
    grid = []
    for j in range(rows):
        row = []
        for k in range(cols):
            entry = []
            for i in range(1, atom_count + 1):
                key = (i, j, k)
                if key not in family:
                    raise ValueError(f"family is missing entry {key}")
                if key not in transports:
                    raise ValueError(f"transports are missing entry {key}")
                entry.append(transports[key](family[key]))
            row.append(tuple(entry))
        grid.append(tuple(row))
    return tuple(grid)

"""Independent brute-force reference implementations.

Everything here works on raw triangle/value data and never imports the
package under test. Expected values in the suite are either computed
against these functions or frozen from hand calculations that are
spelled out at the point of use.
"""
from __future__ import annotations

import itertools
from math import gcd, lcm


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

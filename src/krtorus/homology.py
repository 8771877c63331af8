"""Exact integer linear algebra: Smith normal form, cokernels, H1 of a partition.

All arithmetic is arbitrary-precision int. The Smith reduction takes
Bezout steps in a fixed order, so U and V are reproducible bit for
bit. H1 takes no Smith form: a tree-cotree decomposition gives its
basis, and a cell map's action is read off it.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import InternalInvariantError


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]
    shape: tuple[int, int]

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            cols = width
        return cls(rows, (len(rows), cols or 0))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        r, k = self.shape
        k2, c = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = [tuple(e[j] for e in other.entries) for j in range(c)]
        return IntMatrix(tuple(tuple(sum(map(mul, row, col)) for col in cols)
                               for row in self.entries), (r, c))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.shape)))


@dataclass(frozen=True)
class SnfResult:
    """U @ A @ V = D with U, V unimodular."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _bezout(p: int, q: int) -> tuple[int, int, int, int]:
    """(x, y, p/g, q/g) with g = x*p + y*q = +-gcd(p, q), for q != 0.

    The step (s, z) -> (x*s + y*z, (p/g)*z - (q/g)*s) has determinant 1
    and sends (p, q) to (g, 0); it is a plain subtraction when p divides q.
    """
    if p and q % p == 0:
        return 1, 0, 1, q // p
    g, h, x, y, x1, y1 = p, q, 1, 0, 0, 1
    while h:
        k = g // h
        g, h, x, y, x1, y1 = h, g - k * h, x1, y1, x - k * x1, y - k * y1
    return x, y, p // g, q // g


def _smith(a: IntMatrix):
    """Reduce A to D by Bezout steps; returns (D, U, V transposed) as lists.

    At pivot t, the first column with a nonzero entry in the trailing
    block is swapped in. Row steps on D and U clear column t below the
    pivot, which is then nonzero, and column steps on D and on the rows
    of V^T clear row t. A step that is not a plain subtraction leaves a
    proper divisor of the pivot in its place, so the two passes
    alternate only while |pivot| falls. Then a row holding an entry the
    pivot does not divide is added to row t, and the next column step
    lowers |pivot| again; so the loop ends (Kannan and Bachem, SIAM J.
    Comput. 8(4), 1979). Last, rows with a negative pivot are negated.
    """
    nr, nc = a.shape
    m = [list(r) for r in a.entries]
    u, vt = ([[int(i == j) for j in range(n)] for i in range(n)] for n in (nr, nc))

    def step(ws, s, z, x, y, p, q):  # on rows s, z of each matrix in ws
        for w in ws:
            rs, rz = w[s], w[z]
            if (x, y) != (1, 0):  # not a plain subtraction
                w[s] = [x * e + y * f for e, f in zip(rs, rz)]
            w[z] = [p * f - q * e for e, f in zip(rs, rz)]

    for t in range(min(nr, nc)):
        j = next((j for j in range(t, nc) if any(r[j] for r in m[t:])), None)
        if j is None:
            break
        for r in m:
            r[t], r[j] = r[j], r[t]
        vt[t], vt[j] = vt[j], vt[t]
        while True:
            for i in range(t + 1, nr):
                if m[i][t]:
                    step((m, u), t, i, *_bezout(m[t][t], m[i][t]))
            for j in range(t + 1, nc):
                if m[t][j]:
                    c = x, y, p, q = _bezout(m[t][t], m[t][j])
                    for r in m[t:]:  # in place: rows above t are zero here
                        r[t], r[j] = x * r[t] + y * r[j], p * r[j] - q * r[t]
                    step((vt,), t, j, *c)
            if any(r[t] for r in m[t + 1:]):
                continue
            i = next((i for i in range(t + 1, nr) if any(e % m[t][t] for e in m[i][t + 1:])), None)
            if i is None:
                break
            step((m, u), i, t, 1, 0, 1, -1)  # row t += row i
    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            m[i], u[i] = [-x for x in m[i]], [-x for x in u[i]]
    return m, u, vt


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """U @ A @ V = D with U, V unimodular and D a divisibility diagonal."""
    m, u, vt = _smith(a)
    nr, nc = a.shape
    res = SnfResult(IntMatrix.from_rows(u, cols=nr),
                    IntMatrix.from_rows(m, cols=nc),
                    IntMatrix.from_rows(zip(*vt), cols=nc))
    d = res.d
    for i in range(d.shape[0]):
        for j in range(d.shape[1]):
            if i != j and d[i, j]:
                raise InternalInvariantError("Smith form is not diagonal")
    diag = res.diagonal
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise InternalInvariantError("zero before nonzero on the Smith diagonal")
        if x and y % x:
            raise InternalInvariantError("Smith diagonal is not a divisibility chain")
    if any(x < 0 for x in diag):
        raise InternalInvariantError("negative Smith diagonal entry")
    if (res.u @ a @ res.v).entries != d.entries:
        raise InternalInvariantError("Smith factorization identity failed")
    return res


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant +-1.

    U @ m @ V = I gives m^-1 = V @ U.
    """
    n, c = m.shape
    if n != c:
        raise ValueError("inverse of a non-square matrix")
    res = smith_normal_form(m)
    if any(x != 1 for x in res.diagonal):
        raise ValueError("matrix is not unimodular over the integers")
    return res.v @ res.u


@dataclass(frozen=True)
class CokernelInvariants:
    """Invariant factors of Z^rows / column-span, plus the free rank."""

    diagonal: tuple[int, ...]
    free_rank: int


def cokernel_invariants(a: IntMatrix) -> CokernelInvariants:
    res = smith_normal_form(a)
    return CokernelInvariants(res.diagonal, free_rank=a.shape[0] - res.rank)


@dataclass(frozen=True)
class HomologySummary:
    betti: tuple[int, int, int]
    torsion: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def chain_homology(d1: IntMatrix, d2: IntMatrix) -> HomologySummary:
    """Homology of a 2-complex straight from its boundary matrices.

    Only the Smith diagonals are read: Z^n1 / ker d1 is free, so the
    torsion of H1 = ker d1 / im d2 is the torsion of coker d2.
    """
    if any(x for row in (d1 @ d2).entries for x in row):
        raise ValueError("d1 @ d2 is not zero")
    (n0, n1), n2 = d1.shape, d2.shape[1]
    s1, s2 = smith_normal_form(d1), smith_normal_form(d2)
    t0, t1 = (tuple(d for d in s.diagonal if d > 1) for s in (s1, s2))
    return HomologySummary((n0 - s1.rank, n1 - s1.rank - s2.rank, n2 - s2.rank), (t0, t1, ()))


def _pairing(walk, phi) -> int:
    """The 1-cochain phi summed along a signed boundary walk: (delta phi)(cell)."""
    return sum(s * phi[a] for a, s in walk)


def _spanning_tree(count: int, ends, arcs) -> list[tuple[int, int | None]]:
    """Breadth-first tree from node 0 over the given arcs, as (node, arc to its parent)."""
    at: list[list[int]] = [[] for _ in range(count)]
    for aid in arcs:
        for v in ends[aid]:
            at[v].append(aid)
    order, seen = [(0, None)], {0}
    for v, _ in order:
        for aid in at[v]:
            u, w = ends[aid]
            x = w if u == v else u
            if x not in seen:
                seen.add(x)
                order.append((x, aid))
    return order


def tree_cotree(zero_cells, one_cells, walks):
    """Torus check and H1 basis of a 2-complex in O(cells).

    A spanning tree T of the 1-skeleton and a spanning tree C of the
    dual graph on the arcs outside T must leave exactly two arcs over.
    Contracting T and eliminating 2-cells at the leaves of C are
    unimodular steps, so H1 = Z^2 on the leftover arcs, with no torsion
    (Erickson and Whittlesey, SODA 2005). Returns (cycles, cocycles,
    sides): gamma_j closes leftover arc j in T, phi_i is 0 on T, 1 on
    leftover arc i, 0 on the other, solved leaves-first in C on the
    cotree arcs and checked at C's root, and sides[a] is arc a's two
    (2-cell, walk position, sign) uses, the +1 use first.
    """
    ends = [(c.tail, c.head) for c in one_cells]
    sides: list[list[tuple[int, int, int]]] = [[] for _ in one_cells]
    for cid, walk in enumerate(walks):
        for k, (aid, sign) in enumerate(walk):
            sides[aid].append((cid, k, sign))
            a2, s2 = walk[(k + 1) % len(walk)]
            # the head of this arc, after its sign, is the tail of the next
            if ends[aid][sign > 0] != ends[a2][s2 < 0]:
                raise InternalInvariantError(f"boundary walk of 2-cell {cid} does not close up")
    for aid, uses in enumerate(sides):
        if len(uses) != 2 or uses[0][2] + uses[1][2]:
            raise InternalInvariantError(
                f"arc {aid} is not traversed twice with opposite signs: {uses}")
    arcs = range(len(one_cells))
    tree = _spanning_tree(len(zero_cells), ends, arcs)
    tree_arcs = {aid for _, aid in tree}
    cotree = _spanning_tree(len(walks), [(c1, c2) for (c1, _, _), (c2, _, _) in sides],
                            [aid for aid in arcs if aid not in tree_arcs])
    for span, count, dim in ((tree, len(zero_cells), 0), (cotree, len(walks), 2)):
        if len(span) != count:
            raise InternalInvariantError(f"spanning tree reaches {len(span)} of {count} {dim}-cells")
    left = sorted(set(arcs) - tree_arcs - {aid for _, aid in cotree})
    if len(left) != 2:
        raise InternalInvariantError(
            f"{len(left)} arcs are left over by the tree and the cotree, expected 2")

    up = dict(tree[1:])
    cycles, cocycles = [], []
    for j in left:
        chain = {j: 1}
        for v, sign in ((ends[j][1], 1), (ends[j][0], -1)):
            while v in up:  # walk to the root of T
                aid = up[v]
                t, h = ends[aid]
                chain[aid] = chain.get(aid, 0) + (sign if t == v else -sign)
                v = h if t == v else t
        cycles.append(tuple(sorted((a, x) for a, x in chain.items() if x)))
        phi = [0] * len(one_cells)
        phi[j] = 1
        for c, aid in reversed(cotree[1:]):
            phi[aid] = -next(s for d, _, s in sides[aid] if d == c) * _pairing(walks[c], phi)
        if _pairing(walks[0], phi):
            raise InternalInvariantError(
                f"cocycle of leftover arc {j} fails the equation at the cotree root")
        cocycles.append(tuple(phi))
    return tuple(cycles), tuple(cocycles), tuple((u, w) if u[2] > 0 else (w, u) for u, w in sides)


def h1_action(p, a) -> IntMatrix:
    """Matrix of a cell automorphism on H1 = Z^2, in the basis of p.cycles.

    The automorphism must be a chain map, checked in O(cells): each arc's
    endpoints map onto its image's, after the sign (the boundary_1
    square), and each 2-cell's signed walk maps onto its image's walk up
    to rotation (the boundary_2 square). Entry (i, j) is the cocycle
    phi_i read on the image of the cycle gamma_j.
    """
    arcs, p0, p1 = p.one_cells, a.perm0, a.perm1
    for arc, (img, sg) in zip(arcs, p1):
        dst = arcs[img]
        want = (dst.tail, dst.head) if sg > 0 else (dst.head, dst.tail)
        if (p0[arc.tail], p0[arc.head]) != want:
            raise InternalInvariantError("automorphism does not commute with boundary_1")
    cells = p.two_cells
    for cell, t in zip(cells, a.perm2):
        moved = tuple((p1[x][0], p1[x][1] * s) for x, s in cell.boundary)
        walk = cells[t].boundary
        k = walk.index(moved[0]) if moved[0] in walk else None
        if k is None or walk[k:] + walk[:k] != moved:
            raise InternalInvariantError("automorphism does not commute with boundary_2")
    return IntMatrix.from_rows([[sum(c * p1[x][1] * phi[p1[x][0]] for x, c in gamma)
                                 for gamma in p.cycles] for phi in p.cocycles], cols=2)

"""Exact integer linear algebra: Smith normal form, cokernels, H1 of a partition.

All arithmetic is arbitrary-precision int. The Smith reduction uses a
fixed pivot rule, smallest nonzero absolute value with row-major tie
break, so results are reproducible bit for bit. H1 takes no Smith
form: a tree-cotree decomposition gives its basis, and a cell map's
action is read off it.
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
        elif cols is None:
            cols = 0
        return cls(rows, (len(rows), cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows(tuple(tuple(1 if i == j else 0 for j in range(n))
                                   for i in range(n)), cols=n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "IntMatrix":
        return cls(tuple(tuple(0 for _ in range(c)) for _ in range(r)), (r, c))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        r, k = self.shape
        k2, c = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = [other.column(j) for j in range(c)]
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


def _smith(a: IntMatrix):
    nr, nc = a.shape
    m = [list(r) for r in a.entries]

    def eye(n):
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # V is stored transposed (vt), so column ops on A are row ops on vt
    u, vt = eye(nr), eye(nc)

    def row_swap(i, j):
        for x in (m, u):
            x[i], x[j] = x[j], x[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        vt[i], vt[j] = vt[j], vt[i]

    def row_sub(i, q, k):
        for x in (m, u):
            x[i] = [y - q * z for y, z in zip(x[i], x[k])]

    def col_sub(j, q, k):
        for r in m:
            r[j] -= q * r[k]
        vt[j] = [y - q * z for y, z in zip(vt[j], vt[k])]

    t = 0
    while True:
        # pivot: smallest nonzero absolute value, row-major tie break
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = m[i][j]
                if e and (best is None or abs(e) < abs(best[0])):
                    best = (e, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    row_sub(i, q, t)
                    if m[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                # finish the column before the row: column ops taken while
                # entries remain below the pivot multiply them into the
                # rest of the matrix, and dense 6x6 inputs then grow to
                # millions of bits
                continue
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    col_sub(j, q, t)
                    if m[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % m[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull a non-divisible entry into the working row and repeat
            row_sub(t, -1, offender)
        t += 1
    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            for row in (m[i], u[i]):
                row[:] = [-x for x in row]
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

    @property
    def factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)

    def pair_nm(self) -> tuple[int, int]:
        """(n, nm) for a finite cokernel with at most two invariant factors."""
        if self.free_rank:
            raise ValueError("cokernel is infinite")
        fs = self.factors
        if len(fs) > 2:
            raise ValueError(f"more than two invariant factors: {fs}")
        padded = (1,) * (2 - len(fs)) + fs
        return padded


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
    (Erickson and Whittlesey, SODA 2005). Returns (cycles, cocycles):
    gamma_j closes leftover arc j in T, and phi_i is 0 on T, 1 on
    leftover arc i, 0 on the other, and is solved leaves-first in C on
    the cotree arcs; the equation at C's root is checked.
    """
    zc = {v: i for i, v in enumerate(zero_cells)}
    ends = [(zc[c.tail], zc[c.head]) for c in one_cells]
    occ: list[list[tuple[int, int]]] = [[] for _ in one_cells]
    for cid, walk in enumerate(walks):
        for k, (aid, sign) in enumerate(walk):
            occ[aid].append((cid, sign))
            a2, s2 = walk[(k + 1) % len(walk)]
            # the head of this arc, after its sign, is the tail of the next
            if ends[aid][sign > 0] != ends[a2][s2 < 0]:
                raise InternalInvariantError(f"boundary walk of 2-cell {cid} does not close up")
    for aid, uses in enumerate(occ):
        if len(uses) != 2 or uses[0][1] + uses[1][1]:
            raise InternalInvariantError(
                f"arc {aid} is not traversed twice with opposite signs: {uses}")
    arcs = range(len(one_cells))
    tree = _spanning_tree(len(zero_cells), ends, arcs)
    tree_arcs = {aid for _, aid in tree}
    cotree = _spanning_tree(len(walks), [(c1, c2) for (c1, _), (c2, _) in occ],
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
            phi[aid] = -dict(occ[aid])[c] * _pairing(walks[c], phi)
        if _pairing(walks[0], phi):
            raise InternalInvariantError(
                f"cocycle of leftover arc {j} fails the equation at the cotree root")
        cocycles.append(tuple(phi))
    return tuple(cycles), tuple(cocycles)


def h1_action(p, a) -> IntMatrix:
    """Matrix of a cell automorphism on H1 = Z^2, in the basis of p.cycles.

    The automorphism must be a chain map, checked in O(cells): each arc's
    endpoints map onto its image's, after the sign (the boundary_1
    square), and each 2-cell's signed walk maps onto its image's walk up
    to rotation (the boundary_2 square). Entry (i, j) is the cocycle
    phi_i read on the image of the cycle gamma_j.
    """
    zc = {v: i for i, v in enumerate(p.zero_cells)}
    arcs, p0, p1 = p.one_cells, a.perm0, a.perm1
    for arc, (img, sg) in zip(arcs, p1):
        dst = arcs[img]
        want = (dst.tail, dst.head) if sg > 0 else (dst.head, dst.tail)
        if (p0[zc[arc.tail]], p0[zc[arc.head]]) != (zc[want[0]], zc[want[1]]):
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

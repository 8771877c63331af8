"""Exact integer linear algebra: Smith normal form and cellular homology.

All arithmetic is arbitrary-precision int. The Smith reduction uses a
fixed pivot rule, smallest nonzero absolute value with row-major tie
break, so results are reproducible bit for bit. It also applies the
inverse of every elementary operation, so the transforms U and V come
with their exact inverses.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

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
    """U @ A @ V = D, with the exact inverses of U and V tracked alongside."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _smith_tracked(a: IntMatrix):
    nr, nc = a.shape
    m = [list(r) for r in a.entries]

    def eye(n):
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # U and V^-1 are stored as they are, V and U^-1 transposed (vt, ut), so
    # every transform only takes row operations: a row op E on U puts E^-1
    # on the right of U^-1, a column op F on V puts F^-1 on the left of V^-1
    u, ut, vt, vi = eye(nr), eye(nr), eye(nc), eye(nc)

    def row_swap(i, j):
        for x in (m, u, ut):
            x[i], x[j] = x[j], x[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for x in (vt, vi):
            x[i], x[j] = x[j], x[i]

    def row_sub(i, q, k):
        # row i -= q * row k, undone by column k += q * column i
        for x in (m, u):
            x[i] = [y - q * z for y, z in zip(x[i], x[k])]
        ut[k] = [y + q * z for y, z in zip(ut[k], ut[i])]

    def col_sub(j, q, k):
        # column j -= q * column k, undone by row k += q * row j
        for r in m:
            r[j] -= q * r[k]
        vt[j] = [y - q * z for y, z in zip(vt[j], vt[k])]
        vi[k] = [y + q * z for y, z in zip(vi[k], vi[j])]

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
            for row in (m[i], u[i], ut[i]):
                row[:] = [-x for x in row]
    return m, u, vt, ut, vi


# above this size the O(n^3) inverse products dominate, so only the cheap
# factorization identity is verified; the acceptance sweep runs tiny
# matrices through the full check
_FULL_CHECK_LIMIT = 80


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """U @ A @ V = D with U, V unimodular and D a divisibility diagonal."""
    m, u, vt, ut, vi = _smith_tracked(a)
    nr, nc = a.shape
    res = SnfResult(IntMatrix.from_rows(u, cols=nr),
                    IntMatrix.from_rows(m, cols=nc),
                    IntMatrix.from_rows(zip(*vt), cols=nc),
                    IntMatrix.from_rows(zip(*ut), cols=nr),
                    IntMatrix.from_rows(vi, cols=nc))
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
    if max(a.shape) <= _FULL_CHECK_LIMIT:
        # integer matrices with integer inverses are unimodular
        if ((res.u @ res.u_inv).entries != IntMatrix.identity(nr).entries
                or (res.v @ res.v_inv).entries != IntMatrix.identity(nc).entries):
            raise InternalInvariantError("Smith transform disagrees with its tracked inverse")
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


class _ChainBasis:
    """Shared machinery for H1 of a 2-complex given boundary matrices."""

    def __init__(self, d1: IntMatrix, d2: IntMatrix):
        n0, n1 = d1.shape
        n1b, n2 = d2.shape
        if n1 != n1b:
            raise ValueError("boundary matrices do not compose")
        prod = d1 @ d2
        if any(x for row in prod.entries for x in row):
            raise ValueError("d1 @ d2 is not zero")
        self.d1, self.d2 = d1, d2
        self.s1 = smith_normal_form(d1)
        self.r1 = self.s1.rank
        self.v1_inv = self.s1.v_inv
        folded = self.v1_inv @ d2
        for i in range(self.r1):
            if any(folded.entries[i]):
                raise InternalInvariantError("image of d2 leaks outside the kernel of d1")
        self.b_mat = IntMatrix.from_rows(folded.entries[self.r1:], cols=n2)
        self.s2 = smith_normal_form(self.b_mat)
        self.r2 = self.s2.rank
        self.u2 = self.s2.u
        self.u2_inv = self.s2.u_inv
        self.kernel_rank = n1 - self.r1

    def torsion1(self) -> tuple[int, ...]:
        return tuple(d for d in self.s2.diagonal if d > 1)

    def betti(self) -> tuple[int, int, int]:
        n0 = self.d1.shape[0]
        n2 = self.d2.shape[1]
        return (n0 - self.r1, self.kernel_rank - self.r2, n2 - self.r2)

    def summary(self) -> HomologySummary:
        t0 = tuple(d for d in self.s1.diagonal if d > 1)
        return HomologySummary(self.betti(), (t0, self.torsion1(), ()))

    @cached_property
    def free_h1_chains(self) -> IntMatrix:
        """Columns are 1-chains whose classes form a basis of free H1."""
        k = self.kernel_rank
        n1 = self.d1.shape[1]
        kernel_cols = [self.s1.v.column(self.r1 + t) for t in range(k)]
        coeff = self.u2_inv
        cols = []
        for t in range(self.r2, k):
            col = [0] * n1
            for i in range(k):
                ci = coeff[i, t]
                if ci:
                    for x in range(n1):
                        col[x] += ci * kernel_cols[i][x]
            cols.append(col)
        return IntMatrix.from_rows(
            tuple(tuple(col[x] for col in cols) for x in range(n1)),
            cols=len(cols))

    def h1_coords(self, chains: IntMatrix) -> IntMatrix:
        """Coordinates of cycle columns in the free H1 basis."""
        folded = self.v1_inv @ chains
        for i in range(self.r1):
            if any(folded.entries[i]):
                raise InternalInvariantError("chain is not a cycle")
        kern = IntMatrix.from_rows(folded.entries[self.r1:], cols=chains.shape[1])
        w = self.u2 @ kern
        # torsion/image coordinates (rows below r2 survive)
        return IntMatrix.from_rows(w.entries[self.r2:], cols=chains.shape[1])


def chain_homology(d1: IntMatrix, d2: IntMatrix) -> HomologySummary:
    """Homology of a 2-complex straight from its boundary matrices."""
    return _ChainBasis(d1, d2).summary()


def cellular_homology(p) -> HomologySummary:
    """Homology of a cell partition; (1, 2, 1) betti and no torsion on a torus.

    Reads the partition's cached chain basis, so h1_action reuses it.
    """
    return p.chain_basis.summary()


def h1_action(p, a) -> IntMatrix:
    """Matrix of a cell automorphism on free H1, in the basis chain_homology uses.

    The automorphism must be a chain map: commuting with both boundary
    operators is asserted before any quotient is taken. Its signed
    permutations act on the chains directly.
    """
    d1, d2 = p.boundary_1.entries, p.boundary_2.entries
    # arc j maps to sg * arc img, so the image of its boundary must be
    # sg times the boundary of arc img (and likewise for 2-cells)
    for j, (img, sg) in enumerate(a.perm1):
        if any(sg * d1[a.perm0[i]][img] != d1[i][j] for i in range(len(d1))):
            raise InternalInvariantError("automorphism does not commute with boundary_1")
    for j, (img, sg) in enumerate(a.perm1):
        row, image_row = d2[j], d2[img]
        if any(image_row[a.perm2[c]] != sg * row[c] for c in range(len(row))):
            raise InternalInvariantError("automorphism does not commute with boundary_2")
    basis = p.chain_basis
    h = basis.free_h1_chains
    moved = [None] * h.shape[0]
    for j, (img, sg) in enumerate(a.perm1):
        moved[img] = tuple(sg * x for x in h.row(j))
    return basis.h1_coords(IntMatrix.from_rows(moved, cols=h.shape[1]))

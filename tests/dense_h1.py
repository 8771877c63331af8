"""Reference H1 route: dense boundary matrices and their Smith bases.

``DenseH1`` is the chain basis ``krtorus`` used before the tree-cotree
route: the boundary matrices of a cell partition rebuilt from its arcs
and boundary walks, a Smith form of each, and the H1 action
read through them. It costs O(cells^3), so it only serves as the oracle
for the differential tests of ``krtorus.homology.h1_action`` and of the
partition's torus check.
"""
from __future__ import annotations

from functools import cached_property

from krtorus.errors import InternalInvariantError
from krtorus.homology import (HomologySummary, IntMatrix, smith_normal_form,
                              unimodular_inverse)

import oracles


def dense_boundaries(p) -> tuple[IntMatrix, IntMatrix]:
    """boundary_1 (0-cells x arcs) and boundary_2 (arcs x 2-cells) of a partition."""
    n1, n2 = len(p.one_cells), len(p.two_cells)
    zc = {v: i for i, v in enumerate(p.zero_cells)}
    d1 = [[0] * n1 for _ in p.zero_cells]
    for arc in p.one_cells:
        d1[zc[arc.head]][arc.id] += 1
        d1[zc[arc.tail]][arc.id] -= 1
    d2 = [[0] * n2 for _ in p.one_cells]
    for cell in p.two_cells:
        for aid, sign in cell.boundary:
            d2[aid][cell.id] += sign
    return IntMatrix.from_rows(d1, cols=n1), IntMatrix.from_rows(d2, cols=n2)


class DenseH1:
    """H1 of a 2-complex through the Smith bases of its boundary matrices."""

    def __init__(self, d1: IntMatrix, d2: IntMatrix):
        n1, n2 = d2.shape
        if any(x for row in (d1 @ d2).entries for x in row):
            raise ValueError("d1 @ d2 is not zero")
        self.d1, self.d2 = d1, d2
        self.s1 = smith_normal_form(d1)
        self.r1 = self.s1.rank
        self.v1_inv = unimodular_inverse(self.s1.v)
        folded = self.v1_inv @ d2
        for i in range(self.r1):
            if any(folded.entries[i]):
                raise InternalInvariantError("image of d2 leaks outside the kernel of d1")
        self.s2 = smith_normal_form(IntMatrix.from_rows(folded.entries[self.r1:], cols=n2))
        self.r2 = self.s2.rank
        self.kernel_rank = n1 - self.r1

    @classmethod
    def of(cls, p) -> "DenseH1":
        return cls(*dense_boundaries(p))

    def summary(self) -> HomologySummary:
        n0, n2 = self.d1.shape[0], self.d2.shape[1]
        betti = (n0 - self.r1, self.kernel_rank - self.r2, n2 - self.r2)
        t0 = tuple(d for d in self.s1.diagonal if d > 1)
        t1 = tuple(d for d in self.s2.diagonal if d > 1)
        return HomologySummary(betti, (t0, t1, ()))

    @cached_property
    def free_h1_chains(self) -> IntMatrix:
        """Columns are 1-chains whose classes form a basis of free H1."""
        # V[:, r1:] @ U2^-1[:, r2:]: kernel basis times the free-class coefficients
        k = self.kernel_rank
        kernel = IntMatrix.from_rows((r[self.r1:] for r in self.s1.v.entries), cols=k)
        u2_inv = unimodular_inverse(self.s2.u)
        coeff = IntMatrix.from_rows((r[self.r2:] for r in u2_inv.entries),
                                    cols=k - self.r2)
        return kernel @ coeff

    def h1_coords(self, chains: IntMatrix) -> IntMatrix:
        """Coordinates of cycle columns in the free H1 basis."""
        folded = self.v1_inv @ chains
        for i in range(self.r1):
            if any(folded.entries[i]):
                raise InternalInvariantError("chain is not a cycle")
        kern = IntMatrix.from_rows(folded.entries[self.r1:], cols=chains.shape[1])
        w = self.s2.u @ kern
        return IntMatrix.from_rows(w.entries[self.r2:], cols=chains.shape[1])

    def action(self, a):
        """Matrix of a cell automorphism on free H1, or None if it is not a chain map."""
        m0, m1, m2 = oracles.signed_permutation_matrices(a.perm0, a.perm1, a.perm2)
        b1, b2 = self.d1.to_lists(), self.d2.to_lists()
        if (oracles.matmul(m0, b1) != oracles.matmul(b1, m1)
                or oracles.matmul(m1, b2) != oracles.matmul(b2, m2)):
            return None
        h = self.free_h1_chains.to_lists()
        return self.h1_coords(IntMatrix.from_rows(oracles.matmul(m1, h))).to_lists()

    def cycle_coords(self, cycles) -> list[list[int]]:
        """Columns j: coordinates of the sparse 1-chain cycles[j] in the free H1 basis."""
        n1 = self.d2.shape[0]
        cols = []
        for gamma in cycles:
            col = [0] * n1
            for aid, c in gamma:
                col[aid] += c
            cols.append(col)
        return self.h1_coords(IntMatrix.from_rows(zip(*cols), cols=len(cols))).to_lists()


def cellular_homology(p) -> HomologySummary:
    """Homology of a cell partition; (1, 2, 1) betti and no torsion on a torus."""
    return DenseH1.of(p).summary()

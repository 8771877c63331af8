"""Integer matrices, Smith reduction, cokernels and chain homology."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import krtorus.homology
from krtorus.errors import InternalInvariantError
from krtorus.fields import pullback_cosine_field
from krtorus.homology import (IntMatrix, chain_homology, cokernel_invariants, h1_action,
                              smith_normal_form, unimodular_inverse)
from krtorus.partition import build_partition
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.symmetry import CellAutomorphism, enumerate_symmetries

import oracles
from dense_h1 import DenseH1, cellular_homology


def snf_ok(rows):
    a = IntMatrix.from_rows(rows)
    res = smith_normal_form(a)
    assert abs(oracles.det(res.u.to_lists())) == 1
    assert abs(oracles.det(res.v.to_lists())) == 1
    assert (res.u @ a @ res.v).to_lists() == res.d.to_lists()
    diag = res.diagonal
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] and diag[i + 1] % diag[i] == 0
    return res


def test_snf_frozen_cases():
    assert snf_ok([[6, 0], [0, 2]]).diagonal == (2, 6)
    assert snf_ok([[2, 2], [0, 4]]).diagonal == (2, 4)
    assert snf_ok([[2, 0], [1, 2]]).diagonal == (1, 4)
    assert snf_ok([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).diagonal == (1, 3, 0)
    assert snf_ok([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert snf_ok([[5]]).diagonal == (5,)


def test_snf_rectangular():
    assert snf_ok([[2, 4, 4]]).diagonal == (2,)
    assert snf_ok([[1], [2], [3]]).diagonal == (1,)
    res = snf_ok([[2, 0], [0, 3], [0, 0]])
    assert res.diagonal == (1, 6)
    assert res.rank == 2


def test_snf_negative_entries():
    res = snf_ok([[-2, 0], [0, -3]])
    assert res.diagonal == (1, 6)
    assert all(d >= 0 for d in res.diagonal)


def test_det_and_identity():
    a = IntMatrix.from_rows([[2, 2], [0, 4]])
    assert oracles.det(a.to_lists()) == 8
    i3 = oracles.identity(3)
    assert oracles.det(i3.to_lists()) == 1
    assert (a @ oracles.identity(2)).to_lists() == a.to_lists()


def test_unimodular_inverse():
    u = IntMatrix.from_rows([[2, 1], [1, 1]])
    w = unimodular_inverse(u)
    assert (u @ w).to_lists() == oracles.identity(2).to_lists()
    assert (w @ u).to_lists() == oracles.identity(2).to_lists()
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


@st.composite
def small_matrices(draw):
    """Integer matrices up to 6x7, entries in [-9, 9]; some rows are made dependent."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 7))
    m = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows >= 2 and draw(st.booleans()):
        # overwrite the last row with a combination of the first two
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return IntMatrix.from_rows(m, cols=cols)


@settings(max_examples=300, deadline=None)
@given(small_matrices())
@example(oracles.zeros(3, 4))
@example(IntMatrix.from_rows([[2, 4, 6], [1, 2, 3], [3, 6, 9]]))
@example(oracles.zeros(0, 3))
# a dense case whose entries once grew to millions of bits mid-reduction
@example(IntMatrix.from_rows([[0, 3, -8, 2, 7, 6], [-3, 4, 5, -7, 4, -4],
                              [-3, -7, -6, 8, 8, 8], [5, -2, -5, 0, 9, -3],
                              [3, -5, 2, 9, 2, 7], [2, -2, -6, 3, -4, -9]]))
def test_snf_transforms_are_unimodular(a):
    res = smith_normal_form(a)
    nr, nc = a.shape
    assert (res.u @ a @ res.v).entries == res.d.entries
    for w, n in ((res.u, nr), (res.v, nc)):
        assert abs(oracles.det(w.to_lists())) == 1
        w_inv = unimodular_inverse(w)
        ident = oracles.identity(n).entries
        assert (w @ w_inv).entries == ident
        assert (w_inv @ w).entries == ident


def test_cokernel_against_oracle_spot():
    # a nonsingular 2 x 2 matrix: the Smith diagonal is the pair (d1, d2)
    for rows in ([[2, 0], [0, 4]], [[2, 2], [0, 4]], [[3, 1], [0, 3]],
                 [[1, 0], [0, 1]], [[4, 2], [2, 4]]):
        inv = cokernel_invariants(IntMatrix.from_rows(rows))
        assert inv.free_rank == 0
        assert inv.diagonal == oracles.cokernel_pair(rows)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_cokernel_factor_oracle_matches_smith(a):
    # the Cayley-table oracle in tests/test_symmetry.py relies on this one
    inv = cokernel_invariants(a)
    want = None if inv.free_rank else oracles.invariant_factors(inv.diagonal)
    assert oracles.cokernel_factors(a.to_lists()) == want


def test_cokernel_with_free_part():
    inv = cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 0]]))
    assert inv.free_rank == 1
    assert oracles.invariant_factors(inv.diagonal) == (2,)


def test_pair_nm_requires_two_factors_dividing():
    # the grid pair (n, nm) of Z^2 / A Z^2 is A's Smith diagonal, n | nm,
    # padded with 1 where a factor is trivial
    for rows, pair in (([[2, 0], [0, 6]], (2, 6)), ([[2, 0], [0, 3]], (1, 6)),
                       ([[1, 0], [0, 1]], (1, 1)), ([[5, 0], [0, 1]], (1, 5))):
        assert cokernel_invariants(IntMatrix.from_rows(rows)).diagonal == pair
        assert oracles.cokernel_pair(rows) == pair


def test_matrix_arguments_are_checked():
    assert IntMatrix.from_rows([]).shape == (0, 0)
    assert IntMatrix.from_rows([], cols=3).shape == (0, 3)
    with pytest.raises(ValueError, match="explicit column count disagrees with rows"):
        IntMatrix.from_rows([[1, 2]], cols=3)
    with pytest.raises(ValueError, match=r"shape mismatch \(1, 2\) @ \(1, 2\)"):
        IntMatrix.from_rows([[1, 2]]) @ IntMatrix.from_rows([[1, 2]])
    # a segment whose one edge bounds a face: d1 @ d2 = (-1, 1)
    with pytest.raises(ValueError, match="d1 @ d2 is not zero"):
        chain_homology(IntMatrix.from_rows([[-1], [1]]), IntMatrix.from_rows([[1]]))


def test_chain_homology_circle():
    # one 0-cell, one 1-cell, no 2-cells: d1 = 0
    d1 = oracles.zeros(1, 1)
    d2 = oracles.zeros(1, 0)
    h = chain_homology(d1, d2)
    assert h.betti == (1, 1, 0)
    assert h.torsion == ((), (), ())


def test_chain_homology_klein_bottle():
    # standard square-identification CW structure
    d1 = oracles.zeros(1, 2)
    d2 = IntMatrix.from_rows([[2], [0]])
    h = chain_homology(d1, d2)
    assert h.betti == (1, 1, 0)
    assert h.torsion == ((), (2,), ())


def test_chain_homology_torus_square():
    d1 = oracles.zeros(1, 2)
    d2 = oracles.zeros(2, 1)
    h = chain_homology(d1, d2)
    assert h.betti == (1, 2, 1)
    assert h.torsion == ((), (), ())


def test_cellular_homology_of_partitions(stage):
    for name in ("two-cell", "z2-sym", "z2xz2-sym"):
        h = cellular_homology(stage(name).part)
        assert h.betti == (1, 2, 1)
        assert h.torsion == ((), (), ())


def test_h1_action_identity(stage):
    st = stage("z2xz2-sym")
    a = oracles.identity_automorphism(st.part)
    assert h1_action(st.part, a).to_lists() == oracles.identity(2).to_lists()


PULLBACKS = {"pullback-2-2": ((2, 0), (0, 2)), "pullback-4-4": ((4, 0), (0, 4))}


@pytest.mark.parametrize("case", ["z2xz2-sym", "pullback-2-2", "pullback-4-4"])
def test_h1_action_matches_dense_reference(stage, case):
    # the sparse action in the basis of p.cycles against the dense one in
    # the Smith basis: with P the dense coordinates of the two cycles,
    # D @ P == P @ M, and P is unimodular, so the cycles do span H1
    if case == "z2xz2-sym":
        s, p = stage(case).surface, stage(case).part
    else:
        s = pullback_cosine_field(32, PULLBACKS[case])
        g = compute_reeb(s)
        p = build_partition(s, g, find_special_vertex(g))
    dense = DenseH1.of(p)
    basis = dense.cycle_coords(p.cycles)
    assert abs(oracles.det(basis)) == 1
    cands = list(oracles.all_flag_automorphisms(p).values())
    # rejected candidates are compared too, not only the kept symmetries
    assert len(cands) > len(enumerate_symmetries(p))
    for a in cands:
        want = dense.action(a)
        assert want is not None
        got = h1_action(p, a).to_lists()
        assert oracles.matmul(want, basis) == oracles.matmul(basis, got)


def test_h1_action_rejects_sign_flipped_arc(stage):
    p = stage("z2xz2-sym").part
    ident = oracles.identity_automorphism(p)
    # a loop keeps its endpoints when flipped, so take an arc that is not one
    arc = next(c.id for c in p.one_cells if c.tail != c.head)
    perm1 = list(ident.perm1)
    perm1[arc] = (arc, -1)
    bad = CellAutomorphism(ident.perm0, tuple(perm1), ident.perm2)
    assert DenseH1.of(p).action(bad) is None
    with pytest.raises(InternalInvariantError, match="boundary_1"):
        h1_action(p, bad)


def test_h1_action_rejects_mismatched_two_cells(stage):
    # 0- and 1-cells fixed, two 2-cells with different walks swapped:
    # only the boundary_2 check fails
    p = stage("z2xz2-sym").part
    ident = oracles.identity_automorphism(p)
    cells = p.two_cells
    other = next(c for c in range(1, len(cells))
                 if sorted(cells[c].boundary) != sorted(cells[0].boundary))
    perm2 = list(ident.perm2)
    perm2[0], perm2[other] = other, 0
    bad = CellAutomorphism(ident.perm0, ident.perm1, tuple(perm2))
    assert DenseH1.of(p).action(bad) is None
    with pytest.raises(InternalInvariantError, match="boundary_2"):
        h1_action(p, bad)


@pytest.mark.parametrize("d, message", [
    ([[1, 1], [0, 1]], "Smith form is not diagonal"),
    ([[0, 0], [0, 1]], "zero before nonzero on the Smith diagonal"),
    ([[2, 0], [0, 3]], "Smith diagonal is not a divisibility chain"),
    ([[1, 0], [0, -1]], "negative Smith diagonal entry"),
    ([[1, 0], [0, 2]], "Smith factorization identity failed"),
])
def test_smith_postconditions_catch_a_wrong_reduction(monkeypatch, d, message):
    # each D breaks one postcondition and passes the ones checked before it;
    # U = V = 1 on A = 1, so only the last D fails U A V = D alone
    monkeypatch.setattr(krtorus.homology, "_smith", lambda a: (d, [[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    with pytest.raises(InternalInvariantError, match=message):
        smith_normal_form(oracles.identity(2))

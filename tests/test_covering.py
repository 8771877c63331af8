"""Exact covering fields: the group of a lifted field against the Smith form of A.

``oracles.covering_field(n, A)`` lifts the ``two-cell`` grid field
through the covering Z^2 / (nA)Z^2 -> Z^2 / nZ^2 without the package.
The lift is simplicial, so the two 2-cells of the base lift to 2|det A|
cells, and the deck group Z^2 / AZ^2 acts freely on them in two orbits:
``analyze`` must find exactly that group.
"""
from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.pipeline import analyze
from krtorus.surface import SurfaceField

import oracles

BASE = 8


def _matrices():
    # non-cyclic groups first: grid pullbacks reach few of them
    mats = [((1, 0), (0, 1)), ((2, 0), (0, 2)), ((3, 0), (0, 3)), ((4, 0), (0, 4)),
            ((2, 0), (0, 4)), ((2, 0), (0, 8)), ((2, 2), (-2, 2)), ((0, 4), (-2, 0))]
    rng = random.Random(11)
    while len(mats) < 20:
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2))
        if 1 <= abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) <= 16 and m not in mats:
            mats.append(m)
    return mats


def _product(u, a):
    return tuple(tuple(sum(u[i][t] * a[t][j] for t in range(2)) for j in range(2))
                 for i in range(2))


def _left_factor(rng, mat):
    """Seeded unimodular U = [[1, a], [0, 1]] [[1, 0], [b, 1]] other than I.

    Unless A is scalar, U is drawn again until U A spans another lattice
    than A, so that the covering itself changes.
    """
    (p, q), (r, s) = mat
    scalar = q == r == 0 and p == s
    while True:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        u = ((1 + a * b, a), (b, 1))
        # U A spans the lattice of A iff adj(A) U A = 0 mod det A
        adj_ua = _product(((s, -q), (-r, p)), _product(u, mat))
        same = all(x % (p * s - q * r) == 0 for row in adj_ua for x in row)
        if (a or b) and (scalar or not same):
            return u


# the hand-picked head of _matrices(): seven non-cyclic groups and the trivial one
_rng = random.Random(13)
LEFT_FACTOR_CASES = [(mat, _left_factor(_rng, mat)) for mat in _matrices()[:8]]


def _summary(s):
    report = analyze(s)
    sym = report.symmetry
    cells = tuple(report.special[k] for k in ("zero_cells", "one_cells", "two_cells"))
    return (sym["n"], sym["m"], sym["r"]), sym["order"], cells, report.group["expr"]


@lru_cache(maxsize=None)
def _group_summary(mat):
    return _summary(SurfaceField(*oracles.covering_field(BASE, mat)))


def test_covering_field_is_a_torus_of_the_right_size():
    for mat in ((2, 0), (0, 2)), ((3, -4), (0, 2)):
        tris, values = oracles.covering_field(BASE, mat)
        det = abs(mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0])
        assert len(values) == BASE * BASE * det
        assert len(tris) == 2 * len(values)
        assert oracles.euler_characteristic(tris) == 0


def _unimodular(steps):
    """The product of the elementary matrices [[1, t], [0, 1]] ("u"),
    [[1, 0], [t, 1]] ("l") and [[1, 0], [0, -1]] ("f", t unused)."""
    v = ((1, 0), (0, 1))
    for kind, t in steps:
        v = _product(v, {"u": ((1, t), (0, 1)), "l": ((1, 0), (t, 1)),
                         "f": ((1, 0), (0, -1))}[kind])
    return v


@pytest.mark.parametrize("mat", _matrices()[:8], ids=str)
@settings(max_examples=10, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from("ulf"), st.integers(-3, 3)), max_size=4))
def test_unimodular_right_factor_keeps_the_covering_field(mat, steps):
    # A V Z^2 = A Z^2 when V is unimodular: the same lattice, so the same field
    av = _product(mat, _unimodular(steps))
    assert oracles.covering_field(BASE, av) == oracles.covering_field(BASE, mat)


@pytest.mark.parametrize("mat", _matrices(), ids=str)
def test_covering_group_is_the_deck_group(mat):
    tris, values = oracles.covering_field(BASE, mat)
    det = abs(mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0])
    report = analyze(SurfaceField(tris, values))
    sym = report.symmetry
    assert (sym["n"], sym["n"] * sym["m"]) == oracles.cokernel_pair(mat)
    assert sym["order"] == det
    assert sym["r"] == 2
    assert report.special["two_cells"] == 2 * det


@pytest.mark.parametrize("mat,u", LEFT_FACTOR_CASES, ids=str)
def test_unimodular_left_factor_keeps_the_group(mat, u):
    # UA Z^2 = U(A Z^2): another covering (unless A is scalar) whose deck
    # group is isomorphic to that of A
    ua = _product(u, mat)
    assert ua != mat
    assert _group_summary(ua) == _group_summary(mat)


@pytest.mark.parametrize("mat", _matrices()[:8], ids=str)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_triangle_rotation_and_order_keep_the_group(mat, seed):
    # renumbering the triangles renumbers the cells, their orbits and the
    # corners of every disk cut, so each disk is checked afresh at its walk
    tris, values = oracles.covering_field(BASE, mat)
    rng = random.Random(seed)
    tris = [tri[k:] + tri[:k] for tri in tris for k in [rng.randrange(3)]]
    rng.shuffle(tris)
    assert _summary(SurfaceField(tris, values)) == _group_summary(mat)

"""Exact covering fields: the group of a lifted field against the Smith form of A.

``oracles.covering_field(n, A)`` lifts the ``two-cell`` grid field
through the covering Z^2 / (nA)Z^2 -> Z^2 / nZ^2 without the package.
The lift is simplicial, so the two 2-cells of the base lift to 2|det A|
cells, and the deck group Z^2 / AZ^2 acts freely on them in two orbits:
``analyze`` must find exactly that group.
"""
from __future__ import annotations

import random

import pytest

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


def test_covering_field_is_a_torus_of_the_right_size():
    for mat in ((2, 0), (0, 2)), ((3, -4), (0, 2)):
        tris, values = oracles.covering_field(BASE, mat)
        det = abs(mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0])
        assert len(values) == BASE * BASE * det
        assert len(tris) == 2 * len(values)
        assert oracles.euler_characteristic(tris) == 0
    # A and AV span the same lattice when V is unimodular: the same field
    assert (oracles.covering_field(BASE, ((3, -4), (0, 2)))
            == oracles.covering_field(BASE, ((3, -1), (0, 2))))


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

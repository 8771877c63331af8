"""Negation, positive affine rescaling, lattice translation and vertex
relabeling leave the analysis unchanged.

The partition and its symmetries depend only on the order of the values,
and negation reverses that order: it turns the Reeb tree upside down and
keeps the special vertex, its cells and their symmetries. A lattice
translation f(i + di, j + dj) is a simplicial automorphism of the grid
torus, so it relabels the cells and keeps everything else. Each map must
keep ``(n, m, r)``, the three cell counts and the group expression on
the tree presets at grids 16 and 32 and on the pullbacks of the bench's
``pullback-groups`` workload. Each value map is first checked to be
strictly monotone on the field's distinct values, so that two values
merged by float rounding cannot pass as an invariance. Besides four
fixed maps, hypothesis draws a * f + b with a != 0, on those fields and
on three covering fields of ``test_covering.py``, and skips a draw that
is not strictly monotone there. A vertex relabeling renames the
vertices of the mesh and moves their values along; it keeps the index
order within each set of equal values, since ties are broken by index,
and is drawn by hypothesis.
"""
from __future__ import annotations

import math
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krtorus.fields import grid_field, grid_vertex, preset_field, pullback_cosine_field
from krtorus.pipeline import analyze
from krtorus.surface import SurfaceField

import oracles

FIELDS = {f"{name}@{grid}": (preset_field, name, grid)
          for name in ("two-cell", "z2-sym", "z2xz2-sym") for grid in (16, 32)}
FIELDS.update({
    "diag(2,2)@32": (pullback_cosine_field, 32, ((2, 0), (0, 2))),
    "diag(3,3)@48": (pullback_cosine_field, 48, ((3, 0), (0, 3))),
    "((2,1),(-1,2))@40": (pullback_cosine_field, 40, ((2, 1), (-1, 2))),
    "diag(4,4)@32": (pullback_cosine_field, 32, ((4, 0), (0, 4))),
})

# the head of test_covering._matrices(), lifted from its base grid 8
COVERING = {f"covering {mat}": (lambda mat: SurfaceField(*oracles.covering_field(8, mat)), mat)
            for mat in (((2, 0), (0, 2)), ((2, 0), (0, 4)), ((2, 2), (-2, 2)))}

# name -> (map, +1 if it keeps the order of values, -1 if it reverses it)
MAPS = {
    "-f": (lambda x: -x, -1),
    "2f": (lambda x: 2 * x, 1),
    "f/2+3": (lambda x: x / 2 + 3, 1),
    "3f-1": (lambda x: 3 * x - 1, 1),
}

# name -> the shift (di, dj) on an N x N grid
SHIFTS = {
    "(1,0)": lambda n: (1, 0),
    "(0,1)": lambda n: (0, 1),
    "(3,5)": lambda n: (3, 5),
    "(7,2)": lambda n: (7, 2),
    "(N/2,N/4)": lambda n: (n // 2, n // 4),
    "(N-1,N-1)": lambda n: (n - 1, n - 1),
}


@lru_cache(maxsize=None)
def _field(key) -> SurfaceField:
    make, *args = FIELDS[key] if key in FIELDS else COVERING[key]
    return make(*args)


def _summary(s: SurfaceField) -> tuple:
    rep = analyze(s)
    return (tuple(rep.symmetry[k] for k in "nmr"),
            tuple(rep.special[k] for k in ("zero_cells", "one_cells", "two_cells")),
            rep.group["expr"])


@lru_cache(maxsize=None)
def _base_summary(key) -> tuple:
    return _summary(_field(key))


@pytest.mark.parametrize("map_name", sorted(MAPS))
@pytest.mark.parametrize("key", sorted(FIELDS))
def test_analysis_is_invariant(key, map_name):
    fn, direction = MAPS[map_name]
    s = _field(key)
    mapped = tuple(map(fn, s.values))
    images = [y for _, y in sorted(dict(zip(s.values, mapped)).items())]
    assert all(direction * (b - a) > 0 for a, b in zip(images, images[1:]))
    assert _summary(SurfaceField(s.triangles, mapped, s.coords)) == _base_summary(key)


@pytest.mark.parametrize("key", sorted(FIELDS) + sorted(COVERING))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(a=st.one_of(st.floats(-64, -1 / 64), st.floats(1 / 64, 64)), b=st.floats(-1e3, 1e3))
def test_analysis_is_invariant_under_drawn_affine_maps(key, a, b):
    s = _field(key)
    mapped = tuple(a * x + b for x in s.values)
    images = [y for _, y in sorted(dict(zip(s.values, mapped)).items())]
    # rounding can merge two values under a map that is monotone on the reals
    assume(all(a * (y - x) > 0 for x, y in zip(images, images[1:])))
    assert _summary(SurfaceField(s.triangles, mapped, s.coords)) == _base_summary(key)


@pytest.mark.parametrize("shift", sorted(SHIFTS))
@pytest.mark.parametrize("key", sorted(FIELDS))
def test_analysis_is_translation_invariant(key, shift):
    s = _field(key)
    n = math.isqrt(len(s.values))
    di, dj = SHIFTS[shift](n)
    moved = grid_field(n, lambda i, j: s.values[grid_vertex(n, i + di, j + dj)])
    assert _summary(moved) == _base_summary(key)


def _relabeled(s: SurfaceField, perm) -> SurfaceField:
    """s with vertex v renamed, after equal values get their new names in index order."""
    by_value: dict = {}
    for v in range(len(s.values)):
        by_value.setdefault(s.values[v], []).append(v)
    name = [0] * len(perm)
    for group in by_value.values():
        for v, w in zip(group, sorted(perm[v] for v in group)):
            name[v] = w
    values, coords = [None] * len(name), None if s.coords is None else [None] * len(name)
    for v, w in enumerate(name):
        values[w] = s.values[v]
        if coords is not None:
            coords[w] = s.coords[v]
    tris = [(name[a], name[b], name[c]) for a, b, c in s.triangles]
    return SurfaceField(tris, values, coords)


RELABELED = ("two-cell@16", "z2-sym@32", "z2xz2-sym@16", "diag(2,2)@32", "diag(4,4)@32")


@pytest.mark.parametrize("key", RELABELED)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_analysis_is_relabeling_invariant(key, data):
    s = _field(key)
    perm = data.draw(st.permutations(range(len(s.values))), label="perm")
    moved = _relabeled(s, perm)
    assert sorted(moved.values) == sorted(s.values)
    assert _summary(moved) == _base_summary(key)

"""Shared fixtures: model fields and cached pipeline stages."""
from __future__ import annotations

from types import SimpleNamespace

import pytest

from krtorus.fields import grid_vertex, preset_field
from krtorus.partition import build_partition
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.surface import SurfaceField
from krtorus.symmetry import enumerate_symmetries, group_structure, index_orbits

TREE_PRESETS = ("two-cell", "z2-sym", "z2xz2-sym")

_surfaces: dict = {}
_stages: dict = {}


def _surface(name: str, n: int = 16) -> SurfaceField:
    key = (name, n)
    if key not in _surfaces:
        _surfaces[key] = preset_field(name, n)
    return _surfaces[key]


def _stage(name: str, n: int = 16) -> SimpleNamespace:
    # one full pipeline run per preset and grid, shared across the whole session
    key = (name, n)
    if key not in _stages:
        s = _surface(name, n)
        g = compute_reeb(s)
        node = find_special_vertex(g)
        p = build_partition(s, g, node)
        elements = enumerate_symmetries(p)
        sg = group_structure(elements)
        table, reps = index_orbits(sg, p)
        _stages[key] = SimpleNamespace(
            surface=s, graph=g, node=node, part=p,
            elements=elements, group=sg, table=table, reps=reps, r=len(reps))
    return _stages[key]


@pytest.fixture(scope="session")
def surface():
    return _surface


@pytest.fixture(scope="session")
def stage():
    return _stage


def twin_peaks_field() -> SurfaceField:
    """Two equal peaks over a ridge saddle replace the lone maximum.

    Gives a multi-node subtree on the upper side of the special vertex
    (saddle at 2.5, maxima at 3.0) while the level-0 structure, and so
    the cell partition, stays that of the plain two-cell model.
    """
    base = _surface("two-cell")
    vals = list(base.values)
    for (i, j), v in (((0, 0), 2.5), ((1, 0), 2.6), ((15, 0), 2.6),
                      ((2, 0), 3.0), ((14, 0), 3.0)):
        vals[grid_vertex(16, i, j)] = v
    return SurfaceField(base.triangles, vals, base.coords)


@pytest.fixture(scope="session")
def twin_peaks() -> SurfaceField:
    return twin_peaks_field()

"""Disk extraction: the cut against a whole-region oracle, broken cells, coordinates.

``extract_disk_field`` cuts each orbit representative 2-cell free of the
torus. ``oracles.cut_disk`` makes the same cut from the raw refined
triangles by gluing corners across every region edge that does not join
two walk vertices; the two must agree on every field of the disk.
"""
from __future__ import annotations

import dataclasses
import math

import pytest

from krtorus.errors import InternalInvariantError
from krtorus.fields import preset_field, pullback_cosine_field
from krtorus.partition import build_partition
from krtorus.pipeline import analyze, extract_disk_field
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.surface import SurfaceField, dump_surface
from krtorus.symmetry import enumerate_symmetries, group_structure, index_orbits

import oracles

CASES = (
    [(f"{name}@{n}", lambda name=name, n=n: preset_field(name, n))
     for name in ("two-cell", "z2-sym", "z2xz2-sym") for n in (16, 32, 64)]
    + [(f"pullback {mat}@{n}", lambda mat=mat, n=n: pullback_cosine_field(n, mat))
       for mat, n in ((((2, 0), (0, 2)), 32), (((3, 0), (0, 3)), 48),
                      (((2, 1), (-1, 2)), 40), (((4, 0), (0, 4)), 32))]
    + [(f"covering {mat}", lambda mat=mat: SurfaceField(*oracles.covering_field(8, mat)))
       for mat in (((2, 0), (0, 4)), ((2, 2), (-2, 2)))])


def _partition(s):
    g = compute_reeb(s)
    p = build_partition(s, g, find_special_vertex(g))
    table, r = index_orbits(group_structure(enumerate_symmetries(s, p)), p)
    return p, table, r


def _representative(table, i):
    return [tuple(t) for t in table].index((i, 0, 0))


@pytest.mark.parametrize("make", [m for _, m in CASES], ids=[k for k, _ in CASES])
def test_disk_matches_whole_region_cut(make):
    s = make()
    p, table, r = _partition(s)
    for i in range(1, r + 1):
        disk = extract_disk_field(p, table, i)
        rep = _representative(table, i)
        cell = p.two_cells[rep]
        tris, values, boundary, sources = oracles.cut_disk(
            p.refined_triangles, p.refined_values, cell.refined_triangles,
            cell.boundary_vertices)
        assert disk.cell == rep
        assert list(disk.surface.triangles) == tris
        assert list(disk.surface.values) == values
        assert list(disk.boundary) == boundary
        assert list(disk.source_vertices) == sources


def _with_cell(p, rep, **changes):
    cells = list(p.two_cells)
    cells[rep] = dataclasses.replace(cells[rep], **changes)
    return dataclasses.replace(p, two_cells=tuple(cells))


@pytest.mark.parametrize("at_walk", [False, True], ids=["off-walk", "at-walk"])
def test_cell_missing_a_triangle_is_rejected(stage, at_walk):
    st = stage("two-cell")
    rep = _representative(st.table, 1)
    cell = st.part.two_cells[rep]
    walk = set(cell.boundary_vertices)
    lost = next(ti for ti in cell.refined_triangles
                if any(u in walk for u in st.part.refined_triangles[ti]) == at_walk)
    kept = tuple(ti for ti in cell.refined_triangles if ti != lost)
    broken = _with_cell(st.part, rep, refined_triangles=kept)
    with pytest.raises(InternalInvariantError):
        extract_disk_field(broken, st.table, 1)


def test_cell_with_reversed_walk_is_rejected(stage):
    st = stage("z2-sym")
    rep = _representative(st.table, 2)
    walk = st.part.two_cells[rep].boundary_vertices
    broken = _with_cell(st.part, rep, boundary_vertices=tuple(reversed(walk)))
    with pytest.raises(InternalInvariantError, match="disagrees with the cell walk"):
        extract_disk_field(broken, st.table, 2)


def _torus_embedding(n, big=2.0, small=1.0):
    # vertex j*n + i of the grid torus at angles 2 pi i / n and 2 pi j / n
    out = []
    for j in range(n):
        phi = 2 * math.pi * j / n
        for i in range(n):
            theta = 2 * math.pi * i / n
            ring = big + small * math.cos(phi)
            out.append((ring * math.cos(theta), ring * math.sin(theta), small * math.sin(phi)))
    return out


def test_coordinates_ride_along_to_the_disks():
    bare = preset_field("z2-sym", 16)
    s = SurfaceField(bare.triangles, bare.values, _torus_embedding(16))
    plain, placed = analyze(bare).to_json(), analyze(s).to_json()
    for disk in plain["disks"]:
        disk.pop("field")
    fields = [disk.pop("field") for disk in placed["disks"]]
    assert placed == plain

    p, table, r = _partition(s)
    crossings = 0
    for i, text in zip(range(1, r + 1), fields, strict=True):
        disk = extract_disk_field(p, table, i)
        assert text == dump_surface(disk.surface)
        assert disk.surface.coords == tuple(p.refined_coords[u] for u in disk.source_vertices)
        crossings += sum(u >= s.vertex_count for u in disk.source_vertices)
    assert crossings  # interpolated coordinates of level crossings are exercised

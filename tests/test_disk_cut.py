"""Disk extraction: the cut against a whole-region oracle, broken cells, coordinates.

``extract_disk_field`` cuts each orbit representative 2-cell free of the
torus by one turn around each walk visit: the corners a visit passes
become one disk vertex, and the visits in walk order are the rim.
``oracles.cut_disk`` makes the same cut from the raw refined triangles by
gluing corners across every region edge that does not join two walk
vertices, and reads the rim off the darts without a reverse; the two must
agree on every field of the disk, for every 2-cell and walk rotation.
"""
from __future__ import annotations

import dataclasses
import math
import random

import pytest

from krtorus.errors import InputRejected, InternalInvariantError
from krtorus.fields import preset_field, pullback_cosine_field
from krtorus.partition import build_partition
from krtorus.pipeline import analyze, extract_disk_field
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.surface import SurfaceField, dump_surface
from krtorus.symmetry import enumerate_symmetries, group_structure, index_orbits

import oracles
from test_partition import DIFFERENTIAL_FIELDS, _coarse_pool

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
    return p, index_orbits(group_structure(enumerate_symmetries(s, p)), p)[1]


@pytest.mark.parametrize("make", [m for _, m in CASES], ids=[k for k, _ in CASES])
def test_disk_matches_whole_region_cut(make):
    s = make()
    p, reps = _partition(s)
    for rep in reps:
        disk = extract_disk_field(p, rep)
        cell = p.two_cells[rep]
        tris, values, boundary, sources = oracles.cut_disk(
            p.refined_triangles, p.refined_values, cell.refined_triangles,
            cell.boundary_vertices)
        assert list(disk.surface.triangles) == tris
        assert list(disk.surface.values) == values
        assert list(disk.boundary) == boundary
        assert list(disk.source_vertices) == sources


def _with_cell(p, rep, **changes):
    cells = list(p.two_cells)
    cells[rep] = dataclasses.replace(cells[rep], **changes)
    return dataclasses.replace(p, two_cells=tuple(cells))


def _cut_every_cell(s, rng) -> int:
    # each 2-cell, its walk as stored and turned by a seeded offset; the
    # oracle's rim starts at its smallest vertex
    try:
        g = compute_reeb(s)
        p = build_partition(s, g, find_special_vertex(g))
    except InputRejected:
        return 0  # cyclic graph or tie degeneracy, as the tool rejects it
    for c, cell in enumerate(p.two_cells):
        want = oracles.cut_disk(p.refined_triangles, p.refined_values,
                                cell.refined_triangles, cell.boundary_vertices)
        walk = cell.boundary_vertices
        k = rng.randrange(len(walk))
        for q in (p, _with_cell(p, c, boundary_vertices=walk[k:] + walk[:k])):
            disk = extract_disk_field(q, c)
            assert (list(disk.surface.triangles), list(disk.surface.values),
                    list(disk.boundary), list(disk.source_vertices)) == want
    return len(p.two_cells)


def test_every_cell_matches_whole_region_cut_at_a_drawn_rotation():
    rng = random.Random(20261019)
    fields = [make() for _, make in DIFFERENTIAL_FIELDS]
    fields += [*_coarse_pool("pullback"), *_coarse_pool("random")]
    assert sum(_cut_every_cell(s, rng) for s in fields) >= 298  # 42 fields are accepted


@pytest.mark.parametrize("at_walk, message", [
    (False, r"cut cell \d+ is not a disk"),
    (True, r"visit \d+ of cut cell \d+ misses dart \d+->\d+")],
    ids=["off-walk", "at-walk"])
def test_cell_missing_a_triangle_is_rejected(stage, at_walk, message):
    st = stage("two-cell")
    rep = st.reps[0]
    cell = st.part.two_cells[rep]
    walk = set(cell.boundary_vertices)
    lost = next(ti for ti in cell.refined_triangles
                if any(u in walk for u in st.part.refined_triangles[ti]) == at_walk)
    kept = tuple(ti for ti in cell.refined_triangles if ti != lost)
    broken = _with_cell(st.part, rep, refined_triangles=kept)
    with pytest.raises(InternalInvariantError, match=message):
        extract_disk_field(broken, rep)


@pytest.mark.parametrize("flags", [
    # one corner at the walk, whose darts out of and into it are keyed twice
    (True, False, False),
    # two corners at the walk, the dart into the first from off the walk
    (True, True, False)], ids=["out-dart", "in-dart"])
def test_cell_listing_a_triangle_twice_is_rejected(stage, flags):
    # the second copy's walk corners take the keys of the first's, which
    # no visit then reaches
    st = stage("two-cell")
    rep = st.reps[0]
    cell = st.part.two_cells[rep]
    walk = set(cell.boundary_vertices)
    ti = next(ti for ti in cell.refined_triangles
              if tuple(u in walk for u in st.part.refined_triangles[ti]) == flags)
    tri = st.part.refined_triangles[ti]
    broken = _with_cell(st.part, rep, refined_triangles=cell.refined_triangles + (ti,))
    with pytest.raises(InternalInvariantError,
                       match=r"^corner at \d+ on the walk of cut cell \d+ is in no visit$") as exc:
        extract_disk_field(broken, rep)
    u = max(u for u in tri if u in walk)
    assert str(exc.value) == f"corner at {u} on the walk of cut cell {rep} is in no visit"


def test_cell_with_reversed_walk_is_rejected(stage):
    st = stage("z2-sym")
    rep = st.reps[1]
    walk = st.part.two_cells[rep].boundary_vertices
    broken = _with_cell(st.part, rep, boundary_vertices=tuple(reversed(walk)))
    with pytest.raises(InternalInvariantError, match=r"visit 0 of cut cell \d+ misses dart"):
        extract_disk_field(broken, rep)


def test_cell_walking_its_rim_twice_is_rejected(stage):
    # each sector of the walk is visited twice: the second visit finds its
    # corners taken by the first
    st = stage("two-cell")
    rep = st.reps[0]
    walk = st.part.two_cells[rep].boundary_vertices
    broken = _with_cell(st.part, rep, boundary_vertices=walk + walk)
    with pytest.raises(InternalInvariantError, match=r"visit \d+ of cut cell \d+ retakes a corner"):
        extract_disk_field(broken, rep)


def test_cell_with_a_stray_triangle_off_the_walk_is_rejected(stage):
    # a triangle of the other cell that meets no vertex of this one: every
    # walk-to-walk dart is as before, so only the count of 3F darts sees it
    st = stage("two-cell")
    rep = st.reps[0]
    cell = st.part.two_cells[rep]
    mine = {u for ti in cell.refined_triangles for u in st.part.refined_triangles[ti]}
    stray = next(ti for ti in st.part.two_cells[1 - rep].refined_triangles
                 if mine.isdisjoint(st.part.refined_triangles[ti]))
    broken = _with_cell(st.part, rep, refined_triangles=(*cell.refined_triangles, stray))
    with pytest.raises(InternalInvariantError, match="is not a disk"):
        extract_disk_field(broken, rep)


@pytest.mark.parametrize("name", ["two-cell", "z2xz2-sym"])
def test_cell_walk_through_its_interior_is_rejected(stage, name):
    # the walk detours u1 -> x -> u2 around its rim triangle (u1, u2, x):
    # the visit at u1 now stops before that triangle, the one at u2 starts
    # after it, and the one at x turns the long way round, so none of its
    # corners is taken
    st = stage(name)
    rep = st.reps[0]
    cell = st.part.two_cells[rep]
    walk = cell.boundary_vertices
    left = {}  # directed edge -> the third vertex of the region triangle left of it
    for ti in cell.refined_triangles:
        a, b, c = st.part.refined_triangles[ti]
        left.update({(a, b): c, (b, c): a, (c, a): b})
    k = next(k for k in range(len(walk)) if left[walk[k - 1], walk[k]] not in walk)
    x = left[walk[k - 1], walk[k]]
    broken = _with_cell(st.part, rep, boundary_vertices=(*walk[:k], x, *walk[k:]))
    with pytest.raises(InternalInvariantError,
                       match=r"corner at \d+ on the walk of cut cell \d+ is in no visit"):
        extract_disk_field(broken, rep)


def _fields(disk):
    return (disk.surface.triangles, disk.surface.values, disk.boundary,
            disk.source_vertices)


def test_walk_through_a_vertex_twice_is_read_at_every_rotation(stage):
    # two-cell disk 1 starts its rim at a vertex its walk visits twice;
    # either visit may come first in the stored walk
    st = stage("two-cell")
    rep = st.reps[0]
    walk = st.part.two_cells[rep].boundary_vertices
    disk = extract_disk_field(st.part, rep)
    start = disk.source_vertices[disk.boundary[0]]
    visits = [k for k, u in enumerate(walk) if u == start]
    assert len(visits) == 2
    for k in range(len(walk)):
        turned = _with_cell(st.part, rep, boundary_vertices=walk[k:] + walk[:k])
        assert _fields(extract_disk_field(turned, rep)) == _fields(disk)

    # the same vertices in the same number, but the arcs after the two
    # visits of the start swapped: a visit turns from a dart into the
    # wrong sector, which no region triangle holds
    a, b = visits
    tail = next(j for j in range(a + 1, b) if walk[j] in walk[b + 1:])
    c = walk.index(walk[tail], b + 1)
    swapped = walk[:a + 1] + walk[b + 1:c] + walk[tail:b + 1] + walk[a + 1:tail] + walk[c:]
    assert sorted(swapped) == sorted(walk) and swapped != walk
    broken = _with_cell(st.part, rep, boundary_vertices=swapped)
    with pytest.raises(InternalInvariantError, match=r"visit \d+ of cut cell \d+ misses dart"):
        extract_disk_field(broken, rep)


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

    p, reps = _partition(s)
    crossings = 0
    for rep, text in zip(reps, fields, strict=True):
        disk = extract_disk_field(p, rep)
        assert text == dump_surface(disk.surface)
        assert disk.surface.coords == tuple(p.refined_coords[u] for u in disk.source_vertices)
        crossings += sum(u >= s.vertex_count for u in disk.source_vertices)
    assert crossings  # interpolated coordinates of level crossings are exercised

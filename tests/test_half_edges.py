"""The half-edge table against the per-vertex dicts it replaced.

``oracles.left_triangles`` and ``oracles.fan_walk`` are the adjacency and
the fan walk the mesh kept before ``SurfaceField.twins``: one dict per
vertex, ``left[u][w]`` the triangle with u->w on its boundary.
``oracles.surface_rejection`` is the closed-surface check on them. On
valid meshes the table must give the same triangle across every
directed edge and the same fans; on meshes broken in one of six ways,
building the table must raise the same first not-a-surface message. Two
memory bounds pin what the table saves: the validated mesh and the
loaded surface.
"""
from __future__ import annotations

import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.errors import InputRejected
from krtorus.fields import preset_field, random_field
from krtorus.surface import SurfaceField, dump_surface, load_surface, validate_closed_orientable

import oracles
from test_front_end import tie_field

MIB = 2 ** 20
MUTATIONS = ("none", "drop", "flip", "pinch", "repeat", "isolated", "components")


def exactly(message: str) -> str:
    return "^" + re.escape(message) + "$"


def head(tris, h: int) -> int:
    return tris[h // 3][(h % 3 + 1) % 3]


def check_against_left_dicts(tris, values) -> None:
    s = SurfaceField(tris, values)
    nv = len(values)
    expected = oracles.surface_rejection(tris, nv)
    if expected not in (None, "surface is disconnected"):  # a swing fails: no table, no fans
        for build in (s.twins, s.fans):
            with pytest.raises(InputRejected, match=exactly(expected)) as exc:
                build()
            assert exc.value.code == "not-a-surface"
    else:
        left = oracles.left_triangles(tris, nv)
        twin = s.twins()
        assert len(twin) == 3 * len(tris)
        for h, g in enumerate(twin):  # the triangle across every directed edge
            x, y = tris[h // 3][h % 3], head(tris, h)
            assert g // 3 == left[y][x]
            assert (tris[g // 3][g % 3], head(tris, g)) == (y, x)
        fans = oracles.fan_walk(tris, left)
        assert s.fans() == fans
        for v, d in enumerate(left):
            heads = [head(tris, h) for h in s.out_edges(v)]
            k = heads.index(fans[v][0])
            assert tuple(heads[k:] + heads[:k]) == fans[v]
            for w, t in d.items():
                h = s.half_edge(v, w)
                assert h // 3 == t and (tris[t][h % 3], head(tris, h)) == (v, w)
    fresh = SurfaceField(tris, values)
    if expected is None:
        validate_closed_orientable(fresh)
    else:
        with pytest.raises(InputRejected, match=exactly(expected)) as exc:
            validate_closed_orientable(fresh)
        assert exc.value.code == "not-a-surface"


def base_mesh(kind: str, n: int, seed: int) -> SurfaceField:
    if kind == "preset":
        return preset_field(("two-cell", "z2-sym", "z2xz2-sym", "cyclic-height")[seed % 4], 4 * (n // 2))
    if kind == "random":
        return random_field(n, seed)
    return tie_field(n, seed, kind)


def mutate(tris: list, values: list, how: str, k: int):
    """One of six faults at triangle k or its first corner, or none."""
    a, b, c = tris[k]
    nv = len(values)
    if how == "drop":
        del tris[k]
    elif how == "flip":
        tris[k] = (a, c, b)
    elif how == "pinch":  # a vertex half the grid away is renamed a: two fans meet there
        far = (a + nv // 2 + int(nv ** 0.5) // 2) % nv
        tris[:] = [tuple(a if v == far else v for v in t) for t in tris]
    elif how == "repeat":  # a second triangle on a->b, with a corner far from it
        tris.append((a, b, (c + nv // 2) % nv))
    elif how == "isolated":
        values.append(values[k % nv])
    elif how == "components":
        tris += [(x + nv, y + nv, z + nv) for x, y, z in tris]
        values += values
    return tris, values


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("preset", "random", "round1", "int3", "fraction")),
       n=st.integers(4, 10), seed=st.integers(0, 2 ** 16),
       how=st.sampled_from(MUTATIONS), where=st.integers(0, 10 ** 6))
def test_table_matches_left_dicts(kind, n, seed, how, where):
    s = base_mesh(kind, n, seed)
    tris, values = mutate(list(s.triangles), list(s.values), how, where % s.triangle_count)
    try:
        SurfaceField(tris, values)
    except InputRejected as exc:  # a mutation that repeats a vertex or a triangle
        assert exc.code == "malformed-input" and how in ("pinch", "repeat")
        return
    check_against_left_dicts(tris, values)


@pytest.mark.parametrize("how", MUTATIONS)
def test_each_fault_is_named_as_the_left_dicts_name_it(how):
    s = preset_field("z2xz2-sym", 16)
    tris, values = mutate(list(s.triangles), list(s.values), how, 137)
    check_against_left_dicts(tris, values)
    assert (oracles.surface_rejection(tris, len(values)) is None) == (how == "none")


def test_twins_pair_up_and_swing_around_each_vertex():
    s = preset_field("two-cell", 16)
    twin = s.twins()
    assert all(twin[g] == h and g // 3 != h // 3 for h, g in enumerate(twin))
    assert s.twins() is twin  # built once
    fans = s.fans()
    assert sorted(h for v in range(s.vertex_count) for h in s.out_edges(v)) == list(range(len(twin)))
    assert all(len(s.out_edges(v)) == len(fans[v]) for v in range(s.vertex_count))


def test_validation_holds_little_memory_on_a_large_mesh():
    # the twin array and one half-edge per vertex, 8 bytes each, and the
    # fans; the per-vertex dicts and the fans held 32 MiB here
    s = preset_field("two-cell", 256)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        validate_closed_orientable(s)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 10 * MIB


def test_loaded_surface_holds_little_memory():
    # one int object per vertex id, shared by its corners; an int per
    # corner made the surface 5.3 MiB here
    text = dump_surface(preset_field("two-cell", 128))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = load_surface(text)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert s.triangle_count == 2 * 128 * 128
    assert held <= 4 * MIB

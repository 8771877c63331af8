"""Mesh validation, vertex classification and the text format."""
from __future__ import annotations

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.errors import InputRejected
from krtorus.fields import grid_vertex
from krtorus.surface import (SurfaceField, dump_surface, format_scalar, load_surface,
                             parse_scalar, validate_closed_orientable, vertex_classes)

import oracles

# boundary of a 3-simplex: the minimal closed orientable surface
TETRA = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)]


def tetra_field(values=(0, 1, 2, 3)) -> SurfaceField:
    return SurfaceField(TETRA, list(values))


def total_index(s: SurfaceField) -> int:
    """Sum of PL indices over all vertices; equals chi on valid closed surfaces."""
    return sum(c.index for c in vertex_classes(s))


def test_validate_sphere():
    info = validate_closed_orientable(tetra_field())
    assert info == {"chi": 2, "genus": 0}
    assert oracles.euler_characteristic(TETRA) == 2


def test_validate_torus(surface):
    s = surface("two-cell")
    info = validate_closed_orientable(s)
    assert info == {"chi": 0, "genus": 1}
    assert oracles.euler_characteristic(s.triangles) == 0


def test_validate_rejects_boundary():
    # drop one face: three directed edges lose their partners; the first
    # in vertex order is 0->3 (from triangle (0, 3, 1))
    s = SurfaceField(TETRA[:3], [0, 1, 2, 3])
    with pytest.raises(InputRejected) as exc:
        validate_closed_orientable(s)
    assert exc.value.code == "not-a-surface"
    assert str(exc.value) == "boundary edge 0-3: no opposite triangle"


def test_validate_names_the_boundary_edge_of_a_dropped_torus_triangle(surface):
    # the fans are walked first; only when one fails is the first boundary
    # edge in vertex order looked for. The three edges left without a
    # partner run against the dropped triangle, so the first starts at its
    # smallest corner and ends at the corner before it
    s0 = surface("two-cell")
    drop = 137
    a, b, c = s0.triangles[drop]
    u = min(a, b, c)
    w = {a: c, b: a, c: b}[u]
    s = SurfaceField(s0.triangles[:drop] + s0.triangles[drop + 1:], s0.values)
    with pytest.raises(InputRejected) as exc:
        validate_closed_orientable(s)
    assert exc.value.code == "not-a-surface"
    assert str(exc.value) == f"boundary edge {u}-{w}: no opposite triangle"


def test_validate_names_a_pinched_torus_vertex(surface):
    # a vertex far from vertex 0 is renamed 0: no edge repeats and no edge
    # loses its partner, but the link of vertex 0 is now two cycles
    s0 = surface("two-cell")
    far = s0.vertex_count // 2 + 8
    assert not set(s0.fans()[0]) & set(s0.fans()[far])
    tris = [tuple(0 if v == far else v for v in t) for t in s0.triangles]
    with pytest.raises(InputRejected) as exc:
        validate_closed_orientable(SurfaceField(tris, s0.values))
    assert exc.value.code == "not-a-surface"
    assert str(exc.value) == "vertex 0 is pinched: its link is not a single cycle"


def test_validate_rejects_inconsistent_orientation():
    bad = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 0, 3)]
    with pytest.raises(InputRejected) as exc:
        validate_closed_orientable(SurfaceField(bad, [0, 1, 2, 3]))
    assert exc.value.code == "not-a-surface"


def test_validate_rejects_disconnected():
    tris = TETRA + [(a + 4, b + 4, c + 4) for a, b, c in TETRA]
    with pytest.raises(InputRejected) as exc:
        validate_closed_orientable(SurfaceField(tris, list(range(8))))
    assert exc.value.code == "not-a-surface"


def test_tetra_classification():
    s = tetra_field()
    kinds = [c.kind for c in vertex_classes(s)]
    assert kinds == ["minimum", "regular", "regular", "maximum"]
    assert total_index(s) == 2


def test_fan_is_cyclic(surface):
    s = surface("two-cell")
    fan = s.fans()[grid_vertex(16, 5, 7)]
    assert len(fan) == 6
    assert len(set(fan)) == 6
    edges = oracles.surface_edges(s.triangles)
    for u in fan:
        v = grid_vertex(16, 5, 7)
        assert (min(u, v), max(u, v)) in edges


def test_two_cell_critical_points(surface):
    s = surface("two-cell")
    classes = vertex_classes(s)
    crit = {v: c for v, c in enumerate(classes) if c.is_critical}
    # one max, one min, two plain saddles; everything else regular
    assert sorted(c.kind for c in crit.values()) == [
        "maximum", "minimum", "saddle", "saddle"]
    assert all(c.multiplicity == 1 for c in crit.values() if c.kind == "saddle")
    assert crit[grid_vertex(16, 0, 0)].kind == "maximum"
    assert crit[grid_vertex(16, 8, 8)].kind == "minimum"
    assert total_index(s) == 0


def test_total_index_matches_chi(surface, twin_peaks):
    for name in ("two-cell", "z2-sym", "z2xz2-sym", "cyclic-height"):
        assert total_index(surface(name)) == 0
    assert total_index(twin_peaks) == 0


def test_ties_break_by_vertex_id():
    # equal values: the higher index counts as higher, so v3 is the unique max
    s = tetra_field((0, 1, 3, 3))
    assert vertex_classes(s)[2].kind == "regular"
    assert vertex_classes(s)[3].kind == "maximum"


def test_scalar_round_trip():
    for x in (0, -17, 2.5, -1.75, Fraction(3, 7), 1e-9):
        assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar("3/7") == Fraction(3, 7)
    with pytest.raises(InputRejected):
        parse_scalar("1/0")
    with pytest.raises(InputRejected):
        parse_scalar("spam")


def test_dump_load_round_trip(surface):
    s = surface("two-cell")
    text = dump_surface(s)
    s2 = load_surface(text)
    assert s2.values == s.values
    assert s2.triangles == s.triangles
    assert s2.coords == s.coords
    assert dump_surface(s2) == text


def test_load_accepts_bytes():
    text = dump_surface(tetra_field())
    assert dump_surface(load_surface(text.encode("utf-8"))) == text


def test_load_accepts_comments_and_blank_lines():
    text = dump_surface(tetra_field())
    lines = text.splitlines()
    lines.insert(1, "# a comment")
    lines.insert(4, "")
    s = load_surface("\n".join(lines))
    assert s.vertex_count == 4 and s.triangle_count == 4


def test_load_rejects_bad_header():
    with pytest.raises(InputRejected) as exc:
        load_surface("torus-field v2\n1 1\n0\n0 0 0\n")
    assert exc.value.code == "malformed-input"


def test_load_rejects_wrong_line_count():
    text = dump_surface(tetra_field())
    with pytest.raises(InputRejected) as exc:
        load_surface(text + "0 1 2\n")
    assert exc.value.code == "malformed-input"


def test_load_rejects_mixed_vertex_forms():
    with pytest.raises(InputRejected) as exc:
        load_surface("torus-field v1\n4 4\n0\n1 0.0 0.0 0.0\n2\n3\n"
                     "0 1 2\n0 3 1\n1 3 2\n2 3 0\n")
    assert exc.value.code == "malformed-input"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_constructor_rejects_non_finite_values(bad):
    with pytest.raises(InputRejected) as exc:
        tetra_field((0, bad, 2, 3))
    assert exc.value.code == "malformed-input"


class _Index(int):
    """An int subclass other than bool: accepted as a vertex index."""


@pytest.mark.parametrize("tris, message", [
    ([(0, 1, 2), (0, 1)], "triangle (0, 1) does not have 3 vertices"),
    ([(0, 1, 2), (0, 3, 1, 2)], "triangle (0, 3, 1, 2) does not have 3 vertices"),
    ([(0, True, 2)], "vertex index True out of range"),
    ([(0, 1.0, 2)], "vertex index 1.0 out of range"),
    ([(0, -1, 2)], "vertex index -1 out of range"),
    ([(0, 1, 4)], "vertex index 4 out of range"),
    ([(0, 1, 1)], "triangle (0, 1, 1) repeats a vertex"),
    ([(2, 0, 2)], "triangle (2, 0, 2) repeats a vertex"),
    ([(0, 1, 2), (1, 2, 0)], "duplicate triangle [0, 1, 2]"),
    ([(0, 1, 2), (0, 2, 1)], "duplicate triangle [0, 1, 2]"),
    # the first offender in triangle order is named
    ([(0, 1, 2), (0, 1, 1), (0, 1, 9)], "triangle (0, 1, 1) repeats a vertex"),
    ([(0, 1, 2), (0, 1, 9), (0, 1, 1)], "vertex index 9 out of range"),
    ([(0, 1, 2), (3, 2, 1), (3, 2, 1), (0, 9, 1)], "duplicate triangle [1, 2, 3]"),
])
def test_constructor_names_the_first_bad_triangle(tris, message):
    with pytest.raises(InputRejected) as exc:
        SurfaceField(tris, [0, 1, 2, 3])
    assert exc.value.code == "malformed-input"
    assert str(exc.value) == message


@pytest.mark.parametrize("coords, message", [
    ([(0, 0, 0)] * 3, "coordinate count does not match vertex count"),
    ([(0, 0, 0)] * 5, "coordinate count does not match vertex count"),
    ([(0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 1)], "coordinates must be x y z triples"),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1, 1)], "coordinates must be x y z triples"),
])
def test_constructor_checks_the_coordinates(coords, message):
    with pytest.raises(InputRejected) as exc:
        SurfaceField(TETRA, [0, 1, 2, 3], coords=coords)
    assert exc.value.code == "malformed-input"
    assert str(exc.value) == message


@pytest.mark.parametrize("values, message", [
    ((0, True, 2, 3), "unsupported scalar True"),
    ((0, 1, "2", 3), "unsupported scalar '2'"),
    ((0, None, 2, 3), "unsupported scalar None"),
    ((0, float("nan"), 2, 3), "non-finite scalar nan"),
    ((0, 1, float("-inf"), 3), "non-finite scalar -inf"),
    # values are checked before triangles, and the first offender is named
    ((float("inf"), False, 2, 3), "non-finite scalar inf"),
    ((False, float("inf"), 2, 3), "unsupported scalar False"),
    # an exact value that float() cannot hold
    pytest.param((0, 10 ** 400, 2, 3), f"out-of-range scalar {10 ** 400}", id="huge-int"),
    pytest.param((0, 1, Fraction(-10 ** 400, 3), 3), f"out-of-range scalar Fraction({-10 ** 400}, 3)",
                 id="huge-fraction"),
    pytest.param((10 ** 400, float("nan"), 2, 3), f"out-of-range scalar {10 ** 400}",
                 id="huge-int-before-nan"),
    pytest.param((float("nan"), 10 ** 400, 2, 3), "non-finite scalar nan", id="nan-before-huge-int"),
])
def test_constructor_names_the_first_bad_value(values, message):
    with pytest.raises(InputRejected) as exc:
        SurfaceField([(0, 1), (0, 1, 1)], values)
    assert exc.value.code == "malformed-input"
    assert str(exc.value) == message


def test_constructor_rejects_empty_input():
    with pytest.raises(InputRejected, match="surface has no vertices"):
        SurfaceField(TETRA, [])
    with pytest.raises(InputRejected, match="surface has no triangles"):
        SurfaceField([], [0, 1, 2, 3])


def test_constructor_accepts_int_subclasses_and_exact_scalars():
    s = SurfaceField([tuple(map(_Index, t)) for t in TETRA],
                     [Fraction(1, 2), 1, 2.5, _Index(3)])
    assert s.triangles == tuple(TETRA)
    assert s.values == (Fraction(1, 2), 1, 2.5, 3)
    assert validate_closed_orientable(s)["chi"] == 2


# Differential tests against the line-by-line references in oracles: the
# constructor with one sorted tuple per triangle, and the writer.
# Vertex ids past 256, each corner its own int object, so that sharing
# one object per id is not CPython's small-int cache at work.
_NV, _LOW = 264, 258
_BAD_INDICES = (-1, _NV, _NV + 1, True, False, 259.0, 260.5, _Index(259), _Index(_NV))


@st.composite
def triangle_lists(draw):
    tris = draw(st.lists(st.permutations(range(_LOW, _NV)).map(lambda p: list(p[:3])),
                         max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["rotated", "reversed", "repeat", "index", "length"]))
        whole = [t for t in tris if len(t) == 3]
        if fault in ("rotated", "reversed") and whole:
            a, b, c = draw(st.sampled_from(whole))
            t = [b, c, a] if fault == "rotated" else [a, c, b]
        elif fault == "repeat":
            a, b = draw(st.permutations(range(_LOW, _NV)))[:2]
            t = draw(st.permutations([a, a, b]))
        elif fault == "index":
            t = draw(st.permutations(range(_LOW, _NV)))[:3]
            t[draw(st.integers(0, 2))] = draw(st.sampled_from(_BAD_INDICES))
        else:
            t = list(draw(st.permutations(range(_LOW, _NV))))[:draw(st.sampled_from([0, 1, 2, 4]))]
        tris.insert(draw(st.integers(0, len(tris))), t)
    # a fresh object per plain int corner; lists and tuples both come in
    return [(tuple if draw(st.booleans()) else list)(int(str(i)) if type(i) is int else i
                                                      for i in t) for t in tris]


@settings(max_examples=400, deadline=None)
@given(tris=triangle_lists())
def test_constructor_matches_the_sorted_tuple_reference(tris):
    try:
        expected = oracles.checked_triangles(tris, _NV)
    except oracles.Rejected as exc:
        with pytest.raises(InputRejected) as got:
            SurfaceField(tris, range(_NV))
        assert (got.value.code, str(got.value)) == (exc.code, exc.message)
        return
    s = SurfaceField(tris, range(_NV))
    assert s.triangles == expected
    corners = [i for t in s.triangles for i in t]
    assert {type(i) for i in corners} == {int}
    assert len(set(map(id, corners))) == len(set(corners))  # one object per vertex id


_SCALARS = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]))


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(
           st.lists(_SCALARS, min_size=3, max_size=12),
           st.lists(st.one_of(_SCALARS, st.integers(-99, 99).map(_Index),
                              st.fractions(-1000, 1000, max_denominator=1000)),
                    min_size=3, max_size=12)),
       xyz=st.none() | st.lists(st.tuples(*[st.floats(allow_nan=False) | st.integers(-9, 9)] * 3),
                                min_size=12, max_size=12))
def test_writer_matches_the_line_reference(values, xyz):
    tris = [(v, v + 1, v + 2) for v in range(len(values) - 2)]
    s = SurfaceField(tris, values, None if xyz is None else xyz[:len(values)])
    text = dump_surface(s)
    assert text == oracles.field_text(s.values, s.coords, s.triangles)
    assert dump_surface(load_surface(text)) == text


def test_constructor_and_writer_keep_no_container_per_triangle(surface):
    # two-cell@128, 32,768 triangles. Sorted tuples for the duplicate test
    # and a comprehension of shared triangles set off 82 gen-0 collections
    # in the constructor; int keys and one zip over the flat corners, 43.
    # The writer peaked at 5.03 MiB traced with one string per line, and
    # at 2.19 MiB with whole columns
    s = surface("two-cell", 128)
    threshold = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    try:
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        SurfaceField(s.triangles, s.values)
        collections = gc.get_stats()[0]["collections"] - before
    finally:
        gc.set_threshold(*threshold)
    assert gc.isenabled() and collections <= 60
    tracemalloc.start()
    try:
        dump_surface(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 20

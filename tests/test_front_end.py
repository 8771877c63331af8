"""The mesh front end against its slow references.

``load_surface`` reads whole columns and falls back to a per-line loop;
``oracles.parse_field_text`` reads one line at a time. On valid bodies
and on bodies with one or two faults they must give the same values
(with the same types), triangles and coordinates, or the same error
code and message. ``vertex_classes`` ranks all vertices once and shares
one class per fan pattern; ``oracles.vertex_classes`` compares
(value, index) keys around each rebuilt fan. The fan walk runs once
per vertex across validation and classification.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.errors import InputRejected
from krtorus.fields import grid_field, preset_field, pullback_cosine_field, random_field
from krtorus.surface import (SurfaceField, load_surface, validate_closed_orientable,
                             vertex_classes)

import oracles

TETRA = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)]
ARABIC_INDIC = "٠١٢٣"  # the digits 0-3, which int() reads

GOOD_VALUES = ("0", "7", "+5", "-0", "1_000", "1e5", "1E-3", "2.5", "-1.75", "3/7",
               "-2/6", ARABIC_INDIC[3], "12345678901234567890")
BAD_VALUES = ("1/0", "inf", "-inf", "nan", "²", "1__0", "_1", "x", "0x10", "1.5/2",
              "9" * 400, "-" + "9" * 400, "9" * 400 + "/7", "9" * 5000, "1e400")
GOOD_COORDS = ("0.0", "1", "-2.5", "1e3", "+0.5", "nan", "inf")
BAD_COORDS = ("x", "1/2", "1,5")
BAD_INDICES = ("x", "1.0", "-1", "4", "9", "1/1", "²", "1__0")
ODD_SEPARATORS = ("\t", "  ", " \t ")
FAULTS = ("value", "coord", "vertex-count", "form", "index", "triangle-count")


def good_index(i: int):
    return st.sampled_from((str(i), str(i), f"+{i}", f"0{i}", ARABIC_INDIC[i]))


@st.composite
def field_texts(draw) -> str:
    """A 4-vertex body with valid tokens, then up to two faults."""
    with_xyz = draw(st.booleans())
    vrows = [[draw(st.sampled_from(GOOD_VALUES))]
             + ([draw(st.sampled_from(GOOD_COORDS)) for _ in range(3)] if with_xyz else [])
             for _ in range(4)]
    trows = [[draw(good_index(i)) for i in t] for t in TETRA]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(FAULTS))
        k = draw(st.integers(0, 3))
        if fault == "value":
            vrows[k][0] = draw(st.sampled_from(BAD_VALUES))
        elif fault == "coord" and len(vrows[k]) == 4:
            vrows[k][draw(st.integers(1, 3))] = draw(st.sampled_from(BAD_COORDS))
        elif fault == "vertex-count":
            vrows[k] = vrows[k][:1] + ["1"] * draw(st.sampled_from((1, 2, 4)))
        elif fault == "form":
            vrows[k] = vrows[k][:1] if len(vrows[k]) == 4 else vrows[k] + ["0", "0", "0"]
        elif fault == "index":
            # an earlier triangle-count fault may have cut the row to two tokens
            trows[k][draw(st.integers(0, len(trows[k]) - 1))] = draw(st.sampled_from(BAD_INDICES))
        elif fault == "triangle-count":
            trows[k] = trows[k][:2] if draw(st.booleans()) else trows[k] + ["0"]
    # single spaces, which the whole-column pass reads, or other spacing on one or all lines
    seps = [" "] * 8
    spacing = draw(st.sampled_from(("single", "single", "single", "one line", "all lines")))
    if spacing == "all lines":
        seps = [draw(st.sampled_from(ODD_SEPARATORS)) for _ in seps]
    elif spacing == "one line":
        seps[draw(st.integers(0, 7))] = draw(st.sampled_from(ODD_SEPARATORS))
    lines = ["torus-field v1", "4 4"] + [sep.join(row) for sep, row in zip(seps, vrows + trows)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(("", "# note", "  # x"))))
    return "\n".join(lines) + "\n"


def loaded(text):
    try:
        s = load_surface(text)
    except InputRejected as exc:
        return ("rejected", exc.code, str(exc))
    return ("ok", [(type(x), x) for x in s.values], s.triangles, repr(s.coords))


def loaded_by_oracle(text):
    try:
        s = SurfaceField(*oracles.parse_field_text(text))
    except oracles.Rejected as exc:
        return ("rejected", exc.code, exc.message)
    except InputRejected as exc:
        return ("rejected", exc.code, str(exc))
    return ("ok", [(type(x), x) for x in s.values], s.triangles, repr(s.coords))


@settings(max_examples=400, deadline=None)
@given(text=field_texts())
def test_load_matches_line_by_line_parse(text):
    assert loaded(text) == loaded_by_oracle(text)


def tetra_text(value_lines) -> str:
    return ("torus-field v1\n4 4\n" + "".join(f"{ln}\n" for ln in value_lines)
            + "".join(f"{a} {b} {c}\n" for a, b, c in TETRA))


@pytest.mark.parametrize("token, value", [
    ("3", 3), ("+5", 5), ("1_000", 1000), (ARABIC_INDIC[3], 3), ("-0", 0),
    ("2.5", 2.5), ("1e5", 1e5), ("1E-3", 1e-3), ("3/7", Fraction(3, 7)), ("-2/6", Fraction(-1, 3)),
])
def test_load_keeps_token_types(token, value):
    text = tetra_text([token, 1, 2, 3])
    got = load_surface(text).values[0]
    assert (type(got), got) == (type(value), value)
    assert loaded(text) == loaded_by_oracle(text)


@pytest.mark.parametrize("token, message", [
    ("9" * 400, f"out-of-range scalar {'9' * 400}"),
    ("9" * 400 + "/7", f"out-of-range scalar Fraction({'9' * 400}, 7)"),
    ("9" * 5000, "non-finite scalar inf"),  # past int's digit limit: read as a float
    ("inf", "non-finite scalar inf"),
    ("1/0", "bad rational literal '1/0'"),
    ("²", "bad scalar literal '²'"),
], ids=["huge-int", "huge-fraction", "over-digit-limit", "inf", "zero-denominator", "superscript"])
def test_load_names_bad_values(token, message):
    text = tetra_text([0, token, 2, 3])
    with pytest.raises(InputRejected) as exc:
        load_surface(text)
    assert (exc.value.code, str(exc.value)) == ("malformed-input", message)


@pytest.mark.parametrize("counts", ["0 2", "3 0"])
def test_load_refuses_counts_that_are_not_positive(counts):
    text = f"torus-field v1\n{counts}\n0\n1\n"
    with pytest.raises(InputRejected) as exc:
        load_surface(text)
    assert (exc.value.code, str(exc.value)) == (
        "malformed-input", "vertex and triangle counts must be positive")
    assert loaded(text) == loaded_by_oracle(text)


def test_load_reads_any_whitespace_between_tokens():
    text = ("torus-field v1\n4 4\n0\t1.0 2.0  3.0\n1 0 0 0\n2 0 0 0\n3 0 0 0\n"
            "0\t1 2\n0  3 1\n1 3\t\t2\n2 3 0\n")
    s = load_surface(text)
    assert s.values == (0, 1, 2, 3)
    assert s.coords[0] == (1.0, 2.0, 3.0)
    assert s.triangles == tuple(TETRA)


def tie_field(n: int, seed: int, kind: str) -> SurfaceField:
    """A grid field with many equal values: rounded floats, small ints or fractions."""
    rng = random.Random(seed)
    if kind == "round1":
        return grid_field(n, lambda i, j: round(rng.uniform(-1.0, 1.0), 1))
    if kind == "int3":
        return grid_field(n, lambda i, j: rng.randrange(3))
    return grid_field(n, lambda i, j: Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)))


def assert_classes_match_oracle(s: SurfaceField) -> None:
    classes = vertex_classes(s)
    expected = oracles.vertex_classes(s.triangles, s.values)
    assert [(c.kind, c.multiplicity) for c in classes] == expected


@pytest.mark.parametrize("name", ["two-cell", "z2-sym", "z2xz2-sym", "cyclic-height"])
def test_classes_match_oracle_on_presets(name):
    assert_classes_match_oracle(preset_field(name, 16))


@pytest.mark.parametrize("mat, grid", [
    (((2, 0), (0, 2)), 32), (((3, 0), (0, 3)), 48), (((2, 1), (-1, 2)), 40), (((4, 0), (0, 4)), 32),
])
def test_classes_match_oracle_on_pullbacks(mat, grid):
    assert_classes_match_oracle(pullback_cosine_field(grid, mat))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 2 ** 31),
       kind=st.sampled_from(("random", "round1", "int3", "fraction")))
def test_classes_match_oracle_on_random_and_tied_fields(n, seed, kind):
    s = random_field(n, seed) if kind == "random" else tie_field(n, seed, kind)
    assert_classes_match_oracle(s)


def test_classes_are_shared_instances():
    classes = vertex_classes(preset_field("z2xz2-sym", 32))
    assert len(set(map(id, classes))) == len(set(classes)) == 4  # min, max, regular, saddle


@pytest.mark.parametrize("first", ["validate", "classes"])
def test_each_fan_is_walked_once(monkeypatch, first):
    # the fans are walked with the twin table, which every caller reaches
    # through fans() or twins()
    results = {"fans": [], "twins": []}
    for name in results:
        def recording(self, walk=getattr(SurfaceField, name), name=name):
            results[name].append(walk(self))
            return results[name][-1]

        monkeypatch.setattr(SurfaceField, name, recording)
    s = preset_field("z2xz2-sym", 16)
    steps = [lambda: validate_closed_orientable(s), lambda: vertex_classes(s)]
    for step in steps if first == "validate" else steps[::-1]:
        step()
    s.fans()
    # a walk builds a new list and a new table: every call hands back the
    # ones the first call built
    fans, twins = results["fans"], results["twins"]
    assert len(fans) == 3 and all(f is fans[0] for f in fans)
    assert twins and all(t is twins[0] for t in twins)
    assert len(fans[0]) == s.vertex_count and len(twins[0]) == 3 * s.triangle_count


def test_fans_reject_a_surface_with_boundary():
    s = SurfaceField(TETRA[:3], [0, 1, 2, 3])  # face (2, 3, 0) removed
    with pytest.raises(InputRejected, match=r"^boundary edge 0-3: no opposite triangle$"):
        s.fans()


def first_repeated_edge(triangles):
    seen = set()
    for a, b, c in triangles:
        for e in ((a, b), (b, c), (c, a)):
            if e in seen:
                return e
            seen.add(e)
    return None


@settings(max_examples=200, deadline=None)
@given(tris=st.lists(st.permutations(range(6)).map(lambda p: tuple(p[:3])),
                     min_size=1, max_size=12, unique_by=lambda t: frozenset(t)))
def test_twins_name_the_first_repeated_directed_edge(tris):
    s = SurfaceField(tris, list(range(6)))
    repeat = first_repeated_edge(tris)
    if repeat is None:
        expected = oracles.surface_rejection(tris, 6)
        if expected not in (None, "surface is disconnected"):  # a fan fails: no table
            with pytest.raises(InputRejected, match="^" + re.escape(expected) + "$") as exc:
                s.twins()
            assert exc.value.code == "not-a-surface"
            return
        # twin[h] // 3 is the triangle that holds h's edge the other way
        edges = [e for a, b, c in tris for e in ((a, b), (b, c), (c, a))]
        holder = {e: h // 3 for h, e in enumerate(edges)}
        assert [g // 3 for g in s.twins()] == [holder[(y, x)] for x, y in edges]
        return
    with pytest.raises(InputRejected) as exc:
        s.twins()
    assert exc.value.code == "not-a-surface"
    assert str(exc.value).startswith(f"directed edge {repeat[0]}->{repeat[1]} used by two triangles")


def test_validate_names_pinched_and_isolated_vertices():
    pinched = TETRA + [(0, 4, 5), (0, 6, 4), (4, 6, 5), (5, 6, 0)]  # two spheres share vertex 0
    with pytest.raises(InputRejected, match=r"^vertex 0 is pinched: its link is not a single cycle$"):
        validate_closed_orientable(SurfaceField(pinched, list(range(7))))
    with pytest.raises(InputRejected, match=r"^vertex 4 has no incident triangle$"):
        validate_closed_orientable(SurfaceField(TETRA, list(range(5))))

"""End-to-end analysis, report serialization and the verification record."""
from __future__ import annotations

import json
import tracemalloc

import pytest

import krtorus.homology
import krtorus.pipeline
import krtorus.wreath
from krtorus.errors import InputRejected
from krtorus.fields import pullback_cosine_field
from krtorus.pipeline import (analyze, canonical_json, extract_disk_field, group_expr,
                              verify_extension)
from krtorus.surface import SurfaceField, dump_surface, load_surface, vertex_classes
from krtorus.wreath import parse_atoms

import oracles

EXPECTED_EXPR = {
    "two-cell": "(A_1 x A_2) x Z^2",
    "z2-sym": "(A_1 x A_2) wr[Z_1 x Z_2] Z^2",
    "z2xz2-sym": "(A_1 x A_2) wr[Z_2 x Z_2] Z^2",
}


def report_for(surface, name):
    return analyze(surface(name))


def test_report_shape(surface):
    rep = report_for(surface, "two-cell")
    assert rep.format == "kr-torus/1"
    assert rep.surface == {"vertices": 256, "triangles": 512, "chi": 0, "genus": 1}
    assert rep.reeb == {"nodes": 3, "edges": 2, "is_tree": True}
    assert rep.special["level"] == 0.0
    assert rep.special["zero_cells"] == 2
    assert rep.special["one_cells"] == 4
    assert rep.special["two_cells"] == 2
    assert rep.special["branch_chis"] == [1, 1]
    assert rep.symmetry["generators"].keys() == {"L", "M"}
    assert len(rep.group["atoms"]) == rep.symmetry["r"] == 2


def test_expressions_frozen(surface):
    for name, expr in EXPECTED_EXPR.items():
        rep = report_for(surface, name)
        assert rep.group["expr"] == expr
        n, m, r = (rep.symmetry[k] for k in "nmr")
        assert group_expr(r, n, n * m) == expr


def test_symmetry_numbers(surface):
    want = {"two-cell": (1, 1), "z2-sym": (1, 2), "z2xz2-sym": (2, 1)}
    for name, (n, m) in want.items():
        rep = report_for(surface, name)
        assert (rep.symmetry["n"], rep.symmetry["m"]) == (n, m)
        assert rep.symmetry["order"] == n * n * m
        assert rep.symmetry["r"] == 2
        assert len(rep.symmetry["orbit_table"]) == rep.special["two_cells"]


def test_group_expr_cases():
    assert group_expr(2, 2, 4) == "(A_1 x A_2) wr[Z_2 x Z_4] Z^2"
    assert group_expr(1, 1, 3) == "A_1 wr[Z_1 x Z_3] Z^2"
    assert group_expr(3, 3, 3) == "(A_1 x A_2 x A_3) wr[Z_3 x Z_3] Z^2"
    # trivial top symmetry collapses to a plain product
    assert group_expr(2, 1, 1) == "(A_1 x A_2) x Z^2"
    assert group_expr(1, 1, 1) == "A_1 x Z^2"
    assert group_expr(2, 2, 2) == "(A_1 x A_2) wr[Z_2 x Z_2] Z^2"


def test_json_round_trip(surface):
    rep = report_for(surface, "z2-sym")
    text = canonical_json(rep)
    again = oracles.report_from_json(text)
    assert canonical_json(again) == text
    assert oracles.report_from_json(json.loads(text)) == again


def test_canonical_json_is_deterministic(surface):
    a = canonical_json(analyze(surface("z2xz2-sym")))
    b = canonical_json(analyze(surface("z2xz2-sym")))
    assert a == b


def test_analysis_rejects_sphere():
    tetra = SurfaceField([(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)],
                         [0, 1, 2, 3])
    with pytest.raises(InputRejected) as exc:
        analyze(tetra)
    assert exc.value.code == "not-a-torus"
    assert exc.value.details == {"chi": 2, "genus": 0}


def test_disk_extraction(stage):
    for name in EXPECTED_EXPR:
        st = stage(name)
        for rep in st.reps:
            disk = extract_disk_field(st.part, rep)
            tris = disk.surface.triangles
            assert oracles.euler_characteristic(tris) == 1
            assert oracles.triangle_component_count(tris) == 1
            # boundary walk vertices sit at the special level
            for u in disk.boundary:
                assert disk.surface.values[u] == st.part.level
            # values come through the submesh reindexing unchanged
            for sub, rv in enumerate(disk.source_vertices):
                assert disk.surface.values[sub] == st.part.refined_values[rv]


def interior_kinds(disk):
    """Kinds of the disk's interior vertices, read on the closed-up disk.

    The disk has a boundary, so its fans do not close. A cone over the
    rim, one apex vertex above every value, closes it into a sphere
    without changing any interior vertex's fan.
    """
    s = disk.surface
    apex = s.vertex_count
    rim = disk.boundary
    cone = [(rim[k - 1], apex, rim[k]) for k in range(len(rim))]
    closed = SurfaceField(s.triangles + tuple(cone), s.values + (max(s.values) + 1,))
    inside = set(range(s.vertex_count)) - set(rim)
    return [vertex_classes(closed)[v].kind for v in sorted(inside)]


def test_disk_interiors_match_branch_kinds(stage):
    # up disk of the plain model holds exactly one critical point, a maximum
    st = stage("two-cell")
    kinds = interior_kinds(extract_disk_field(st.part, st.reps[1]))
    assert kinds.count("maximum") == 1
    assert set(kinds) <= {"maximum", "regular"}

    # min-orbit representative of the doubled model: one interior minimum
    st2 = stage("z2-sym")
    kinds = interior_kinds(extract_disk_field(st2.part, st2.reps[0]))
    assert kinds.count("minimum") == 1
    assert set(kinds) <= {"minimum", "regular"}


def test_disk_fields_serialize(stage):
    st = stage("two-cell")
    disk = extract_disk_field(st.part, st.reps[0])
    text = dump_surface(disk.surface)
    again = load_surface(text)
    assert again.values == disk.surface.values
    assert again.triangles == disk.surface.triangles


def test_report_embeds_disks(surface):
    rep = report_for(surface, "z2-sym")
    assert [d["id"] for d in rep.disks] == [1, 2]
    for d in rep.disks:
        sub = load_surface(d["field"])
        assert sub.triangle_count > 0
        assert len(d["boundary"]) > 0


def test_verify_extension_passes(surface):
    rep = report_for(surface, "z2-sym")
    rec = verify_extension(rep, parse_atoms("Z2,Z3"))
    assert rec.passed
    names = [c.name for c in rec.checks]
    assert names == ["wreath-axioms-exactness", "index-lattice-exactness",
                     "kernel-size"]
    data = rec.to_json()
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_verify_extension_catches_corruption(surface, monkeypatch):
    rep = report_for(surface, "z2-sym")
    monkeypatch.setattr(krtorus.pipeline, "WreathGroup", oracles.CorruptedWreath)
    rec = verify_extension(rep, parse_atoms("Z2,Z3"))
    assert not rec.passed
    bad = {c.name for c in rec.checks if not c.passed}
    assert "wreath-axioms-exactness" in bad


def test_verify_extension_catches_corruption_on_sampled_kernel(surface, monkeypatch):
    # |Z3 x Z4|^(2*2) = 20736 grids: the pool holds 81 sampled grids, and the
    # identity law already fails on it; the sampled exactness branch is
    # covered by test_sampled_exact_sequence_catches_corrupted_shift
    rep = report_for(surface, "z2xz2-sym")
    monkeypatch.setattr(krtorus.pipeline, "WreathGroup", oracles.CorruptedWreath)
    rec = verify_extension(rep, parse_atoms("Z3,Z4"))
    assert [c.name for c in rec.checks if not c.passed] == ["wreath-axioms-exactness"]
    assert rec.checks[2].detail.startswith("grid_at and rank_of invert each other on 402 of")


def test_verify_extension_large_atoms(surface):
    # kernel (10^6)^4 = 10^24 grids, past sys.maxsize: ranks are still drawn
    rep = report_for(surface, "z2xz2-sym")
    rec = verify_extension(rep, parse_atoms("Z1000,Z1000"))
    assert rec.passed
    assert rec.checks[0].detail == \
        "group laws and ker(proj) = im(sigma) hold over 729 elements"
    assert rec.checks[2].detail == ("grid_at and rank_of invert each other on 402 of the "
                                    f"|Z1000 x Z1000|^(2*2) = {10 ** 24} grids")


def test_cell_memo_stays_bounded_on_a_large_base(monkeypatch):
    # a base of order 10^6 on a 4 x 4 grid: almost every cell pair is new. Without
    # a memo the peak is 10.5 MiB, so the bound allows 2 MiB for the memo; an
    # unbounded one peaks at 23.7 MiB
    engines = []

    class Kept(krtorus.wreath.WreathGroup):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(krtorus.pipeline, "WreathGroup", Kept)
    rep = analyze(pullback_cosine_field(32, ((4, 0), (0, 4))))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec = verify_extension(rep, parse_atoms("Z1000,Z1000"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    (wg,) = engines
    assert rec.passed and (wg.rows, wg.cols) == (4, 4)
    assert wg._op.cache_info().currsize <= 4096
    assert wg._inv.cache_info().currsize <= 4096
    assert wg._row_op.cache_info().currsize * wg.cols <= 1024  # product cells held
    assert peak <= 12.5 * 2 ** 20


@pytest.mark.parametrize("name,atoms,calls", [
    ("two-cell", "Z2,Z3", 13_561),  # 1 x 1 grids over Z2 x Z3: 54 elements, every triple
    ("z2xz2-sym", "Z3,Z3", 15_489),  # 2 x 2 grids over Z3 x Z3: 729 elements, drawn triples
])
def test_verify_multiplies_as_many_times_as_before(surface, monkeypatch, name, atoms, calls):
    # counts recorded before products moved to one table: a speed-up must
    # neither drop a product nor compute one twice
    count = []

    class Counting(krtorus.wreath.WreathGroup):
        def multiply(self, x, y):
            count.append(None)
            return super().multiply(x, y)

    monkeypatch.setattr(krtorus.pipeline, "WreathGroup", Counting)
    assert verify_extension(report_for(surface, name), parse_atoms(atoms)).passed
    assert len(count) == calls


class MisrankedWreath(krtorus.wreath.WreathGroup):
    """Engine whose grid_at decodes the next rank: a negative control."""

    def grid_at(self, rank):
        return super().grid_at((rank + 1) % self.kernel_size())


@pytest.mark.parametrize("atoms", ["Z2,Z3", "Z1000,Z1000"])
def test_kernel_size_catches_a_wrong_grid_at(surface, monkeypatch, atoms):
    # every grid it decodes is a valid grid, so only the round trip sees it
    rep = report_for(surface, "z2xz2-sym")
    monkeypatch.setattr(krtorus.pipeline, "WreathGroup", MisrankedWreath)
    rec = verify_extension(rep, parse_atoms(atoms))
    assert [(c.name, c.detail) for c in rec.checks if not c.passed] == [
        ("kernel-size", "rank 0 does not survive grid_at and rank_of")]


@pytest.mark.parametrize("edit,detail", [
    ("row", "orbit_table rows are not {1..2} x Z_2 x Z_2, each once"),
    ("swap", "L^1 M^0 does not add (0,1,0) to the index of cell 0")],
    ids=["row", "swap"])
def test_index_lattice_reads_the_orbit_table(surface, edit, detail):
    rep = report_for(surface, "z2xz2-sym")
    table = rep.symmetry["orbit_table"]
    if edit == "row":  # one cell named twice, another not at all
        table[1] = list(table[0])
    else:  # two cells of one orbit trade names: still a bijection, no longer equivariant
        table[0], table[1] = table[1], table[0]
    rec = verify_extension(rep, parse_atoms("Z2,Z3"))
    assert [(c.name, c.detail) for c in rec.checks if not c.passed] == [
        ("index-lattice-exactness", detail)]


@pytest.mark.parametrize("edit,detail", [
    ("cut", "generators.L is not a permutation of the 8 2-cells"),
    ("negative", "generators.M is not a permutation of the 8 2-cells"),
    ("float", "generators.L is not a permutation of the 8 2-cells"),
    ("bool", "generators.M is not a permutation of the 8 2-cells")],
    ids=["cut", "negative", "float", "bool"])
def test_index_lattice_needs_permutations(surface, edit, detail):
    # a short L used to raise IndexError, a -1 in M wrapped to the last
    # cell, and a float L passed the sorted comparison and raised TypeError
    rep = report_for(surface, "z2xz2-sym")
    gens = rep.symmetry["generators"]
    if edit == "cut":
        gens["L"] = gens["L"][:2]
    elif edit == "negative":
        gens["M"][gens["M"].index(len(gens["M"]) - 1)] = -1
    elif edit == "float":
        gens["L"] = list(map(float, gens["L"]))
    else:
        gens["M"] = [bool(x) if x < 2 else x for x in gens["M"]]
    rec = verify_extension(rep, parse_atoms("Z2,Z3"))
    assert [(c.name, c.detail) for c in rec.checks if not c.passed] == [
        ("index-lattice-exactness", detail)]


def test_verify_extension_checks_atom_count(surface):
    rep = report_for(surface, "two-cell")
    with pytest.raises(InputRejected) as exc:
        verify_extension(rep, parse_atoms("Z2"))
    assert exc.value.code == "bad-request"


def test_smith_calls_per_analyze(monkeypatch):
    # the torus check, the H1 action and the group stage take no Smith form:
    # index_orbits proves the group on the orbit grid
    calls = []
    smith = krtorus.homology.smith_normal_form

    def counting_smith(a):
        calls.append(a.shape)
        return smith(a)

    monkeypatch.setattr(krtorus.homology, "smith_normal_form", counting_smith)
    report = analyze(pullback_cosine_field(32, ((2, 0), (0, 2))))
    assert (report.symmetry["n"], report.symmetry["m"]) == (2, 1)
    assert calls == []
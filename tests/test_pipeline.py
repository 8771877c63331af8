"""End-to-end analysis, report serialization and the verification record."""
from __future__ import annotations

import json

import pytest

from krtorus.errors import InputRejected
from krtorus.fields import pullback_cosine_field
from krtorus.homology import _ChainBasis
from krtorus.pipeline import (AnalysisReport, Atom, DirectProduct, FreeAbelian,
                              TrivialGroup, WreathOver, analyze,
                              build_group_expr, canonical_json,
                              extract_disk_field, render_expr,
                              report_group_expr, verify_extension)
from krtorus.surface import SurfaceField, dump_surface, load_surface
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
        assert render_expr(report_group_expr(rep)) == expr


def test_symmetry_numbers(surface):
    want = {"two-cell": (1, 1), "z2-sym": (1, 2), "z2xz2-sym": (2, 1)}
    for name, (n, m) in want.items():
        rep = report_for(surface, name)
        assert (rep.symmetry["n"], rep.symmetry["m"]) == (n, m)
        assert rep.symmetry["order"] == n * n * m
        assert rep.symmetry["r"] == 2
        assert len(rep.symmetry["orbit_table"]) == rep.special["two_cells"]


def test_render_expr_cases():
    atoms = (Atom(1, {}), Atom(2, {}))
    prod = DirectProduct(atoms)
    assert render_expr(WreathOver(prod, 2, 4, FreeAbelian(2))) == \
        "(A_1 x A_2) wr[Z_2 x Z_4] Z^2"
    assert render_expr(WreathOver(Atom(1, {}), 1, 3, FreeAbelian(2))) == \
        "A_1 wr[Z_1 x Z_3] Z^2"
    # trivial top symmetry collapses to a plain product
    assert render_expr(build_group_expr(atoms, 1, 1)) == "(A_1 x A_2) x Z^2"
    assert render_expr(build_group_expr((Atom(1, {}),), 1, 1)) == "A_1 x Z^2"
    assert render_expr(build_group_expr(atoms, 2, 2)) == \
        "(A_1 x A_2) wr[Z_2 x Z_2] Z^2"
    assert render_expr(FreeAbelian(2)) == "Z^2"
    assert render_expr(TrivialGroup()) == "1"


def test_json_round_trip(surface):
    rep = report_for(surface, "z2-sym")
    text = canonical_json(rep)
    again = AnalysisReport.from_json(text)
    assert canonical_json(again) == text
    assert AnalysisReport.from_json(json.loads(text)) == again


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
        for i in (1, 2):
            disk = extract_disk_field(st.surface, st.part, st.table, i)
            tris = disk.surface.triangles
            assert oracles.euler_characteristic(tris) == 1
            assert oracles.triangle_component_count(tris) == 1
            assert st.table[disk.cell] == (i, 0, 0)
            # boundary walk vertices sit at the special level
            for u in disk.boundary:
                assert disk.surface.values[u] == st.part.level
            # values come through the submesh reindexing unchanged
            for sub, rv in enumerate(disk.source_vertices):
                assert disk.surface.values[sub] == st.part.refined_values[rv]


def test_disk_interiors_match_branch_kinds(stage):
    from krtorus.surface import classify_vertex

    def interior_kinds(disk):
        inside = set(range(len(disk.source_vertices))) - set(disk.boundary)
        return [classify_vertex(disk.surface, v).kind for v in sorted(inside)]

    # up disk of the plain model holds exactly one critical point, a maximum
    st = stage("two-cell")
    kinds = interior_kinds(extract_disk_field(st.surface, st.part, st.table, 2))
    assert kinds.count("maximum") == 1
    assert set(kinds) <= {"maximum", "regular"}

    # min-orbit representative of the doubled model: one interior minimum
    st2 = stage("z2-sym")
    kinds = interior_kinds(extract_disk_field(st2.surface, st2.part, st2.table, 1))
    assert kinds.count("minimum") == 1
    assert set(kinds) <= {"minimum", "regular"}


def test_disk_fields_serialize(stage):
    st = stage("two-cell")
    disk = extract_disk_field(st.surface, st.part, st.table, 1)
    text = dump_surface(disk.surface)
    again = load_surface(text)
    assert again.values == disk.surface.values
    assert again.triangles == disk.surface.triangles


def test_disk_index_out_of_range(stage):
    st = stage("two-cell")
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            extract_disk_field(st.surface, st.part, st.table, bad)


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


def test_verify_extension_catches_corruption(surface):
    rep = report_for(surface, "z2-sym")
    rec = verify_extension(rep, parse_atoms("Z2,Z3"), corrupt_shift=True)
    assert not rec.passed
    bad = {c.name for c in rec.checks if not c.passed}
    assert "wreath-axioms-exactness" in bad


def test_verify_extension_catches_corruption_on_sampled_kernel(surface):
    # |Z3 x Z4|^(2*2) = 20736 grids: the pool holds 81 sampled grids, and the
    # identity law already fails on it; the sampled exactness branch is
    # covered by test_sampled_exact_sequence_catches_corrupted_shift
    rep = report_for(surface, "z2xz2-sym")
    rec = verify_extension(rep, parse_atoms("Z3,Z4"), corrupt_shift=True)
    assert [c.name for c in rec.checks if not c.passed] == ["wreath-axioms-exactness"]
    assert "kernel too large" in rec.checks[2].detail


def test_verify_extension_large_atoms(surface):
    # kernel (10^6)^4 = 10^24 grids, past sys.maxsize: ranks are still drawn
    rep = report_for(surface, "z2xz2-sym")
    rec = verify_extension(rep, parse_atoms("Z1000,Z1000"))
    assert rec.passed
    assert rec.checks[0].detail == \
        "group laws and ker(proj) = im(sigma) hold over 729 elements"
    assert rec.checks[2].detail == ("kernel too large to enumerate "
                                    f"({10 ** 24}); size identity is definitional")


def test_verify_extension_checks_atom_count(surface):
    rep = report_for(surface, "two-cell")
    with pytest.raises(InputRejected) as exc:
        verify_extension(rep, parse_atoms("Z2"))
    assert exc.value.code == "bad-request"


def test_one_chain_basis_per_analyze(monkeypatch):
    # the partition's homology check and every h1_action share one basis
    built = []
    init = _ChainBasis.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(_ChainBasis, "__init__", counting_init)
    report = analyze(pullback_cosine_field(32, ((2, 0), (0, 2))))
    assert (report.symmetry["n"], report.symmetry["m"]) == (2, 1)
    assert len(built) == 1

"""End-to-end acceptance suite: one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. The shared pool carries every accepted tree input
the "every accepted input" criteria quantify over: the three tree
models at the default grid, plus at least twenty randomized fields
(cosine pullbacks along random integer matrices and iid-uniform
samples), filtered exactly as the tool itself filters.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import lcm
from types import SimpleNamespace

import pytest

import krtorus.pipeline
from krtorus.cli import main
from krtorus.errors import InputRejected
from krtorus.fields import preset_field, pullback_cosine_field, random_field
from krtorus.homology import IntMatrix, h1_action, smith_normal_form
from krtorus.partition import build_partition
from krtorus.pipeline import analyze, verify_extension
from krtorus.reeb import compute_reeb, find_special_vertex, is_tree
from krtorus.surface import dump_surface
from krtorus.symmetry import enumerate_symmetries, group_structure, index_orbits
from krtorus.wreath import (CyclicGroup, DirectProductGroup, WreathGroup,
                            check_exact_sequence, check_group_axioms,
                            pointwise_product)

import oracles
from dense_h1 import cellular_homology

SEED = 20260819
PRESETS = ("two-cell", "z2-sym", "z2xz2-sym")

# two-cell counts are frozen from the hand census in test_partition;
# the other rows state required values directly
EXPECT = {
    "two-cell": dict(n=1, m=1, r=2, counts=(2, 4, 2),
                     expr="(A_1 x A_2) x Z^2"),
    "z2-sym": dict(n=1, m=2, r=2, counts=(4, 8, 4),
                   expr="(A_1 x A_2) wr[Z_1 x Z_2] Z^2"),
    "z2xz2-sym": dict(n=2, m=1, r=2, counts=(8, 16, 8),
                      expr="(A_1 x A_2) wr[Z_2 x Z_2] Z^2"),
}


def _full_stage(s, g=None):
    if g is None:
        g = compute_reeb(s)
    node = find_special_vertex(g)
    p = build_partition(s, g, node)
    elements = enumerate_symmetries(s, p)
    sg = group_structure(elements)
    table, reps = index_orbits(sg, p)
    return SimpleNamespace(surface=s, graph=g, node=node, part=p,
                           elements=elements, group=sg, table=table, reps=reps, r=len(reps))


@pytest.fixture(scope="module")
def pool(stage):
    entries = []
    for name in PRESETS:
        entries.append(SimpleNamespace(kind="preset", name=name, mat=None,
                                       **vars(stage(name))))

    # randomized inputs, part one: pullbacks along random integer
    # matrices. Too-coarse samples reject (cyclic graph or tie
    # degeneracy) and are skipped, exactly as the tool would skip them.
    rng = random.Random(SEED)
    seen: set = set()
    kept = 0
    while kept < 17:
        mat = ((rng.randint(-2, 2), rng.randint(-2, 2)),
               (rng.randint(-2, 2), rng.randint(-2, 2)))
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        if det == 0 or abs(det) > 4 or mat in seen:
            continue
        seen.add(mat)
        try:
            st = _full_stage(pullback_cosine_field(8, mat))
        except InputRejected:
            continue
        entries.append(SimpleNamespace(kind="pullback", name=f"pullback {mat}",
                                       mat=mat, **vars(st)))
        kept += 1

    # part two: iid-uniform samples filtered to tree graphs
    for seed in range(120):
        s = random_field(8, seed)
        g = compute_reeb(s)
        if not is_tree(g):
            continue
        st = _full_stage(s, g)
        entries.append(SimpleNamespace(kind="random", name=f"random seed {seed}",
                                       mat=None, **vars(st)))

    assert sum(1 for e in entries if e.kind != "preset") >= 20
    # each symmetry as a whole automorphism, from the every-flag oracle
    for e in entries:
        free = oracles.free_automorphisms(e.surface, e.part)
        e.whole = [free[perm] for perm in e.elements]
    return entries


@pytest.fixture(scope="module")
def preset_reports(stage):
    return {name: analyze(stage(name).surface) for name in PRESETS}


def test_criterion_01_structure_theorem_on_model_fields(stage, preset_reports):
    for name, want in EXPECT.items():
        st = stage(name)
        s = st.surface
        assert is_tree(st.graph)
        assert (st.group.n, st.group.m, st.r) == (want["n"], want["m"], want["r"])
        assert oracles.cell_counts(st.part) == want["counts"]
        assert preset_reports[name].group["expr"] == want["expr"]

        # contour oracle: the edge set reproduces brute-force contour
        # counts at every edge midlevel
        for e in st.graph.edges:
            mid = (e.interval[0] + e.interval[1]) / 2
            straddling = sum(1 for e2 in st.graph.edges
                             if e2.interval[0] < mid < e2.interval[1])
            assert oracles.count_contours(s.triangles, s.values, mid) == straddling

        # census oracle: chi of the special component matches the
        # 0/1-cell difference, on a surface that closes up to chi 0
        node = st.graph.nodes[st.node]
        comps = oracles.level_components(s.triangles, s.values, node.level)
        vcomp = [c for c in comps if set(node.critical_vertices) <= c["vertices"]]
        assert len(vcomp) == 1
        assert oracles.component_euler(vcomp[0]) == (
            len(st.part.zero_cells) - len(st.part.one_cells))
        assert oracles.euler_characteristic(s.triangles) == 0

        # orbit oracle: r orbits of 2-cells, each of full group size
        orbits = oracles.permutation_orbits(list(st.elements),
                                            len(st.part.two_cells))
        assert len(orbits) == want["r"]
        assert all(len(o) == st.group.order for o in orbits)

    two = stage("two-cell")
    assert two.graph.nodes[two.node].level == 0.0
    print("criterion 1: pass - model fields match the stated structure exactly")


def test_criterion_02_cyclic_graph_rejected(tmp_path, capsys):
    path = tmp_path / "cyclic.txt"
    path.write_text(dump_surface(preset_field("cyclic-height", 16)))
    code = main(["analyze", str(path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"]["code"] == "not-a-tree"
    assert err["error"]["b1"] == 1
    print("criterion 2: pass - cyclic graph exits 1 with the not-a-tree diagnostic")


def test_criterion_03_unique_special_vertex(pool):
    randomized = [e for e in pool if e.kind != "preset"]
    assert len(randomized) >= 20
    for e in pool:
        assert oracles.special_vertex(e.graph) == e.node, e.name
    print(f"criterion 3: pass - exactly one special vertex on all "
          f"{len(pool)} accepted inputs ({len(randomized)} randomized)")


def _perm_key(a):
    return (a.perm0, a.perm1, a.perm2)


def _perm_compose(x, y):
    # apply x, then y; plain tuples only, nothing from the package
    p0 = tuple(y[0][j] for j in x[0])
    p1 = tuple((y[1][img][0], sg * y[1][img][1]) for img, sg in x[1])
    p2 = tuple(y[2][j] for j in x[2])
    return (p0, p1, p2)


def test_criterion_04_invariant_factor_pair(pool):
    for e in pool:
        elems = [_perm_key(a) for a in e.whole]
        ident = (tuple(range(len(e.part.zero_cells))),
                 tuple((j, 1) for j in range(len(e.part.one_cells))),
                 tuple(range(len(e.part.two_cells))))
        assert elems[0] == ident
        index = set(elems)
        orders = []
        for x in elems:
            for y in elems:
                xy = _perm_compose(x, y)
                assert xy in index, f"{e.name}: not closed"
                assert xy == _perm_compose(y, x), f"{e.name}: not abelian"
            k, cur = 1, x
            while cur != ident:
                cur = _perm_compose(cur, x)
                k += 1
            orders.append(k)
        d2 = 1
        for o in orders:
            d2 = lcm(d2, o)
        assert len(elems) % d2 == 0
        d1 = len(elems) // d2
        assert d2 % d1 == 0, f"{e.name}: ({d1}, {d2}) breaks divisibility"
        assert (d1, d2) == (e.group.n, e.group.nm)
        if e.mat is not None:
            # pullback inputs: the factor pair is the cokernel of the
            # defining matrix, computed by brute-force enumeration
            assert (d1, d2) == oracles.cokernel_pair(e.mat)
    print("criterion 4: pass - abelian with d1 | d2 on every accepted input")


def test_criterion_05_snf_matches_cokernel_enumeration():
    cases = 0
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        if a * d - b * c == 0:
            continue
        cases += 1
        m = IntMatrix.from_rows([[a, b], [c, d]])
        res = smith_normal_form(m)
        assert abs(oracles.det(res.u.to_lists())) == 1
        assert abs(oracles.det(res.v.to_lists())) == 1
        assert (res.u @ m @ res.v).entries == res.d.entries
        d1, d2 = res.diagonal
        assert d1 >= 1 and d2 % d1 == 0
        assert (d1, d2) == oracles.cokernel_pair(((a, b), (c, d)))
    assert cases >= 6000
    print(f"criterion 5: pass - {cases} matrices, SNF == brute-force cokernel")


def test_criterion_06_wreath_engine():
    engine = WreathGroup(CyclicGroup(2), 1, 2)
    pool64 = [engine.element(g, (a, b)) for g in engine.grids()
              for a in (-2, -1, 0, 1) for b in (-2, -1, 0, 1)]
    assert len(pool64) == 64
    # 64^3 fits the default triple budget, so this runs every triple
    assert check_group_axioms(engine, pool64) is None
    assert check_exact_sequence(engine) is None

    rng = random.Random(SEED)
    wide = WreathGroup(CyclicGroup(3), 2, 4)
    sampled = [wide.element(tuple(tuple(rng.randrange(3) for _ in range(4))
                                  for _ in range(2)),
                            (rng.randint(-5, 5), rng.randint(-5, 5)))
               for _ in range(100)]
    assert check_group_axioms(wide, sampled, rng=rng,
                              triple_budget=100_000, samples=10_000) is None
    assert check_exact_sequence(wide) is None

    counting = WreathGroup(CyclicGroup(3), 2, 2)
    assert counting.kernel_size() == 81
    assert len(set(counting.grids())) == 81
    print("criterion 6: pass - exhaustive 64-element suite, 10^4 sampled "
          "triples, kernel count 81")


def test_criterion_07_tau_bijective_homomorphism():
    base = DirectProductGroup((CyclicGroup(3),))
    families = [{(1, 0, 0): a, (1, 0, 1): b}
                for a in range(3) for b in range(3)]
    assert len(families) == 9
    expected_grids = {(((a,), (b,)),) for a in range(3) for b in range(3)}
    for label, transport in (("identity", lambda x: x),
                             ("negation", lambda x: (-x) % 3)):
        transports = {(1, 0, 0): transport, (1, 0, 1): transport}
        images = [oracles.tau_reindex(1, 2, 1, fam, transports) for fam in families]
        assert set(images) == expected_grids, f"{label}: not a bijection"
        for f, g in itertools.product(families, repeat=2):
            prod_fam = {k: (f[k] + g[k]) % 3 for k in f}
            lhs = oracles.tau_reindex(1, 2, 1, prod_fam, transports)
            rhs = pointwise_product(base.op,
                                    oracles.tau_reindex(1, 2, 1, f, transports),
                                    oracles.tau_reindex(1, 2, 1, g, transports))
            assert lhs == rhs, f"{label}: homomorphism law fails"
    print("criterion 7: pass - tau bijective homomorphism over all 9 families")


def test_criterion_08_extension_verification(preset_reports, monkeypatch):
    menu = (CyclicGroup(1), CyclicGroup(2), CyclicGroup(3))
    names = ("wreath-axioms-exactness", "index-lattice-exactness", "kernel-size")
    combos = 0
    for name, rep in preset_reports.items():
        for atoms in itertools.product(menu, repeat=rep.symmetry["r"]):
            rec = verify_extension(rep, atoms)
            assert tuple(c.name for c in rec.checks) == names
            assert rec.passed, (name,
                                [c.detail for c in rec.checks if not c.passed])
            combos += 1
    monkeypatch.setattr(krtorus.pipeline, "WreathGroup", oracles.CorruptedWreath)
    rec = verify_extension(preset_reports["z2-sym"], (CyclicGroup(2), CyclicGroup(2)))
    assert not rec.passed
    assert [c.name for c in rec.checks if not c.passed] == ["wreath-axioms-exactness"]
    print(f"criterion 8: pass - {combos} atom instantiations verified; "
          "corrupted shift fails the first check")


def test_criterion_09_homology_and_h1_action(pool):
    ident = oracles.identity(2)
    actions = 0
    for e in pool:
        hs = cellular_homology(e.part)
        assert hs.betti == (1, 2, 1), f"{e.name}: betti {hs.betti}"
        assert hs.torsion == ((), (), ()), f"{e.name}: torsion {hs.torsion}"
        for a in e.whole:
            assert h1_action(e.part, a).entries == ident.entries, e.name
            actions += 1
    print(f"criterion 9: pass - betti (1,2,1) torsion-free everywhere; "
          f"{actions} identity H1 actions")


def test_criterion_10_analyze_is_deterministic(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_text(dump_surface(preset_field("z2-sym", 16)))
    digests = []
    for _ in range(2):
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests[0] == digests[1]
    print(f"criterion 10: pass - repeated runs hash to {digests[0][:12]}")

"""Cell-complex symmetries: enumeration, group structure, orbit labels."""
from __future__ import annotations

import pytest

import krtorus.symmetry
from krtorus.errors import InternalInvariantError
from krtorus.homology import CokernelInvariants, IntMatrix
from krtorus.partition import build_partition
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.symmetry import (CellAutomorphism, compose, enumerate_symmetries,
                              group_structure, identity_automorphism, index_orbits)

import oracles

EXPECTED = {
    "two-cell": dict(order=1, n=1, m=1),
    "z2-sym": dict(order=2, n=1, m=2),
    "z2xz2-sym": dict(order=4, n=2, m=1),
}

FROZEN_TABLES = {
    "two-cell": ((1, 0, 0), (2, 0, 0)),
    "z2-sym": ((1, 0, 0), (1, 0, 1), (2, 0, 0), (2, 0, 1)),
    "z2xz2-sym": ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
                  (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)),
}


def _table(elements):
    return oracles.permutation_table([a.perm2 for a in elements])


def _powers(mul, i):
    """Indices of the powers 1, x, x^2, ... of element i; their count is its order."""
    out = [0]
    while mul[out[-1]][i] != 0:
        out.append(mul[out[-1]][i])
    return out


def test_group_orders(stage):
    for name, want in EXPECTED.items():
        st = stage(name)
        assert st.group.order == want["order"]
        assert st.group.n == want["n"]
        assert st.group.m == want["m"]
        assert st.group.nm == want["n"] * want["m"]


def test_identity_first_and_unique(stage):
    for name in EXPECTED:
        els = stage(name).elements
        assert els[0].is_identity()
        assert sum(1 for a in els if a.is_identity()) == 1
        assert len({a.key for a in els}) == len(els)


def test_elements_form_abelian_group(stage):
    for name in EXPECTED:
        els = stage(name).elements
        keys = {a.key for a in els}
        mul = _table(els)
        for i, a in enumerate(els):
            assert compose(a, els[mul[i].index(0)]).key == els[0].key
            for b in els:
                ab = compose(a, b)
                assert ab.key in keys
                assert ab.key == compose(b, a).key


def test_action_is_free(stage):
    for name in EXPECTED:
        for a in stage(name).elements:
            if not a.is_identity():
                assert not a.fixes_some_cell()


def test_compose_inverse_round_trip(stage):
    st = stage("z2xz2-sym")
    ident = identity_automorphism(st.part)
    mul = _table(st.elements)
    for i, a in enumerate(st.elements):
        inv = st.elements[mul[i].index(0)]
        assert compose(a, inv).key == ident.key
        assert compose(inv, a).key == ident.key


def test_multiplication_table_and_orders(stage):
    st = stage("z2xz2-sym")
    mul = _table(st.elements)
    k = len(st.elements)
    for i in range(k):
        assert sorted(mul[i]) == list(range(k))  # latin square rows
        assert mul[0][i] == i and mul[i][0] == i
    orders = sorted(len(_powers(mul, i)) for i in range(k))
    assert orders == [1, 2, 2, 2]  # Z2 x Z2


def test_generators(stage):
    for name, want in EXPECTED.items():
        st = stage(name)
        mul = _table(st.elements)
        assert len(_powers(mul, st.group.gen_m)) == st.group.nm
        assert len(_powers(mul, st.group.gen_l)) == st.group.n
        if st.group.n == 1:
            assert st.group.gen_l == 0
        # L-powers times M-powers sweep the whole group
        seen = set()
        for a in range(st.group.n):
            for b in range(st.group.nm):
                x = 0
                for _ in range(a):
                    x = mul[x][st.group.gen_l]
                for _ in range(b):
                    x = mul[x][st.group.gen_m]
                seen.add(x)
        assert len(seen) == st.group.order


def test_orbit_tables_frozen(stage):
    for name, want in FROZEN_TABLES.items():
        assert stage(name).table == want
        assert stage(name).r == 2


def test_orbit_count_matches_permutation_oracle(stage):
    for name in EXPECTED:
        st = stage(name)
        perms = [a.perm2 for a in st.elements]
        orbits = oracles.permutation_orbits(perms, len(st.part.two_cells))
        assert len(orbits) == st.r
        for orb in orbits:
            assert len(orb) == st.group.order  # free action


def test_orbit_table_is_bijective_labeling(stage):
    st = stage("z2xz2-sym")
    cells = len(st.part.two_cells)
    assert len(st.table) == cells
    assert len(set(st.table)) == cells
    labels = {(i, j, k) for i in (1, 2)
              for j in range(st.group.n) for k in range(st.group.nm)}
    assert set(st.table) == labels


def test_orbit_labels_respect_signatures(stage):
    # cells in one orbit carry the same branch label
    for name in EXPECTED:
        st = stage(name)
        by_orbit = {}
        for cell_id, (i, _j, _k) in enumerate(st.table):
            by_orbit.setdefault(i, set()).add(
                st.part.two_cells[cell_id].level_signature)
        for sigs in by_orbit.values():
            assert len(sigs) == 1


def test_asymmetric_field_is_trivial(twin_peaks):
    g = compute_reeb(twin_peaks)
    node = find_special_vertex(g)
    p = build_partition(twin_peaks, g, node)
    els = enumerate_symmetries(twin_peaks, p)
    assert len(els) == 1 and els[0].is_identity()
    sg = group_structure(els)
    assert (sg.n, sg.m) == (1, 1)
    table, r = index_orbits(sg, p)
    assert r == 2 and table == ((1, 0, 0), (2, 0, 0))


def regular_representation(a, b):
    """Z_a x Z_b acting on itself by translation, sorted by key, identity first.

    Element (x, y) is cell x*b + y; every element moves 0-, 1- and
    2-cells alike, with orientation kept.
    """
    k = a * b
    out = []
    for x in range(a):
        for y in range(b):
            perm = tuple((x + i // b) % a * b + (y + i) % b for i in range(k))
            out.append(CellAutomorphism(perm, tuple((j, 1) for j in perm), perm))
    return tuple(sorted(out, key=lambda e: e.key))


# every Z_a x Z_b with a | b up to order 64
FACTOR_PAIRS = [(a, b) for a in range(1, 9) for b in range(a, 65, a) if a * b <= 64]


def _record_presentations(monkeypatch):
    seen = []
    smith = krtorus.symmetry.cokernel_invariants

    def recording(m):
        inv = smith(m)
        seen.append((m, inv))
        return inv

    monkeypatch.setattr(krtorus.symmetry, "cokernel_invariants", recording)
    return seen


def _table_factors(mul):
    return oracles.cokernel_factors(oracles.cayley_relation_matrix(mul))


@pytest.mark.parametrize("a,b", FACTOR_PAIRS, ids=[f"Z{a}xZ{b}" for a, b in FACTOR_PAIRS])
def test_presentation_matches_cayley_table(monkeypatch, a, b):
    els = regular_representation(a, b)
    seen = _record_presentations(monkeypatch)
    sg = group_structure(els)
    assert (sg.n, sg.nm) == (a, b)
    (_, inv), = seen
    mul = _table(els)
    assert inv.factors == _table_factors(mul)
    # the generators fix the orbit table: gen_m is the first element of
    # order nm, gen_l has order n and meets <gen_m> only in the identity
    powers = [_powers(mul, i) for i in range(len(els))]
    assert sg.gen_m == min(i for i, p in enumerate(powers) if len(p) == b)
    assert len(powers[sg.gen_l]) == a
    assert set(powers[sg.gen_l]) & set(powers[sg.gen_m]) == {0}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pool_presentation_matches_cayley_table(monkeypatch, stage, name):
    els = stage(name).elements
    seen = _record_presentations(monkeypatch)
    sg = group_structure(els)
    assert (sg.n, sg.m) == (EXPECTED[name]["n"], EXPECTED[name]["m"])
    (_, inv), = seen
    assert inv.factors == _table_factors(_table(els))


def test_presentation_size_is_linear_in_the_order(monkeypatch):
    # a size bound, not a timing bound: the Cayley table gave 64 x 4097
    els = regular_representation(8, 8)
    seen = _record_presentations(monkeypatch)
    group_structure(els)
    (m, _), = seen
    rows, cols = m.shape
    assert rows <= 3 and cols <= 3 * len(els)


def test_dropped_relation_is_caught(monkeypatch):
    smith = krtorus.symmetry.cokernel_invariants

    def drop_last_relation(m):
        rows, cols = m.shape
        return smith(IntMatrix.from_rows([r[:-1] for r in m.entries], cols=cols - 1))

    monkeypatch.setattr(krtorus.symmetry, "cokernel_invariants", drop_last_relation)
    with pytest.raises(InternalInvariantError):
        group_structure(regular_representation(8, 8))


def test_element_orders_catch_a_wrong_split(monkeypatch):
    # right order, wrong invariant factors: only the element-order route sees it
    monkeypatch.setattr(krtorus.symmetry, "cokernel_invariants",
                        lambda m: CokernelInvariants((4, 16), free_rank=0))
    with pytest.raises(InternalInvariantError,
                       match=r"element orders give \(8, 8\), Smith form gives \(4, 16\)"):
        group_structure(regular_representation(8, 8))


def test_missing_product_is_caught():
    # Z2 x Z4 without one element: the products that land on it are missing
    els = regular_representation(2, 4)
    with pytest.raises(InternalInvariantError,
                       match="symmetry set is not closed under composition"):
        group_structure(els[:3] + els[4:])


def test_closure_is_checked_on_whole_automorphisms():
    # a swaps the two 2-cells, so its 2-cell table is Z2, but a composed
    # with itself turns the 0-cells by a 3-cycle squared, not the identity
    ident = CellAutomorphism((0, 1, 2), (), (0, 1))
    a = CellAutomorphism((1, 2, 0), (), (1, 0))
    with pytest.raises(InternalInvariantError,
                       match="symmetry set is not closed under composition"):
        group_structure((ident, a))


def test_shared_two_cell_permutation_is_caught():
    ident = CellAutomorphism((0, 1, 2), (), (0, 1))
    a = CellAutomorphism((1, 2, 0), (), (0, 1))
    with pytest.raises(InternalInvariantError, match="send 2-cell 0 to the same 2-cell"):
        group_structure((ident, a))


def test_symmetry_fixing_two_cell_zero_is_caught():
    # a is not the identity and its 2-cell permutation is a Z2 with the
    # identity's, but it fixes 2-cell 0, so the two share a name
    ident = CellAutomorphism((0, 1, 2), (), (0, 1, 2))
    a = CellAutomorphism((0, 1, 2), (), (0, 2, 1))
    with pytest.raises(InternalInvariantError, match="send 2-cell 0 to the same 2-cell"):
        group_structure((ident, a))


def test_whole_automorphisms_compose_only_on_cayley_edges(monkeypatch):
    # products are read off the names; whole automorphisms are composed
    # once per Cayley edge, k*s with s <= 3 here (a full table takes k^2)
    calls = []
    real = krtorus.symmetry.compose

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(krtorus.symmetry, "compose", counting)
    els = regular_representation(8, 8)
    group_structure(els)
    assert 0 < len(calls) <= 3 * len(els)

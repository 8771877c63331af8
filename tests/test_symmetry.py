"""Cell-complex symmetries: enumeration, group structure, orbit labels."""
from __future__ import annotations

import re
from itertools import permutations
from types import SimpleNamespace

import pytest

import krtorus.symmetry
from krtorus.errors import InternalInvariantError
from krtorus.homology import CokernelInvariants, IntMatrix
from krtorus.partition import build_partition
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.symmetry import SymmetryGroup, enumerate_symmetries, group_structure, index_orbits

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
    return oracles.permutation_table(list(elements))


def _whole(st):
    """The stage's symmetries as whole automorphisms, from the every-flag oracle."""
    free = oracles.free_automorphisms(st.surface, st.part)
    return [free[perm] for perm in st.elements]


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
        st = stage(name)
        els = st.elements
        assert els[0] == tuple(range(len(st.part.two_cells)))
        assert len(set(els)) == len(els)
        whole = _whole(st)
        assert oracles.is_identity(whole[0])
        assert sum(1 for a in whole if oracles.is_identity(a)) == 1


def test_elements_form_abelian_group(stage):
    for name in EXPECTED:
        whole = _whole(stage(name))
        mul = _table(stage(name).elements)
        keys = set(whole)
        for i, a in enumerate(whole):
            assert oracles.compose(a, whole[mul[i].index(0)]) == whole[0]
            for b in whole:
                ab = oracles.compose(a, b)
                assert ab in keys
                assert ab == oracles.compose(b, a)


def test_action_is_free(stage):
    for name in EXPECTED:
        for a in _whole(stage(name))[1:]:
            assert not oracles.fixes_some_cell(a)


def test_compose_inverse_round_trip(stage):
    st = stage("z2xz2-sym")
    ident = oracles.identity_automorphism(st.part)
    whole = _whole(st)
    mul = _table(st.elements)
    for i, a in enumerate(whole):
        inv = whole[mul[i].index(0)]
        assert oracles.compose(a, inv) == ident
        assert oracles.compose(inv, a) == ident


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
        perms = list(st.elements)
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
    assert els == (tuple(range(len(p.two_cells))),)
    sg = group_structure(els)
    assert (sg.n, sg.m) == (1, 1)
    table, r = index_orbits(sg, p)
    assert r == 2 and table == ((1, 0, 0), (2, 0, 0))


@pytest.mark.parametrize("n,nm,gen,name", [(1, 2, "gen_m", "L^0 M^1"), (2, 1, "gen_l", "L^1 M^0")])
def test_equivariance_is_checked_on_the_generators(n, nm, gen, name):
    # the generator's cycles do not close after its order: the walk names
    # cells 0, 1 and 2, 3 without a revisit, but it sends cell 1 to 2
    turn = (1, 2, 3, 0)
    sg = SymmetryGroup(((0, 1, 2, 3), turn), n, nm, **{"gen_l": 0, "gen_m": 0, gen: 1})
    cells = SimpleNamespace(zero_cells=range(2), one_cells=range(2), two_cells=range(4))
    with pytest.raises(InternalInvariantError, match=re.escape(f"equivariance fails for {name} at cell 1")):
        index_orbits(sg, cells)


def regular_representation(a, b):
    """Z_a x Z_b acting on itself by translation, as sorted 2-cell permutations.

    Element (x, y) sends cell i to the cell of (x, y) + (i // b, i);
    cell x*b + y is (x, y), and the identity comes first.
    """
    k = a * b
    return tuple(sorted(tuple((x + i // b) % a * b + (y + i) % b for i in range(k))
                        for x in range(a) for y in range(b)))


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
    (m, inv), = seen
    mul = _table(els)
    assert inv.factors == _table_factors(mul)
    # the generators fix the orbit table: gen_m is the first element of
    # order nm, gen_l has order n and meets <gen_m> only in the identity
    powers = [_powers(mul, i) for i in range(len(els))]
    assert sg.gen_m == min(i for i, p in enumerate(powers) if len(p) == b)
    assert len(powers[sg.gen_l]) == a
    assert set(powers[sg.gen_l]) & set(powers[sg.gen_m]) == {0}
    # the presentation is on (gen_l, gen_m): every relation column (x, y)
    # has L^x M^y equal to the identity
    pl, pm = powers[sg.gen_l], powers[sg.gen_m]
    assert m.shape[0] == 2
    assert all(mul[pl[x % a]][pm[y % b]] == 0 for x, y in zip(*m.entries))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pool_presentation_matches_cayley_table(monkeypatch, stage, name):
    els = stage(name).elements
    seen = _record_presentations(monkeypatch)
    sg = group_structure(els)
    assert (sg.n, sg.m) == (EXPECTED[name]["n"], EXPECTED[name]["m"])
    (m, inv), = seen
    assert m.shape[0] == 2
    assert inv.factors == _table_factors(_table(els))


def test_presentation_size_is_linear_in_the_order(monkeypatch):
    # a size bound, not a timing bound: the Cayley table gave 64 x 4097
    els = regular_representation(8, 8)
    seen = _record_presentations(monkeypatch)
    group_structure(els)
    (m, _), = seen
    rows, cols = m.shape
    assert rows == 2 and cols <= 3 * len(els)


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


def test_non_abelian_group_is_caught():
    # S3 acting on itself: a 3-cycle and a swap generate it but do not commute
    s3 = sorted(permutations(range(3)))
    at = {p: i for i, p in enumerate(s3)}
    els = tuple(sorted(tuple(at[tuple(g[h[c]] for c in range(3))] for h in s3) for g in s3))
    with pytest.raises(InternalInvariantError, match="symmetry group is not abelian"):
        group_structure(els)


def test_three_invariant_factors_are_caught():
    # Z2^3 has exponent 2, so n would be 4, and no element has order 4
    els = tuple(sorted(tuple(c ^ x for c in range(8)) for x in range(8)))
    with pytest.raises(InternalInvariantError,
                       match="no order-n complement to the maximal cyclic factor"):
        group_structure(els)


def test_missing_product_is_caught():
    # Z2 x Z4 without one element: the products that land on it are missing
    els = regular_representation(2, 4)
    with pytest.raises(InternalInvariantError,
                       match="symmetry set is not closed under composition"):
        group_structure(els[:3] + els[4:])


def test_closure_is_checked_on_whole_permutations():
    # a swaps 2-cells 0 and 1, so its names give Z2, but a composed with
    # itself turns 2-cells 2, 3, 4 by a 3-cycle squared, not the identity
    with pytest.raises(InternalInvariantError,
                       match="symmetry set is not closed under composition"):
        group_structure(((0, 1, 2, 3, 4), (1, 0, 3, 4, 2)))


def test_shared_two_cell_permutation_is_caught():
    with pytest.raises(InternalInvariantError, match="send 2-cell 0 to the same 2-cell"):
        group_structure(((0, 1), (0, 1)))


def test_symmetry_fixing_two_cell_zero_is_caught():
    # a is not the identity and its 2-cell permutation is a Z2 with the
    # identity's, but it fixes 2-cell 0, so the two share a name
    with pytest.raises(InternalInvariantError, match="send 2-cell 0 to the same 2-cell"):
        group_structure(((0, 1, 2), (0, 2, 1)))

"""Cell-complex symmetries: enumeration, group structure, orbit labels."""
from __future__ import annotations

import re
from functools import partial
from itertools import permutations
from types import SimpleNamespace

import pytest

from krtorus.errors import InternalInvariantError
from krtorus.fields import preset_field, pullback_cosine_field
from krtorus.partition import build_partition
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.surface import vertex_classes
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
        st = stage(name)
        assert st.table == want
        # reps[i - 1] is the cell named (i, 0, 0)
        assert [st.table[c] for c in st.reps] == [(1, 0, 0), (2, 0, 0)]


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


TRANSLATED = (
    [(f"{name}@{n}", partial(preset_field, name, n), n, EXPECTED[name]["order"])
     for name in EXPECTED for n in (16, 32)]
    + [(f"pullback {mat}@{n}", partial(pullback_cosine_field, n, mat), n, order)
       for mat, n, order in ((((2, 0), (0, 2)), 16, 4), (((3, 0), (0, 3)), 24, 9),
                             (((4, 0), (0, 4)), 32, 16), (((8, 0), (0, 8)), 32, 64),
                             (((2, 1), (-1, 2)), 20, 5))]
    # order 1, with half of the 2-cells alike to 2-cell 0 in signature and walk length
    + [(f"bump k={k}@{4 * k}", partial(oracles.bump_field, k), 4 * k, 1) for k in (4, 8)])


@pytest.mark.parametrize("make, n, order", [t[1:] for t in TRANSLATED],
                         ids=[t[0] for t in TRANSLATED])
def test_grid_translations_are_the_symmetries(make, n, order):
    # an oracle for S that reads no symmetry code: each value-preserving
    # translation of the grid is a symmetry, and they are all of them
    s = make()
    g = compute_reeb(s)
    p = build_partition(s, g, find_special_vertex(g))
    elements = enumerate_symmetries(s, p)
    moves = oracles.grid_translations(n, s.values, p)
    assert set(moves) <= set(elements)
    assert len(moves) == len(elements) == order


# (k, generators of H in Z_k x Z_k, (order, n, m, r) worked out by hand)
DECORATED = [(4, (), (1, 1, 1, 32)), (4, ((2, 0),), (2, 1, 2, 16)), (4, ((1, 0),), (4, 1, 4, 8)),
             (4, ((1, 1),), (4, 1, 4, 8)), (4, ((1, 2),), (4, 1, 4, 8)),
             (4, ((2, 0), (0, 2)), (4, 2, 1, 8)), (4, ((1, 0), (0, 1)), (16, 4, 1, 2)),
             (8, ((2, 0), (0, 4)), (8, 2, 2, 16)), (8, ((1, 3),), (8, 1, 8, 16)),
             (8, ((4, 4),), (2, 1, 2, 64))]


@pytest.mark.parametrize("k, gens, expected", DECORATED,
                         ids=[f"k={k} H=<{' '.join(f'{a},{b}' for a, b in gens) or '1'}>"
                              for k, gens, _ in DECORATED])
def test_decorated_fields_have_the_group_of_their_decoration(k, gens, expected):
    # S should be H, read from H alone: H is Z_n x Z_nm with nm its exponent,
    # the largest order of an element, and the 2k^2 2-cells fall in |H|-orbits
    h = oracles.subgroup(k, gens)
    exponent = max(next(t for t in range(1, k + 1) if t * a % k == t * b % k == 0) for a, b in h)
    n = len(h) // exponent
    assert (len(h), n, exponent // n, 2 * k * k // len(h)) == expected
    s = oracles.decorated_field(k, gens)
    g = compute_reeb(s)
    p = build_partition(s, g, find_special_vertex(g))
    elements = enumerate_symmetries(s, p)
    sg = group_structure(elements)
    assert (len(elements), sg.n, sg.nm // sg.n, len(index_orbits(sg, p)[1])) == expected
    moves = oracles.grid_translations(4 * k, s.values, p)
    assert len(moves) == len(h) and set(moves) <= set(elements)


@pytest.mark.parametrize("n", [7, 14, 21, 28])
def test_monkey_saddle_lift_has_its_deck_group(n):
    # the one tier-1 field with a k-fold saddle, here 2-fold, on its special
    # level; its group comes from the lattice, not from the symmetry code
    s = oracles.monkey_field(n)
    labels = {c.label() for c in vertex_classes(s) if c.is_critical}
    assert labels == {"saddle:2", "minimum", "maximum"}
    g = compute_reeb(s)
    node = find_special_vertex(g)
    assert g.nodes[node].level == 0 and "saddle:2" in g.nodes[node].kinds
    p = build_partition(s, g, node)
    elements = enumerate_symmetries(s, p)
    sg = group_structure(elements)
    order = n * n // 7
    assert (len(elements), sg.n, sg.nm // sg.n, len(index_orbits(sg, p)[1])) == (order, n // 7, 7, 2)
    assert (sg.n, sg.nm) == oracles.cokernel_pair(((n // 7, 2 * n // 7), (0, n)))
    moves = oracles.grid_translations(n, s.values, p)
    assert len(moves) == order and set(moves) <= set(elements)


def test_asymmetric_field_is_trivial(twin_peaks):
    g = compute_reeb(twin_peaks)
    node = find_special_vertex(g)
    p = build_partition(twin_peaks, g, node)
    els = enumerate_symmetries(twin_peaks, p)
    assert els == (tuple(range(len(p.two_cells))),)
    sg = group_structure(els)
    assert (sg.n, sg.m) == (1, 1)
    assert index_orbits(sg, p) == (((1, 0, 0), (2, 0, 0)), [0, 1])


@pytest.mark.parametrize("n,nm,gen,message", [
    (1, 2, "gen_m", "equivariance fails for L^0 M^1 at cell 1"),
    (2, 1, "gen_l", "equivariance fails for L^1 M^0 at cell 1")],
    ids=["1-2-gen_m-L^0 M^1", "2-1-gen_l-L^1 M^0"])
def test_equivariance_is_checked_on_the_generators(n, nm, gen, message):
    # the generator's cycles do not close after its order: the walk names
    # cells 0, 1 and 2, 3 without a revisit, but it sends cell 1 to 2
    turn = (1, 2, 3, 0)
    sg = SymmetryGroup(((0, 1, 2, 3), turn), n, nm, **{"gen_l": 0, "gen_m": 0, gen: 1})
    cells = SimpleNamespace(zero_cells=range(2), one_cells=range(2), two_cells=range(4))
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
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


def _cells(k: int):
    """A partition stand-in with k cells in each dimension."""
    return SimpleNamespace(zero_cells=range(k), one_cells=range(k), two_cells=range(k))


def _table_factors(mul):
    return oracles.cokernel_factors(oracles.cayley_relation_matrix(mul))


def _check_selection(els, sg):
    """(n, nm) are the Cayley table's invariant factors, L and M follow the
    selection rule, and index_orbits proves the group on the regular
    representation, the table's rows, where it is one orbit."""
    mul = _table(els)
    assert _table_factors(mul) == tuple(d for d in (sg.n, sg.nm) if d > 1)
    # gen_m is the first element of order nm, gen_l has order n and meets
    # <gen_m> only in the identity
    powers = [_powers(mul, i) for i in range(len(els))]
    assert sg.gen_m == min(i for i, p in enumerate(powers) if len(p) == sg.nm)
    assert len(powers[sg.gen_l]) == sg.n
    assert set(powers[sg.gen_l]) & set(powers[sg.gen_m]) == {0}
    regular = tuple(map(tuple, mul))  # element i sends j to i j; row i starts with i
    rg = group_structure(regular)
    assert (rg.n, rg.nm, rg.gen_l, rg.gen_m) == (sg.n, sg.nm, sg.gen_l, sg.gen_m)
    table, reps = index_orbits(rg, _cells(len(els)))
    assert reps == [0] and sorted(table) == [(1, j, k) for j in range(sg.n) for k in range(sg.nm)]


@pytest.mark.parametrize("a,b", FACTOR_PAIRS, ids=[f"Z{a}xZ{b}" for a, b in FACTOR_PAIRS])
def test_presentation_matches_cayley_table(a, b):
    els = regular_representation(a, b)
    sg = group_structure(els)
    assert (sg.n, sg.nm) == (a, b)
    _check_selection(els, sg)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pool_presentation_matches_cayley_table(stage, name):
    els = stage(name).elements
    sg = group_structure(els)
    assert (sg.n, sg.m) == (EXPECTED[name]["n"], EXPECTED[name]["m"])
    _check_selection(els, sg)


def test_non_abelian_group_is_caught():
    # S3 acting on itself: M a 3-cycle and L a swap index its six cells
    # without a revisit, but L M = M^-1 L, so L does not add (1, 0)
    s3 = sorted(permutations(range(3)))
    at = {p: i for i, p in enumerate(s3)}
    els = tuple(sorted(tuple(at[tuple(g[h[c]] for c in range(3))] for h in s3) for g in s3))
    sg = group_structure(els)
    assert (sg.n, sg.nm) == (2, 3)
    with pytest.raises(InternalInvariantError,
                       match=re.escape("equivariance fails for L^1 M^0 at cell")):
        index_orbits(sg, _cells(6))


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
    # itself turns 2-cells 2, 3, 4, 5 by a 4-cycle squared, not the identity
    sg = group_structure(((0, 1, 2, 3, 4, 5), (1, 0, 3, 4, 5, 2)))
    with pytest.raises(InternalInvariantError,
                       match=re.escape("equivariance fails for L^0 M^1 at cell 3")):
        index_orbits(sg, _cells(6))


def test_shared_two_cell_permutation_is_caught():
    with pytest.raises(InternalInvariantError, match="send 2-cell 0 to the same 2-cell"):
        group_structure(((0, 1), (0, 1)))


def test_symmetry_fixing_two_cell_zero_is_caught():
    # a is not the identity and its 2-cell permutation is a Z2 with the
    # identity's, but it fixes 2-cell 0, so the two share a name
    with pytest.raises(InternalInvariantError, match="send 2-cell 0 to the same 2-cell"):
        group_structure(((0, 1, 2), (0, 2, 1)))


def test_elements_without_the_identity_first_are_caught():
    with pytest.raises(InternalInvariantError,
                       match="elements are not sorted with the identity first"):
        group_structure(((1, 0), (0, 1)))


def test_group_order_must_divide_every_cell_count():
    sg = SymmetryGroup(((0, 1, 2), (1, 2, 0)), 1, 2, 0, 1)
    cells = SimpleNamespace(zero_cells=range(2), one_cells=range(2), two_cells=range(3))
    with pytest.raises(InternalInvariantError,
                       match="cell count 3 is not divisible by the group order 2"):
        index_orbits(sg, cells)


def test_generator_powers_that_revisit_a_cell_are_caught():
    # M is named the identity, so its powers stay on cell 0 where nm = 2 asks for two cells
    sg = SymmetryGroup(((0, 1), (1, 0)), 1, 2, 0, 0)
    cells = SimpleNamespace(zero_cells=range(2), one_cells=range(2), two_cells=range(2))
    with pytest.raises(InternalInvariantError,
                       match="generator powers revisit a 2-cell; indexing is not bijective"):
        index_orbits(sg, cells)


def test_element_the_generators_miss_is_caught():
    # two transpositions through 2-cell 0: orders 1, 2, 2 give exponent 2 and
    # L the identity, so L and M reach only the identity's name and M's
    sg = group_structure(((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 4, 0, 5, 1, 3)))
    with pytest.raises(InternalInvariantError,
                       match="orbit 1 is not the set of symmetry names: <L, M> misses one"):
        index_orbits(sg, _cells(6))


def test_third_name_the_generators_miss_is_caught():
    # L and M make Z2 x Z2 act freely on eight cells in two orbits, so orbit
    # 1 has as many cells as there are names, but the name 4 of the element
    # after L lies in orbit 2
    els = ((0, 1, 2, 3, 4, 5, 6, 7), (1, 0, 3, 2, 5, 4, 7, 6), (2, 3, 0, 1, 6, 7, 4, 5),
           (4, 5, 6, 7, 0, 1, 2, 3))
    sg = group_structure(els)
    assert (sg.n, sg.nm, sg.gen_l, sg.gen_m) == (2, 2, 2, 1)
    with pytest.raises(InternalInvariantError,
                       match="orbit 1 is not the set of symmetry names: <L, M> misses one"):
        index_orbits(sg, _cells(8))

"""Symmetries of the cell partition.

An element is an automorphism of the cell complex that maps every
2-cell to a 2-cell with the same level signature (so the field data
over the matched branches agree), preserves the boundary walk
orientation, acts as the identity on first homology, and moves every
cell (freeness, vacuous for the identity).

Enumeration seeds on 2-cell number 0: _attempt propagates a flag (t, r),
an image t and a boundary rotation r, across shared arcs until the whole
complex is matched or one of three tests fails, so a flag fixes its
automorphism; the tree-cotree check makes every other test redundant
(_attempt's docstring). Orientation reversal never enters because
boundary walks are only ever aligned forward. The automorphisms act
regularly on the flags they reach, so the flags are closed as an orbit
(Seress, Permutation Group Algorithms, 2.1 and 4.1): a flag that is
reached already is never attempted, and a success becomes a generator.

Only the generators are built whole. h1_action runs once on each: it
checks the chain map on arc endpoints and boundary walks, then reads
the cocycles of the partition's tree-cotree basis on the images of its
two cycles. Every other automorphism is a product of generators, hence
a chain map, and is kept as its 2-cell permutation and the product of
its generators' H1 matrices (H1 is a homomorphism).

Freeness is not tested; it follows from the H1 matrix. Let a be an
automorphism other than the identity. Every arc lies on two walks with
opposite signs, so an arc that a maps to itself with sign +1 fixes a
(2-cell, position) flag, and a would be the identity. So the trace of a
on 1-chains is minus the number of arcs it reverses, and the Hopf trace
formula (Hatcher, Algebraic Topology, 2.C), 1 - tr H1(a) + 1 =
tr C0(a) - tr C1(a) + tr C2(a), reads

    2 - tr H1(a) = (fixed 0-cells) + (reversed arcs) + (fixed 2-cells).

If H1(a) is the identity the left side is 0, so a moves every cell.
Conversely, if a moves every cell, tr H1(a) = 2; a keeps orientation
and has finite order, so H1(a) is a finite-order element of SL(2, Z)
with trace 2, which is the identity.

The group stage names each symmetry by its image of 2-cell 0. The
action on 2-cells is free, so one cell is a base (Seress, Permutation
Group Algorithms, ch. 4) and distinct symmetries have distinct names.
group_structure selects a generator pair (L, M) by element orders, and
the orbit grid that index_orbits builds on it proves the group Z_n x Z_nm.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError
from .homology import cokernel_invariants  # noqa: F401  bench/tracer.py wraps this binding
from .homology import h1_action
from .partition import CellPartition
from .surface import vertex_classes  # noqa: F401  bench/tracer.py wraps this binding


@dataclass(frozen=True)
class CellAutomorphism:
    """Permutations of cells by index; arcs carry +-1 for orientation flips."""

    perm0: tuple[int, ...]
    perm1: tuple[tuple[int, int], ...]
    perm2: tuple[int, ...]


def _attempt(p: CellPartition, t0: int, r0: int):
    """The automorphism of flag (t0, r0) and the walk rotation of each 2-cell, or None.

    The seed (2-cell 0 -> t0, rotation r0) is propagated across shared
    arcs: position pos of c's walk goes to position pos + r of its image
    t's walk, and the arc's other side in p.sides to the image arc's
    other side. It fails on a walk length or level signature that
    differs, a 2-cell met again with another image or rotation, or a
    0-cell whose p.zero_labels entry differs from its image's. Nothing
    else can fail: tree_cotree proved p.sides, two walk positions with
    opposite signs on every arc, that shared arcs connect the 2-cells
    and that walks close up, and every 0-cell ends an arc, so perm0,
    written from the arc map, is whole. Sides of signs s, -s go to sides
    of signs s2, -s2, so both give the arc the sign s * s2, and the
    second side is read through its 2-cell's image, which the conflict
    test fixed. Each 2-cell is popped, and its length tested, once. The
    sides over a position of t's walk correspond one to one with those
    over the arc's other side, so neighbouring 2-cells have equally many
    preimages, k each, and k * n2 = n2 gives k = 1: the 2-cell, side and
    arc maps are bijections. The corners at a 0-cell form one cycle,
    linked by arcs' two sides, which the side map keeps; so it maps the
    cycle onto one corner cycle, every arc end at v goes to the same w,
    and v -> w is a bijection.
    """
    cells = p.two_cells
    cell_map = {0: (t0, r0)}
    arc_map: dict[int, tuple[int, int]] = {}
    work = [0]
    while work:
        c = work.pop()
        t, r = cell_map[c]
        bc, bt = cells[c].boundary, cells[t].boundary
        ln = len(bc)
        if len(bt) != ln or cells[c].level_signature != cells[t].level_signature:
            return None
        for pos, (a, s) in enumerate(bc):
            ipos = (pos + r) % ln
            a2, s2 = bt[ipos]
            arc_map[a] = (a2, s * s2)
            d, q, _ = p.sides[a][s > 0]  # the side of sign -s
            t2, q2, _ = p.sides[a2][s2 > 0]
            rd = (q2 - q) % len(cells[d].boundary)
            prev = cell_map.get(d)
            if prev is None:
                cell_map[d] = (t2, rd)
                work.append(d)
            elif prev != (t2, rd):
                return None
    perm1 = tuple(arc_map[a] for a in range(len(p.one_cells)))
    perm0 = [0] * len(p.zero_cells)
    for src, (a2, eps) in zip(p.one_cells, perm1):
        dst = p.one_cells[a2]
        perm0[src.tail], perm0[src.head] = (dst.tail, dst.head) if eps > 0 else (dst.head, dst.tail)
    if tuple(map(p.zero_labels.__getitem__, perm0)) != p.zero_labels:
        return None
    perm2, rot = zip(*(cell_map[c] for c in range(len(cells))))
    return CellAutomorphism(tuple(perm0), perm1, perm2), rot


def _automorphisms(p: CellPartition) -> dict:
    """Every automorphism of the partition by flag, as (2-cell permutation, H1 matrix).

    The matrices are plain ((a, b), (c, d)) row tuples, multiplied inline.

    Flag (t, r) names the automorphism that sends position 0 of 2-cell
    0's walk to position r of t's walk. A generator keeps the walk
    rotation of every 2-cell, so it moves a flag in O(1), and the image
    of that position's (arc, sign) through its perm1, whose p.sides entry
    of that sign must be the flag it reaches.
    """
    cells = p.two_cells
    sig0 = cells[0].level_signature
    ln0 = len(cells[0].boundary)
    arc0, sgn0 = cells[0].boundary[0]
    elem = {(0, 0): (tuple(range(len(cells))), ((1, 0), (0, 1)))}
    arc_img = {(0, 0): (arc0, 1)}  # each flag's image of arc0, with its sign
    reached = [(0, 0)]  # elem's flags in filing order; the closure walks it as it grows
    gens = []  # (automorphism, walk rotation of each 2-cell, H1 matrix entries)
    for t in range(len(cells)):
        if cells[t].level_signature != sig0 or len(cells[t].boundary) != ln0:
            continue
        for r in range(ln0):
            if (t, r) in elem or (found := _attempt(p, t, r)) is None:
                continue
            gens.append((*found, h1_action(p, found[0]).entries))
            for t1, r1 in reached:
                perm, ((m00, m01), (m10, m11)) = elem[t1, r1]
                img, eps = arc_img[t1, r1]
                for h, rot, ((h00, h01), (h10, h11)) in gens:
                    flag = (h.perm2[t1], (r1 + rot[t1]) % ln0)
                    if flag in elem:
                        continue
                    img2, eps2 = h.perm1[img][0], h.perm1[img][1] * eps
                    # the image of 2-cell 0's first (arc, sign) must sit where the flag says
                    if p.sides[img2][sgn0 * eps2 < 0][:2] != flag:
                        raise InternalInvariantError(
                            f"automorphism filed under flag {flag} carries another")
                    elem[flag] = (tuple(map(h.perm2.__getitem__, perm)),
                                  ((h00 * m00 + h01 * m10, h00 * m01 + h01 * m11),
                                   (h10 * m00 + h11 * m10, h10 * m01 + h11 * m11)))
                    arc_img[flag] = (img2, eps2)
                    reached.append(flag)
    return elem


def enumerate_symmetries(p: CellPartition) -> tuple[tuple[int, ...], ...]:
    """The 2-cell permutations of all symmetries of the partition, sorted.

    A symmetry is an automorphism with identity H1 matrix. The action is
    then free (module docstring), so its 2-cell permutation names it.
    """
    return tuple(sorted(perm for perm, mat in _automorphisms(p).values()
                        if mat == ((1, 0), (0, 1))))


@dataclass(frozen=True)
class SymmetryGroup:
    """The full symmetry group with its two-factor abelian structure.

    The group is Z_n x Z_nm, as index_orbits proves: gen_l generates the
    order-n factor, gen_m the order-nm factor (indices into elements, the
    2-cell permutations; gen_l is the identity when n is 1).
    """

    elements: tuple[tuple[int, ...], ...]
    n: int
    nm: int
    gen_l: int
    gen_m: int

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def m(self) -> int:
        return self.nm // self.n


def group_structure(elements) -> SymmetryGroup:
    """The generator pair (L, M) and the grid (n, nm) that element orders select.

    Each element, a 2-cell permutation, is named by its image of 2-cell
    0. On a free action the names are distinct (if a and b shared one,
    b^-1 a would fix 2-cell 0), and that is checked. The cycle of 2-cell
    0 under a names the powers of a, so its length is a's order. The
    exponent is nm and n = k / nm; M (gen_m) is the first element of
    order nm, L (gen_l) the first of order n whose powers meet <M> only
    in the identity. No permutation is composed here: index_orbits
    proves that L and M generate the group as Z_n x Z_nm.
    """
    k = len(elements)
    if elements[0] != tuple(range(len(elements[0]))):
        raise InternalInvariantError("elements are not sorted with the identity first")
    at = {a[0]: i for i, a in enumerate(elements)}
    if len(at) != k:
        raise InternalInvariantError("two distinct symmetries send 2-cell 0 to the same 2-cell")

    # a permutation's cycle through 2-cell 0 visits distinct cells, so each loop ends
    powers = []  # powers[i]: the indices of 1, a, a^2, ... for a = elements[i]
    for a in elements:
        cyc, cell = [0], a[0]
        while cell != 0:
            if cell not in at:
                raise InternalInvariantError("symmetry set is not closed under composition")
            cyc.append(at[cell])
            cell = a[cell]
        powers.append(cyc)

    orders = [len(cyc) for cyc in powers]
    exponent = max(orders)
    m_idx = orders.index(exponent)
    m_cyc = set(powers[m_idx])
    l_idx = next((i for i in range(k)
                  if orders[i] == k // exponent and m_cyc.isdisjoint(powers[i][1:])), None)
    if l_idx is None:
        raise InternalInvariantError("no order-n complement to the maximal cyclic factor")
    return SymmetryGroup(tuple(elements), k // exponent, exponent, l_idx, m_idx)


def equivariance_break(rows, gl, gm, n: int, nm: int):
    """The first (a, b, cell) where L^a M^b does not add (a, b) to rows[cell] = (i, j, k)."""
    for (a, b), g in (((0, 1), gm), ((1, 0), gl)):
        for cell, (i, j, k) in enumerate(rows):
            if rows[g[cell]] != (i, (j + a) % n, (k + b) % nm):
                return a, b, cell
    return None


def index_orbits(sg: SymmetryGroup, p: CellPartition):
    """Three-index naming of 2-cells: cell (i, j, k) is M^k(L^j(rep of orbit i)).

    Returns (table, reps): table[cell id] = (i, j, k) with i in 1..r,
    j in Z_n, k in Z_nm; each least cell not yet named is reps[i - 1], the
    rep of the next orbit i, named (i, 0, 0), and r = len(reps). Asserts
    the free-action sizes, the bijectivity of the indexing, and the
    equivariance law for L and for M: each adds 1 to its index, mod n or
    nm, so by induction L^a M^b adds (a, b). So <L, M> is Z_n x Z_nm
    acting freely on whole permutations. It lies in the free symmetry
    group, and orbit 1, the images of 2-cell 0, must be exactly the
    symmetries' names, so <L, M> is the whole group. Then n | nm, as nm,
    the largest element order, is lcm(n, nm).
    """
    size = len(p.two_cells)
    for dim_count in (len(p.zero_cells), len(p.one_cells), size):
        if dim_count % sg.order:
            raise InternalInvariantError(
                f"cell count {dim_count} is not divisible by the group order {sg.order}")

    gl, gm = sg.elements[sg.gen_l], sg.elements[sg.gen_m]
    table: dict[int, tuple[int, int, int]] = {}
    reps = []
    for rep in range(size):
        if rep in table:
            continue
        reps.append(rep)
        r, cur_l = len(reps), rep
        for j in range(sg.n):
            cur = cur_l
            for k in range(sg.nm):
                if cur in table:
                    raise InternalInvariantError(
                        "generator powers revisit a 2-cell; indexing is not bijective")
                table[cur] = (r, j, k)
                cur = gm[cur]
            cur_l = gl[cur_l]

    rows = tuple(table[c] for c in range(size))
    if bad := equivariance_break(rows, gl, gm, sg.n, sg.nm):
        raise InternalInvariantError(
            f"equivariance fails for L^{bad[0]} M^{bad[1]} at cell {bad[2]}")
    if {c for c, (i, _, _) in enumerate(rows) if i == 1} != {a[0] for a in sg.elements}:
        raise InternalInvariantError("orbit 1 is not the set of symmetry names: <L, M> misses one")
    return rows, reps

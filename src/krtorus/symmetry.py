"""Symmetries of the cell partition.

An element is an automorphism of the cell complex that maps every
2-cell to a 2-cell with the same level signature (so the field data
over the matched branches agree), preserves the boundary walk
orientation, acts as the identity on first homology, and moves every
cell (freeness, vacuous for the identity).

Enumeration seeds on 2-cell number 0: a flag (t, r), an image t and a
boundary rotation r, is propagated across shared arcs until the whole
complex is matched or a contradiction appears, so a flag fixes its
automorphism. Orientation reversal never enters because boundary walks
are only ever aligned forward. The automorphisms act regularly on the
flags they reach, so the flags are closed as an orbit (Seress,
Permutation Group Algorithms, 2.1 and 4.1): a flag that is reached
already is never attempted, and a success becomes a generator.

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
group_structure presents the group on the generator pair that element
orders select, composing whole permutations only on its Cayley edges.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError
from .homology import IntMatrix, cokernel_invariants, h1_action
from .partition import CellPartition
from .surface import SurfaceField, vertex_classes


@dataclass(frozen=True)
class CellAutomorphism:
    """Permutations of cells by index; arcs carry +-1 for orientation flips."""

    perm0: tuple[int, ...]
    perm1: tuple[tuple[int, int], ...]
    perm2: tuple[int, ...]


def _attempt(cells, occ, t0: int, r0: int):
    """Propagate the seed (cell 0 -> t0, rotation r0) across shared arcs.

    The partition passed the tree-cotree check: every arc lies on two
    walks, shared arcs connect all 2-cells, and every 0-cell ends an arc.
    """
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
        for pos in range(ln):
            a, s = bc[pos]
            ipos = (pos + r) % ln
            a2, s2 = bt[ipos]
            eps = s * s2
            prev = arc_map.get(a)
            if prev is None:
                arc_map[a] = (a2, eps)
            elif prev != (a2, eps):
                return None
            me = (c, pos, s)
            ime = (t, ipos, s2)
            oa, oa2 = occ[a], occ[a2]
            other = oa[1] if oa[0] == me else oa[0]
            iother = oa2[1] if oa2[0] == ime else oa2[0]
            d, q, sd = other
            t2, q2, sd2 = iother
            if sd * sd2 != eps:
                return None
            lnd = len(cells[d].boundary)
            if len(cells[t2].boundary) != lnd:
                return None
            rd = (q2 - q) % lnd
            prevc = cell_map.get(d)
            if prevc is None:
                cell_map[d] = (t2, rd)
                work.append(d)
            elif prevc != (t2, rd):
                return None
    return cell_map, arc_map


def _finalize(p: CellPartition, classes, cell_map, arc_map):
    """Turn a propagated assignment into an automorphism, or reject it."""
    n2 = len(p.two_cells)
    n1 = len(p.one_cells)
    if sorted(t for t, _ in cell_map.values()) != list(range(n2)):
        return None
    if len(arc_map) != n1 or sorted(a2 for a2, _ in arc_map.values()) != list(range(n1)):
        return None
    vmap: dict[int, int] = {}
    for aid, (a2, eps) in arc_map.items():
        src, dst = p.one_cells[aid], p.one_cells[a2]
        pairs = (((src.tail, dst.tail), (src.head, dst.head)) if eps > 0
                 else ((src.tail, dst.head), (src.head, dst.tail)))
        for v, w in pairs:
            prev = vmap.get(v)
            if prev is None:
                vmap[v] = w
            elif prev != w:
                raise InternalInvariantError(
                    "consistent arc map induced conflicting vertex images")
    if sorted(vmap.values()) != sorted(vmap):
        return None
    for v, w in vmap.items():
        if classes[v].label() != classes[w].label():
            return None
    zc = {v: i for i, v in enumerate(p.zero_cells)}
    perm0 = tuple(zc[vmap[v]] for v in p.zero_cells)
    perm1 = tuple(arc_map[a] for a in range(n1))
    perm2 = tuple(cell_map[c][0] for c in range(n2))
    return CellAutomorphism(perm0, perm1, perm2)


def _automorphisms(s: SurfaceField, p: CellPartition) -> dict:
    """Every automorphism of the partition by flag, as (2-cell permutation, H1 matrix).

    The matrices are plain ((a, b), (c, d)) row tuples, multiplied inline.

    Flag (t, r) names the automorphism that sends position 0 of 2-cell
    0's walk to position r of t's walk. A generator keeps the walk
    rotation of every 2-cell, so it moves a flag in O(1), and it moves
    the image of that position's (arc, sign) in O(1) through its perm1.
    """
    classes = vertex_classes(s)
    cells = p.two_cells
    occ: dict[int, list] = {c.id: [] for c in p.one_cells}
    for cell in cells:
        for pos, (aid, sgn) in enumerate(cell.boundary):
            occ[aid].append((cell.id, pos, sgn))

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
            if (t, r) in elem:
                continue
            cand = _attempt(cells, occ, t, r)
            g = _finalize(p, classes, *cand) if cand is not None else None
            if g is None:
                continue
            gens.append((g, [cand[0][c][1] for c in range(len(cells))],
                         h1_action(p, g).entries))
            for t1, r1 in reached:
                perm, ((m00, m01), (m10, m11)) = elem[t1, r1]
                img, eps = arc_img[t1, r1]
                for h, rot, ((h00, h01), (h10, h11)) in gens:
                    flag = (h.perm2[t1], (r1 + rot[t1]) % ln0)
                    if flag in elem:
                        continue
                    img2, eps2 = h.perm1[img][0], h.perm1[img][1] * eps
                    # the image of 2-cell 0's first (arc, sign) must sit where the flag says
                    if next(((c, q) for c, q, sg in occ[img2] if sg == sgn0 * eps2), None) != flag:
                        raise InternalInvariantError(
                            f"automorphism filed under flag {flag} carries another")
                    elem[flag] = (tuple(map(h.perm2.__getitem__, perm)),
                                  ((h00 * m00 + h01 * m10, h00 * m01 + h01 * m11),
                                   (h10 * m00 + h11 * m10, h10 * m01 + h11 * m11)))
                    arc_img[flag] = (img2, eps2)
                    reached.append(flag)
    return elem


def enumerate_symmetries(s: SurfaceField, p: CellPartition) -> tuple[tuple[int, ...], ...]:
    """The 2-cell permutations of all symmetries of the partition, sorted.

    A symmetry is an automorphism with identity H1 matrix. The action is
    then free (module docstring), so its 2-cell permutation names it.
    """
    return tuple(sorted(perm for perm, mat in _automorphisms(s, p).values()
                        if mat == ((1, 0), (0, 1))))


@dataclass(frozen=True)
class SymmetryGroup:
    """The full symmetry group with its two-factor abelian structure.

    The group is Z_n x Z_nm: gen_l generates the order-n factor, gen_m
    the order-nm factor (indices into elements, the 2-cell permutations;
    gen_l is the identity when n is 1).
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
    """Invariant factors (n, nm) by two routes on one canonical generator pair.

    Route one: element orders. The exponent is nm and n = k / nm; M
    (gen_m) is the first element of order nm, L (gen_l) the first of
    order n whose powers meet <M> only in the identity. Route two: the
    Smith form of the Cayley-graph presentation on (L, M). A
    breadth-first spanning tree gives every element a word in Z^2, and
    each non-tree edge (x, g_t) the relation word(x) + e_t - word(x g_t)
    (Schreier); zero and repeated relations are dropped.

    Each element, a 2-cell permutation, is named by its image of 2-cell
    0. On a free action the names are distinct (if a and b shared one,
    b^-1 a would fix 2-cell 0), and that is checked. a b is the element
    named a[name of b], and the cycle of 2-cell 0 under a names the
    powers of a. Permutations are composed whole only on the 2k Cayley
    edges: the identity is in the set, every x g_t lands in it and the
    walk reaches every element, so a b = a g_1 ... g_j lies in the set
    and L, M generate it; it is abelian when L M = M L.
    """
    k = len(elements)
    if elements[0] != tuple(range(len(elements[0]))):
        raise InternalInvariantError("elements are not sorted with the identity first")
    at = {a[0]: i for i, a in enumerate(elements)}
    if len(at) != k:
        raise InternalInvariantError("two distinct symmetries send 2-cell 0 to the same 2-cell")

    def named(cell: int) -> int:
        if cell not in at:
            raise InternalInvariantError("symmetry set is not closed under composition")
        return at[cell]

    def mul(i: int, j: int) -> int:
        return named(elements[i][elements[j][0]])

    # a permutation's cycle through 2-cell 0 visits distinct cells, and
    # named() refuses any past the k that have names, so each loop ends
    powers = []  # powers[i]: the indices of 1, a, a^2, ... for a = elements[i]
    for a in elements:
        cyc, cell = [0], a[0]
        while cell != 0:
            cyc.append(named(cell))
            cell = a[cell]
        powers.append(cyc)

    orders = [len(cyc) for cyc in powers]
    exponent = max(orders)  # the lcm of the orders once the group is shown abelian
    m_idx = orders.index(exponent)
    m_cyc = set(powers[m_idx])
    l_idx = next((i for i in range(k)
                  if orders[i] == k // exponent and m_cyc.isdisjoint(powers[i][1:])), None)
    if l_idx is None:
        raise InternalInvariantError("no order-n complement to the maximal cyclic factor")

    word = {0: (0, 0)}
    queue = [0]
    relations = set()
    for x in queue:
        for t, g in enumerate((l_idx, m_idx)):
            xg = tuple(map(elements[x].__getitem__, elements[g]))
            y = named(xg[0])
            if xg != elements[y]:
                raise InternalInvariantError("symmetry set is not closed under composition")
            w = word[x][:t] + (word[x][t] + 1,) + word[x][t + 1:]
            if y not in word:
                word[y] = w
                queue.append(y)
            elif w != word[y]:
                relations.add(tuple(a - b for a, b in zip(w, word[y])))
    if len(word) != k:
        raise InternalInvariantError(
            f"Cayley graph on 2 generators reaches {len(word)} of {k} elements")
    if mul(l_idx, m_idx) != mul(m_idx, l_idx):
        raise InternalInvariantError("symmetry group is not abelian")
    cols = sorted(relations)
    rel = IntMatrix.from_rows([[c[t] for c in cols] for t in (0, 1)], cols=len(cols))
    inv = cokernel_invariants(rel)
    if inv.free_rank:
        raise InternalInvariantError("finite symmetry group presented an infinite lattice")
    n, nm = inv.pair_nm()
    if exponent != nm or n * nm != k:
        raise InternalInvariantError(
            f"element orders give ({k // exponent}, {exponent}), "
            f"Smith form gives ({n}, {nm})")
    return SymmetryGroup(tuple(elements), n, nm, l_idx, m_idx)


def index_orbits(sg: SymmetryGroup, p: CellPartition):
    """Three-index naming of 2-cells: cell (i, j, k) is M^k(L^j(rep of orbit i)).

    Returns (table, r): table[cell id] = (i, j, k) with i in 1..r,
    j in Z_n, k in Z_nm; each least cell not yet named is the rep of the
    next orbit. Asserts the free-action sizes, the bijectivity of the
    indexing, and the equivariance law for L and for M: each adds 1 to
    its index, mod n or nm, so by induction L^a M^b adds (a, b).
    """
    size = len(p.two_cells)
    for dim_count in (len(p.zero_cells), len(p.one_cells), size):
        if dim_count % sg.order:
            raise InternalInvariantError(
                f"cell count {dim_count} is not divisible by the group order {sg.order}")

    gl, gm = sg.elements[sg.gen_l], sg.elements[sg.gen_m]
    table: dict[int, tuple[int, int, int]] = {}
    r = 0
    for rep in range(size):
        if rep in table:
            continue
        r += 1
        cur_l = rep
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
    for (a, b), g in (((0, 1), gm), ((1, 0), gl)):
        for cell, (i, j, k) in enumerate(rows):
            if rows[g[cell]] != (i, (j + a) % sg.n, (k + b) % sg.nm):
                raise InternalInvariantError(f"equivariance fails for L^{a} M^{b} at cell {cell}")
    return rows, r

"""Symmetries of the cell partition.

An element is an automorphism of the cell complex that maps every
2-cell to a 2-cell with the same level signature (so the field data
over the matched branches agree), preserves the boundary walk
orientation, acts as the identity on first homology, and moves every
cell (freeness, vacuous for the identity).

Enumeration seeds on 2-cell number 0: each candidate image and boundary
rotation is propagated across shared arcs until the whole complex is
matched or a contradiction appears. Orientation reversal never enters
because boundary walks are only ever aligned forward.

The group stage works on the 2-cell permutations: the action is free
on 2-cells, so they tell the symmetries apart. multiplication_table
checks that they do, and group_structure checks on the Cayley edges
that the whole automorphisms are closed under composition.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import InternalInvariantError
from .homology import IntMatrix, cokernel_invariants, h1_action
from .partition import CellPartition
from .reeb import _UnionFind
from .surface import SurfaceField, vertex_classes


@dataclass(frozen=True)
class CellAutomorphism:
    """Permutations of cells by index; arcs carry +-1 for orientation flips."""

    perm0: tuple[int, ...]
    perm1: tuple[tuple[int, int], ...]
    perm2: tuple[int, ...]

    @property
    def key(self):
        return (self.perm2, self.perm1, self.perm0)

    def is_identity(self) -> bool:
        return (self.perm2 == tuple(range(len(self.perm2)))
                and self.perm0 == tuple(range(len(self.perm0)))
                and all(img == j and sg == 1
                        for j, (img, sg) in enumerate(self.perm1)))

    def fixes_some_cell(self) -> bool:
        return (any(img == j for j, img in enumerate(self.perm0))
                or any(img == j for j, (img, _) in enumerate(self.perm1))
                or any(img == j for j, img in enumerate(self.perm2)))


def identity_automorphism(p: CellPartition) -> CellAutomorphism:
    return CellAutomorphism(tuple(range(len(p.zero_cells))),
                            tuple((j, 1) for j in range(len(p.one_cells))),
                            tuple(range(len(p.two_cells))))


def compose(a: CellAutomorphism, b: CellAutomorphism) -> CellAutomorphism:
    """a after b."""
    p0 = tuple(a.perm0[x] for x in b.perm0)
    p1 = []
    for img, sg in b.perm1:
        img2, sg2 = a.perm1[img]
        p1.append((img2, sg * sg2))
    p2 = tuple(a.perm2[x] for x in b.perm2)
    return CellAutomorphism(p0, tuple(p1), p2)


def _attempt(cells, occ, t0: int, r0: int):
    """Propagate the seed (cell 0 -> t0, rotation r0) across shared arcs."""
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
            if me not in oa or ime not in oa2:
                raise InternalInvariantError("occurrence table out of sync with boundaries")
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
    if len(cell_map) != len(cells):
        raise InternalInvariantError("2-cell adjacency graph is disconnected")
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
    if len(vmap) != len(p.zero_cells):
        raise InternalInvariantError("a 0-cell is not an endpoint of any arc")
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


def enumerate_symmetries(s: SurfaceField, p: CellPartition) -> tuple[CellAutomorphism, ...]:
    """All symmetries of the partition, sorted by their permutation key."""
    classes = vertex_classes(s)
    cells = p.two_cells
    occ: dict[int, list] = {c.id: [] for c in p.one_cells}
    for cell in cells:
        for pos, (aid, sgn) in enumerate(cell.boundary):
            occ[aid].append((cell.id, pos, sgn))
    for aid, lst in occ.items():
        if len(lst) != 2:
            raise InternalInvariantError(f"arc {aid} has {len(lst)} boundary occurrences")

    sig0 = cells[0].level_signature
    ln0 = len(cells[0].boundary)
    found: dict = {}
    for t in range(len(cells)):
        if cells[t].level_signature != sig0 or len(cells[t].boundary) != ln0:
            continue
        for r in range(ln0):
            cand = _attempt(cells, occ, t, r)
            if cand is None:
                continue
            a = _finalize(p, classes, *cand)
            if a is not None:
                found[a.key] = a

    ident2 = IntMatrix.identity(2)
    kept = []
    for a in sorted(found.values(), key=lambda x: x.key):
        # freeness is the cheap filter; h1_action only runs on its survivors
        if not a.is_identity() and a.fixes_some_cell():
            continue
        if h1_action(p, a) != ident2:
            continue
        kept.append(a)

    # the 2-cell permutations must tell the symmetries apart, and the set must
    # be closed under composition: group_structure checks both
    if identity_automorphism(p).key not in {a.key for a in kept}:
        raise InternalInvariantError("identity is missing from the symmetry set")
    return tuple(kept)


def multiplication_table(elements) -> list[list[int]]:
    """Products of the elements' 2-cell permutations, by index.

    Checks that the 2-cell permutations tell the elements apart; closure
    of the whole automorphisms is checked by group_structure.
    """
    perms = [a.perm2 for a in elements]
    index = {q: i for i, q in enumerate(perms)}
    if len(index) != len(perms):
        raise InternalInvariantError("two distinct symmetries induce the same 2-cell permutation")
    try:
        return [[index[tuple(a[x] for x in b)] for b in perms] for a in perms]
    except KeyError:
        raise InternalInvariantError("symmetry set is not closed under composition") from None


def element_order(mul: list[list[int]], ident: int, i: int) -> int:
    cur = i
    order = 1
    while cur != ident:
        cur = mul[cur][i]
        order += 1
        if order > len(mul):
            raise InternalInvariantError("element order exceeds the group order")
    return order


@dataclass(frozen=True)
class SymmetryGroup:
    """The full symmetry group with its two-factor abelian structure.

    The group is Z_n x Z_nm: gen_l generates the order-n factor, gen_m
    the order-nm factor (indices into elements; gen_l is the identity
    when n is 1).
    """

    elements: tuple[CellAutomorphism, ...]
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
    """Invariant factors (n, nm) by two routes, plus canonical generators.

    Route one: Smith form of the Cayley-graph presentation on greedy
    generators. An element is a generator when the earlier generators do
    not span it. A breadth-first spanning tree of the Cayley graph on
    those generators gives every element a word in Z^s, and each
    non-tree edge (x, g_t) the relation word(x) + e_t - word(x g_t)
    (Schreier); zero and repeated relations are dropped, as they leave
    the lattice unchanged. Route two: element orders (the exponent is
    nm, the order forces n). Disagreement is an internal error.

    The table works on the 2-cell permutations, which
    multiplication_table checks to be faithful. Whole automorphisms are
    composed only on the Cayley edges (x, g_t), k*s compositions, each
    checked against the table. That proves the set closed: the identity
    is in it, every x g_t lands in it, and the generators span the
    2-cell permutations, so by faithfulness every element is a product
    of generators, and a b = a g_1 ... g_j lies in the set.
    """
    k = len(elements)
    if not elements[0].is_identity():
        raise InternalInvariantError("elements are not sorted with the identity first")
    mul = multiplication_table(elements)
    ident = 0
    for i in range(k):
        for j in range(i + 1, k):
            if mul[i][j] != mul[j][i]:
                raise InternalInvariantError("symmetry group is not abelian")

    gens = []
    span = {ident}
    for i in range(k):
        if i not in span:
            gens.append(i)
            span = {mul[x][y] for x in span for y in _cyclic_span(mul, ident, i)}
    s = len(gens)
    word = {ident: (0,) * s}
    queue = [ident]
    relations = set()
    for x in queue:
        for t, g in enumerate(gens):
            y = mul[x][g]
            if compose(elements[x], elements[g]).key != elements[y].key:
                raise InternalInvariantError("symmetry set is not closed under composition")
            w = word[x][:t] + (word[x][t] + 1,) + word[x][t + 1:]
            if y not in word:
                word[y] = w
                queue.append(y)
            elif w != word[y]:
                relations.add(tuple(a - b for a, b in zip(w, word[y])))
    if len(word) != k:
        raise InternalInvariantError(
            f"Cayley graph on {s} generators reaches {len(word)} of {k} elements")
    cols = sorted(relations)
    rel = IntMatrix.from_rows([[c[t] for c in cols] for t in range(s)], cols=len(cols))
    inv = cokernel_invariants(rel)
    if inv.free_rank:
        raise InternalInvariantError("finite symmetry group presented an infinite lattice")
    order = 1
    for f in inv.factors:
        order *= f
    if order != k:
        raise InternalInvariantError(
            f"presentation gives order {order} for {k} elements")
    try:
        n, nm = inv.pair_nm()
    except ValueError as exc:
        raise InternalInvariantError(f"more than two invariant factors: {exc}")

    orders = [element_order(mul, ident, i) for i in range(k)]
    exponent = 1
    for o in orders:
        exponent = lcm(exponent, o)
    if exponent != nm or n * nm != k:
        raise InternalInvariantError(
            f"element orders give ({k // exponent}, {exponent}), "
            f"Smith form gives ({n}, {nm})")

    m_idx = min(i for i in range(k) if orders[i] == nm)
    if n == 1:
        l_idx = ident
    else:
        m_cyc = _cyclic_span(mul, ident, m_idx)
        l_idx = None
        for i in range(k):
            if orders[i] != n:
                continue
            if _cyclic_span(mul, ident, i) & m_cyc == {ident}:
                l_idx = i
                break
        if l_idx is None:
            raise InternalInvariantError("no order-n complement to the maximal cyclic factor")
        span = {mul[a][b] for a in _cyclic_span(mul, ident, l_idx) for b in m_cyc}
        if len(span) != k:
            raise InternalInvariantError("chosen generators do not span the group")
    return SymmetryGroup(tuple(elements), n, nm, l_idx, m_idx)


def _cyclic_span(mul, ident: int, i: int) -> set:
    out = {ident}
    cur = i
    while cur != ident:
        out.add(cur)
        cur = mul[cur][i]
    return out


def _cell_orbits(elements, count: int) -> list[list[int]]:
    """Orbits on 2-cells under every element's permutation, sorted by least member."""
    uf = _UnionFind(count)
    for a in elements:
        for j in range(count):
            uf.union(j, a.perm2[j])
    groups: dict[int, list[int]] = {}
    for j in range(count):
        groups.setdefault(uf.find(j), []).append(j)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def index_orbits(sg: SymmetryGroup, p: CellPartition):
    """Three-index naming of 2-cells: cell (i, j, k) is M^k(L^j(rep of orbit i)).

    Returns (table, r): table[cell id] = (i, j, k) with i in 1..r,
    j in Z_n, k in Z_nm. Asserts the free-action sizes, the bijectivity
    of the indexing, and the equivariance law: composing with L^a M^b
    adds (a, b) to (j, k) componentwise mod (n, nm).
    """
    elements = sg.elements
    size = len(p.two_cells)
    for dim_count in (len(p.zero_cells), len(p.one_cells), size):
        if dim_count % sg.order:
            raise InternalInvariantError(
                f"cell count {dim_count} is not divisible by the group order {sg.order}")
    orbits = _cell_orbits(elements, size)
    for orb in orbits:
        if len(orb) != sg.order:
            raise InternalInvariantError(
                f"orbit {orb} has size {len(orb)}, group order is {sg.order}")
    r = len(orbits)
    if r * sg.n * sg.nm != size:
        raise InternalInvariantError("orbit count times group order misses the 2-cell count")

    gl, gm = elements[sg.gen_l].perm2, elements[sg.gen_m].perm2
    table: dict[int, tuple[int, int, int]] = {}
    for oi, orb in enumerate(orbits):
        rep = orb[0]
        cur_l = rep
        for j in range(sg.n):
            cur = cur_l
            for k in range(sg.nm):
                if cur in table:
                    raise InternalInvariantError(
                        "generator powers revisit a 2-cell; indexing is not bijective")
                table[cur] = (oi + 1, j, k)
                cur = gm[cur]
            cur_l = gl[cur_l]
    if len(table) != size:
        raise InternalInvariantError("orbit indexing does not cover every 2-cell")

    # equivariance: L^a M^b sends (i, j, k) to (i, j+a mod n, k+b mod nm)
    ga = tuple(range(size))
    for a in range(sg.n):
        gb = ga
        for b in range(sg.nm):
            for cell in range(size):
                i, j, k = table[cell]
                i2, j2, k2 = table[gb[cell]]
                if (i2, j2, k2) != (i, (j + a) % sg.n, (k + b) % sg.nm):
                    raise InternalInvariantError(
                        f"equivariance fails for L^{a} M^{b} at cell {cell}")
            gb = tuple(gm[x] for x in gb)
        ga = tuple(gl[x] for x in ga)

    return tuple(table[c] for c in range(size)), r

"""End-to-end analysis: from a scalar field on a torus to the orbit group.

The final answer is a symbolic expression: a direct product of one atom
per disk orbit, wreathed over the index grid by the rank-2 free abelian
group. Atom groups are never computed; each carries the branch subtree
of the graph over its representative disk as metadata, and concrete
finite groups can be substituted to verify the extension identities.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputRejected, InternalInvariantError
from .partition import CellPartition, build_partition
from .reeb import _UnionFind, branch_euler, compute_reeb, find_special_vertex
from .surface import SurfaceField, dump_surface, validate_closed_orientable
from .symmetry import enumerate_symmetries, group_structure, index_orbits
from .wreath import (DirectProductGroup, WreathGroup, check_exact_sequence,
                     check_group_axioms, corrupted_wreath, distinct_ranks)


# ---------------------------------------------------------------- GroupExpr

@dataclass(frozen=True)
class TrivialGroup:
    pass


@dataclass(frozen=True)
class Atom:
    """Symbolic per-disk factor; kr_subtree describes the field over the disk."""

    index: int
    kr_subtree: dict


@dataclass(frozen=True)
class DirectProduct:
    factors: tuple


@dataclass(frozen=True)
class FreeAbelian:
    rank: int


@dataclass(frozen=True)
class WreathOver:
    base: object
    n: int
    nm: int
    top: object


def render_expr(e, top: bool = True) -> str:
    if isinstance(e, TrivialGroup):
        return "1"
    if isinstance(e, Atom):
        return f"A_{e.index}"
    if isinstance(e, FreeAbelian):
        return f"Z^{e.rank}"
    if isinstance(e, DirectProduct):
        if not e.factors:
            return "1"
        s = " x ".join(render_expr(f, top=False) for f in e.factors)
        if top or len(e.factors) == 1:
            return s
        return f"({s})"
    if isinstance(e, WreathOver):
        return (f"{render_expr(e.base, top=False)} wr[Z_{e.n} x Z_{e.nm}] "
                f"{render_expr(e.top, top=False)}")
    raise TypeError(f"not a group expression: {e!r}")


def build_group_expr(atoms, n: int, nm: int):
    """(atom_1 x ... x atom_r) wreathed over the (n, nm) grid by Z^2.

    Collapses to a plain direct product with Z^2 when the grid is trivial.
    """
    prod = DirectProduct(tuple(atoms))
    if n == 1 and nm == 1:
        return DirectProduct((prod, FreeAbelian(2)))
    return WreathOver(prod, n, nm, FreeAbelian(2))


# ------------------------------------------------------------------ report

def _scalar_json(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _sig_node_json(node) -> dict:
    level, kinds, subs = node
    return {"level": _scalar_json(level),
            "kinds": list(kinds),
            "children": [{"direction": d, "node": _sig_node_json(nd)} for d, nd in subs]}


def _signature_json(sig) -> dict:
    side, node = sig
    return {"side": side, "root": _sig_node_json(node)}


@dataclass(frozen=True)
class AnalysisReport:
    """Plain-data result; every field holds JSON-native values only."""

    format: str
    surface: dict
    reeb: dict
    special: dict
    symmetry: dict
    group: dict
    disks: list

    def to_json(self) -> dict:
        return {"format": self.format, "surface": self.surface, "reeb": self.reeb,
                "special": self.special, "symmetry": self.symmetry,
                "group": self.group, "disks": self.disks}

    @classmethod
    def from_json(cls, data) -> "AnalysisReport":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(format=data["format"], surface=data["surface"], reeb=data["reeb"],
                   special=data["special"], symmetry=data["symmetry"],
                   group=data["group"], disks=data["disks"])


def canonical_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))


def report_group_expr(report: AnalysisReport):
    """Rebuild the symbolic expression tree from a report."""
    atoms = tuple(Atom(a["id"], a["kr_subtree"]) for a in report.group["atoms"])
    n = report.symmetry["n"]
    nm = n * report.symmetry["m"]
    return build_group_expr(atoms, n, nm)


# ------------------------------------------------------------------ analyze

@dataclass(frozen=True)
class DiskField:
    """Closed-disk submesh for one orbit representative 2-cell."""

    surface: SurfaceField
    boundary: tuple[int, ...]  # boundary walk in submesh indices
    source_vertices: tuple[int, ...]  # submesh index -> refined vertex id
    cell: int  # the representative 2-cell id


def extract_disk_field(s: SurfaceField, p: CellPartition, orbit_table, i: int) -> DiskField:
    table = [tuple(t) for t in orbit_table]
    r = max(t[0] for t in table)
    if not 1 <= i <= r:
        raise ValueError(f"disk index {i} out of range 1..{r}")
    rep = next(c for c, t in enumerate(table) if t == (i, 0, 0))
    cell = p.two_cells[rep]
    region = cell.refined_triangles
    walkset = set(cell.boundary_vertices)

    # Cut the closed region free of the torus. In the torus the closure
    # self-identifies along the level graph, so triangle corners at one
    # refined vertex merge only when two region triangles share an edge
    # that is not part of the cell's boundary walk; each walk visit then
    # gets its own copy of the vertex.
    # Corner 3*j + k is corner k of the region's j-th triangle.
    region_tris = [p.refined_triangles[ti] for ti in region]
    uf = _UnionFind(3 * len(region_tris))
    edge_corners: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j, (a, b, c) in enumerate(region_tris):
        k = 3 * j
        for u, w, cu, cw in ((a, b, k, k + 1), (b, c, k + 1, k + 2), (c, a, k + 2, k)):
            if u in walkset and w in walkset:
                continue  # boundary edge: stays cut
            if u < w:
                edge_corners.setdefault((u, w), []).append((cu, cw))
            else:
                edge_corners.setdefault((w, u), []).append((cw, cu))
    for (u, w), sides in edge_corners.items():
        if len(sides) != 2:
            raise InternalInvariantError(
                f"interior edge {u}-{w} of a region has {len(sides)} triangles")
        (u1, w1), (u2, w2) = sides
        uf.union(u1, u2)
        uf.union(w1, w2)

    # disk vertices are numbered in order of their first corner
    roots = [uf.find(corner) for corner in range(3 * len(region_tris))]
    disk_vertex = [-1] * len(roots)
    sources: list[int] = []
    for corner, root in enumerate(roots):
        if disk_vertex[root] < 0:
            disk_vertex[root] = len(sources)
            sources.append(region_tris[corner // 3][corner % 3])
    corner_vertex = [disk_vertex[root] for root in roots]
    tris = list(zip(corner_vertex[0::3], corner_vertex[1::3], corner_vertex[2::3]))
    values = [p.refined_values[u] for u in sources]
    coords = ([p.refined_coords[u] for u in sources]
              if p.refined_coords is not None else None)
    sub = SurfaceField(tris, values, coords)

    # the cut must be an honest closed disk; interior edges appear in
    # both directions, rim edges in one
    directed = {(u, w) for a, b, c in tris for u, w in ((a, b), (b, c), (c, a))}
    rim = [(u, w) for u, w in directed if (w, u) not in directed]
    if len(sources) - (len(directed) + len(rim)) // 2 + len(tris) != 1:
        raise InternalInvariantError(f"cut cell {rep} is not a disk")

    # boundary cycle of the cut mesh, disk kept on the left
    step = {}
    for u, w in rim:
        if u in step:
            raise InternalInvariantError("cut boundary is not a simple cycle")
        step[u] = w
    start = min(step)
    cycle = [start]
    cur = step[start]
    while cur != start:
        cycle.append(cur)
        if len(cycle) > len(step):
            raise InternalInvariantError("cut boundary does not close")
        cur = step[cur]
    if len(cycle) != len(step):
        raise InternalInvariantError("cut boundary has several cycles")

    # same walk as on the torus, up to a rotation
    walk = [sources[x] for x in cycle]
    original = list(cell.boundary_vertices)
    if len(walk) != len(original) or \
            not any(walk == original[k:] + original[:k] for k in range(len(original))):
        raise InternalInvariantError("cut boundary disagrees with the cell walk")

    return DiskField(sub, tuple(cycle), tuple(sources), rep)


def analyze(s: SurfaceField) -> AnalysisReport:
    """Full pipeline; rejects non-torus surfaces and non-tree graphs."""
    info = validate_closed_orientable(s)
    if info["chi"] != 0:
        raise InputRejected(
            "not-a-torus",
            f"surface has Euler characteristic {info['chi']} "
            f"(genus {info['genus']}); the analysis requires a torus",
            chi=info["chi"], genus=info["genus"])
    g = compute_reeb(s)
    v = find_special_vertex(g)
    p = build_partition(s, g, v)
    elements = enumerate_symmetries(s, p)
    sg = group_structure(elements)
    table, r = index_orbits(sg, p)

    branches = g.branches_at(v)
    chis = [branch_euler(g, v, br) for br in branches]
    atom_objs = []
    atoms_json = []
    disks_json = []
    for i in range(1, r + 1):
        disk = extract_disk_field(s, p, table, i)
        subtree = _signature_json(p.two_cells[disk.cell].level_signature)
        atom_objs.append(Atom(i, subtree))
        atoms_json.append({"id": i, "kr_subtree": subtree})
        disks_json.append({"id": i,
                           "cell": disk.cell,
                           "boundary": [int(b) for b in disk.boundary],
                           "field": dump_surface(disk.surface)})
    expr = build_group_expr(atom_objs, sg.n, sg.nm)

    node = g.node(v)
    return AnalysisReport(
        format="kr-torus/1",
        surface={"vertices": s.vertex_count, "triangles": s.triangle_count,
                 "chi": info["chi"], "genus": info["genus"]},
        reeb={"nodes": len(g.nodes), "edges": len(g.edges), "is_tree": True},
        special={"node": v, "level": _scalar_json(node.level),
                 "zero_cells": len(p.zero_cells), "one_cells": len(p.one_cells),
                 "two_cells": len(p.two_cells),
                 "branch_chis": [int(c) for c in chis]},
        symmetry={"order": sg.order, "n": sg.n, "m": sg.m, "r": r,
                  "generators": {"L": list(elements[sg.gen_l].perm2),
                                 "M": list(elements[sg.gen_m].perm2)},
                  "orbit_table": [list(t) for t in table]},
        group={"expr": render_expr(expr), "atoms": atoms_json},
        disks=disks_json)


# ---------------------------------------------------------------- verify

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationRecord:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                           for c in self.checks]}


def _check_lattice_sequence(n: int, nm: int):
    def q(lam, mu):
        return (n * lam, nm * mu)

    def bnd(x, y):
        return (x % n, y % nm)

    for lam in range(-3, 4):
        for mu in range(-3, 4):
            if bnd(*q(lam, mu)) != (0, 0):
                return f"composite of q and the reduction is nonzero at ({lam},{mu})"
    image = {q(lam, mu) for lam in range(-2, 3) for mu in range(-2, 3)}
    if len(image) != 25:
        return "q is not injective on the test window"
    kernel = {(x, y)
              for x in range(-2 * n, 2 * n + 1)
              for y in range(-2 * nm, 2 * nm + 1)
              if bnd(x, y) == (0, 0)}
    if kernel != image:
        return "ker(reduction) differs from im(q) on the test window"
    if len({bnd(x, y) for x in range(n) for y in range(nm)}) != n * nm:
        return "reduction is not surjective onto the grid"
    return None


def verify_extension(report: AnalysisReport, atoms, corrupt_shift: bool = False,
                     seed: int = 20260819) -> VerificationRecord:
    """Instantiate the wreath answer with finite atoms and test the extension.

    (a) group axioms and exactness of the map-part/shift-part sequence,
    (b) the index-lattice sequence q = diag(n, nm) into the reduction,
    (c) the kernel of the shift projection has exactly |base|^(n*nm)
        elements. corrupt_shift installs an off-by-one shift action as a
        negative control; it must break (a).
    """
    n = report.symmetry["n"]
    nm = n * report.symmetry["m"]
    r = report.symmetry["r"]
    atoms = tuple(atoms)
    if len(atoms) != r:
        raise InputRejected("bad-request",
                            f"report has {r} disk orbits, got {len(atoms)} atom groups")
    base = DirectProductGroup(atoms)
    wg = corrupted_wreath(base, n, nm) if corrupt_shift else WreathGroup(base, n, nm)
    rng = random.Random(seed)
    checks = []

    window = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    kernel = wg.kernel_size()
    pool = [wg.element(wg.grid_at(rank), sh)
            for rank in distinct_ranks(rng, kernel, 81) for sh in window]
    fail = check_group_axioms(wg, pool, rng=rng, samples=1500)
    if fail is None:
        fail = check_exact_sequence(
            wg, rng=rng if kernel > 10_000 else None)
    checks.append(CheckResult(
        "wreath-axioms-exactness", fail is None,
        fail or f"group laws and ker(proj) = im(sigma) hold over {len(pool)} elements"))

    fail_b = _check_lattice_sequence(n, nm)
    checks.append(CheckResult(
        "index-lattice-exactness", fail_b is None,
        fail_b or f"q(a,b) = ({n}a,{nm}b) splices with coordinate reduction exactly"))

    expected = base.order ** (n * nm)
    if expected <= 10_000:
        seen = set()
        for grid in wg.grids():
            seen.add(grid)
        ok = len(seen) == expected
        detail = (f"kernel holds {len(seen)} distinct grids, "
                  f"|{base.describe()}|^({n}*{nm}) = {expected}")
    else:
        ok = True
        detail = f"kernel too large to enumerate ({expected}); size identity is definitional"
    checks.append(CheckResult("kernel-size", ok, detail))

    return VerificationRecord(tuple(checks))

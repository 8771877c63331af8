"""End-to-end analysis: from a scalar field on a torus to the orbit group.

The final answer is one string fixed by the orbit count r and the grid
(n, nm): a direct product of one atom per disk orbit, wreathed over the
index grid by the rank-2 free abelian group. Atom groups are never
computed; the report lists each with the branch subtree over its disk,
and verify_extension substitutes finite groups to test the extension.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count

from .errors import InputRejected, InternalInvariantError
from .partition import CellPartition, build_partition
from .reeb import _UnionFind, branch_euler, compute_reeb, find_special_vertex
from .surface import SurfaceField, dump_surface, format_scalar, validate_closed_orientable
from .symmetry import enumerate_symmetries, group_structure, index_orbits
from .wreath import (KERNEL_ENUM_LIMIT, DirectProductGroup, WreathElement, WreathGroup,
                     check_exact_sequence, check_group_axioms, distinct_ranks)


def group_expr(r: int, n: int, nm: int) -> str:
    """(A_1 x ... x A_r) wreathed over the (n, nm) grid by Z^2.

    A plain direct product with Z^2 when the grid is trivial.
    """
    base = " x ".join(f"A_{i}" for i in range(1, r + 1))
    base = base if r == 1 else f"({base})"
    if n == 1 and nm == 1:
        return f"{base} x Z^2"
    return f"{base} wr[Z_{n} x Z_{nm}] Z^2"


# ------------------------------------------------------------------ report

def _scalar_json(x):
    return format_scalar(x) if isinstance(x, Fraction) else x


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


# ------------------------------------------------------------------ analyze

@dataclass(frozen=True)
class DiskField:
    """Closed-disk submesh for one orbit representative 2-cell."""

    surface: SurfaceField
    boundary: tuple[int, ...]  # boundary walk in submesh indices
    source_vertices: tuple[int, ...]  # submesh index -> refined vertex id
    cell: int  # the representative 2-cell id


def extract_disk_field(p: CellPartition, orbit_table, i: int) -> DiskField:
    """The representative 2-cell of orbit i, cut free of the torus as a closed disk.

    In the torus the closure self-identifies along the level graph; the
    cut undoes that at the cell's boundary walk only. A region corner at
    a vertex off the walk keeps its refined vertex: ``vertex_classes``
    closed every original fan, and ``build_partition`` closed every
    refined fan at V, put each vertex off V in one region and walked all
    of the region's darts on V. So every vertex of V in the cell is on
    the walk, and all the corners at a vertex off it make one disk
    vertex. A corner at a walk vertex u is glued only across an edge u-x
    with x off the walk, to u's corner on the other side; edges between
    two walk vertices stay cut, so each walk visit gets its own copy of
    u. Disk vertices are numbered in order of their first corner.

    The cut is checked at its walk alone. Each edge at a walk vertex must
    have one region triangle on either side. Then a disk dart with an end
    x off the walk has its reverse in the disk: every triangle around x
    is in the region, and a walk corner across an edge from x is glued to
    its twin on the other side. Disk darts are distinct: a disk vertex
    has one refined source, so two equal ones would be one refined dart
    in two triangles. The unions join a corner's out-dart u->x to the
    in-dart x->u of another corner of u, each at most once, so the
    corners of a walk copy form a chain with one walk-to-walk out-dart and
    one in-dart: those darts permute the walk copies and never repeat. So
    the rim, the walk-to-walk darts without a reverse, is a permutation
    too, whose walk from any dart closes; the F triangles have
    (3F + |rim|) / 2 edges, and the disk must have Euler characteristic 1
    and a rim that is one cycle and, in refined vertices, a rotation of
    the walk.
    """
    table = [tuple(t) for t in orbit_table]
    r = max(t[0] for t in table)
    if not 1 <= i <= r:
        raise ValueError(f"disk index {i} out of range 1..{r}")
    rep = next(c for c, t in enumerate(table) if t == (i, 0, 0))
    cell = p.two_cells[rep]
    walkset = set(cell.boundary_vertices)
    corners = list(chain.from_iterable(map(p.refined_triangles.__getitem__,
                                            cell.refined_triangles)))

    # The corners at walk vertices, numbered in corner order: u's corner
    # in the triangle left of u->x and in the one left of x->u, x off the walk.
    at_walk = list(compress(range(len(corners)), map(walkset.__contains__, corners)))
    after: dict[tuple[int, int], int] = {}
    before: dict[tuple[int, int], int] = {}
    inner = []  # walk corners whose next corner is at the walk too
    for n, k in enumerate(at_walk):
        j = k - k % 3
        u, x, y = corners[k], corners[j + (k + 1) % 3], corners[j + (k + 2) % 3]
        if x in walkset:
            inner.append(k)
        elif after.setdefault((u, x), n) != n:
            raise InternalInvariantError(
                f"directed edge {u}->{x} repeats in cut cell {rep}")
        if y not in walkset and before.setdefault((y, u), n) != n:
            raise InternalInvariantError(
                f"directed edge {y}->{u} repeats in cut cell {rep}")
    unpaired = after.keys() ^ {(u, y) for y, u in before}
    if unpaired:
        u, x = min(unpaired)
        raise InternalInvariantError(
            f"interior edge {u}-{x} at the walk of cut cell {rep} has one triangle")
    uf = _UnionFind(len(at_walk))
    for (u, x), corner in after.items():
        uf.union(corner, before[(x, u)])

    # a disk vertex is keyed by its refined vertex off the walk, and by
    # ~root of its glued corners at the walk, numbered by first corner
    walk_vertex = list(map(corners.__getitem__, at_walk))
    for n, k in enumerate(at_walk):
        corners[k] = ~uf.find(n)
    number = dict(zip(dict.fromkeys(corners), count()))
    sources = [key if key >= 0 else walk_vertex[~key] for key in number]
    numbered = map(number.__getitem__, corners)
    tris = list(zip(numbered, numbered, numbered))
    del corners  # three entries per triangle
    values = [p.refined_values[u] for u in sources]
    coords = ([p.refined_coords[u] for u in sources]
              if p.refined_coords is not None else None)
    sub = SurfaceField(tris, values, coords)

    darts = {(tris[k // 3][k % 3], tris[k // 3][(k + 1) % 3]) for k in inner}
    rim = [(u, w) for u, w in darts if (w, u) not in darts]
    if len(sources) - (3 * len(tris) + len(rim)) // 2 + len(tris) != 1:
        raise InternalInvariantError(f"cut cell {rep} is not a disk")

    # boundary cycle of the cut mesh, disk kept on the left
    step = dict(rim)
    start = min(step)
    cycle = [start]
    cur = step[start]
    while cur != start:
        cycle.append(cur)
        cur = step[cur]
    if len(cycle) != len(step):
        raise InternalInvariantError("cut boundary has several cycles")

    # same walk as on the torus, up to a rotation
    walk = [sources[x] for x in cycle]
    original = list(cell.boundary_vertices)
    if len(walk) != len(original) or not any(
            walk == original[k:] + original[:k] for k, u in enumerate(original) if u == walk[0]):
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
    atoms_json = []
    disks_json = []
    for i in range(1, r + 1):
        disk = extract_disk_field(p, table, i)
        subtree = _signature_json(p.two_cells[disk.cell].level_signature)
        atoms_json.append({"id": i, "kr_subtree": subtree})
        disks_json.append({"id": i,
                           "cell": disk.cell,
                           "boundary": [int(b) for b in disk.boundary],
                           "field": dump_surface(disk.surface)})

    node = g.nodes[v]
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
                  "generators": {"L": list(elements[sg.gen_l]),
                                 "M": list(elements[sg.gen_m])},
                  "orbit_table": [list(t) for t in table]},
        group={"expr": group_expr(r, sg.n, sg.nm), "atoms": atoms_json},
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


def verify_extension(report: AnalysisReport, atoms) -> VerificationRecord:
    """Instantiate the wreath answer with finite atoms and test the extension.

    (a) group axioms and exactness of the map-part/shift-part sequence,
    (b) the index-lattice sequence q = diag(n, nm) into the reduction,
    (c) the kernel of the shift projection has exactly |base|^(n*nm)
        elements.
    """
    n = report.symmetry["n"]
    nm = n * report.symmetry["m"]
    r = report.symmetry["r"]
    atoms = tuple(atoms)
    if len(atoms) != r:
        raise InputRejected("bad-request",
                            f"report has {r} disk orbits, got {len(atoms)} atom groups")
    base = DirectProductGroup(atoms)
    wg = WreathGroup(base, n, nm)
    kernel = wg.kernel_size()
    if kernel >= 10 ** 4000:  # past int's 4,300-digit str() limit, so never formatted
        raise InputRejected("bad-request",
                            "atom orders give a kernel of 10^4000 grids or more")
    rng = random.Random(20260819)
    checks = []

    window = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    # each grid is decoded and shape-checked once, then paired with every shift
    grids = [wg.element(wg.grid_at(rank)).grid for rank in distinct_ranks(rng, kernel, 81)]
    pool = [WreathElement(grid, sh) for grid in grids for sh in window]
    fail = check_group_axioms(wg, pool, rng=rng, samples=1500)
    if fail is None:
        fail = check_exact_sequence(wg, rng=rng if kernel > KERNEL_ENUM_LIMIT else None)
    checks.append(CheckResult(
        "wreath-axioms-exactness", fail is None,
        fail or f"group laws and ker(proj) = im(sigma) hold over {len(pool)} elements"))

    fail_b = _check_lattice_sequence(n, nm)
    checks.append(CheckResult(
        "index-lattice-exactness", fail_b is None,
        fail_b or f"q(a,b) = ({n}a,{nm}b) splices with coordinate reduction exactly"))

    if kernel <= KERNEL_ENUM_LIMIT:
        seen = set(wg.grids())
        ok = len(seen) == kernel
        detail = (f"kernel holds {len(seen)} distinct grids, "
                  f"|{base.describe()}|^({n}*{nm}) = {kernel}")
    else:
        ok = True
        detail = f"kernel too large to enumerate ({kernel}); size identity is definitional"
    checks.append(CheckResult("kernel-size", ok, detail))

    return VerificationRecord(tuple(checks))

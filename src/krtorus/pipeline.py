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
from itertools import chain, compress, count, product

from .errors import InputRejected, InternalInvariantError
from .partition import CellPartition, build_partition
from .reeb import compute_reeb, find_special_vertex
from .surface import SurfaceField, dump_surface, format_scalar, validate_closed_orientable
from .symmetry import enumerate_symmetries, equivariance_break, group_structure, index_orbits
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


def canonical_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------------ analyze

@dataclass(frozen=True)
class DiskField:
    """Closed-disk submesh for one orbit representative 2-cell."""

    surface: SurfaceField
    boundary: tuple[int, ...]  # boundary walk in submesh indices
    source_vertices: tuple[int, ...]  # submesh index -> refined vertex id


def extract_disk_field(p: CellPartition, rep: int) -> DiskField:
    """2-cell rep cut free of the torus as a closed disk; analyze cuts each orbit's rep.

    The cut is made at the walk only. Visit n, at u = walk[n], turns
    around u as ``build_partition``'s walk does, from the region triangle
    holding walk[n-1]->u to the one whose corner after u is walk[n+1], and
    makes u's corners there disk vertex ~n; corners off the walk keep their
    refined vertex. Numbered by first corner, the visits are the boundary.

    Each edge a turn crosses is off V, since the walk's own step turns to
    the first edge of V, so its dart is in a region triangle. Closed fans
    off the walk lie in the region: one disk vertex each. The edges of V
    at u cut u's region corners into sectors, in-dart to next out-dart of
    the walk, which covers every region dart: so each sector is one visit,
    each corner is taken once, and the rim is the steps ~(n-1)->~n, one
    cycle copying the walk. Connected across the edges off V, the cut is a
    disk if its Euler characteristic is 1.
    """
    cell = p.two_cells[rep]
    walk = cell.boundary_vertices
    corners = list(chain.from_iterable(map(p.refined_triangles.__getitem__,
                                            cell.refined_triangles)))

    # into[(x, u)] = (u's corner in the region triangle holding x->u, the corner after it)
    at_walk = list(compress(range(len(corners)), map(set(walk).__contains__, corners)))
    into = {}
    for k in at_walk:
        j = k - k % 3
        into[corners[j + (k + 2) % 3], corners[k]] = k, corners[j + (k + 1) % 3]
    for n, u in enumerate(walk):
        x, last = walk[n - 1], walk[n + 1 - len(walk)]
        while True:  # one triangle at least; a retaken corner ends a turn round u
            if (x, u) not in into:
                raise InternalInvariantError(f"visit {n} of cut cell {rep} misses dart {x}->{u}")
            k, x = into[x, u]
            if corners[k] < 0:
                raise InternalInvariantError(f"visit {n} of cut cell {rep} retakes a corner")
            corners[k] = ~n
            if x == last:
                break
    if (u := max(map(corners.__getitem__, at_walk))) >= 0:
        raise InternalInvariantError(f"corner at {u} on the walk of cut cell {rep} is in no visit")

    number = dict(zip(dict.fromkeys(corners), count()))
    sources = list(number)
    boundary = list(map(number.__getitem__, range(-1, -len(walk) - 1, -1)))  # ~0, ~1, ...
    for b, u in zip(boundary, walk):
        sources[b] = u
    numbered = map(number.__getitem__, corners)
    tris = list(zip(numbered, numbered, numbered))
    del corners, into, at_walk  # per region corner, or per walk corner
    if len(sources) - (3 * len(tris) + len(walk)) // 2 + len(tris) != 1:
        raise InternalInvariantError(f"cut cell {rep} is not a disk")
    coords = None if p.refined_coords is None else list(map(p.refined_coords.__getitem__, sources))
    sub = SurfaceField(tris, list(map(p.refined_values.__getitem__, sources)), coords)
    k = boundary.index(min(boundary))
    return DiskField(sub, tuple(boundary[k:] + boundary[:k]), tuple(sources))


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
    table, reps = index_orbits(sg, p)
    r = len(reps)

    atoms_json, disks_json = [], []
    for i, rep in enumerate(reps, 1):
        disk = extract_disk_field(p, rep)
        subtree = _signature_json(p.two_cells[rep].level_signature)
        atoms_json.append({"id": i, "kr_subtree": subtree})
        disks_json.append({"id": i, "cell": rep, "boundary": list(disk.boundary),
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
                 # find_special_vertex checked 1 on each branch; one 2-cell per branch
                 "branch_chis": [1] * len(p.two_cells)},
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


def verify_extension(report: AnalysisReport, atoms) -> VerificationRecord:
    """Instantiate the wreath answer with finite atoms and test the extension.

    (a) group axioms and exactness of the map-part/shift-part sequence,
    (b) the report's orbit_table is {1..r} x Z_n x Z_nm, each row once, its
        L and M are permutations of the 2-cells as lists of int, and they
        add 1 to j and to k (index_orbits' check),
    (c) the kernel of the shift projection has K = |base|^(n*nm) grids:
        grid_at and rank_of invert each other on ranks 0, K - 1 and 400
        drawn uniformly (every rank when K is that small).
    """
    sym = report.symmetry
    n, nm, r = sym["n"], sym["n"] * sym["m"], sym["r"]
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

    rows, grid = list(map(tuple, sym["orbit_table"])), f"{{1..{r}}} x Z_{n} x Z_{nm}"
    gens, cells = sym["generators"], list(range(len(rows)))
    if sorted(rows) != list(product(range(1, r + 1), range(n), range(nm))):
        fail_b = f"orbit_table rows are not {grid}, each once"
    # a float or bool that sorts equal to a cell id is not one
    elif off := [name for name in "LM" if any(type(x) is not int for x in gens[name])
                 or sorted(gens[name]) != cells]:
        fail_b = f"generators.{off[0]} is not a permutation of the {len(rows)} 2-cells"
    elif bad := equivariance_break(rows, gens["L"], gens["M"], n, nm):
        fail_b = "L^{0} M^{1} does not add (0,{0},{1}) to the index of cell {2}".format(*bad)
    else:
        fail_b = None
    checks.append(CheckResult(
        "index-lattice-exactness", fail_b is None,
        fail_b or f"orbit_table is {grid}, each row once; L, M add (0,1,0), (0,0,1)"))

    ranks = dict.fromkeys([0, kernel - 1, *distinct_ranks(rng, kernel, 400)])
    miss = next((k for k in ranks if wg.rank_of(wg.grid_at(k)) != k), None)
    checks.append(CheckResult(
        "kernel-size", miss is None,
        f"rank {miss} does not survive grid_at and rank_of" if miss is not None else
        f"grid_at and rank_of invert each other on {len(ranks)} of the "
        f"|{base.describe()}|^({n}*{nm}) = {kernel} grids"))

    return VerificationRecord(tuple(checks))

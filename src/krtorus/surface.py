"""Triangulated closed oriented surfaces carrying a scalar vertex field.

The field lives on vertices and is affine inside each triangle, so level
sets are polygonal. Genericity is simulated: criticality decisions break
value ties by vertex index, which makes the vertex order strictly total.
Level-set geometry (which edges a contour crosses) always compares raw
values; only the local classification uses the tie-broken order.

The mesh adjacency is built once per surface, by ``left_triangles``:
left[u][w] is the triangle with u->w on its CCW boundary. Building it
rejects a directed edge used twice. ``SurfaceField.fans`` walks every
fan in one loop, once per surface, and keeps them. The walk rejects
boundary and pinched vertices, which proves that each left[u][w] has its
left[w][u]. The Reeb graph and the cell partition read this map and
build no adjacency of their own.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, islice, repeat
from math import isfinite
from operator import gt, lt

from .errors import InputRejected, InternalInvariantError

Scalar = "float | Fraction | int"

HEADER = "torus-field v1"


@dataclass(frozen=True)
class VertexClass:
    """Local type of a vertex: minimum, regular, saddle (with multiplicity) or maximum."""

    kind: str
    multiplicity: int = 0

    @property
    def index(self) -> int:
        # extrema contribute +1, a k-fold saddle -k, regular vertices 0
        if self.kind in ("minimum", "maximum"):
            return 1
        if self.kind == "saddle":
            return -self.multiplicity
        return 0

    @property
    def is_critical(self) -> bool:
        return self.kind != "regular"

    def label(self) -> str:
        if self.kind == "saddle" and self.multiplicity > 1:
            return f"saddle:{self.multiplicity}"
        return self.kind


class SurfaceField:
    """Immutable triangulated surface with one scalar per vertex.

    triangles: CCW vertex triples indexing into values.
    coords: optional embedding, never consulted by the algorithms.
    Construction validates local well-formedness only; the global
    closed/oriented/connected checks live in validate_closed_orientable.
    """

    def __init__(self, triangles, values, coords=None):
        vals = tuple(values)
        if not vals:
            raise InputRejected("malformed-input", "surface has no vertices")
        # whole-sequence checks; the per-item loops only name an offender
        try:
            ok = set(map(type, vals)) <= {float, int} and all(map(isfinite, vals))
        except OverflowError:  # an int beyond float range
            ok = False
        if not ok:
            for x in vals:
                if not isinstance(x, (int, float, Fraction)) or isinstance(x, bool):
                    raise InputRejected("malformed-input", f"unsupported scalar {x!r}")
                try:
                    finite = isfinite(x)
                except OverflowError:
                    raise InputRejected("malformed-input", f"out-of-range scalar {x!r}")
                if not finite:
                    raise InputRejected("malformed-input", f"non-finite scalar {x!r}")
        nv = len(vals)
        tris = list(map(tuple, triangles))
        flat = list(chain.from_iterable(tris))
        if not (set(map(len, tris)) == {3} and set(map(type, flat)) == {int}
                and 0 <= min(flat) and max(flat) < nv
                and all(a != b != c != a for a, b, c in tris)
                and len(set(map(tuple, map(sorted, tris)))) == len(tris)):
            seen: set[frozenset] = set()
            for t in tris:
                if len(t) != 3:
                    raise InputRejected("malformed-input", f"triangle {t} does not have 3 vertices")
                for i in t:
                    if not isinstance(i, int) or isinstance(i, bool) or i < 0 or i >= nv:
                        raise InputRejected("malformed-input", f"vertex index {i!r} out of range")
                key = frozenset(t)
                if len(key) != 3:
                    raise InputRejected("malformed-input", f"triangle {t} repeats a vertex")
                if key in seen:
                    raise InputRejected("malformed-input", f"duplicate triangle {sorted(t)}")
                seen.add(key)
        if not tris:
            raise InputRejected("malformed-input", "surface has no triangles")
        if coords is not None:
            coords = tuple(tuple(float(c) for c in xyz) for xyz in coords)
            if len(coords) != len(vals):
                raise InputRejected("malformed-input", "coordinate count does not match vertex count")
            for xyz in coords:
                if len(xyz) != 3:
                    raise InputRejected("malformed-input", "coordinates must be x y z triples")
        self.triangles: tuple[tuple[int, int, int], ...] = tuple(tris)
        self.values = vals
        self.coords = coords
        self._left = None
        self._fans: list | None = None
        self._classes = None
        self.ranks: tuple[list[int], list[int]] | None = None  # set by vertex_classes

    @property
    def vertex_count(self) -> int:
        return len(self.values)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def left_triangles(self) -> list[dict[int, int]]:
        """left[u][w]: the triangle with u->w on its CCW boundary, built once."""
        if self._left is None:
            left = [{} for _ in self.values]
            for idx, (a, b, c) in enumerate(self.triangles):
                left[a][b] = left[b][c] = left[c][a] = idx
            if sum(map(len, left)) != 3 * len(self.triangles):  # an edge was overwritten
                seen = set()  # the first edge met a second time; set.add returns None
                x, y = next(e for a, b, c in self.triangles for e in ((a, b), (b, c), (c, a))
                            if e in seen or seen.add(e))
                raise InputRejected(
                    "not-a-surface",
                    f"directed edge {x}->{y} used by two triangles; "
                    "orientations are inconsistent or the gluing is not orientable")
            self._left = left
        return self._left

    def fans(self) -> list[tuple[int, ...]]:
        """Each vertex's neighbors in CCW cyclic order, walked once and kept."""
        if self._fans is not None:
            return self._fans
        left, tris = self.left_triangles(), self.triangles
        out = []
        for v in range(len(self.values)):
            d = left[v]
            if not d:
                raise InputRejected("not-a-surface", f"vertex {v} has no incident triangle")
            start = min(d)
            cyc = [start]
            # the triangle left of v->w is a rotation of (v, w, next)
            a, b, c = tris[d[start]]
            cur = c if a == v else a if b == v else b
            while cur != start:
                if cur not in d:
                    raise InputRejected("not-a-surface",
                                        f"boundary edge at vertex {v}: the fan does not close")
                cyc.append(cur)
                if len(cyc) > len(d):
                    raise InternalInvariantError(f"fan walk at vertex {v} does not terminate")
                a, b, c = tris[d[cur]]
                cur = c if a == v else a if b == v else b
            if len(cyc) != len(d):
                raise InputRejected("not-a-surface",
                                    f"vertex {v} is pinched: its link is not a single cycle")
            out.append(tuple(cyc))
        self._fans = out
        return out


def validate_closed_orientable(s: SurfaceField) -> dict:
    """Check that the complex is a closed connected consistently oriented surface.

    Returns {"chi": ..., "genus": ...} on success, raises InputRejected otherwise.
    """
    left = s.left_triangles()
    try:
        s.fans()  # closed fans give every directed edge its reverse
    except InputRejected:  # name the first boundary edge, if there is one
        edge = next(((u, w) for u, d in enumerate(left) for w in d if u not in left[w]), None)
        if edge:
            u, w = edge
            raise InputRejected("not-a-surface", f"boundary edge {u}-{w}: no opposite triangle")
        raise
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in left[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != s.vertex_count:
        raise InputRejected("not-a-surface", "surface is disconnected")
    # every triangle has three directed edges, none repeated
    directed = 3 * s.triangle_count
    if directed % 2:
        raise InternalInvariantError("odd directed edge count on a closed complex")
    chi = s.vertex_count - directed // 2 + s.triangle_count
    if chi % 2 or chi > 2:
        raise InternalInvariantError(f"impossible Euler characteristic {chi}")
    return {"chi": chi, "genus": (2 - chi) // 2}


_shared = cache(VertexClass)  # one instance per class, e.g. _shared("saddle", 2)


def _fan_class(v: int, below: tuple) -> VertexClass:
    """Class of vertex v from its fan's below flags: counts their cyclic runs."""
    prev = below[-1:] + below[:-1]
    c_minus, c_plus = sum(map(gt, below, prev)), sum(map(lt, below, prev))
    if c_minus != c_plus:
        raise InternalInvariantError(f"run counts disagree at vertex {v}")
    if not c_minus:
        return _shared("maximum" if below[0] else "minimum")
    return _shared("regular") if c_minus == 1 else _shared("saddle", c_minus - 1)


def vertex_classes(s: SurfaceField) -> tuple[VertexClass, ...]:
    """Every vertex's class against one rank array: a stable sort by value
    breaks ties by index. Equal below flags share one class."""
    if s._classes is None:
        n, fans = s.vertex_count, s.fans()
        order = sorted(range(n), key=s.values.__getitem__)
        rank = sorted(range(n), key=order.__getitem__)
        s.ranks = (order, rank)
        below = map(gt, chain.from_iterable(map(repeat, rank, map(len, fans))),
                    map(rank.__getitem__, chain.from_iterable(fans)))
        keys = list(map(tuple, map(islice, repeat(below), map(len, fans))))
        first = dict(zip(reversed(keys), range(n - 1, -1, -1)))  # pattern -> first vertex
        memo = {key: _fan_class(v, key) for key, v in first.items()}
        s._classes = tuple(map(memo.__getitem__, keys))
    return s._classes


def parse_scalar(tok: str):
    try:
        return Fraction(tok) if "/" in tok else int(tok)
    except (ValueError, ZeroDivisionError):
        if "/" in tok:
            raise InputRejected("malformed-input", f"bad rational literal {tok!r}")
    try:
        return float(tok)
    except ValueError:
        raise InputRejected("malformed-input", f"bad scalar literal {tok!r}")


def format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x) if isinstance(x, float) else str(x)


def load_surface(source) -> SurfaceField:
    """Parse the torus-field v1 text format.

    Line 1 is the header, line 2 holds the vertex and triangle counts.
    Then one line per vertex ("value" or "value x y z") and one line per
    triangle (three 0-based CCW indices). Lines starting with '#' are
    comments. Accepts a string, bytes, or a readable object.
    """
    text = source.read() if hasattr(source, "read") else source
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines or lines[0] != HEADER:
        raise InputRejected("malformed-input", f"missing or wrong header; expected {HEADER!r}")
    if len(lines) < 2:
        raise InputRejected("malformed-input", "missing count line")
    head = lines[1].split()
    try:
        nv, nt = (int(h) for h in head)
    except ValueError:
        raise InputRejected("malformed-input", f"count line must hold two integers, got {lines[1]!r}")
    if nv <= 0 or nt <= 0:
        raise InputRejected("malformed-input", "vertex and triangle counts must be positive")
    body = lines[2:]
    if len(body) != nv + nt:
        raise InputRejected("malformed-input",
                            f"expected {nv + nt} data lines, found {len(body)}")
    # whole columns if all lines are single-spaced and all tokens parse; else the
    # per-line loops name the first bad line, or read other spacings and inf, nan
    # or very long digit runs, which only int-then-float accepts
    vertex_lines, tri_lines = body[:nv], body[nv:]
    width = vertex_lines[0].count(" ") + 1
    try:
        if not (width in (1, 4) and set(map(str.count, vertex_lines, repeat(" "))) == {width - 1}
                and set(map(str.count, tri_lines, repeat(" "))) == {2}):
            raise ValueError("not single-spaced")
        toks = " ".join(vertex_lines).split(" ")
        values = [Fraction(t) if "/" in t else float(t) if "." in t or "e" in t or "E" in t
                  else int(t) for t in toks[::width]]
        coords = list(zip(*(map(float, toks[k::width]) for k in range(1, width))))
        flat = list(map(int, " ".join(tri_lines).split(" ")))
    except (ValueError, ZeroDivisionError):
        values, coords, flat = [], [], []
        width = len(vertex_lines[0].split())
        for ln in vertex_lines:
            toks = ln.split()
            if len(toks) not in (1, 4):
                raise InputRejected("malformed-input", f"vertex line {ln!r} must hold 1 or 4 numbers")
            values.append(parse_scalar(toks[0]))
            if len(toks) != width:
                raise InputRejected("malformed-input", "vertex lines mix bare and coordinate forms")
            try:
                coords.append(tuple(map(float, toks[1:])))
            except ValueError:
                raise InputRejected("malformed-input", f"bad coordinates in line {ln!r}")
        for ln in tri_lines:
            toks = ln.split()
            if len(toks) != 3:
                raise InputRejected("malformed-input", f"triangle line {ln!r} must hold 3 indices")
            try:
                flat += map(int, toks)
            except ValueError:
                raise InputRejected("malformed-input", f"bad triangle indices in line {ln!r}")
    return SurfaceField(list(zip(*[iter(flat)] * 3)), values, coords if width == 4 else None)


def dump_surface(s: SurfaceField) -> str:
    """Serialize back to the torus-field v1 text format (lossless for load_surface)."""
    out = [HEADER, f"{s.vertex_count} {s.triangle_count}"]
    for v in range(s.vertex_count):
        line = format_scalar(s.values[v])
        if s.coords is not None:
            line += " " + " ".join(repr(c) for c in s.coords[v])
        out.append(line)
    for a, b, c in s.triangles:
        out.append(f"{a} {b} {c}")
    return "\n".join(out) + "\n"

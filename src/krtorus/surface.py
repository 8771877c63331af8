"""Triangulated closed oriented surfaces carrying a scalar vertex field.

The field lives on vertices and is affine inside each triangle, so level
sets are polygonal. Genericity is simulated: criticality decisions break
value ties by vertex index, which makes the vertex order strictly total.
Level-set geometry (which edges a contour crosses) always compares raw
values; only the local classification uses the tie-broken order.

The mesh adjacency is one half-edge table, built once per surface by
``SurfaceField.twins``: half-edge h = 3t + i runs from triangles[t][i] to
triangles[t][(i + 1) % 3], so next and prev are arithmetic, and twin[h]
runs back along it. One swing around each vertex (h to twin[prev(h)])
fills the table and the fans. The build rejects a directed edge used
twice, an edge with one triangle, and isolated and pinched vertices, so
a table exists only with every twin and every fan closed. The Reeb
graph and the cell partition walk this table and build no adjacency of
their own (Rossignac, Safonova and Szymczak, "Edgebreaker on a
corner-table", SMI 2001).
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, repeat
from math import isfinite
from operator import gt

from .errors import InputRejected

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
    Construction validates local well-formedness only; twins checks that
    the mesh is closed and oriented, validate_closed_orientable that it
    is connected.
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
        k = nv = len(vals)
        kk = nv * nv
        tris = list(map(tuple, triangles))
        flat = list(chain.from_iterable(tris))
        # one int key per triangle, its corners in sorted order as base-nv digits;
        # a repeated vertex leaves its triangle out, so a repeat or a duplicate
        # leaves fewer keys. One line: tests/test_work_growth.py counts line events
        if not (set(map(len, tris)) == {3} and set(map(type, flat)) == {int}
                and 0 <= min(flat) and max(flat) < nv
                and len({(a*kk+b*k+c if b < c else a*kk+c*k+b if a < c else c*kk+a*k+b) if a < b else (b*kk+a*k+c if a < c else b*kk+c*k+a if b < c else c*kk+b*k+a) for a, b, c in tris if a != b != c != a}) == len(tris)):
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
        corners = map(list(range(nv)).__getitem__, flat)  # one int object per vertex id
        self.triangles: tuple[tuple[int, int, int], ...] = tuple(zip(corners, corners, corners))
        self.values = vals
        self.coords = coords
        self._twin = self._out = self._fans = None  # set by twins
        self._classes = None
        self.ranks: tuple[list[int], list[int]] | None = None  # set by vertex_classes

    @property
    def vertex_count(self) -> int:
        return len(self.values)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def twins(self) -> array:
        """twin[h]: the half-edge back along h, built once with the fans and
        one half-edge out of each vertex. Per-vertex dicts, v -> {w: t} for
        the triangle t holding v->w, live only while the swing around each v
        goes from v->w to v->x, the twin of x->v before it in t: v's corner
        of t gives both the half-edge and x. A vertex in no triangle, or
        with an open or pinched fan, stops the swings and rejects the mesh:
        its first edge u->w with no w->u, by tail and then half-edge, else
        that vertex. So once this returns, every fan is closed."""
        if self._twin is None:
            tris = self.triangles
            left: list[dict[int, int] | None] = [{} for _ in self.values]
            for t, (a, b, c) in enumerate(tris):
                left[a][b] = left[b][c] = left[c][a] = t
            m = 3 * len(tris)
            if sum(map(len, left)) != m:  # an edge was overwritten
                seen = set()  # the first edge met a second time; set.add returns None
                x, y = next(e for a, b, c in tris for e in ((a, b), (b, c), (c, a))
                            if e in seen or seen.add(e))
                raise InputRejected(
                    "not-a-surface",
                    f"directed edge {x}->{y} used by two triangles; "
                    "orientations are inconsistent or the gluing is not orientable")
            # swung[h]: the twin of the half-edge before h, the next one out of
            # h's tail; slot m holds each swing's first half-edge
            swung, out, fans, fault = array("l", [-1]) * (m + 1), array("l", [-1]) * len(left), [], None
            for v, d in enumerate(left):
                if not d:
                    fault = f"vertex {v} has no incident triangle"
                    break
                x = w = min(d)
                h, cyc = m, []
                try:
                    while True:
                        cyc.append(x)
                        t = d[x]
                        a, b, c = tris[t]
                        if a == v:
                            swung[h] = h = 3 * t
                            x = c
                        elif b == v:
                            swung[h] = h = 3 * t + 1
                            x = a
                        else:
                            swung[h] = h = 3 * t + 2
                            x = b
                        if x == w:
                            break
                except KeyError:  # no half-edge v->x, so x->v has no twin
                    break
                if len(cyc) != len(d):
                    fault = f"vertex {v} is pinched: its link is not a single cycle"
                    break
                out[v] = swung[h] = swung[m]
                fans.append(tuple(cyc))
                left[v] = None  # a closed fan: every edge into or out of v has its twin
            if len(fans) < len(left):  # an edge with no twin outranks the vertex; dicts keep h order
                edge = next(((u, w) for u, d in enumerate(left) if d for w in d
                             if left[w] is not None and u not in left[w]), None)
                raise InputRejected("not-a-surface", fault if edge is None else
                                    f"boundary edge {edge[0]}-{edge[1]}: no opposite triangle")
            # the half-edge before 3t + i is 3t + (i + 2) % 3
            del swung[m]
            swung[2::3], swung[::3], swung[1::3] = swung[::3], swung[1::3], swung[2::3]
            self._twin, self._out, self._fans = swung, out, fans
        return self._twin

    def out_edges(self, v: int) -> list[int]:
        """The half-edges out of v to its ``fans`` neighbors, once ``twins`` has returned."""
        twin, h = self._twin, self._out[v]
        out, g = [h], h
        while (g := twin[g - 1 if g % 3 else g + 2]) != h:
            out.append(g)
        return out

    def half_edge(self, u: int, w: int) -> int:
        """The half-edge u->w, once ``twins`` has returned."""
        return self.out_edges(u)[self._fans[u].index(w)]

    def fans(self) -> list[tuple[int, ...]]:
        """Each vertex's neighbors in CCW order from the least."""
        self.twins()
        return self._fans


def validate_closed_orientable(s: SurfaceField) -> dict:
    """Check that the complex is a closed connected consistently oriented surface.

    Returns {"chi": ..., "genus": ...} on success, raises InputRejected otherwise.
    Closed fans pair up the 3T half-edges, so chi = V - T/2, and a closed
    connected orientable surface has chi = 2 - 2 genus: neither needs a check.
    """
    fans = s.fans()
    seen, order = {0}, [0]
    for v in order:  # breadth-first over the fans
        for w in fans[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    if len(seen) != s.vertex_count:
        raise InputRejected("not-a-surface", "surface is disconnected")
    chi = s.vertex_count - s.triangle_count // 2
    return {"chi": chi, "genus": (2 - chi) // 2}


_shared = cache(VertexClass)  # one instance per class, e.g. _shared("saddle", 2)


def _fan_class(below: bytes) -> VertexClass:
    """Class of a vertex from its fan's below flags: counts their cyclic
    runs by their falls (a cyclic sequence has as many rises as falls)."""
    c_minus = sum(map(gt, below, below[-1:] + below[:-1]))
    if not c_minus:
        return _shared("maximum" if below[0] else "minimum")
    return _shared("regular") if c_minus == 1 else _shared("saddle", c_minus - 1)


def vertex_classes(s: SurfaceField) -> tuple[VertexClass, ...]:
    """Every vertex's class against one rank array: a stable sort by value
    breaks ties by index. Each fan's key is its slice of one buffer of
    below flags, and equal keys share one class."""
    if s._classes is None:
        n, fans = s.vertex_count, s.fans()
        order = sorted(range(n), key=s.values.__getitem__)
        rank = sorted(range(n), key=order.__getitem__)
        s.ranks = (order, rank)
        below = bytes(map(gt, chain.from_iterable(map(repeat, rank, map(len, fans))),
                          map(rank.__getitem__, chain.from_iterable(fans))))
        ends = list(accumulate(map(len, fans)))
        keys = list(map(below.__getitem__, map(slice, [0, *ends], ends)))
        memo = {key: _fan_class(key) for key in dict.fromkeys(keys)}
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

    Single-spaced, the index and vertex blocks go through the JSON scanner,
    whose numbers int() and float() read alike. A token it refuses or reads
    as another type (+5, 01, 1., 1_000, a non-ASCII digit, a fraction, inf,
    a digit run past int's limit; a float, NaN or true as an index; an int
    as a coordinate, since -0 reads -0.0) sends the text to the per-line path:
    int(), then n/d, then float(). Non-finite values are refused either way.
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
    # per-line loops name the first bad line or read what the scanner does not.
    # A token it reads as another type or as more numbers fails the checks
    vertex_lines, tri_lines = body[:nv], body[nv:]
    width = vertex_lines[0].count(" ") + 1
    try:
        if not (width in (1, 4) and set(map(str.count, vertex_lines, repeat(" "))) == {width - 1}
                and set(map(str.count, tri_lines, repeat(" "))) == {2}):
            raise ValueError("not single-spaced")
        toks = json.loads(f"[{','.join(vertex_lines).replace(' ', ',')}]")
        values, coords = toks[::width], list(zip(*(toks[k::width] for k in range(1, width))))
        flat = json.loads(f"[{','.join(tri_lines).replace(' ', ',')}]")
        if not (len(toks) == nv * width and len(flat) == 3 * nt and set(map(type, flat)) == {int}
                and set(map(type, values)) <= {int, float}
                and set(map(type, chain.from_iterable(coords))) <= {float}):
            raise ValueError("a token the scanner reads otherwise")
        del toks
    except (ValueError, ZeroDivisionError, RecursionError):
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
    del lines, body, vertex_lines, tri_lines  # the text, held no longer than the parse
    return SurfaceField(list(zip(*[iter(flat)] * 3)), values, coords if width == 4 else None)


def dump_surface(s: SurfaceField) -> str:
    """Serialize back to the torus-field v1 text format (lossless for load_surface)."""
    vals = s.values
    lines = map(repr if set(map(type, vals)) <= {float, int} else format_scalar, vals)
    if s.coords is not None:
        lines = map("{} {!r} {!r} {!r}".format, lines, *zip(*s.coords))
    head = "\n".join(chain((HEADER, f"{s.vertex_count} {s.triangle_count}"), lines))
    return f"{head}\n" + ("%d %d %d\n" * s.triangle_count) % tuple(chain.from_iterable(s.triangles))

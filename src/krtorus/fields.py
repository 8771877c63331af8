"""Model scalar fields sampled on the N x N grid torus.

The grid torus uses the standard diagonal split: square (i, j) becomes
triangles (A, B, C) and (A, C, D) with A=(i,j), B=(i+1,j), C=(i+1,j+1),
D=(i,j+1), indices mod N, vertex id j*N + i.

Cosine sampling goes through a quarter-wave symmetric table with snapped
zeros so that symmetric lattice points carry bitwise-equal floats. The
model fields rely on exact level coincidences (several saddles sharing
one level); naive per-point cos() calls would break them by 1 ulp.
"""
from __future__ import annotations

import math
import random

from .errors import InputRejected
from .surface import SurfaceField

PRESET_NAMES = ("two-cell", "z2-sym", "z2xz2-sym", "cyclic-height")
MAX_PRESET_GRID = 2048  # memory grows as N^2: 0.75 GiB at N = 1024, ~3 GiB at 2048


def cosine_table(n: int) -> tuple[float, ...]:
    """cos(2 pi k / n) for k in range(n), with exact symmetry.

    Guarantees t[n//2 + k] == -t[k], t[(n - k) % n] == t[k], and exact
    zeros at the quarter points.
    """
    if n % 4:
        raise InputRejected("bad-request", f"cosine table size {n} must be a multiple of 4")
    q = n // 4
    t = [0.0] * n
    for k in range(q):
        v = math.cos(2.0 * math.pi * k / n)
        t[k] = v
        t[(n - k) % n] = v
        t[n // 2 - k] = -v
        t[n // 2 + k] = -v
    t[q] = 0.0
    t[3 * q] = 0.0
    return tuple(t)


def grid_vertex(n: int, i: int, j: int) -> int:
    return (j % n) * n + (i % n)


def grid_field(n: int, sample) -> SurfaceField:
    """Build the N x N grid torus with values sample(i, j)."""
    if n < 3:
        raise InputRejected("bad-request", f"grid size {n} is too small")
    values = [0] * (n * n)
    for j in range(n):
        for i in range(n):
            values[grid_vertex(n, i, j)] = sample(i, j)
    tris = []
    for j in range(n):
        for i in range(n):
            a = grid_vertex(n, i, j)
            b = grid_vertex(n, i + 1, j)
            c = grid_vertex(n, i + 1, j + 1)
            d = grid_vertex(n, i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return SurfaceField(tris, values)


def _check_preset_grid(n: int) -> None:
    if n < 8:
        raise InputRejected("bad-request", f"preset grid size {n} must be at least 8")
    if n > MAX_PRESET_GRID:
        raise InputRejected("bad-request", f"preset grid size {n} must be at most {MAX_PRESET_GRID}")
    if n % 4:
        # model critical points must land on lattice vertices
        raise InputRejected("bad-request", f"preset grid size {n} must be a multiple of 4")


def preset_field(name: str, n: int = 16) -> SurfaceField:
    """One of the built-in model fields on the N x N grid torus."""
    _check_preset_grid(n)
    t = cosine_table(n)
    if name == "two-cell":
        return grid_field(n, lambda i, j: t[i % n] + t[j % n])
    if name == "z2-sym":
        return grid_field(n, lambda i, j: t[(2 * i) % n] + t[j % n])
    if name == "z2xz2-sym":
        return grid_field(n, lambda i, j: t[(2 * i) % n] + t[(2 * j) % n])
    if name == "cyclic-height":
        return grid_field(n, lambda i, j: t[j % n] + 0.3 * t[i % n])
    raise InputRejected("bad-request",
                        f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")


def pullback_cosine_field(n: int, mat) -> SurfaceField:
    """Two-argument cosine model field pulled back along an integer matrix.

    Samples cos 2 pi u + cos 2 pi v at (u, v) = mat @ (x, y).
    A nonsingular matrix gives a finite covering of the smooth two-argument
    model, whose graph is a tree. The PL sample need not keep that: many
    sheared matrices give degenerate saddles, flat critical triangles or a
    cyclic graph at every grid size, and are rejected.
    """
    (a, b), (c, d) = mat
    if a * d - b * c == 0:
        raise InputRejected("bad-request", "pullback matrix must be nonsingular")
    _check_preset_grid(n)
    t = cosine_table(n)
    return grid_field(n, lambda i, j: t[(a * i + b * j) % n] + t[(c * i + d * j) % n])


def random_field(n: int, seed: int) -> SurfaceField:
    """Grid torus with iid uniform values; generic but rarely tree-like."""
    rng = random.Random(seed)
    return grid_field(n, lambda i, j: rng.uniform(-1.0, 1.0))

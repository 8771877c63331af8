"""Computable wreath-style products over a shifted torus grid.

An element is a rows x cols grid of base-group values plus an integer
shift pair. Shifts act on grids by cyclic translation (indices reduce
mod the grid shape) but add among themselves without reduction: the top
factor is the free abelian group of rank 2, not the finite grid.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass

from .errors import InputRejected

call = getattr(operator, "call", lambda f, *args: f(*args))  # operator.call: Python 3.11+


class CyclicGroup:
    def __init__(self, k: int):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"cyclic group order must be a positive integer, got {k!r}")
        self.k = k

    @property
    def identity(self):
        return 0

    def op(self, a, b):
        return (a + b) % self.k

    def inv(self, a):
        return (-a) % self.k

    def elements(self):
        return range(self.k)

    def element_at(self, rank: int):
        return rank

    def rank_of(self, a) -> int:
        return range(self.k).index(a)  # ValueError off the group

    @property
    def order(self) -> int:
        return self.k

    def describe(self) -> str:
        return "1" if self.k == 1 else f"Z{self.k}"


class DirectProductGroup:
    """Componentwise product; elements are tuples, one slot per factor."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("direct product needs at least one factor")
        self._ops = tuple(f.op for f in self.factors)

    @property
    def identity(self):
        return tuple(f.identity for f in self.factors)

    def op(self, a, b):
        return tuple(map(call, self._ops, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

    def element_at(self, rank: int):
        slots = []
        for f in reversed(self.factors):  # the last factor varies fastest
            rank, digit = divmod(rank, f.order)
            slots.append(f.element_at(digit))
        return tuple(reversed(slots))

    def rank_of(self, a) -> int:
        rank = 0
        for f, x in zip(self.factors, a, strict=True):
            rank = rank * f.order + f.rank_of(x)
        return rank

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.order
        return n

    def describe(self) -> str:
        return " x ".join(f.describe() for f in self.factors)


def parse_atoms(text: str):
    """Atom shorthand: comma-separated tokens, each '1' or 'Z<k>'."""
    groups = []
    for tok in text.split(","):
        tok = tok.strip()
        digits = tok[1:] if tok[:1] in ("Z", "z") else ""
        try:  # isdigit() passes '²', '①' and runs past int's digit limit; int() does not
            k = 1 if tok == "1" else int(digits) if digits.isdigit() else 0
        except ValueError:
            k = 0
        if k < 1:
            raise InputRejected("bad-request",
                                f"bad atom spec {tok!r}; expected '1' or 'Z<k>'")
        groups.append(CyclicGroup(k))
    return tuple(groups)


# entries in each engine's memo of base.op and of base.inv: every pair of a base of order <= 64
CELL_MEMO_SIZE = 4096
# product cells in each engine's memo of row products (its key rows hold twice as many):
# every row pair of a 1-column grid over order <= 32
ROW_MEMO_CELLS = 1024


@dataclass(frozen=True, slots=True)
class WreathElement:
    grid: tuple  # rows x cols nested tuples of base elements
    shift: tuple[int, int]


class WreathGroup:
    """Engine for one fixed base group and grid shape.

    The base, a finite group with hashable elements, provides identity,
    op, inv, elements(), element_at(rank), its inverse rank_of(element),
    order and describe(). op and inv must be pure functions of hashable
    elements: each engine memoises each of them in a least-recently-used
    memo of CELL_MEMO_SIZE (4,096) entries. Over the op memo sits a
    least-recently-used memo of row products of ROW_MEMO_CELLS // cols
    row pairs: ROW_MEMO_CELLS (1,024) product cells, and each entry
    also keeps its two key rows, so at most 3,072 cell references.
    multiply and inverse move every grid through shift_action, so a
    subclass that overrides it installs another action everywhere; the
    tests install deliberately wrong ones as negative controls.
    """

    def __init__(self, base, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("grid shape must be at least 1 x 1")
        self.base = base
        self.rows = rows
        self.cols = cols
        # bounded: a base of order 10^6 would otherwise keep one entry per pair met
        op = self._op = functools.lru_cache(maxsize=CELL_MEMO_SIZE)(base.op)
        self._inv = functools.lru_cache(maxsize=CELL_MEMO_SIZE)(base.inv)
        # closes over op, not self: a cycle through self would keep the engine
        # and its memos alive past its call, until the cycle collector runs
        self._row_op = functools.lru_cache(maxsize=ROW_MEMO_CELLS // cols)(
            lambda ra, rb: tuple(map(op, ra, rb)))

    def element(self, grid, shift=(0, 0)) -> WreathElement:
        grid = tuple(map(tuple, grid))
        if len(grid) != self.rows or set(map(len, grid)) != {self.cols}:
            raise ValueError(f"grid is not {self.rows} x {self.cols}")
        k, l = shift
        return WreathElement(grid, (int(k), int(l)))

    def identity(self) -> WreathElement:
        e = self.base.identity
        return WreathElement(tuple(tuple(e for _ in range(self.cols))
                                   for _ in range(self.rows)), (0, 0))

    def shift_action(self, grid, shift):
        """moved[i][j] = grid[(i + k) % rows][(j + l) % cols], grid a tuple of row tuples.

        By rotation; a shift that wraps on both axes returns grid itself."""
        k, l = shift[0] % self.rows, shift[1] % self.cols
        return tuple([row[l:] + row[:l] for row in grid[k:] + grid[:k]]) if k or l else grid

    def multiply(self, x: WreathElement, y: WreathElement) -> WreathElement:
        """Cellwise x.grid * (y.grid moved by x.shift); shifts add.

        One lookup per row: a pair of rows is multiplied cell by cell only
        when it is not among the engine's recently used row pairs, and a
        cell pair reaches base.op once while it stays among the
        CELL_MEMO_SIZE most recently used pairs."""
        moved = self.shift_action(y.grid, x.shift)
        grid = tuple(map(self._row_op, x.grid, moved))
        return WreathElement(grid, (x.shift[0] + y.shift[0], x.shift[1] + y.shift[1]))

    def inverse(self, x: WreathElement) -> WreathElement:
        """Cellwise base.inv through the engine's memo, moved by the negated shift."""
        inv_grid = tuple([tuple(map(self._inv, row)) for row in x.grid])
        neg = (-x.shift[0], -x.shift[1])
        return WreathElement(self.shift_action(inv_grid, neg), neg)

    def sigma(self, grid) -> WreathElement:
        """Inclusion of the map part: grid -> (grid, (0, 0)), for the row-tuple
        grids of this shape that grids(), grid_at and pointwise_product build."""
        return WreathElement(grid, (0, 0))

    def proj(self, x: WreathElement) -> tuple[int, int]:
        """Projection onto the shift part."""
        return x.shift

    def _rows(self, flat):
        """Cut a row-major sequence of cell values into the grid's rows."""
        return tuple(tuple(flat[i * self.cols:(i + 1) * self.cols])
                     for i in range(self.rows))

    def grids(self):
        """All grids over a finite base, deterministic order."""
        cells = self.rows * self.cols
        for flat in itertools.product(self.base.elements(), repeat=cells):
            yield self._rows(flat)

    def grid_at(self, rank: int):
        """The grid at position rank of grids(), decoded without enumerating."""
        flat = []
        for _ in range(self.rows * self.cols):
            rank, digit = divmod(rank, self.base.order)
            flat.append(self.base.element_at(digit))
        flat.reverse()  # grids() varies the last cell fastest
        return self._rows(flat)

    def rank_of(self, grid) -> int:
        """The position of grid in grids(), grid_at's inverse."""
        rank = 0
        for a in itertools.chain.from_iterable(grid):
            rank = rank * self.base.order + self.base.rank_of(a)
        return rank

    def kernel_size(self) -> int:
        return self.base.order ** (self.rows * self.cols)

    def render(self, x: WreathElement) -> str:
        flat = ", ".join(str(v) for row in x.grid for v in row)
        return f"({flat}; ({x.shift[0]},{x.shift[1]}))"


def distinct_ranks(rng, size: int, count: int) -> list:
    """count distinct ranks from range(size), uniformly, in draw order.

    Every rank, in order, when size <= count. Draws with randrange, which
    takes any int size, so kernels past sys.maxsize sample like small ones.
    """
    if size <= count:
        return list(range(size))
    picked = {}
    while len(picked) < count:
        picked[rng.randrange(size)] = None
    return list(picked)


def pointwise_product(op, g1, g2):
    return tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(g1, g2))


def check_group_axioms(wg: WreathGroup, pool, *, rng=None,
                       triple_budget=300_000, samples=2_000):
    """Identity, inverse, and associativity laws over a pool of elements.

    Associativity runs over all pool triples when that fits the budget,
    otherwise over seeded random triples. Elements are interned as ids
    keyed by shift and grid, and products memoised by id pair, so each
    distinct product goes through wg.multiply once. Each (x, y) run of
    triples is compared as two rows of ids, (x*y)*z and x*(y*z) over its
    z; the exhaustive branch keeps the row y*pool for every y. The
    triples, their order, the rng draws and, when every law holds, the
    distinct products are those of recomputing both sides of every
    triple. Returns None when every law holds, else a description of
    the first violated one.
    """
    pool = list(pool)
    e = wg.identity()
    for x in pool:
        if wg.multiply(e, x) != x:
            return f"identity law e*x = x fails at x = {wg.render(x)}"
        if wg.multiply(x, e) != x:
            return f"identity law x*e = x fails at x = {wg.render(x)}"
        ix = wg.inverse(x)
        if wg.multiply(x, ix) != e or wg.multiply(ix, x) != e:
            return f"inverse law fails at x = {wg.render(x)}"
    ids, elements = defaultdict(dict), []  # ids[shift][grid] = position in elements

    def intern(x) -> int:
        i = ids[x.shift].setdefault(x.grid, len(elements))
        if i == len(elements):  # first seen
            elements.append(x)
        return i

    @functools.cache  # one cache per call, freed on return
    def mul(a: int, b: int) -> int:  # id of elements[a] * elements[b]
        return intern(wg.multiply(elements[a], elements[b]))

    pool_ids = [intern(x) for x in pool]
    n = len(pool)
    if n ** 3 <= triple_budget:  # (i, j, every k), in product order
        every = range(n)
        y_pool = [list(map(mul, itertools.repeat(y), pool_ids)) for y in pool_ids]
        runs = ((i, j, every, pool_ids, y_pool[j]) for i in every for j in every)
    elif rng is None:
        raise ValueError("pool too large for exhaustive triples; pass rng")
    else:  # randrange(n) draws exactly what choice(pool) would
        draws = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
        runs = ((i, j, (k,), (pool_ids[k],), (mul(pool_ids[j], pool_ids[k]),))
                for i, j, k in draws)
    for i, j, ks, zs, yzs in runs:  # zs = pool_ids[ks], yzs = y*zs
        x = pool_ids[i]
        left = list(map(mul, itertools.repeat(mul(x, pool_ids[j])), zs))
        right = list(map(mul, itertools.repeat(x), yzs))
        if left != right:
            k = ks[list(map(operator.eq, left, right)).index(False)]
            return ("associativity fails at "
                    f"{wg.render(pool[i])}, {wg.render(pool[j])}, {wg.render(pool[k])}")
    return None


# the largest kernel that the verify checks enumerate grid by grid
KERNEL_ENUM_LIMIT = 10_000


def check_exact_sequence(wg: WreathGroup, *, rng=None):
    """The map part injects, the shift part projects, and they splice exactly.

    Checks: sigma lands in ker(proj) and is injective; sigma is a
    homomorphism (uses multiply, so a corrupted shift action surfaces
    here, against cellwise base.op in a memo of CELL_MEMO_SIZE entries
    made for the call, never the engine's, so a corrupted memo does
    too); proj is
    additive; the kernel count equals |base|^(rows*cols).
    A kernel over KERNEL_ENUM_LIMIT grids is checked on 400 distinct
    grids drawn uniformly by rank and 400 pairs of their sigma images.
    Returns None or the violated identity.
    """
    if wg.kernel_size() <= KERNEL_ENUM_LIMIT:
        grids = wg.grids()
    elif rng is None:
        raise ValueError("kernel too large to enumerate; pass rng")
    else:
        grids = map(wg.grid_at, distinct_ranks(rng, wg.kernel_size(), 400))
    images = [wg.sigma(grid) for grid in grids]
    if any(wg.proj(x) != (0, 0) for x in images):
        return "sigma image escapes ker(proj)"
    distinct = len(set(images))
    if distinct != len(images):
        return "sigma is not injective"
    if wg.kernel_size() <= KERNEL_ENUM_LIMIT and distinct != wg.kernel_size():
        return (f"kernel count {distinct} differs from "
                f"|base|^(rows*cols) = {wg.kernel_size()}")
    at = range(len(images))  # choice(at) draws what choice(images) would
    if rng is None:
        pairs = itertools.product(at, repeat=2) \
            if len(at) ** 2 <= 40_000 else zip(at, reversed(at))
    else:
        pairs = [(rng.choice(at), rng.choice(at)) for _ in range(400)]
    # one bounded memo per call, freed on return; never the engine's
    op = functools.lru_cache(maxsize=CELL_MEMO_SIZE)(wg.base.op)
    for i, j in pairs:
        x, y = images[i], images[j]
        if wg.multiply(x, y) != wg.sigma(pointwise_product(op, x.grid, y.grid)):
            return "sigma is not a homomorphism under the installed shift action"
    probe = [(0, 0), (1, 0), (0, 1), (2, -3), (-1, 4)]
    for (a1, a2), (b1, b2) in itertools.product(probe, repeat=2):
        x = wg.element(wg.identity().grid, (a1, a2))
        y = wg.element(wg.identity().grid, (b1, b2))
        if wg.proj(wg.multiply(x, y)) != (a1 + b1, a2 + b2):
            return "proj is not additive on shifts"
    return None

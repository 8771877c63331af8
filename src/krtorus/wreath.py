"""Computable wreath-style products over a shifted torus grid.

An element is a rows x cols grid of base-group values plus an integer
shift pair. Shifts act on grids by cyclic translation (indices reduce
mod the grid shape) but add among themselves without reduction: the top
factor is the free abelian group of rank 2, not the finite grid. Hot paths
run in C builtins: an element is a tuple, grids are built with map and zip,
and check_group_axioms looks its products up in one dict.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

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


# entries in each engine's memo of a base method: every pair of a base of order <= 64
CELL_MEMO_SIZE = 4096
# product cells in each engine's memo of row products (its key rows hold twice as many):
# every row pair of a 1-column grid over order <= 32
ROW_MEMO_CELLS = 1024


WreathElement = namedtuple("WreathElement", "grid shift")
WreathElement.__doc__ = "(grid, shift), a tuple: rows x cols nested tuples of base elements, two ints."


class WreathGroup:
    """Engine for one fixed base group and grid shape.

    The base, a finite group with hashable elements, provides identity,
    op, inv, elements(), element_at(rank), its inverse rank_of(element),
    order and describe(). op and inv must be pure functions of hashable
    elements: each engine memoises each of them in a least-recently-used
    memo of CELL_MEMO_SIZE (4,096) entries, and so too element_at and
    rank_of for grid_at and rank_of. Over the op memo sits a
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
        self._element_at = functools.lru_cache(maxsize=CELL_MEMO_SIZE)(base.element_at)
        self._rank_of = functools.lru_cache(maxsize=CELL_MEMO_SIZE)(base.rank_of)
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
        (x_grid, x_shift), (y_grid, (k, l)) = x, y
        grid = tuple(map(self._row_op, x_grid, self.shift_action(y_grid, x_shift)))
        # WreathElement(grid, shift), without namedtuple's Python-level __new__
        return tuple.__new__(WreathElement, (grid, (x_shift[0] + k, x_shift[1] + l)))

    def inverse(self, x: WreathElement) -> WreathElement:
        """Cellwise base.inv through the engine's memo, moved by the negated shift."""
        grid, (k, l) = x
        neg = (-k, -l)
        return WreathElement(self.shift_action(pointwise_product(self._inv, grid), neg), neg)

    def sigma(self, grid) -> WreathElement:
        """Inclusion of the map part: grid -> (grid, (0, 0)), for the row-tuple
        grids of this shape that grids(), grid_at and pointwise_product build."""
        return WreathElement(grid, (0, 0))

    def proj(self, x: WreathElement) -> tuple[int, int]:
        """Projection onto the shift part."""
        return x.shift

    def _rows(self, flat):
        """Cut a row-major sequence of rows * cols cell values into the grid's rows."""
        return tuple(zip(*[iter(flat)] * self.cols))

    def grids(self):
        """All grids over a finite base, deterministic order."""
        cells = self.rows * self.cols
        for flat in itertools.product(self.base.elements(), repeat=cells):
            yield self._rows(flat)

    def grid_at(self, rank: int):
        """The grid at position rank of grids(), decoded without enumerating."""
        order, digits = self.base.order, []
        for _ in range(self.rows * self.cols):
            rank, digit = divmod(rank, order)
            digits.append(digit)
        digits.reverse()  # grids() varies the last cell fastest
        return self._rows(list(map(self._element_at, digits)))

    def rank_of(self, grid) -> int:
        """The position of grid in grids(), grid_at's inverse."""
        order, rank = self.base.order, 0
        for digit in map(self._rank_of, itertools.chain.from_iterable(grid)):
            rank = rank * order + digit
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


def pointwise_product(op, *grids):
    """op cell by cell across grids of one shape: cell (i, j) is op(g1[i][j], g2[i][j], ...)."""
    return tuple(map(tuple, map(map, itertools.repeat(op), *grids)))


class _ProductTable(dict):
    """table[a, b] = id of elements[a] * elements[b]; an id indexes elements, one per value.

    At module level: a class made per call is a reference cycle, and if its methods close
    over the call's elements it keeps every product alive until the collector runs."""

    def __init__(self, multiply):
        self.multiply, self.ids, self.elements = multiply, {}, []

    def intern(self, x) -> int:
        i = self.ids.setdefault(x, len(self.elements))
        if i == len(self.elements):  # first seen
            self.elements.append(x)
        return i

    def __missing__(self, pair):
        a, b = pair
        i = self[pair] = self.intern(self.multiply(self.elements[a], self.elements[b]))
        return i


def check_group_axioms(wg: WreathGroup, pool, *, rng=None,
                       triple_budget=300_000, samples=2_000):
    """Identity, inverse, and associativity laws over a pool of elements.

    Associativity runs over all pool triples when that fits the budget,
    otherwise over seeded random triples. Elements are interned as ids,
    and products live in one table keyed by id pair, so each distinct
    product goes through wg.multiply once and a repeat is one dict
    lookup. The exhaustive branch compares each (x, y) run of triples as
    two rows of ids: (x*y)*pool, built once per distinct x*y, and
    x*(y*pool), over y*pool built once per y. The triples, their order,
    the rng draws and, when every law holds, the distinct products are
    those of recomputing both sides of every triple. Returns None when
    every law holds, else a description of the first violated one.
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
    mul = _ProductTable(wg.multiply)
    at, repeat = mul.__getitem__, itertools.repeat
    ids = list(map(mul.intern, pool))
    n = len(ids)

    def fails(i, j, k):
        return ("associativity fails at "
                f"{wg.render(pool[i])}, {wg.render(pool[j])}, {wg.render(pool[k])}")

    if n ** 3 <= triple_budget:  # (i, j, every k), in product order
        y_pool = [list(map(at, zip(repeat(y), ids))) for y in ids]
        rows = {}  # rows[x*y] = (x*y)*pool
        for (i, x), (j, y) in itertools.product(enumerate(ids), repeat=2):
            xy = mul[x, y]
            if xy not in rows:
                rows[xy] = list(map(at, zip(repeat(xy), ids)))
            right = list(map(at, zip(repeat(x), y_pool[j])))
            if rows[xy] != right:
                return fails(i, j, list(map(operator.eq, rows[xy], right)).index(False))
        return None
    if rng is None:
        raise ValueError("pool too large for exhaustive triples; pass rng")
    # randrange(n) draws exactly what choice(pool) would, all before the first check
    draws = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
    for i, j, k in draws:
        x, y, z = ids[i], ids[j], ids[k]
        if mul[mul[x, y], z] != mul[x, mul[y, z]]:
            return fails(i, j, k)
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

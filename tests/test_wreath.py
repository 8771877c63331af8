"""Grid-with-shift product engine and its exactness checks."""
from __future__ import annotations

import copy
import gc
import itertools
import random
import tracemalloc

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krtorus.errors import InputRejected
from krtorus.wreath import (CyclicGroup, DirectProductGroup, WreathElement, WreathGroup,
                            check_exact_sequence, check_group_axioms, distinct_ranks,
                            parse_atoms, pointwise_product)


def small_pool(wg, shifts=(-1, 0, 1)):
    return [wg.element(g, s)
            for g in wg.grids()
            for s in itertools.product(shifts, repeat=2)]


def test_shift_action_frozen():
    # moved[i][j] = grid[(i+1) % 2][(j+1) % 3], worked out by hand
    wg = WreathGroup(CyclicGroup(5), 2, 3)
    grid = ((1, 2, 3), (4, 0, 1))
    assert wg.shift_action(grid, (1, 1)) == ((0, 1, 4), (2, 3, 1))
    assert wg.shift_action(grid, (0, 0)) == grid
    assert wg.shift_action(grid, (2, 3)) == grid  # full wrap
    assert wg.shift_action(grid, (-1, 0)) == wg.shift_action(grid, (1, 0))


@st.composite
def shift_cases(draw):
    """A grid of distinct cells, so a misplaced cell changes the result."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    flat = draw(st.permutations(range(rows * cols)))
    grid = tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))
    return grid, draw(st.tuples(st.integers(-12, 12), st.integers(-12, 12)))


@settings(max_examples=300, deadline=None)
@given(shift_cases())
@example((((0, 1, 2), (3, 4, 5)), (2, 3)))  # full wrap on both axes
@example((((0, 1, 2), (3, 4, 5)), (-12, -12)))  # negative multiple of both sides
@example((((0, 1, 2), (3, 4, 5)), (-1, -4)))
@example((((0,), (1,), (2,)), (5, 12)))  # one column: every column shift is a wrap
def test_shift_action_matches_cell_formula(case):
    grid, shift = case
    rows, cols = len(grid), len(grid[0])
    wg = WreathGroup(CyclicGroup(rows * cols), rows, cols)
    assert wg.shift_action(grid, shift) == oracles.shift_cells(grid, shift)
    # the corrupted engine moves y by one column more than x.shift says
    bad = oracles.CorruptedWreath(wg.base, rows, cols)
    x = bad.element(bad.identity().grid, shift)
    moved = bad.multiply(x, bad.element(grid)).grid
    assert moved == oracles.shift_cells(grid, (shift[0], shift[1] + 1))
    assert (moved == wg.shift_action(grid, shift)) == (cols == 1)


def test_multiply_frozen():
    wg = WreathGroup(CyclicGroup(2), 1, 2)
    x = wg.element([[0, 1]], (0, 1))
    y = wg.element([[1, 0]], (0, 1))
    xy = wg.multiply(x, y)
    # grid: x + (y moved by x's shift) = (0,1) + (0,1); shift adds freely
    assert xy.grid == ((0, 0),)
    assert xy.shift == (0, 2)


def test_shifts_add_without_reduction():
    wg = WreathGroup(CyclicGroup(2), 1, 2)
    x = wg.element([[0, 0]], (0, 1))
    acc = wg.identity()
    for _ in range(5):
        acc = wg.multiply(acc, x)
    assert acc.shift == (0, 5)  # not reduced mod the grid width


def test_inverse_frozen():
    wg = WreathGroup(CyclicGroup(2), 1, 2)
    x = wg.element([[0, 1]], (0, 1))
    ix = wg.inverse(x)
    assert ix.shift == (0, -1)
    assert ix.grid == ((1, 0),)
    assert wg.multiply(x, ix) == wg.identity()
    assert wg.multiply(ix, x) == wg.identity()


def test_identity_element():
    wg = WreathGroup(CyclicGroup(3), 2, 2)
    e = wg.identity()
    assert e.grid == ((0, 0), (0, 0)) and e.shift == (0, 0)
    x = wg.element([[1, 2], [0, 1]], (3, -2))
    assert wg.multiply(e, x) == x and wg.multiply(x, e) == x


def test_element_shape_is_checked():
    wg = WreathGroup(CyclicGroup(3), 2, 2)
    with pytest.raises(ValueError):
        wg.element([[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        WreathGroup(CyclicGroup(3), 0, 2)


def test_axioms_exhaustive_small():
    wg = WreathGroup(CyclicGroup(2), 1, 2)
    assert check_group_axioms(wg, small_pool(wg)) is None


def test_axioms_sampled_large():
    wg = WreathGroup(CyclicGroup(3), 2, 2)
    pool = small_pool(wg)  # 81 * 9 elements: beyond the triple budget
    rng = random.Random(20260819)
    assert check_group_axioms(wg, pool, rng=rng, samples=500) is None
    with pytest.raises(ValueError):
        check_group_axioms(wg, pool)


def test_corrupted_engine_fails_axioms():
    wg = oracles.CorruptedWreath(CyclicGroup(2), 1, 2)
    msg = check_group_axioms(wg, small_pool(wg))
    assert msg is not None and "law" in msg


def test_corrupted_engine_invisible_on_single_cell():
    # a 1 x 1 grid cannot see a column shift: the control needs cols > 1
    wg = oracles.CorruptedWreath(CyclicGroup(2), 1, 1)
    assert check_group_axioms(wg, small_pool(wg)) is None


class CubicWreath(WreathGroup):
    """Translates by (k, l + k**3): identity and inverse laws hold, associativity not.

    Composing the moves for shifts k1 and k2 translates the columns by
    k1**3 + k2**3, not (k1 + k2)**3, so the action is no homomorphism
    once cols does not divide 3*k1*k2*(k1 + k2).
    """

    def shift_action(self, grid, shift):
        k, l = shift
        return super().shift_action(grid, (k, l + k ** 3))


WINDOW = list(itertools.product((-1, 0, 1), repeat=2))
ENGINES = {"correct": WreathGroup, "corrupted": oracles.CorruptedWreath, "cubic": CubicWreath}


def _both_routes(wg, pool, seed=20260819, **kw):
    """check_group_axioms and the recomputing reference, with their rng states."""
    rng, rng_ref = random.Random(seed), random.Random(seed)
    got = check_group_axioms(wg, pool, rng=rng, **kw)
    want = oracles.group_axioms(wg, pool, rng=rng_ref, **kw)
    return got, want, rng.getstate() == rng_ref.getstate()


def _pool(wg, ranks):
    return [wg.element(wg.grid_at(rank), sh) for rank in ranks for sh in WINDOW]


# (engine, base order, rows, cols, grid ranks, samples, outcome)
AXIOM_CASES = {
    "correct exhaustive": ("correct", 2, 1, 2, range(3), 2_000, None),
    "correct sampled": ("correct", 3, 2, 2, range(81), 500, None),
    "correct repeated": ("correct", 3, 1, 2, [4, 0, 4], 2_000, None),
    "corrupted exhaustive": ("corrupted", 2, 1, 2, range(4), 2_000, "identity law"),
    "corrupted sampled": ("corrupted", 3, 2, 2, range(81), 500, "identity law"),
    # 36 elements, every triple: passes the identity and inverse laws first
    "cubic exhaustive": ("cubic", 2, 1, 4, range(4), 2_000, "associativity"),
    "cubic sampled": ("cubic", 2, 1, 4, range(16), 1_500, "associativity"),
    "cubic repeated": ("cubic", 2, 1, 4, [3, 1, 3, 0, 1], 2_000, "associativity"),
}


@pytest.mark.parametrize("case", sorted(AXIOM_CASES))
def test_axioms_match_reference(case):
    engine, order, rows, cols, ranks, samples, outcome = AXIOM_CASES[case]
    wg = ENGINES[engine](CyclicGroup(order), rows, cols)
    pool = _pool(wg, ranks)
    got, want, same_draws = _both_routes(wg, pool, samples=samples)
    assert got == want and same_draws
    assert (got is None) if outcome is None else got.startswith(outcome)


@st.composite
def axiom_inputs(draw):
    engine = draw(st.sampled_from(sorted(ENGINES)))
    base = draw(st.sampled_from((CyclicGroup(1), CyclicGroup(2), CyclicGroup(3),
                                 DirectProductGroup((CyclicGroup(2), CyclicGroup(2))))))
    wg = ENGINES[engine](base, draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    elements = st.builds(wg.element,
                         st.integers(0, wg.kernel_size() - 1).map(wg.grid_at),
                         st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    pool = draw(st.lists(elements, max_size=12))
    if pool:  # repeats, in place and shuffled in
        pool += draw(st.lists(st.sampled_from(pool), max_size=6))
        pool = draw(st.permutations(pool))
    budget = draw(st.sampled_from((300_000, 0, 100)))
    return wg, pool, budget, draw(st.integers(0, 200)), draw(st.integers(0, 2 ** 32))


@settings(max_examples=200, deadline=None)
@given(axiom_inputs())
def test_axioms_match_reference_property(case):
    wg, pool, budget, samples, seed = case
    got, want, same_draws = _both_routes(wg, pool, seed, triple_budget=budget,
                                         samples=samples)
    assert got == want and same_draws


def test_axioms_multiply_each_product_once():
    calls = []

    class Recording(WreathGroup):
        def multiply(self, x, y):
            calls.append((x, y))
            return super().multiply(x, y)

    wg = Recording(CyclicGroup(2), 1, 2)
    pool = small_pool(wg)
    pool += pool[:5]
    assert check_group_axioms(wg, pool) is None
    triple_calls = calls[4 * len(pool):]  # four per element for identity and inverse
    assert len(set(triple_calls)) == len(triple_calls)
    assert len(triple_calls) < len(pool) ** 3


def test_multiply_reaches_base_op_once_per_pair():
    # the verify pool shape: 81 seeded grid ranks x 9 shifts, sampled triples
    ops, products, reference = [], [], []

    class RecordingProduct(DirectProductGroup):
        def op(self, a, b):
            ops.append((a, b))
            return super().op(a, b)

    def recording(calls):
        class Recording(WreathGroup):
            def multiply(self, x, y):
                calls.append((x, y))
                return super().multiply(x, y)
        return Recording

    base = RecordingProduct((CyclicGroup(3), CyclicGroup(4)))
    wg = recording(products)(base, 1, 2)
    rng = random.Random(20260819)
    pool = _pool(wg, distinct_ranks(rng, wg.kernel_size(), 81))
    assert len(pool) == 729
    state = rng.getstate()
    assert check_group_axioms(wg, pool, rng=rng, samples=1500) is None
    # the memo holds all 12 x 12 pairs, so each reaches base.op at most once
    assert len(set(ops)) == len(ops) <= base.order ** 2
    # the recomputing reference, replayed on the same draws, names the distinct products
    rng.setstate(state)
    plain = DirectProductGroup(base.factors)
    assert oracles.group_axioms(recording(reference)(plain, 1, 2), pool,
                                rng=rng, samples=1500) is None
    laws = 4 * len(pool)  # e*x, x*e, x*x^-1, x^-1*x, each computed
    assert len(products) == laws + len(set(reference[laws:]))


@st.composite
def product_pools(draw):
    orders = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    base = DirectProductGroup(tuple(CyclicGroup(k) for k in orders))
    wg = WreathGroup(base, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    elements = st.builds(wg.element,
                         st.integers(0, wg.kernel_size() - 1).map(wg.grid_at),
                         st.tuples(st.integers(-7, 7), st.integers(-7, 7)))
    return wg, orders, draw(st.lists(elements, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(product_pools())
def test_multiply_matches_cell_reference(case):
    wg, orders, pool = case
    op = lambda a, b: tuple((p + q) % k for p, q, k in zip(a, b, orders))
    for x, y in itertools.product(pool, repeat=2):
        xy = wg.multiply(x, y)
        assert xy.grid == oracles.wreath_cells(op, x.grid, x.shift, y.grid)
        assert xy.shift == (x.shift[0] + y.shift[0], x.shift[1] + y.shift[1])


@pytest.mark.parametrize("base,rows,cols", [
    (CyclicGroup(3), 1, 2), (CyclicGroup(2), 2, 2), (CyclicGroup(1), 2, 3),
    (CyclicGroup(4), 1, 1), (DirectProductGroup((CyclicGroup(2), CyclicGroup(3))), 1, 2),
    (DirectProductGroup((CyclicGroup(2), CyclicGroup(2))), 2, 1),
])
def test_grid_at_decodes_grids_order(base, rows, cols):
    wg = WreathGroup(base, rows, cols)
    assert [wg.grid_at(i) for i in range(wg.kernel_size())] == list(wg.grids())
    assert [wg.rank_of(grid) for grid in wg.grids()] == list(range(wg.kernel_size()))


@pytest.mark.parametrize("base,value", [
    (CyclicGroup(3), 3), (CyclicGroup(3), -1),
    (DirectProductGroup((CyclicGroup(2), CyclicGroup(3))), (1, 3)),
    (DirectProductGroup((CyclicGroup(2), CyclicGroup(3))), (1,)),
], ids=["past-k", "negative", "slot-past-k", "short-tuple"])
def test_rank_of_refuses_values_off_the_base(base, value):
    # a value outside the base has no rank, so it cannot pass for another grid's
    with pytest.raises(ValueError):
        base.rank_of(value)
    with pytest.raises(ValueError):
        WreathGroup(base, 1, 2).rank_of(((base.identity, value),))


def test_grid_at_does_not_list_the_base(monkeypatch):
    # a 10^9-element atom: listing the base per call would exhaust memory
    base = DirectProductGroup((CyclicGroup(10 ** 9), CyclicGroup(2)))
    for cls in (CyclicGroup, DirectProductGroup):
        monkeypatch.setattr(cls, "elements", None)
    wg = WreathGroup(base, 1, 2)
    last = wg.kernel_size() - 1
    assert wg.grid_at(0) == (((0, 0), (0, 0)),)
    assert wg.grid_at(last) == (((10 ** 9 - 1, 1), (10 ** 9 - 1, 1)),)
    assert wg.grid_at(2 * 10 ** 9 + 3) == (((0, 1), (1, 1)),)
    assert [wg.rank_of(wg.grid_at(k)) for k in (0, last, 2 * 10 ** 9 + 3)] == \
        [0, last, 2 * 10 ** 9 + 3]


def test_distinct_ranks():
    rng = random.Random(7)
    assert distinct_ranks(rng, 5, 81) == [0, 1, 2, 3, 4]
    assert distinct_ranks(rng, 81, 81) == list(range(81))
    assert rng.getstate() == random.Random(7).getstate()  # no draws spent
    for size in (82, 10 ** 24):  # the second is past sys.maxsize
        ranks = distinct_ranks(rng, size, 81)
        assert len(set(ranks)) == 81 and all(0 <= r < size for r in ranks)
    assert distinct_ranks(random.Random(3), 10 ** 6, 50) == \
        distinct_ranks(random.Random(3), 10 ** 6, 50)


def test_sampled_exact_sequence_catches_corrupted_shift():
    # 12^4 = 20736 grids, over KERNEL_ENUM_LIMIT: 400 distinct ranks and 400 pairs drawn
    wg = oracles.CorruptedWreath(DirectProductGroup((CyclicGroup(3), CyclicGroup(4))), 2, 2)
    assert check_exact_sequence(wg, rng=random.Random(20260819)) == \
        "sigma is not a homomorphism under the installed shift action"
    good = WreathGroup(wg.base, 2, 2)
    assert check_exact_sequence(good, rng=random.Random(20260819)) is None


@pytest.mark.parametrize("base,rows,cols,pair,seed", [
    (CyclicGroup(3), 1, 2, (1, 1), None),  # 9 grids, every pair
    (DirectProductGroup((CyclicGroup(3), CyclicGroup(4))), 2, 2,  # 400 drawn pairs
     ((1, 1), (1, 1)), 20260819),
])
def test_one_wrong_cell_product_breaks_homomorphism(base, rows, cols, pair, seed):
    # the reference side, pointwise_product, goes through neither multiply
    # nor the engine's memos: it memoises base.op per call
    class OneWrongProduct(WreathGroup):
        def multiply(self, x, y):
            xy = super().multiply(x, y)
            if (x.grid[0][0], y.grid[0][0]) != pair:
                return xy
            first = (base.inv(xy.grid[0][0]),) + xy.grid[0][1:]
            return WreathElement((first,) + xy.grid[1:], xy.shift)

    class WrongMemo(WreathGroup):
        """Engine whose memos are built over an op with one wrong product."""

        def __init__(self, *shape):
            wrong = copy.copy(base)
            wrong.op = lambda a, b: base.inv(base.op(a, b)) if (a, b) == pair else base.op(a, b)
            super().__init__(wrong, *shape)
            self.base = base

    rng = lambda: None if seed is None else random.Random(seed)
    assert base.op(*pair) != base.inv(base.op(*pair))
    assert WrongMemo(rows, cols)._op(*pair) != base.op(*pair)
    assert check_exact_sequence(WreathGroup(base, rows, cols), rng=rng()) is None
    for engine in (OneWrongProduct(base, rows, cols), WrongMemo(rows, cols)):
        assert check_exact_sequence(engine, rng=rng()) == \
            "sigma is not a homomorphism under the installed shift action"


def test_exactness_reference_memo_stays_bounded():
    # a 1 x 1 grid over Z14 x Z14: every one of the 196^2 = 38,416 enumerated
    # pairs is a new cell pair. Without a reference memo the peak is 1.5 MiB
    # and with one of 4,096 entries 2.5 MiB; an unbounded one peaks at 6.5 MiB
    wg = WreathGroup(DirectProductGroup((CyclicGroup(14), CyclicGroup(14))), 1, 1)
    tracemalloc.start()
    try:
        assert check_exact_sequence(wg) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_exact_sequence_good_and_bad():
    assert check_exact_sequence(WreathGroup(CyclicGroup(3), 1, 2)) is None
    msg = check_exact_sequence(oracles.CorruptedWreath(CyclicGroup(3), 1, 2))
    assert msg is not None


class RightProjection(CyclicGroup):
    """op(a, b) = b: the identity is a left identity only."""

    def op(self, a, b):
        return b


class SelfInverse(CyclicGroup):
    """inv(a) = a, which inverts only 0 in Z3."""

    def inv(self, a):
        return a


@pytest.mark.parametrize("base,message", [
    (RightProjection(2), "identity law x*e = x fails at x = (0, 1; (-1,-1))"),
    (SelfInverse(3), "inverse law fails at x = (0, 1; (-1,-1))")],
    ids=["right-identity", "inverse"])
def test_axioms_name_the_failing_law(base, message):
    wg = WreathGroup(base, 1, 2)
    assert check_group_axioms(wg, small_pool(wg)) == message


class ShiftedSigma(WreathGroup):
    def sigma(self, grid):
        return WreathElement(grid, (1, 0))


class ConstantSigma(WreathGroup):
    def sigma(self, grid):
        return self.identity()


class OverCountedKernel(WreathGroup):
    def kernel_size(self):
        return super().kernel_size() + 1


class ParityProj(WreathGroup):
    """Reads the first shift mod 2: zero on sigma's images, not additive."""

    def proj(self, x):
        return x.shift[0] % 2, x.shift[1]


@pytest.mark.parametrize("engine,message", [
    (ShiftedSigma, "sigma image escapes ker(proj)"),
    (ConstantSigma, "sigma is not injective"),
    (OverCountedKernel, "kernel count 9 differs from |base|^(rows*cols) = 10"),
    (ParityProj, "proj is not additive on shifts")],
    ids=["escapes", "not-injective", "kernel-count", "proj"])
def test_exact_sequence_names_the_failing_identity(engine, message):
    assert check_exact_sequence(engine(CyclicGroup(3), 1, 2)) == message


def test_kernel_size():
    assert WreathGroup(CyclicGroup(3), 1, 2).kernel_size() == 9
    base = DirectProductGroup((CyclicGroup(2), CyclicGroup(3)))
    assert WreathGroup(base, 2, 2).kernel_size() == 6 ** 4


def test_direct_product_base():
    base = DirectProductGroup((CyclicGroup(2), CyclicGroup(3)))
    assert base.order == 6
    assert base.identity == (0, 0)
    assert base.op((1, 2), (1, 2)) == (0, 1)
    assert base.inv((1, 2)) == (1, 1)
    assert len(list(base.elements())) == 6
    assert base.describe() == "Z2 x Z3"


@pytest.mark.parametrize("make,message", [
    (lambda: CyclicGroup(0), "cyclic group order must be a positive integer, got 0"),
    (lambda: DirectProductGroup(()), "direct product needs at least one factor"),
    (lambda: check_exact_sequence(WreathGroup(CyclicGroup(101), 1, 2)),
     "kernel too large to enumerate; pass rng"),
], ids=["cyclic-order-0", "empty-product", "large-kernel-without-rng"])
def test_bad_arguments_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_parse_atoms():
    atoms = parse_atoms("Z2, Z3, 1")
    assert [a.describe() for a in atoms] == ["Z2", "Z3", "1"]
    assert [a.order for a in atoms] == [2, 3, 1]
    for bad in ("Q8", "Z0", "Zx", ""):
        with pytest.raises(InputRejected) as exc:
            parse_atoms(bad)
        assert exc.value.code == "bad-request"


def test_pointwise_product():
    base = CyclicGroup(4)
    g1 = ((1, 2), (3, 0))
    g2 = ((3, 3), (1, 1))
    assert pointwise_product(base.op, g1, g2) == ((0, 1), (0, 1))


def test_tau_reindex_frozen():
    plus_one = lambda a: (a + 1) % 3
    ident = lambda a: a
    family = {(1, 0, 0): 1, (2, 0, 0): 2, (1, 0, 1): 0, (2, 0, 1): 1}
    transports = {(1, 0, 0): ident, (2, 0, 0): plus_one,
                  (1, 0, 1): ident, (2, 0, 1): plus_one}
    grid = oracles.tau_reindex(1, 2, 2, family, transports)
    assert grid == (((1, 0), (0, 2)),)


def test_tau_reindex_missing_entry():
    ident = lambda a: a
    family = {(1, 0, 0): 1}
    with pytest.raises(ValueError):
        oracles.tau_reindex(1, 2, 1, family, {(1, 0, 0): ident, (1, 0, 1): ident})
    with pytest.raises(ValueError):
        oracles.tau_reindex(1, 1, 1, {(1, 0, 0): 0}, {})


def test_element_is_an_immutable_value():
    wg = WreathGroup(CyclicGroup(3), 1, 2)
    x = wg.element([[0, 2]], (-1, 2))
    y = WreathElement(((0, 2),), (-1, 2))
    assert (x.grid, x.shift) == (((0, 2),), (-1, 2))
    assert x == y and hash(x) == hash(y) and x is not y
    assert x != WreathElement(((0, 2),), (-1, 3)) and x != WreathElement(((2, 0),), (-1, 2))
    assert len({x, y, wg.multiply(wg.identity(), x)}) == 1
    for name in ("grid", "shift", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    assert wg.render(x) == "(0, 2; (-1,2))"
    assert type(wg.multiply(x, y)) is type(wg.inverse(x)) is WreathElement


@pytest.mark.parametrize("base,ranks", [
    (CyclicGroup(4), range(4)),  # 36 elements, every triple
    (DirectProductGroup((CyclicGroup(3), CyclicGroup(4))),  # the verify pool shape, sampled
     distinct_ranks(random.Random(5), 12 ** 2, 81)),
], ids=["exhaustive", "sampled"])
def test_axioms_hold_nothing_after_return(base, ranks):
    # with the collector off, whatever a reference cycle keeps alive stays traced.
    # Traced from before a first call, so the second finds the engine memos and the
    # free lists as it leaves them: 32 and 144 bytes held. A product table whose
    # class is made per call and closes over the interned elements held 189 and 588 KB
    wg = WreathGroup(base, 1, 2)
    pool = _pool(wg, ranks)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert check_group_axioms(wg, pool, rng=random.Random(6), samples=1500) is None
        before = tracemalloc.get_traced_memory()[0]
        assert check_group_axioms(wg, pool, rng=random.Random(6), samples=1500) is None
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held <= 16 * 2 ** 10

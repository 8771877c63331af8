"""The symmetry stage's flag-orbit closure against the every-flag search.

``krtorus.symmetry._automorphisms`` attempts only the flags (t, r) of
2-cell 0 that the automorphisms found so far do not reach, and fills the
rest in by composition. ``oracles.all_flag_automorphisms`` seeds every
flag. Both must give the same automorphisms, element by element, before
the freeness and H1 filters.
"""
from __future__ import annotations

import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krtorus.symmetry
from krtorus.errors import InternalInvariantError
from krtorus.fields import preset_field, pullback_cosine_field
from krtorus.homology import IntMatrix, h1_action
from krtorus.partition import build_partition
from krtorus.pipeline import analyze
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.surface import SurfaceField
from krtorus.symmetry import CellAutomorphism, enumerate_symmetries, group_structure

import oracles
from conftest import TREE_PRESETS
from test_covering import BASE, _matrices

# the pullback-groups fields of the benchmark, at its grids
PULLBACKS = {"diag(2,2)@32": (((2, 0), (0, 2)), 32),
             "diag(3,3)@48": (((3, 0), (0, 3)), 48),
             "((2,1),(-1,2))@40": (((2, 1), (-1, 2)), 40),
             "diag(4,4)@32": (((4, 0), (0, 4)), 32)}


def _partition(s):
    g = compute_reeb(s)
    return build_partition(s, g, find_special_vertex(g))


@lru_cache(maxsize=None)
def _pullback(name):
    mat, grid = PULLBACKS[name]
    s = pullback_cosine_field(grid, mat)
    return s, _partition(s)


def _assert_closure_matches_every_flag(s, p):
    want = oracles.all_flag_automorphisms(s, p)
    got = krtorus.symmetry._automorphisms(s, p)
    assert len(got) == len(want)
    assert {a.key: a for a in got} == want
    # the seed's filter, on the every-flag set
    ident = IntMatrix.identity(2)
    kept = tuple(a for a in sorted(want.values(), key=lambda a: a.key)
                 if (a.is_identity() or not a.fixes_some_cell())
                 and h1_action(p, a) == ident)
    assert enumerate_symmetries(s, p) == kept


@pytest.mark.parametrize("name", TREE_PRESETS)
def test_closure_matches_every_flag_on_presets(stage, name):
    st_ = stage(name)
    _assert_closure_matches_every_flag(st_.surface, st_.part)


@pytest.mark.parametrize("name", PULLBACKS)
def test_closure_matches_every_flag_on_pullbacks(name):
    _assert_closure_matches_every_flag(*_pullback(name))


@pytest.mark.parametrize("mat", _matrices(), ids=str)
def test_closure_matches_every_flag_on_coverings(mat):
    s = SurfaceField(*oracles.covering_field(BASE, mat))
    _assert_closure_matches_every_flag(s, _partition(s))


def _count_calls(monkeypatch, name, counts, successes_only=False):
    fn = getattr(krtorus.symmetry, name)

    def counted(*args):
        out = fn(*args)
        if not successes_only or out is not None:
            counts[name] += 1
        return out

    monkeypatch.setattr(krtorus.symmetry, name, counted)


@pytest.mark.parametrize("name", PULLBACKS)
def test_work_is_one_compose_per_automorphism(monkeypatch, name):
    s, p = _pullback(name)
    order = len(krtorus.symmetry._automorphisms(s, p))
    counts = {"_attempt": 0, "_finalize": 0, "compose": 0}
    _count_calls(monkeypatch, "_attempt", counts)
    _count_calls(monkeypatch, "_finalize", counts, successes_only=True)
    _count_calls(monkeypatch, "compose", counts)
    enumerate_symmetries(s, p)
    # every success adds a generator outside the reached subgroup, which
    # at least doubles it (Lagrange)
    assert counts["_finalize"] <= math.log2(order)
    assert counts["_attempt"] < order
    assert counts["compose"] == order - 1


def _corrupt_first_generator(monkeypatch, cell, shift):
    """Make the first automorphism _finalize returns send `cell` `shift` cells off."""
    finalize = krtorus.symmetry._finalize
    done = []

    def corrupted(p, *args):
        a = finalize(p, *args)
        if a is None or done:
            return a
        done.append(a)
        perm2 = list(a.perm2)
        perm2[cell] = (perm2[cell] + shift) % len(perm2)
        return CellAutomorphism(a.perm0, a.perm1, tuple(perm2))

    monkeypatch.setattr(krtorus.symmetry, "_finalize", corrupted)


@pytest.mark.parametrize("name", ["z2-sym", "z2xz2-sym", "diag(2,2)@32", "diag(4,4)@32"])
def test_generator_with_a_wrong_image_of_cell_0_is_caught(stage, monkeypatch, name):
    if name in PULLBACKS:
        s, p = _pullback(name)
    else:
        s, p = stage(name).surface, stage(name).part
    _corrupt_first_generator(monkeypatch, 0, 1)
    # the generator is filed through compose with the identity under the
    # flag its rotations name, and its image of 2-cell 0 disagrees
    with pytest.raises(InternalInvariantError, match="carries another"):
        enumerate_symmetries(s, p)


def test_any_wrong_image_in_the_orbit_of_cell_0_raises(stage, monkeypatch):
    st_ = stage("z2xz2-sym")
    s, p = st_.surface, st_.part
    orbit = sorted({a.perm2[0] for a in krtorus.symmetry._automorphisms(s, p)})
    assert len(orbit) > 1
    for cell in orbit:
        for shift in range(1, len(p.two_cells)):
            with monkeypatch.context() as m:
                _corrupt_first_generator(m, cell, shift)
                with pytest.raises(InternalInvariantError):
                    group_structure(enumerate_symmetries(s, p))


INVARIANCE_FIELDS = (*TREE_PRESETS, "diag(2,2)@32", "diag(4,4)@32")


def _summary(s):
    report = analyze(s)
    sym = report.symmetry
    cells = tuple(report.special[k] for k in ("zero_cells", "one_cells", "two_cells"))
    return (sym["n"], sym["m"], sym["r"]), sym["order"], cells, report.group["expr"]


@lru_cache(maxsize=None)
def _field_and_summary(name):
    s = _pullback(name)[0] if name in PULLBACKS else preset_field(name, 16)
    return s, _summary(s)


@pytest.mark.parametrize("name", INVARIANCE_FIELDS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_summary_invariant_under_triangle_rotation_and_order(name, seed):
    # renumbering the triangles renumbers the cells, so the closure walks
    # the flags in another order and meets other generators
    s, want = _field_and_summary(name)
    rng = random.Random(seed)
    tris = [tri[k:] + tri[:k] for tri in s.triangles for k in [rng.randrange(3)]]
    rng.shuffle(tris)
    assert _summary(SurfaceField(tris, s.values, s.coords)) == want

"""The symmetry stage's flag-orbit closure against the every-flag search.

``krtorus.symmetry._automorphisms`` attempts only the flags (t, r) of
2-cell 0 that the automorphisms found so far do not reach, and fills the
rest in by composing generators, keeping each automorphism as its 2-cell
permutation and H1 matrix. ``oracles.all_flag_automorphisms`` seeds every
flag and builds each automorphism whole. Both must file the same flags
with the same 2-cell permutations, and the closure's matrices must be
the H1 action of the whole automorphisms.
"""
from __future__ import annotations

import dataclasses
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krtorus.symmetry
from krtorus.errors import InternalInvariantError
from krtorus.fields import preset_field, pullback_cosine_field
from krtorus.homology import h1_action
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


def _assert_closure_matches_every_flag(p):
    want = oracles.all_flag_automorphisms(p)
    got = krtorus.symmetry._automorphisms(p)
    assert {flag: perm for flag, (perm, _) in got.items()} == {
        flag: a.perm2 for flag, a in want.items()}
    for flag, (_, mat) in got.items():
        assert mat == h1_action(p, want[flag]).entries, flag
    # the definition's filter, free and H1-trivial, on the every-flag set
    ident = oracles.identity(2)
    kept = sorted(a.perm2 for a in want.values()
                  if (oracles.is_identity(a) or not oracles.fixes_some_cell(a))
                  and h1_action(p, a) == ident)
    assert enumerate_symmetries(p) == tuple(kept)


@pytest.mark.parametrize("name", TREE_PRESETS)
def test_closure_matches_every_flag_on_presets(stage, name):
    _assert_closure_matches_every_flag(stage(name).part)


@pytest.mark.parametrize("name", PULLBACKS)
def test_closure_matches_every_flag_on_pullbacks(name):
    _assert_closure_matches_every_flag(_pullback(name)[1])


@pytest.mark.parametrize("mat", _matrices(), ids=str)
def test_closure_matches_every_flag_on_coverings(mat):
    s = SurfaceField(*oracles.covering_field(BASE, mat))
    _assert_closure_matches_every_flag(_partition(s))


FIELDS = ([("preset", name) for name in TREE_PRESETS] + [("pullback", name) for name in PULLBACKS]
          + [("covering", mat) for mat in _matrices()])


@pytest.mark.parametrize("kind,key", FIELDS, ids=[str(key) for _, key in FIELDS])
def test_h1_trivial_exactly_when_free(stage, kind, key):
    # the module docstring's Hopf trace argument: an automorphism other
    # than the identity acts as the identity on H1 exactly when it moves
    # every cell, so the symmetry stage never tests freeness
    if kind == "preset":
        s, p = stage(key).surface, stage(key).part
    elif kind == "pullback":
        s, p = _pullback(key)
    else:
        s = SurfaceField(*oracles.covering_field(BASE, key))
        p = _partition(s)
    ident = oracles.identity(2)
    for a in oracles.all_flag_automorphisms(p).values():
        if not oracles.is_identity(a):
            assert (h1_action(p, a) == ident) == (not oracles.fixes_some_cell(a)), a.perm2


@pytest.mark.parametrize("name", PULLBACKS)
def test_work_is_one_compose_per_automorphism(monkeypatch, name):
    s, p = _pullback(name)
    order = len(krtorus.symmetry._automorphisms(p))
    calls = {"attempts": 0, "successes": 0, "h1_action": 0}
    attempt, h1 = krtorus.symmetry._attempt, krtorus.symmetry.h1_action

    def counted_attempt(*args):
        out = attempt(*args)
        calls["attempts"] += 1
        calls["successes"] += out is not None
        return out

    def counted_h1(*args):
        calls["h1_action"] += 1
        return h1(*args)

    monkeypatch.setattr(krtorus.symmetry, "_attempt", counted_attempt)
    monkeypatch.setattr(krtorus.symmetry, "h1_action", counted_h1)
    enumerate_symmetries(p)
    # every success adds a generator outside the reached subgroup, which
    # at least doubles it (Lagrange); h1_action runs on generators only,
    # and every other automorphism is one composition of 2-cell
    # permutations and one product of 2 x 2 matrices
    assert calls["h1_action"] == calls["successes"] <= math.log2(order)
    assert calls["attempts"] < order


def _corrupt_first_generator(monkeypatch, cell, shift):
    """Make the first automorphism _attempt returns send `cell` `shift` cells off."""
    attempt = krtorus.symmetry._attempt
    done = []

    def corrupted(*args):
        found = attempt(*args)
        if found is None or done:
            return found
        done.append(found)
        a, rot = found
        perm2 = list(a.perm2)
        perm2[cell] = (perm2[cell] + shift) % len(perm2)
        return CellAutomorphism(a.perm0, a.perm1, tuple(perm2)), rot

    monkeypatch.setattr(krtorus.symmetry, "_attempt", corrupted)


@pytest.mark.parametrize("name", ["z2-sym", "z2xz2-sym", "diag(2,2)@32", "diag(4,4)@32"])
def test_generator_with_a_wrong_image_of_cell_0_is_caught(stage, monkeypatch, name):
    if name in PULLBACKS:
        s, p = _pullback(name)
    else:
        s, p = stage(name).surface, stage(name).part
    _corrupt_first_generator(monkeypatch, 0, 1)
    # the generator's own chain-map check: 2-cell 0's walk does not map
    # onto the walk of the 2-cell its perm2 names
    with pytest.raises(InternalInvariantError, match="does not commute with boundary_2"):
        enumerate_symmetries(p)


def test_generator_with_a_wrong_walk_rotation_is_caught(stage, monkeypatch):
    # the walk rotations name the flag each automorphism is filed under;
    # the image of 2-cell 0's first arc, read through perm1, names another
    attempt = krtorus.symmetry._attempt

    def turned(p, *args):
        found = attempt(p, *args)
        if found is None:
            return None
        a, rot = found
        return a, [(rd + 1) % len(cell.boundary) for cell, rd in zip(p.two_cells, rot)]

    monkeypatch.setattr(krtorus.symmetry, "_attempt", turned)
    with pytest.raises(InternalInvariantError, match="carries another"):
        enumerate_symmetries(stage("z2xz2-sym").part)


def test_any_wrong_image_in_the_orbit_of_cell_0_raises(stage, monkeypatch):
    p = stage("z2xz2-sym").part
    orbit = sorted({t for t, _ in krtorus.symmetry._automorphisms(p)})
    assert len(orbit) > 1
    for cell in orbit:
        for shift in range(1, len(p.two_cells)):
            with monkeypatch.context() as m:
                _corrupt_first_generator(m, cell, shift)
                with pytest.raises(InternalInvariantError):
                    group_structure(enumerate_symmetries(p))


@pytest.mark.parametrize("name, order", [("z2xz2-sym", 4), ("diag(4,4)@32", 16)])
def test_a_zero_cell_with_a_label_of_its_own_stays_put(stage, name, order):
    # forged labels: 0-cell 0 alone is "marked", so _attempt's label test must
    # reject every automorphism that moves it; the symmetries move every cell,
    # so the identity is the one left
    p = _pullback(name)[1] if name in PULLBACKS else stage(name).part
    assert len(enumerate_symmetries(p)) == order
    forged = dataclasses.replace(p, zero_labels=("marked", *p.zero_labels[1:]))
    assert len(enumerate_symmetries(forged)) == 1
    kept = oracles.all_flag_automorphisms(forged)
    assert kept and all(a.perm0[0] == 0 for a in kept.values())
    assert len(kept) < len(oracles.all_flag_automorphisms(p))


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

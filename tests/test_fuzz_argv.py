"""Drawn command lines: every outcome is a result or a clean rejection.

Beside ``test_fuzz_input.py``, which mutates input files, this draws the
arguments themselves: ``gen --grid`` (sizes up to 64, sizes past the
bound, and text), ``snf --matrix`` (integer matrices up to 4 x 4, and
text) and ``verify --atoms`` on ``z2-sym`` at grid 16 (atom lists of any
length, with good and bad tokens). The only allowed outcomes are exit 0,
or exit 1 with one error line on stderr: JSON under ``--format json``,
``error[code]: message`` otherwise. A grid the strategies can draw and
the tool accepts is at most 64, so every case is small. The draws are
derandomized: every run tries the same command lines.
"""
from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.cli import main
from krtorus.fields import MAX_PRESET_GRID, PRESET_NAMES, preset_field
from krtorus.surface import dump_surface

FORMATS = st.sampled_from(([], ["--format", "json"], ["--format", "text"]))


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_outcome(argv) -> int:
    code, out, err = _run(argv)
    assert code in (0, 1), (argv, err)
    if code == 0:
        assert out and not err, argv
    else:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        if err.startswith("{"):
            assert isinstance(json.loads(err)["error"]["code"], str)
        else:
            assert re.fullmatch(r"error\[[a-z-]+\]: .+\n", err), (argv, err)
    return code


def _not_a_large_accepted_grid(text: str) -> bool:
    try:
        n = int(text)  # as argparse reads --grid: it takes ' 32', '3_2' and '３２'
    except ValueError:
        return True
    return not 64 < n <= MAX_PRESET_GRID


GRIDS = st.one_of(st.integers(-16, 64).map(str), st.sampled_from(range(8, 65, 4)).map(str),
                  st.integers(MAX_PRESET_GRID + 1, 10**40).map(str),
                  st.text(max_size=10).filter(_not_a_large_accepted_grid))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(preset=st.sampled_from(PRESET_NAMES), grid=GRIDS)
def test_gen_grid_exits_cleanly(preset, grid):
    if _check_outcome(["gen", "--preset", preset, "--grid", grid]) == 0:
        assert 8 <= int(grid) <= 64


MATRICES = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-10**6, 10**6), min_size=cols, max_size=cols), min_size=1, max_size=4))
MATRIX_TEXT = st.one_of(
    MATRICES.map(lambda rows: ";".join(",".join(map(str, row)) for row in rows)),
    st.text(alphabet="0123456789-+_,; x", max_size=16),
    st.text(max_size=10))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrix=MATRIX_TEXT, fmt=FORMATS)
def test_snf_matrix_exits_cleanly(matrix, fmt):
    _check_outcome(["snf", "--matrix", matrix, *fmt])


@pytest.fixture(scope="module")
def z2_sym_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "z2-sym.tf"
    path.write_text(dump_surface(preset_field("z2-sym", 16)))
    return str(path)


# z2-sym has two disk orbits, so a kernel holds |A_1 x A_2|^2 grids:
# enumerated up to 10^4, past it only sized
GOOD_ATOMS = ("1", "Z1", "Z2", "z3", "Z4", " Z2 ", "Z10", "Z97", "Z101", "Z10001", "Z" + "9" * 40)
BAD_ATOMS = ("Z0", "Z-2", "Z", "2", "Z²", "")
ATOMS = st.one_of(
    st.lists(st.sampled_from(GOOD_ATOMS), min_size=2, max_size=2).map(",".join),
    st.lists(st.one_of(st.sampled_from(GOOD_ATOMS + BAD_ATOMS), st.text(max_size=5)),
             max_size=4).map(",".join),
    st.text(max_size=10))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(atoms=ATOMS, fmt=FORMATS)
def test_verify_atoms_exits_cleanly(z2_sym_file, atoms, fmt):
    _check_outcome(["verify", z2_sym_file, "--atoms", atoms, *fmt])

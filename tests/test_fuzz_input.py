"""Mutated input files: every outcome is a report or a clean rejection.

A `two-cell` file at grid 8 is mutated line by line (lines dropped,
duplicated or swapped; tokens replaced by garbage, a negative index,
`nan` or a huge index) and fed to `validate` and `analyze` through the
command line entry point. The only allowed outcomes are exit 0, or
exit 1 with a JSON error on stderr; never exit 2, never a traceback.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from krtorus.cli import main
from krtorus.fields import preset_field
from krtorus.surface import dump_surface

BASE_LINES = tuple(dump_surface(preset_field("two-cell", 8)).splitlines())
BAD_TOKENS = ("x", "-1", "nan", "100000000000000000000")


@st.composite
def mutated_files(draw) -> str:
    lines = list(BASE_LINES)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("drop", "duplicate", "swap", "token")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split()
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(text=mutated_files())
def test_mutated_file_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "field.tf"
    path.write_text(text)
    for argv in (["validate", str(path), "--format", "json"], ["analyze", str(path)]):
        code, out, err = _run(argv)
        assert code in (0, 1), (argv[0], err)
        if code == 0:
            json.loads(out)
        else:
            assert isinstance(json.loads(err)["error"]["code"], str)


def test_unmutated_file_is_accepted(tmp_path):
    path = tmp_path / "field.tf"
    path.write_text("\n".join(BASE_LINES) + "\n")
    assert _run(["validate", str(path), "--format", "json"])[0] == 0
    assert _run(["analyze", str(path)])[0] == 0

"""Work growth of compute_reeb, counted without a stopwatch.

The count is the number of ``sys.settrace`` "line" events in the
package's own files during one call on a fresh surface, so it does not
depend on the machine or its load. Each size step quadruples the mesh:
a linear stage grows about x4 and a quadratic one x8 or more. Only the
ratios between consecutive sizes are asserted, since line events differ
between Python versions.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

import krtorus
from krtorus.fields import PRESET_NAMES, preset_field, random_field
from krtorus.reeb import compute_reeb

PACKAGE = str(Path(krtorus.__file__).resolve().parent)


def line_events(fn, *args) -> int:
    """Lines of the package executed by fn(*args)."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def growth(make, sizes=(16, 32, 64)) -> list[float]:
    counts = [line_events(compute_reeb, make(n)) for n in sizes]
    return [b / a for a, b in zip(counts, counts[1:])]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_reeb_grows_linearly_on_presets(name):
    # about x3.3-3.9 per step
    assert max(growth(lambda n: preset_field(name, n))) <= 5


def test_reeb_grows_near_linearly_on_random_fields():
    # the sweep meets x4.2-4.3 here (n log n: the split walks); the bound
    # is x5. Walking every critical contour whole grew x7.9 and x6.6
    assert max(growth(lambda n: random_field(n, 1))) <= 5

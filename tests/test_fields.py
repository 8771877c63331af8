"""Model field generators on the grid torus."""
from __future__ import annotations

import pytest

from krtorus.errors import InputRejected
from krtorus.fields import (cosine_table, grid_field, grid_vertex,
                            preset_field, pullback_cosine_field, random_field)
from krtorus.surface import validate_closed_orientable

import oracles


def test_cosine_table_symmetries():
    t = cosine_table(16)
    assert t[0] == 1.0 and t[8] == -1.0
    assert t[4] == 0.0 and t[12] == 0.0  # snapped zeros
    for k in range(16):
        assert t[(16 - k) % 16] == t[k]
        assert t[(k + 8) % 16] == -t[k]
    assert abs(t[1] - 0.9238795325112867) < 1e-15


def test_cosine_table_size_checked():
    with pytest.raises(InputRejected):
        cosine_table(10)


def test_grid_vertex_wraps():
    assert grid_vertex(8, 0, 0) == 0
    assert grid_vertex(8, 8, 8) == 0
    assert grid_vertex(8, -1, 0) == 7
    assert grid_vertex(8, 3, 2) == 19


def test_grid_field_is_closed_torus():
    s = grid_field(5, lambda i, j: i * 10 + j)
    assert validate_closed_orientable(s) == {"chi": 0, "genus": 1}
    assert s.vertex_count == 25 and s.triangle_count == 50
    assert oracles.euler_characteristic(s.triangles) == 0


@pytest.mark.parametrize("n", [2, 0, -3])
def test_grid_field_refuses_a_grid_below_3(n):
    with pytest.raises(InputRejected) as exc:
        grid_field(n, lambda i, j: 0)
    assert exc.value.code == "bad-request"
    assert str(exc.value) == f"grid size {n} is too small"


def test_preset_values_exact():
    s = preset_field("two-cell", 8)
    t = cosine_table(8)
    assert s.values[grid_vertex(8, 0, 0)] == 2.0
    assert s.values[grid_vertex(8, 4, 4)] == -2.0
    assert s.values[grid_vertex(8, 2, 0)] == 1.0  # exact zero + one
    assert s.values[grid_vertex(8, 3, 1)] == t[3] + t[1]


def test_preset_grid_constraints():
    for bad in (4, 7, 10):
        with pytest.raises(InputRejected):
            preset_field("two-cell", bad)
    with pytest.raises(InputRejected):
        preset_field("no-such-model")


def test_pullback_identity_matches_two_cell():
    a = preset_field("two-cell", 12)
    b = pullback_cosine_field(12, ((1, 0), (0, 1)))
    assert a.values == b.values
    assert a.triangles == b.triangles


def test_pullback_rejects_singular():
    with pytest.raises(InputRejected):
        pullback_cosine_field(8, ((1, 2), (2, 4)))


def test_random_field_deterministic():
    a = random_field(8, 7)
    b = random_field(8, 7)
    c = random_field(8, 8)
    assert a.values == b.values
    assert a.values != c.values
    assert all(-1.0 <= x <= 1.0 for x in a.values)

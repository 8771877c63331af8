"""Byte-level snapshot of the analysis report on presets and pullbacks.

The digests were frozen from the canonical JSON the pipeline produced
before the exact-algebra core was reworked; any change to a report byte
on these inputs fails here. The grid-64 preset digests equal the
`bench/pins.json` pins of the same inputs; at that size region
numbering and corner splitting run over thousands of triangles.
"""
from __future__ import annotations

import hashlib

import pytest

from krtorus.fields import preset_field, pullback_cosine_field
from krtorus.pipeline import analyze, canonical_json

PRESET_DIGESTS = {
    "two-cell": "e3a3a094fccdd29a2752ae8c203ce81e4c286fae8ef6cc432af97ba1dea91cbe",
    "z2-sym": "5a9ab73027e502e91676268d9de1545688ec8289f58ea3798635353937b7c242",
    "z2xz2-sym": "10eff6b91206bf552d3353f400cedf4dd816022f477824c04f78ad121b286125",
}

LARGE_PRESET_DIGESTS = {
    "two-cell": "e64e7fbd1cd1a8840a6146afba794e5a3074c511d864218433ed1d3b24004b02",
    "z2-sym": "a4472cdfc2d8eea6853e5bc5c8e2ccee882a3ae04ccd92658c7383737a055f25",
    "z2xz2-sym": "b642bde7baec08b6fb0fe388cfbfbb70b517d16539bb47765d300699c41c5017",
}

# (matrix, grid) -> digest
PULLBACK_DIGESTS = {
    (((2, 0), (0, 2)), 32):
        "f468bce486977df0f4f6dda9236e3288293afc1fd0239bb4dd16e173f374504a",
    (((2, 1), (-1, 2)), 40):
        "e5742683a7e7d0ea00b7d121a7b517d6cd7424f45449d5b43ba6bddc97833872",
    (((3, 0), (0, 3)), 48):
        "b22ecf3a8f96dbb6ff108dfc7d70c8df0d4dac8871563d686701af42f169106a",
}


def _digest(s) -> str:
    return hashlib.sha256(canonical_json(analyze(s)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_report_bytes(name):
    assert _digest(preset_field(name, 16)) == PRESET_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LARGE_PRESET_DIGESTS))
def test_preset_report_bytes_grid_64(name):
    assert _digest(preset_field(name, 64)) == LARGE_PRESET_DIGESTS[name]


@pytest.mark.parametrize("mat,grid", sorted(PULLBACK_DIGESTS))
def test_pullback_report_bytes(mat, grid):
    assert _digest(pullback_cosine_field(grid, mat)) == PULLBACK_DIGESTS[(mat, grid)]

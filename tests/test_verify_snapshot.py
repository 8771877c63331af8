"""Byte-level snapshot of `krtorus verify --format json` on the tree presets.

The digests were frozen from the output of the verify checks once the
index-lattice check read the orbit grid and the kernel-size check the
grid_at/rank_of round trip; any change to a verify byte on these inputs
fails here. The corrupted-shift detail pins which element the negative
control trips on, not just that it fails.
"""
from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

import krtorus.pipeline
from krtorus.cli import main
from krtorus.fields import preset_field
from krtorus.pipeline import analyze, verify_extension
from krtorus.surface import dump_surface
from krtorus.wreath import CyclicGroup

import oracles

# (preset at grid 16, atoms) -> sha256 of the stdout bytes
VERIFY_DIGESTS = {
    ("two-cell", "Z2,Z3"):
        "770b6b2bd2bef7ed1f215fa2cdda1f3c77263c5573fabeea51bfa63b35923f6f",
    ("z2-sym", "Z2,Z3"):
        "833bd2a6bae63f4dbd29b38a4f0568b9fe226b9416a6634a1afae8e648034938",
    ("z2xz2-sym", "Z2,Z3"):
        "166b3e203528f8bdec8ef1e8dad557ceffd7b96f63eef210336a1281c311b9e1",
    ("z2xz2-sym", "Z3,Z4"):
        "d9f180fee4820da8a0fcfda806debc5f24d5eed598c040c7d82c8b549f2159aa",
}


@pytest.mark.parametrize("name,atoms", sorted(VERIFY_DIGESTS))
def test_verify_json_bytes(name, atoms, tmp_path):
    path = tmp_path / f"{name}-16.txt"
    path.write_text(dump_surface(preset_field(name, 16)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", str(path), "--atoms", atoms, "--format", "json"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == \
        VERIFY_DIGESTS[(name, atoms)]


def test_corrupted_shift_detail(surface, monkeypatch):
    rep = analyze(surface("z2-sym"))
    monkeypatch.setattr(krtorus.pipeline, "WreathGroup", oracles.CorruptedWreath)
    rec = verify_extension(rep, (CyclicGroup(2), CyclicGroup(2)))
    assert [(c.name, c.passed, c.detail) for c in rec.checks] == [
        ("wreath-axioms-exactness", False,
         "identity law e*x = x fails at x = ((0, 0), (0, 1); (-1,-1))"),
        ("index-lattice-exactness", True,
         "orbit_table is {1..2} x Z_1 x Z_2, each row once; L, M add (0,1,0), (0,0,1)"),
        ("kernel-size", True,
         "grid_at and rank_of invert each other on 16 of the |Z2 x Z2|^(1*2) = 16 grids"),
    ]

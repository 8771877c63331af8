"""Byte-level snapshot of `krtorus verify --format json` on the tree presets.

The digests were frozen from the output the wreath checks produced before
the axiom check was reworked; any change to a verify byte on these inputs
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
        "8c96a94354372b278f27ff21fef18845fcfe85cfa12a20f8e630fe49d01c82c7",
    ("z2-sym", "Z2,Z3"):
        "d269c6301d033e50c159762b3c19279ee512762a417558c81d80b36d86cb5a33",
    ("z2xz2-sym", "Z2,Z3"):
        "09376e7960a804589032f8da9e496844ff42fac788061c748d7dcf36008acf3c",
    ("z2xz2-sym", "Z3,Z4"):
        "c7d9d8a88ed9e944c5104c9f7a0c68fa14a1b33619b64dc6f8eb82b725bee590",
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
         "q(a,b) = (1a,2b) splices with coordinate reduction exactly"),
        ("kernel-size", True, "kernel holds 16 distinct grids, |Z2 x Z2|^(1*2) = 16"),
    ]

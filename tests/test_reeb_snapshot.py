"""Byte-level snapshot of the contour graph on random and cyclic fields.

The digests up to size 24 were frozen from the all-levels sweep that
built the graph before the construction moved to node components and
the cut surface. Those of sizes 32 and 48, where the node components
near the median level grow large, were taken from the node-component
construction before its components were stored compactly, and those of
size 64 from it before its traversal stopped rebuilding piece tuples.
Two digests per input: the ``krtorus reeb --format json`` bytes, and the
triangle ownership (``node_map`` and ``band_map``) hashed the same way
as the benchmark's ownership pin.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from krtorus.cli import main
from krtorus.fields import preset_field, random_field
from krtorus.reeb import compute_reeb
from krtorus.surface import dump_surface

# label -> (field factory, reeb json sha256, ownership sha256)
CASES = {
    "random_field(16, 1)": (
        lambda: random_field(16, 1),
        "e8902a09ad67a0fad510abfa64f8702ed5cb4e6b3a21f1112989026bac3f4a7c",
        "889362aad462bb963eb4a007d5ae56bae48f022b0d994efd2817e344a66f1bec"),
    "random_field(16, 2)": (
        lambda: random_field(16, 2),
        "b7566433529a3e1370d8bb00eeeb0d7533aa92a2e664b641ec968564ac4cf8a8",
        "a2841f4457881eb51ef1cc3ef6cce61babc0c2b56938aef7e38512108d482237"),
    "random_field(24, 1)": (
        lambda: random_field(24, 1),
        "8bfbeca88c79a6d8cf164fe42c450a0013919eb12f2dc4b58f1aa58521a7391a",
        "ef1c6d1a80e49d97b8879df54bc35c863f63162467858cf12f4916e51bf8ecfe"),
    "random_field(24, 2)": (
        lambda: random_field(24, 2),
        "55fb4a6df5fcdb74da3438f93054a444d4d019645e8b12ae9082c5886b6b5a9d",
        "b262b1711218d30e30861b0dbbca42cb8abcf2bde7d23ed47e462f2fe661f591"),
    "random_field(32, 1)": (
        lambda: random_field(32, 1),
        "2b5b9f01d6e0abb1f8a11cf34a9e17da4a318b2137190296d91ef774e22252fb",
        "f63148c34ae3891eafc6932252113e4a892e644d28012b0f7b88855d6352a5fc"),
    "random_field(48, 1)": (
        lambda: random_field(48, 1),
        "76c2aead8929662fc7a3ea55184d88b52f9f398470cacd6fc4f713b87981a3d9",
        "aed62894ec5817f3c52de8b41a8d6ae964e2881b6b9bc6698b5fc8e9417adea7"),
    "random_field(64, 1)": (
        lambda: random_field(64, 1),
        "34247bb40c80ef505800bcbc3522c5360743dca8b4f7bcbeb46e27cb9c8eec54",
        "4405bc6a6b88c200cdca90e01a4b72dbceb9eaf69f84c94229eeb3be9e8ee4e4"),
    "cyclic-height@16": (
        lambda: preset_field("cyclic-height", 16),
        "70036a5eb346dcf2e205b9b348bfa48fca2db96453f2ef3b05271a53ad45b6e2",
        "102040ec2a0323833105b8a3bb978d341b06186364639778d9b26473661d56cd"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ownership_digest(g) -> str:
    doc = {"node_map": {str(k): list(v) for k, v in sorted(g.node_map.items())},
           "band_map": {str(k): list(v) for k, v in sorted(g.band_map.items())}}
    return _sha(json.dumps(doc, sort_keys=True).encode("utf-8"))


@pytest.mark.parametrize("label", sorted(CASES))
def test_reeb_json_and_ownership_digests(label, tmp_path):
    make, reeb_sha, ownership_sha = CASES[label]
    s = make()
    src, out = tmp_path / "field.txt", tmp_path / "reeb.json"
    src.write_text(dump_surface(s), encoding="utf-8")
    assert main(["reeb", str(src), "--format", "json", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == reeb_sha
    assert ownership_digest(compute_reeb(s)) == ownership_sha

"""Traced memory after each stage of ``analyze`` on one preset field.

Writes the preset in the torus-field v1 text format, then runs the
stages of ``pipeline.analyze`` one at a time under ``tracemalloc``:
load, validate, reeb, special, partition, symmetries, group, orbits and
disks (each orbit representative cut and written out in turn). After each stage it
prints the traced memory still held and the peak reached while the stage
ran, both in MiB. The text of the field is made before tracing starts,
so ``load`` counts the parse and the surface only. Run it from the
repository root:

    PYTHONPATH=src python tests/stage_memory.py --preset two-cell --grid 128

Counts are deterministic for one Python version. Tracing slows the run
several times, so this is a tool to run by hand, not a test; pytest does
not collect it (its name does not start with ``test_``).
"""
from __future__ import annotations

import argparse
import tracemalloc

from krtorus.fields import preset_field
from krtorus.partition import build_partition
from krtorus.pipeline import extract_disk_field
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.surface import dump_surface, load_surface, validate_closed_orientable
from krtorus.symmetry import enumerate_symmetries, group_structure, index_orbits

MIB = 1024 * 1024


def stages(text: str):
    """(name, thunk) pairs in analyze's order; each thunk reads what the last ones kept."""
    kept: dict = {}

    def run(name, f):
        return name, lambda: kept.__setitem__(name, f())

    return [
        run("load", lambda: load_surface(text)),
        run("validate", lambda: validate_closed_orientable(kept["load"])),
        run("reeb", lambda: compute_reeb(kept["load"])),
        run("special", lambda: find_special_vertex(kept["reeb"])),
        run("partition", lambda: build_partition(kept["load"], kept["reeb"], kept["special"])),
        run("symmetries", lambda: enumerate_symmetries(kept["load"], kept["partition"])),
        run("group", lambda: group_structure(kept["symmetries"])),
        run("orbits", lambda: index_orbits(kept["group"], kept["partition"])),
        # as in analyze, each disk is cut, written out and dropped
        run("disks", lambda: [dump_surface(extract_disk_field(kept["partition"], rep).surface)
                              for rep in kept["orbits"][1]]),
    ]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="two-cell")
    ap.add_argument("--grid", type=int, default=128)
    args = ap.parse_args(argv)
    text = dump_surface(preset_field(args.preset, args.grid))
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    print(f"{args.preset}@{args.grid}: traced MiB above the field text")
    print(f"{'stage':<11} {'held':>8} {'peak':>8}")
    for name, thunk in stages(text):
        tracemalloc.reset_peak()
        thunk()
        current, peak = tracemalloc.get_traced_memory()
        print(f"{name:<11} {(current - base) / MIB:8.2f} {(peak - base) / MIB:8.2f}")
    tracemalloc.stop()


if __name__ == "__main__":
    main()

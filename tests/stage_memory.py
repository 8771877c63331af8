"""Traced memory after each stage of ``analyze`` on one preset field.

Writes the preset in the torus-field v1 text format, then runs the
stages of ``pipeline.analyze`` one at a time under ``tracemalloc``:
load, validate, classes (``vertex_classes``, which ``reeb`` would
otherwise run), reeb, special, partition, symmetries, group, orbits,
disks (every orbit representative cut, the disks kept) and dump (each
disk written out and dropped, its text kept as the report keeps it).
After each stage it prints the traced memory still held and the peak
reached while the stage ran, both in MiB, the number of
generation-0 garbage collections the stage set off, which counts the
container objects it allocated in steps of the collector's threshold
(700 by default), and the process's peak resident set so far
(``ru_maxrss``, in MiB, tracing's own memory included). Traced peaks do
not predict the resident peak: the allocator keeps freed pages, so a
stage can raise its traced peak and still leave the resident peak
lower. The text of the field is made before tracing starts, so ``load``
counts the parse and the surface only. Run it from the repository root:

    PYTHONPATH=src python tests/stage_memory.py --preset two-cell --grid 128

Counts are deterministic for one Python version. Tracing slows the run
several times, so this is a tool to run by hand, not a test; pytest does
not collect it (its name does not start with ``test_``).
"""
from __future__ import annotations

import argparse
import gc
import resource
import tracemalloc

from krtorus.fields import preset_field
from krtorus.partition import build_partition
from krtorus.pipeline import extract_disk_field
from krtorus.reeb import compute_reeb, find_special_vertex
from krtorus.surface import (dump_surface, load_surface, validate_closed_orientable,
                             vertex_classes)
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
        run("classes", lambda: vertex_classes(kept["load"])),
        run("reeb", lambda: compute_reeb(kept["load"])),
        run("special", lambda: find_special_vertex(kept["reeb"])),
        run("partition", lambda: build_partition(kept["load"], kept["reeb"], kept["special"])),
        run("symmetries", lambda: enumerate_symmetries(kept["load"], kept["partition"])),
        run("group", lambda: group_structure(kept["symmetries"])),
        run("orbits", lambda: index_orbits(kept["group"], kept["partition"])),
        run("disks", lambda: [extract_disk_field(kept["partition"], rep).surface
                              for rep in kept["orbits"][1]]),
        run("dump", lambda: [dump_surface(d) for d in kept.pop("disks")]),
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
    print(f"{'stage':<11} {'held':>8} {'peak':>8} {'gen0':>6} {'maxrss':>8}")
    for name, thunk in stages(text):
        gc.collect()
        tracemalloc.reset_peak()
        gen0 = gc.get_stats()[0]["collections"]
        thunk()
        gen0 = gc.get_stats()[0]["collections"] - gen0
        current, peak = tracemalloc.get_traced_memory()
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{name:<11} {(current - base) / MIB:8.2f} {(peak - base) / MIB:8.2f} {gen0:6} "
              f"{maxrss:8.2f}")
    tracemalloc.stop()


if __name__ == "__main__":
    main()

"""The benchmark's workloads: input generation, op lists and output checks.

Each workload is a fixed list of ops. An op is one call of the user's
entry point ``krtorus.cli.main(argv)`` on a generated field file. Inputs
come only from ``krtorus.fields`` and from the seed: the seed changes the
``reeb-random`` fields and nothing else.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import krtorus  # noqa: E402
import krtorus.cli  # noqa: E402
from krtorus.fields import preset_field, pullback_cosine_field, random_field  # noqa: E402
from krtorus.surface import dump_surface  # noqa: E402

if Path(krtorus.__file__).resolve().parent != SRC / "krtorus":
    raise ImportError(f"krtorus was imported from {krtorus.__file__}, not from {SRC}")

WORKLOADS = ("presets-scale", "pullback-groups", "reeb-random", "verify-atoms")
DEFAULT_SEED = 0
PINS = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())
VERIFY_CHECKS = ("wreath-axioms-exactness", "index-lattice-exactness", "kernel-size")

PULLBACKS = (  # (label, matrix, grid): the grids keep the symmetry group alive
    ("diag(2,2)", ((2, 0), (0, 2)), 32),
    ("diag(3,3)", ((3, 0), (0, 3)), 48),
    ("((2,1),(-1,2))", ((2, 1), (-1, 2)), 40),
    ("diag(4,4)", ((4, 0), (0, 4)), 32),
)
TREE_PRESETS = ("two-cell", "z2-sym", "z2xz2-sym")
ATOMS = ("Z1", "Z2", "Z3")


@dataclass
class Op:
    """One CLI call and what its result must be."""

    id: str
    kind: str  # "analyze", "reject", "reeb" or "verify"
    argv: list
    out: Path | None = None  # file the op writes with --out
    expect: dict = field(default_factory=dict)


@dataclass
class Result:
    """What one op returned: exit code, output bytes and stderr text."""

    code: int | None
    output: bytes
    stderr: str
    error: str | None = None  # an exception that escaped cli.main


def reeb_random_seeds(seed: int) -> dict:
    """Field seed for each random_field size, derived from the benchmark seed."""
    rng = random.Random(f"reeb-random/{seed}")
    return {n: rng.randrange(2 ** 31) for n in (16, 24, 32)}


def _write(path: Path, surface) -> Path:
    path.write_text(dump_surface(surface), encoding="utf-8")
    return path


def build_ops(workload: str, seed: int, work: Path) -> list:
    """Generate the workload's field files under work/ and return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    inp, out = work / "in", work / "out"
    inp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.iterdir():  # an op that fails must not find an earlier output
        stale.unlink()
    pins = PINS[workload]
    ops = []

    def analyze(op_id, path):
        dest = out / f"{len(ops)}.json"
        ops.append(Op(op_id, "analyze", ["analyze", str(path), "--out", str(dest)],
                      dest, pins[op_id]))

    if workload == "presets-scale":
        for grid in (32, 64, 128):
            for name in TREE_PRESETS:
                analyze(f"analyze {name}@{grid}",
                        _write(inp / f"{name}-{grid}.txt", preset_field(name, grid)))
        for grid in (64, 128):
            op_id = f"analyze cyclic-height@{grid}"
            path = _write(inp / f"cyclic-height-{grid}.txt", preset_field("cyclic-height", grid))
            ops.append(Op(op_id, "reject", ["analyze", str(path), "--format", "json"],
                          None, pins[op_id]))
    elif workload == "pullback-groups":
        for label, mat, grid in PULLBACKS:
            analyze(f"analyze {label}@{grid}",
                    _write(inp / f"pullback-{len(ops)}-{grid}.txt",
                           pullback_cosine_field(grid, mat)))
    elif workload == "reeb-random":
        pinned = pins if seed == DEFAULT_SEED else {}
        for n, s in reeb_random_seeds(seed).items():
            op_id = f"reeb random_field({n})"
            path = _write(inp / f"random-{n}.txt", random_field(n, s))
            dest = out / f"{len(ops)}.json"
            ops.append(Op(op_id, "reeb", ["reeb", str(path), "--format", "json", "--out", str(dest)],
                          dest, pinned.get(op_id, {})))
    else:  # verify-atoms
        cases = [(name, f"{a},{b}") for name in TREE_PRESETS for a in ATOMS for b in ATOMS]
        cases += [("z2xz2-sym", "Z3,Z4"), ("z2xz2-sym", "Z4,Z4")]  # kernels over 10 000
        for name in TREE_PRESETS:
            _write(inp / f"{name}-16.txt", preset_field(name, 16))
        for name, atoms in cases:
            ops.append(Op(f"verify {name}@16 {atoms}", "verify",
                          ["verify", str(inp / f"{name}-16.txt"), "--atoms", atoms,
                           "--format", "json"]))
    return ops


def run_op(op: Op) -> Result:
    """Call krtorus.cli.main on the op, capturing what it writes."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = krtorus.cli.main(list(op.argv))
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
    output = op.out.read_bytes() if op.out is not None and op.out.exists() else \
        stdout.getvalue().encode("utf-8")
    if op.out is not None and op.out.exists():
        op.out.unlink()  # the next pass must write it afresh
    return Result(code, output, stderr.getvalue(), error)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(op: Op, res: Result) -> list:
    """Problems with one op's result; an empty list means it is correct."""
    if res.error is not None:
        return [f"uncaught exception {res.error}"]
    if op.kind == "reject":
        if res.code != op.expect["exit"]:
            return [f"exit {res.code}, expected {op.expect['exit']}"]
        try:
            code = json.loads(res.stderr)["error"]["code"]
        except (ValueError, KeyError, TypeError):
            return [f"unreadable error payload {res.stderr[:200]!r}"]
        return [] if code == op.expect["code"] else [f"error code {code!r}, expected {op.expect['code']!r}"]
    if res.code != 0:
        return [f"exit {res.code}, expected 0: {res.stderr.strip()[:200]}"]
    problems = []
    if "sha256" in op.expect and sha256(res.output) != op.expect["sha256"]:
        problems.append("output bytes differ from the pinned sha256")
    try:
        return problems + _check_document(op, json.loads(res.output))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return problems + [f"malformed output: {type(exc).__name__}: {exc}"]


def _check_document(op: Op, doc) -> list:
    if op.kind == "analyze":
        sym = doc["symmetry"]
        nmr = [sym["n"], sym["m"], sym["r"]]
        if nmr != op.expect["nmr"]:
            return [f"(n, m, r) = {nmr}, expected {op.expect['nmr']}"]
        return []
    if op.kind == "reeb":
        nodes, edges = doc["nodes"], doc["edges"]
        problems = []
        if sum(nd["euler"] for nd in nodes) != 0:
            problems.append("node Euler numbers do not sum to 0")
        if len(edges) - len(nodes) + 1 < 0:
            problems.append("edges - nodes + 1 is negative")
        return problems
    checks = {c["name"]: c["passed"] for c in doc["checks"]}  # verify
    missing = [name for name in VERIFY_CHECKS if name not in checks]
    if missing:
        return [f"missing checks {missing}"]
    failed = sorted(name for name, ok in checks.items() if ok is not True)
    if failed or doc["passed"] is not True:
        return [f"checks report FAIL: {failed}"]
    return []


def ownership_digest(g) -> str:
    """sha256 of compute_reeb's triangle ownership (node_map and band_map)."""
    doc = {"node_map": {str(k): list(v) for k, v in sorted(g.node_map.items())},
           "band_map": {str(k): list(v) for k, v in sorted(g.band_map.items())}}
    return sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))


def check_ownership(op: Op, g, triangle_count: int) -> list:
    """Pinned digest at the default seed; a partition of the triangles otherwise."""
    if "ownership_sha256" in op.expect:
        if ownership_digest(g) != op.expect["ownership_sha256"]:
            return ["node_map/band_map differ from the pinned digest"]
        return []
    owned = sorted(t for part in (g.node_map, g.band_map) for tris in part.values() for t in tris)
    if owned != list(range(triangle_count)):
        return ["node_map/band_map do not own every triangle exactly once"]
    return []

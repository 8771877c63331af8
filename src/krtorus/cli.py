"""Command line front end.

Each command's text is written once, by ``main``: to --out FILE as it
is, or to stdout with one newline added if it does not end in one.
Exit codes: 0 success, 1 input rejected (bad file, bad arguments,
non-torus surface, graph with a cycle, ``gen`` grid past 2048), 2 a
failed internal invariant or ``verify`` check, a defect: every internal
check is fired by a test or allowlisted in tests/test_internal_checks.py.
Diagnostics go to stderr; in the json format (--format json, and the
default of ``analyze``) they are machine readable, usage errors too, as
the format is read before the full parse.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import InputRejected, InternalInvariantError
from .fields import MAX_PRESET_GRID, PRESET_NAMES, preset_field
from .homology import IntMatrix, smith_normal_form
from .pipeline import _scalar_json, analyze, canonical_json, verify_extension
from .reeb import compute_reeb, is_tree, reeb_to_dot
from .surface import dump_surface, format_scalar, load_surface, validate_closed_orientable
from .wreath import parse_atoms


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is
    # that every input-side problem maps to exit 1
    def error(self, message):
        raise InputRejected("bad-request", message)


@cache
def _format_parser() -> argparse.ArgumentParser:
    # --format alone, abbreviations included, for a usage error's diagnostic
    p = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    p.add_argument("--format")
    return p


@cache  # built on the first main() call, then shared by every later one
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="krtorus",
                description="Scalar-field topology on the triangulated torus: "
                            "graph, cell partition, symmetry, orbit group.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command",
                           parser_class=_Parser)

    v = sub.add_parser("validate", help="check a surface file and report chi/genus")
    v.add_argument("input", help="torus-field v1 file, or - for stdin")
    v.add_argument("--format", choices=["json", "text"], default="text")

    rb = sub.add_parser("reeb", help="emit the graph of the field")
    rb.add_argument("input")
    rb.add_argument("--format", choices=["json", "dot", "text"], default="text")
    rb.add_argument("--out", default=None)

    an = sub.add_parser("analyze", help="run the full pipeline and emit the report")
    an.add_argument("input")
    an.add_argument("--format", choices=["json", "text"], default="json")
    an.add_argument("--out", default=None)

    vf = sub.add_parser("verify", help="substitute finite atoms and verify the extension")
    vf.add_argument("input")
    vf.add_argument("--atoms", required=True,
                    help="comma separated, one per disk orbit: e.g. \"Z2,Z3\"")
    vf.add_argument("--format", choices=["json", "text"], default="text")

    sn = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    sn.add_argument("--matrix", required=True,
                    help="rows separated by ';', entries by ',': e.g. \"2,2;0,4\"")
    sn.add_argument("--format", choices=["json", "text"], default="text")

    gn = sub.add_parser("gen", help="emit a torus-field v1 file for a model preset")
    gn.add_argument("--preset", required=True, choices=list(PRESET_NAMES))
    gn.add_argument("--grid", type=int, default=16, metavar="N",
                    help=f"grid size, a multiple of 4 from 8 to {MAX_PRESET_GRID}")
    gn.add_argument("--out", default=None)
    return p


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputRejected("bad-request", f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputRejected("malformed-input", f"{path} is not UTF-8 text: {exc}")


def _write_text(text: str, out_path, stdout) -> None:
    if out_path is None:
        stdout.write(text)
        if not text.endswith("\n"):
            stdout.write("\n")
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputRejected("bad-request", f"cannot write {out_path}: {exc}")


def _emit_error(payload: dict, fmt: str, stderr) -> None:
    if fmt == "json":
        stderr.write(json.dumps({"error": payload}, sort_keys=True) + "\n")
        return
    extra = {k: v for k, v in payload.items() if k not in ("code", "message")}
    line = f"error[{payload['code']}]: {payload['message']}"
    if extra:
        line += " " + json.dumps(extra, sort_keys=True)
    stderr.write(line + "\n")


def _reeb_json(g) -> dict:
    return {
        "nodes": [{"id": n.id, "level": _scalar_json(n.level),
                   "kinds": list(n.kinds),
                   "critical_vertices": list(n.critical_vertices),
                   "euler": n.census_euler}
                  for n in g.nodes],
        "edges": [{"id": e.id, "lower": e.lower, "upper": e.upper,
                   "interval": [_scalar_json(e.interval[0]), _scalar_json(e.interval[1])]}
                  for e in g.edges],
        "is_tree": is_tree(g),
    }


def _run(args) -> tuple[str, int]:
    """The command's text and exit code; ``main`` writes the text."""
    if args.command == "gen":
        return dump_surface(preset_field(args.preset, args.grid)), 0

    if args.command == "snf":
        try:
            rows = [[int(tok) for tok in row.split(",")]
                    for row in args.matrix.split(";")]
            mat = IntMatrix.from_rows(rows)
        except ValueError as exc:
            raise InputRejected("bad-request", f"bad --matrix value: {exc}")
        res = smith_normal_form(mat)
        if args.format == "text":
            return "D=diag(" + ",".join(str(d) for d in res.diagonal) + ")", 0
        out = {"diagonal": list(res.diagonal),
               "u": res.u.to_lists(), "d": res.d.to_lists(), "v": res.v.to_lists()}
        try:
            return json.dumps(out, sort_keys=True), 0
        except ValueError:  # an entry past int's str() digit limit
            raise InputRejected("bad-request", "a U or V entry passes int's limit of "
                                f"{sys.get_int_max_str_digits()} digits; --format text prints D")

    s = load_surface(_read_text(args.input))
    if args.command == "validate":
        info = validate_closed_orientable(s)
        if args.format == "json":
            out = {"chi": info["chi"], "genus": info["genus"],
                   "vertices": s.vertex_count, "triangles": s.triangle_count}
            return json.dumps(out, sort_keys=True), 0
        return (f"chi={info['chi']} genus={info['genus']} "
                f"vertices={s.vertex_count} triangles={s.triangle_count}"), 0

    if args.command == "reeb":
        validate_closed_orientable(s)
        g = compute_reeb(s)
        if args.format == "dot":
            return reeb_to_dot(g), 0
        if args.format == "json":
            return json.dumps(_reeb_json(g), sort_keys=True), 0
        lines = [f"nodes={len(g.nodes)} edges={len(g.edges)} "
                 f"is_tree={'true' if is_tree(g) else 'false'}"]
        for n in g.nodes:
            lines.append(f"node {n.id}: level={format_scalar(n.level)} "
                         f"kinds={','.join(n.kinds)}")
        for e in g.edges:
            lines.append(f"edge {e.id}: {e.lower}--{e.upper}")
        return "\n".join(lines), 0

    report = analyze(s)  # analyze or verify: argparse refused any other command
    if args.command == "analyze":
        if args.format == "json":
            return canonical_json(report), 0
        sp, sym = report.special, report.symmetry
        lines = [
            f"group: {report.group['expr']}",
            f"n={sym['n']} m={sym['m']} r={sym['r']} order={sym['order']}",
            f"special node {sp['node']} at level {sp['level']}",
            f"cells: {sp['zero_cells']} vertices, {sp['one_cells']} arcs, "
            f"{sp['two_cells']} disks",
        ]
        return "\n".join(lines), 0

    atoms = parse_atoms(args.atoms)
    rec = verify_extension(report, atoms)
    code = 0 if rec.passed else 2
    if args.format == "json":
        return json.dumps(rec.to_json(), sort_keys=True), code
    lines = [f"check {c.name}: {'pass' if c.passed else 'FAIL'} ({c.detail})"
             for c in rec.checks]
    return "\n".join(lines), code


def main(argv=None) -> int:
    stdout, stderr = sys.stdout, sys.stderr
    argv = list(sys.argv[1:] if argv is None else argv)
    fmt = "json" if argv[:1] == ["analyze"] else "text"  # each command's --format default
    if argv[:1] == ["snf"] and "--matrix" in argv[:-1]:  # argparse reads "-1,2" as an option
        i = argv.index("--matrix")
        argv[i:i + 2] = [f"--matrix={argv[i + 1]}"]
    try:
        fmt = _format_parser().parse_known_args(argv)[0].format or fmt
    except argparse.ArgumentError:  # --format with no value: the full parse names it
        pass
    try:
        args = build_parser().parse_args(argv)
        fmt = getattr(args, "format", "text")
        text, code = _run(args)
        _write_text(text, getattr(args, "out", None), stdout)
        return code
    except InputRejected as exc:
        _emit_error(exc.payload(), fmt, stderr)
        return 1
    except InternalInvariantError as exc:
        _emit_error({"code": "internal-invariant", "message": str(exc)}, fmt, stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line behavior: formats, files, exit codes."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import runpy
import subprocess
import sys

import pytest

import krtorus.cli
from krtorus.cli import main
from krtorus.errors import InputRejected, InternalInvariantError
from krtorus.fields import MAX_PRESET_GRID, _check_preset_grid, preset_field
from krtorus.homology import IntMatrix, smith_normal_form
from krtorus.surface import dump_surface

import oracles


@pytest.fixture(scope="module")
def two_cell_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "two-cell.tf"
    path.write_text(dump_surface(preset_field("two-cell")))
    return str(path)


@pytest.fixture(scope="module")
def cyclic_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "cyclic-height.tf"
    path.write_text(dump_surface(preset_field("cyclic-height")))
    return str(path)


def test_validate_text(two_cell_file, capsys):
    assert main(["validate", two_cell_file]) == 0
    out = capsys.readouterr().out
    assert out == "chi=0 genus=1 vertices=256 triangles=512\n"


def test_validate_json(two_cell_file, capsys):
    assert main(["validate", two_cell_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"chi": 0, "genus": 1, "vertices": 256, "triangles": 512}


def test_validate_stdin(two_cell_file, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        open(two_cell_file).read()))
    assert main(["validate", "-"]) == 0
    assert "chi=0" in capsys.readouterr().out


def test_reeb_text(two_cell_file, capsys):
    assert main(["reeb", two_cell_file]) == 0
    out = capsys.readouterr().out
    assert "nodes=3 edges=2 is_tree=true" in out
    assert "kinds=saddle,saddle" in out


def test_reeb_dot(two_cell_file, capsys):
    assert main(["reeb", two_cell_file, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph kr {")


def test_reeb_json(two_cell_file, capsys):
    assert main(["reeb", two_cell_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_tree"] is True
    assert [n["level"] for n in data["nodes"]] == [-2.0, 0.0, 2.0]
    assert len(data["edges"]) == 2


def test_analyze_json_default(two_cell_file, capsys):
    assert main(["analyze", two_cell_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == "kr-torus/1"
    assert data["group"]["expr"] == "(A_1 x A_2) x Z^2"
    assert data["symmetry"]["n"] == 1
    assert data["symmetry"]["m"] == 1
    assert data["symmetry"]["r"] == 2


def test_analyze_text(two_cell_file, capsys):
    assert main(["analyze", two_cell_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "group: (A_1 x A_2) x Z^2" in out
    assert "n=1 m=1 r=2" in out


def test_analyze_out_file(two_cell_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["analyze", two_cell_file, "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["group"]["expr"] == "(A_1 x A_2) x Z^2"


def test_analyze_rejects_cycle(cyclic_file, capsys):
    assert main(["analyze", cyclic_file]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "not-a-tree"
    assert err["error"]["b1"] == 1


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/definitely/not/here.tf"]) == 1
    err = capsys.readouterr().err
    assert "bad-request" in err


def test_verify_ok(two_cell_file, capsys):
    assert main(["verify", two_cell_file, "--atoms", "Z2,Z3"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3 and "FAIL" not in out


def test_verify_json(two_cell_file, capsys):
    assert main(["verify", two_cell_file, "--atoms", "1,1",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert [c["name"] for c in data["checks"]] == [
        "wreath-axioms-exactness", "index-lattice-exactness", "kernel-size"]


def test_verify_large_atoms(tmp_path, capsys):
    # a kernel of 10^24 grids must sample, not overflow
    path = tmp_path / "z2xz2-sym.tf"
    path.write_text(dump_surface(preset_field("z2xz2-sym")))
    assert main(["verify", str(path), "--atoms", "Z1000,Z1000",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


@pytest.fixture(scope="module")
def z2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "z2-sym.tf"
    path.write_text(dump_surface(preset_field("z2-sym")))
    return str(path)


def test_verify_rejects_a_kernel_past_int_str_limit(z2_file, capsys):
    # |Z(10^2200 - 1) x Z2|^2 has 4,401 digits, past what str(int) prints
    atoms = f"Z{'9' * 2200},Z2"
    assert main(["verify", z2_file, "--atoms", atoms, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "bad-request"


def test_verify_huge_kernel_below_the_limit(z2_file, capsys):
    # |Z(10^1200 - 1) x Z2|^2 has 2,401 digits: sampled and reported in full
    atoms = f"Z{'9' * 1200},Z2"
    assert main(["verify", z2_file, "--atoms", atoms, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True and all(c["passed"] for c in data["checks"])


def test_verify_wrong_atom_count(two_cell_file, capsys):
    assert main(["verify", two_cell_file, "--atoms", "Z2"]) == 1
    assert "bad-request" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["Z²", "Z①", "Z" + "9" * 5000],
                         ids=["superscript-two", "circled-one", "5000-digits"])
def test_verify_rejects_atom_digits_that_int_cannot_read(two_cell_file, capsys, token):
    # each passes str.isdigit(); int() reads neither '²' nor '①', nor 5,000 digits
    assert main(["verify", two_cell_file, "--atoms", f"Z2,{token}", "--format", "json"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"code": "bad-request",
                   "message": f"bad atom spec {token!r}; expected '1' or 'Z<k>'"}


def test_snf_text(capsys):
    assert main(["snf", "--matrix", "2,2;0,4"]) == 0
    assert capsys.readouterr().out == "D=diag(2,4)\n"


def test_snf_json(capsys):
    assert main(["snf", "--matrix", "2,2;0,4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diagonal"] == [2, 4]
    u, d, v = data["u"], data["d"], data["v"]
    assert d == [[2, 0], [0, 4]]
    assert u is not None and v is not None
    assert sorted(data) == ["d", "diagonal", "u", "v"]


def test_snf_matrix_with_leading_minus(capsys):
    # the documented form: the value is a separate argument that starts with '-'
    assert main(["snf", "--matrix", "-1,2;3,4", "--format", "json"]) == 0
    spaced = capsys.readouterr().out
    assert main(["snf", "--matrix=-1,2;3,4", "--format", "json"]) == 0
    assert spaced == capsys.readouterr().out
    assert json.loads(spaced)["diagonal"] == [1, 10]


def test_snf_bad_matrix(capsys):
    assert main(["snf", "--matrix", "1,2;three,4"]) == 1
    assert "bad-request" in capsys.readouterr().err


def test_snf_ragged_matrix(capsys):
    assert main(["snf", "--matrix", "1,2;3"]) == 1
    assert capsys.readouterr().err == "error[bad-request]: bad --matrix value: ragged matrix\n"


def test_header_without_count_line(tmp_path, capsys):
    path = tmp_path / "header.tf"
    path.write_text("torus-field v1\n")
    assert main(["analyze", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"code": "malformed-input", "message": "missing count line"}}


def test_analyze_text_rejection_carries_its_details(cyclic_file, capsys):
    assert main(["analyze", cyclic_file, "--format", "text"]) == 1
    assert capsys.readouterr().err == (
        'error[not-a-tree]: graph has first Betti number 1, expected a tree {"b1": 1}\n')


def test_internal_invariant_exits_two(two_cell_file, capsys, monkeypatch):
    def broken(s):
        raise InternalInvariantError("planted defect")

    monkeypatch.setattr(krtorus.cli, "analyze", broken)
    assert main(["analyze", two_cell_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"code": "internal-invariant", "message": "planted defect"}}


def test_gen_then_analyze(tmp_path, capsys):
    field = tmp_path / "z2.tf"
    assert main(["gen", "--preset", "z2-sym", "--out", str(field)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(field)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group"]["expr"] == "(A_1 x A_2) wr[Z_1 x Z_2] Z^2"
    assert data["symmetry"]["m"] == 2


def test_gen_grid_size(tmp_path, capsys):
    field = tmp_path / "big.tf"
    assert main(["gen", "--preset", "two-cell", "--grid", "8",
                 "--out", str(field)]) == 0
    capsys.readouterr()
    assert main(["validate", str(field)]) == 0
    assert "vertices=64" in capsys.readouterr().out


def test_gen_refuses_a_grid_past_the_bound(capsys):
    # this grid asked for one list of 10^10 values and ended in a MemoryError traceback
    assert main(["gen", "--preset", "two-cell", "--grid", "100000"]) == 1
    err = capsys.readouterr().err
    assert err == "error[bad-request]: preset grid size 100000 must be at most 2048\n"


def test_gen_grid_bound_is_the_largest_accepted_grid():
    # checked on the bound alone: a grid past it that got through would fill gigabytes
    _check_preset_grid(MAX_PRESET_GRID)
    with pytest.raises(InputRejected, match="must be at most 2048"):
        _check_preset_grid(MAX_PRESET_GRID + 4)


def test_gen_rejects_unknown_preset(capsys):
    assert main(["gen", "--preset", "nonsense"]) == 1
    assert "bad-request" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_scalar_rejected(two_cell_file, tmp_path, capsys, token):
    lines = open(two_cell_file).read().splitlines()
    lines[2] = token  # value of vertex 0
    path = tmp_path / "nonfinite.tf"
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["code"] == "malformed-input"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "reeb", "analyze", "verify"])
@pytest.mark.parametrize("token, shown", [
    ("9" * 400, "9" * 400),
    ("-" + "9" * 400, "-" + "9" * 400),
    ("9" * 400 + "/7", f"Fraction({'9' * 400}, 7)"),
], ids=["int", "negative-int", "fraction"])
def test_exact_scalar_beyond_float_range_rejected(two_cell_file, tmp_path, capsys, command, token, shown):
    lines = open(two_cell_file).read().splitlines()
    lines[3] = token  # value of vertex 1
    path = tmp_path / "huge.tf"
    path.write_text("\n".join(lines) + "\n")
    argv = [command, str(path), "--format", "json"] + (["--atoms", "Z2,Z3"] if command == "verify" else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {"code": "malformed-input",
                                         "message": f"out-of-range scalar {shown}"}}


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["analyze"]) == 1
    capsys.readouterr()


def test_sphere_input_rejected(tmp_path, capsys):
    text = ("torus-field v1\n4 4\n0\n1\n2\n3\n"
            "0 1 2\n0 3 1\n1 3 2\n2 3 0\n")
    path = tmp_path / "sphere.tf"
    path.write_text(text)
    assert main(["analyze", str(path), "--format", "json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "not-a-torus"
    assert err["error"]["chi"] == 2


@pytest.mark.parametrize("command", ["analyze", "reeb"])
def test_non_utf8_file_rejected(two_cell_file, tmp_path, capsys, command):
    path = tmp_path / "latin1.tf"
    path.write_bytes(open(two_cell_file, "rb").read() + "# caf\xe9\n".encode("latin-1"))
    assert main([command, str(path), "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["code"] == "malformed-input"
    assert "Traceback" not in err


def test_non_utf8_stdin_rejected(two_cell_file, capsys, monkeypatch):
    # a strict UTF-8 stdin, as under a UTF-8 locale, raises on the first bad byte
    data = open(two_cell_file, "rb").read() + "# caf\xe9\n".encode("latin-1")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main(["reeb", "-", "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["code"] == "malformed-input"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "reeb"])
def test_out_into_missing_directory_rejected(two_cell_file, tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.json"
    assert main([command, two_cell_file, "--format", "json", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err)["error"]
    assert payload["code"] == "bad-request"
    assert payload["message"].startswith(f"cannot write {target}")
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_gen_out_into_missing_directory_rejected(tmp_path, capsys):
    # gen has no --format, so its error line is the text form of the payload
    target = tmp_path / "missing" / "field.tf"
    assert main(["gen", "--preset", "two-cell", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[bad-request]: cannot write {target}")
    assert "Traceback" not in err


def _snf_pool():
    """About 200 seeded matrices, 1-8 x 1-8 with entries in [-9, 9], as --matrix strings."""
    rng = random.Random(20261019)
    pool = ["2,2;0,4"]
    for k in range(200):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        zero = 0.4 if k % 2 else 0.0
        pool.append(";".join(
            ",".join(str(0 if rng.random() < zero else rng.randint(-9, 9)) for _ in range(c))
            for _ in range(r)))
    return pool


def test_snf_json_bytes_pinned(capsys):
    # U and V come from a fixed order of Bezout steps, so the JSON bytes are pinned
    h = hashlib.sha256()
    for m in _snf_pool():
        assert main(["snf", f"--matrix={m}", "--format", "json"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "a0101f0b4cfc2aa1242190c8ec67a9d817bdc8a7cdad9ae4d499a1750707044c"


def test_snf_diagonal_bytes_pinned(capsys):
    # D alone is unique, so its bytes hold under any correct reduction
    h = hashlib.sha256()
    for m in _snf_pool():
        assert main(["snf", f"--matrix={m}", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        h.update(json.dumps([data["diagonal"], data["d"]]).encode())
    assert h.hexdigest() == "0595362665fac48e1cdf0ce7488f68ee2c123db36c31e74666af24b880bc4bb7"


def test_snf_transforms_stay_small_on_the_pool():
    # Bezout steps keep these near 105 bits; a reduction that lets the
    # transforms blow up reaches hundreds
    bits = 0
    for m in _snf_pool():
        res = smith_normal_form(IntMatrix.from_rows(
            [[int(x) for x in r.split(",")] for r in m.split(";")]))
        bits = max(bits, *(abs(x).bit_length() for w in (res.u, res.v)
                           for r in w.entries for x in r))
    assert bits <= 128


def _dense_matrix(k):
    """A seeded dense k x (k+1) matrix, entries in [-9, 9], and its --matrix text."""
    rng = random.Random(k)
    rows = [[rng.randint(-9, 9) for _ in range(k + 1)] for _ in range(k)]
    return rows, ";".join(",".join(map(str, r)) for r in rows)


@pytest.mark.parametrize("k", range(12, 21))
def test_snf_finishes_dense_matrices(k):
    # a fresh process under a hard timeout, so a reduction that hangs fails
    # here instead of stalling the suite; huge transforms also fail, as JSON
    # output refuses ints over 4,300 digits
    rows, arg = _dense_matrix(k)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(krtorus.cli.__file__)))
    out = subprocess.run([sys.executable, "-m", "krtorus", "snf", f"--matrix={arg}",
                          "--format", "json"], capture_output=True, text=True, env=env,
                         timeout=15)
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    u, v = IntMatrix.from_rows(data["u"]), IntMatrix.from_rows(data["v"])
    assert (u @ IntMatrix.from_rows(rows) @ v).to_lists() == data["d"]
    assert abs(oracles.det(data["u"])) == abs(oracles.det(data["v"])) == 1


def test_snf_transforms_past_the_digit_limit_are_refused(capsys):
    # at k = 22 a transform entry has 23,481 bits, more than the 4,300
    # decimal digits an int may print; an error that escapes main fails here
    assert main(["snf", f"--matrix={_dense_matrix(22)[1]}", "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    error = json.loads(out.err)["error"]  # stderr holds this one JSON object and no traceback
    assert error["code"] == "bad-request"
    assert "4300 digits" in error["message"] and "--format text prints D" in error["message"]


@pytest.mark.parametrize("module", ["krtorus", "krtorus.cli"])
def test_module_entry_points_exit_with_mains_code(module, two_cell_file, tmp_path, capsys,
                                                  monkeypatch):
    # python -m krtorus runs krtorus/__main__.py, and python -m krtorus.cli
    # the module's own __main__ block; both hand main's return to sys.exit.
    # runpy warns that krtorus.cli, imported with the package, runs again
    def run(*argv):
        monkeypatch.setattr(sys, "argv", [module, *argv])
        warns = (pytest.warns(RuntimeWarning, match="found in sys.modules")
                 if module == "krtorus.cli" else contextlib.nullcontext())
        with warns, pytest.raises(SystemExit) as exc:
            runpy.run_module(module, run_name="__main__")
        return exc.value.code, capsys.readouterr()

    code, out = run("validate", two_cell_file)
    assert (code, out.out, out.err) == (0, "chi=0 genus=1 vertices=256 triangles=512\n", "")
    code, out = run("validate", str(tmp_path / "missing.tf"), "--format", "json")
    assert (code, out.out) == (1, "")
    assert json.loads(out.err)["error"]["code"] == "bad-request"


def test_parser_is_built_once_per_process(two_cell_file, capsys, monkeypatch):
    # the top parser and its six subcommands, on the first call only
    built = []
    init = krtorus.cli._Parser.__init__
    monkeypatch.setattr(krtorus.cli._Parser, "__init__",
                        lambda self, *a, **kw: built.append(init(self, *a, **kw)))
    krtorus.cli.build_parser.cache_clear()
    for _ in range(3):
        assert main(["validate", two_cell_file]) == 0
    assert len(built) == 7


# (id, argv, exit code, sha256 of stdout, sha256 of the --out file or None
# for a command without --out); {field} is the two-cell@16 file. A file
# written by --out holds the text alone, and stdout adds one newline when
# the text does not end in one
_OUTPUT_BYTES = [
    ("validate-text", ["validate", "{field}"], 0,
     "c1bef671886d12498de0573c66e86036321cf81af39284950d3c93456643a9f9", None),
    ("validate-json", ["validate", "{field}", "--format", "json"], 0,
     "c4d119798c095be281bc1ff0451c263018ff22ce1567f5f4b70688685b5d04e1", None),
    ("reeb-text", ["reeb", "{field}"], 0,
     "520c4beafad10ef7d2bcf0fabf045ed3f2ac8940c372a4aa1c5035e5177472dd",
     "0193c5e1e7e3a5e2692abbf6b438ebe550d1f75344f4672afc5d1ce5e044f95f"),
    ("reeb-dot", ["reeb", "{field}", "--format", "dot"], 0,
     "2c0aba0a963d57e1a84e943bbff9026571c99bc7a2ccf8d8bd184b2b44cc65c3",
     "2c0aba0a963d57e1a84e943bbff9026571c99bc7a2ccf8d8bd184b2b44cc65c3"),
    ("reeb-json", ["reeb", "{field}", "--format", "json"], 0,
     "feb234bf31e50a78caeae29d4e62ada375dcf279f97e92d2fa1fcf99c67b8ead",
     "8bc0610b0d88273c22520810b9ee8ba464fde457a77185e0f2782320dcd04a05"),
    ("analyze-json", ["analyze", "{field}", "--format", "json"], 0,
     "c6581b4248900672d94f478369f453d6e425cbb9430238f0689125a96e2838c7",
     "e3a3a094fccdd29a2752ae8c203ce81e4c286fae8ef6cc432af97ba1dea91cbe"),
    ("analyze-text", ["analyze", "{field}", "--format", "text"], 0,
     "720d8e8f5da3327afd5471b21b6b2dc45c404e4df7a744b02ffd83c6427fc180",
     "899d1dfeea22f04f81756e71764d273eece4431fb75d8532122363bc400a8d44"),
    ("verify-text", ["verify", "{field}", "--atoms", "Z2,Z3"], 0,
     "d0304ec923c0fd5a43094a18aa82ead687680c17783467f9604daaa4eccb8607", None),
    ("verify-json", ["verify", "{field}", "--atoms", "Z2,Z3", "--format", "json"], 0,
     "770b6b2bd2bef7ed1f215fa2cdda1f3c77263c5573fabeea51bfa63b35923f6f", None),
    ("snf-text", ["snf", "--matrix", "2,2;0,4"], 0,
     "b3e433ebf354c96736233cadfcf76d14216bc62e1ece825958faf497519e1cb2", None),
    ("snf-json", ["snf", "--matrix", "2,2;0,4", "--format", "json"], 0,
     "8a90f7742741040d007709858d78453a0b25f2dc71f11be78e916b2b5c7d2184", None),
    ("gen", ["gen", "--preset", "two-cell", "--grid", "16"], 0,
     "cfba9a40dd5d9ec496cc01baf556b289719b3bd791b855571c2346ac9fd46b4d",
     "cfba9a40dd5d9ec496cc01baf556b289719b3bd791b855571c2346ac9fd46b4d"),
]


@pytest.mark.parametrize("argv, code, stdout_sha, out_sha",
                         [row[1:] for row in _OUTPUT_BYTES], ids=[row[0] for row in _OUTPUT_BYTES])
def test_output_bytes_pinned(argv, code, stdout_sha, out_sha, two_cell_file, tmp_path, capsys):
    argv = [a.format(field=two_cell_file) for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (stdout_sha, "")
    if out_sha is not None:
        target = tmp_path / "out"
        assert main(argv + ["--out", str(target)]) == code
        assert capsys.readouterr() == ("", "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == out_sha


@pytest.mark.parametrize("argv, adds_newline", [
    (["reeb", "{field}"], True), (["reeb", "{field}", "--format", "json"], True),
    (["reeb", "{field}", "--format", "dot"], False), (["analyze", "{field}"], True),
    (["analyze", "{field}", "--format", "text"], True),
    (["gen", "--preset", "two-cell", "--grid", "8"], False),
], ids=["reeb-text", "reeb-json", "reeb-dot", "analyze-json", "analyze-text", "gen"])
def test_out_file_is_stdout_without_the_added_newline(argv, adds_newline, two_cell_file,
                                                       tmp_path, capsys):
    # --out FILE gets the text as it is; stdout adds one newline when the
    # text does not end in one (bench/pins.json hashes the --out files)
    argv = [a.format(field=two_cell_file) for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    target = tmp_path / "out"
    assert main(argv + ["--out", str(target)]) == 0
    text = target.read_bytes()
    assert out == (text + b"\n" if adds_newline else text)
    assert out.endswith(b"\n") and not out.endswith(b"\n\n")


_MISSING = "cannot read <missing>: [Errno 2] No such file or directory: '<missing>'"
_TREE = "graph has first Betti number 1, expected a tree"

# (id, argv, stderr); <missing> is a file that does not exist and
# <cyclic> the cyclic-height@16 file. verify's atoms are bad too, so the
# row also pins that the graph is checked before the atoms are read.
# gen has no --format; a usage error is written in the --format on the
# command line, which is read before the full parse, or else in the
# command's default: json for analyze, text for the rest
_REJECTION_BYTES = [
    ("validate-missing-text", ["validate", "<missing>"], f"error[bad-request]: {_MISSING}\n"),
    ("validate-missing-json", ["validate", "<missing>", "--format", "json"],
     '{"error": {"code": "bad-request", "message": "' + _MISSING + '"}}\n'),
    ("reeb-missing-text", ["reeb", "<missing>"], f"error[bad-request]: {_MISSING}\n"),
    ("reeb-missing-json", ["reeb", "<missing>", "--format", "json"],
     '{"error": {"code": "bad-request", "message": "' + _MISSING + '"}}\n'),
    ("analyze-cycle-json", ["analyze", "<cyclic>"],
     '{"error": {"b1": 1, "code": "not-a-tree", "message": "' + _TREE + '"}}\n'),
    ("analyze-cycle-text", ["analyze", "<cyclic>", "--format", "text"],
     f'error[not-a-tree]: {_TREE} {{"b1": 1}}\n'),
    ("verify-cycle-text", ["verify", "<cyclic>", "--atoms", "Z2,x"],
     f'error[not-a-tree]: {_TREE} {{"b1": 1}}\n'),
    ("verify-cycle-json", ["verify", "<cyclic>", "--atoms", "Z2,x", "--format", "json"],
     '{"error": {"b1": 1, "code": "not-a-tree", "message": "' + _TREE + '"}}\n'),
    ("snf-ragged-text", ["snf", "--matrix", "1,2;3"],
     "error[bad-request]: bad --matrix value: ragged matrix\n"),
    ("snf-ragged-json", ["snf", "--matrix", "1,2;3", "--format", "json"],
     '{"error": {"code": "bad-request", "message": "bad --matrix value: ragged matrix"}}\n'),
    ("gen-grid", ["gen", "--preset", "two-cell", "--grid", "2052"],
     "error[bad-request]: preset grid size 2052 must be at most 2048\n"),
    ("validate-out-text", ["validate", "<field>", "--out", "x"],
     "error[bad-request]: unrecognized arguments: --out x\n"),
    ("validate-out-json", ["validate", "<field>", "--out", "x", "--format", "json"],
     '{"error": {"code": "bad-request", "message": "unrecognized arguments: --out x"}}\n'),
    ("analyze-bogus-json", ["analyze", "<field>", "--bogus"],  # analyze's default format
     '{"error": {"code": "bad-request", "message": "unrecognized arguments: --bogus"}}\n'),
    ("analyze-bogus-text", ["analyze", "<field>", "--bogus", "--format", "text"],
     "error[bad-request]: unrecognized arguments: --bogus\n"),
    ("validate-format-no-value", ["validate", "<field>", "--format"],
     "error[bad-request]: argument --format: expected one argument\n"),
    ("analyze-format-no-value", ["analyze", "<field>", "--format"],
     '{"error": {"code": "bad-request", "message": "argument --format: expected one argument"}}\n'),
]


@pytest.mark.parametrize("argv, stderr", [row[1:] for row in _REJECTION_BYTES],
                         ids=[row[0] for row in _REJECTION_BYTES])
def test_rejection_bytes_pinned(argv, stderr, two_cell_file, cyclic_file, tmp_path, capsys):
    names = {"<missing>": str(tmp_path / "missing.tf"), "<cyclic>": cyclic_file,
             "<field>": two_cell_file}
    argv = [names.get(a, a) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", stderr.replace("<missing>", names["<missing>"]))

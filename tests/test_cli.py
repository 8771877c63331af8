"""Command line behavior: formats, files, exit codes."""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
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

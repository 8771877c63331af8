"""Command line behavior: formats, files, exit codes."""
from __future__ import annotations

import hashlib
import io
import json
import random

import pytest

from krtorus.cli import main
from krtorus.errors import InputRejected
from krtorus.fields import MAX_PRESET_GRID, _check_preset_grid, preset_field
from krtorus.surface import dump_surface


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
    # U, D and V come from a fixed pivot rule, so their JSON bytes are pinned
    h = hashlib.sha256()
    for m in _snf_pool():
        assert main(["snf", f"--matrix={m}", "--format", "json"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "f865612a425379409eb73d5735bef26b190078215fed8364ef98a4de25aff686"

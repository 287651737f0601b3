"""Command-line interface: JSON output, exit codes, determinism."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import clflats
from clflats.cli import run
from clflats.geometry import ISOTROPIC_ENUM_BOUND

BASE = ["--case", "symplectic", "--q", "2", "--nu", "2"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_space_info(capsys):
    code, data = run_json(capsys, ["space", "info"] + BASE)
    assert code == 0
    assert data["flat_counts"]["2"] == "60"
    assert data["incidence_rank"] == "16"
    assert data["points"] == "16"
    assert data["set_denominator"] == "15"


def test_every_number_is_a_string(capsys):
    code, data = run_json(capsys, ["scheme", "eigenmatrix"] + BASE)
    assert code == 0

    def walk(node):
        assert not isinstance(node, (int, float)) or isinstance(node, bool)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(data)
    assert data["valencies"] == ["1", "3", "12", "12", "32"]
    assert data["multiplicities"] == ["1", "15", "9", "30", "5"]


def test_unsupported_configs_exit_2(capsys):
    assert run(["space", "info", "--case", "orthogonal", "--q", "2", "--nu", "2"]) == 2
    assert run(["space", "info", "--case", "unitary", "--q", "3", "--nu", "1"]) == 2
    assert run(["space", "info", "--case", "symplectic", "--q", "2"]) == 2
    assert run(["bogus-command"]) == 2
    capsys.readouterr()


def test_enumerate_and_counts(capsys):
    code, data = run_json(capsys, ["enumerate", "flats", "--m", "2"] + BASE)
    assert code == 0 and data["count"] == "60" and "flats" not in data
    code, data = run_json(capsys, ["enumerate", "flats", "--m", "1",
                                   "--emit-matrices"] + BASE)
    assert code == 0 and len(data["flats"]) == 120
    assert set(data["flats"][0]) == {"basis", "rep"}


def test_scheme_verify(capsys):
    code, data = run_json(capsys, ["scheme", "verify"] + BASE)
    assert code == 0 and data["pass"] is True and data["mode"] == "exhaustive"


def test_spreads_enumerate(capsys):
    code, data = run_json(capsys, ["spreads", "enumerate", "--type", "I"] + BASE)
    assert code == 0 and data["count"] == "15"
    assert all(s["type"] == "I" for s in data["spreads"])
    code, data = run_json(capsys, ["spreads", "enumerate", "--type", "all"] + BASE)
    assert code == 0 and data["count"] == "105" and data["exhaustive"] is True


def test_spreads_enumerate_in_scope_flat(tmp_path, capsys):
    scope = {"basis": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "rep": [0, 0, 0, 0]}
    scopefile = tmp_path / "scope.json"
    scopefile.write_text(json.dumps(scope))
    code, data = run_json(capsys, ["spreads", "enumerate", "--scope",
                                   f"flat:{scopefile}"] + BASE)
    assert code == 0 and data["count"] == "3" and data["exhaustive"] is True
    as_strings = {"basis": [[str(c) for c in row] for row in scope["basis"]],
                  "rep": [str(c) for c in scope["rep"]]}
    assert all(s["scope"] == as_strings for s in data["spreads"])
    assert [s["type"] for s in data["spreads"]] == ["I"] * 3
    # two 4-point flats cover the scope's 8 points; its 6 flats fall into 3 classes
    assert all(len(s["members"]) == 2 for s in data["spreads"])
    assert len({m for s in data["spreads"] for m in s["members"]}) == 6
    assert run(["spreads", "enumerate", "--scope", str(scopefile)] + BASE) == 2
    capsys.readouterr()


def test_cl_roundtrip(tmp_path, capsys):
    code, pencil = run_json(capsys, ["cl", "construct", "--pencil", "0,0,0,0"] + BASE)
    assert code == 0 and pencil["size"] == "15" and pencil["x"] == "1"
    setfile = tmp_path / "pencil.json"
    setfile.write_text(json.dumps(pencil))

    code, verdict = run_json(capsys, ["cl", "test", "--in", str(setfile)] + BASE)
    assert code == 0 and verdict["is_cameron_liebler"] is True
    assert set(verdict["verdicts"]) == {"image", "spectrum", "shifted",
                                        "counts", "spreads"}

    code, single = run_json(capsys, ["cl", "test", "--in", str(setfile),
                                     "--method", "kernel"] + BASE)
    assert code == 0 and single["verdicts"] == {"kernel": True}

    code, comp = run_json(capsys, ["cl", "construct", "--complement-of",
                                   str(setfile)] + BASE)
    assert code == 0 and comp["x"] == "3"

    code, prof = run_json(capsys, ["cl", "profile", "--set", str(setfile),
                                   "--i", "1"] + BASE)
    assert code == 0 and prof["degree_identity"] is True


def test_cl_test_shifted_method_exit_codes(tmp_path, capsys):
    """The shifted route is offered; a member exits 0 and a non-member 1."""
    code, pencil = run_json(capsys, ["cl", "construct", "--pencil", "0,0,0,0"] + BASE)
    setfile = tmp_path / "pencil.json"
    setfile.write_text(json.dumps(pencil))
    code, verdict = run_json(capsys, ["cl", "test", "--in", str(setfile),
                                      "--method", "shifted"] + BASE)
    assert code == 0 and verdict["verdicts"] == {"shifted": True}
    # a near miss: one pencil member swapped for a flat outside the pencil
    near = [str(i) for i in range(60) if str(i) not in pencil["ids"]][0]
    setfile.write_text(json.dumps({"ids": pencil["ids"][1:] + [near]}))
    for method in ("shifted", "auto"):
        code, verdict = run_json(capsys, ["cl", "test", "--in", str(setfile),
                                          "--method", method] + BASE)
        assert code == 1 and verdict["is_cameron_liebler"] is False


def test_cl_set_by_explicit_flats(tmp_path, capsys):
    code, pencil = run_json(capsys, ["cl", "construct", "--pencil", "0,0,0,0"] + BASE)
    code, listing = run_json(capsys, ["enumerate", "flats", "--m", "2",
                                      "--emit-matrices"] + BASE)
    chosen = [listing["flats"][int(i)] for i in pencil["ids"]]
    blob = {"config": {"case": "symplectic", "q": 2, "nu": 2},
            "flats": [{"basis": f["basis"], "rep": f["rep"]} for f in chosen]}
    setfile = tmp_path / "byflats.json"
    setfile.write_text(json.dumps(blob))
    code, verdict = run_json(capsys, ["cl", "test", "--in", str(setfile)] + BASE)
    assert code == 0 and verdict["set"]["ids"] == pencil["ids"]


def test_cl_union(tmp_path, capsys):
    base = ["--case", "orthogonal", "--q", "3", "--nu", "2"]
    code, p0 = run_json(capsys, ["cl", "construct", "--pencil", "0,0,0,0"] + base)
    code, p1 = run_json(capsys, ["cl", "construct", "--pencil", "1,0,1,0"] + base)
    f0, f1 = tmp_path / "p0.json", tmp_path / "p1.json"
    f0.write_text(json.dumps(p0))
    f1.write_text(json.dumps(p1))
    code, union = run_json(capsys, ["cl", "construct", "--union", str(f0), str(f1)] + base)
    assert code == 0 and union["x"] == "2"


def test_cl_search(capsys):
    base = ["--case", "symplectic", "--q", "2", "--nu", "1"]
    code, data = run_json(capsys, ["cl", "search", "--x", "1",
                                   "--strategy", "exhaustive"] + base)
    assert code == 0 and data["count"] == "8"


def test_verify_paper_single_config(capsys):
    code, data = run_json(capsys, ["verify", "--suite", "paper"] + BASE)
    assert code == 0 and data["pass"] is True
    names = [c["name"] for c in data["reports"][0]["checks"]]
    assert "incidence_rank" in names and "typeII_span_rank" in names


def test_verify_valuations_reports_erratum(capsys):
    code, data = run_json(capsys, ["verify", "--suite", "valuations",
                                   "--case", "symplectic", "--q", "2",
                                   "--nu-max", "5"])
    assert code == 1  # the stated table deviates from ground truth: honest failure
    byname = {c["name"]: c for c in data["checks"]}
    assert byname["valuation_infinity_branches"]["pass"] is True
    assert byname["valuation_piecewise_agreement_numax5"]["pass"] is False
    code, data = run_json(capsys, ["verify", "--suite", "valuations",
                                   "--case", "unitary", "--q", "4", "--nu-max", "6"])
    assert code == 0 and data["pass"] is True


def test_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--suite", "paper"] + BASE + ["--out", str(out1)]) == 0
    assert run(["verify", "--suite", "paper"] + BASE + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "info.json"
    assert run(["space", "info"] + BASE + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["points"] == "16"


def test_paper_report_matches_reference_digest():
    """The report bytes hash to the digests the benchmark checks (read-only here).

    orthogonal(3,2) runs the type-II span check, so it also pins the order
    and content of the type-II spread family.
    """
    root = Path(__file__).resolve().parent.parent
    with open(root / "perfbench" / "reference_digests.json") as fh:
        reference = json.load(fh)
    for case, q, nu in (("symplectic", 2, 2), ("unitary", 4, 1), ("orthogonal", 3, 2)):
        argv = ["verify", "--suite", "paper", "--case", case, "--q", str(q), "--nu", str(nu),
                "--seed", "0"]
        proc = subprocess.run([sys.executable, "-m", "clflats.cli", *argv],
                              capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == reference[f"{case}-{q}-{nu}"]["0"], (case, q, nu)


def _one_line_error(capsys, argv, *fragments):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert all(f in lines[0] for f in fragments), lines[0]


def test_pencil_coordinate_out_of_range_exits_2(capsys):
    _one_line_error(capsys, ["cl", "construct", "--pencil", "0,0,0,9"] + BASE,
                    "coordinate 9", "0..1")
    _one_line_error(capsys, ["cl", "construct", "--pencil", "0,0,0"] + BASE,
                    "'0,0,0'", "3 coordinates")
    _one_line_error(capsys, ["cl", "construct", "--pencil", "0,x,0,0"] + BASE, "'0,x,0,0'")


def test_set_file_ids_must_be_a_list_of_integers(tmp_path, capsys):
    setfile = tmp_path / "bad.json"
    setfile.write_text(json.dumps({"ids": 5}))
    _one_line_error(capsys, ["cl", "test", "--in", str(setfile)] + BASE, "'ids'", "got 5")
    setfile.write_text(json.dumps({"ids": ["1", 2.5]}))
    _one_line_error(capsys, ["cl", "test", "--in", str(setfile)] + BASE, "entry 2.5")
    setfile.write_text(json.dumps([1, 2]))
    _one_line_error(capsys, ["cl", "test", "--in", str(setfile)] + BASE, "JSON object")


def test_nu_zero_is_named(capsys):
    _one_line_error(capsys, ["space", "info", "--case", "symplectic", "--q", "2", "--nu", "0"],
                    "nu=0")
    _one_line_error(capsys, ["space", "info", "--case", "symplectic", "--q", "0", "--nu", "2"],
                    "order 0")
    _one_line_error(capsys, ["verify", "--nu", "0"], "--nu")


def test_flat_type_out_of_range_is_named(capsys):
    for m in ("9", "-1"):
        _one_line_error(capsys, ["enumerate", "flats", "--m", m] + BASE,
                        f"m={m} out of range 0..2")


def test_oversized_isotropic_enumeration_exits_2():
    """symplectic(9,4) has about 3.9e9 maximal totally isotropic subspaces.

    The child gets an address-space cap and a timeout, so a missing size
    check ends as a failed test, not as a host out of memory.
    """
    root = Path(__file__).resolve().parent.parent
    cap = ("import resource, sys; from clflats.cli import run; "
           "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
           "sys.exit(run(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", cap, "space", "info", "--case", "symplectic",
                           "--q", "9", "--nu", "4"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "enumeration bound exceeded" in lines[0], proc.stderr
    assert f"> {ISOTROPIC_ENUM_BOUND}" in lines[0]


def test_failed_image_certificate_exits_3():
    """A broken reconstruction must fail the certificate and exit 3, not 1 or 2."""
    root = Path(__file__).resolve().parent.parent
    broken = ("import sys; from clflats import exact; from clflats.cli import run; "
              "real = exact._rational; "
              "exact._rational = lambda u, p: real(u, p) + 1; "
              "sys.exit(run(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", broken, "space", "info"] + BASE,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("clflats: internal error: ") and "certificate" in lines[0]


def test_no_bare_asserts_in_package():
    """python -O strips assert statements, so the package raises explicitly."""
    for path in sorted(Path(clflats.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)], path.name

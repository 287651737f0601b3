"""Command-line interface: JSON output, exit codes, determinism."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clflats
from clflats import cl, exact, spreads
from clflats.cli import VALUATION_NU_MAX, run
from clflats.geometry import ISOTROPIC_ENUM_BOUND, enumerate_isotropic, space_config

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


def test_no_passing_path_reaches_the_certified_null_basis(capsys, monkeypatch):
    """With exact.certified_null_basis replaced by a function that raises,
    from cold rank and spread caches: the paper suite passes on every grid
    configuration, and so do space info and the battery of a pencil and of
    its complement."""
    from clflats import flats
    from clflats.cli import STANDARD_GRID, paper_suite

    def refuse(matrix):
        raise AssertionError("a certified null basis on a passing path")

    monkeypatch.setattr(exact, "certified_null_basis", refuse)
    for fn in (flats.gram_spectrum, flats.incidence_rank, spreads.character_plan):
        fn.cache_clear()
    for key in STANDARD_GRID:
        cfg = space_config(*key)
        assert all(check.passed for check in paper_suite(cfg, 0)), key
        code, data = run_json(capsys, ["space", "info", "--case", key[0], "--q", str(key[1]),
                                       "--nu", str(key[2])])
        assert code == 0 and data["incidence_rank"] == data["incidence_rank_closed_form"]
        pencil = cl.construct_pencil(cfg, (0,) * cfg.dim)
        for fs in (pencil, pencil.complement()):
            assert all(cl.battery(fs).values()), key


def test_symplectic_2_4_space_info_within_1_gib():
    """A cold child process reads the rank of the 256 x 36720 incidence
    matrix of symplectic(2,4) off the spectrum of M M^T under a 1 GiB
    address-space cap set on the child only."""
    cap = ("import resource, sys; from clflats.cli import run; "
           "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
           "sys.exit(run(sys.argv[1:]))")
    proc = _child(cap, ["space", "info", "--case", "symplectic", "--q", "2", "--nu", "4"],
                  timeout=60)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["incidence_rank"] == data["incidence_rank_closed_form"] == "256"


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


def _swap_one_flat(stack):
    """Type-II row 0 with its first member swapped for its first
    non-member, so that it no longer covers each point once."""
    member, other = np.flatnonzero(stack[0])[0], np.flatnonzero(stack[0] == 0)[0]
    stack[0, member], stack[0, other] = 0, 1


def _move_within_block(stack):
    """Type-I row 0 with one unit moved from its first flat to its second,
    of the same direction block: the block sum stays, constancy goes."""
    stack[0, 0] -= 1
    stack[0, 1] += 1


def _union_of_two_blocks(stack):
    """Type-I row 0 replaced by the union of direction blocks 0 and 1."""
    stack[0] |= stack[1]


@pytest.mark.parametrize("part,tamper,failing", [
    # the swapped row leaves the span too, so the rank rises to 46
    ("II", _swap_one_flat, ["typeII_span_rank", "typeII_projectors"]),
    ("I", _move_within_block, ["typeI_projectors"]),
    ("I", _union_of_two_blocks, []),
], ids=["typeII-swap", "typeI-move", "typeI-union"])
def test_tampered_span_rows_fail_their_projector_check(capsys, monkeypatch, part, tamper,
                                                       failing):
    """A corrupted spread row fails its span check's vanishing condition,
    and verify reports it with exit 1, never a crash or exit 2 or 3; a
    row that stays constant on each direction block passes."""
    dirs = len(enumerate_isotropic(space_config("symplectic", 2, 2), 2))
    target = slice(dirs, None) if part == "II" else slice(dirs)
    real = spreads.family_indicators

    def tampered(config, rows=slice(None)):
        stack = real(config, rows)
        if rows == target:
            tamper(stack)
        return stack

    monkeypatch.setattr(spreads, "family_indicators", tampered)
    code, data = run_json(capsys, ["verify", "--suite", "paper"] + BASE)
    assert code == (1 if failing else 0) and data["pass"] is (not failing)
    checks = data["reports"][0]["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == failing


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


def test_valuation_suite_evaluates_each_cell_once(monkeypatch):
    """Both valuation checks read one pass over the grid: q_valuation runs
    once per (nu, i, j) cell."""
    from clflats import cli, scheme
    calls = []
    real = scheme.q_valuation
    monkeypatch.setattr(scheme, "q_valuation", lambda *args: calls.append(args[2:]) or real(*args))
    checks = cli.valuation_suite("orthogonal", 7, 9)
    assert calls == [(nu, i, j) for nu in range(2, 10)
                     for i in range(2, nu + 1) for j in range(2, nu + 1)]
    assert [c.name for c in checks] == ["valuation_piecewise_agreement_numax9",
                                        "valuation_infinity_branches"]


def test_paper_suite_builds_the_point_graph_once():
    """The Gram identity and the point-graph check share one cached graph."""
    from clflats import cli, geometry
    cfg = space_config("unitary", 4, 1)
    geometry.point_graph.cache_clear()
    assert all(c.passed for c in cli.paper_suite(cfg, 0))
    info = geometry.point_graph.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


def test_paper_report_matches_reference_digest(capsys):
    """The report bytes hash to the digests the benchmark checks (read-only here):
    every seed of the reference file in process, and seed 0 once more in a
    child process through `python -m clflats.cli`.

    orthogonal(3,2) runs the type-II span check, so it also pins the order
    and content of the type-II spread family; each seed draws its own
    sampled checks, among them the 100-set equivalence sample.
    """
    root = Path(__file__).resolve().parent.parent
    with open(root / "perfbench" / "reference_digests.json") as fh:
        reference = json.load(fh)
    for case, q, nu in (("symplectic", 2, 2), ("unitary", 4, 1), ("orthogonal", 3, 2)):
        argv = ["verify", "--suite", "paper", "--case", case, "--q", str(q), "--nu", str(nu)]
        digests = reference[f"{case}-{q}-{nu}"]
        assert len(digests) == 16
        for seed, want in digests.items():
            assert run(argv + ["--seed", seed]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want, \
                (case, q, nu, seed)
        proc = subprocess.run([sys.executable, "-m", "clflats.cli", *argv, "--seed", "0"],
                              capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == digests["0"], (case, q, nu)


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


@pytest.mark.parametrize("flags,fragment", [
    (["--case", "orthogonal", "--q", "2"], "odd q"),
    (["--case", "symplectic", "--q", "6"], "order 6"),
    (["--case", "unitary", "--q", "3"], "square field order"),
    (["--case", "symplectic", "--q", "2", "--nu-max", "1"], f"2..{VALUATION_NU_MAX}, got 1"),
    (["--case", "symplectic", "--q", "2", "--nu-max", "0"], "got 0"),
    (["--case", "symplectic", "--q", "2", "--nu-max", "-3"], "got -3"),
    (["--case", "unitary", "--q", "9", "--nu-max", str(VALUATION_NU_MAX + 1)],
     f"got {VALUATION_NU_MAX + 1}"),
    (["--case", "unitary", "--q", "9", "--nu-max", "60"], "got 60"),
], ids=["orthogonal-even-q", "no-field", "unitary-nonsquare", "nu-max-1", "nu-max-0",
        "nu-max-negative", "nu-max-above-cap", "nu-max-60"])
def test_valuation_suite_input_exits_2(capsys, flags, fragment):
    """The valuation suite takes case and q by the space_config rules and
    --nu-max in 2..VALUATION_NU_MAX, like every other command's input."""
    _one_line_error(capsys, ["verify", "--suite", "valuations"] + flags, fragment)


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


def _child(code: str, argv: list[str], timeout: int = 120) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          cwd=root)


def test_oversized_isotropic_enumeration_exits_2():
    """symplectic(9,4) has about 3.9e9 maximal totally isotropic subspaces.

    The child gets an address-space cap and a timeout, so a missing size
    check ends as a failed test, not as a host out of memory.
    """
    cap = ("import resource, sys; from clflats.cli import run; "
           "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
           "sys.exit(run(sys.argv[1:]))")
    proc = _child(cap, ["space", "info", "--case", "symplectic", "--q", "9", "--nu", "4"],
                  timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "enumeration bound exceeded" in lines[0], proc.stderr
    assert f"> {ISOTROPIC_ENUM_BOUND}" in lines[0]


def test_failed_image_certificate_exits_3():
    """An eigenvalue candidate of M M^T shifted by 1 must fail the spectrum
    certificate behind the rank of M and exit 3, not 1 or 2."""
    broken = ("import sys; import numpy as np; from clflats.cli import run; "
              "real = np.linalg.eigvalsh; "
              "np.linalg.eigvalsh = lambda a: real(a) + (np.arange(len(a)) == 0); "
              "sys.exit(run(sys.argv[1:]))")
    proc = _child(broken, ["space", "info"] + BASE)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("clflats: internal error: ") and "certificate" in lines[0]


@pytest.mark.parametrize("broken,fragment", [
    # the first member of every spread replaced by its second: M s^T != 1
    ("spreads.family_members = lambda c: real(c)[:, [1] + list(range(1, real(c).shape[1]))]",
     "cover each point once"),
    # the spanning rows cut to their first ten
    ("spreads.family_members = lambda c: real(c)[:len(spreads.list_type_I(c)) + 10]",
     "do not certify ker M"),
], ids=["swapped-member", "cut-rows"])
def test_failed_spread_certificate_exits_3(tmp_path, broken, fragment):
    """cl test --method spreads on a pencil exits 3 when the spread
    certificate fails, with one internal-error line and no report."""
    setfile = tmp_path / "pencil.json"
    assert run(["cl", "construct", "--pencil", "0,0,0,0", "--out", str(setfile)] + BASE) == 0
    code = ("import sys; from clflats import spreads; from clflats.cli import run; "
            f"real = spreads.family_members; {broken}; sys.exit(run(sys.argv[1:]))")
    proc = _child(code, ["cl", "test", "--method", "spreads", "--in", str(setfile)] + BASE)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("clflats: internal error: "), proc.stderr
    assert fragment in lines[0]


def test_failed_membership_plan_exits_3(tmp_path):
    """cl test --method image on a pencil exits 3 when the membership plan's
    build-time check fails (one point's character values off by one), with
    one internal-error line and no report."""
    setfile = tmp_path / "pencil.json"
    assert run(["cl", "construct", "--pencil", "0,0,0,0", "--out", str(setfile)] + BASE) == 0
    code = ("import sys; import numpy as np; from clflats import spreads; "
            "from clflats.cli import run; real = spreads._point_values; "
            "spreads._point_values = lambda c: (real(c) + (np.arange(c.num_points) == 5)) "
            "% c.field.p; sys.exit(run(sys.argv[1:]))")
    proc = _child(code, ["cl", "test", "--method", "image", "--in", str(setfile)] + BASE)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("clflats: internal error: "), proc.stderr
    assert "value group" in lines[0]


# the certificate's own checks: the rd = 1 edges of the kernel with the most
# directions removed, so its graph falls apart; one type-II row dropped, so
# every pair keeps a row but the rows are not closed under translation
CERTIFICATE_TAMPERS = {
    "removed-edges": ("real = spreads._components\n"
                      "def tampered(kernels, partners):\n"
                      "    out = real(kernels, partners)\n"
                      "    k = int(kernels.sum(axis=1).argmax())\n"
                      "    out[k] = real(kernels[k:k + 1], partners[:, :0])[0]\n"
                      "    return out\n"
                      "spreads._components = tampered\n",
                      "is disconnected"),
    "dropped-row": ("real = spreads.family_members\n"
                    "spreads.family_members = lambda c: real(c)[:-1]\n",
                    "not closed under translation"),
}


@pytest.mark.parametrize("how", sorted(CERTIFICATE_TAMPERS))
def test_failed_character_certificate_exits_3(tmp_path, how):
    """cl test --method spreads exits 3, never 0 or 1, with one
    internal-error line when a check of the character certificate fails."""
    tamper, fragment = CERTIFICATE_TAMPERS[how]
    setfile = tmp_path / "pencil.json"
    assert run(["cl", "construct", "--pencil", "0,0,0,0", "--out", str(setfile)] + BASE) == 0
    code = ("import sys\nfrom clflats import spreads\nfrom clflats.cli import run\n"
            f"{tamper}sys.exit(run(sys.argv[1:]))\n")
    proc = _child(code, ["cl", "test", "--method", "spreads", "--in", str(setfile)] + BASE)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("clflats: internal error: "), proc.stderr
    assert "do not certify ker M" in lines[0] and fragment in lines[0]


def test_failed_scheme_invariant_exits_3():
    """The closed-form totals and integrality checks are internal checks."""
    broken_valency = ("import sys; from clflats import scheme; from clflats.cli import run; "
                      "real = scheme.valency; "
                      "scheme.valency = lambda c, r: real(c, r) + 1; "
                      "sys.exit(run(sys.argv[1:]))")
    broken_power = ("import sys; from fractions import Fraction; from clflats import scheme; "
                    "from clflats.cli import run; real = scheme._qpow2_frac; "
                    "scheme._qpow2_frac = lambda *a: real(*a) + Fraction(1, 3); "
                    "sys.exit(run(sys.argv[1:]))")
    for code, fragment in ((broken_valency, "totals disagree"),
                           (broken_power, "non-integral multiplicity")):
        proc = _child(code, ["scheme", "eigenmatrix"] + BASE)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("clflats: internal error: ") and fragment in lines[0]


def test_corrupt_origin_counts_exit_3(monkeypatch):
    """Directions whose flats through the origin share a number of points
    that is no power of q are an internal error: the relation rows raise
    AssertionError, never KeyError, and scheme verify exits 3 with one
    line.  The coset table is corrupted by giving the last point, in every
    direction, the flat through the origin.  relation_rows reads the
    cached direction distances, so that cache is cleared.  The paper
    suite reads the rank of the corrupted incidence matrix first, so its
    verify exits 3 on the eigenvalue certificate of M M^T."""
    from clflats import flats, scheme
    cfg = space_config("symplectic", 2, 2)
    broken = np.array(flats.coset_table(cfg))
    broken[:, -1] = broken[:, 0]
    monkeypatch.setattr(flats, "coset_table", lambda c: broken)
    flats.direction_distances.cache_clear()
    try:
        with pytest.raises(AssertionError, match="no power of q"):
            scheme.relation_rows(cfg, [0])
    finally:
        flats.direction_distances.cache_clear()
    code = ("import sys; import numpy as np; from clflats import flats, scheme; "
            "from clflats.cli import run; real = flats.coset_table; "
            "flats.coset_table = lambda c: np.where("
            "np.arange(c.num_points) == c.num_points - 1, real(c)[:, :1], real(c)); "
            "sys.exit(run(sys.argv[1:]))")
    for argv, fragment in ((["scheme", "verify"], "no power of q"),
                           (["verify", "--suite", "paper"], "certificate")):
        proc = _child(code, argv + BASE)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("clflats: internal error: ") and fragment in lines[0]


@pytest.mark.parametrize("exc", ["IndexError('index 7 is out of bounds')",
                                 "TypeError('unsupported operand')"])
def test_unexpected_exception_exits_3_from_the_console_script(exc, monkeypatch):
    """An exception run maps to no exit code is a bug: the console script
    exits 3 with one `clflats: internal error: <Type>: <message>` line and
    no report, never 1 ("a check failed").  run itself lets it through, so
    the in-process fuzz still sees it."""
    code = ("import sys; from clflats import flats; from clflats.cli import main; "
            f"flats.count_flats = lambda *a: (_ for _ in ()).throw({exc}); main()")
    argv = ["verify", "--suite", "paper", "--case", "symplectic", "--q", "2", "--nu", "1"]
    proc = _child(code, argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    name, message = exc.split("(")[0], exc.split("'")[1]
    assert lines == [f"clflats: internal error: {name}: {message}"], proc.stderr
    from clflats import flats
    monkeypatch.setattr(flats, "count_flats", lambda *a: [][1])
    with pytest.raises(IndexError):
        run(argv)


def test_zero_division_and_usage_errors_keep_exit_2(capsys):
    _one_line_error(capsys, ["cl", "search", "--x", "1/0", "--strategy", "exhaustive"] + BASE,
                    "Fraction(1, 0)")
    _one_line_error(capsys, ["space", "info", "--out", "/nonexistent-dir/out"] + BASE,
                    "/nonexistent-dir/out")


def test_malformed_set_and_scope_files_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text, fragment in (('{"config": 5, "ids": [1]}', "'config'"),
                           ('{"config": {"case": "symplectic", "q": [2], "nu": 2}, "ids": [1]}',
                            "entry [2]"),
                           ('{"flats": 5}', "'flats' must be a list"),
                           ('{"flats": [{"basis": [[9, 0, 0, 0]], "rep": [0, 0, 0, 0]}]}',
                            "coordinate 9"),
                           ('{"flats": [[1]]}', "'basis' list"),
                           ("[" * 100000, "nested too deeply")):
        bad.write_text(text)
        _one_line_error(capsys, ["cl", "test", "--in", str(bad)] + BASE, fragment)
    for text, fragment in (("[1]", "'basis' list"), ('{"basis": 5, "rep": 1}', "'basis' list"),
                           ('{"basis": [[1, 0]], "rep": [0]}', "2 coordinates")):
        bad.write_text(text)
        _one_line_error(capsys, ["spreads", "enumerate", "--scope", f"flat:{bad}"] + BASE,
                        fragment)


def test_profile_needs_a_cameron_liebler_set(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps({"ids": [0, 1, 2]}))
    _one_line_error(capsys, ["cl", "profile", "--set", str(setfile), "--i", "1"] + BASE,
                    "Cameron-Liebler")
    setfile.write_text(json.dumps({"ids": []}))
    _one_line_error(capsys, ["cl", "profile", "--set", str(setfile), "--i", "1"] + BASE,
                    "non-empty")


def test_profile_restricts_to_each_container_once(tmp_path, capsys, monkeypatch):
    """cl profile builds the base flat's containers once and restricts the
    set to each of them once: the degree identity is read off the
    profile's container parameters."""
    calls = {"container_flats": 0, "restrict_cl": 0}
    for name in calls:
        real = getattr(cl, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cl, name, counted)
    code, pencil = run_json(capsys, ["cl", "construct", "--pencil", "0,0,0,0"] + BASE)
    setfile = tmp_path / "pencil.json"
    setfile.write_text(json.dumps(pencil))
    code, prof = run_json(capsys, ["cl", "profile", "--set", str(setfile), "--i", "1"] + BASE)
    assert code == 0 and prof["degree_identity"] is True
    assert calls == {"container_flats": 1, "restrict_cl": 3}


def test_fuzzed_command_lines_exit_cleanly():
    """Drawn argv and set files: exit 0-3 and no traceback (tests/cli_fuzz.py,
    in a child process with its own address-space cap)."""
    fuzz = Path(__file__).resolve().parent / "cli_fuzz.py"
    proc = _child(f"import runpy; runpy.run_path({str(fuzz)!r}, run_name='__main__')", [])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_no_bare_asserts_in_package():
    """python -O strips assert statements, so the package raises explicitly."""
    for path in sorted(Path(clflats.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)], path.name


def test_cold_verify_imports_no_numpy_ma():
    """A cold paper verify never imports numpy.ma (under numpy 2, the first
    np.unique or np.setdiff1d does, at about 14 ms).  Skipped where a bare
    `import numpy` already loads it, as numpy 1.24 does."""
    bare = _child("import sys, numpy; print('numpy.ma' in sys.modules)", [])
    if bare.stdout.strip() == "True":
        pytest.skip("import numpy already loads numpy.ma")
    code = ("import sys; from clflats.cli import run; status = run(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules, status, file=sys.stderr)")
    proc = _child(code, ["verify", "--suite", "paper"] + BASE)
    assert proc.stderr.strip() == "False 0", proc.stderr
    digests = Path(__file__).resolve().parent.parent / "perfbench" / "reference_digests.json"
    want = json.loads(digests.read_text())["symplectic-2-2"]["0"]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == want

"""Fuzz `clflats.cli.run` in this process: every argv drawn from the
parser's grammar, with well-formed and malformed set files, must exit
with a code in {0, 1, 2, 3} and print no traceback.

Run as a script (tests/test_cli.py does so in a child process): it caps
its own address space, then runs a derandomized hypothesis loop and exits
nonzero with the falsifying example if any run misbehaves.  Valid
configurations come only from the sub-second grid (nu <= 2, at most 100
maximal flats); the invalid ones fail validation before any enumeration.

    python tests/cli_fuzz.py [examples per command form]
"""

import contextlib
import io
import json
import os
import resource
import sys
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from clflats.cl import construct_pencil
from clflats.cli import run
from clflats.geometry import space_config

VALID = (("symplectic", 2, 1), ("symplectic", 3, 1), ("unitary", 4, 1),
         ("orthogonal", 3, 1), ("orthogonal", 5, 1), ("symplectic", 2, 2),
         ("orthogonal", 3, 2))
INVALID = (("symplectic", 2, 0), ("symplectic", 3, -1), ("symplectic", 6, 1),
           ("symplectic", 1, 2), ("symplectic", 0, 1), ("orthogonal", -3, 1),
           ("unitary", 3, 1), ("unitary", 5, 2), ("orthogonal", 2, 1),
           ("orthogonal", 4, 2), ("hermitian", 2, 2), ("symplectic", 10**30, 1))

KEYS = ("ids", "flats", "config", "basis", "rep", "case", "q", "nu")
scalars = (st.none() | st.booleans() | st.integers(-3, 100) | st.text(max_size=4)
           | st.floats(allow_nan=False, allow_infinity=False))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=8)
points = st.lists(st.integers(-1, 9) | st.sampled_from(["0", "1", "x"]), max_size=5)
flat_blobs = st.fixed_dictionaries({"basis": st.lists(points, max_size=3), "rep": points})
config_blobs = st.sampled_from(VALID + INVALID).map(
    lambda t: {"case": t[0], "q": str(t[1]), "nu": t[2]}) | json_values
set_docs = st.one_of(
    st.lists(st.integers(0, 5), max_size=6, unique=True).map(lambda ids: json.dumps({"ids": ids})),
    st.sampled_from(["[" * 100000, '{"ids": [1, 2', "\ufeff{}", "null", "", "[1]",
                     '{"ids": 5}', '{"flats": 5}', '{"flats": [[1]]}', '{"flats": [5]}',
                     '{"config": 5, "ids": []}', '{"config": {"case": [1]}, "ids": []}',
                     '{"basis": 5, "rep": 1}', '{"basis": [[1, 0]], "rep": 0}']),
    st.fixed_dictionaries({"ids": st.lists(st.integers(0, 5) | st.integers(-2, 80), max_size=12)},
                          optional={"config": config_blobs}).map(json.dumps),
    st.fixed_dictionaries({"flats": st.lists(flat_blobs, max_size=3)},
                          optional={"config": config_blobs}).map(json.dumps),
    flat_blobs.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=12),
)


def config_flags(draw, config, allow_none: bool) -> list[str]:
    """The flags of a valid configuration, or of a drawn invalid or partial one."""
    if config is not None:
        return ["--case", config[0], "--q", str(config[1]), "--nu", str(config[2])]
    case, q, nu = draw(st.sampled_from(INVALID + VALID))
    flags = ["--case", case, "--q", str(q), "--nu", str(nu)]
    if (case, q, nu) in VALID or draw(st.booleans()):
        keep = draw(st.sampled_from([0, 2, 4] + ([6] if allow_none else [])))
        flags = [] if keep == 6 else flags[:keep] + flags[keep + 2:]
    return flags


def forms(files: list[str]) -> dict[str, list]:
    """The parser's command forms: literal words, and strategies for the
    drawn ones (a drawn tuple stands for several words)."""
    choice, file = st.sampled_from, st.sampled_from(files)
    return {
        "space": ["space", choice(["info", "bogus"])],
        "enumerate": ["enumerate", choice(["flats", "subspaces"]), "--m",
                      choice(["-1", "0", "1", "2", "3", "9", "x"]),
                      choice([(), ("--emit-matrices",)])],
        "scheme": ["scheme", choice(["eigenmatrix", "verify"])],
        "spreads": ["spreads", "enumerate", "--type", choice(["I", "II", "all", "III"]),
                    "--scope", choice(["full", "bogus", "flat:"])],
        "spreads-scope": ["spreads", "enumerate", "--scope", file.map("flat:{}".format)],
        "cl-test": ["cl", "test", "--in", file | st.just("-"), "--method",
                    choice(["auto", "image", "kernel", "spectrum", "shifted", "counts",
                            "spreads", "none"])],
        "cl-construct": ["cl", "construct"],
        "cl-pencil": ["cl", "construct", "--pencil",
                      choice(["0,0,0,0", "0,0", "1,x", "0,1,2,0", "", "0,0,0,0,0"])],
        "cl-complement": ["cl", "construct", "--complement-of", file],
        "cl-union": ["cl", "construct", "--union", file, file],
        "cl-profile": ["cl", "profile", "--set", file, "--i", choice(["1", "-1", "0", "2"]),
                       choice([(), ("--base", "0"), ("--base", "5"), ("--base", "-1"),
                               ("--base", str(10**20))])],
        # a larger x makes pencil_closure search unions of up to x disjoint pencils
        "cl-search": ["cl", "search", "--x", choice(["0", "1", "1/2", "-1", "abc", "1/0",
                                                     "3/2", "1e-3"]),
                      "--strategy", choice(["exhaustive", "pencil_closure", "seeded_random",
                                            "other"])],
        "verify": ["verify", "--suite", choice(["paper", "other"])],
        "valuations": ["verify", "--suite", "valuations", "--nu-max",
                       choice(["-1", "0", "2", "3"])],
        "garbage": [st.lists(choice(["--q", "2", "-h", "cl", "--nu", "x", "--"]),
                             max_size=4).map(tuple)],
    }


@st.composite
def argvs(draw, form: str, config, files: list[str]):
    argv = []
    for part in forms(files)[form]:
        word = part if isinstance(part, str) else draw(part)
        argv += [word] if isinstance(word, str) else list(word)
    # with no configuration flags the paper suite runs the whole grid
    argv += config_flags(draw, config, allow_none=form != "verify")
    argv += draw(st.sampled_from([(), (), ("--seed", "-3"), ("--seed", "x"),
                                  ("--seed", str(10**20))]))
    out = draw(st.sampled_from([None, None, os.path.join(os.path.dirname(files[0]), "out"),
                                "/nonexistent-dir/out"]))
    return argv if out is None else argv + ["--out", out]


def main(max_examples: int) -> None:
    """max_examples runs of each command form, on a valid configuration or
    on an invalid or partial one."""
    with tempfile.TemporaryDirectory() as tmp:
        files = [os.path.join(tmp, f"set{k}.json") for k in range(2)]

        @settings(max_examples=max_examples, deadline=None, database=None, derandomize=True,
                  suppress_health_check=list(HealthCheck))
        @given(st.data())
        def check(form, data):
            docs = [data.draw(set_docs) for _ in files]
            for path, doc in zip(files, docs):
                with open(path, "w") as fh:
                    fh.write(doc)
            config = data.draw(st.sampled_from(VALID + (None,)))
            if config is not None and data.draw(st.booleans()):
                # Cameron-Liebler sets, so that the reports of valid input run too
                pencil = construct_pencil(space_config(*config), (0,) * 2 * config[2])
                for path, fs in zip(files, (pencil, pencil.complement())):
                    with open(path, "w") as fh:
                        fh.write(json.dumps({"ids": list(fs.ids)}))
            argv = data.draw(argvs(form, config, files))
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.StringIO(docs[0])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err.getvalue(), (argv, err.getvalue())

        for form in forms(files):
            check(form)


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)

"""Command-line front end: construction, tables, set tools, verification.

Output is JSON on stdout (or --out) with every number rendered as a
decimal string ("n/d" for non-integral rationals); reports are
byte-identical across runs with the same arguments and seed.  Exit
codes: 0 all checks pass, 1 some check failed (report still emitted;
for `cl test`, the set is not a Cameron-Liebler set), 2 usage or
configuration error, 3 internal error (a failed exact certificate, a
disagreement between equivalent routes, a closed-form scheme invariant
that does not hold, memory exhausted, or, from the console script, any
other exception, a bug, as `clflats: internal error: <Type>: <message>`;
one `clflats: internal error: ...` line on stderr and no report).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import cl, exact, flats, scheme, spreads
from .field import e_power
from .geometry import SpaceConfig, canonicalize, enumerate_isotropic, point_graph, space_config

STANDARD_GRID = (
    ("symplectic", 2, 1), ("symplectic", 3, 1), ("symplectic", 2, 2),
    ("symplectic", 3, 2), ("symplectic", 2, 3),
    ("unitary", 4, 1), ("unitary", 4, 2),
    ("orthogonal", 3, 1), ("orthogonal", 5, 1), ("orthogonal", 3, 2),
)

FULL_MATRIX_BOUND = 500
# the valuation grid grows about as nu_max^6: at 20 it takes 0.4 s for
# unitary q = 9 (2-vCPU host), at 30 2.4 s and at 40 12 s
VALUATION_NU_MAX = 20


# ---------------------------------------------------------------------------
# JSON rendering (numbers as decimal strings, deterministic layout)

def render(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): render(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [render(v) for v in value]
    if isinstance(value, np.ndarray):
        return [render(v) for v in value.tolist()]
    return value


def emit(payload, out_path: str | None) -> None:
    text = json.dumps(render(payload), sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def config_blob(config: SpaceConfig) -> dict:
    return {"case": config.case, "q": config.q, "nu": config.nu}


def flat_blob(config: SpaceConfig, f: flats.Flat) -> dict:
    return {"basis": [list(r) for r in f.direction.basis], "rep": list(f.rep)}


def flatset_blob(fs: cl.FlatSet) -> dict:
    return {"config": config_blob(fs.config), "ids": list(fs.ids),
            "size": fs.size, "x": fs.x}


def spread_blob(config: SpaceConfig, s: spreads.Spread) -> dict:
    return {
        "config": config_blob(config),
        "scope": "full" if s.scope is None else flat_blob(config, s.scope),
        "members": list(s.members),
        "type": s.tag,
    }


# ---------------------------------------------------------------------------
# set input

def _read_json(path: str):
    """A JSON file, or stdin for '-'."""
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def load_flatset(config: SpaceConfig, path: str) -> cl.FlatSet:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError("set file must hold a JSON object")
    if "config" in data:
        blob = data["config"]
        if not isinstance(blob, dict) or not isinstance(blob.get("case"), str):
            raise ValueError("set file 'config' must be an object with a 'case' string")
        q, nu = _integers([blob["q"], blob["nu"]], "set file 'config' q and nu")
        if space_config(blob["case"], q, nu) is not config:
            raise ValueError("set file configuration disagrees with the flags")
    if "ids" in data:
        return cl.FlatSet(config, _integers(data["ids"], "set file 'ids'"))
    if "flats" in data:
        if not isinstance(data["flats"], list):
            raise ValueError("set file 'flats' must be a list")
        ids = flats.flat_ids(config)
        return cl.FlatSet(config, tuple(ids[_flat(config, blob)] for blob in data["flats"]))
    raise ValueError("set file needs an 'ids' or 'flats' field")


def _integers(values, what: str) -> tuple[int, ...]:
    """A list of integers, given as numbers or decimal strings."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    out = []
    for i in values:
        try:
            if isinstance(i, bool) or not isinstance(i, (int, str)):
                raise TypeError
            out.append(int(i))
        except (TypeError, ValueError):
            raise ValueError(f"{what} entry {i!r} is not an integer") from None
    return tuple(out)


def _check_point(config: SpaceConfig, point: tuple[int, ...], text: str) -> tuple[int, ...]:
    """point, if it has config.dim coordinates, each in 0..q-1."""
    if len(point) != config.dim:
        raise ValueError(f"point {text} has {len(point)} coordinates, "
                         f"the space needs {config.dim}")
    for c in point:
        if not 0 <= c < config.q:
            raise ValueError(f"point {text} has coordinate {c} outside 0..{config.q - 1}")
    return point


def _parse_point(config: SpaceConfig, text: str) -> tuple[int, ...]:
    """A point given as comma-separated coordinates, each in 0..q-1."""
    try:
        point = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"point {text!r} is not a comma-separated list of integers") from None
    return _check_point(config, point, repr(text))


def _file_point(config: SpaceConfig, value) -> tuple[int, ...]:
    """A point of a set or scope file: a list of coordinates, each in 0..q-1."""
    return _check_point(config, _integers(value, "a flat's point"), repr(value))


def _flat(config: SpaceConfig, blob) -> flats.Flat:
    """A flat of a set or scope file: {"basis": [point, ...], "rep": point}."""
    if not isinstance(blob, dict) or not isinstance(blob.get("basis"), list) or "rep" not in blob:
        raise ValueError(f"a flat must be an object with a 'basis' list and a 'rep', "
                         f"got {blob!r}")
    direction = canonicalize(config, [_file_point(config, row) for row in blob["basis"]])
    return flats.flat_make(config, direction, _file_point(config, blob["rep"]))


# ---------------------------------------------------------------------------
# verification suites

class Check:
    def __init__(self, name: str, expected, actual):
        self.name = name
        self.expected = expected
        self.actual = actual
        self.passed = render(expected) == render(actual)

    def blob(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "actual": self.actual, "pass": self.passed}


def paper_suite(config: SpaceConfig, seed: int) -> list[Check]:
    """Per-configuration closed-form and structural verification."""
    checks: list[Check] = []
    nu = config.nu
    size = len(flats.enumerate_flats(config, nu))

    for m in range(nu + 1):
        checks.append(Check(f"count_flats_m{m}", flats.count_flats(config, m),
                            len(flats.enumerate_flats(config, m))))
    for i in range(nu):
        base = flats.enumerate_flats(config, i)[0]
        for j in range(i, nu + 1):
            checks.append(Check(
                f"count_pencil_i{i}_j{j}",
                flats.count_flats_through(config, i, j),
                len(flats.flats_through(config, base, j))))

    checks.append(Check("incidence_rank", flats.incidence_rank_closed_form(config),
                        flats.incidence_rank(config)))
    if size <= FULL_MATRIX_BOUND:
        checks.append(Check("gram_identity", True, flats.check_gram_identity(config)))

    checks.append(Check("point_graph", True, _point_graph_ok(config)))

    tables = scheme.scheme_tables(config)
    checks.append(Check("pq_identity", True, scheme.check_pq_identity(tables)))
    checks.append(Check("eigenmatrix_column_sums", True, scheme.check_column_sums(tables)))
    valency_rows = scheme.relation_products(config, np.ones((size, 1), dtype=np.int64))
    checks.append(Check("valency_row_sums", True,
                        all(set(row[:, 0].tolist()) == {tables.valencies[rel]}
                            for rel, row in zip(tables.rels, valency_rows))))
    if size <= FULL_MATRIX_BOUND:
        checks.append(Check("eigen_system", {"eigen": True, "idempotent": True,
                                             "orthogonal": True, "trace": True, "sum": True},
                            scheme.check_eigen_system(config)))
    else:
        checks.append(Check("eigen_system_probes",
                            {"eigen": True, "idempotent": True, "trace": True, "sum": True},
                            scheme.check_eigen_system_probes(config, seed=seed, count=100)))
    report = scheme.verify_scheme(config, seed=seed)
    checks.append(Check("scheme_axioms", True, report.ok))

    uniq_ok = all(scheme.column_uniqueness(config, rel).matches_prediction
                  for rel in tables.rels if rel != (0, 0))
    checks.append(Check("column_uniqueness", True, uniq_ok))

    span1 = spreads.typeI_span_check(config)
    checks.append(Check("typeI_span_rank", span1.expected_rank, span1.rank))
    checks.append(Check("typeI_projectors", True,
                        span1.vanishing_ok and span1.nonvanishing_ok))
    if nu >= 2:
        span2 = spreads.typeII_span_check(config)
        checks.append(Check("typeII_span_rank", span2.expected_rank, span2.rank))
        checks.append(Check("typeII_projectors", True,
                            span2.vanishing_ok and span2.nonvanishing_ok))

    pencil = cl.construct_pencil(config, (0,) * config.dim)
    checks.append(Check("pencil_parameter", Fraction(1), pencil.x))
    checks.append(Check("pencil_battery", True, all(cl.battery(pencil).values())))
    comp = pencil.complement()
    checks.append(Check("complement_parameter", Fraction(config.q**nu - 1), comp.x))
    checks.append(Check("complement_battery", True, all(cl.battery(comp).values())))
    if size <= FULL_MATRIX_BOUND:
        sample = cl.random_subset_matrix(config, 100, seed)
        verdicts = cl.batch_verdicts(config, sample)
        agree = all((verdicts["image"] == verdicts[k]).all()
                    for k in ("spectrum", "shifted", "counts"))
        checks.append(Check("equivalence_sample_agreement", True, bool(agree)))
    return checks


def _point_graph_ok(config: SpaceConfig) -> bool:
    """Complete graph (symplectic) or exact SRG parameters by neighbour counts."""
    A = point_graph(config)
    n = A.shape[0]
    if config.case == "symplectic":
        return bool((A == 1 - np.eye(n, dtype=np.int64)).all())
    k = (config.q**config.nu - 1) * (e_power(config, 2 * config.nu + config.e2 - 2) + 1)
    if set(A.sum(axis=1).tolist()) != {k}:
        return False
    A2 = exact.int_matmul(A, A)
    off = ~np.eye(n, dtype=bool)
    want = np.where(A == 1, _srg_lambda(config), _srg_mu(config))
    return bool((A2[off] == want[off]).all())


def _srg_lambda(config: SpaceConfig) -> int:
    q, nu, e2 = config.q, config.nu, config.e2
    return (e_power(config, 4 * (nu - 1) + 2 * e2) + q**nu
            - e_power(config, 2 * (nu - 1) + e2) - 2)


def _srg_mu(config: SpaceConfig) -> int:
    t = e_power(config, 2 * (config.nu - 1) + config.e2)
    return t * (t + 1)


def valuation_suite(case: str, q: int, nu_max: int) -> list[Check]:
    """Grid comparison of the stated piecewise exponents with ground truth;
    both checks read one pass over the grid."""
    cells = scheme.valuation_cells(case, q, nu_max)
    mismatches = scheme.valuation_report(case, q, nu_max, cells)
    infinity_ok = all((direct is scheme.INFINITY) == (stated is scheme.INFINITY)
                      for *_, direct, stated in cells)
    return [Check(f"valuation_piecewise_agreement_numax{nu_max}", 0, len(mismatches)),
            Check("valuation_infinity_branches", True, infinity_ok)]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_space_info(config: SpaceConfig, args) -> tuple[dict, int]:
    info = {
        "config": config_blob(config),
        "points": config.num_points,
        "flat_counts": {str(m): flats.count_flats(config, m)
                        for m in range(config.nu + 1)},
        "max_isotropic_subspaces": len(enumerate_isotropic(config, config.nu)),
        "incidence_rank": flats.incidence_rank(config),
        "incidence_rank_closed_form": flats.incidence_rank_closed_form(config),
        "set_denominator": cl.set_denominator(config),
    }
    return info, 0


def _cmd_enumerate(config: SpaceConfig, args) -> tuple[dict, int]:
    if args.kind == "flats":
        items = flats.enumerate_flats(config, args.m)
        blob = {"config": config_blob(config), "m": args.m,
                "count": len(items),
                "flats": [flat_blob(config, f) for f in items] if args.emit_matrices else None}
    else:
        items = enumerate_isotropic(config, args.m)
        blob = {"config": config_blob(config), "m": args.m,
                "count": len(items),
                "subspaces": [[list(r) for r in s.basis] for s in items] if args.emit_matrices else None}
    blob = {k: v for k, v in blob.items() if v is not None}
    return blob, 0


def _cmd_scheme(config: SpaceConfig, args) -> tuple[dict, int]:
    tables = scheme.scheme_tables(config)
    rels = tables.rels
    if args.action == "eigenmatrix":
        blob = {
            "config": config_blob(config),
            "size": tables.size,
            "relations": [list(r) for r in rels],
            "valencies": [tables.valencies[r] for r in rels],
            "multiplicities": [tables.multiplicities[e] for e in rels],
            "P": [[tables.P[r, e] for e in rels] for r in rels],
            "Q": [[tables.Q[e, r] for r in rels] for e in rels],
        }
        return blob, 0
    report = scheme.verify_scheme(config, seed=args.seed)
    blob = {"config": config_blob(config), "seed": args.seed,
            "mode": report.mode, "pairs_checked": report.pairs_checked,
            "pass": report.ok}
    return blob, 0 if report.ok else 1


def _cmd_spreads(config: SpaceConfig, args) -> tuple[dict, int]:
    scope = None
    if args.scope != "full":
        if not args.scope.startswith("flat:"):
            raise ValueError("scope must be 'full' or 'flat:<json-file>'")
        scope = _flat(config, _read_json(args.scope.split(":", 1)[1]))
    if scope is not None:
        search = spreads.enumerate_spreads(config, scope)
        family, exhaustive = search.spreads, search.exhaustive
    elif args.type == "I":
        family, exhaustive = spreads.list_type_I(config), False
    elif args.type == "II":
        family, exhaustive = spreads.list_type_II(config), False
    else:
        search = spreads.enumerate_spreads(config)
        family, exhaustive = search.spreads, search.exhaustive
    blob = {"config": config_blob(config), "count": len(family),
            "exhaustive": exhaustive,
            "spreads": [spread_blob(config, s) for s in family]}
    return blob, 0


def _cmd_cl(config: SpaceConfig, args) -> tuple[dict, int]:
    if args.action == "test":
        fs = load_flatset(config, args.infile)
        verdicts = cl.battery(fs) if args.method == "auto" else \
            {args.method: cl.is_cameron_liebler(fs, args.method)}
        ok = all(verdicts.values())
        blob = {"set": flatset_blob(fs), "method": args.method,
                "verdicts": verdicts, "is_cameron_liebler": ok}
        return blob, 0 if ok else 1
    if args.action == "construct":
        if args.pencil is not None:
            fs = cl.construct_pencil(config, _parse_point(config, args.pencil))
        elif args.complement_of is not None:
            fs = load_flatset(config, args.complement_of).complement()
        elif args.union:
            first = load_flatset(config, args.union[0])
            second = load_flatset(config, args.union[1])
            fs = cl.combine(first, second, "disjoint_union")
        else:
            raise ValueError("construct needs --pencil, --complement-of, or --union")
        return flatset_blob(fs), 0
    if args.action == "profile":
        fs = load_flatset(config, args.set)
        if not cl.is_cameron_liebler(fs):
            raise ValueError("profile needs a Cameron-Liebler set")
        if args.base is None and not fs.ids:
            raise ValueError("profile needs --base or a non-empty set")
        base = args.base if args.base is not None else fs.ids[0]
        prof = cl.pencil_distribution(fs, base, args.i)
        blob = {
            "set": flatset_blob(fs), "base_id": base, "i": args.i,
            "histogram": {str(k): v for k, v in sorted(prof.histogram.items())},
            "count_identity": prof.count_identity_ok,
            "weighted_identity": prof.weighted_identity_ok,
            "bound": prof.bound_ok, "case": prof.case,
            "case_detail": prof.case_detail_ok,
            "degree_identity": cl.degree_identity_holds(config, args.i, prof.x,
                                                        prof.container_parameters),
        }
        ok = all([prof.count_identity_ok, prof.weighted_identity_ok, prof.bound_ok,
                  prof.case_detail_ok])
        return blob, 0 if ok else 1
    if args.action == "search":
        hits = cl.search_cl(config, Fraction(args.x), args.strategy, seed=args.seed)
        blob = {"config": config_blob(config), "x": Fraction(args.x),
                "strategy": args.strategy, "seed": args.seed,
                "count": len(hits), "sets": [flatset_blob(h) for h in hits]}
        return blob, 0
    raise ValueError(f"unknown cl action {args.action!r}")


def _cmd_verify(args) -> tuple[dict, int]:
    if args.suite == "valuations":
        if not args.case or not args.q:
            raise ValueError("valuation suite needs --case and --q")
        space_config(args.case, args.q, 1)  # the case and field rules; builds no geometry
        if not 2 <= args.nu_max <= VALUATION_NU_MAX:
            raise ValueError(f"--nu-max must be in 2..{VALUATION_NU_MAX}, got {args.nu_max}")
        checks = valuation_suite(args.case, args.q, args.nu_max)
        blob = {"suite": "valuations", "case": args.case, "q": args.q,
                "nu_max": args.nu_max,
                "checks": [c.blob() for c in checks],
                "pass": all(c.passed for c in checks)}
        return blob, 0 if blob["pass"] else 1
    configs = []
    given = (args.case, args.q, args.nu)
    if any(v is not None for v in given):
        if any(v is None for v in given):
            raise ValueError("give all of --case/--q/--nu, or none for the grid")
        configs = [space_config(args.case, args.q, args.nu)]
    else:
        configs = [space_config(*t) for t in STANDARD_GRID]
    reports = []
    all_ok = True
    for config in configs:
        checks = paper_suite(config, args.seed)
        ok = all(c.passed for c in checks)
        all_ok &= ok
        reports.append({"config": config_blob(config), "seed": args.seed,
                        "checks": [c.blob() for c in checks], "pass": ok})
    blob = {"suite": "paper", "reports": reports, "pass": all_ok}
    return blob, 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--case", choices=("symplectic", "unitary", "orthogonal"))
    common.add_argument("--q", type=int)
    common.add_argument("--nu", type=int)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(prog="clflats", parents=[common],
                                     description="exact affine flat geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", parents=[common], help="space facts")
    p_space.add_argument("action", choices=("info",))

    p_enum = sub.add_parser("enumerate", parents=[common], help="list flats or subspaces")
    p_enum.add_argument("kind", choices=("flats", "subspaces"))
    p_enum.add_argument("--m", type=int, required=True)
    p_enum.add_argument("--emit-matrices", action="store_true")

    p_scheme = sub.add_parser("scheme", parents=[common], help="association scheme tables")
    p_scheme.add_argument("action", choices=("eigenmatrix", "verify"))

    p_spreads = sub.add_parser("spreads", parents=[common], help="spread families")
    p_spreads.add_argument("action", choices=("enumerate",))
    p_spreads.add_argument("--type", choices=("I", "II", "all"), default="all")
    p_spreads.add_argument("--scope", default="full")

    p_cl = sub.add_parser("cl", help="Cameron-Liebler set tools")
    cl_sub = p_cl.add_subparsers(dest="action", required=True)
    p_test = cl_sub.add_parser("test", parents=[common])
    p_test.add_argument("--in", dest="infile", required=True)
    p_test.add_argument("--method", default="auto",
                        choices=("auto", "image", "kernel", "spectrum", "shifted", "counts",
                                 "spreads"),
                        help="one route; 'auto' runs the full battery ('image' and 'kernel' "
                             "are the one route orthogonal to ker M, by its translation-"
                             "character basis, "
                             "which is also the library's is_cameron_liebler 'auto')")
    p_con = cl_sub.add_parser("construct", parents=[common])
    p_con.add_argument("--pencil")
    p_con.add_argument("--complement-of")
    p_con.add_argument("--union", nargs=2)
    p_prof = cl_sub.add_parser("profile", parents=[common])
    p_prof.add_argument("--set", required=True)
    p_prof.add_argument("--i", type=int, required=True)
    p_prof.add_argument("--base", type=int, default=None)
    p_search = cl_sub.add_parser("search", parents=[common])
    p_search.add_argument("--x", required=True)
    p_search.add_argument("--strategy", required=True,
                          choices=("exhaustive", "pencil_closure", "seeded_random"))

    p_verify = sub.add_parser("verify", parents=[common], help="verification suites")
    p_verify.add_argument("--suite", choices=("paper", "valuations"), default="paper")
    p_verify.add_argument("--nu-max", type=int, default=6,
                          help=f"largest nu of the valuation grid, 2..{VALUATION_NU_MAX}")
    return parser


def _need_config(args) -> SpaceConfig:
    if args.case is None or args.q is None or args.nu is None:
        raise ValueError("this command needs --case, --q, and --nu")
    return space_config(args.case, args.q, args.nu)


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            payload, code = _cmd_verify(args)
        elif args.command == "space":
            payload, code = _cmd_space_info(_need_config(args), args)
        elif args.command == "enumerate":
            payload, code = _cmd_enumerate(_need_config(args), args)
        elif args.command == "scheme":
            payload, code = _cmd_scheme(_need_config(args), args)
        elif args.command == "spreads":
            payload, code = _cmd_spreads(_need_config(args), args)
        elif args.command == "cl":
            payload, code = _cmd_cl(_need_config(args), args)
        else:
            raise ValueError(f"unknown command {args.command!r}")
        emit(payload, args.out)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (AssertionError, MemoryError) as exc:
        detail = " ".join(str(exc).split()) or type(exc).__name__
        sys.stderr.write(f"clflats: internal error: {detail}\n")
        return 3
    return code


def main() -> None:
    """The console script: run's exit code, or 3 for an exception that run
    does not map to a code (a bug), which must not read as "check failed".
    run itself lets such an exception through, so a caller in the same
    process (tests/cli_fuzz.py) sees the bug."""
    try:
        code = run(sys.argv[1:])
    except Exception as exc:
        detail = " ".join(str(exc).split())
        sys.stderr.write(f"clflats: internal error: {type(exc).__name__}: {detail}\n")
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()

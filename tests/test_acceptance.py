"""Acceptance criteria: exact reproduction of every closed-form quantity.

One test per criterion; each prints a PASS/FAIL line.  Criterion 7 is
implemented faithfully and expected to fail: the stated middle-regime
valuation table provably disagrees with the (independently verified)
eigenvalues, and no q-free table can match ground truth at every prime
(see the decisions ledger); the strict xfail keeps the suite honest.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from clflats import cl, exact, flats, scheme, spreads
from clflats.cli import STANDARD_GRID, run
from clflats.field import gauss_binomial
from clflats.geometry import all_vectors, point_graph, space_config

GRID = [space_config(*t) for t in STANDARD_GRID]
SMALL = [c for c in GRID if len(flats.enumerate_flats(c, c.nu)) <= 500]
NU1 = [c for c in GRID if c.nu == 1]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_counts():
    t0 = time.time()
    ok = True
    for cfg in GRID:
        for m in range(cfg.nu + 1):
            ok &= len(flats.enumerate_flats(cfg, m)) == flats.count_flats(cfg, m)
        for i in range(cfg.nu):
            base = flats.enumerate_flats(cfg, i)[0]
            for j in range(i, cfg.nu + 1):
                ok &= (len(flats.flats_through(cfg, base, j))
                       == flats.count_flats_through(cfg, i, j))
    elapsed = time.time() - t0
    ok &= elapsed < 60
    report(1, ok, f"flat and pencil counts on the grid ({elapsed:.1f}s)")
    assert ok


def test_criterion_02_incidence_rank():
    t0 = time.time()
    ok = True
    for cfg in GRID:
        ok &= flats.incidence_rank(cfg) == flats.incidence_rank_closed_form(cfg)
    spots = {("symplectic", 2, 2): 16, ("orthogonal", 3, 2): 33, ("unitary", 4, 1): 10}
    for key, expected in spots.items():
        ok &= flats.incidence_rank(space_config(*key)) == expected
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report(2, ok, f"exact incidence ranks on the grid ({elapsed:.1f}s)")
    assert ok


def test_criterion_03_gram_identity():
    ok = all(flats.check_gram_identity(cfg) for cfg in SMALL)
    report(3, ok, f"product identity M M^T on {len(SMALL)} configurations")
    assert ok


def test_criterion_04_point_graphs():
    ok = True
    for cfg in GRID:
        if cfg.case != "symplectic" or cfg.num_points > 300:
            continue
        if cfg.case == "symplectic":
            A = point_graph(cfg)
            ok &= bool((A == 1 - np.eye(cfg.num_points, dtype=np.int64)).all())
    for key, params in ((("unitary", 4, 1), (16, 9, 4, 6)),
                        (("orthogonal", 3, 1), (9, 4, 1, 2))):
        cfg = space_config(*key)
        A = point_graph(cfg)
        n, k, lam, mu = params
        ok &= A.shape == (n, n)
        ok &= set(A.sum(axis=1).tolist()) == {k}
        A2 = exact.int_matmul(A, A)
        off = ~np.eye(n, dtype=bool)
        want = np.where(A == 1, lam, mu)
        ok &= bool((A2[off] == want[off]).all())
    report(4, ok, "point graphs: complete (symplectic) and exact SRG parameters")
    assert ok


def test_criterion_05_scheme_tables():
    ok = True
    for cfg in GRID:
        tables = scheme.scheme_tables(cfg)
        ok &= scheme.check_pq_identity(tables)
        ok &= scheme.check_column_sums(tables)
    for cfg in SMALL:
        ok &= all(scheme.check_eigen_system(cfg).values())
    big = space_config("symplectic", 2, 3)
    ok &= all(scheme.check_eigen_system_probes(big, seed=0, count=100).values())
    report(5, ok, "eigen systems exact on small grid; probe checks at 1080 flats")
    assert ok


def test_criterion_06_valencies():
    ok = True
    for cfg in GRID:
        tables = scheme.scheme_tables(cfg)
        rows = scheme.relation_products(cfg, np.eye(len(tables.rels), dtype=np.int64),
                                        np.ones((tables.size, 1), dtype=np.int64))
        for rel, row in zip(tables.rels, rows):
            ok &= set(row[:, 0].tolist()) == {tables.valencies[rel]}
    s22 = space_config("symplectic", 2, 2)
    vals = [scheme.valency(s22, r) for r in scheme.scheme_tables(s22).rels]
    ok &= vals == [1, 3, 12, 12, 32] and sum(vals) == 60
    report(6, ok, "closed-form valencies equal adjacency row sums on the grid")
    assert ok


VALUATION_GRID = (("symplectic", (2, 3, 5)), ("orthogonal", (3, 5)), ("unitary", (4, 9)))


@pytest.mark.xfail(strict=True,
                   reason="stated middle-regime valuation table disagrees with the "
                          "verified eigenvalues (symplectic even / orthogonal odd "
                          "rows); ground truth is the direct valuation")
def test_criterion_07_valuation_table():
    mismatches = []
    pattern_violations = []
    for case, qs in VALUATION_GRID:
        for q in qs:
            mismatches += scheme.valuation_report(case, q, 8)
            for nu in range(2, 9):
                for i in range(2, nu + 1):
                    f0 = scheme.q_valuation(case, q, nu, i, 0)
                    for j in range(1, nu + 1):
                        fj = scheme.q_valuation(case, q, nu, i, j)
                        exempt = (case == "orthogonal" and j == nu)
                        if exempt:
                            if f0 != fj:
                                pattern_violations.append((case, q, nu, i, j))
                            p0 = scheme.dual_polar_eigenvalue(case, q, nu, i, 0)
                            pj = scheme.dual_polar_eigenvalue(case, q, nu, i, j)
                            if (p0 == pj) != (i % 2 == 0):
                                pattern_violations.append((case, q, nu, i, j))
                        elif f0 == fj:
                            pattern_violations.append((case, q, nu, i, j))
    ok = not mismatches and not pattern_violations
    report(7, ok, f"piecewise valuation table: {len(mismatches)} value mismatches, "
                  f"{len(pattern_violations)} inequality-pattern violations")
    assert ok, (mismatches[:5], pattern_violations[:5])


def test_criterion_08_column_uniqueness():
    ok = True
    for case, qs in VALUATION_GRID:
        for q in qs:
            for nu in range(1, 7):
                cfg = space_config(case, q, nu)
                for rel in scheme.scheme_tables(cfg).rels:
                    if rel == (0, 0):
                        continue
                    ok &= scheme.column_uniqueness(cfg, rel).matches_prediction
    report(8, ok, "uniqueness classification matches the exception catalogue "
                  "(case (c) scoped to the orthogonal family)")
    assert ok


def test_criterion_09_equivalences():
    ok = True
    for cfg in SMALL:
        chi = cl.random_subset_matrix(cfg, 1000, seed=0)
        positives = [cl.construct_pencil(cfg, (0,) * cfg.dim)]
        positives.append(positives[0].complement())
        positives.append(cl.full_set(cfg))
        chi = np.concatenate([chi] + [p.chi().reshape(-1, 1) for p in positives], axis=1)
        verdicts = cl.batch_verdicts(cfg, chi)
        for key in ("kernel", "spectrum", "shifted", "counts"):
            ok &= bool((verdicts["image"] == verdicts[key]).all())
        ok &= bool(verdicts["image"][-3:].all())
        # spread characterisation where exhaustive enumeration is feasible
        if cfg.num_points <= 32:
            search = spreads.enumerate_spreads(cfg)
            stack = np.zeros((len(search.spreads), chi.shape[0]), dtype=np.int64)
            for r, s in enumerate(search.spreads):
                stack[r, list(s.members)] = 1
            inter = exact.int_matmul(stack, chi)
            sizes = chi.sum(axis=0)
            D = cl.set_denominator(cfg)
            constant = (inter == inter[0]).all(axis=0)
            equals_x = constant & (inter[0] * D == sizes)
            ok &= bool((equals_x == verdicts["image"]).all())
    report(9, ok, "all membership routes agree on 1000 seeded subsets per "
                  "configuration plus constructed positives")
    assert ok


def test_criterion_10_general_count_law():
    ok = True
    for cfg in SMALL:
        pencil = cl.construct_pencil(cfg, (0,) * cfg.dim)
        sets = [pencil, pencil.complement()]
        if cfg.case in ("orthogonal", "unitary"):
            pts = all_vectors(cfg)
            other = next(p for p in pts if cl.pencils_disjoint(cfg, pts[0], p))
            sets.append(cl.combine(pencil, cl.construct_pencil(cfg, other),
                                   "disjoint_union"))
        for fs in sets:
            for rel in scheme.scheme_tables(cfg).rels:
                if rel != (0, 0):
                    ok &= cl.lemma_counts(fs, rel)
    s22 = space_config("symplectic", 2, 2)
    pencil = cl.construct_pencil(s22, (0, 0, 0, 0))
    counts = scheme.relation_products(s22, np.eye(5, dtype=np.int64)[[4]],
                                      pencil.chi().reshape(-1, 1))[0, :, 0]  # A_(2,0) chi
    ok &= set(counts[pencil.chi().astype(bool)].tolist()) == {8}
    report(10, ok, "general neighbour-count law for constructed sets; spot value 8")
    assert ok


def test_criterion_11_nu1_classification():
    t0 = time.time()
    hits21 = cl.classify_nu1(space_config("symplectic", 2, 1))
    counts21 = {}
    for _, x in hits21:
        counts21[x] = counts21.get(x, 0) + 1
    ok = len(hits21) == 10 and counts21.get(Fraction(1)) == 8
    hits31 = cl.classify_nu1(space_config("symplectic", 3, 1))
    ok &= sum(1 for _, x in hits31 if x == 1) == 81
    for fs, x in hits21 + hits31:
        if x == 1:
            rep = cl.intersecting_check(fs)
            ok &= rep.is_intersecting and rep.is_maximum
    elapsed = time.time() - t0
    ok &= elapsed < 60
    report(11, ok, f"exhaustive nu=1 classification: 10 total / 8 at x=1 (q=2), "
                   f"81 at x=1 (q=3); maximum intersecting ({elapsed:.1f}s)")
    assert ok


def test_criterion_12_span_ranks():
    ok = True
    for cfg in GRID:
        r1 = spreads.typeI_span_check(cfg)
        ok &= r1.ok
        tables = scheme.scheme_tables(cfg)
        ok &= r1.expected_rank == sum(tables.multiplicities[(j, 0)]
                                      for j in range(cfg.nu + 1))
        if cfg.nu >= 2:
            r2 = spreads.typeII_span_check(cfg)
            ok &= r2.ok
            ok &= r2.expected_rank == tables.size - tables.multiplicities[(0, 1)]
    s22 = space_config("symplectic", 2, 2)
    ok &= spreads.typeI_span_check(s22).rank == 15
    ok &= spreads.typeII_span_check(s22).rank == 45
    report(12, ok, "spread stacks: type-I rank 15 and type-II rank 45 at the "
                   "base case; certified ranks and projector patterns on the grid")
    assert ok


def test_criterion_13_restrictions():
    ok = True
    for key in (("symplectic", 2, 2), ("orthogonal", 3, 2)):
        cfg = space_config(*key)
        pencil = cl.construct_pencil(cfg, (0,) * cfg.dim)
        sets = [pencil, pencil.complement(), cl.full_set(cfg)]
        if cfg.case == "orthogonal":
            pts = all_vectors(cfg)
            other = next(p for p in pts if cl.pencils_disjoint(cfg, pts[0], p))
            sets.append(cl.combine(pencil, cl.construct_pencil(cfg, other),
                                   "disjoint_union"))
        for fs in sets:
            x = cl.cl_parameter(fs)
            for base_id in fs.ids:
                base = flats.enumerate_flats(cfg, cfg.nu)[base_id]
                for t in flats.container_flats(cfg, base, 1):
                    r = cl.restrict_cl(fs, t)
                    ok &= r.ok and r.x_f.denominator == 1
                    ok &= 0 <= r.x_f <= min(x, Fraction(cfg.q))
                ok &= cl.degree_identity(fs, base_id, 1)
                prof = cl.pencil_distribution(fs, base_id, 1)
                ok &= prof.count_identity_ok and prof.weighted_identity_ok
                ok &= prof.bound_ok and prof.case_detail_ok
        closing = cl.pencil_distribution(cl.full_set(cfg), 0, 1)
        ok &= closing.histogram == {cfg.q: gauss_binomial(cfg.nu, cfg.nu - 1, cfg.q)}
    report(13, ok, "restrictions are in-container members with integral bounded "
                   "parameters; degree and distribution identities exact")
    assert ok


def test_criterion_14_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "paper", "--case", "symplectic", "--q", "2",
            "--nu", "2"]
    code1 = run(args + ["--out", str(a)])
    code2 = run(args + ["--out", str(b)])
    ok = code1 == code2 == 0 and a.read_bytes() == b.read_bytes()
    report(14, ok, "verification reports byte-identical across repeated runs")
    assert ok

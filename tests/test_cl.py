"""Cameron-Liebler sets: batteries, constructions, classification, profiles."""

import dataclasses
import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from clflats import cl, exact, flats, scheme, spreads
from clflats.cl import (
    FlatSet,
    apply_isometry,
    batch_verdicts,
    battery,
    cl_parameter,
    classify_nu1,
    combine,
    construct_pencil,
    degree_identity,
    empty_set,
    full_set,
    image_certificate,
    intersecting_check,
    is_cameron_liebler,
    lemma_counts,
    pencil_distribution,
    pencils_disjoint,
    random_subset_matrix,
    restrict_cl,
    search_cl,
    set_denominator,
    test_image as image_route,
    test_spreads as spread_test,
)
from clflats.exact import int_matmul
from clflats.flats import (
    container_flats,
    enumerate_flats,
    flat_ids,
    flat_make,
    flat_points,
    incidence_kernel,
    incidence_matrix,
    incidence_rank,
    incidence_rank_closed_form,
)
from clflats.geometry import (
    all_vectors,
    canonicalize,
    enumerate_isotropic,
    gram_rank,
    random_isometry,
    space_config,
    zero_vector,
)
from clflats.cli import STANDARD_GRID, paper_suite
from clflats.scheme import idempotent_int, relation_matrix, relation_products, scheme_tables
from conftest import (
    MEDIUM_CONFIGS,
    distinct_containers,
    in_row_span,
    incidence_by_flat_points,
    integer_nullspace,
    spanning_rows_oracle,
)


def _pencil(cfg, point=None):
    return construct_pencil(cfg, point if point is not None else zero_vector(cfg))


def test_parameters(s22):
    assert cl_parameter(empty_set(s22)) == 0
    assert cl_parameter(_pencil(s22)) == 1
    assert cl_parameter(full_set(s22)) == 4
    assert _pencil(s22).size == set_denominator(s22) == 15
    odd = FlatSet(s22, (0, 1, 2, 3))
    assert cl_parameter(odd) == Fraction(4, 15)  # rational, never rounded


def test_pencil_is_the_flats_through_the_point(medium_config):
    """construct_pencil reads the point's column of the coset table: the ids
    of the flat of every direction through the point."""
    cfg = medium_config
    ids = flat_ids(cfg)
    rng = random.Random(3)
    points = [zero_vector(cfg)] + [tuple(rng.randrange(cfg.q) for _ in range(cfg.dim))
                                   for _ in range(3)]
    for point in points:
        want = sorted(ids[flat_make(cfg, d, point)] for d in enumerate_isotropic(cfg, cfg.nu))
        assert construct_pencil(cfg, point).ids == tuple(want)


@pytest.mark.parametrize("point", [(0, 0, 0, 5), (0, 0, 0, -1), (0, 0, 2, 0), (0, 0, 0),
                                   (0, 0, 0, 0, 0)])
def test_pencil_point_outside_the_space_raises_value_error(s22, point):
    with pytest.raises(ValueError, match=r"4 coordinates in 0\.\.1"):
        construct_pencil(s22, point)


def test_pencil_battery_everywhere(medium_config):
    pencil = _pencil(medium_config)
    assert all(battery(pencil).values())
    assert cl_parameter(pencil) == 1
    comp = pencil.complement()
    assert all(battery(comp).values())
    assert cl_parameter(comp) == medium_config.q**medium_config.nu - 1
    assert all(battery(full_set(medium_config)).values())


def test_image_certificate_is_exact(s22):
    pencil = _pencil(s22)
    y = image_certificate(pencil)
    M = np.array([[int(v) for v in row]
                  for row in __import__("clflats.flats", fromlist=["incidence_matrix"])
                  .incidence_matrix(s22).matrix])
    chi = pencil.chi()
    got = [sum(Fraction(int(M[r, c])) * y[r] for r in range(M.shape[0]))
           for c in range(M.shape[1])]
    assert got == [Fraction(int(x)) for x in chi]
    assert image_certificate(FlatSet(s22, (0,))) is None


def test_single_flat_rejected(s21):
    single = FlatSet(s21, (0,))
    verdicts = battery(single)
    assert not any(verdicts.values())
    report = spread_test(single, "exhaustive")
    assert not report.passed and report.conclusive
    assert sorted(report.intersections) == [0, 0, 1]


def test_counts_law_spot_values(s22):
    pencil = _pencil(s22)
    chi = pencil.chi()
    in_set = chi.astype(bool)
    T = relation_products(s22, chi.reshape(-1, 1))[:, :, 0]
    c10, c11, c20 = T[2], T[3], T[4]  # relation codes 2i + xi
    assert set(c10[in_set]) == {6} and set(c10[~in_set]) == {2}
    assert set(c11[in_set]) == {0} and set(c11[~in_set]) == {4}
    assert set(c20[in_set]) == {8}  # the general-index law at i = 2
    assert lemma_counts(pencil, (2, 0))
    for rel in scheme_tables(s22).rels:
        if rel != (0, 0):
            assert lemma_counts(pencil, rel)


def test_counts_law_all_constructions(medium_config):
    """Every relation's law holds on a pencil, its complement and the full
    set; on a near miss, lemma_counts gives each relation's law of the
    uncached routes, which hold on (0, 0) and fail on (0, 1)."""
    cfg = medium_config
    rels = [r for r in scheme_tables(cfg).rels if r != (0, 0)]
    for fs in (_pencil(cfg), _pencil(cfg).complement(), full_set(cfg)):
        for rel in rels:
            assert lemma_counts(fs, rel)
    miss = _near_miss(cfg)
    want = _two_product_routes(cfg, miss.chi().reshape(-1, 1))[1][:, 0].tolist()
    assert want[:2] == [True, False]
    assert [lemma_counts(miss, rel) for rel in scheme_tables(cfg).rels] == want


def test_combine_modes(s22):
    pencil = _pencil(s22)
    comp = combine(pencil, None, "complement")
    assert comp.size == 45 and cl_parameter(comp) == 3
    assert combine(full_set(s22), pencil, "difference").ids == comp.ids
    with pytest.raises(ValueError):
        combine(pencil, pencil, "disjoint_union")
    with pytest.raises(ValueError):
        combine(pencil, comp, "difference")
    with pytest.raises(ValueError):
        combine(pencil, comp, "xor")


def test_disjoint_pencil_union_orthogonal(o32):
    pts = all_vectors(o32)
    a = pts[0]
    b = next(p for p in pts if pencils_disjoint(o32, a, p))
    union = combine(_pencil(o32, a), _pencil(o32, b), "disjoint_union")
    assert cl_parameter(union) == 2
    assert all(battery(union).values())


def test_symplectic_has_no_disjoint_pencils(s22):
    pts = all_vectors(s22)
    assert not any(pencils_disjoint(s22, pts[0], p) for p in pts[1:])


@pytest.mark.parametrize("case,q,total,x1", [
    ("symplectic", 2, 10, 8), ("symplectic", 3, 164, 81)])
def test_classification_nu1(case, q, total, x1):
    cfg = space_config(case, q, 1)
    hits = classify_nu1(cfg)
    assert len(hits) == total
    assert sum(1 for _, x in hits if x == 1) == x1
    assert sum(1 for _, x in hits if x == 0) == 1
    assert sum(1 for _, x in hits if x == q) == 1
    for fs, x in hits:
        assert all(battery(fs).values())


def test_classification_x1_maximum_intersecting():
    cfg = space_config("symplectic", 2, 1)
    for fs, x in classify_nu1(cfg):
        if x == 1:
            rep = intersecting_check(fs)
            assert rep.is_intersecting and rep.is_maximum


def test_intersecting_check(s22):
    pencil = _pencil(s22)
    rep = intersecting_check(pencil)
    assert rep.is_intersecting and rep.is_maximum and rep.clique_coclique_ok
    assert rep.bound == 15
    not_pencil = FlatSet(s22, tuple(list(pencil.ids[:-1]) + [pencil.complement().ids[0]]))
    rep2 = intersecting_check(not_pencil)
    assert not (rep2.is_intersecting and rep2.is_maximum)


def test_restriction_cases(s22):
    pencil = _pencil(s22)  # pencil at the origin
    base_id = pencil.ids[0]
    base = enumerate_flats(s22, 2)[base_id]
    for t in container_flats(s22, base, 1):
        r = restrict_cl(pencil, t)
        assert r.ok and r.x_f == 1
    # a pencil at a point outside the container restricts to zero
    outside_pt = (0, 0, 1, 1)
    other = construct_pencil(s22, outside_pt)
    from clflats.flats import flat_contains_point
    t0 = container_flats(s22, base, 1)[0]
    if not flat_contains_point(s22, t0, outside_pt):
        r0 = restrict_cl(other, t0)
        assert r0.x_f == 0 and r0.ok
    # the full family restricts to the container cap q^i
    rf = restrict_cl(full_set(s22), t0)
    assert rf.x_f == s22.q and rf.ok


def test_degree_identity_and_profile(s22, o32):
    for cfg in (s22, o32):
        pencil = _pencil(cfg)
        assert degree_identity(pencil, pencil.ids[0], 1)
        comp = pencil.complement()
        for s in comp.ids:
            assert degree_identity(comp, s, 1)
        prof = pencil_distribution(comp, comp.ids[0], 1)
        assert prof.count_identity_ok and prof.weighted_identity_ok
        assert prof.bound_ok and prof.case_detail_ok
    with pytest.raises(ValueError):
        degree_identity(_pencil(s22), _pencil(s22).complement().ids[0], 1)


def test_profile_full_set(s22):
    from clflats.field import gauss_binomial
    prof = pencil_distribution(full_set(s22), 0, 1)
    cap = s22.q  # min(q^nu, q^i) with i = 1
    assert prof.histogram == {cap: gauss_binomial(2, 1, 2)}
    assert prof.count_identity_ok and prof.weighted_identity_ok


def test_search_exhaustive_nu1():
    cfg = space_config("symplectic", 2, 1)
    assert len(search_cl(cfg, 1, "exhaustive")) == 8
    full_hits = search_cl(cfg, 2, "exhaustive")
    assert [h.ids for h in full_hits] == [full_set(cfg).ids]
    assert search_cl(cfg, Fraction(1, 2), "exhaustive") == []


def test_search_pencil_closure(s22):
    hits = search_cl(s22, 1, "pencil_closure")
    pencil_ids = {_pencil(s22, pt).ids for pt in all_vectors(s22)}
    assert pencil_ids <= {h.ids for h in hits}
    assert len(hits) >= 16
    hits3 = search_cl(s22, 3, "pencil_closure")
    assert {h.ids for h in hits3} >= {_pencil(s22, pt).complement().ids
                                      for pt in all_vectors(s22)}


@pytest.mark.parametrize("strategy", ["exhaustive", "pencil_closure", "seeded_random"])
@pytest.mark.parametrize("x", [1000, -1, Fraction(28, 3)])
def test_search_outside_parameter_range_builds_nothing(o32, monkeypatch, strategy, x):
    """No set has a parameter outside [0, q^nu]: no pencil is built for one."""
    def refuse(config, point):
        raise AssertionError("construct_pencil called")
    monkeypatch.setattr(cl, "construct_pencil", refuse)
    assert search_cl(o32, x, strategy) == []


def test_search_seeded_random_finds_nothing(s22):
    assert search_cl(s22, 2, "seeded_random", seed=0, tries=50) == []
    with pytest.raises(ValueError):
        search_cl(s22, 1, "unknown-strategy")


def test_verdict_isometry_invariance(s22):
    pencil = _pencil(s22)
    rng_sets = random_subset_matrix(s22, 3, seed=9)
    arbitrary = FlatSet(s22, tuple(int(i) for i in np.flatnonzero(rng_sets[:, 0])))
    for seed in range(20):
        iso = random_isometry(s22, seed)
        image = apply_isometry(pencil, iso)
        assert all(battery(image).values())
        assert cl_parameter(image) == 1
        moved = apply_isometry(arbitrary, iso)
        assert is_cameron_liebler(moved) == is_cameron_liebler(arbitrary)


def test_batch_verdicts_agree_and_match_serial(medium_config):
    cfg = medium_config
    chi = random_subset_matrix(cfg, 60, seed=3)
    verdicts = batch_verdicts(cfg, chi)
    assert set(verdicts) == {"image", "spectrum", "shifted", "counts"}
    for key in ("spectrum", "shifted", "counts"):
        assert (verdicts["image"] == verdicts[key]).all()
    for col in range(0, 60, 7):
        ids = tuple(int(i) for i in np.flatnonzero(chi[:, col]))
        if not ids:
            continue
        fs = FlatSet(cfg, ids)
        assert is_cameron_liebler(fs) == bool(verdicts["image"][col])


def _seeded_columns(cfg, seed):
    """Members (seeded pencils and their complements), near misses (one flat
    of a seeded pencil swapped for a flat of another parallel class) and
    random subsets, one per column."""
    rng = random.Random(seed)
    maximal = enumerate_flats(cfg, cfg.nu)
    points = all_vectors(cfg)
    cols = []
    for _ in range(4):
        pencil = _pencil(cfg, rng.choice(points))
        cols += [pencil.chi(), pencil.complement().chi()]
        drop = rng.choice(pencil.ids)
        swap = rng.choice([f for f in range(len(maximal)) if f not in pencil
                           and maximal[f].direction != maximal[drop].direction])
        miss = np.zeros(len(maximal), dtype=np.int64)
        miss[[f for f in pencil.ids if f != drop] + [swap]] = 1
        cols.append(miss)
    return np.concatenate([np.stack(cols, axis=1),
                           random_subset_matrix(cfg, 8, seed=seed)], axis=1)


@pytest.mark.parametrize("key", [c for c in MEDIUM_CONFIGS] + [("symplectic", 3, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_batch_scheme_routes_match_dense_idempotents(key):
    """The relation-count routes give the verdicts of the dense products B_e chi."""
    cfg = space_config(*key)
    chi = _seeded_columns(cfg, seed=sum(map(ord, repr(key))))
    tables = scheme_tables(cfg)
    shifted = cfg.q**cfg.nu * set_denominator(cfg) * chi - chi.sum(axis=0)
    proj = {e: idempotent_int(cfg, e)[1] for e in tables.eigs}
    spectrum = ~np.any([(proj[e] @ chi).any(axis=0) for e in tables.eigs
                        if e not in ((0, 0), (0, 1))], axis=0)
    shifted_ok = ~np.any([(proj[e] @ shifted).any(axis=0) for e in tables.eigs
                          if e != (0, 1)], axis=0)
    verdicts = batch_verdicts(cfg, chi)
    assert (verdicts["spectrum"] == spectrum).all()
    assert (verdicts["shifted"] == shifted_ok).all()
    assert spectrum[:12].tolist() == [True, True, False] * 4


def _two_product_routes(config, cols):
    """The spectrum, shifted and count routes with nothing cached: the
    relation-count table T, then C T, then C (q^nu D T - k |S|), then each
    relation's law against its closed-form coefficients."""
    n = cols.shape[0]
    tables = scheme_tables(config)
    T = relation_products(config, cols)
    Ls, C = scheme.idempotent_coefficients(config)
    sizes = cols.sum(axis=0)
    proj = int_matmul(C, T.reshape(len(T), -1)).reshape(T.shape)
    assert (proj[0] * n == Ls[0] * sizes).all()
    D = set_denominator(config)
    valencies = np.array([tables.valencies[r] for r in tables.rels], dtype=np.int64)
    shifted = (config.q**config.nu * D) * T - valencies[:, None, None] * sizes
    shifted_proj = int_matmul(C, shifted.reshape(len(T), -1)).reshape(shifted.shape)
    laws = []
    for k, (i, xi) in enumerate(tables.rels):
        a, b = cl._count_coefficients(config, i)
        want = D * a * cols + b * sizes if xi == 0 else a * sizes - D * a * cols
        laws.append((D * T[k] == want).all(axis=0))
    counts = laws[2] & laws[3] if config.nu >= 2 else laws[2]
    verdicts = {
        "spectrum": ~proj[2:].any(axis=(0, 1)),
        "shifted": ~np.delete(shifted_proj, 1, axis=0).any(axis=(0, 1)),
        "counts": counts,
    }
    return verdicts, np.array(laws)


KERNEL_KEYS = MEDIUM_CONFIGS + (("symplectic", 3, 2), ("unitary", 4, 2), ("symplectic", 2, 3))


def _every_law(config, block):
    """Every relation's neighbour-count law for a block _block returned."""
    return np.array([cl._relation_law(config, block, r)
                     for r in range(2 * config.nu + 1)]).reshape(-1, block.shape[1])


@pytest.mark.parametrize("key", KERNEL_KEYS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_route_plan_matches_the_two_product_routes(key):
    """The routes read off the class totals and meeting sums (one product
    by the plan's fold, the shifted verdict read off the spectrum's zero
    rows, the i = 1 laws on the factor terms) give the verdicts of the
    uncached routes, and each relation's law read off its factor terms
    gives their laws, for 0/1 and signed columns (1, 25, 33 and 100 of
    them, and one fewer, exactly and one more than MASK_COLUMNS, where the
    meeting sums switch to a mask product), a uint8 block, an int64 column
    that takes relation_products' object path and object entries past
    int64."""
    cfg = space_config(*key)
    n = len(enumerate_flats(cfg, cfg.nu))
    rng = np.random.default_rng(sum(map(ord, repr(key))))
    edge = np.zeros((n, 1), dtype=np.int64)
    edge[rng.integers(n), 0] = 2**62 // (8 * cfg.nu * n) + 1
    huge = rng.integers(-3, 4, (n, 2)).astype(object) * 2**70
    inputs = [edge, huge, _pencil(cfg).chi().reshape(-1, 1),
              rng.integers(0, 2, (n, 25)).astype(np.uint8)]
    widths = {1, 25, 33, 100, scheme.MASK_COLUMNS - 1, scheme.MASK_COLUMNS,
              scheme.MASK_COLUMNS + 1}
    for c in sorted(widths):
        inputs += [rng.integers(0, 2, (n, c)), rng.integers(-5, 6, (n, c))]
    for cols in inputs:
        # the routes and the oracle take the block as batch_verdicts passes it on
        block = cl._block(cols, n)
        want, want_laws = _two_product_routes(cfg, block)
        got = cl._scheme_routes(cfg, block)
        assert set(got) == set(want)
        for name in want:
            assert got[name].dtype == np.dtype(bool)
            assert got[name].tolist() == want[name].tolist(), (name, cols.shape, cols.dtype)
        laws = _every_law(cfg, block)
        assert laws.dtype == np.dtype(bool) and laws.tolist() == want_laws.tolist()


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("unitary", 4, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_scheme_routes_are_exact_past_int64(key):
    """Every route is linear and homogeneous in chi, so columns scaled by m
    keep their verdicts and laws.  At the largest m that relation_products
    still sums in int64, m |S| n passes 2^63 for a pencil's complement:
    the routes then take object arithmetic instead of wrapping (the
    uncached routes raised a spurious all-one projection AssertionError
    there)."""
    cfg = space_config(*key)
    n = len(enumerate_flats(cfg, cfg.nu))
    pencil = _pencil(cfg)
    cols = np.stack([pencil.chi(), pencil.complement().chi(), _near_miss(cfg).chi()], axis=1)
    m = (2**62 - 1) // (8 * cfg.nu * n)
    assert m * int(cols.sum(axis=0).max()) * n >= 2**63
    want, want_laws = cl._scheme_routes(cfg, cols), _every_law(cfg, cols)
    got, laws = cl._scheme_routes(cfg, m * cols), _every_law(cfg, m * cols)
    assert {k: v.tolist() for k, v in got.items()} == {k: v.tolist() for k, v in want.items()}
    assert laws.tolist() == want_laws.tolist()
    assert batch_verdicts(cfg, m * cols)["spectrum"].tolist() == [True, True, False]


@pytest.mark.parametrize("key", STANDARD_GRID + (("symplectic", 4, 2), ("orthogonal", 3, 3)),
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_route_plan_closed_forms(key):
    """The closed forms behind the shifted verdict, in object arithmetic:
    (C k)[(0,0)] = L_(0,0), (C k)[e] = 0 for every other e, q^nu D = n;
    and the plan holds the law coefficients."""
    cfg = space_config(*key)
    tables = scheme_tables(cfg)
    Ls, C = scheme.idempotent_coefficients(cfg)
    k = np.array([tables.valencies[r] for r in tables.rels], dtype=object)
    ck = np.dot(C.astype(object), k).tolist()
    D = set_denominator(cfg)
    assert ck == [Ls[0]] + [0] * (len(k) - 1)
    assert cfg.q**cfg.nu * D == tables.size
    plan = cl.route_plan(cfg)
    assert (plan.n, plan.L0, plan.D) == (tables.size, Ls[0], D)
    for r, (i, xi) in enumerate(tables.rels):
        a, b = cl._count_coefficients(cfg, i)
        assert (plan.law_chi[r], plan.law_size[r]) == ((D * a, b) if xi == 0 else (-D * a, a))
    arrays = (plan.law_chi, plan.law_size)
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("corrupt", ["coefficients", "valencies"])
def test_route_plan_refuses_a_corrupted_ck(s22, monkeypatch, corrupt):
    """The shifted verdict reads the spectrum's zero rows only because
    C k = (L_0, 0, ..., 0): a plan built from a C or from valencies that
    break it raises AssertionError naming that closed form."""
    tables = scheme_tables(s22)
    Ls, C = scheme.idempotent_coefficients(s22)
    if corrupt == "coefficients":
        bad = C.copy()
        bad[2, 0] += 1
        monkeypatch.setattr(cl, "idempotent_coefficients", lambda config: (Ls, bad))
    else:
        valencies = {**tables.valencies, (1, 0): tables.valencies[(1, 0)] + 1}
        monkeypatch.setattr(cl, "scheme_tables",
                            lambda config: dataclasses.replace(tables, valencies=valencies))
    with pytest.raises(AssertionError, match=r"is not \(L_0, 0, \.\.\., 0\)"):
        cl.route_plan.__wrapped__(s22)
    monkeypatch.undo()
    assert cl.route_plan.__wrapped__(s22).bound == cl.route_plan(s22).bound


@pytest.mark.parametrize("key", STANDARD_GRID + (("symplectic", 4, 2), ("orthogonal", 3, 3)),
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_route_plan_folds_the_coefficients_into_the_distance_masks(key):
    """fold's first row is B_(0,0)'s row of ones; then come one block
    sum_i c_i (rd = i) per class row e >= 2 (the rows of C whose (i, 0) and
    (i, 1) coefficients agree for every i < nu), one per other row e >= 2
    with flat holding its coefficients C[e, 2i] - C[e, 2i + 1] on M_i, and
    the rd = 1 mask; the class rows are exactly the (j, 0) rows."""
    cfg = space_config(*key)
    nu = cfg.nu
    C = scheme.idempotent_coefficients(cfg)[1]
    plan = cl.route_plan(cfg)
    masks = scheme.distance_masks(cfg)[0].reshape(nu + 1, plan.D, plan.D).astype(np.int64)
    part = [[C[e, 2 * i + 1] for i in range(nu)] + [C[e, 2 * nu]] for e in range(len(C))]
    agree = [e for e in range(2, len(C))
             if all(C[e, 2 * i] == C[e, 2 * i + 1] for i in range(nu))]
    other = [e for e in range(2, len(C)) if e not in agree]
    assert agree == list(range(2, 2 * nu + 1, 2)) and other == list(range(3, 2 * nu, 2))
    blocks = [np.einsum("i,ixy->xy", part[e], masks) for e in agree + other] + [masks[1]]
    assert plan.fold.dtype == np.dtype(np.int64) and plan.classes == len(agree)
    assert (plan.fold[0] == 1).all()
    assert (plan.fold[1:] == np.vstack(blocks)).all()
    assert (plan.fold_float == plan.fold).all()
    assert plan.flat.tolist() == [[C[e, 2 * i] - C[e, 2 * i + 1] for i in range(nu)]
                                  for e in other]
    assert not any(a.flags.writeable for a in (plan.fold, plan.fold_float, plan.flat))


@pytest.mark.parametrize("key", STANDARD_GRID, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_routes_build_no_relation_table(key, monkeypatch):
    """battery and batch_verdicts read the class totals and the meeting
    sums only: with scheme.relation_products and scheme.projections made to
    raise, a pencil, its complement, a near miss and blocks on both sides
    of MASK_COLUMNS get the verdicts they get unpatched."""
    cfg = space_config(*key)
    sets = [_pencil(cfg), _pencil(cfg).complement(), _near_miss(cfg)]
    chi = np.stack([fs.chi() for fs in sets], axis=1)
    blocks = [np.concatenate([chi, random_subset_matrix(cfg, extra, seed=4)], axis=1)
              for extra in (5, scheme.MASK_COLUMNS)]

    def verdicts():
        return ([battery(fs) for fs in sets],
                [{k: v.tolist() for k, v in batch_verdicts(cfg, b).items()} for b in blocks])

    want = verdicts()
    assert [all(v.values()) for v in want[0]] == [True, True, False]

    def refuse(*args, **kwargs):
        raise AssertionError("a relation-count table on the query path")

    for module in (scheme, spreads, cl):
        for name in ("relation_products", "projections"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert verdicts() == want


def test_a_tampered_fold_breaks_the_all_one_identity(s22, monkeypatch, tmp_path, capsys):
    """A plan whose fold has a wrong all-one row raises AssertionError on a
    query, and cl test maps it to exit 3 with one internal-error line."""
    from clflats.cli import run
    space = ["--case", "symplectic", "--q", "2", "--nu", "2"]
    setfile = tmp_path / "pencil.json"
    assert run(["cl", "construct", "--pencil", "0,0,0,0", "--out", str(setfile)] + space) == 0
    plan = cl.route_plan(s22)
    fold = plan.fold.copy()
    fold[0, 0] += 1
    tampered = dataclasses.replace(plan, fold=fold, fold_float=fold.astype(np.float64))
    monkeypatch.setattr(cl, "route_plan", lambda config: tampered)
    with pytest.raises(AssertionError, match="^all-one projection identity violated$"):
        cl.test_spectrum(_pencil(s22))
    capsys.readouterr()
    assert run(["cl", "test", "--method", "spectrum", "--in", str(setfile)] + space) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "clflats: internal error: all-one projection identity violated\n"


@pytest.mark.parametrize("key", STANDARD_GRID + (("symplectic", 4, 2), ("orthogonal", 3, 3)),
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_either_i1_law_alone_decides_membership(key):
    """Relation (1, xi)'s law is A_(1,xi) chi = (-1)^xi a_1 chi plus a
    multiple of j.  Projected onto an eigenspace e other than (0, 0), it
    reads p_(1,xi)(e) E_e chi = (-1)^xi a_1 E_e chi.  Members pass, since
    p_(1,0)(0, 1) = a_1 and p_(1,1)(0, 1) = -a_1.  No eigenvalue of A_(1,0)
    off the two trivial eigenspaces equals a_1, and none of A_(1,1) equals
    -a_1, so either law alone forces E_e chi = 0 there: dropping one of
    the two compared laws from the count route changes no verdict."""
    cfg = space_config(*key)
    tables = scheme_tables(cfg)
    a1 = cl._count_coefficients(cfg, 1)[0]
    off = [e for e in tables.eigs if e not in ((0, 0), (0, 1))]
    laws = [((1, 0), a1)] + ([((1, 1), -a1)] if cfg.nu >= 2 else [])
    for rel, value in laws:
        assert tables.P[rel, (0, 1)] == value
        assert all(tables.P[rel, e] != value for e in off), (rel, value)


def test_lemma_counts_names_an_unknown_relation(s22):
    """An unknown relation raises a ValueError that names it and lists the
    scheme's relations."""
    with pytest.raises(ValueError, match=r"unknown relation \(3, 0\); the relations of .* "
                                         r"are \(0, 0\), \(0, 1\), \(1, 0\), \(1, 1\), "
                                         r"\(2, 0\)$"):
        lemma_counts(_pencil(s22), (3, 0))
    with pytest.raises(ValueError, match=r"unknown relation \[1, 0\]"):
        lemma_counts(_pencil(s22), [1, 0])


@pytest.mark.parametrize("key", [("orthogonal", 3, 2), ("unitary", 4, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_warm_battery_evaluates_no_closed_form(monkeypatch, key):
    """After one warm-up query on the configuration, a battery calls no
    closed form (e_power, gauss_binomial, set_denominator or the count-law
    coefficients), makes one exact product (the route plan's fold times the
    class totals; the image route gathers through the membership plan) and
    builds the set's indicator once, read-only."""
    from clflats import field, geometry
    cfg = space_config(*key)
    battery(_pencil(cfg))  # warm-up
    fs = _near_miss(cfg)
    calls = []

    def refuse(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} on a warm query")
        return spy

    for module in (cl, field, scheme, flats, geometry, spreads):
        for name in ("e_power", "gauss_binomial", "set_denominator", "_count_coefficients"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    products = []

    def count(a, b, real=exact.int_matmul, **kwargs):
        products.append(a.shape)
        return real(a, b, **kwargs)

    monkeypatch.setattr(exact, "int_matmul", count)
    indicators = []

    def chi(self, real=FlatSet.chi):
        indicators.append(real(self))
        return indicators[-1]

    monkeypatch.setattr(FlatSet, "chi", chi)
    assert "_chi" not in vars(fs)
    assert not any(battery(fs).values())
    assert calls == []
    assert products == [cl.route_plan(cfg).fold.shape]
    assert indicators and all(v is vars(fs)["_chi"] for v in indicators)
    assert not indicators[0].flags.writeable


def test_membership_routes_build_no_square_arrays(monkeypatch):
    """A query multiplies by no n x n matrix and builds no dense idempotent:
    the relation products read the direction-pair factorisation, and a
    block of up to MASK_COLUMNS columns takes no mask product."""
    cfg = space_config("orthogonal", 3, 2)
    n = relation_matrix(cfg).shape[0]
    battery(_pencil(cfg))  # set-up outside the count
    square = []

    def spy(a, b, real=exact.int_matmul, **kwargs):
        if a.shape == (n, n):
            square.append(a.dtype)
        return real(a, b, **kwargs)

    def dense(*args):
        raise AssertionError("a dense idempotent on the query path")

    monkeypatch.setattr(exact, "int_matmul", spy)
    monkeypatch.setattr(scheme, "idempotent_int", dense)
    monkeypatch.setattr(cl, "idempotent_int", dense, raising=False)
    battery(_pencil(cfg))
    battery(_near_miss(cfg))
    batch_verdicts(cfg, random_subset_matrix(cfg, scheme.MASK_COLUMNS, seed=1))
    assert square == []
    # a wider block takes one mask product for the one middle relation at nu = 2
    batch_verdicts(cfg, random_subset_matrix(cfg, scheme.MASK_COLUMNS + 1, seed=1))
    assert square == [np.dtype(bool)]


@pytest.mark.parametrize("key", [("symplectic", 3, 2), ("unitary", 4, 2), ("orthogonal", 3, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_queries_never_build_the_relation_table(key):
    """battery and batch_verdicts, set-up included, never call relation_matrix."""
    cfg = space_config(key[0], key[1], key[2])
    scheme.relation_matrix.cache_clear()
    scheme.pair_factors.cache_clear()
    battery(_pencil(cfg))
    battery(_near_miss(cfg))
    batch_verdicts(cfg, random_subset_matrix(cfg, 25, seed=2))
    batch_verdicts(cfg, random_subset_matrix(cfg, scheme.MASK_COLUMNS + 1, seed=2))
    info = scheme.relation_matrix.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert scheme.pair_factors.cache_info().misses == 1


def test_warm_battery_allocates_less_than_n_squared_bytes():
    """No n x n temporary is left on the query path: at its peak, one warm
    battery call on unitary(4,2) holds less than n^2 bytes."""
    cfg = space_config("unitary", 4, 2)
    n = len(enumerate_flats(cfg, cfg.nu))
    sets = [_pencil(cfg), _near_miss(cfg),
            FlatSet(cfg, tuple(np.flatnonzero(random_subset_matrix(cfg, 1, seed=5)[:, 0])))]
    for fs in sets:
        battery(fs)  # warm
        tracemalloc.start()
        try:
            battery(fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n, (fs.size, peak)


@pytest.mark.parametrize("key", [("symplectic", 3, 2), ("unitary", 4, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_warm_batch_peaks_below_five_relation_tables(key, monkeypatch):
    """After a warm-up call, one 25-column batch_verdicts call peaks below
    five int64 (2 nu + 1, n, 25) relation-count tables, and with its
    meeting sums served ready-made (their coset gathers are scheme's), the
    routes' own temporaries peak below one such table: no table T and no
    product C T is formed, where T alone was one table and C T another."""
    cfg = space_config(*key)
    table = (2 * cfg.nu + 1) * len(enumerate_flats(cfg, cfg.nu)) * 25 * 8
    block = random_subset_matrix(cfg, 25, seed=7)
    want = batch_verdicts(cfg, block)  # warm
    meets = {i: scheme.meeting_product(cfg, i, block) for i in range(1, cfg.nu)}
    tracemalloc.start()
    try:
        batch_verdicts(cfg, block)
        peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.setattr(cl, "meeting_product", lambda config, i, X: meets[i])
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        got = batch_verdicts(cfg, block)
        own = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert {k: v.tolist() for k, v in got.items()} == {k: v.tolist() for k, v in want.items()}
    assert peak < 5 * table, (peak, table)
    assert own < table, (own, table)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint16, np.uint32, np.uint64])
def test_batch_verdicts_widen_bool_and_unsigned_blocks(s22, dtype):
    """A 0/1 block of any bool or unsigned dtype (a pencil's indicator, say)
    gets the verdicts of its int64 copy; uint64 goes to object arithmetic,
    so entries past int64 keep their value."""
    pencil = _pencil(s22)
    cols = np.stack([pencil.chi(), pencil.complement().chi(), _near_miss(s22).chi()], axis=1)
    want = {k: v.tolist() for k, v in batch_verdicts(s22, cols).items()}
    assert want["image"] == [True, True, False]
    got = batch_verdicts(s22, cols.astype(dtype))
    assert {k: v.tolist() for k, v in got.items()} == want
    if dtype is np.uint64:
        got = batch_verdicts(s22, cols.astype(np.uint64) * np.uint64(2**63))
        assert {k: v.tolist() for k, v in got.items()} == want


def test_batch_verdicts_refuse_other_blocks(s22, monkeypatch):
    """Float, complex, string, non-2-D and wrong-row-count blocks, and object
    blocks holding a float, a Fraction or a string, raise one ValueError
    naming the dtype and shape, before any product."""
    n = len(enumerate_flats(s22, s22.nu))
    pencil = list(_pencil(s22).ids)
    half = np.zeros((n, 1), dtype=object)
    half[pencil, 0] = 0.5
    third = np.zeros((n, 1), dtype=object)
    third[pencil, 0] = Fraction(1, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a product before the block was checked")

    monkeypatch.setattr(exact, "int_matmul", refuse)
    monkeypatch.setattr(cl, "meeting_product", refuse)
    for bad in (np.ones((n, 2)), np.ones((n, 2), dtype=np.float32), np.ones((n, 2), dtype=complex),
                np.full((n, 2), "1"), np.ones(n, dtype=np.int64), np.ones((n, 2, 1), dtype=np.int64),
                np.ones((n - 1, 2), dtype=np.int64), np.ones((n + 1, 2), dtype=np.uint8),
                half, third, np.full((n, 2), "1", dtype=object)):
        with pytest.raises(ValueError, match=rf"dtype {bad.dtype}, shape \({bad.shape[0]},"):
            batch_verdicts(s22, bad)


def test_batch_verdicts_take_numpy_integers_in_object_blocks_exactly(s22):
    """An object block of numpy int64 scalars gets the verdicts of the same
    Python ints: scaled by 2^62, the scalars' own arithmetic wraps, and a
    near miss read as passing the shifted route."""
    cols = np.stack([_pencil(s22).chi(), _pencil(s22).complement().chi(),
                     _near_miss(s22).chi()], axis=1)
    want = {k: v.tolist() for k, v in batch_verdicts(s22, cols).items()}
    assert want["image"] == [True, True, False]
    scalars = np.empty(cols.shape, dtype=object)
    for index, v in np.ndenumerate(cols):
        scalars[index] = np.int64(v) * np.int64(2**62)
    got = batch_verdicts(s22, scalars)
    assert {k: v.tolist() for k, v in got.items()} == want


def test_batch_verdicts_of_an_empty_block_are_empty(s22):
    n = len(enumerate_flats(s22, s22.nu))
    for dtype in (np.int64, object):
        verdicts = batch_verdicts(s22, np.zeros((n, 0), dtype=dtype))
        assert set(verdicts) == {"image", "spectrum", "shifted", "counts"}
        assert all(v.shape == (0,) and v.dtype == np.dtype(bool) for v in verdicts.values())


def test_batch_image_route_widens_blocks_whose_sums_would_wrap(s22):
    """K's sums have q^nu = 4 entries on symplectic(2,2), so int64 entries of
    2^61 and 2^62 can wrap them.  Whole direction blocks of alternating sign
    times 2^62 (or 2 * 2^61) are not in the image, yet every block sum and
    value-group sum wraps to the same int64; the block is widened instead.
    For int64 blocks near the bound, object blocks of 2^70 and uint64 blocks
    of 2^63, the image verdict equals N's and that of the block as Python
    ints."""
    n = len(enumerate_flats(s22, s22.nu))
    per = s22.q**s22.nu
    pencil = _pencil(s22)
    cols = np.stack([pencil.chi(), pencil.complement().chi(), _near_miss(s22).chi(),
                     full_set(s22).chi()], axis=1)
    signs = np.repeat(np.where(np.arange(n // per) % 2, -1, 1), per)
    rng = np.random.default_rng(61)
    wide = np.column_stack([2**62 * signs, 2 * 2**61 * signs, 2**61 * signs,
                            3 * 2**61 * cols[:, 0], 2**61 * (cols[:, 1] - cols[:, 0]),
                            2**61 * rng.choice([-1, 1], n), 2**61 * cols[:, 2]])
    assert wide.dtype == np.int64
    assert spreads.membership_plan(s22).annihilates(wide[:, 0])  # wrapped: unwidened, it passes
    blocks = [wide, cols.astype(object) * 2**70, cols.astype(np.uint64) * np.uint64(2**63)]
    for block in blocks:
        exact_block = np.array([int(v) for v in block.flat], dtype=object).reshape(block.shape)
        oracle = ~int_matmul(incidence_kernel(s22).matrix(), exact_block).any(axis=0)
        got = batch_verdicts(s22, block)["image"]
        assert got.tolist() == oracle.tolist() == \
            batch_verdicts(s22, exact_block)["image"].tolist(), block.dtype
    assert batch_verdicts(s22, wide)["image"].tolist() == \
        [False, False, False, True, True, False, False]


def _cached_arrays(value, seen):
    """Every numpy array reachable from a cached value."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list, set, frozenset)):
        for v in value:
            yield from _cached_arrays(v, seen)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _cached_arrays(v, seen)
    elif hasattr(value, "__dict__"):
        yield from _cached_arrays(vars(value), seen)


def test_paper_suite_caches_no_dense_matrix_but_the_relation_table():
    """After a whole paper suite, the int8 relation table is the only cached n x n array."""
    cfg = space_config("symplectic", 3, 2)
    paper_suite(cfg, 0)
    n = relation_matrix(cfg).shape[0]
    cached = {fn for module in (scheme, spreads, cl) for fn in vars(module).values()
              if hasattr(fn, "cache_info")}
    found = []
    for fn in sorted(cached, key=lambda f: f.__qualname__):
        caches = [d for d in gc.get_referents(fn) if isinstance(d, dict)]
        assert caches, fn.__qualname__
        seen = set()
        for cache in caches:
            found += [(fn.__qualname__, a.dtype) for a in _cached_arrays(cache, seen)
                      if a.shape == (n, n)]
    assert found == [("relation_matrix", np.dtype(np.int8))]


def test_batch_includes_positives(s22):
    pencil = _pencil(s22)
    chi = np.stack([pencil.chi(), pencil.complement().chi(),
                    full_set(s22).chi()], axis=1)
    verdicts = batch_verdicts(s22, chi)
    assert verdicts["image"].all()
    for key in ("spectrum", "shifted", "counts"):
        assert verdicts[key].all()


def test_parameter_range_for_cl_sets(medium_config):
    cfg = medium_config
    for fs in (_pencil(cfg), _pencil(cfg).complement(), full_set(cfg), empty_set(cfg)):
        x = cl_parameter(fs)
        assert 0 <= x <= cfg.q**cfg.nu
        assert cl_parameter(fs.complement()) == cfg.q**cfg.nu - x


def _near_miss(cfg):
    """A pencil with one member swapped for a flat of another parallel class.

    It has a pencil's size but meets two parallel classes (type-I spreads)
    unequally, so it is not a Cameron-Liebler set.
    """
    pencil = _pencil(cfg)
    maximal = enumerate_flats(cfg, cfg.nu)
    drop = pencil.ids[0]
    swap = next(f for f in range(len(maximal))
                if f not in pencil and maximal[f].direction != maximal[drop].direction)
    return FlatSet(cfg, pencil.ids[1:] + (swap,))


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2)])
def test_every_method_agrees(key):
    cfg = space_config(*key)
    methods = ("auto", "image", "kernel", "spectrum", "shifted", "counts", "spreads")
    for fs, expected in ((_pencil(cfg), True), (_pencil(cfg).complement(), True),
                         (_near_miss(cfg), False)):
        assert {m: is_cameron_liebler(fs, m) for m in methods} == dict.fromkeys(methods, expected)
    with pytest.raises(ValueError):
        is_cameron_liebler(_pencil(cfg), "bogus")


@pytest.mark.parametrize("key", [c for c in MEDIUM_CONFIGS] + [("symplectic", 3, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_certified_kernel_basis(key):
    """The certificate holds, and the spreads the oracle elimination keeps
    cover each point once and number n - rank M + 1, and their differences
    lie in the row span of N, so they span ker M."""
    cfg = space_config(*key)
    assert spreads.character_plan(cfg).failure is None
    kept = spanning_rows_oracle(cfg)
    S = spreads.family_indicators(cfg, kept).astype(np.int64)
    M = incidence_matrix(cfg).matrix
    n = M.shape[1]
    assert len(kept) == n - incidence_rank(cfg) + 1 == n - incidence_rank_closed_form(cfg) + 1
    assert (M @ S.T == 1).all()
    assert min(kept) >= (len(spreads.list_type_I(cfg)) if cfg.nu >= 2 else 0)
    N = incidence_kernel(cfg).matrix()
    free = np.setdiff1d(np.arange(n), exact.modular_echelon(M, exact.MODULAR_PRIMES[0])[1])
    assert in_row_span(N, free, S[1:] - S[0])


@pytest.mark.parametrize("key", [c for c in MEDIUM_CONFIGS]
                         + [("symplectic", 3, 2), ("unitary", 4, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_certified_image_basis(key):
    cfg = space_config(*key)
    N = incidence_kernel(cfg).matrix()
    M = incidence_matrix(cfg).matrix
    free = np.setdiff1d(np.arange(M.shape[1]),
                        exact.modular_echelon(M, exact.MODULAR_PRIMES[0])[1])
    exact.check_null_basis(M, N, free)
    assert N.dtype == np.int64 and not N.flags.writeable
    assert N.shape[0] == M.shape[1] - incidence_rank_closed_form(cfg) == len(free)
    assert incidence_rank(cfg) == incidence_rank_closed_form(cfg)
    if key != ("unitary", 4, 2):  # the Fraction oracle takes seconds there
        oracle = integer_nullspace(M)
        assert oracle.shape == N.shape and in_row_span(N, free, oracle)


def test_queries_and_batches_never_build_or_multiply_by_the_null_basis(monkeypatch):
    """battery and batch_verdicts never multiply by N or by its pivot block,
    and never ask for N (the image route reads the membership plan, for a
    single set and for a block alike); and no (n - rank M) x n matrix is
    cached: N is assembled from the split only on request."""
    cfg = space_config("unitary", 4, 2)
    kernel = incidence_kernel(cfg)
    N = incidence_kernel(cfg).matrix()
    assert exact._bound(N) * N.shape[1] < 2**53  # chi is 0/1: N would take the float64 tier
    calls = incidence_kernel.cache_info()
    seen = []
    real = exact._float_product
    monkeypatch.setattr(exact, "_float_product", lambda a, b: seen.append(a) or real(a, b))
    for fs in (_pencil(cfg), _near_miss(cfg)):
        battery(fs)
    for seed in (3, 4):
        batch_verdicts(cfg, random_subset_matrix(cfg, 5, seed=seed))
    assert incidence_kernel.cache_info() == calls
    assert not [a for a in seen if a.shape in (N.shape, kernel.block.shape)]
    paper_suite(cfg, 0)
    cached = {fn for module in (cl, spreads, scheme, exact, flats)
              for fn in vars(module).values() if hasattr(fn, "cache_info")}
    found = {}
    for fn in cached:
        for cache in (d for d in gc.get_referents(fn) if isinstance(d, dict)):
            found.update((id(a), a) for a in _cached_arrays(cache, set()) if a.shape == N.shape)
    assert not found


@pytest.mark.parametrize("key", KERNEL_KEYS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_pivot_block_product_matches_the_null_basis(key):
    """The split is N: N[:, free] = diag(scale), N[:, pivots] = block, with
    block in the narrowest integer type, and every array read-only."""
    cfg = space_config(*key)
    kernel = incidence_kernel(cfg)
    M = incidence_matrix(cfg).matrix
    N = incidence_kernel(cfg).matrix()
    assert N.dtype == np.int64 and (N == exact.certified_null_basis(M).matrix()).all()
    n = N.shape[1]
    rank = incidence_rank_closed_form(cfg)
    assert kernel.block.shape == (n - rank, rank) and (kernel.block == N[:, kernel.pivots]).all()
    assert kernel.block.dtype == np.int8  # max|N| <= 10 here
    assert (N[:, kernel.free] == np.diag(kernel.scale)).all()
    assert not any(a.flags.writeable for a in (kernel.block, kernel.scale, kernel.free,
                                                kernel.pivots, N))


def test_kernel_image_and_nullspace_oracle_agree(medium_config):
    """N, the image route and the conclusive spread route (whose spread
    differences span ker M) agree with the Fraction nullspace oracle."""
    cfg = medium_config
    oracle = integer_nullspace(incidence_matrix(cfg).matrix)
    chi = np.concatenate([random_subset_matrix(cfg, 20, seed=17),
                          np.stack([_pencil(cfg).chi(), _pencil(cfg).complement().chi(),
                                    _near_miss(cfg).chi()], axis=1)], axis=1)
    by_oracle = ~int_matmul(oracle, chi).any(axis=0)
    by_image = ~int_matmul(incidence_kernel(cfg).matrix(), chi).any(axis=0)
    assert (by_oracle == by_image).all()
    assert by_oracle[-3:].tolist() == [True, True, False]
    for col in range(chi.shape[1]):
        fs = FlatSet(cfg, tuple(int(i) for i in np.flatnonzero(chi[:, col])))
        by_spreads = spread_test(fs, "constructive")
        assert by_spreads.conclusive
        assert image_route(fs) == by_spreads.passed == bool(by_oracle[col])


def _exact_witness(cfg, fs, y) -> bool:
    """M^T y = chi, checked in integers after clearing y's denominators."""
    scale = math.lcm(*(v.denominator for v in y))
    Y = np.array([int(v * scale) for v in y], dtype=object)
    MT = incidence_matrix(cfg).matrix.T.astype(object)
    return bool((np.dot(MT, Y) == scale * fs.chi().astype(object)).all())


@pytest.mark.parametrize("key", [c for c in MEDIUM_CONFIGS] + [("symplectic", 3, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_image_certificate_witness_or_none(key):
    """A witness exactly for the sets the image route accepts, and M^T y = chi."""
    cfg = space_config(*key)
    pencil = _pencil(cfg)
    sets = [pencil, pencil.complement(), _near_miss(cfg), FlatSet(cfg, pencil.ids[1:])]
    points = all_vectors(cfg)
    far = next((pt for pt in points if pencils_disjoint(cfg, points[0], pt)), None)
    if far is not None:  # symplectic spaces have no disjoint pencils
        sets.append(combine(_pencil(cfg, points[0]), _pencil(cfg, far), "disjoint_union"))
    cols = random_subset_matrix(cfg, 4, seed=23)
    sets += [FlatSet(cfg, tuple(int(i) for i in np.flatnonzero(c))) for c in cols.T]
    found = []
    for fs in sets:
        y = image_certificate(fs)
        assert (y is not None) == image_route(fs), fs.ids
        if y is not None:
            assert len(y) == cfg.num_points and all(isinstance(v, Fraction) for v in y)
            assert _exact_witness(cfg, fs, y)
        found.append(y is not None)
    assert found[:4] == [True, True, False, False]
    if far is not None:
        assert found[4]


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2),
                                 ("symplectic", 3, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_restriction_image_matches_oracle(key):
    """in_container_image on every distinct container, against the Fraction
    nullspace of the container's incidence matrix: seeded random sets, a
    pencil through a container point (a member) and one interior flat (not)."""
    cfg = space_config(*key)
    ids = flat_ids(cfg)
    cols = random_subset_matrix(cfg, 3, seed=41)
    randoms = [FlatSet(cfg, tuple(int(i) for i in np.flatnonzero(c))) for c in cols.T]
    verdicts = []
    for t in distinct_containers(cfg):
        _, members, M = incidence_by_flat_points(cfg, t)
        oracle = integer_nullspace(M)
        local = {ids[f]: col for col, f in enumerate(members)}
        member = construct_pencil(cfg, min(flat_points(cfg, t)))
        single = FlatSet(cfg, (ids[members[0]],))
        for fs, expected in [(member, True), (single, False)] + [(r, None) for r in randoms]:
            r = restrict_cl(fs, t)
            chi = np.zeros(len(members), dtype=object)
            chi[[local[g] for g in r.member_ids]] = 1
            want = not np.dot(oracle, chi).any()
            assert r.in_container_image == want, (t, fs.ids)
            assert expected is None or want == expected
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def _restriction_by_dicts(flat_set, container):
    """restrict_cl by a Flat -> id dict, two set intersections and the
    certified null basis of the flat_points incidence of the container."""
    config = flat_set.config
    _, inside, M = incidence_by_flat_points(config, container)
    i = container.dim - config.nu
    ids = flat_ids(config)
    local_of_global = {ids[f]: col for col, f in enumerate(inside)}
    members = tuple(sorted(set(flat_set.ids) & set(local_of_global)))
    chi_local = np.zeros((len(inside), 1), dtype=np.int64)
    chi_local[[local_of_global[g] for g in members], 0] = 1
    null = exact.certified_null_basis(M).matrix()
    in_image = not int_matmul(null, chi_local).any()
    x_f = Fraction(len(members), set_denominator(config, i))
    integral = x_f.denominator == 1
    within = 0 <= x_f <= min(flat_set.x, Fraction(config.q**i))
    return cl.Restriction(container, i, members, x_f, in_image, integral, within)


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2), ("symplectic", 2, 3)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_restriction_gather_matches_the_dict_oracle(key):
    """restrict_cl, which gathers chi at the container plan's flat ids,
    equals the dict-based restriction for a pencil, its complement and a
    near miss: on every distinct container at nu = 2, and on the i = 1
    and i = 2 containers of two pencil members at nu = 3."""
    cfg = space_config(*key)
    pencil = _pencil(cfg)
    if cfg.nu == 2:
        containers = distinct_containers(cfg)
    else:
        maximal = enumerate_flats(cfg, cfg.nu)
        containers = [t for base in pencil.ids[:2] for i in (1, 2)
                      for t in container_flats(cfg, maximal[base], i)]
    verdicts = set()
    for fs in (pencil, pencil.complement(), _near_miss(cfg)):
        for t in containers:
            got = restrict_cl(fs, t)
            assert got == _restriction_by_dicts(fs, t), (t, fs.ids)
            assert all(type(g) is int for g in got.member_ids)
            verdicts.add(got.in_container_image)
    assert verdicts == {True, False}


def test_restriction_refuses_a_bad_container_before_any_plan(monkeypatch):
    """restrict_cl raises ValueError for a flat of Gram rank other than 2i
    and for dimensions nu and 2 nu, outside nu+1..2nu-1, before it reads a
    character or builds and caches a membership plan."""
    cfg = space_config("symplectic", 2, 3)
    pencil = _pencil(cfg)
    units = [tuple(int(j == k) for j in range(cfg.dim)) for k in range(cfg.dim)]
    subspaces = [canonicalize(cfg, list(rows)) for rows in itertools.combinations(units, 4)]
    nondegenerate = next(d for d in subspaces if gram_rank(cfg, d) == 4)
    origin = zero_vector(cfg)
    bad = [flat_make(cfg, nondegenerate, origin),
           enumerate_flats(cfg, cfg.nu)[pencil.ids[0]],
           flat_make(cfg, canonicalize(cfg, units), origin)]
    assert [t.dim for t in bad] == [4, 3, 6]

    def refuse(*args):
        raise AssertionError("a membership plan was started")

    for name in ("character_kernels", "_restricted_lines", "_point_values", "_check_groups"):
        monkeypatch.setattr(spreads, name, refuse)
    cached = spreads.membership_plan.cache_info().currsize
    for t in bad:
        with pytest.raises(ValueError, match="container"):
            restrict_cl(pencil, t)
    assert spreads.membership_plan.cache_info().currsize == cached


def test_container_profiles_need_no_certified_null_basis(monkeypatch):
    """pencil_distribution and degree_identity on a pencil of
    symplectic(2,3) and its complement, at i = 1 and 2, from cold container
    plans, with certified_null_basis replaced by a function that raises."""
    cfg = space_config("symplectic", 2, 3)
    pencil = _pencil(cfg)
    spreads.membership_plan.cache_clear()

    def refuse(matrix):
        raise AssertionError("a certified null basis on a container restriction")

    monkeypatch.setattr(exact, "certified_null_basis", refuse)
    for fs in (pencil, pencil.complement()):
        for i in (1, 2):
            prof = pencil_distribution(fs, fs.ids[0], i)
            assert prof.count_identity_ok and prof.weighted_identity_ok
            assert prof.bound_ok and prof.case_detail_ok
            assert degree_identity(fs, fs.ids[0], i)
            assert cl.degree_identity_holds(cfg, i, fs.x, prof.container_parameters)


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2), ("unitary", 4, 1)])
def test_constructive_spreads_conclusive(key):
    cfg = space_config(*key)
    member = spread_test(_pencil(cfg), "constructive")
    assert member.conclusive and member.passed
    miss = spread_test(_near_miss(cfg), "constructive")
    assert miss.conclusive and not miss.passed and not miss.constant
    assert spread_test(_near_miss(cfg)).conclusive  # auto is the constructive family


def test_spread_family_parts(s22, s21):
    typeI = spread_test(_pencil(s22), "typeI")
    typeII = spread_test(_pencil(s22), "typeII")
    assert not typeI.conclusive and not typeII.conclusive
    assert len(typeI.intersections) == 15 and len(typeII.intersections) == 90
    assert set(typeI.intersections + typeII.intersections) == {1}
    with pytest.raises(ValueError):
        spread_test(_pencil(s21), "typeII")
    with pytest.raises(ValueError):
        spread_test(_pencil(s22), "bogus")


@pytest.mark.parametrize("key", STANDARD_GRID, ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_spread_intersections_match_a_row_scan(key):
    """The intersections gathered through family_member_columns are, row by
    row of family_members, the number of the set's ids among the row's
    members, for every family part, on a pencil, a near miss and a random
    set; the column array is family_members transposed, C-contiguous and
    read-only."""
    cfg = space_config(*key)
    members = spreads.family_members(cfg)
    columns = spreads.family_member_columns(cfg)
    assert np.array_equal(columns, members.T)
    assert columns.flags.c_contiguous and not columns.flags.writeable
    split = len(enumerate_isotropic(cfg, cfg.nu))
    parts = {"constructive": members, "typeI": members[:split], "typeII": members[split:]}
    rng = random.Random(f"{key}")
    n = len(enumerate_flats(cfg, cfg.nu))
    for fs in (_pencil(cfg), _near_miss(cfg), FlatSet(cfg, tuple(rng.sample(range(n), n // 3)))):
        ids = set(fs.ids)
        for family, rows in parts.items():
            if family == "typeII" and cfg.nu < 2:
                continue
            want = tuple(len(ids.intersection(row)) for row in rows.tolist())
            assert spread_test(fs, family).intersections == want


def test_flat_set_membership(s22):
    pencil = _pencil(s22)
    members = set(pencil.ids)
    assert all((f in pencil) == (f in members) for f in range(-1, 62))
    assert 0 not in empty_set(s22)

"""Cameron-Liebler sets: batteries, constructions, classification, profiles."""

import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from clflats import cl, exact, scheme, spreads
from clflats.cl import (
    FlatSet,
    _image_solver,
    _kernel_basis,
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
    test_kernel as kernel_route,
    test_solvable as solvable_route,
    test_spreads as spread_test,
)
from clflats.exact import int_matmul
from clflats.flats import (
    container_flats,
    enumerate_flats,
    flat_ids,
    flat_points,
    incidence_matrix,
    incidence_matrix_in,
    incidence_rank,
    incidence_rank_closed_form,
)
from clflats.geometry import all_vectors, random_isometry, space_config, zero_vector
from clflats.cli import paper_suite
from clflats.scheme import idempotent_int, relation_matrix, relation_products, scheme_tables
from conftest import MEDIUM_CONFIGS, in_row_span, integer_nullspace


def _pencil(cfg, point=None):
    return construct_pencil(cfg, point if point is not None else zero_vector(cfg))


def test_parameters(s22):
    assert cl_parameter(empty_set(s22)) == 0
    assert cl_parameter(_pencil(s22)) == 1
    assert cl_parameter(full_set(s22)) == 4
    assert _pencil(s22).size == set_denominator(s22) == 15
    odd = FlatSet(s22, (0, 1, 2, 3))
    assert cl_parameter(odd) == Fraction(4, 15)  # rational, never rounded


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
    T = relation_products(s22, np.eye(5, dtype=np.int64), chi.reshape(-1, 1))[:, :, 0]
    c10, c11, c20 = T[2], T[3], T[4]  # relation codes 2i + xi
    assert set(c10[in_set]) == {6} and set(c10[~in_set]) == {2}
    assert set(c11[in_set]) == {0} and set(c11[~in_set]) == {4}
    assert set(c20[in_set]) == {8}  # the general-index law at i = 2
    assert lemma_counts(pencil, (2, 0))
    for rel in scheme_tables(s22).rels:
        if rel != (0, 0):
            assert lemma_counts(pencil, rel)


def test_counts_law_all_constructions(medium_config):
    cfg = medium_config
    rels = [r for r in scheme_tables(cfg).rels if r != (0, 0)]
    for fs in (_pencil(cfg), _pencil(cfg).complement(), full_set(cfg)):
        for rel in rels:
            assert lemma_counts(fs, rel)


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
    for key in ("kernel", "spectrum", "shifted", "counts"):
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


def test_membership_routes_build_no_dense_matrices(monkeypatch):
    """Each route call makes exactly 2 nu n x n products, all with 0/1 relation
    masks, and builds no dense idempotent."""
    cfg = space_config("orthogonal", 3, 2)
    n = relation_matrix(cfg).shape[0]
    battery(_pencil(cfg))  # set-up outside the count
    square = []

    def spy(a, b, real=exact.int_matmul):
        if a.shape == (n, n):
            square.append(a.dtype)
        return real(a, b)

    def dense(*args):
        raise AssertionError("a dense idempotent on the query path")

    monkeypatch.setattr(exact, "int_matmul", spy)
    monkeypatch.setattr(scheme, "idempotent_int", dense)
    monkeypatch.setattr(cl, "idempotent_int", dense, raising=False)
    battery(_pencil(cfg))
    battery(_near_miss(cfg))
    batch_verdicts(cfg, random_subset_matrix(cfg, 5, seed=1))
    assert square == [np.dtype(bool)] * (3 * 2 * cfg.nu)


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
    for key in ("kernel", "spectrum", "shifted", "counts"):
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
    cfg = space_config(*key)
    K = _kernel_basis(cfg)
    M = incidence_matrix(cfg).matrix
    assert K.dtype == np.int64 and set(np.unique(K)) <= {-1, 0, 1}
    assert not (M @ K.T).any()
    assert K.shape == (M.shape[1] - incidence_rank(cfg), M.shape[1])


@pytest.mark.parametrize("key", [c for c in MEDIUM_CONFIGS]
                         + [("symplectic", 3, 2), ("unitary", 4, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_certified_image_basis(key):
    cfg = space_config(*key)
    N = _image_solver(cfg)
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


def test_image_and_kernel_products_stay_on_float64_tier(monkeypatch):
    cfg = space_config("unitary", 4, 2)
    N, K = _image_solver(cfg), _kernel_basis(cfg)
    for basis in (N, K):
        assert exact._bound(basis) * basis.shape[1] < 2**53  # chi is 0/1
    seen = []
    real = exact._float_product
    monkeypatch.setattr(exact, "_float_product", lambda a, b: seen.append(a) or real(a, b))
    pencil = _pencil(cfg)
    assert solvable_route(pencil) and kernel_route(pencil)
    verdicts = batch_verdicts(cfg, random_subset_matrix(cfg, 5, seed=3))
    assert verdicts["image"].tolist() == verdicts["kernel"].tolist()
    assert sum(a is N for a in seen) == 2 and sum(a is K for a in seen) == 2


def test_kernel_image_and_nullspace_oracle_agree(medium_config):
    cfg = medium_config
    oracle = integer_nullspace(incidence_matrix(cfg).matrix)
    chi = np.concatenate([random_subset_matrix(cfg, 20, seed=17),
                          np.stack([_pencil(cfg).chi(), _pencil(cfg).complement().chi(),
                                    _near_miss(cfg).chi()], axis=1)], axis=1)
    by_oracle = ~int_matmul(oracle, chi).any(axis=0)
    by_kernel = ~int_matmul(_kernel_basis(cfg), chi).any(axis=0)
    by_image = ~int_matmul(_image_solver(cfg), chi).any(axis=0)
    assert (by_oracle == by_kernel).all() and (by_oracle == by_image).all()
    assert by_oracle[-3:].tolist() == [True, True, False]
    for col in range(chi.shape[1]):
        fs = FlatSet(cfg, tuple(int(i) for i in np.flatnonzero(chi[:, col])))
        assert kernel_route(fs) == solvable_route(fs) == bool(by_oracle[col])


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
        assert (y is not None) == solvable_route(fs), fs.ids
        if y is not None:
            assert len(y) == cfg.num_points and all(isinstance(v, Fraction) for v in y)
            assert _exact_witness(cfg, fs, y)
        found.append(y is not None)
    assert found[:4] == [True, True, False, False]
    if far is not None:
        assert found[4]


def _distinct_containers(cfg):
    seen = {}
    for base in enumerate_flats(cfg, cfg.nu):
        for t in container_flats(cfg, base, 1):
            seen.setdefault(t, None)
    return list(seen)


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
    for t in _distinct_containers(cfg):
        inc = incidence_matrix_in(cfg, t)
        oracle = integer_nullspace(inc.matrix)
        local = {ids[f]: col for col, f in enumerate(inc.flats)}
        member = construct_pencil(cfg, min(flat_points(cfg, t)))
        single = FlatSet(cfg, (ids[inc.flats[0]],))
        for fs, expected in [(member, True), (single, False)] + [(r, None) for r in randoms]:
            r = restrict_cl(fs, t)
            chi = np.zeros(len(inc.flats), dtype=object)
            chi[[local[g] for g in r.member_ids]] = 1
            want = not np.dot(oracle, chi).any()
            assert r.in_container_image == want, (t, fs.ids)
            assert expected is None or want == expected
            verdicts.append(want)
    assert True in verdicts and False in verdicts


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


def test_flat_set_membership(s22):
    pencil = _pencil(s22)
    members = set(pencil.ids)
    assert all((f in pencil) == (f in members) for f in range(-1, 62))
    assert 0 not in empty_set(s22)

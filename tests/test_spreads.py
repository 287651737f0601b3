"""Spread constructions, exhaustive searches, switching sets, span results."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from clflats import cl, exact, flats, scheme, spreads
from clflats.cl import (
    FlatSet,
    batch_verdicts,
    battery,
    construct_pencil,
    image_witness,
    is_cameron_liebler,
    random_subset_matrix,
    test_image as image_route,
    test_spreads as spread_test,
)
from clflats.cli import STANDARD_GRID, paper_suite
from clflats.field import e_power
from clflats.flats import (
    enumerate_flats,
    flat_ids,
    flat_make,
    incidence_matrix,
    incidence_rank,
    incidence_rank_closed_form,
)
from clflats.geometry import (
    all_vectors,
    canonicalize,
    contains_subspace,
    contains_vector,
    enumerate_isotropic,
    gram_rank,
    is_totally_isotropic,
    reduce_mod,
    space_config,
    span_points,
    vec_add,
    zero_vector,
)
from clflats.scheme import PRODUCT_COLUMNS, scheme_tables
from clflats.spreads import (
    character_plan,
    classify_set,
    coverage,
    enumerate_spreads,
    family_members,
    is_switching_pair,
    membership_plan,
    list_type_I,
    list_type_II,
    spread_type_I,
    spread_type_II,
    typeI_span_check,
    typeII_span_check,
)
from conftest import (
    MEDIUM_CONFIGS,
    eta1_vanishing_oracle,
    incidence_kernel,
    membership_rows,
    parallel_vanishing_oracle,
    rational_rank,
    spanning_rows_oracle,
    type_II_components_oracle,
    type_II_members_oracle,
    unit_vector,
)


def test_type_I_construction(medium_config):
    cfg = medium_config
    family = list_type_I(cfg)
    assert len(family) == len(enumerate_isotropic(cfg, cfg.nu))
    n_members = cfg.q**cfg.nu
    for s in family:
        assert len(s.members) == n_members
        assert classify_set(cfg, s.members) == "full_spread"
    # distinct type-I spreads never share a flat
    seen = set()
    for s in family:
        assert not (seen & set(s.members))
        seen |= set(s.members)
    assert len(seen) == len(enumerate_flats(cfg, cfg.nu))


def test_type_I_rows_are_the_spreads_of_each_direction(medium_config):
    """list_type_I and the first rows of family_members are the flat-id
    blocks of the directions, as spread_type_I builds them flat by flat."""
    cfg = medium_config
    want = [spread_type_I(cfg, d).members for d in enumerate_isotropic(cfg, cfg.nu)]
    assert [s.members for s in list_type_I(cfg)] == want
    assert all(s.tag == "I" and s.scope is None for s in list_type_I(cfg))
    assert family_members(cfg)[:len(want)].tolist() == [list(m) for m in want]


def test_type_I_rejects_bad_direction(s22):
    with pytest.raises(ValueError):
        spread_type_I(s22, canonicalize(s22, [unit_vector(s22, 0)]))
    with pytest.raises(ValueError):
        spread_type_I(s22, canonicalize(s22, [unit_vector(s22, 0), unit_vector(s22, 2)]))


def test_type_II_spec_example(s22):
    e = lambda j: unit_vector(s22, j)
    q_sub = canonicalize(s22, [e(0), e(1), e(3)])
    p1 = canonicalize(s22, [e(0), e(1)])
    p2 = canonicalize(s22, [e(0), e(3)])
    s = spread_type_II(s22, q_sub, p1, p2)
    assert len(s.members) == 4
    assert classify_set(s22, s.members) == "full_spread"
    flats = enumerate_flats(s22, 2)
    directions = [flats[i].direction for i in s.members]
    assert directions.count(p1) == 2 and directions.count(p2) == 2
    swapped = spread_type_II(s22, q_sub, p2, p1)
    assert swapped.members != s.members
    assert (coverage(s22, s.members) == coverage(s22, swapped.members)).all()


def test_type_II_interior_count(s22, o32):
    """Every type-(nu+1, 2) container of pair_factors holds q^(e2/2) + 1
    maximal directions."""
    for cfg in (s22, o32, space_config("unitary", 4, 2)):
        factors = scheme.pair_factors(cfg)
        assert factors.container_cosets().shape[2] > 0
        assert factors.sizes[0] == e_power(cfg, cfg.e2) + 1


def test_type_II_guards(s22, s21):
    e = lambda j: unit_vector(s22, j)
    q_sub = canonicalize(s22, [e(0), e(1), e(3)])
    p1 = canonicalize(s22, [e(0), e(1)])
    p2 = canonicalize(s22, [e(0), e(3)])
    with pytest.raises(ValueError):
        spread_type_II(s22, q_sub, p1, p1)
    with pytest.raises(ValueError):
        spread_type_II(s22, p1, p1, p2)
    other = canonicalize(s22, [e(1), e(2)])
    with pytest.raises(ValueError):
        spread_type_II(s22, q_sub, p1, other)
    with pytest.raises(ValueError):
        spread_type_II(s21, canonicalize(s21, [unit_vector(s21, 0), unit_vector(s21, 1)]),
                       canonicalize(s21, [unit_vector(s21, 0)]),
                       canonicalize(s21, [unit_vector(s21, 1)]))


def _broken_components(cfg, container, interior):
    """The component (container, interior) with one precondition broken:
    its last direction replaced, or its container by a direction."""
    outside = next(p for p in enumerate_isotropic(cfg, cfg.nu)
                   if not contains_subspace(cfg.field, container, p))
    points = [v for v in all_vectors(cfg) if any(v) and contains_vector(cfg.field, container, v)]
    degenerate = next(d for d in (canonicalize(cfg, [v, w]) for v in points for w in points)
                      if d.dim == cfg.nu and not is_totally_isotropic(cfg, d))
    short = canonicalize(cfg, [interior[0].basis[0]])
    head = interior[:-1]
    return {"outside": ((container, head + (outside,)), "inside the container"),
            "not isotropic": ((container, head + (degenerate,)), "maximal totally isotropic"),
            "too small": ((container, head + (short,)), "maximal totally isotropic"),
            "container": ((interior[0], interior), r"type-\(nu\+1, 2\)")}


@pytest.mark.parametrize("bad", ["outside", "not isotropic", "too small", "container"])
def test_spread_type_II_checks_every_precondition(s22, bad):
    """spread_type_II names the broken precondition of a component: a
    direction outside the container, a degenerate or too small direction,
    or a direction in place of the container."""
    (container, interior), message = _broken_components(
        s22, *type_II_components_oracle(s22)[-1])[bad]
    with pytest.raises(ValueError, match=message):
        spread_type_II(s22, container, interior[0], interior[-1])


@pytest.mark.parametrize("key", [("orthogonal", 3, 2), ("unitary", 4, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_type_II_family_checks_the_gram_rank_of_every_container(key):
    """A (nu+1)-dimensional container whose Gram rank is not 2 is refused
    by spread_type_II by its rank alone."""
    cfg = space_config(*key)
    interior = type_II_components_oracle(cfg)[-1][1]
    # a maximal direction plus any vector has Gram rank 2, so extend a hyperbolic pair
    pair = [unit_vector(cfg, 0), unit_vector(cfg, cfg.nu)]
    wrong = next(c for c in (canonicalize(cfg, pair + [v]) for v in all_vectors(cfg))
                 if c.dim == cfg.nu + 1 and gram_rank(cfg, c) != 2)
    with pytest.raises(ValueError, match=r"type-\(nu\+1, 2\)"):
        spread_type_II(cfg, wrong, *interior[:2])


@pytest.mark.parametrize("key", [k for k in STANDARD_GRID if k[2] >= 2]
                         + [("symplectic", 4, 2), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_type_II_family_matches_the_oracles(key):
    """The member rows gathered from the container table of pair_factors
    equal the point-wise gather over the canonicalize loop's containers,
    byte for byte."""
    cfg = space_config(*key)
    want = np.vstack([spreads._type_I_members(cfg), type_II_members_oracle(cfg)])
    members = family_members(cfg)
    assert members.dtype == want.dtype and members.shape == want.shape
    assert members.tobytes() == want.tobytes()


@pytest.mark.parametrize("key", [("symplectic", 2, 3), ("unitary", 4, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_type_II_family_in_small_chunks_is_the_same(key, monkeypatch):
    """With PAIR_ELEMENTS at 1, pair_factors splits one direction pair at a
    time, and the type-II rows read off its container table do not change."""
    cfg = space_config(*key)
    rows = spreads._type_II_members(cfg)
    monkeypatch.setattr(scheme, "PAIR_ELEMENTS", 1)
    monkeypatch.setattr(spreads, "pair_factors", scheme.pair_factors.__wrapped__)
    assert spreads._type_II_members(cfg).tobytes() == rows.tobytes()


def test_type_II_labels_are_checked(monkeypatch):
    """Two flats of one direction swapped between two cosets of one
    container in the i = 1 table of pair_factors: the rows read off it no
    longer cover each point once, so character_plan raises AssertionError
    and the spread route cannot pass on the bad table."""
    for key in (("symplectic", 2, 2), ("unitary", 4, 2)):
        cfg = space_config(*key)
        pencil = construct_pencil(cfg, zero_vector(cfg))
        real = scheme.pair_factors(cfg)
        cosets = np.array(real.container_cosets())
        cosets[0, 0, 0, [0, 1]] = cosets[0, 0, 0, [1, 0]]
        table = cosets.reshape(real.members[0].shape)
        tampered = dataclasses.replace(real, members=(table,) + real.members[1:])
        monkeypatch.setattr(spreads, "pair_factors", lambda config, t=tampered: t)
        for cached in (spreads._family, character_plan):
            cached.cache_clear()
        try:
            with pytest.raises(AssertionError, match="cover each point once"):
                character_plan(cfg)
            with pytest.raises(AssertionError, match="cover each point once"):
                spread_test(pencil)
        finally:
            monkeypatch.undo()
            for cached in (spreads._family, character_plan):
                cached.cache_clear()


def test_shared_point_tables_are_built_once():
    """The points of every flat and the characters' point values are
    cached and read-only, and a membership plan, the spread certificate
    and the pair factors built afresh read them from the cache."""
    cfg = space_config("unitary", 4, 2)
    points_of = flats.flat_point_table(cfg)
    per = cfg.q**cfg.nu
    ids = np.arange(len(points_of))[:, None]
    assert points_of.shape == (len(enumerate_flats(cfg, cfg.nu)), per)
    assert (flats.coset_table(cfg)[ids // per, points_of] == ids).all()
    assert (np.diff(points_of, axis=1) > 0).all()
    values = spreads._point_values(cfg)
    assert not points_of.flags.writeable and not values.flags.writeable
    built = flats.flat_point_table.cache_info().misses, spreads._point_values.cache_info().misses
    for cached in (membership_plan, character_plan, scheme.pair_factors):
        cached.cache_clear()
    membership_plan(cfg)
    character_plan(cfg)
    scheme.pair_factors(cfg)
    assert (flats.flat_point_table.cache_info().misses,
            spreads._point_values.cache_info().misses) == built


def test_classify_and_switching(s22):
    t1 = list_type_I(s22)
    assert classify_set(s22, t1[0].members[:2]) == "partial_spread"
    assert classify_set(s22, ()) == "partial_spread"
    overlapping = (0, 1, 2)  # cosets of one direction plus something sharing points
    # two flats through a common point
    from clflats.cl import construct_pencil
    pencil = construct_pencil(s22, zero_vector(s22))
    assert classify_set(s22, pencil.ids[:2]) == "neither"
    a, b = set(t1[0].members), set(t1[1].members)
    assert is_switching_pair(s22, a, b)
    assert not is_switching_pair(s22, a, a)
    assert not is_switching_pair(s22, pencil.ids[:2], pencil.ids[2:4])
    M = incidence_matrix(s22)
    for ids in ((), (5,), pencil.ids, a, list(pencil.ids[:3]) * 2):
        got = coverage(s22, ids)
        assert got.dtype == np.int64 and (got == M[:, sorted(ids)].sum(axis=1)).all()


def test_switching_pairs_from_full_spreads(s22):
    search = enumerate_spreads(s22)
    spreads = search.spreads[:12]
    for i, s1 in enumerate(spreads):
        for s2 in spreads[i + 1:]:
            first = set(s1.members) - set(s2.members)
            second = set(s2.members) - set(s1.members)
            if first:
                assert is_switching_pair(s22, first, second)


@pytest.mark.parametrize("case,q,nu,count", [
    ("symplectic", 2, 1, 3), ("symplectic", 3, 1, 4), ("symplectic", 4, 1, 5),
    ("symplectic", 5, 1, 6), ("orthogonal", 3, 1, 2), ("orthogonal", 5, 1, 2),
    ("unitary", 4, 1, 3)])
def test_exhaustive_nu1_all_type_I(case, q, nu, count):
    cfg = space_config(case, q, nu)
    search = enumerate_spreads(cfg)
    assert search.exhaustive
    assert len(search.spreads) == count == len(list_type_I(cfg))
    assert all(s.tag == "I" for s in search.spreads)


def test_exhaustive_s22_tags(s22):
    search = enumerate_spreads(s22)
    assert search.exhaustive
    tags = [s.tag for s in search.spreads]
    assert tags.count("I") == 15 and tags.count("II") == 90
    assert len(search.spreads) == 105
    for s in search.spreads:
        assert classify_set(s22, s.members) == "full_spread"


def test_exhaustive_bound(o32):
    with pytest.raises(ValueError):
        enumerate_spreads(o32)  # 81 points exceed the backtracking bound


def test_container_scope_spreads(s22):
    from clflats.flats import container_flats
    base = enumerate_flats(s22, 2)[0]
    scope = container_flats(s22, base, 1)[0]
    search = enumerate_spreads(s22, scope)
    assert search.exhaustive
    assert len(search.spreads) == 3
    for s in search.spreads:
        assert len(s.members) == 2
        assert s.tag == "I"
        assert classify_set(s22, s.members, scope) == "full_spread"


@pytest.mark.parametrize("key", [("unitary", 4, 2), ("symplectic", 4, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_scope_type_I_family_beyond_the_bound(key):
    """Past 32 scope points the search returns, for each maximal totally
    isotropic subspace of the scope direction, its cosets inside the scope."""
    from clflats.flats import container_flats, flat_ids, flat_make, flat_points
    cfg = space_config(*key)
    ids = flat_ids(cfg)
    base = enumerate_flats(cfg, cfg.nu)[7]
    for scope in container_flats(cfg, base, 1)[:3]:
        search = enumerate_spreads(cfg, scope)
        assert not search.exhaustive
        want = sorted(tuple(sorted({ids[flat_make(cfg, p, y)] for y in flat_points(cfg, scope)}))
                      for p in enumerate_isotropic(cfg, cfg.nu)
                      if contains_subspace(cfg.field, scope.direction, p))
        assert [s.members for s in search.spreads] == want
        assert all(s.tag == "I" and s.scope == scope for s in search.spreads)


def test_spread_differences_in_kernel(s22):
    M = incidence_matrix(s22)
    spreads = enumerate_spreads(s22).spreads[:20]
    chi = np.zeros((M.shape[1], len(spreads)), dtype=np.int64)
    for c, s in enumerate(spreads):
        chi[list(s.members), c] = 1
    for c in range(1, len(spreads)):
        diff = chi[:, [0]] - chi[:, [c]]
        assert not exact.int_matmul(M, diff).any()


@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 1), ("symplectic", 2, 2),
                                       ("orthogonal", 3, 2), ("unitary", 4, 1)])
def test_type_I_span(case, q, nu):
    cfg = space_config(case, q, nu)
    report = typeI_span_check(cfg)
    assert report.ok
    tables = scheme_tables(cfg)
    assert report.expected_rank == sum(tables.multiplicities[(j, 0)]
                                       for j in range(nu + 1))
    assert report.count == report.expected_rank


@pytest.mark.parametrize("key", [("symplectic", 2, 1), ("symplectic", 2, 2),
                                 ("orthogonal", 3, 2), ("unitary", 4, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_type_I_rank_needs_no_elimination(key, monkeypatch):
    """The type-I supports are disjoint, so the span check eliminates nothing."""
    calls = []
    real = exact.modular_echelon
    monkeypatch.setattr(exact, "modular_echelon",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    report = typeI_span_check(space_config(*key))
    assert report.ok and report.rank_method == "certified" and not calls


def test_type_I_rank_of_overlapping_rows_is_exact(s22, monkeypatch):
    """A stack whose supports overlap, or with an empty row, gets its exact
    rank from the certified null basis."""
    typeI = spreads.family_indicators(s22, slice(len(enumerate_isotropic(s22, 2))))
    union = typeI[0] | typeI[1]
    unit = np.eye(1, typeI.shape[1], 1, dtype=np.int8)[0]
    for extra, rank in ((union, 15), (np.zeros_like(union), 15), (unit, 16)):
        stack = np.vstack([typeI, extra])
        monkeypatch.setattr(spreads, "family_indicators", lambda config, rows, s=stack: s)
        report = typeI_span_check(s22)
        assert report.rank_method == "null-basis"
        assert report.rank == rank == rational_rank(stack)


def test_type_II_span_s22(s22):
    report = typeII_span_check(s22)
    assert report.ok and report.rank == 45 and report.rank_method == "certified"
    assert report.count == 90


def test_type_II_span_o32(o32):
    report = typeII_span_check(o32)
    tables = scheme_tables(o32)
    assert report.ok
    assert report.rank == tables.size - tables.multiplicities[(0, 1)]


def test_type_II_vanishing_check_reads_every_column_block(s22, monkeypatch):
    """A row with a nonzero (0, 1) projection, a single flat, in a later
    block of PRODUCT_COLUMNS rows still fails the vanishing check, and the
    rank is then read off the stack's certified null basis."""
    character_plan(s22)  # the certificate, on the real family
    typeII = spreads.family_indicators(s22, slice(len(list_type_I(s22)), None))
    tiled = np.vstack([typeII] * (PRODUCT_COLUMNS // len(typeII) + 1))
    for extra, vanishing in ((0, True), (1, False)):
        stack = np.vstack([tiled, np.eye(extra, typeII.shape[1], dtype=np.int8)])
        assert len(stack) > PRODUCT_COLUMNS
        monkeypatch.setattr(spreads, "family_indicators", lambda config, rows, s=stack: s)
        report = typeII_span_check(s22)
        assert report.vanishing_ok == vanishing and report.ok == vanishing
        assert report.rank_method == ("certified" if vanishing else "null-basis")
        assert report.rank == 45 + extra


def test_span_rank_without_a_bound_is_exact():
    """With no proven upper bound, the rank of every type-I and type-II
    stack, and of each plus one unit row, is the exact rational rank."""
    for key in (("symplectic", 2, 2), ("orthogonal", 3, 2), ("unitary", 4, 1)):
        cfg = space_config(*key)
        split = len(list_type_I(cfg))
        for rows in (slice(split), slice(split, None)):
            stack = spreads.family_indicators(cfg, rows)
            if not len(stack):
                continue
            for extra in (0, 1):
                tall = np.vstack([stack, np.eye(extra, stack.shape[1], dtype=np.int8)])
                assert spreads._stack_rank(tall, -1, None) == (rational_rank(tall), "null-basis")
    # rank 2 over Q, rank 1 mod p: the certificate fails rather than answer 1
    p = exact.MODULAR_PRIME
    with pytest.raises(AssertionError, match="certificate"):
        spreads._stack_rank(np.array([[1, 1], [1, 1 + p]], dtype=np.int64), 2, None)


def test_stack_rank_fallback_with_a_broken_reconstruction_fails_its_certificate(monkeypatch):
    """A rational reconstruction off by one makes the exact fallback of the
    span rank raise its certificate's AssertionError rather than answer."""
    real = exact._rational
    monkeypatch.setattr(exact, "_rational", lambda u, p: real(u, p) + 1)
    stack = np.array([[1, 1, 0], [0, 1, 1], [1, 2, 1]], dtype=np.int64)
    with pytest.raises(AssertionError, match="certificate"):
        spreads._stack_rank(stack, 3, None)


@pytest.fixture
def fresh_plan():
    character_plan.cache_clear()
    yield
    character_plan.cache_clear()


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2), ("symplectic", 2, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_character_plan_rank_falls_back_to_the_exact_rank(key, monkeypatch, fresh_plan):
    """With one GF(p) pivot of the direction-block sums dropped, the count
    no longer proves the rank: it then comes from the certified null basis
    of the sums, and it does not change."""
    cfg = space_config(*key)
    want = character_plan(cfg).rank
    character_plan.cache_clear()
    dirs = len(enumerate_isotropic(cfg, cfg.nu))
    real_echelon, real_basis = exact.modular_echelon, exact.certified_null_basis
    dropped, fallback = [], []

    def drop_one(matrix, p):
        E, pivots, rows = real_echelon(matrix, p)
        if np.shape(matrix)[1] == dirs and not dropped:
            dropped.append(len(pivots))
            return E[:-1], pivots[:-1], rows[:-1]
        return E, pivots, rows

    monkeypatch.setattr(exact, "modular_echelon", drop_one)
    monkeypatch.setattr(exact, "certified_null_basis",
                        lambda matrix: fallback.append(np.shape(matrix)) or real_basis(matrix))
    assert character_plan(cfg).rank == want
    assert dropped == [dirs] and len(fallback) == 1 and fallback[0][1] == dirs


def _patched_family(cfg, monkeypatch, how):
    """family_members with one member of its first type-II row (its first
    row at nu = 1) swapped for a flat outside the row, so the row no longer
    covers each point once; or with that row cut, so the type-II rows are
    no longer closed under translation (at nu = 1, the type-I rows no
    longer hold every direction block)."""
    members = family_members(cfg).copy()
    row = len(list_type_I(cfg)) if cfg.nu >= 2 else 0
    if how == "swap":
        members[row, 0] = next(f for f in range(len(enumerate_flats(cfg, cfg.nu)))
                               if f not in members[row])
    else:
        members = np.delete(members, row, axis=0)
    monkeypatch.setattr(spreads, "family_members", lambda config: members)


@pytest.mark.parametrize("how", ["swap", "cut"])
@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("unitary", 4, 1)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_spread_certificate_can_fail(key, how, monkeypatch, fresh_plan):
    cfg = space_config(*key)
    pencil = construct_pencil(cfg, zero_vector(cfg))
    assert spread_test(pencil).conclusive
    character_plan.cache_clear()
    _patched_family(cfg, monkeypatch, how)
    with pytest.raises(AssertionError, match="cover each point once" if how == "swap"
                       else "do not certify ker M"):
        spread_test(pencil)


def _without_edges_of_largest_kernel(real):
    """_components with the rd = 1 edges of the kernel holding the most
    directions removed, so that its graph falls apart into single directions."""
    def tampered(kernels, partners):
        out = real(kernels, partners)
        k = int(kernels.sum(axis=1).argmax())
        out[k] = real(kernels[k:k + 1], partners[:, :0])[0]
        return out
    return tampered


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_removed_edges_fail_the_certificate(key, monkeypatch, fresh_plan):
    """With the rd = 1 edges of one kernel removed, the certificate fails
    and the spread route raises; the span check's rank is then read off
    the stack's certified null basis, and stays exact."""
    cfg = space_config(*key)
    monkeypatch.setattr(spreads, "_components", _without_edges_of_largest_kernel(
        spreads._components))
    plan = character_plan(cfg)
    assert plan.edges_ok and plan.closed and not plan.connected
    assert "disconnected" in plan.failure
    with pytest.raises(AssertionError, match="do not certify ker M.*disconnected"):
        spread_test(construct_pencil(cfg, zero_vector(cfg)))
    tables = scheme_tables(cfg)
    expected = tables.size - tables.multiplicities[(0, 1)]
    assert plan.rank < expected
    report = typeII_span_check(cfg)
    assert report.rank_method == "null-basis" and report.rank == expected


def test_dropped_row_fails_the_closure(s22, monkeypatch, fresh_plan):
    """One type-II row dropped: every rd = 1 pair keeps a row, so the edge
    check holds, but the rows are not closed under translation.  There is
    no character rank then, and the span check reads the exact rank of the
    stack it checks off its certified null basis."""
    members = family_members(s22)[:-1]
    monkeypatch.setattr(spreads, "family_members", lambda config: members)
    plan = character_plan(s22)
    assert plan.edges_ok and not plan.closed and plan.rank is None
    assert "closed under translation" in plan.failure
    report = typeII_span_check(s22)
    stack = spreads.family_indicators(s22, slice(len(list_type_I(s22)), None))
    assert report.rank_method == "null-basis" and report.rank == rational_rank(stack)


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_dropped_direction_pair_fails_the_edge_check(key, monkeypatch, fresh_plan):
    """Every row of one rd = 1 direction pair dropped: translations keep a
    row's directions, so the rest stays closed, but the pairs are no longer
    the rd = 1 pairs, and the span check falls back to the null basis."""
    cfg = space_config(*key)
    split, per = len(list_type_I(cfg)), cfg.q**cfg.nu
    members = family_members(cfg)
    pairs = np.sort(members[split:][:, [0, -1]] // per, axis=1)
    keep = np.concatenate([np.ones(split, dtype=bool), (pairs != pairs[0]).any(axis=1)])
    monkeypatch.setattr(spreads, "family_members", lambda config: members[keep])
    plan = character_plan(cfg)
    assert not plan.edges_ok and plan.closed and plan.rank is None
    assert "rd = 1 pairs" in plan.failure
    with pytest.raises(AssertionError, match="do not certify ker M"):
        spread_test(construct_pencil(cfg, zero_vector(cfg)))
    stack = spreads.family_indicators(cfg, slice(split, None))
    report = typeII_span_check(cfg)
    assert report.rank_method == "null-basis" and report.rank == rational_rank(stack)


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_spread_stack_is_never_eliminated(key, monkeypatch, fresh_plan):
    """A pencil's battery and a whole paper suite eliminate no matrix as
    tall as the type-II stack: the spread certificate and the type-II span
    rank read the character plan, whose rank is the oracle elimination's
    count."""
    cfg = space_config(*key)
    stack = spreads.family_indicators(cfg, slice(len(list_type_I(cfg)), None))
    seen = []
    real = exact.modular_echelon
    monkeypatch.setattr(exact, "modular_echelon",
                        lambda matrix, *args: seen.append(len(matrix)) or real(matrix, *args))
    assert all(battery(construct_pencil(cfg, zero_vector(cfg))).values())
    assert all(check.passed for check in paper_suite(cfg, 0))
    assert seen and max(seen) < len(stack)
    monkeypatch.undo()
    assert character_plan(cfg).rank == len(spanning_rows_oracle(cfg))


def _vanishing_rows(cfg, seed: int) -> np.ndarray:
    """A seeded mix of 42 integer rows for the vanishing checks: family
    rows, differences of two (half of them plus a random 0/1 row), random
    0/1 rows, block-constant integer rows with and without one bumped
    entry, 2 s - s' for family rows s and s', and a unit row.  Half of the
    family rows drawn are type I."""
    rng = np.random.default_rng(seed)
    family = spreads.family_indicators(cfg)
    n, per = family.shape[1], cfg.q**cfg.nu
    split = len(list_type_I(cfg))

    def pick(k):
        return family[np.concatenate([rng.integers(split, size=k // 2),
                                      rng.integers(len(family), size=k - k // 2)])]

    noise = rng.integers(0, 2, (10, n)) * (np.arange(10) % 2)[:, None]
    constant = np.repeat(rng.integers(-3, 4, (12, n // per)), per, axis=1)
    constant[np.arange(6, 12), rng.integers(n, size=6)] += 1
    rows = [pick(8), pick(10) - pick(10) + noise, rng.integers(0, 2, (6, n)), constant,
            2 * pick(5) - pick(5), np.eye(1, n, int(rng.integers(n)), dtype=np.int64)]
    return np.vstack(rows).astype(np.int8)


@pytest.mark.parametrize("key", MEDIUM_CONFIGS + (("symplectic", 3, 2), ("unitary", 4, 2),
                                                  ("symplectic", 2, 3)),
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_vanishing_checks_match_the_idempotent_oracle(key, monkeypatch):
    """Block constancy decides the eta = 1 projections and a constant
    cover M s the (0, 1) projection: each span check's vanishing_ok on
    every row of a seeded mix, fed in as a one-row stack, equals the
    relation-product oracle's, and the mix holds rows of both verdicts."""
    cfg = space_config(*key)
    rows = _vanishing_rows(cfg, seed=sum(map(ord, repr(key))))
    checks = [(typeI_span_check, eta1_vanishing_oracle)]
    if cfg.nu >= 2:
        checks.append((typeII_span_check, parallel_vanishing_oracle))
    for check, oracle in checks:
        verdicts = []
        for row in rows:
            stack = row.reshape(1, -1)
            monkeypatch.setattr(spreads, "family_indicators", lambda config, r, s=stack: s)
            verdicts.append(check(cfg).vanishing_ok)
            assert verdicts[-1] == oracle(cfg, stack), (check.__name__, row)
        assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("key", [("symplectic", 3, 2), ("symplectic", 2, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_span_checks_take_no_n_by_n_product(key, monkeypatch):
    """Neither span check multiplies by an n x n matrix: no operand of an
    exact product is n x n."""
    cfg = space_config(*key)
    n = len(enumerate_flats(cfg, cfg.nu))
    shapes = []
    real_matmul = exact.int_matmul

    def spy_matmul(a, b, a_float=None):
        shapes.extend(x.shape for x in (a, b, a_float) if x is not None)
        return real_matmul(a, b, a_float)

    monkeypatch.setattr(exact, "int_matmul", spy_matmul)
    assert typeI_span_check(cfg).ok and typeII_span_check(cfg).ok
    assert shapes and (n, n) not in shapes


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("symplectic", 2, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_nonzero_projections_of_the_family_stacks(key, monkeypatch):
    """_nonzero_projections is True on the type-I stack under every (j, 0)
    idempotent and on the type-II stack under every (j, eta) with j > 0,
    the calls of the span checks, and False once one row is zero.  With
    the witness functional patched to read 0 on every row, so that every
    row takes the exact per-row check (on every row at symplectic(2,2),
    on 24 seeded rows of each stack and the zero row at symplectic(2,3)),
    the verdicts are the same."""
    cfg = space_config(*key)
    split = len(enumerate_isotropic(cfg, cfg.nu))
    eigs = scheme_tables(cfg).eigs
    cases = [(spreads.family_indicators(cfg, slice(split)), [(j, 0) for j in range(cfg.nu + 1)]),
             (spreads.family_indicators(cfg, slice(split, None)), [e for e in eigs if e[0] != 0])]
    if cfg.nu == 3:
        rng = np.random.default_rng(5)
        cases = [(stack[np.sort(rng.choice(len(stack), 24, replace=False))], e)
                 for stack, e in cases]

    def verdicts():
        out = []
        for stack, on in cases:
            zeroed = np.insert(stack, len(stack) // 2, 0, axis=0)
            out += [(spreads._nonzero_projections(cfg, e, stack),
                     spreads._nonzero_projections(cfg, e, zeroed)) for e in on]
        return out

    want = verdicts()
    assert want == [(True, False)] * len(want)
    witnesses = []

    def zero_functional(a, b):
        witnesses.append(len(a))
        return np.zeros((len(a), b.shape[1]), dtype=np.int64)

    monkeypatch.setattr(spreads, "exact", SimpleNamespace(int_matmul=zero_functional))
    assert verdicts() == want
    assert witnesses


def test_type_II_needs_nu2(s21):
    with pytest.raises(ValueError):
        typeII_span_check(s21)


over_family_configs = pytest.mark.parametrize(
    "key", [("symplectic", 2, 2), ("orthogonal", 3, 2), ("symplectic", 3, 2), ("unitary", 4, 2)],
    ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")


@over_family_configs
def test_family_members_match_one_spread_at_a_time(key):
    cfg = space_config(*key)
    fld = cfg.field
    seen = set()
    for q_sub, interior in type_II_components_oracle(cfg):
        shifts = sorted({reduce_mod(fld, q_sub, v) for v in all_vectors(cfg)})
        for p1 in interior:
            for p2 in interior:
                if p1 != p2:
                    seen |= {spread_type_II(cfg, q_sub, p1, p2, shift).members
                             for shift in shifts}
    type_I = [s.members for s in list_type_I(cfg)]
    want = np.array(type_I + sorted(seen), dtype=np.int64)
    members = family_members(cfg)
    assert members.dtype == np.int64 and members.shape == want.shape
    assert (members == want).all()
    assert [s.members for s in list_type_II(cfg)] == sorted(seen)
    assert all(s.tag == "II" and s.scope is None for s in list_type_II(cfg))


@over_family_configs
def test_type_II_components_match_all_vectors_scan(key):
    cfg = space_config(*key)
    fld = cfg.field
    maxes = enumerate_isotropic(cfg, cfg.nu)
    containers = set()
    for p in maxes:
        for v in all_vectors(cfg):
            if any(v) and not contains_vector(fld, p, v):
                q_sub = canonicalize(cfg, list(p.basis) + [v])
                if gram_rank(cfg, q_sub) == 2:
                    containers.add(q_sub)
    index = {p: d for d, p in enumerate(maxes)}
    want = sorted(tuple(index[p] for p in maxes if contains_subspace(fld, q_sub, p))
                  for q_sub in containers)
    # the direction of slot t of container g is that of its first flat in its first coset
    rows = scheme.pair_factors(cfg).container_cosets()[0, :, :, 0].T // cfg.q**cfg.nu
    assert sorted(map(tuple, rows.tolist())) == want


@over_family_configs
def test_family_rows_cover_each_point_once(key):
    cfg = space_config(*key)
    M = incidence_matrix(cfg)
    members = family_members(cfg)
    assert len({tuple(row) for row in members.tolist()}) == members.shape[0]
    chi = np.zeros((M.shape[1], members.shape[0]), dtype=np.int64)
    np.put_along_axis(chi, members.T, 1, axis=0)
    assert (exact.int_matmul(M, chi) == 1).all()


def test_unique_rows_matches_np_unique():
    """_unique_rows gives np.unique(axis=0): the distinct rows in
    lexicographic order, negative entries included."""
    rng = np.random.default_rng(4)
    for shape in ((1, 3), (30, 4), (200, 2)):
        a = rng.integers(-3, 4, shape)
        a = np.vstack([a, a[::2]])
        want = np.unique(a, axis=0)
        got = spreads._unique_rows(a)
        assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()


# ---------------------------------------------------------------------------
# the translation characters against their oracles

@pytest.mark.parametrize("key", [k for k in STANDARD_GRID if k[2] >= 2],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_type_II_rank_matches_the_oracle_elimination(key):
    """The character rank of the type-II rows is the count of the GF(p)
    elimination of their shuffled stack, and the certificate holds."""
    cfg = space_config(*key)
    plan = character_plan(cfg)
    assert plan.failure is None
    assert plan.rank == len(spanning_rows_oracle(cfg))


@pytest.mark.parametrize("key", STANDARD_GRID, ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_kernel_dimension_is_n_minus_incidence_rank(key):
    cfg = space_config(*key)
    plan = character_plan(cfg)
    assert plan.kernel_dimension == len(enumerate_flats(cfg, cfg.nu)) - incidence_rank(cfg)
    assert plan.failure is None


@pytest.mark.parametrize("key", [("symplectic", 4, 2), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_kernel_dimension_matches_the_closed_form_at_scale(key):
    """Beyond the grid the plan meets the closed-form rank of M, and the
    certified type-II rank is n - rank M + 1."""
    cfg = space_config(*key)
    plan = character_plan(cfg)
    dimension = len(enumerate_flats(cfg, cfg.nu)) - incidence_rank_closed_form(cfg)
    assert plan.kernel_dimension == dimension
    assert plan.failure is None and plan.rank == dimension + 1


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2),
                                 ("unitary", 4, 2), ("symplectic", 4, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_character_kernels_match_the_points_of_each_direction(key):
    """T[a, d] holds iff a . digits(x) = 0 mod p at every point x of d, and
    each direction lies in the kernels of the q^nu - 1 nontrivial
    characters of the quotient by it, p - 1 to a line."""
    cfg = space_config(*key)
    p, k = cfg.field.p, cfg.field.k
    kernels = spreads.character_kernels(cfg)
    assert len(kernels) * (p - 1) == cfg.num_points - 1
    assert ((p - 1) * kernels.sum(axis=0) == cfg.q**cfg.nu - 1).all()
    m = cfg.dim * k
    chars = np.arange(1, p**m)[:, None] // p ** np.arange(m) % p
    chars = chars[chars[np.arange(len(chars)), (chars != 0).argmax(axis=1)] == 1]
    for d, direction in enumerate(enumerate_isotropic(cfg, cfg.nu)):
        points = np.array(sorted(span_points(cfg, direction)), dtype=np.int64)
        digits = (points[:, :, None] // p ** np.arange(k) % p).reshape(len(points), m)
        assert (kernels[:, d] == ~((chars @ digits.T) % p).any(axis=1)).all()


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("unitary", 4, 2), ("symplectic", 4, 2),
                                 ("orthogonal", 3, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_unit_translations_move_each_flat_by_its_unit_vector(key):
    """Unit translation (i, j) moves the flat d + x to d + (x + p^j e_i),
    read off the flats' own representatives."""
    cfg = space_config(*key)
    shifts = spreads._unit_translations(cfg)
    assert shifts.shape == (cfg.dim * cfg.field.k, len(enumerate_flats(cfg, cfg.nu)))
    ids = flat_ids(cfg)
    for fid, f in list(enumerate(enumerate_flats(cfg, cfg.nu)))[::7]:
        for t, (i, j) in enumerate((i, j) for i in range(cfg.dim) for j in range(cfg.field.k)):
            moved = flat_make(cfg, f.direction, vec_add(cfg.field, f.rep,
                                                        unit_vector(cfg, i, cfg.field.p**j)))
            assert shifts[t, fid] == ids[moved]


def test_components_count_the_components_of_each_row():
    """Against a depth-first search on random undirected graphs, with the
    partner lists padded by each direction itself."""
    rng = np.random.default_rng(5)
    dirs = 14
    for _ in range(20):
        adjacent = np.triu(rng.random((dirs, dirs)) < 0.15, 1)
        adjacent |= adjacent.T
        width = max(1, int(adjacent.sum(axis=1).max()))
        partners = np.array([list(np.flatnonzero(row)) + [d] * (width - row.sum())
                             for d, row in enumerate(adjacent)], dtype=np.int64)
        kernels = rng.random((6, dirs)) < 0.6
        for row, count in zip(kernels, spreads._components(kernels, partners)):
            seen, components = set(), 0
            for start in np.flatnonzero(row):
                if start in seen:
                    continue
                components += 1
                stack = [start]
                while stack:
                    d = stack.pop()
                    if d not in seen:
                        seen.add(d)
                        stack.extend(e for e in np.flatnonzero(adjacent[d]) if row[e])
            assert count == components


def test_trivial_part_is_eliminated_not_assumed(s22, monkeypatch, fresh_plan):
    """At q^nu = 2q the rows' direction-block sums are 2 (u_p1 + u_p2),
    whose rank the plan eliminates exactly: it is D here, and with only
    one of those sums it is 1, so the rank falls by D - 1."""
    rows = family_members(s22)[len(list_type_I(s22)):]
    ok, sums = spreads._type_II_edges(s22, rows)
    assert ok and sorted(set(sums.ravel().tolist())) == [0, 2]
    dirs = len(list_type_I(s22))
    assert rational_rank(sums) == dirs
    full = character_plan(s22).rank
    character_plan.cache_clear()
    monkeypatch.setattr(spreads, "_type_II_edges", lambda config, r: (True, sums[:1]))
    assert character_plan(s22).rank == full - dirs + 1


# ---------------------------------------------------------------------------
# the translation-character basis K of ker M

@pytest.mark.parametrize("key", list(STANDARD_GRID) + [("symplectic", 4, 2), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_membership_plan_is_a_basis_of_ker_M(key):
    """M K^T = 0 exactly, K has kernel_dimension = n - rank M rows, and its
    GF(p) pivot count, a lower bound on its rank over Q, is its number of
    rows; every entry is -1, 0 or 1."""
    cfg = space_config(*key)
    plan = membership_plan(cfg)
    n = len(enumerate_flats(cfg, cfg.nu))
    K = membership_rows(plan, n)
    assert set(np.unique(K).tolist()) <= {-1, 0, 1}
    assert not exact.int_matmul(incidence_matrix(cfg), K.T).any()
    assert len(K) == character_plan(cfg).kernel_dimension == n - incidence_rank(cfg)
    assert len(exact.modular_echelon(K, exact.MODULAR_PRIME)[1]) == len(K)
    assert not any(a.flags.writeable for a in (plan.line, plan.groups, plan.base,
                                                plan.gather, plan.match))
    assert not spreads.character_kernels(cfg).flags.writeable
    assert spreads.character_kernels(cfg) is spreads.character_kernels(cfg)


def _moved(plan, pair: int):
    """The plan with the first flat of value group 0 of one pair moved to
    value group 1 and the first flat of group 1 to group 0."""
    groups = plan.groups.copy()
    groups[pair, 0, 0], groups[pair, 1, 0] = plan.groups[pair, 1, 0], plan.groups[pair, 0, 0]
    return dataclasses.replace(plan, groups=groups)


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("symplectic", 3, 2), ("unitary", 4, 2),
                                 ("orthogonal", 3, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_a_moved_flat_fails_both_checks(key):
    """One flat moved to another value group, in a base pair and in one
    that is not: M K^T = 0 fails, and so does the build-time check."""
    cfg = space_config(*key)
    plan = membership_plan(cfg)
    n = len(enumerate_flats(cfg, cfg.nu))
    M = incidence_matrix(cfg)
    spreads._check_groups(cfg, plan)
    for pair in (0, 1):
        moved = _moved(plan, pair)
        assert exact.int_matmul(M, membership_rows(moved, n).T).any()
        with pytest.raises(AssertionError, match="value group"):
            spreads._check_groups(cfg, moved)


def test_membership_plan_refuses_wrong_point_values(monkeypatch):
    """A point value off by one makes the build raise AssertionError."""
    cfg = space_config("symplectic", 3, 2)
    real = spreads._point_values
    monkeypatch.setattr(spreads, "_point_values",
                        lambda c: (real(c) + (np.arange(c.num_points) == 5)) % c.field.p)
    with pytest.raises(AssertionError, match="value group"):
        membership_plan.__wrapped__(cfg)


def _membership_columns(cfg, seed: int) -> np.ndarray:
    """A seeded 25-column integer block: pencils P, P', P'', their
    complements, 2P - P' + P'', P + P', each of those with one entry bumped
    and with two unequal entries swapped, and four random 0/1 sets."""
    rng = np.random.default_rng(seed)
    points = rng.choice(cfg.num_points, 3, replace=False)
    P, P1, P2 = (construct_pencil(cfg, tuple(all_vectors(cfg)[i])).chi() for i in points)
    base = [P, P1, P2, 1 - P, 1 - P1, 2 * P - P1 + P2, P + P1]
    bumped, swapped = [], []
    for col in base:
        b = col.copy()
        b[rng.integers(len(b))] += 1
        bumped.append(b)
        i = int(rng.choice(np.flatnonzero(col == col.max())))
        j = int(rng.choice(np.flatnonzero(col != col.max())))
        w = col.copy()
        w[[i, j]] = w[[j, i]]
        swapped.append(w)
    return np.column_stack(base + bumped + swapped + [random_subset_matrix(cfg, 4, seed)])


@pytest.mark.parametrize("key", list(STANDARD_GRID) + [("symplectic", 4, 2), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_membership_plan_verdict_matches_the_null_basis(key):
    """K chi = 0 exactly when N chi = 0, on seeded 25-column blocks and on
    the same blocks times 2^70 in object arithmetic, column by column and
    for the whole block at once, as batch_verdicts decides it; for the 0/1
    columns test_image and is_cameron_liebler's image routes agree with
    both."""
    cfg = space_config(*key)
    plan = membership_plan(cfg)
    N = incidence_kernel(cfg)
    for seed in (1, 2):
        cols = _membership_columns(cfg, seed)
        assert cols.shape[1] == 25
        by_n = ~exact.int_matmul(N, cols).any(axis=0)
        assert by_n[:7].all() and not by_n[7:14].any()  # members, and their bumps
        assert [plan.annihilates(c) for c in cols.T] == by_n.tolist()
        assert plan.annihilates(cols).tolist() == by_n.tolist()
        assert batch_verdicts(cfg, cols)["image"].tolist() == by_n.tolist()
        big = cols.astype(object) * 2**70
        assert [plan.annihilates(c) for c in big.T] == by_n.tolist()
        assert plan.annihilates(big).tolist() == by_n.tolist()
        for c, expected in zip(cols.T, by_n):
            if set(np.unique(c).tolist()) <= {0, 1}:
                fs = FlatSet(cfg, tuple(np.flatnonzero(c).tolist()))
                assert image_route(fs) == expected
                assert {m: is_cameron_liebler(fs, m) for m in ("image", "kernel")} == \
                    dict.fromkeys(("image", "kernel"), bool(expected))


@pytest.mark.parametrize("key", list(STANDARD_GRID) + [("symplectic", 4, 2), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_image_witness_verdict_matches_the_membership_plan(key, monkeypatch):
    """A column gets a witness (Y, L) exactly when K chi = 0, on the seeded
    25-column blocks and 2P - P'; every witness has M^T Y = L chi, checked
    here in plain int64 within a proven bound.  With one coefficient of a
    projector polynomial off by one, every witness of a nonzero column
    fails the check, so every such member gets None."""
    cfg = space_config(*key)
    plan = membership_plan(cfg)
    MT = incidence_matrix(cfg).T
    cols = _membership_columns(cfg, 1)
    cols = np.column_stack([cols, 2 * cols[:, 0] - cols[:, 1]])
    found = []
    for chi in cols.T:
        witness = image_witness(cfg, chi)
        found.append(witness is not None)
        assert found[-1] == plan.annihilates(chi)
        if witness is not None:
            Y, scale = witness
            assert Y.dtype == np.int64 and cfg.q**cfg.nu * int(np.abs(Y).max()) < 2**62
            assert (MT @ Y == scale * chi).all()
    assert all(found[:7]) and not any(found[7:14]) and found[-1]
    real = cl.projector_polynomial
    monkeypatch.setattr(cl, "projector_polynomial",
                        lambda mu, i: [c + (k == len(mu) - 1) for k, c in enumerate(real(mu, i))])
    assert not any(image_witness(cfg, chi) for chi in cols.T if chi.any())


@pytest.mark.parametrize("key", [("symplectic", 3, 2), ("orthogonal", 3, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_single_set_queries_eliminate_no_incidence_matrix(key, monkeypatch):
    """battery and is_cameron_liebler with 'image', 'kernel' and 'auto',
    from a cold plan, read no null basis of M and make no GF(p)
    elimination with n columns."""
    cfg = space_config(*key)
    n = len(enumerate_flats(cfg, cfg.nu))
    membership_plan.cache_clear()
    seen = []
    real = exact.modular_echelon
    monkeypatch.setattr(exact, "modular_echelon",
                        lambda matrix, *args: seen.append(np.shape(matrix)) or real(matrix, *args))

    def refuse(matrix):
        raise AssertionError("the null basis of M on a single-set query")

    monkeypatch.setattr(exact, "certified_null_basis", refuse)
    pencil = construct_pencil(cfg, zero_vector(cfg))
    for fs in (pencil, pencil.complement()):
        assert all(battery(fs).values())
        assert all(is_cameron_liebler(fs, m) for m in ("image", "kernel", "auto"))
    assert not [shape for shape in seen if shape[1] == n]

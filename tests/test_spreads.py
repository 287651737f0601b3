"""Spread constructions, exhaustive searches, switching sets, span results."""

import numpy as np
import pytest

from clflats import exact, spreads
from clflats.cl import battery, construct_pencil, test_spreads as spread_test
from clflats.cli import paper_suite
from clflats.field import e_power
from clflats.flats import enumerate_flats, incidence_kernel, incidence_matrix, incidence_rank
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
    unit_vector,
    zero_vector,
)
from clflats.scheme import PRODUCT_COLUMNS, scheme_tables
from clflats.spreads import (
    classify_set,
    coverage,
    enumerate_spreads,
    family_members,
    is_switching_pair,
    list_type_I,
    list_type_II,
    spanning_rows,
    spread_type_I,
    spread_type_II,
    type_II_components,
    typeI_span_check,
    typeII_span_check,
)
from conftest import in_row_span, rational_rank


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
    for cfg in (s22, o32, space_config("unitary", 4, 2)):
        comps = type_II_components(cfg)
        expected = e_power(cfg, cfg.e2) + 1
        assert comps
        assert all(len(interior) == expected for _, interior in comps)


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
def test_type_II_family_checks_every_container_and_direction(s22, monkeypatch, bad):
    """The family build checks each container once and each interior
    direction once: a bad last direction of the last container is named."""
    comps = list(type_II_components(s22))
    comps[-1], message = _broken_components(s22, *comps[-1])[bad]
    monkeypatch.setattr(spreads, "type_II_components", lambda config: tuple(comps))
    with pytest.raises(ValueError, match=message):
        spreads._type_II_members(s22)


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
    M = incidence_matrix(s22).matrix
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
def test_type_I_rank_needs_no_elimination(key, monkeypatch, fresh_spanning_rows):
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
    spanning_rows(s22)  # the shared elimination, on the real family
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
    p = exact.MODULAR_PRIMES[0]
    with pytest.raises(AssertionError, match="certificate"):
        spreads._stack_rank(np.array([[1, 1], [1, 1 + p]], dtype=np.int64), 2, None)


@pytest.fixture
def fresh_spanning_rows():
    spanning_rows.cache_clear()
    yield
    spanning_rows.cache_clear()


def _patched_family(cfg, monkeypatch, how):
    """family_members with a kept spanning row's member swapped for a flat
    outside the row (so M s^T != 1), or with the spanning rows cut to one
    fewer than n - rank M + 1."""
    members = family_members(cfg).copy()
    kept = list(spanning_rows(cfg))
    spanning_rows.cache_clear()
    if how == "swap":
        row = kept[0]
        members[row, 0] = next(f for f in range(len(enumerate_flats(cfg, cfg.nu)))
                               if f not in members[row])
    else:
        split = len(list_type_I(cfg)) if cfg.nu >= 2 else 0
        members = np.vstack([members[:split], members[kept[:-1]]])
    monkeypatch.setattr(spreads, "family_members", lambda config: members)


@pytest.mark.parametrize("how", ["swap", "cut"])
@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("unitary", 4, 1)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_spread_certificate_can_fail(key, how, monkeypatch, fresh_spanning_rows):
    cfg = space_config(*key)
    pencil = construct_pencil(cfg, zero_vector(cfg))
    assert spread_test(pencil).conclusive
    _patched_family(cfg, monkeypatch, how)
    with pytest.raises(AssertionError, match="cover each point once" if how == "swap"
                       else "do not certify ker M"):
        spread_test(pencil)


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_spanning_stack_is_eliminated_once(key, monkeypatch, fresh_spanning_rows):
    """A pencil's battery and a whole paper suite eliminate the spanning
    stack once: the spread certificate and the type-II span rank read the
    same kept rows, n - rank M + 1 of them, whose differences lie in ker M."""
    cfg = space_config(*key)
    split = len(list_type_I(cfg))
    stack = spreads.family_indicators(cfg, slice(split, None))
    seen = []
    real = exact.modular_echelon
    monkeypatch.setattr(exact, "modular_echelon",
                        lambda matrix, *args, **kw: seen.append(np.asarray(matrix)) or
                        real(matrix, *args, **kw))
    assert all(battery(construct_pencil(cfg, zero_vector(cfg))).values())
    assert all(check.passed for check in paper_suite(cfg, 0))
    big = [a for a in seen if len(a) >= len(stack)]
    assert len(big) == 1
    assert sorted(map(bytes, big[0])) == sorted(map(bytes, stack))
    M = incidence_matrix(cfg).matrix
    n = M.shape[1]
    kept = spreads.family_indicators(cfg, list(spanning_rows(cfg))).astype(np.int64)
    assert len(kept) == n - incidence_rank(cfg) + 1
    N = incidence_kernel(cfg).matrix()
    free = np.setdiff1d(np.arange(n), real(M, exact.MODULAR_PRIMES[0])[1])
    assert in_row_span(N, free, kept[1:] - kept[0])


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
    for q_sub, interior in type_II_components(cfg):
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
    want = [(q_sub, tuple(p for p in maxes if contains_subspace(fld, q_sub, p)))
            for q_sub in sorted(containers, key=lambda s: s.flat_key())]
    assert list(type_II_components(cfg)) == want


@over_family_configs
def test_family_rows_cover_each_point_once(key):
    cfg = space_config(*key)
    M = incidence_matrix(cfg).matrix
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

"""Scheme relations, closed-form eigen tables, valuations, uniqueness."""

import random
from fractions import Fraction

import numpy as np
import pytest

from clflats import exact, scheme
from clflats.cli import STANDARD_GRID
from clflats.field import gauss_binomial
from clflats.flats import direction_distances, enumerate_flats, flat_ids, flat_make
from clflats.geometry import (
    canonicalize,
    enumerate_isotropic,
    space_config,
    zero_vector,
)
from clflats.scheme import (
    INFINITY,
    PRODUCT_COLUMNS,
    check_column_sums,
    check_eigen_system,
    check_eigen_system_probes,
    check_pq_identity,
    column_uniqueness,
    dual_polar_eigenvalue,
    dual_polar_multiplicity,
    dual_polar_size,
    dual_polar_valency,
    idempotent_coefficients,
    idempotent_int,
    inner_distribution,
    meeting_product,
    pair_factors,
    phi_piecewise,
    projections,
    q_valuation,
    relation_indices,
    relation_of,
    relation_products,
    relation_rows,
    scheme_eigenvalue,
    scheme_multiplicity,
    scheme_tables,
    valency,
    valuation_report,
    verify_scheme,
)
from clflats.spreads import list_type_I, list_type_II
from conftest import (
    MEDIUM_CONFIGS,
    ordered_meeting_sums,
    ordered_pair_tables,
    relation_matrix,
    unit_vector,
)

CASES_Q = (("symplectic", 2), ("symplectic", 3), ("symplectic", 5),
           ("unitary", 4), ("unitary", 9),
           ("orthogonal", 3), ("orthogonal", 5))


def test_relation_indices():
    assert relation_indices(2) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]


def test_relation_of_examples(s22):
    e = lambda j: unit_vector(s22, j)
    p12 = canonicalize(s22, [e(0), e(1)])
    p14 = canonicalize(s22, [e(0), e(3)])
    f = flat_make(s22, p12, zero_vector(s22))
    assert relation_of(s22, f, f) == (0, 0)
    assert relation_of(s22, f, flat_make(s22, p12, e(2))) == (0, 1)
    # shifting by e2 keeps a common point (e2 itself), so the cosets meet
    assert relation_of(s22, f, flat_make(s22, p14, e(1))) == (1, 0)
    g = flat_make(s22, p14, e(2))  # e3 is outside the direction sum: disjoint
    assert relation_of(s22, f, g) == (1, 1)
    assert relation_of(s22, g, f) == (1, 1)
    bad = flat_make(s22, canonicalize(s22, [e(0), e(2)]), zero_vector(s22))
    with pytest.raises(ValueError):
        relation_of(s22, f, bad)


ORACLE_SAMPLED = (("symplectic", 3, 2), ("unitary", 4, 2), ("symplectic", 2, 3),
                  ("symplectic", 4, 2))


@pytest.mark.parametrize("key", MEDIUM_CONFIGS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_relation_matrix_matches_relation_of_on_every_pair(key):
    """The oracle table and the rows read off the coset table both hold
    relation_of on every pair."""
    cfg = space_config(*key)
    flats = enumerate_flats(cfg, cfg.nu)
    R = relation_matrix(cfg)
    assert R.dtype == np.int8 and R.shape == (len(flats),) * 2
    want = [[2 * i + xi for i, xi in (relation_of(cfg, f, g) for g in flats)] for f in flats]
    assert R.tolist() == want
    assert relation_rows(cfg, np.arange(len(flats))).tolist() == want


@pytest.mark.parametrize("key", ORACLE_SAMPLED, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_relation_matrix_matches_relation_of_on_seeded_pairs(key):
    """unitary(4, 2) and symplectic(4, 2) take the coset table through the
    GF(4) tables."""
    cfg = space_config(*key)
    flats = enumerate_flats(cfg, cfg.nu)
    R = relation_matrix(cfg)
    rng = random.Random(repr(("relation-oracle", key)))
    pairs = [(rng.randrange(len(flats)), rng.randrange(len(flats))) for _ in range(2000)]
    rows = relation_rows(cfg, [a for a, _ in pairs])
    for k, (a, b) in enumerate(pairs):
        i, xi = relation_of(cfg, flats[a], flats[b])
        assert R[a, b] == rows[k, b] == 2 * i + xi, (a, b)


ROW_KEYS = tuple(STANDARD_GRID) + (("symplectic", 4, 2), ("orthogonal", 3, 3))


@pytest.mark.parametrize("key", ROW_KEYS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_relation_rows_match_the_oracle_table(key):
    """relation_rows equals the expansion of the pair factors
    (conftest.relation_matrix) on the whole table, on shuffled id blocks
    with repeats, on one row and on no row; its rows are int8 and its own."""
    cfg = space_config(*key)
    R = relation_matrix(cfg)
    n = R.shape[0]
    full = relation_rows(cfg, np.arange(n))
    assert full.dtype == np.int8 and full.shape == (n, n) and full.flags.writeable
    assert (full == R).all()
    rng = np.random.default_rng(sum(map(ord, repr(key))))
    for size in (1, 7, 256):
        ids = rng.integers(n, size=size)
        assert (relation_rows(cfg, ids) == R[ids]).all(), size
    shuffled = rng.permutation(n)
    assert (relation_rows(cfg, shuffled) == R[shuffled]).all()
    assert relation_rows(cfg, []).shape == (0, n)


def _adjacency(cfg):
    """Every A_r, as the relation-count table of I."""
    n = scheme_tables(cfg).size
    return relation_products(cfg, np.eye(n, dtype=np.int64))


def test_adjacency_partition_and_valencies(medium_config):
    cfg = medium_config
    tables = scheme_tables(cfg)
    A = _adjacency(cfg)
    for rel, A_r in zip(tables.rels, A):
        assert (A_r == A_r.T).all()
        assert set(A_r.sum(axis=1).tolist()) == {tables.valencies[rel]}
    assert (A.sum(axis=0) == 1).all()
    assert (A[0] == np.eye(tables.size, dtype=np.int64)).all()
    valency_rows = relation_products(cfg, np.ones((tables.size, 1), dtype=np.int64))
    assert [set(row[:, 0].tolist()) for row in valency_rows] == \
        [{tables.valencies[rel]} for rel in tables.rels]


@pytest.mark.parametrize("key", MEDIUM_CONFIGS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_relation_products_match_dense_masks(key):
    """T[r] = (R == r) @ X, and so sum_r W[k, r] T[r] = sum_r W[k, r] ((R == r) @ X),
    computed densely here."""
    cfg = space_config(*key)
    R = relation_matrix(cfg)
    n, codes = R.shape[0], 2 * cfg.nu + 1
    rng = np.random.default_rng(sum(map(ord, repr(key))))
    X = rng.integers(-5, 6, (n, PRODUCT_COLUMNS + 3))  # two column blocks
    X[:, 1] = 0
    _, C = idempotent_coefficients(cfg)
    mixed = rng.integers(-3, 4, (3, codes))
    T = relation_products(cfg, X)
    assert T.dtype == np.int64 and T.shape == (codes, n, X.shape[1])
    assert not T[:, :, 1].any()
    for W in (np.eye(codes, dtype=np.int64), C, 2 * np.eye(codes, dtype=np.int64),
              mixed, np.eye(codes, dtype=np.int64)[[0]]):
        want = np.array([sum(int(w[r]) * ((R == r).astype(np.int64) @ X) for r in range(codes))
                         for w in W])
        assert (np.einsum("kr,rnc->knc", W, T) == want).all()
    # the code-0 row is X itself
    assert (T[0] == X).all()


FACTORED_KEYS = MEDIUM_CONFIGS + (("symplectic", 3, 2), ("unitary", 4, 2), ("symplectic", 2, 3))


def _table_terms(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Every A_r X from the n x n relation table, the oracle of the
    factored products; float64 holds these small integers exactly."""
    Xf = X.astype(np.float64)
    return np.stack([((R == r).astype(np.float64) @ Xf).astype(np.int64)
                     for r in range(int(R.max()) + 1)])


@pytest.mark.parametrize("key", FACTORED_KEYS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_factored_relation_products_match_the_table(key):
    """The relation-count table, read off the pair factorisation, equals
    the table product T[r] = (R == r) @ X for every relation of every grid
    configuration, at widths up to 100 (31, 32 and 33 among them, where
    the i >= 2 meeting relations once switched to a mask product), for
    0/1, signed and object columns past 2^62; so do its combinations W T for unit,
    identity, idempotent and general integer W rows, and C T is
    projections."""
    cfg = space_config(*key)
    R = relation_matrix(cfg)
    n, codes = R.shape[0], 2 * cfg.nu + 1
    rng = np.random.default_rng(sum(map(ord, repr(key))))
    _, C = idempotent_coefficients(cfg)
    eye = np.eye(codes, dtype=np.int64)
    tables = [eye, C, C[1:2], C[1:2 * cfg.nu:2], np.vstack([C[-1], -C[-1]]),
              rng.integers(-3, 4, (3, codes)), eye[[codes - 1, 1]], 2 * eye[[1]],
              np.zeros((1, codes), dtype=np.int64)]
    for c in (1, 2, 25, 31, 32, 33, 100):
        for X in (rng.integers(0, 2, (n, c)), rng.integers(-5, 6, (n, c))):
            terms = _table_terms(R, X)
            T = relation_products(cfg, X)
            assert T.dtype == np.int64 and T.shape == (codes, n, c)
            assert (T == terms).all(), c
            for W in tables:
                assert (np.einsum("kr,rnc->knc", W, T)
                        == np.einsum("kr,rnc->knc", W, terms)).all(), (c, W.tolist())
            assert (projections(cfg, T) == np.einsum("kr,rnc->knc", C, terms)).all()
        # object columns: 2^70 times one signed block plus another, past 2^62
        high, low = rng.integers(-3, 4, (n, c)), rng.integers(-5, 6, (n, c))
        T = relation_products(cfg, high.astype(object) * 2**70 + low)
        assert T.dtype == object
        assert (T == _table_terms(R, high).astype(object) * 2**70 + _table_terms(R, low)).all()


def test_factored_relation_products_are_exact_past_int64(s22):
    """Object columns, and int64 columns whose sums could leave int64, are
    summed in object arithmetic."""
    R = relation_matrix(s22)
    n = R.shape[0]
    _, C = idempotent_coefficients(s22)
    X = np.random.default_rng(3).integers(-5, 6, (n, 3))
    want = np.einsum("kr,rnc->knc", C.astype(object), _table_terms(R, X).astype(object))
    T = relation_products(s22, X.astype(object) * 2**80)
    got = np.einsum("kr,rnc->knc", C.astype(object), T)
    assert T.dtype == object and (got == want * 2**80).all()
    m = 2**62 // n + 1  # max|X| n >= 2^62 takes the object path
    X = np.zeros((n, 1), dtype=np.int64)
    X[0, 0] = m
    got = relation_products(s22, X)
    assert got.dtype == np.int64 and (got[:, :, 0] == m * (R[:, 0] == np.arange(5)[:, None])).all()


def test_pair_factors_reject_a_coset_table_whose_meetings_do_not_split(monkeypatch):
    """Two points swapped between two flats of one direction, off its flat
    through the origin: every origin count still is a power of q, but the
    meeting flats of that direction no longer group into cosets.  The
    point table is patched alike, as it is the argsort of the coset table,
    so the first direction's broken flats are read through their points
    and the last direction's through the coset table."""
    import clflats.scheme as scheme_module
    from clflats.flats import coset_table
    cfg = space_config("symplectic", 2, 2)
    for row in (0, -1):
        broken = np.array(coset_table(cfg))
        others = [f for f in dict.fromkeys(broken[row].tolist()) if f != broken[row, 0]]
        x, y = (int(np.flatnonzero(broken[row] == f)[0]) for f in others[:2])
        broken[row, [x, y]] = broken[row, [y, x]]
        points = np.argsort(broken, axis=1, kind="stable").reshape(-1, cfg.q**cfg.nu)
        monkeypatch.setattr(scheme_module, "coset_table", lambda c, t=broken: t)
        monkeypatch.setattr(scheme_module, "flat_point_table", lambda c, t=points: t)
        pair_factors.cache_clear()
        try:
            with pytest.raises(AssertionError, match="do not split into the cosets"):
                pair_factors(cfg)
        finally:
            pair_factors.cache_clear()


def test_pair_factors_reject_partners_in_containers_of_unequal_sizes(monkeypatch):
    """One distance-1 pair of symplectic(2,2) reports two flats of its
    first direction, in different cosets, in each other's coset: every
    split still reads as one (each coset holds two flats of each
    direction), but that partner no longer splits the flats as its
    container's other partner does, so the partners of its direction fall
    into containers of unequal sizes."""
    cfg = space_config("symplectic", 2, 2)
    real = scheme._coset_split
    calls = []

    def swapped(through, offset, cosets):
        local, member = real(through, offset, cosets)
        if not calls:
            row = local[0, 0]
            other = int(np.flatnonzero(row != row[0])[0])
            row[[0, other]] = row[[other, 0]]
        calls.append(cosets)
        return local, member

    monkeypatch.setattr(scheme, "_coset_split", swapped)
    pair_factors.cache_clear()
    try:
        with pytest.raises(AssertionError, match="do not fall into containers of one size"):
            pair_factors(cfg)
    finally:
        pair_factors.cache_clear()
    assert calls


GROUP_KEYS = tuple(k for k in STANDARD_GRID if k[2] >= 2) + (("symplectic", 4, 2),
                                                              ("orthogonal", 3, 3))


@pytest.mark.parametrize("key", GROUP_KEYS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_group_tables_match_the_ordered_pair_oracle(key):
    """The meeting sums read off the direction groups (the containers at
    i = 1, the unordered pairs at i = 2) equal the ordered-pair coset sums
    of conftest.ordered_pair_tables, for 0/1, signed and 2^70 object
    columns at 1, 25, 31, 33 and 512 columns, through meeting_product,
    which takes them at every level and width in column blocks.  The
    rows of relation_rows read 2i exactly at the flats the oracle meets.
    A container holds q + 1 maximal directions in the symplectic,
    sqrt(q) + 1 in the unitary and 2 in the orthogonal spaces."""
    cfg = space_config(*key)
    factors = pair_factors(cfg)
    n = len(direction_distances(cfg)) * factors.per
    rng = np.random.default_rng(sum(map(ord, repr(key))))
    inside = {"symplectic": cfg.q + 1, "unitary": round(cfg.q ** 0.5) + 1, "orthogonal": 2}
    assert factors.sizes == (inside[cfg.case],) + (2,) * (cfg.nu - 2)
    R = relation_rows(cfg, np.arange(n))
    for i in range(1, min(cfg.nu, 3)):
        keys, members = ordered_pair_tables(cfg)[i - 1]
        want = np.sort(np.take(members, keys, axis=1).reshape(-1, n).T, axis=1)
        rows, met = np.nonzero(R == 2 * i)
        assert (rows == np.repeat(np.arange(n), want.shape[1])).all()
        assert (met.reshape(n, -1) == want).all()
        for c in (1, 25, 31, 33, 512):
            high, low = rng.integers(-3, 4, (n, c)), rng.integers(-5, 6, (n, c))
            for X in (rng.integers(0, 2, (n, c)), low, high.astype(object) * 2**70 + low):
                if X.dtype == object:
                    expected = (ordered_meeting_sums(cfg, i, high).astype(object) * 2**70
                                + ordered_meeting_sums(cfg, i, low))
                else:
                    expected = ordered_meeting_sums(cfg, i, X)
                got = meeting_product(cfg, i, X)
                assert got.dtype == X.dtype and (got == expected).all(), (i, c, X.dtype)


def test_coset_split_requires_a_partition():
    """Four flats of da meet two flats each of db (ids 10..13), each in two
    points.  Split into the cosets {10, 11} and {12, 13} it passes; when a
    flat met is shared by both cosets and another is in none, the runs,
    the least flats and the member lists are all consistent, and only the
    count of each flat of db over the member lists rejects it.  When three
    flats of da meet {10, 11} and one meets {12, 13}, the flats of db are
    partitioned, and only the count of the flats of da in each coset, two
    to a coset, rejects it."""
    from clflats.scheme import _coset_split
    offset = np.full((1, 1, 1), 10)

    def through(*met):
        return np.repeat(np.array(met), 2, axis=1).reshape(1, 1, 4, 4) + 10

    local, member = _coset_split(through([0, 1], [2, 3], [0, 1], [2, 3]), offset, 2)
    assert local.tolist() == [[[0, 1, 0, 1]]]
    assert member.tolist() == [[[[10, 11], [12, 13]]]]
    assert _coset_split(through([0, 1], [1, 2], [0, 1], [1, 2]), offset, 2) is None
    assert _coset_split(through([0, 1], [0, 1], [0, 1], [2, 3]), offset, 2) is None


@pytest.mark.parametrize("key", list(STANDARD_GRID) + [("symplectic", 4, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_pair_factors_are_no_larger_than_the_table(key):
    """The factorisation takes no more bytes than the int8 n x n table
    (n^2 bytes), in the narrowest integer types, and is read-only."""
    cfg = space_config(*key)
    factors = pair_factors(cfg)
    n = len(enumerate_flats(cfg, cfg.nu))
    rd = direction_distances(cfg)
    arrays = (rd,) + factors.keys + factors.members
    assert sum(a.nbytes for a in arrays) <= n * n
    assert rd.dtype == np.int8
    for key_i, member_i in zip(factors.keys, factors.members):
        assert key_i.dtype == np.min_scalar_type(int(key_i.max()))
        assert member_i.dtype == np.min_scalar_type(n - 1)
    assert len(factors.keys) == len(factors.sizes) == cfg.nu - 1
    assert not any(a.flags.writeable for a in arrays)


def test_dual_polar_spot_values():
    assert [dual_polar_eigenvalue("symplectic", 2, 2, 1, j) for j in range(3)] == [6, 1, -3]
    assert [dual_polar_eigenvalue("symplectic", 2, 2, 2, j) for j in range(3)] == [8, -2, 2]
    assert [dual_polar_multiplicity("symplectic", 2, 2, j) for j in range(3)] == [1, 9, 5]
    assert sum(dual_polar_multiplicity("symplectic", 2, 2, j) for j in range(3)) == 15


@pytest.mark.parametrize("case,q", CASES_Q)
def test_dual_polar_identities(case, q):
    from clflats.scheme import _case_e2, _qpow2
    e2 = _case_e2(case)
    for nu in range(1, 5):
        X = dual_polar_size(case, q, nu)
        v = [dual_polar_valency(case, q, nu, i) for i in range(nu + 1)]
        m = [dual_polar_multiplicity(case, q, nu, j) for j in range(nu + 1)]
        assert sum(v) == X and sum(m) == X
        for i in range(nu + 1):
            assert dual_polar_eigenvalue(case, q, nu, i, 0) == v[i]
        for j in range(nu + 1):
            got = dual_polar_eigenvalue(case, q, nu, 1, j)
            want = (_qpow2(case, q, e2) * gauss_binomial(nu - j, 1, q)
                    - gauss_binomial(j, 1, q))
            assert got == want
        # column orthogonality against the multiplicity formula
        for j in range(nu + 1):
            for jp in range(j, nu + 1):
                s = sum(Fraction(dual_polar_eigenvalue(case, q, nu, i, j)
                                 * dual_polar_eigenvalue(case, q, nu, i, jp), v[i])
                        for i in range(nu + 1))
                assert s == (Fraction(X, m[j]) if j == jp else 0)


def test_scheme_eigenvalue_spots(s22):
    tables = scheme_tables(s22)
    for eig in tables.eigs:
        assert tables.P[(0, 0), eig] == 1
    for j in range(2):
        assert scheme_eigenvalue(s22, (0, 1), (j, 0)) == 3  # q^nu - 1
        assert scheme_eigenvalue(s22, (0, 1), (j, 1)) == -1
    assert scheme_eigenvalue(s22, (1, 0), (0, 1)) == 4
    assert scheme_eigenvalue(s22, (2, 0), (0, 1)) == 0
    with pytest.raises(ValueError):
        scheme_eigenvalue(s22, (2, 1), (0, 0))


def test_scheme_multiplicities(s22):
    tables = scheme_tables(s22)
    assert [tables.multiplicities[e] for e in tables.eigs] == [1, 15, 9, 30, 5]
    from clflats.flats import incidence_rank
    assert (tables.multiplicities[(0, 0)] + tables.multiplicities[(0, 1)]
            == incidence_rank(s22))


def test_valency_closed_forms(s22):
    assert [valency(s22, r) for r in scheme_tables(s22).rels] == [1, 3, 12, 12, 32]
    with pytest.raises(ValueError):
        valency(s22, (2, 1))
    with pytest.raises(ValueError):
        scheme_multiplicity(s22, (3, 0))


GRID = (("symplectic", 2, 1), ("symplectic", 3, 1), ("symplectic", 2, 2),
        ("symplectic", 3, 2), ("symplectic", 2, 3),
        ("unitary", 4, 1), ("unitary", 4, 2),
        ("orthogonal", 3, 1), ("orthogonal", 5, 1), ("orthogonal", 3, 2))


@pytest.mark.parametrize("case,q,nu", GRID)
def test_pq_and_column_sums(case, q, nu):
    tables = scheme_tables(space_config(case, q, nu))
    assert check_pq_identity(tables)
    assert check_column_sums(tables)


@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 1), ("symplectic", 3, 1),
                                       ("symplectic", 2, 2), ("unitary", 4, 1),
                                       ("orthogonal", 3, 1), ("orthogonal", 5, 1)])
def test_full_eigen_system_small(case, q, nu):
    res = check_eigen_system(space_config(case, q, nu))
    assert all(res.values()), res


def test_idempotent_matrix_form(s21):
    tables = scheme_tables(s21)
    L00, B00 = idempotent_int(s21, (0, 0))
    assert (B00 * tables.size == L00).all()
    L01, B01 = idempotent_int(s21, (0, 1))
    assert (exact.int_matmul(B01, B01) == L01 * B01).all()
    assert int(np.trace(B01)) == L01 * tables.multiplicities[(0, 1)]


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("unitary", 4, 1)])
def test_idempotent_gather_matches_adjacency_sum(key):
    """The gather over relation codes equals sum_r c_r A_r, c_r = L Q[e, r] / |X|."""
    cfg = space_config(*key)
    tables = scheme_tables(cfg)
    for e in tables.eigs:
        coeffs = {r: tables.Q[e, r] / tables.size for r in tables.rels}
        L = np.lcm.reduce([c.denominator for c in coeffs.values()])
        B = sum(int(coeffs[r] * L) * A_r for r, A_r in zip(tables.rels, _adjacency(cfg)))
        assert idempotent_int(cfg, e)[0] == L
        assert (idempotent_int(cfg, e)[1] == B).all()


def test_inner_distribution_spread_and_pencil(s22):
    tables = scheme_tables(s22)
    spread = list_type_I(s22)[0]
    d = inner_distribution(s22, spread.members)
    assert d.u[(0, 0)] == 1 and d.u[(0, 1)] == 3
    assert all(d.u[r] == 0 for r in tables.rels if r[0] != 0)
    assert all((d.uQ[e] == 0) == (e[1] == 1) for e in tables.eigs if e != (0, 0))

    ids = flat_ids(s22)
    pencil = [ids[flat_make(s22, p, zero_vector(s22))] for p in enumerate_isotropic(s22, 2)]
    dp = inner_distribution(s22, pencil)
    assert [dp.u[(i, 0)] for i in range(3)] == [1, 6, 8]
    assert all(dp.u[(i, 1)] == 0 for i in range(2))
    assert all(dp.uQ[e] == 0 for e in tables.eigs if e not in ((0, 0), (0, 1)))

    single = inner_distribution(s22, [7])
    assert single.u[(0, 0)] == 1 and sum(single.u.values()) == 1
    with pytest.raises(ValueError):
        inner_distribution(s22, [])


@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 2), ("symplectic", 3, 2)])
def test_inner_distribution_type_II(case, q, nu):
    cfg = space_config(case, q, nu)
    d = inner_distribution(cfg, list_type_II(cfg)[0].members)
    assert d.u[(1, 0)] == 0
    assert d.u[(0, 1)] == Fraction(q**nu - 2 * q - 1) + Fraction(2 * q**2, q**nu)
    assert d.u[(1, 1)] == Fraction(2 * q**2 * (q ** (nu - 1) - 1), q**nu)
    assert d.uQ[(0, 1)] == 0
    assert all(d.uQ[e] != 0 for e in scheme_tables(cfg).eigs if e[0] != 0)


def test_inner_distribution_matches_projections(s22):
    """Zero eigenprojection iff zero transformed inner distribution."""
    rng = random.Random(42)
    n = scheme_tables(s22).size
    for _ in range(50):
        ids = sorted(rng.sample(range(n), rng.randint(1, n)))
        d = inner_distribution(s22, ids)
        chi = np.zeros((n, 1), dtype=np.int64)
        chi[ids, 0] = 1
        for e in scheme_tables(s22).eigs:
            _, B = idempotent_int(s22, e)
            assert (d.uQ[e] == 0) == (not exact.int_matmul(B, chi).any())


# ---------------------------------------------------------------------------
# valuations

def test_q_valuation_spots():
    assert q_valuation("symplectic", 2, 2, 2, 1) == 1  # valuation of -2
    assert q_valuation("symplectic", 2, 2, 0, 0) == 0
    assert q_valuation("unitary", 4, 2, 1, 0) == Fraction(1, 2)


def test_q_valuation_infinity_is_distinguished():
    v = q_valuation("orthogonal", 3, 4, 3, 2)
    assert v is INFINITY
    assert repr(v) == "Infinity"
    assert v != 0 and v != Fraction(0)


@pytest.mark.parametrize("case,q", CASES_Q)
def test_equ01_rows_match_direct(case, q):
    for nu in range(2, 8):
        for i in range(2, nu + 1):
            for j in (0, 1):
                assert phi_piecewise(case, nu, i, j) == q_valuation(case, q, nu, i, j)


@pytest.mark.parametrize("case,q", CASES_Q)
def test_infinity_branches_exact(case, q):
    for nu in range(2, 9):
        for i in range(2, nu + 1):
            for j in range(2, nu + 1):
                stated = phi_piecewise(case, nu, i, j)
                direct = q_valuation(case, q, nu, i, j)
                assert (stated is INFINITY) == (direct is INFINITY), (case, q, nu, i, j)


@pytest.mark.parametrize("case,q", [("unitary", 4), ("unitary", 9)])
def test_unitary_piecewise_agrees_everywhere(case, q):
    assert valuation_report(case, q, 8) == []


@pytest.mark.parametrize("case,q", [("symplectic", 2), ("symplectic", 3),
                                    ("symplectic", 5), ("orthogonal", 3),
                                    ("orthogonal", 5)])
def test_piecewise_mismatches_confined_to_known_rows(case, q):
    """The stated middle-regime table deviates from ground truth only on the
    symplectic even rows and orthogonal odd rows; the other rows and both
    outer regimes agree exactly (the known erratum; see decisions ledger)."""
    mismatches = valuation_report(case, q, 8)
    assert mismatches, "expected the documented erratum rows to deviate"
    for mm in mismatches:
        parity = 0 if case == "symplectic" else 1
        assert mm.i % 2 == parity, mm
        from clflats.scheme import _case_e2
        mid4 = 4 * mm.j - 2 * mm.i - _case_e2(case)
        assert 0 <= mid4 <= 4 * (mm.nu2 - mm.i), mm


@pytest.mark.parametrize("case,q", CASES_Q)
def test_valuation_inequality_pattern(case, q):
    """phi_i(0) vs phi_i(j): equality at (j, e) = (nu, 0) with the stated
    value coincidence for even i; remaining equalities (the erratum rows)
    are confined to the degenerate table rows."""
    for nu in range(2, 8):
        for i in range(2, nu + 1):
            p0 = dual_polar_eigenvalue(case, q, nu, i, 0)
            f0 = q_valuation(case, q, nu, i, 0)
            for j in range(1, nu + 1):
                pj = dual_polar_eigenvalue(case, q, nu, i, j)
                fj = q_valuation(case, q, nu, i, j)
                if case == "orthogonal" and j == nu:
                    assert f0 == fj
                    assert (p0 == pj) == (i % 2 == 0)
                elif f0 == fj:
                    parity = 0 if case == "symplectic" else 1
                    assert i % 2 == parity, (case, q, nu, i, j)


# ---------------------------------------------------------------------------
# column uniqueness

@pytest.mark.parametrize("case,q", CASES_Q)
def test_column_uniqueness_matches_prediction(case, q):
    for nu in range(1, 7):
        cfg = space_config(case, q, nu)
        tables = scheme_tables(cfg)
        for rel in tables.rels:
            if rel == (0, 0):
                continue
            res = column_uniqueness(cfg, rel)
            assert res.matches_prediction, (case, q, nu, rel, res)
    with pytest.raises(ValueError):
        column_uniqueness(space_config(case, q, 2), (0, 0))


def test_uniqueness_exceptions_concrete():
    s23 = space_config("symplectic", 2, 3)
    assert not column_uniqueness(s23, (0, 1)).unique       # (a)
    assert not column_uniqueness(s23, (3, 0)).unique       # (b)
    assert column_uniqueness(s23, (2, 0)).unique           # even i, not orthogonal
    o35 = space_config("orthogonal", 3, 5)
    assert not column_uniqueness(o35, (2, 0)).unique       # (c), orthogonal only
    assert column_uniqueness(space_config("symplectic", 2, 2), (1, 0)).unique


# ---------------------------------------------------------------------------
# axioms

@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 1), ("symplectic", 2, 2),
                                       ("orthogonal", 3, 1), ("unitary", 4, 1)])
def test_scheme_axioms_exhaustive(case, q, nu):
    report = verify_scheme(space_config(case, q, nu))
    assert report.ok and report.mode == "exhaustive"


def test_scheme_axioms_sampled():
    report = verify_scheme(space_config("symplectic", 3, 2), seed=0)
    assert report.ok and report.mode == "sampled" and report.pairs_checked == 10_000


def _verify_scheme_loop(R, config, seed=0, samples=10_000):
    """The per-pair loop verify_scheme replaced: (mode, pairs_checked, intersection_ok)."""
    n = R.shape[0]
    width = 2 * config.nu + 1
    if n <= 120:
        mode, pairs = "exhaustive", [(x, y) for x in range(n) for y in range(n)]
    else:
        rng = random.Random(("scheme-axioms", config.key(), seed).__repr__())
        mode, pairs = "sampled", [(rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
    reference, ok = {}, True
    for x, y in pairs:
        k = int(R[x, y])
        hist = np.bincount(R[x, :].astype(np.int64) * width + R[:, y].astype(np.int64),
                           minlength=width * width)
        if k in reference:
            ok &= bool((reference[k] == hist).all())
        else:
            reference[k] = hist
    return mode, len(pairs), ok


def _swap_symmetric_pairs(R):
    """R with the codes of two symmetric off-diagonal pairs exchanged."""
    T = R.copy()
    (a, b), (c, d) = (0, 1), (0, int(np.flatnonzero(R[0] != R[0, 1])[-1]))
    T[a, b], T[b, a], T[c, d], T[d, c] = R[c, d], R[d, c], R[a, b], R[b, a]
    return T


@pytest.mark.parametrize("key", STANDARD_GRID, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_verify_scheme_matches_pair_loop(key, monkeypatch):
    """verify_scheme agrees with the per-pair loop on the oracle table, and
    on a row source whose codes of two symmetric pairs are exchanged."""
    cfg = space_config(*key)
    R = relation_matrix(cfg)
    for seed in (0, 3):
        report = verify_scheme(cfg, seed=seed)
        assert (report.mode, report.pairs_checked, report.intersection_ok) == \
            _verify_scheme_loop(R, cfg, seed)
        assert report.ok
    broken = _swap_symmetric_pairs(R)
    monkeypatch.setattr(scheme, "relation_rows", lambda config, ids: broken[ids])
    report = verify_scheme(cfg)
    mode, pairs, ok = _verify_scheme_loop(broken, cfg)
    assert (report.mode, report.pairs_checked, report.intersection_ok) == (mode, pairs, ok)
    assert report.symmetry_ok and report.diagonal_ok
    if mode == "exhaustive":
        assert not report.ok


def _sampled_pair(cfg, seed=0):
    """The first pair (x, y), x != y, of verify_scheme's seeded stream."""
    rng = random.Random(("scheme-axioms", cfg.key(), seed).__repr__())
    n = scheme_tables(cfg).size
    while True:
        x, y = rng.randrange(n), rng.randrange(n)
        if x != y:
            return x, y


@pytest.mark.parametrize("key", [("symplectic", 3, 2), ("symplectic", 2, 3)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_sampled_verify_scheme_fails_each_tampered_axiom(key, monkeypatch):
    """In sampled mode, a row source tampered at a sampled pair (x, y)
    fails the axiom it breaks and no other: an asymmetric entry at (x, y)
    fails symmetry_ok, an extra 0 in rows x and y (at (x, y) and (y, x))
    diagonal_ok, and a code out of range there partition_ok; an
    asymmetric direction-distance table fails symmetry_ok with the rows
    read off it.  The mode and pair count stay."""
    cfg = space_config(*key)
    assert verify_scheme(cfg).ok
    x, y = _sampled_pair(cfg)
    real = scheme.relation_rows
    code = int(real(cfg, [x])[0, y])
    other = next(c for c in range(1, 2 * cfg.nu + 1) if c != code)
    cases = (({(x, y): other}, "symmetry_ok"),
             ({(x, y): 0, (y, x): 0}, "diagonal_ok"),
             ({(x, y): 2 * cfg.nu + 1, (y, x): 2 * cfg.nu + 1}, "partition_ok"))
    for entries, broken in cases:
        def tampered(config, ids, entries=entries):
            rows = real(config, ids)
            for (a, b), value in entries.items():
                rows[np.asarray(ids) == a, b] = value
            return rows

        monkeypatch.setattr(scheme, "relation_rows", tampered)
        report = verify_scheme(cfg)
        assert (report.mode, report.pairs_checked) == ("sampled", 10_000)
        assert not getattr(report, broken) and not report.ok, broken
        for kept in {"partition_ok", "symmetry_ok", "diagonal_ok"} - {broken}:
            assert getattr(report, kept), (broken, kept)
    monkeypatch.setattr(scheme, "relation_rows", real)
    rd = np.array(direction_distances(cfg))
    a, b = np.argwhere(rd == 1)[0]
    rd[a, b] = 2
    monkeypatch.setattr(scheme, "direction_distances", lambda config: rd)
    assert not verify_scheme(cfg).symmetry_ok


def test_eigen_checks_fail_on_a_mixed_block(s22):
    """B_1 V replaced by (B_1 + B_2) V breaks the eigen, idempotent and orthogonal identities."""
    from clflats.scheme import _eigen_checks
    tables = scheme_tables(s22)
    V = np.eye(tables.size, dtype=np.int64)
    Bs = [idempotent_int(s22, e)[1] for e in tables.eigs]
    assert all(_eigen_checks(s22, V, Bs).values())
    Bs[1] = Bs[1] + Bs[2]
    ok = _eigen_checks(s22, V, Bs)
    assert not (ok["eigen"] or ok["idempotent"] or ok["orthogonal"])
    assert ok["trace"]


def test_probe_checks_match_full(s22):
    full = check_eigen_system(s22)
    probes = check_eigen_system_probes(s22, seed=1, count=10)
    assert all(full.values()) and all(probes.values())

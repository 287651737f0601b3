"""Flats: coset canonicalization, meet/join, enumeration, incidence."""

import random

import numpy as np
import pytest

from clflats import exact, flats
from clflats.field import e_power, gauss_binomial
from clflats.flats import (
    Flat,
    container_flats,
    coset_representatives,
    coset_table,
    count_flats,
    count_flats_through,
    enumerate_flats,
    flat_contains_flat,
    flat_ids,
    flat_join,
    flat_make,
    flat_meet,
    flat_points,
    flats_in,
    flats_through,
    check_gram_identity,
    incidence_matrix,
    incidence_matrix_in,
    incidence_null_basis_in,
    incidence_rank,
    incidence_rank_closed_form,
)
from clflats.geometry import (
    canonicalize,
    gram_rank,
    point_index,
    space_config,
    zero_vector,
)
from conftest import MEDIUM_CONFIGS, in_row_span, integer_nullspace, isotropic_oracle, unit_vector


def test_flat_make_canonical_representative(s22):
    e = lambda j: unit_vector(s22, j)
    p = canonicalize(s22, [e(0)])
    assert flat_make(s22, p, e(0)).rep == zero_vector(s22)
    assert flat_make(s22, p, e(1)).rep == e(1)
    for x in ((1, 1, 0, 1), (0, 1, 0, 1)):
        assert flat_make(s22, p, x) == flat_make(s22, p, tuple(
            s22.field.add(a, b) for a, b in zip(x, e(0))))
    with pytest.raises(ValueError):
        flat_make(s22, p, (0, 0))


def test_meet_join_spot_examples(s22):
    e = lambda j: unit_vector(s22, j)
    f1 = flat_make(s22, canonicalize(s22, [e(0), e(1)]), zero_vector(s22))
    f2 = flat_make(s22, canonicalize(s22, [e(0), e(3)]), zero_vector(s22))
    met = flat_meet(s22, f1, f2)
    assert met.direction.basis == ((1, 0, 0, 0),) and met.rep == zero_vector(s22)
    assert flat_meet(s22, f1, f1) == f1
    parallel = flat_make(s22, f1.direction, e(2))
    assert flat_meet(s22, f1, parallel) is None
    joined = flat_join(s22, f1, parallel)
    assert joined.dim == 3  # 2 + 2 - 2 + 1
    assert flat_join(s22, f1, f1) == f1


def _points_set(config, f):
    return set(flat_points(config, f))


@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 1), ("symplectic", 3, 1),
                                       ("unitary", 4, 1), ("orthogonal", 3, 1)])
def test_meet_join_bruteforce_all_pairs(case, q, nu):
    cfg = space_config(case, q, nu)
    flats = enumerate_flats(cfg, nu)
    for f1 in flats:
        for f2 in flats:
            pts = _points_set(cfg, f1) & _points_set(cfg, f2)
            met = flat_meet(cfg, f1, f2)
            assert (met is None) == (not pts)
            if met is not None:
                assert _points_set(cfg, met) == pts
            joined = flat_join(cfg, f1, f2)
            union = _points_set(cfg, f1) | _points_set(cfg, f2)
            assert union <= _points_set(cfg, joined)
            eps = 0 if pts else 1
            inter_dim = 2 * nu - canonicalize(
                cfg, list(f1.direction.basis) + list(f2.direction.basis)).dim
            assert joined.dim == f1.dim + f2.dim - inter_dim + eps


def test_meet_join_bruteforce_all_pairs_s22(s22):
    flats = enumerate_flats(s22, 2)
    for f1 in flats:
        for f2 in flats:
            pts = _points_set(s22, f1) & _points_set(s22, f2)
            met = flat_meet(s22, f1, f2)
            assert (met is None) == (not pts)
            if met:
                assert _points_set(s22, met) == pts
            joined = flat_join(s22, f1, f2)
            # dimension law with emptiness-driven epsilon
            inter_dim = f1.dim + f2.dim - canonicalize(
                s22, list(f1.direction.basis) + list(f2.direction.basis)).dim
            assert joined.dim == f1.dim + f2.dim - inter_dim + (0 if pts else 1)


GRID = (("symplectic", 2, 1), ("symplectic", 3, 1), ("symplectic", 2, 2),
        ("symplectic", 3, 2), ("symplectic", 2, 3),
        ("unitary", 4, 1), ("unitary", 4, 2),
        ("orthogonal", 3, 1), ("orthogonal", 5, 1), ("orthogonal", 3, 2))


@pytest.mark.parametrize("case,q,nu", GRID)
def test_flat_counts_closed_form(case, q, nu):
    cfg = space_config(case, q, nu)
    for m in range(nu + 1):
        assert len(enumerate_flats(cfg, m)) == count_flats(cfg, m)


def test_flat_count_spots(s22, o32):
    assert count_flats(s22, 2) == 60
    assert count_flats(o32, 2) == 72
    assert len(enumerate_flats(space_config("symplectic", 2, 2), 0)) == 16


@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 2), ("orthogonal", 3, 2),
                                       ("unitary", 4, 1), ("symplectic", 2, 3)])
def test_pencil_counts_closed_form(case, q, nu):
    cfg = space_config(case, q, nu)
    for i in range(nu):
        base = enumerate_flats(cfg, i)[1 if i else 0]
        for j in range(i, nu + 1):
            got = flats_through(cfg, base, j)
            assert len(got) == count_flats_through(cfg, i, j)
            assert all(flat_contains_flat(cfg, g, base) for g in got)
    with pytest.raises(ValueError):
        flats_through(cfg, enumerate_flats(cfg, 1)[0], 0)


@pytest.mark.parametrize("key", GRID, ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_flats_through_matches_containment_loop(key):
    """The syndrome pencil equals the flat_contains_flat scan over every
    type-j flat, in enumerate_flats order, for seeded base flats of every
    type i <= j."""
    cfg = space_config(*key)
    rng = random.Random(f"{key}")
    for j in range(cfg.nu + 1):
        for i in range(j + 1):
            level = enumerate_flats(cfg, i)
            for base in rng.sample(level, min(3, len(level))):
                want = [g for g in enumerate_flats(cfg, j) if flat_contains_flat(cfg, g, base)]
                assert flats_through(cfg, base, j) == want


@pytest.mark.parametrize("key", [("symplectic", 3, 2), ("unitary", 4, 2),
                                 ("symplectic", 2, 3), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_flat_ids_match_the_oracle_directions(key, monkeypatch):
    """enumerate_flats at every level, flat_ids and the coset_table bytes
    equal those built from the oracle's directions, so no flat id moved."""
    cfg = space_config(*key)
    for m in range(cfg.nu + 1):
        want = [Flat(d, rep) for d in isotropic_oracle(cfg, m)
                for rep in coset_representatives(cfg, d)]
        assert list(enumerate_flats(cfg, m)) == want
    assert flat_ids(cfg) == {f: k for k, f in enumerate(want)}
    got = coset_table(cfg)
    monkeypatch.setattr(flats, "enumerate_isotropic", isotropic_oracle)
    assert got.tobytes() == flats.coset_table.__wrapped__(cfg).tobytes()


def test_incidence_structure(medium_config):
    cfg = medium_config
    inc = incidence_matrix(cfg)
    q, nu = cfg.q, cfg.nu
    assert inc.shape == (q ** (2 * nu), count_flats(cfg, nu))
    assert set(inc.matrix.sum(axis=0).tolist()) == {q**nu}
    pencil_size = count_flats_through(cfg, 0, nu)
    assert set(inc.matrix.sum(axis=1).tolist()) == {pencil_size}


@pytest.mark.parametrize("case,q,nu,expected", [
    ("symplectic", 2, 2, 16), ("orthogonal", 3, 2, 33), ("unitary", 4, 1, 10)])
def test_incidence_rank_spots(case, q, nu, expected):
    cfg = space_config(case, q, nu)
    assert incidence_rank(cfg) == expected == incidence_rank_closed_form(cfg)
    for p in exact.MODULAR_PRIMES:
        assert len(exact.modular_echelon(incidence_matrix(cfg).matrix, p)[1]) == expected


def test_gram_identity(medium_config):
    assert check_gram_identity(medium_config)


def test_flats_in_counts(s22, o32):
    for cfg in (s22, o32):
        base = enumerate_flats(cfg, cfg.nu)[0]
        containers = container_flats(cfg, base, 1)
        assert len(containers) == gauss_binomial(cfg.nu, cfg.nu - 1, cfg.q)
        for t in containers:
            inside = flats_in(cfg, t)
            expected = cfg.q * (e_power(cfg, cfg.e2) + 1)
            assert len(inside) == expected
            assert all(flat_contains_flat(cfg, t, g) for g in inside)
            assert all(g.dim == cfg.nu and gram_rank(cfg, g.direction) == 0
                       for g in inside)
            assert flat_contains_flat(cfg, t, base)


def _all_containers(cfg):
    """Every type-(nu+i, 2i) flat, 1 <= i < nu, once, in first-seen order."""
    seen = {}
    for base in enumerate_flats(cfg, cfg.nu):
        for i in range(1, cfg.nu):
            for t in container_flats(cfg, base, i):
                seen.setdefault(t, None)
    return list(seen)


@pytest.mark.parametrize("key", [k for k in MEDIUM_CONFIGS if k[2] >= 2],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_flats_in_matches_containment_scan(key):
    cfg = space_config(*key)
    flats = enumerate_flats(cfg, cfg.nu)
    containers = _all_containers(cfg)
    assert containers
    for t in containers:
        assert flats_in(cfg, t) == [g for g in flats if flat_contains_flat(cfg, t, g)]


@pytest.mark.parametrize("key", MEDIUM_CONFIGS + (("symplectic", 3, 2), ("unitary", 4, 2),
                                                  ("symplectic", 2, 3)),
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_incidence_matrix_matches_flat_points_loop(key):
    cfg = space_config(*key)
    flats = enumerate_flats(cfg, cfg.nu)
    want = np.zeros((cfg.num_points, len(flats)), dtype=np.int64)
    for col, f in enumerate(flats):
        for p in flat_points(cfg, f):
            want[point_index(cfg, p), col] = 1
    M = incidence_matrix(cfg).matrix
    assert M.dtype == np.int64 and not M.flags.writeable
    assert (M == want).all()


def test_container_type_guard(s22):
    base = enumerate_flats(s22, 2)[0]
    bad = flat_make(s22, canonicalize(s22, [unit_vector(s22, 0)]), zero_vector(s22))
    with pytest.raises(ValueError):
        flats_in(s22, bad)
    with pytest.raises(ValueError):
        container_flats(s22, base, 2)


def test_incidence_matrix_in_shape(s22):
    base = enumerate_flats(s22, 2)[0]
    t = container_flats(s22, base, 1)[0]
    inc = incidence_matrix_in(s22, t)
    assert inc.shape == (8, 6)
    assert set(inc.matrix.sum(axis=0).tolist()) == {4}
    assert set(inc.matrix.sum(axis=1).tolist()) == {3}


def _incidence_by_flat_points(config, big):
    """The container incidence by a flat_points loop over its interior flats."""
    members = flats_in(config, big)
    pts = sorted(flat_points(config, big))
    pt_index = {p: i for i, p in enumerate(pts)}
    M = np.zeros((len(pts), len(members)), dtype=np.int64)
    for col, f in enumerate(members):
        for p in flat_points(config, f):
            M[pt_index[p], col] = 1
    return tuple(pts), tuple(members), M


@pytest.mark.parametrize("key,bases", [(("symplectic", 2, 2), None), (("orthogonal", 3, 2), None),
                                       (("symplectic", 3, 2), None), (("unitary", 4, 2), 6)],
                         ids=["symp-q2-nu2", "orth-q3-nu2", "symp-q3-nu2", "unit-q4-nu2"])
def test_incidence_matrix_in_matches_flat_points_loop(key, bases):
    """The sliced container incidence equals the loop: points, flats and
    matrix, on every distinct container of the first `bases` base flats
    (all when None); each container's null basis is cached."""
    cfg = space_config(*key)
    containers = {}
    for base in enumerate_flats(cfg, cfg.nu)[:bases]:
        containers.update(dict.fromkeys(container_flats(cfg, base, 1)))
    for t in containers:
        inc = incidence_matrix_in(cfg, t)
        points, members, M = _incidence_by_flat_points(cfg, t)
        assert inc.points == points and inc.flats == members
        assert inc.matrix.dtype == np.int64 and not inc.matrix.flags.writeable
        assert (inc.matrix == M).all()
        N = incidence_null_basis_in(cfg, t)
        assert N is incidence_null_basis_in(cfg, t) and not N.block.flags.writeable
        N = N.matrix()
        assert not exact.int_matmul(M, N.T).any()
        assert N.shape[0] == M.shape[1] - len(exact.modular_echelon(M, exact.MODULAR_PRIMES[0])[1])


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2), ("symplectic", 3, 2)],
                         ids=["symp-q2-nu2", "orth-q3-nu2", "symp-q3-nu2"])
def test_container_null_bases_match_the_oracle(key):
    """Every distinct container's null basis spans the Fraction nullspace
    of its incidence matrix (the same dimension, the oracle in its row
    span), its product equals int_matmul with N for 0/1, signed and object
    columns, and the container keeps the ids of its flats, ascending."""
    cfg = space_config(*key)
    ids = flat_ids(cfg)
    rng = np.random.default_rng(sum(map(ord, repr(key))))
    containers = {}
    for base in enumerate_flats(cfg, cfg.nu):
        containers.update(dict.fromkeys(container_flats(cfg, base, 1)))
    for t in containers:
        inc = incidence_matrix_in(cfg, t)
        assert inc.ids.tolist() == sorted(ids[f] for f in inc.flats)
        assert inc.ids.tolist() == [ids[f] for f in inc.flats] and not inc.ids.flags.writeable
        basis = incidence_null_basis_in(cfg, t)
        N = basis.matrix()
        oracle = integer_nullspace(inc.matrix)
        assert oracle.shape == N.shape and in_row_span(N, basis.free, oracle)
        n = inc.matrix.shape[1]
        for X in (rng.integers(0, 2, (n, 3)), rng.integers(-7, 8, (n, 3)),
                  rng.integers(0, 2, n), rng.integers(-7, 8, (n, 2)).astype(object) * 2**80):
            got = basis.product(X)
            assert got.shape == (len(N),) + X.shape[1:]
            assert (got == exact.int_matmul(N, X)).all()


def test_flat_ids_stable_order(s22):
    flats = enumerate_flats(s22, 2)
    ids = flat_ids(s22)
    assert [ids[f] for f in flats] == list(range(len(flats)))
    directions = [f.direction for f in flats]
    # direction-major order, representatives lexicographic inside each block
    per = s22.q ** s22.nu
    for b in range(len(flats) // per):
        block = flats[b * per:(b + 1) * per]
        assert len({f.direction for f in block}) == 1
        reps = [f.rep for f in block]
        assert reps == sorted(reps)

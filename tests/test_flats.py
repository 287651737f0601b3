"""Flats: coset canonicalization, meet/join, enumeration, incidence."""

import dataclasses
import random

import numpy as np
import pytest

from clflats import exact, flats, spreads
from clflats.cl import set_denominator
from clflats.cli import STANDARD_GRID
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
    flat_ids_in,
    flat_join,
    flat_make,
    flat_meet,
    flat_points,
    flats_in,
    flats_through,
    check_gram_identity,
    gram_matrix,
    gram_spectrum,
    incidence_matrix,
    incidence_rank,
    incidence_rank_closed_form,
    point_mask,
)
from clflats.geometry import (
    canonicalize,
    gram_rank,
    point_index,
    space_config,
    zero_vector,
)
from conftest import (
    MEDIUM_CONFIGS,
    container_flats_oracle,
    distinct_containers,
    gram_oracle,
    incidence_by_flat_points,
    incidence_kernel,
    isotropic_oracle,
    membership_rows,
    unit_vector,
)


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
    assert set(inc.sum(axis=0).tolist()) == {q**nu}
    pencil_size = count_flats_through(cfg, 0, nu)
    assert set(inc.sum(axis=1).tolist()) == {pencil_size}


@pytest.mark.parametrize("case,q,nu,expected", [
    ("symplectic", 2, 2, 16), ("orthogonal", 3, 2, 33), ("unitary", 4, 1, 10)])
def test_incidence_rank_spots(case, q, nu, expected):
    cfg = space_config(case, q, nu)
    assert incidence_rank(cfg) == expected == incidence_rank_closed_form(cfg)
    for p in (exact.MODULAR_PRIME, 10**9 + 9):
        assert len(exact.modular_echelon(incidence_matrix(cfg), p)[1]) == expected


def test_gram_identity(medium_config):
    assert check_gram_identity(medium_config)


@pytest.mark.parametrize("key", list(STANDARD_GRID) + [("symplectic", 4, 2), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_gram_matrix_counts_the_flats_through_each_point_pair(key, monkeypatch):
    """G, read off the point pairs of each flat, equals M M^T (gram_oracle),
    int64 and read-only, and is built with no incidence matrix."""
    cfg = space_config(*key)
    G = gram_matrix(cfg)
    assert G.dtype == np.int64 and not G.flags.writeable
    assert (G == gram_oracle(cfg)).all()

    def refuse(config):
        raise AssertionError("the incidence matrix read by gram_matrix")

    monkeypatch.setattr(flats, "incidence_matrix", refuse)
    assert (gram_matrix.__wrapped__(cfg) == G).all()


@pytest.mark.parametrize("key", list(STANDARD_GRID) + [("symplectic", 4, 2), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_spectral_rank_matches_the_null_basis_oracle(key):
    """The rank of M read off the certified spectrum of M M^T equals n minus
    the dimension of the oracle's certified null basis and the closed form;
    the multiplicities are positive and sum to the number of points; the
    spectrum has two eigenvalues in the symplectic case and three
    otherwise; and G - mu_i I has GF(p) rank (points - m_i), an
    elimination that shares no step with the spectrum."""
    cfg = space_config(*key)
    n = len(enumerate_flats(cfg, cfg.nu))
    mu, m = gram_spectrum(cfg)
    assert incidence_rank(cfg) == n - len(incidence_kernel(cfg)) == incidence_rank_closed_form(cfg)
    assert list(mu) == sorted(set(mu)) and all(k > 0 for k in m)
    assert sum(m) == cfg.num_points
    assert len(mu) == (2 if cfg.case == "symplectic" else 3)
    G = gram_matrix(cfg)
    assert not G.flags.writeable and G is gram_matrix(cfg)
    for e, k in zip(mu, m):
        shifted = G - e * np.eye(len(G), dtype=np.int64)
        assert len(exact.modular_echelon(shifted, exact.MODULAR_PRIME)[1]) == len(G) - k


@pytest.mark.parametrize("key", [("symplectic", 2, 2), ("orthogonal", 3, 2)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
@pytest.mark.parametrize("where", [0, -1], ids=["smallest", "largest"])
def test_a_shifted_eigenvalue_candidate_fails_the_certificate(key, where, monkeypatch):
    """One float eigenvalue of M M^T moved by 1 makes the spectrum raise:
    moving one of a repeated eigenvalue adds a candidate of multiplicity 0,
    moving the simple largest one breaks prod (G - mu_i I) = 0."""
    cfg = space_config(*key)
    real = np.linalg.eigvalsh

    def shifted(a):
        values = real(a)
        values[where] += 1
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    with pytest.raises(AssertionError, match="certificate"):
        flats.gram_spectrum.__wrapped__(cfg)


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


@pytest.mark.parametrize("key", [k for k in MEDIUM_CONFIGS if k[2] >= 2],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_flats_in_matches_containment_scan(key):
    cfg = space_config(*key)
    flats = enumerate_flats(cfg, cfg.nu)
    containers = distinct_containers(cfg)
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
    M = incidence_matrix(cfg)
    assert M.dtype == np.int64 and not M.flags.writeable
    assert (M == want).all()


def test_container_type_guard(s22):
    base = enumerate_flats(s22, 2)[0]
    bad = flat_make(s22, canonicalize(s22, [unit_vector(s22, 0)]), zero_vector(s22))
    with pytest.raises(ValueError):
        flats_in(s22, bad)
    with pytest.raises(ValueError):
        container_flats(s22, base, 2)


CONTAINER_KEYS = tuple(k for k in GRID if k[2] >= 2) + (("symplectic", 4, 2),
                                                       ("orthogonal", 3, 3))


@pytest.mark.parametrize("key", CONTAINER_KEYS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_container_flats_match_the_oracle(key):
    """At every i, the containers through each flat of the first direction
    and through the last flat, read off the direction distances, are the
    layer growth's, gauss_binomial(nu, nu - i, q) of them, each holding
    the base flat."""
    cfg = space_config(*key)
    maximal = enumerate_flats(cfg, cfg.nu)
    for i in range(1, cfg.nu):
        for base in maximal[:cfg.q**cfg.nu] + maximal[-1:]:
            got = container_flats(cfg, base, i)
            assert got == container_flats_oracle(cfg, base, i)
            assert len(got) == gauss_binomial(cfg.nu, cfg.nu - i, cfg.q)
            assert all(flat_contains_flat(cfg, t, base) for t in got)


@pytest.mark.parametrize("key", [("symplectic", 2, 3), ("orthogonal", 3, 2)],
                         ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}")
def test_container_flats_check_the_gram_rank_of_every_sum(key, monkeypatch):
    """A direction at distance j != i from the base direction, read as at
    distance i, has a sum with it of Gram rank 2j: container_flats raises
    AssertionError for every such j, 0 (the base direction) and nu
    included."""
    cfg = space_config(*key)
    base = enumerate_flats(cfg, cfg.nu)[0]
    real = flats.direction_distances(cfg)
    for i in range(1, cfg.nu):
        for j in set(range(cfg.nu + 1)) - {i}:
            tampered = np.array(real)
            tampered[0, np.flatnonzero(real[0] == j)[0]] = i
            monkeypatch.setattr(flats, "direction_distances", lambda c, t=tampered: t)
            with pytest.raises(AssertionError, match=f"does not have Gram rank {2 * i}"):
                container_flats(cfg, base, i)
            monkeypatch.undo()


def _incidence_in(config, big):
    """A container's incidence read off the global one: the rows of its
    points (point_mask) and the columns of its flats (flat_ids_in)."""
    M = incidence_matrix(config)
    return M[point_mask(config, big)][:, flat_ids_in(config, big)]


def test_incidence_matrix_in_shape(s22):
    base = enumerate_flats(s22, 2)[0]
    t = container_flats(s22, base, 1)[0]
    inc = _incidence_in(s22, t)
    assert inc.shape == (8, 6)
    assert set(inc.sum(axis=0).tolist()) == {4}
    assert set(inc.sum(axis=1).tolist()) == {3}


@pytest.mark.parametrize("key,bases", [(("symplectic", 2, 2), None), (("symplectic", 2, 3), 2)],
                         ids=["symp-q2-nu2", "symp-q2-nu3"])
def test_incidence_matrix_in_matches_flat_points_loop(key, bases):
    """The global incidence sliced to a container's points and flats equals
    the flat_points loop, on every distinct container of the first `bases`
    directions (all when None; i = 1 and 2 at nu = 3)."""
    cfg = space_config(*key)
    for t in distinct_containers(cfg, bases=bases):
        _, _, M = incidence_by_flat_points(cfg, t)
        inc = _incidence_in(cfg, t)
        assert inc.dtype == np.int64 and (inc == M).all()


@pytest.mark.parametrize("key,bases", [(("symplectic", 2, 2), None), (("orthogonal", 3, 2), None),
                                       (("symplectic", 3, 2), None), (("unitary", 4, 2), 2)],
                         ids=["symp-q2-nu2", "orth-q3-nu2", "symp-q3-nu2", "unit-q4-nu2"])
def test_container_ids_match_flat_points_loop(key, bases):
    """The points of point_mask and the ids of flat_ids_in, which a
    container's membership plan keeps, are those of the flat_points loop,
    on every distinct container of the first `bases` directions (all when
    None); each point lies on one flat of each of the D_Q = set_denominator
    interior directions, and each flat has q^nu points (on symplectic(2,2)
    8 points and 6 flats, 3 to a point)."""
    cfg = space_config(*key)
    ids = flat_ids(cfg)
    for t in distinct_containers(cfg, bases=bases):
        points, members, M = incidence_by_flat_points(cfg, t)
        mask = point_mask(cfg, t)
        assert mask.dtype == bool
        assert np.flatnonzero(mask).tolist() == [point_index(cfg, p) for p in points]
        got = flat_ids_in(cfg, t)
        assert got.dtype == np.int64 and got.tolist() == [ids[f] for f in members]
        assert spreads.membership_plan(cfg, t).ids.tolist() == got.tolist()
        i = t.dim - cfg.nu
        assert M.shape == (cfg.q**(cfg.nu + i), cfg.q**i * set_denominator(cfg, i))
        assert set(M.sum(axis=0).tolist()) == {cfg.q**cfg.nu}
        assert set(M.sum(axis=1).tolist()) == {set_denominator(cfg, i)}
        if key == ("symplectic", 2, 2):
            assert M.shape == (8, 6) and set(M.sum(axis=1).tolist()) == {3}


@pytest.mark.parametrize("key,bases", [(("symplectic", 2, 2), None), (("orthogonal", 3, 2), None),
                                       (("symplectic", 3, 2), None), (("unitary", 4, 2), None),
                                       (("symplectic", 2, 3), None), (("symplectic", 4, 2), None),
                                       (("orthogonal", 3, 3), 2)],
                         ids=["symp-q2-nu2", "orth-q3-nu2", "symp-q3-nu2", "unit-q4-nu2",
                              "symp-q2-nu3", "symp-q4-nu2", "orth-q3-nu3"])
def test_container_null_bases_match_the_oracle(key, bases):
    """Every distinct container's translation-character basis K_F
    (spreads.membership_plan with the container), on every container of
    the grid and symplectic(4,2) and on those of two directions of
    orthogonal(3,3), i = 1 and 2: M_F K_F^T = 0 exactly for the
    flat_points incidence M_F; K_F has the nullity of the certified null
    basis N_F of M_F and of the closed form q^i D_Q - rank, and full GF(p)
    rank, so it spans ker M_F; one flat moved to another value group makes
    the build-time check raise; and K_F chi = 0 exactly when N_F chi = 0,
    for 0/1, signed and object 2^80 columns.  A container has value
    groups iff i >= 2: at i = 1 its geometry is that of nu = 1, where no
    character kernel holds two directions."""
    cfg = space_config(*key)
    rng = np.random.default_rng(sum(map(ord, repr(key))))
    moved = 0
    for t in distinct_containers(cfg, bases=bases):
        i = t.dim - cfg.nu
        plan = spreads.membership_plan(cfg, t)
        assert plan is spreads.membership_plan(cfg, t)
        assert not any(a.flags.writeable for a in (plan.ids, plan.line, plan.groups, plan.gather))
        _, _, M = incidence_by_flat_points(cfg, t)
        n = M.shape[1]
        K = membership_rows(plan, n)
        assert set(np.unique(K).tolist()) <= {-1, 0, 1}
        assert not exact.int_matmul(M, K.T).any()
        N = exact.certified_null_basis(M)
        closed = n - incidence_rank_closed_form(space_config(cfg.case, cfg.q, i))
        assert n == cfg.q**i * set_denominator(cfg, i)
        assert len(K) == len(N) == closed
        assert len(exact.modular_echelon(K, exact.MODULAR_PRIME)[1]) == len(K)
        assert bool(len(plan.line)) == (i >= 2)
        if len(plan.line):
            groups = plan.groups.copy()
            groups[0, 0, 0], groups[0, 1, 0] = plan.groups[0, 1, 0], plan.groups[0, 0, 0]
            with pytest.raises(AssertionError, match="value group"):
                spreads._check_groups(cfg, dataclasses.replace(plan, groups=groups))
            moved += 1
        for X in (rng.integers(0, 2, (n, 3)), rng.integers(-7, 8, (n, 3)), rng.integers(0, 2, n),
                  rng.integers(-7, 8, (n, 2)).astype(object) * 2**80):
            want = ~exact.int_matmul(N, X).any(axis=0)
            assert np.array_equal(plan.annihilates(X), want)
    assert bool(moved) == (cfg.nu >= 3)


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

"""Spaces, forms, canonical subspaces, isotropic enumeration, isometries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clflats import geometry
from clflats.cli import STANDARD_GRID
from clflats.field import e_power
from clflats.geometry import (
    POINT_GRAPH_BOUND,
    all_vectors,
    canonicalize,
    enumerate_isotropic,
    form_value,
    form_values,
    gram_rank,
    gram_ranks,
    is_isotropic,
    point_array,
    point_graph,
    point_index,
    random_isometry,
    reduce_mod,
    rref,
    rref_stack,
    space_config,
    subspace_checks,
    subspace_type,
    subspaces_contain,
    syndrome_keys,
    vec_sub,
)
from conftest import (
    isotropic_brute_force,
    isotropic_oracle,
    random_isometry_oracle,
    unit_vector,
)

GRID = (("symplectic", 2, 1), ("symplectic", 3, 1), ("symplectic", 2, 2),
        ("symplectic", 3, 2), ("symplectic", 2, 3),
        ("unitary", 4, 1), ("unitary", 4, 2),
        ("orthogonal", 3, 1), ("orthogonal", 5, 1), ("orthogonal", 3, 2))


def test_config_guards():
    with pytest.raises(ValueError):
        space_config("orthogonal", 2, 2)
    with pytest.raises(ValueError):
        space_config("unitary", 3, 1)
    with pytest.raises(ValueError):
        space_config("symplectic", 2, 0)
    with pytest.raises(ValueError):
        space_config("hermitian", 2, 1)


def test_form_values_spot():
    s = space_config("symplectic", 2, 1)
    e1, e2 = unit_vector(s, 0), unit_vector(s, 1)
    assert form_value(s, e1, e2) == 1
    for v in all_vectors(s):
        assert form_value(s, v, v) == 0  # alternating
    o = space_config("orthogonal", 3, 1)
    assert form_value(o, unit_vector(o, 0), unit_vector(o, 0)) == 0
    assert form_value(o, unit_vector(o, 0), unit_vector(o, 1)) == 1
    with pytest.raises(ValueError):
        form_value(s, (1, 0, 0), e1)


def test_unitary_form_conjugates_right_argument():
    u = space_config("unitary", 4, 1)
    fld = u.field
    omega = 2  # generator of F4
    x = (omega, 0)
    y = (0, omega)
    # x H conj(y)^T = omega * conj(omega) = omega^3 = 1
    assert form_value(u, x, y) == fld.mul(omega, fld.conj(omega)) == 1


@pytest.mark.parametrize("key", GRID + (("symplectic", 4, 2), ("orthogonal", 3, 3)),
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_form_values_match_form_value(key):
    """form_values over stacks equals form_value pair by pair, on random
    pairs and on every pair of unit vectors (the form's own entries)."""
    cfg = space_config(*key)
    rng = np.random.default_rng(7)
    X, Y = rng.integers(0, cfg.q, size=(2, 200, cfg.dim))
    got = form_values(cfg, X, Y)
    assert got.dtype == np.int64
    assert got.tolist() == [form_value(cfg, tuple(x), tuple(y))
                            for x, y in zip(X.tolist(), Y.tolist())]
    eye = np.eye(cfg.dim, dtype=np.int64)
    assert form_values(cfg, eye[:, None, :], eye[None]).tolist() == [list(r) for r in cfg.form]


def test_canonicalize_row_space_invariance():
    cfg = space_config("symplectic", 2, 2)
    rows = [(1, 1, 0, 0), (0, 1, 0, 0)]
    a = canonicalize(cfg, rows)
    b = canonicalize(cfg, [rows[1], rows[0]])
    c = canonicalize(cfg, [rows[0], (1, 0, 0, 0)])
    assert a == b == c
    assert a.basis == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert canonicalize(cfg, [(0, 0, 0, 0)]).dim == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_canonicalize_invariant_under_row_operations(q, data):
    cfg = space_config("symplectic", q, 1)
    fld = cfg.field
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * 2), min_size=1, max_size=3))
    sub = canonicalize(cfg, rows)
    # scale a row and add it to another; the row space is unchanged
    scaled = [list(r) for r in rows]
    c = data.draw(st.integers(1, q - 1))
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows) - 1))
    scaled[i] = [fld.add(a, fld.mul(c, b)) for a, b in zip(scaled[i], scaled[j])] \
        if i != j else [fld.mul(c, a) for a in scaled[i]]
    assert canonicalize(cfg, scaled) == sub


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(1, 2), st.data())
def test_syndrome_key_encodes_reduce_mod(q, nu, data):
    """The key of v is the base-q number of reduce_mod(sub, v) read at the
    free columns, for random subspaces of every dimension; the tables make
    it exact for q = 4, 8 and 9 as for prime q."""
    cfg = space_config("symplectic", q, nu)
    vec = st.lists(st.integers(0, q - 1), min_size=cfg.dim, max_size=cfg.dim)
    subs = [canonicalize(cfg, data.draw(st.lists(vec, min_size=k, max_size=k)))
            for k in range(cfg.dim + 1)]
    vectors = data.draw(st.lists(vec, min_size=1, max_size=6))
    for sub in subs:
        free = [j for j in range(cfg.dim) if j not in sub.pivots]
        want = []
        for v in vectors:
            reduced = reduce_mod(cfg.field, sub, tuple(v))
            key = 0
            for j in free:
                key = key * q + reduced[j]
            want.append(key)
        got = syndrome_keys(cfg, subspace_checks(cfg, [sub]), vectors)
        assert got.dtype == np.int64 and got.tolist() == [want]


def test_syndrome_keys_stack_and_containment():
    """A stack of checks against per-check vectors matches one check at a
    time, the representatives of coset_representatives count 0, 1, ...,
    and subspaces_contain agrees with contains_vector on every basis row."""
    from clflats.flats import coset_representatives
    from clflats.geometry import contains_subspace
    cfg = space_config("unitary", 4, 2)
    dirs = enumerate_isotropic(cfg, 2)
    checks = subspace_checks(cfg, dirs)
    reps = np.array([coset_representatives(cfg, d) for d in dirs])
    keys = syndrome_keys(cfg, checks, reps)
    assert (keys == np.arange(cfg.q**cfg.nu)).all()
    points = point_array(cfg)
    assert points.tolist() == [list(v) for v in all_vectors(cfg)]
    shared = syndrome_keys(cfg, checks[:5], points)
    assert (shared == [syndrome_keys(cfg, c[None], points)[0] for c in checks[:5]]).all()
    lines = enumerate_isotropic(cfg, 1)
    got = subspaces_contain(cfg, dirs, lines)
    assert (got == [[contains_subspace(cfg.field, d, ln) for ln in lines] for d in dirs]).all()
    assert got.sum(axis=1).tolist() == [cfg.q + 1] * len(dirs)


def _seeded_stack(fld, rng, count: int, r: int, c: int) -> np.ndarray:
    """count (r, c) matrices over the field: a third random, a third of
    rank below r (random combinations of fewer rows), a third with zero
    and repeated rows; plus the zero matrix."""
    q = fld.q
    stack = rng.integers(0, q, (count, r, c))
    third = count // 3
    for s in range(third, 2 * third):
        k = int(rng.integers(0, r))
        coeffs, rows = rng.integers(0, q, (r, k)), rng.integers(0, q, (k, c))
        combo = np.zeros((r, c), dtype=np.int64)
        for t in range(k):
            combo = fld.add_flat[combo * q + fld.mul_flat[coeffs[:, t, None] * q + rows[t]]]
        stack[s] = combo
    for s in range(2 * third, count):
        stack[s, rng.integers(0, r)] = 0
        stack[s, rng.integers(0, r)] = stack[s, rng.integers(0, r)]
    return np.concatenate([stack, np.zeros((1, r, c), dtype=np.int64)])


@pytest.mark.parametrize("q", sorted({key[1] for key in STANDARD_GRID}))
def test_rref_stack_matches_rref(q):
    """Each matrix of a seeded stack reduces to rref's rows, with zero rows
    past its rank."""
    fld = space_config("symplectic", q, 1).field
    rng = np.random.default_rng(q)
    for r, c in ((1, 3), (3, 6), (4, 4), (5, 3), (4, 8)):
        stack = _seeded_stack(fld, rng, 30, r, c)
        reduced, ranks = rref_stack(fld, stack)
        assert reduced.shape == stack.shape and ranks.shape == (len(stack),)
        for matrix, got, rank in zip(stack.tolist(), reduced, ranks):
            rows, _ = rref(fld, matrix)
            assert rank == len(rows)
            assert got[:rank].tolist() == [list(row) for row in rows] and not got[rank:].any()
        assert set(ranks.tolist()) >= {0, min(r, c)}


@pytest.mark.parametrize("key", STANDARD_GRID, ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_gram_ranks_match_gram_rank(key):
    """The batched Gram rank of each basis of a seeded stack is the rank of
    its form_value Gram matrix, which is gram_rank of the subspace it spans."""
    cfg = space_config(*key)
    rng = np.random.default_rng(len(GRID) * cfg.q + cfg.nu)
    for k in range(1, cfg.dim + 1):
        stack = _seeded_stack(cfg.field, rng, 12, k, cfg.dim)
        got = gram_ranks(cfg, stack)
        for rows, rank in zip(stack.tolist(), got):
            gram = [[form_value(cfg, x, y) for y in rows] for x in rows]
            assert rank == len(rref(cfg.field, gram)[0]) == gram_rank(cfg, canonicalize(cfg, rows))


def test_subspace_types():
    cfg = space_config("symplectic", 2, 2)
    assert subspace_type(cfg, canonicalize(cfg, [])) == (0, 0)
    e = lambda j: unit_vector(cfg, j)
    assert subspace_type(cfg, canonicalize(cfg, [e(0), e(1)])) == (2, 0)
    assert subspace_type(cfg, canonicalize(cfg, [e(0), e(2)])) == (2, 2)


@pytest.mark.parametrize("case,q,nu", GRID)
def test_maximal_isotropic_count(case, q, nu):
    cfg = space_config(case, q, nu)
    subs = enumerate_isotropic(cfg, nu)
    expected = 1
    for t in range(1, nu + 1):
        expected *= e_power(cfg, 2 * t + cfg.e2 - 2) + 1
    assert len(subs) == expected
    assert len(set(subs)) == len(subs)
    assert all(subspace_type(cfg, s) == (nu, 0) for s in subs)


@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 2), ("symplectic", 3, 2),
                                       ("unitary", 4, 1), ("unitary", 4, 2),
                                       ("orthogonal", 3, 2)])
def test_enumeration_matches_bruteforce(case, q, nu):
    cfg = space_config(case, q, nu)
    for m in (1, 2):
        if m > nu:
            continue
        assert enumerate_isotropic(cfg, m) == isotropic_brute_force(cfg, m)


@pytest.mark.parametrize("key", GRID + (("symplectic", 4, 2), ("orthogonal", 3, 3)),
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_orderly_generation_matches_oracle(key):
    """Every level, basis and pivots, element for element, equals the
    perp-and-deduplicate generator the orderly generation replaced."""
    cfg = space_config(*key)
    for m in range(cfg.nu + 1):
        got = enumerate_isotropic(cfg, m)
        want = isotropic_oracle(cfg, m)
        assert [(s.basis, s.pivots) for s in got] == [(s.basis, s.pivots) for s in want]
        assert all(type(c) is int for s in got[:3] for row in s.basis for c in row)


@pytest.mark.parametrize("key", [("symplectic", 2, 3), ("unitary", 4, 2), ("orthogonal", 3, 3)],
                         ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_generation_in_small_passes_is_the_same(key, monkeypatch):
    """Pairing the bases with the last rows a few pairs at a time builds
    the same arrays as the default passes, at every level."""
    cfg = space_config(*key)
    want = [geometry._isotropic_rref(cfg, m) for m in range(cfg.nu + 1)]
    monkeypatch.setattr(geometry, "GENERATION_PAIRS", 7)
    for m, (bases, pivots) in enumerate(want):
        got_bases, got_pivots = geometry._isotropic_rref.__wrapped__(cfg, m)
        assert np.array_equal(got_bases, bases) and np.array_equal(got_pivots, pivots)
        assert not (got_bases.flags.writeable or got_pivots.flags.writeable)


def test_admission_precedes_generation(monkeypatch):
    """With the bound below one level's closed-form count, enumeration
    raises before the generator builds any level: at the top level, and
    at a lower level whose count is larger than the top's."""
    cfg = space_config("symplectic", 2, 3)  # 63, 315 and 135 subspaces at m = 1, 2, 3

    def generator(config, m):
        raise AssertionError("a level was generated before admission")

    monkeypatch.setattr(geometry, "_isotropic_rref", generator)
    for bound, m, count in ((100, 3, 135), (200, 2, 315)):
        monkeypatch.setattr(geometry, "ISOTROPIC_ENUM_BOUND", bound)
        with pytest.raises(ValueError, match=rf"^isotropic subspace enumeration bound "
                                             rf"exceeded: {count} type-\({m},0\) "
                                             rf"subspaces > {bound}$"):
            enumerate_isotropic.__wrapped__(cfg, 3)


def test_unitary_isotropic_lines():
    cfg = space_config("unitary", 4, 1)
    iso_vectors = [v for v in all_vectors(cfg) if any(v) and is_isotropic(cfg, v)]
    assert len(iso_vectors) == 9
    assert len(enumerate_isotropic(cfg, 1)) == 3


def test_enumerate_isotropic_range_check():
    cfg = space_config("symplectic", 2, 2)
    with pytest.raises(ValueError):
        enumerate_isotropic(cfg, 3)


@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 2), ("orthogonal", 3, 2),
                                       ("unitary", 4, 1)])
def test_random_isometry_properties(case, q, nu):
    cfg = space_config(case, q, nu)
    assert random_isometry(cfg, 5) == random_isometry(cfg, 5)
    assert random_isometry(cfg, 5) != random_isometry(cfg, 6)
    maxes = enumerate_isotropic(cfg, nu)
    index = set(maxes)
    for seed in range(50):
        iso = random_isometry(cfg, seed)
        for i in range(cfg.dim):
            for j in range(cfg.dim):
                assert form_value(cfg, iso.T[i], iso.T[j]) == cfg.form[i][j]
        images = {iso.apply_subspace(cfg, s) for s in maxes}
        assert images == index  # induced permutation of the maximal isotropics


@pytest.mark.parametrize("key", STANDARD_GRID, ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_random_isometry_matches_the_oracle(key):
    """The form_values filters draw the same T and v as the per-vector
    scan, for seeds 0-7."""
    cfg = space_config(*key)
    for seed in range(8):
        iso, want = random_isometry(cfg, seed), random_isometry_oracle(cfg, seed)
        assert (iso.T, iso.v) == (want.T, want.v)
        assert all(type(c) is int for row in iso.T + (iso.v,) for c in row)


def test_isometry_preserves_type_many_seeds(s22):
    sub = enumerate_isotropic(s22, 2)[0]
    for seed in range(100):
        img = random_isometry(s22, seed).apply_subspace(s22, sub)
        assert subspace_type(s22, img) == (2, 0)


@pytest.mark.parametrize("case,q,nu", [("symplectic", 2, 1), ("symplectic", 2, 2),
                                       ("symplectic", 3, 1)])
def test_point_graph_symplectic_complete(case, q, nu):
    cfg = space_config(case, q, nu)
    A = point_graph(cfg)
    n = q ** (2 * nu)
    assert (A == 1 - np.eye(n, dtype=np.int64)).all()


@pytest.mark.parametrize("case,q,nu,params", [
    ("orthogonal", 3, 1, (9, 4, 1, 2)),
    ("unitary", 4, 1, (16, 9, 4, 6)),
])
def test_point_graph_srg_parameters(case, q, nu, params):
    cfg = space_config(case, q, nu)
    A = point_graph(cfg)
    n, k, lam, mu = params
    assert A.shape == (n, n)
    assert set(A.sum(axis=1).tolist()) == {k}
    A2 = A @ A
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            assert A2[x, y] == (lam if A[x, y] else mu)


def test_point_graph_degree_closed_form():
    for case, q, nu in GRID:
        cfg = space_config(case, q, nu)
        if cfg.num_points > 300:
            continue
        A = point_graph(cfg)
        if case == "symplectic":
            expected = q ** (2 * nu) - 1
        else:
            expected = (q**nu - 1) * (e_power(cfg, 2 * nu + cfg.e2 - 2) + 1)
        assert set(A.sum(axis=1).tolist()) == {expected}


def pairwise_point_graph(cfg):
    """The definition, one pair at a time: x_i ~ x_j iff x_j - x_i is
    nonzero isotropic."""
    n = cfg.num_points
    pts = all_vectors(cfg)
    iso = np.zeros(n, dtype=np.int64)
    for d in pts:
        if any(d) and is_isotropic(cfg, d):
            iso[point_index(cfg, d)] = 1
    A = np.zeros((n, n), dtype=np.int64)
    for i, x in enumerate(pts):
        for j in range(i + 1, n):
            if iso[point_index(cfg, vec_sub(cfg.field, pts[j], x))]:
                A[i, j] = A[j, i] = 1
    return A


@pytest.mark.parametrize("key", GRID, ids=lambda k: f"{k[0][:4]}-q{k[1]}-nu{k[2]}")
def test_point_graph_matches_pairwise_definition(key):
    cfg = space_config(*key)
    A = point_graph(cfg)
    assert A.dtype == np.int64 and not A.flags.writeable
    assert np.array_equal(A, pairwise_point_graph(cfg))


def test_point_graph_bound():
    cfg = space_config("symplectic", 7, 3)
    assert cfg.num_points > POINT_GRAPH_BOUND
    with pytest.raises(ValueError):
        point_graph(cfg)

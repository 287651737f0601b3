"""Exact linear algebra: GF(p) ranks, the certified null basis, guarded products."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from clflats import exact
from clflats.exact import (
    ELIMINATION_ROWS,
    MODULAR_PRIMES,
    certified_null_basis,
    check_null_basis,
    int_matmul,
    modular_echelon,
)
from conftest import in_row_span, integer_nullspace, rational_nullspace, rational_rank


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_rank_against_modular_primes():
    rng = random.Random(20240817)
    for _ in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        a = _random_matrix(rng, m, n)
        r = rational_rank(a)
        assert all(len(modular_echelon(a, p)[1]) == r for p in MODULAR_PRIMES)


def test_nullspace_properties():
    """The Fraction oracle of the tests: a basis of the nullspace, by rank."""
    assert rational_nullspace([[1, 0], [0, 1]]) == []
    assert rational_nullspace([[0, 0]]) == [(1, 0), (0, 1)]
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        a = _random_matrix(rng, m, n, -5, 5)
        basis = rational_nullspace(a)
        assert all(len(basis) == n - len(modular_echelon(a, p)[1]) for p in MODULAR_PRIMES)
        for v in basis:
            assert all(sum(Fraction(c) * x for c, x in zip(row, v)) == 0 for row in a)
        scaled = integer_nullspace(a)
        assert scaled.shape == (len(basis), n)
        if basis:
            pivots = modular_echelon(scaled.astype(np.int64), MODULAR_PRIMES[0])[1]
            assert len(pivots) == len(basis)
        assert not int_matmul(np.array(a, dtype=np.int64), scaled.T).any()
        for v, w in zip(basis, scaled.tolist()):
            assert [x * math.lcm(*(y.denominator for y in v)) for x in v] == w


def test_no_solution_iff_rank_jump():
    """cl.image_certificate finds a witness y with M^T y = chi exactly when
    appending chi as a column leaves the rank of M^T unchanged (ranks from
    the Fraction nullspace oracle)."""
    from clflats.cl import FlatSet, construct_pencil, image_certificate, random_subset_matrix
    from clflats.flats import incidence_matrix
    from clflats.geometry import space_config, zero_vector

    for key in (("symplectic", 2, 1), ("orthogonal", 3, 1), ("unitary", 4, 1),
                ("symplectic", 2, 2)):
        cfg = space_config(*key)
        MT = incidence_matrix(cfg).matrix.T
        base = rational_rank(MT)
        cols = random_subset_matrix(cfg, 6, seed=99)
        sets = [FlatSet(cfg, tuple(int(i) for i in np.flatnonzero(c))) for c in cols.T]
        pencil = construct_pencil(cfg, zero_vector(cfg))
        sets += [pencil, FlatSet(cfg, pencil.ids[1:]), FlatSet(cfg, (0,))]
        jumps = []
        for fs in sets:
            jump = rational_rank(np.hstack([MT, fs.chi()[:, None]])) != base
            assert (image_certificate(fs) is None) == jump, (key, fs.ids)
            jumps.append(jump)
        assert not jumps[-3] and jumps[-2] and jumps[-1]


def test_modular_rank_int64_input_and_stop_at():
    rng = random.Random(13)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), -9, 9)
        r = rational_rank(a)
        arr = np.array(a, dtype=np.int64)
        assert len(modular_echelon(arr, MODULAR_PRIMES[0])[1]) == r
        for stop in range(0, r + 2):
            assert len(modular_echelon(arr, MODULAR_PRIMES[1], stop_at=stop)[1]) == min(r, stop)
    assert len(modular_echelon(np.zeros((0, 3), dtype=np.int64), MODULAR_PRIMES[0])[1]) == 0
    assert len(modular_echelon([[3, 6], [1, 2]], 5)[1]) == 1


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8])
def test_modular_rank_narrow_integer_input(dtype):
    """Narrow integer types cannot hold p; they give the int64 rank."""
    rng = np.random.default_rng(7)
    deficient = rng.integers(0, 2, (9, 4)) @ rng.integers(0, 3, (4, 12))  # rank <= 4
    for a in (np.eye(3, dtype=np.int64), deficient):
        for p in MODULAR_PRIMES:
            want = len(modular_echelon(a.astype(np.int64), p)[1])
            assert len(modular_echelon(a.astype(dtype), p)[1]) == want
            assert len(modular_echelon(a.astype(dtype), p, stop_at=2)[1]) == min(want, 2)
    pivots = modular_echelon(deficient.astype(dtype), MODULAR_PRIMES[0])[1]
    assert len(pivots) == rational_rank(deficient) == 4


def test_modular_echelon_first_come_rows():
    rows = np.array([[1, 1, 0], [0, 0, 0], [2, 2, 0], [0, 1, -1], [1, 0, 1], [0, 0, 1]],
                    dtype=np.int64)
    p = MODULAR_PRIMES[0]
    E, pivots, kept = modular_echelon(rows, p)
    assert kept == [0, 3, 5] and pivots == [0, 1, 2]
    assert E.tolist() == [[1, 1, 0], [0, 1, p - 1], [0, 0, 1]]
    assert modular_echelon(rows, p, stop_at=2)[2] == [0, 3]


def _check_echelon(a: np.ndarray, p: int) -> None:
    """modular_echelon agrees with the rational rank and returns a consistent echelon form."""
    E, pivots, kept = modular_echelon(a, p)
    r = rational_rank(a)
    assert len(pivots) == len(kept) == E.shape[0] == r
    assert kept == sorted(kept) and rational_rank(a[kept]) == r  # pivot rows independent
    assert E.dtype == np.int64 and ((0 <= E) & (E < p)).all()
    T = E[:, pivots]
    assert (np.triu(T) == T).all() and (np.diagonal(T) == 1).all()
    # E spans the same GF(p) row space as the kept rows
    assert len(modular_echelon(np.vstack([a[kept].astype(np.int64), E]), p)[1]) == r
    # first come: a row left out depends on the kept rows before it
    for i in range(len(a)):
        earlier = [k for k in kept if k < i]
        if i not in kept:
            assert rational_rank(a[earlier + [i]]) == len(earlier)


def test_modular_echelon_matches_rational_rank():
    rng = np.random.default_rng(20261018)
    p = MODULAR_PRIMES[0]
    for _ in range(25):
        m, n = rng.integers(1, 10, size=2)
        _check_echelon(rng.integers(-9, 10, (m, n)), p)
    for _ in range(10):  # rank-deficient
        k = int(rng.integers(1, 4))
        _check_echelon(rng.integers(-3, 4, (9, k)) @ rng.integers(-3, 4, (k, 11)), p)
    zero_cols = rng.integers(-2, 3, (7, 8))
    zero_cols[:, [0, 3, 7]] = 0
    _check_echelon(zero_cols, p)
    _check_echelon(np.zeros((4, 5), dtype=np.int64), p)
    stack = rng.integers(-1, 2, (ELIMINATION_ROWS + 70, 12)).astype(np.int8)  # two row blocks
    deficient = (rng.integers(0, 2, (2 * ELIMINATION_ROWS + 5, 5))
                 @ rng.integers(0, 2, (5, 30))).astype(np.int8)  # three blocks, rank <= 5
    for a in (stack, deficient, rng.integers(-1, 2, (20, 300)).astype(np.int8)):
        _check_echelon(a, p)
        want = rational_rank(a)
        assert len(modular_echelon(a, p, stop_at=want - 1)[1]) == want - 1


def test_modular_echelon_drops_no_row_across_blocks():
    """Each block is reduced by the pivot rows of the blocks before it."""
    p = MODULAR_PRIMES[0]
    base = np.eye(6, dtype=np.int64)
    a = np.vstack([base[:3], np.zeros((ELIMINATION_ROWS - 3, 6), dtype=np.int64),
                   base[:3] + base[3:], base[:3]])
    E, pivots, kept = modular_echelon(a, p)
    assert kept == [0, 1, 2, ELIMINATION_ROWS, ELIMINATION_ROWS + 1, ELIMINATION_ROWS + 2]
    assert pivots == [0, 1, 2, 3, 4, 5] and (E == np.eye(6, dtype=np.int64)).all()


def test_image_solver_null_rows_stay_int64():
    from clflats import flats
    from clflats.flats import enumerate_flats, incidence_rank_closed_form
    from clflats.geometry import space_config

    cfg = space_config("symplectic", 3, 2)
    n = len(enumerate_flats(cfg, cfg.nu))
    null = flats.incidence_kernel(cfg).matrix()
    assert null.dtype == np.int64 and not null.flags.writeable
    assert null.shape == (n - incidence_rank_closed_form(cfg), n)


def _small_rref_matrix(rng, m, r, n):
    """An m x n integer matrix of rank r whose RREF has small fractions."""
    R = np.hstack([np.eye(r, dtype=np.int64), rng.integers(-1, 2, (r, n - r))])
    R = R[:, rng.permutation(n)]
    while True:
        L = rng.integers(-2, 3, (m, r))
        if rational_rank(L) == r:
            return L @ R


def test_certified_null_basis_matches_oracle():
    rng = np.random.default_rng(5)
    p = MODULAR_PRIMES[0]
    cases = [_small_rref_matrix(rng, 6, 3, 9), _small_rref_matrix(rng, 4, 4, 4),
             _small_rref_matrix(rng, 2 * ELIMINATION_ROWS + 9, 7, 20),  # three row blocks
             np.zeros((3, 5), dtype=np.int64), np.ones((ELIMINATION_ROWS + 1, 4), dtype=np.int64)]
    for a in cases:
        N = certified_null_basis(a).matrix()
        oracle = integer_nullspace(a)
        assert N.dtype == np.int64 and N.shape == oracle.shape
        assert not int_matmul(a, N.T).any()
        free = np.setdiff1d(np.arange(a.shape[1]), modular_echelon(a, p)[1])
        assert in_row_span(N, free, oracle)


def test_null_basis_split_is_read_only_and_round_trips():
    """Every NullBasis array is read-only and the basis is frozen; free and
    the pivots, ascending, partition the columns, and matrix() is the
    split: N[:, free] = diag(scale), N[:, pivots] = block = block_float.
    The last case's GF(p) pivots come out as [1, 0], not in column order."""
    rng = np.random.default_rng(7)
    late_pivot = np.array([[0, 1, 1]] * ELIMINATION_ROWS + [[1, 0, 2]], dtype=np.int64)
    cases = [_small_rref_matrix(rng, 6, 3, 9), _small_rref_matrix(rng, 2 * ELIMINATION_ROWS + 9, 7, 20),
             np.zeros((3, 5), dtype=np.int64), np.eye(4, dtype=np.int64), late_pivot]
    assert modular_echelon(late_pivot, MODULAR_PRIMES[0])[1] == [1, 0]
    for a in cases:
        basis = certified_null_basis(a)
        N = basis.matrix()
        arrays = (basis.free, basis.pivots, basis.scale, basis.block, basis.block_float, N)
        assert not any(x.flags.writeable for x in arrays)
        with pytest.raises(ValueError):
            basis.block[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.block = basis.block_float
        pivots = modular_echelon(a, MODULAR_PRIMES[0])[1]
        assert basis.pivots.tolist() == sorted(pivots)
        assert sorted(basis.free.tolist() + pivots) == list(range(a.shape[1]))
        assert N.dtype == np.int64 and N.shape == (len(basis.free), a.shape[1])
        assert (N[:, basis.free] == np.diag(basis.scale)).all()
        assert (N[:, basis.pivots] == basis.block).all()
        assert basis.block_float.dtype == np.float64 and (basis.block_float == basis.block).all()
        assert N.shape == integer_nullspace(a).shape
        assert in_row_span(N, basis.free, integer_nullspace(a))
    assert certified_null_basis(late_pivot).matrix().tolist() == [[-2, -1, 1]]


def test_null_basis_reconstruction_failure_is_an_internal_error():
    # the RREF is [1, 100019/100003]: no fraction with both parts below sqrt(p/2)
    with pytest.raises(AssertionError):
        certified_null_basis(np.array([[100003, 100019]], dtype=np.int64))


def test_null_basis_certificate_rejects_any_single_change():
    from clflats.flats import incidence_matrix
    from clflats.geometry import space_config

    M = incidence_matrix(space_config("orthogonal", 3, 2)).matrix
    N = certified_null_basis(M).matrix()
    free = np.setdiff1d(np.arange(M.shape[1]), modular_echelon(M, MODULAR_PRIMES[0])[1])
    check_null_basis(M, N, free)
    rng = np.random.default_rng(11)
    spots = [(0, int(free[0])), (0, int(free[1])), (3, int(free[3]))]
    spots += [(int(i), int(j)) for i, j in zip(rng.integers(0, N.shape[0], 12),
                                                rng.integers(0, N.shape[1], 12))]
    for i, j in spots:
        for delta in (1, -1, -int(N[i, j])):
            if delta == 0:
                continue
            bad = N.copy()
            bad[i, j] += delta
            with pytest.raises(AssertionError):
                check_null_basis(M, bad, free)
    with pytest.raises(AssertionError):
        check_null_basis(M, N[1:], free)
    # rows in ker M with a nonzero diagonal, but two equal rows: rank too small
    twin = N.copy()
    twin[0] = twin[1] = N[0] + N[1]
    assert not int_matmul(M, twin.T).any() and np.diagonal(twin[:, free]).all()
    with pytest.raises(AssertionError):
        check_null_basis(M, twin, free)


def test_int_matmul_fast_path_matches_object_path():
    rng = random.Random(3)
    a = np.array(_random_matrix(rng, 4, 6, -9, 9), dtype=np.int64)
    b = np.array(_random_matrix(rng, 6, 3, -9, 9), dtype=np.int64)
    fast = int_matmul(a, b)
    slow = np.dot(a.astype(object), b.astype(object))
    assert (fast == slow).all()


def test_int_matmul_overflow_fallback_is_exact():
    big = 2**40
    a = np.array([[big, big], [1, -1]], dtype=object)
    b = np.array([[big, 1], [big, -1]], dtype=object)
    out = int_matmul(a, b)
    assert out[0, 0] == 2 * big * big  # exceeds int64
    assert out[0, 1] == 0
    assert out[1, 0] == 0 and out[1, 1] == 2


def _object_product(a, b):
    return np.dot(a.astype(object), b.astype(object))


def _float_calls(monkeypatch):
    """Record each product the float tier takes."""
    calls = []
    real = exact._float_product

    def spy(a, b):
        calls.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(exact, "_float_product", spy)
    return calls


def test_int_matmul_float_tier_is_exact_just_under_2_53(monkeypatch):
    calls = _float_calls(monkeypatch)
    rng = np.random.default_rng(5)
    for inner in (1, 3, 64):
        amax = 2**26
        bmax = (2**53 - 1) // (amax * inner)
        for a, b in ((np.full((2, inner), amax), np.full((inner, 3), bmax)),
                     (rng.integers(-amax, amax, (5, inner), endpoint=True),
                      rng.integers(-bmax, bmax, (inner, 4), endpoint=True))):
            a[0, 0], b[0, 0] = -amax, bmax
            got = int_matmul(a, b)
            assert got.dtype == np.int64
            assert (got == _object_product(a, b)).all()
    assert len(calls) == 6


def test_int_matmul_tiers_past_the_float_bound_are_exact(monkeypatch):
    calls = _float_calls(monkeypatch)
    odd = 2**27 + 1  # odd**2 needs 55 bits, so float64 would round it
    for a, b, dtype in (
            (np.array([[2**26]]), np.array([[2**27]]), np.int64),   # bound exactly 2^53
            (np.array([[odd]]), np.array([[odd]]), np.int64),
            (np.array([[odd, odd]]), np.array([[odd], [-1]]), np.int64),
            (np.array([[2**31]]), np.array([[2**31]]), object),     # bound exactly 2^62
            (np.array([[2**31, 2**31]]), np.array([[2**31], [2**31]]), object),  # 2^63
            (np.array([[-2**63]], dtype=np.int64), np.array([[1]]), object)):
        got = int_matmul(a, b)
        assert got.dtype == dtype
        assert (got == _object_product(a, b)).all()
    assert calls == []
    assert int_matmul(np.array([[odd]]), np.array([[odd]]))[0, 0] == odd * odd


def test_int_matmul_pins_and_restores_blas_threads():
    threads = exact._blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exports no thread-count control")
    get, put = threads
    seen = []

    class Spy(np.ndarray):
        def __matmul__(self, other):
            seen.append(get())
            return np.ndarray.__matmul__(self, other)

    old = get()
    try:
        put(2)
        before = get()
        a = np.arange(12, dtype=np.int64).reshape(3, 4).view(Spy)
        assert (int_matmul(a, np.ones((4, 2), dtype=np.int64)) == a.sum(axis=1)[:, None]).all()
        assert seen == [1] and get() == before
        with pytest.raises(ValueError):
            int_matmul(a, np.ones((3, 2), dtype=np.int64))
        assert get() == before
    finally:
        put(old)


def test_int_matmul_rescans_writeable_operands():
    odd = 2**27 + 1
    a = np.ones((3, 4), dtype=np.int64)
    b = np.ones((4, 2), dtype=np.int64)
    frozen = a.view()
    frozen.flags.writeable = False  # its base stays writeable
    assert (int_matmul(a, b) == 4).all() and (int_matmul(frozen, b) == 4).all()
    a[0, 0] = b[0, 0] = odd
    want = _object_product(a, b)
    assert ((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) != want).any()
    assert (int_matmul(a, b) == want).all()
    assert (int_matmul(frozen, b) == want).all()


def test_int_matmul_new_read_only_array_at_a_reused_id():
    odd = 2**27 + 1
    b = np.full((4, 1), odd, dtype=np.int64)
    for _ in range(20):
        small = np.ones((3, 4), dtype=np.int64)
        small.flags.writeable = False
        assert (int_matmul(small, b) == 4 * odd).all()
        del small
        big = np.full((3, 4), odd, dtype=np.int64)
        big.flags.writeable = False
        assert (int_matmul(big, b) == 4 * odd * odd).all()
        assert (int_matmul(big.T, b[:3]) == 3 * odd * odd).all()


def test_sort_based_unique_matches_np_unique():
    """sorted_unique and the inverse behind certified_null_basis give
    np.unique's values, order and inverse; the null basis's free columns
    are the columns off the GF(p) pivots."""
    rng = np.random.default_rng(11)
    arrays = [np.array([], dtype=np.int64), np.array([[7]]), rng.integers(-4, 5, (6, 9)),
              rng.integers(0, 10**9, 40), rng.integers(-3, 3, (5, 4)).astype(np.int8)]
    for a in arrays:
        values, where = exact._unique_inverse(a)
        want, want_where = np.unique(a, return_inverse=True)
        assert values.dtype == want.dtype and (values == want).all()
        assert (where == want_where.reshape(-1)).all()
        assert (exact.sorted_unique(a) == want).all()
    for _ in range(20):
        M = rng.integers(-2, 3, (rng.integers(1, 6), rng.integers(1, 8)))
        basis = certified_null_basis(M)
        N, free = basis.matrix(), basis.free
        pivots = modular_echelon(M, MODULAR_PRIMES[0])[1]
        assert (free == np.setdiff1d(np.arange(M.shape[1]), pivots)).all()
        assert (N == certified_null_basis(M).matrix()).all()

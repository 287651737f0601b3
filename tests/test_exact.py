"""Exact linear algebra: rank, solve, nullspace, guarded products."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clflats import exact
from clflats.exact import (
    ELIMINATION_ROWS,
    EchelonSolver,
    MODULAR_PRIMES,
    certified_null_basis,
    check_null_basis,
    int_echelon,
    int_matmul,
    modular_echelon,
    modular_rank,
    nullspace,
    nullspace_int,
    rank,
    solve,
)
from conftest import in_row_span


def test_rank_basics():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[int(i == j) for j in range(5)] for i in range(5)]) == 5
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]) == 2
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]) == 1
    assert rank([[1, 2], [2, 4]]) == 1


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_rank_against_modular_primes():
    rng = random.Random(20240817)
    for _ in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        a = _random_matrix(rng, m, n)
        r = rank(a)
        assert all(modular_rank(a, p) == r for p in MODULAR_PRIMES)


def test_rank_transpose_invariance():
    rng = random.Random(7)
    for _ in range(60):
        a = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rank(a) == rank(list(map(list, zip(*a))))


def test_solve_and_certify():
    a = [[1, 2, 3], [4, 5, 6]]
    y = solve(a, [1, 1])
    assert y is not None
    assert all(sum(Fraction(c) * v for c, v in zip(row, y)) == b
               for row, b in zip(a, [1, 1]))
    assert solve([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None
    assert solve([[1, 1], [2, 2]], [0, 0]) == (0, 0)


def test_no_solution_iff_rank_jump():
    rng = random.Random(99)
    for _ in range(80):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, m, n, -4, 4)
        b = [rng.randint(-4, 4) for _ in range(m)]
        augmented = [row + [rhs] for row, rhs in zip(a, b)]
        solvable = solve(a, b) is not None
        assert solvable == (rank(augmented) == rank(a))


def test_nullspace_properties():
    assert nullspace([[1, 0], [0, 1]]) == []
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        a = _random_matrix(rng, m, n, -5, 5)
        basis = nullspace(a)
        assert len(basis) == n - rank(a)
        for v in basis:
            assert all(sum(Fraction(c) * x for c, x in zip(row, v)) == 0 for row in a)
        if basis:
            assert rank([list(v) for v in basis]) == len(basis)


def test_nullspace_int_annihilates():
    rng = random.Random(6)
    a = _random_matrix(rng, 5, 8, -3, 3)
    kb = nullspace_int(a)
    prod = int_matmul(kb, np.array(a, dtype=np.int64).T)
    assert not prod.any()


def test_echelon_solver_matches_one_shot():
    rng = random.Random(11)
    a = _random_matrix(rng, 6, 5, -4, 4)
    solver = EchelonSolver(a)
    for _ in range(30):
        b = [rng.randint(-5, 5) for _ in range(6)]
        one_shot = solve(a, b)
        assert solver.solvable(b) == (one_shot is not None)
        got = solver.solve(b)
        if one_shot is None:
            assert got is None
        else:
            assert all(sum(Fraction(c) * v for c, v in zip(row, got)) == rhs
                       for row, rhs in zip(a, b))


def test_solvable_vector_fraction_vector_and_block():
    rng = random.Random(12)
    a = _random_matrix(rng, 7, 4, -4, 4)
    solver = EchelonSolver(a)
    assert solver._null_rows.dtype == np.int64
    cols = [[rng.randint(-5, 5) for _ in range(7)] for _ in range(20)]
    # right-hand sides in the image, so both answers occur
    cols += [[sum(r * y for r, y in zip(row, ys)) for row in a]
             for ys in ([1, 0, 2, -1], [0, 3, 0, 1])]
    expected = [solve(a, b) is not None for b in cols]
    assert [solver.solvable(b) for b in cols] == expected
    assert [solver.solvable(np.array(b)) for b in cols] == expected
    assert [solver.solvable([Fraction(x, 6) for x in b]) for b in cols] == expected
    block = solver.solvable(np.array(cols, dtype=np.int64).T)
    assert block.dtype == bool and block.tolist() == expected
    frac_block = np.array([[Fraction(x, 4) for x in b] for b in cols], dtype=object).T
    assert solver.solvable(frac_block).tolist() == expected
    assert isinstance(solver.solvable(cols[0]), bool)


def test_solvable_full_rank_and_big_null_rows():
    assert EchelonSolver([[1, 0], [0, 1]]).solvable([5, 7])
    big = 2**70
    solver = EchelonSolver([[big], [1]])
    assert solver._null_rows.dtype == object
    assert solver.solvable([big, 1]) and not solver.solvable([1, 1])


def test_modular_rank_int64_input_and_stop_at():
    rng = random.Random(13)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), -9, 9)
        r = rank(a)
        arr = np.array(a, dtype=np.int64)
        assert modular_rank(arr, MODULAR_PRIMES[0]) == r
        for stop in range(0, r + 2):
            assert modular_rank(arr, MODULAR_PRIMES[1], stop_at=stop) == min(r, stop)
    assert modular_rank(np.zeros((0, 3), dtype=np.int64), MODULAR_PRIMES[0]) == 0
    assert modular_rank([[3, 6], [1, 2]], 5) == 1


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8])
def test_modular_rank_narrow_integer_input(dtype):
    """Narrow integer types cannot hold p; they give the int64 rank."""
    rng = np.random.default_rng(7)
    deficient = rng.integers(0, 2, (9, 4)) @ rng.integers(0, 3, (4, 12))  # rank <= 4
    for a in (np.eye(3, dtype=np.int64), deficient):
        for p in MODULAR_PRIMES:
            want = modular_rank(a.astype(np.int64), p)
            assert modular_rank(a.astype(dtype), p) == want
            assert modular_rank(a.astype(dtype), p, stop_at=2) == min(want, 2)
    assert modular_rank(deficient.astype(dtype), MODULAR_PRIMES[0]) == rank(deficient) == 4


def test_modular_echelon_first_come_rows():
    rows = np.array([[1, 1, 0], [0, 0, 0], [2, 2, 0], [0, 1, -1], [1, 0, 1], [0, 0, 1]],
                    dtype=np.int64)
    p = MODULAR_PRIMES[0]
    E, pivots, kept = modular_echelon(rows, p)
    assert kept == [0, 3, 5] and pivots == [0, 1, 2]
    assert E.tolist() == [[1, 1, 0], [0, 1, p - 1], [0, 0, 1]]
    assert modular_echelon(rows, p, stop_at=2)[2] == [0, 3]


def _check_echelon(a: np.ndarray, p: int) -> None:
    """modular_echelon agrees with Bareiss and returns a consistent echelon form."""
    E, pivots, kept = modular_echelon(a, p)
    r = rank(a.tolist())
    assert len(pivots) == len(kept) == E.shape[0] == r
    assert kept == sorted(kept) and rank(a[kept].tolist()) == r  # pivot rows independent
    assert E.dtype == np.int64 and ((0 <= E) & (E < p)).all()
    T = E[:, pivots]
    assert (np.triu(T) == T).all() and (np.diagonal(T) == 1).all()
    # E spans the same GF(p) row space as the kept rows
    assert modular_rank(np.vstack([a[kept].astype(np.int64), E]), p) == r
    # first come: a row left out depends on the kept rows before it
    for i in range(len(a)):
        earlier = [k for k in kept if k < i]
        if i not in kept:
            assert rank(a[earlier + [i]].tolist()) == len(earlier)


def test_modular_echelon_matches_bareiss():
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
        want = rank(a.tolist())
        assert modular_rank(a, p, stop_at=want - 1) == want - 1


def test_modular_echelon_drops_no_row_across_blocks():
    """Each block is reduced by the pivot rows of the blocks before it."""
    p = MODULAR_PRIMES[0]
    base = np.eye(6, dtype=np.int64)
    a = np.vstack([base[:3], np.zeros((ELIMINATION_ROWS - 3, 6), dtype=np.int64),
                   base[:3] + base[3:], base[:3]])
    E, pivots, kept = modular_echelon(a, p)
    assert kept == [0, 1, 2, ELIMINATION_ROWS, ELIMINATION_ROWS + 1, ELIMINATION_ROWS + 2]
    assert pivots == [0, 1, 2, 3, 4, 5] and (E == np.eye(6, dtype=np.int64)).all()


def _echelon_oracle(rows, track=True):
    """The row-by-row big-integer elimination that int_echelon vectorises."""
    n = len(rows)
    work = [list(r) for r in rows]
    tr = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track else None
    ncols = len(work[0]) if work else 0
    r = 0
    pivots = []
    for c in range(ncols):
        pick = None
        for i in range(r, n):
            v = work[i][c]
            if v and (pick is None or abs(v) < abs(work[pick][c])):
                pick = i
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        if track:
            tr[r], tr[pick] = tr[pick], tr[r]
        pv = work[r][c]
        for i in range(r + 1, n):
            f = work[i][c]
            if f:
                work[i] = [pv * a - f * b for a, b in zip(work[i], work[r])]
                if track:
                    tr[i] = [pv * a - f * b for a, b in zip(tr[i], tr[r])]
                g = 0
                for x in work[i]:
                    g = gcd(g, x)
                for x in (tr[i] if track else ()):
                    g = gcd(g, x)
                if g > 1:
                    work[i] = [x // g for x in work[i]]
                    if track:
                        tr[i] = [x // g for x in tr[i]]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return work[:r], (tr if track else None), pivots


@pytest.mark.parametrize("track", [True, False])
def test_int_echelon_matches_oracle(track):
    rng = random.Random(20261018)
    cases = [[], [[], []], [[0, 0, 0], [0, 0, 0]],
             [[0, 2, 0, 4], [0, 3, 0, 1], [0, -6, 0, 5]]]  # all-zero columns
    for _ in range(120):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        sparse = rng.random() < 0.5
        cases.append([[rng.randint(-9, 9) if not sparse or rng.random() < 0.3 else 0
                       for _ in range(n)] for _ in range(m)])
    for rows in cases:
        got = int_echelon(rows, track)
        assert got == _echelon_oracle(rows, track), rows
        assert all(type(x) is int for part in got[:2] if part for row in part for x in row)


@pytest.mark.parametrize("track", [True, False])
def test_int_echelon_promotes_past_int64(track):
    rng = random.Random(40)
    big = 2**40
    rows = [[rng.randint(-big, big) for _ in range(5)] for _ in range(6)]
    got = int_echelon(rows, track)
    assert got == _echelon_oracle(rows, track)
    assert max(abs(x) for row in got[0] for x in row) >= 2**63  # past int64


def test_image_solver_null_rows_stay_int64():
    from clflats import cl
    from clflats.flats import enumerate_flats, incidence_rank_closed_form
    from clflats.geometry import space_config

    cfg = space_config("symplectic", 3, 2)
    n = len(enumerate_flats(cfg, cfg.nu))
    null = cl._image_solver(cfg)
    assert null.dtype == np.int64 and not null.flags.writeable
    assert null.shape == (n - incidence_rank_closed_form(cfg), n)


def _small_rref_matrix(rng, m, r, n):
    """An m x n integer matrix of rank r whose RREF has small fractions."""
    R = np.hstack([np.eye(r, dtype=np.int64), rng.integers(-1, 2, (r, n - r))])
    R = R[:, rng.permutation(n)]
    while True:
        L = rng.integers(-2, 3, (m, r))
        if rank(L.tolist()) == r:
            return L @ R


def test_certified_null_basis_matches_oracle():
    rng = np.random.default_rng(5)
    p = MODULAR_PRIMES[0]
    cases = [_small_rref_matrix(rng, 6, 3, 9), _small_rref_matrix(rng, 4, 4, 4),
             _small_rref_matrix(rng, 2 * ELIMINATION_ROWS + 9, 7, 20),  # three row blocks
             np.zeros((3, 5), dtype=np.int64), np.ones((ELIMINATION_ROWS + 1, 4), dtype=np.int64)]
    for a in cases:
        N = certified_null_basis(a)
        oracle = nullspace_int(a)
        assert N.dtype == np.int64 and N.shape == oracle.shape
        assert not int_matmul(a, N.T).any()
        free = np.setdiff1d(np.arange(a.shape[1]), modular_echelon(a, p)[1])
        assert in_row_span(N, free, oracle)


def test_null_basis_reconstruction_failure_is_an_internal_error():
    # the RREF is [1, 100019/100003]: no fraction with both parts below sqrt(p/2)
    with pytest.raises(AssertionError):
        certified_null_basis(np.array([[100003, 100019]], dtype=np.int64))


def test_null_basis_certificate_rejects_any_single_change():
    from clflats.flats import incidence_matrix
    from clflats.geometry import space_config

    M = incidence_matrix(space_config("orthogonal", 3, 2)).matrix
    N = certified_null_basis(M)
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
def test_rank_bounds_property(m, n, seed):
    rng = random.Random(seed)
    a = _random_matrix(rng, m, n, -6, 6)
    r = rank(a)
    assert 0 <= r <= min(m, n)
    assert r == rank([row + row for row in a])  # duplicated columns keep rank

"""Exact linear algebra: rank, solve, nullspace, guarded products."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clflats import exact
from clflats.exact import (
    EchelonSolver,
    MODULAR_PRIMES,
    independent_rows,
    int_echelon,
    int_matmul,
    modular_rank,
    nullspace,
    nullspace_int,
    rank,
    solve,
)


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


def test_independent_rows_first_come():
    rows = np.array([[1, 1, 0], [0, 0, 0], [2, 2, 0], [0, 1, -1], [1, 0, 1], [0, 0, 1]],
                    dtype=np.int64)
    p = MODULAR_PRIMES[0]
    assert independent_rows(rows, p) == [0, 3, 5]
    assert independent_rows(rows, p, stop_at=2) == [0, 3]
    assert rank(rows[[0, 3, 5]].tolist()) == 3
    rng = random.Random(14)
    for _ in range(30):
        a = np.array(_random_matrix(rng, rng.randint(1, 9), rng.randint(1, 6), -1, 1),
                     dtype=np.int64)
        kept = independent_rows(a, p)
        assert len(kept) == rank(a.tolist()) == rank(a[kept].tolist())
    with pytest.raises(ValueError):
        independent_rows(np.array([[2**40, 1]], dtype=np.int64), p)


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
    null = cl._image_solver(cfg)._null_rows
    assert null.dtype == np.int64
    assert null.shape == (n - incidence_rank_closed_form(cfg), n)


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

"""Exact dense linear algebra over big integers and rationals.

Every integer result is exact.  One GF(p) elimination, modular_echelon,
keeps the first-come independent rows of a matrix; its rank is a lower
bound on the Q-rank that callers prove tight with an upper bound.
certified_null_basis reduces that echelon form to RREF, rebuilds its
free columns by rational reconstruction and certifies the integer null
basis with one exact product, so that solvability of A^T y = b is one
product with it.  Bareiss elimination gives exact ranks where no bound
is proven, and an integer row-echelon form that keeps rows primitive
(gcd-reduced), int64 under a bound checked at each pivot and big
integers past it, backs exact solves.  Products pick the cheapest tier a
proven bound on every partial sum allows: float64 BLAS below 2^53, where
float64 is only a container for integers it holds exactly (BLAS pinned
to one thread), int64 below 2^62, and object arithmetic otherwise.  The
rational nullspace is the reference for tests.
"""

from __future__ import annotations

import ctypes
import weakref
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt, lcm

import numpy as np

MODULAR_PRIMES = (10**9 + 7, 10**9 + 9)


def _int_rows(matrix) -> list[list[int]]:
    """Clear denominators row-wise (rank/solvability-preserving)."""
    if isinstance(matrix, np.ndarray):
        return [[int(x) for x in row] for row in matrix]
    out = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def _integral(b) -> np.ndarray:
    """An integer array (int64 or object) equal to b times the lcm of its denominators."""
    arr = np.asarray(b)
    if arr.dtype.kind in "iu":
        return arr
    vals = [Fraction(x) for x in arr.flat]
    scale = lcm(*(x.denominator for x in vals))
    return np.array([int(x * scale) for x in vals], dtype=object).reshape(arr.shape)


def rank(matrix) -> int:
    """Exact rank by fraction-free Bareiss elimination.

    Pivots are chosen with smallest nonzero magnitude to limit the growth
    of the intermediate minors.
    """
    rows = _int_rows(matrix)
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pick = None
        for i in range(r, len(rows)):
            v = rows[i][c]
            if v and (pick is None or abs(v) < abs(rows[pick][c])):
                pick = i
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        pr = rows[r]
        pv = pr[c]
        # Bareiss update applies to every lower row; division by the
        # previous pivot is exact (entries are minors).
        for i in range(r + 1, len(rows)):
            ri = rows[i]
            f = ri[c]
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(ri, pr)]
        prev = pv
        r += 1
        if r == len(rows):
            break
    return r


ELIMINATION_ROWS = 128  # rows widened to int64 at a time by modular_echelon


def _residues(block, p: int) -> np.ndarray:
    """An integer block mod p as int64; a narrow type is widened first (it
    cannot hold p), other input is cleared of denominators row by row."""
    A = np.asarray(block)
    if A.dtype.kind not in "iu":
        A = np.array(_int_rows(block), dtype=object).reshape(A.shape)
    elif A.dtype.itemsize < 8:
        A = A.astype(np.int64)
    return (A % p).astype(np.int64, copy=False)


def modular_echelon(matrix, p: int, stop_at: int | None = None):
    """Row echelon form over GF(p) from the first-come independent rows.

    Returns (E, pivots, rows): E[j] is the reduction of input row rows[j]
    against the rows before it, scaled to 1 at column pivots[j] and zero
    at every earlier pivot column.  rows are the indices of the first rows
    that are independent over GF(p), hence over Q, in input order, and at
    most stop_at of them.  When the pivots come out in increasing column
    order (as for any input with no more than ELIMINATION_ROWS rows), E
    is an ordinary row echelon form.

    The input is widened to int64 residues ELIMINATION_ROWS rows at a
    time: each block is reduced by the pivot rows found so far, then row
    by row against itself.  Every update is one elementwise int64 outer
    product, exact because (p - 1)^2 + p < 2^63.
    """
    A = np.asarray(matrix)
    nrows, ncols = A.shape if A.ndim == 2 else (0, 0)
    limit = min(nrows, ncols) if stop_at is None else min(stop_at, nrows, ncols)
    E = np.zeros((limit, ncols), dtype=np.int64)
    pivots: list[int] = []
    rows: list[int] = []
    for start in range(0, nrows, ELIMINATION_ROWS):
        if len(pivots) == limit:
            break
        B = _residues(matrix[start:start + ELIMINATION_ROWS], p)
        for j, c in enumerate(pivots):
            hit = np.flatnonzero(B[:, c])
            if hit.size:
                B[hit] = (B[hit] - np.outer(B[hit, c], E[j])) % p
        for i in range(len(B)):
            nz = np.flatnonzero(B[i])
            if not nz.size:
                continue
            c, k = int(nz[0]), len(pivots)
            E[k] = B[i] * pow(int(B[i, c]), -1, p) % p
            pivots.append(c)
            rows.append(start + i)
            if k + 1 == limit:
                break
            below = i + 1 + np.flatnonzero(B[i + 1:, c])
            if below.size:
                B[below] = (B[below] - np.outer(B[below, c], E[k])) % p
    return E[:len(pivots)], pivots, rows


def modular_rank(matrix, p: int, stop_at: int | None = None) -> int:
    """Rank over GF(p), at most stop_at; a lower bound for (and usually
    equal to) the Q-rank.  The length of modular_echelon's pivot list."""
    return len(modular_echelon(matrix, p, stop_at)[1])


def _rational(u: int, p: int) -> Fraction:
    """The fraction a/b = u mod p with |a|, b <= sqrt(p/2), by Wang's
    half-extended Euclid; it is unique when it exists."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        raise AssertionError(f"{u} has no rational reconstruction mod {p}")
    return Fraction(r1, t1)


def certified_null_basis(matrix) -> np.ndarray:
    """An integer basis N of the right nullspace, certified exactly.

    The echelon form of the matrix over GF(p), p = MODULAR_PRIMES[0], is
    reduced to RREF; its free columns hold few distinct values, each
    rebuilt as a small fraction by rational reconstruction.  Row f of N is
    the null vector of free column f times the lcm of its denominators, so
    N[:, free] is diagonal.  check_null_basis then proves that N spans the
    nullspace, so no verdict rests on the reconstruction.
    """
    A = np.asarray(matrix)
    p = MODULAR_PRIMES[0]
    E, pivots, _ = modular_echelon(A, p)
    r, n = len(pivots), A.shape[1]
    free = np.setdiff1d(np.arange(n), pivots)
    # E[:, pivots] is unit upper triangular: back-substitute the free part
    T, F = E[:, pivots], E[:, free]
    for j in range(r - 1, 0, -1):
        hit = np.flatnonzero(T[:j, j])
        if hit.size:
            F[hit] = (F[hit] - np.outer(T[hit, j], F[j])) % p
    values, where = np.unique(F, return_inverse=True)
    fracs = [_rational(int(u), p) for u in values]
    num = np.array([f.numerator for f in fracs], dtype=np.int64)[where].reshape(F.shape)
    den = np.array([f.denominator for f in fracs], dtype=np.int64)[where].reshape(F.shape)
    scale = np.lcm.reduce(den, axis=0) if r else np.ones(len(free), dtype=np.int64)
    N = np.zeros((len(free), n), dtype=np.int64)
    N[np.arange(len(free)), free] = scale
    N[:, pivots] = -(num * (scale // den)).T
    check_null_basis(A, N, free)
    return N


def check_null_basis(matrix, N: np.ndarray, free) -> None:
    """Raise AssertionError unless N is a basis of the right nullspace.

    free must be the columns off the GF(p) pivots of the matrix, so that
    |free| = n - rank_p <= dim ker.  One exact product shows that N lies in
    the nullspace, and a nonzero diagonal N[:, free] that N has rank
    |free|, so N spans it (and rank_Q = rank_p).
    """
    A = np.asarray(matrix)
    if N.shape != (len(free), A.shape[1]):
        raise AssertionError(f"a null basis of shape {N.shape} for {len(free)} free columns")
    D = N[:, np.asarray(free, dtype=np.int64)]
    d = np.diagonal(D)
    if not d.all() or (D != np.diag(d)).any() or int_matmul(A, N.T).any():
        raise AssertionError("the null basis fails its exact certificate")


# ---------------------------------------------------------------------------
# integer echelon kernel (rows kept primitive; exact, denominator-free)

def int_echelon(rows: list[list[int]], track: bool = True):
    """Row echelon of an integer matrix with an optional transform.

    Returns (echelon_rows, transform_rows, pivot_cols) as lists of Python
    ints: each echelon row is a primitive integer vector, transform @
    input == echelon (up to the per-row scalings applied identically to
    both sides).  The pivot of each column is the first remaining row of
    smallest nonzero magnitude there.

    [rows | transform] is one array, and each pivot updates every row
    below it with a nonzero entry in one statement.  The array is int64
    while the bound |pv| max|W[below]| + max|f| max|W[r]| < 2^62, checked
    at each pivot, rules out overflow; past it the array becomes object
    (big-int) for the rest of the run.
    """
    n = len(rows)
    ncols = len(rows[0]) if n else 0
    W = _int_array(rows, (n, ncols))
    if track:
        W = np.hstack([W, np.eye(n, dtype=W.dtype)])
    r = 0
    pivots = []
    for c in range(ncols):
        if r == n:
            break
        nz = r + np.flatnonzero(W[r:, c])
        if not nz.size:
            continue
        pick = int(nz[np.argmin(np.abs(W[nz, c]))])
        if pick != r:
            W[[r, pick]] = W[[pick, r]]
        below = r + 1 + np.flatnonzero(W[r + 1:, c])
        if below.size:
            pv, f, block = W[r, c], W[below, c], W[below]
            if (W.dtype != object and _max_abs(block) * abs(int(pv))
                    + _max_abs(f) * _max_abs(W[r]) >= 2**62):
                W, block = W.astype(object), block.astype(object)
                pv, f = W[r, c], f.astype(object)
            block = pv * block - f[:, None] * W[r]
            g = np.gcd.reduce(block, axis=1)
            W[below] = block // np.where(g > 1, g, 1)[:, None]
        pivots.append(c)
        r += 1
    tr = W[:, ncols:].tolist() if track else None
    return W[:r, :ncols].tolist(), tr, pivots


class EchelonSolver:
    """Factored echelon form of A for repeated exact solves of A y = b."""

    def __init__(self, matrix):
        rows = _int_rows(matrix)
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        ech, tr, pivots = int_echelon(rows, track=True)
        self.echelon = ech
        self.pivots = pivots
        self.rank = len(pivots)
        self.transform = tr  # all nrows rows; rows beyond rank annihilate A
        self._null_rows = _int_array(tr[self.rank:], (self.nrows - self.rank, self.nrows))
        self._null_rows.flags.writeable = False

    def solvable(self, b):
        """Whether A y = b has a solution, b over the rationals.

        b is one vector (a bool is returned) or a matrix with one
        right-hand side per column (a bool array is returned).
        """
        b = _integral(b)
        ok = ~int_matmul(self._null_rows, b).any(axis=0)
        return bool(ok) if b.ndim == 1 else ok

    def solve(self, b):
        """Some exact solution of A y = b, or None."""
        if not self.solvable(b):
            return None
        b = [Fraction(x) for x in b]
        tb = [sum((Fraction(t) * x for t, x in zip(self.transform[i], b)), Fraction(0))
              for i in range(self.rank)]
        y = [Fraction(0)] * self.ncols
        for i in range(self.rank - 1, -1, -1):
            c = self.pivots[i]
            acc = tb[i]
            row = self.echelon[i]
            for j in range(i + 1, self.rank):
                cj = self.pivots[j]
                if row[cj]:
                    acc -= row[cj] * y[cj]
            y[c] = acc / row[c]
        return tuple(y)


def solve(matrix, b):
    """One-shot exact solve; returns a tuple of Fractions or None."""
    return EchelonSolver(matrix).solve(b)


def nullspace(matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace (one vector per free column)."""
    rows = _int_rows(matrix)
    ncols = len(rows[0]) if rows else 0
    ech, _, pivots = int_echelon(rows, track=False)
    # back-substitute to reduced form over Q
    red = [[Fraction(x) for x in row] for row in ech]
    for i in range(len(red) - 1, -1, -1):
        c = pivots[i]
        red[i] = [x / red[i][c] for x in red[i]]
        for j in range(i):
            f = red[j][c]
            if f:
                red[j] = [a - f * b for a, b in zip(red[j], red[i])]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def nullspace_int(matrix) -> np.ndarray:
    """Nullspace basis scaled to integers, as an object-dtype array (rows)."""
    rows = _int_rows(matrix)
    basis = [_integral(v) for v in nullspace(rows)]
    return np.array(basis, dtype=object).reshape(len(basis), len(rows[0]) if rows else 0)


# ---------------------------------------------------------------------------
# guarded integer products

def _int_array(rows, shape) -> np.ndarray:
    """Integer rows as an int64 array when every entry fits, else as an object array.

    The array owns its data unless a reshape is needed, so that freezing
    it lets `_bound` remember its bound.
    """
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        arr = np.array(rows, dtype=object)
    return arr if arr.shape == shape else arr.reshape(shape)


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max(abs(int(x)) for x in a.flat)
    return max(abs(int(a.max())), abs(int(a.min())))


# id(array) -> (weak reference to it, max|entry|), for arrays nothing can write
_BOUNDS: dict[int, tuple[weakref.ref, int]] = {}


def _read_only_root(a: np.ndarray) -> np.ndarray | None:
    """The array owning a's data when a and every array it views are read-only."""
    root = a
    while not root.flags.writeable and root.dtype == a.dtype:
        if root.base is None:
            return root
        if not isinstance(root.base, np.ndarray):
            return None
        root = root.base
    return None


def _forget(key: int, ref: weakref.ref) -> None:
    if _BOUNDS.get(key, (None,))[0] is ref:
        del _BOUNDS[key]


def _bound(a: np.ndarray) -> int:
    """An upper bound on max|a|, computed once per read-only array.

    The cached matrices (incidence, kernel basis, image null basis) and the
    dense idempotents of scheme.check_eigen_system are read-only, and so
    are their views, which share the bound of the array that owns the
    data.  Writeable arrays are scanned on every call.  The bound is keyed
    by identity and checked through a weak reference, so an array made
    later at a reused id is scanned anew.
    """
    root = _read_only_root(a)
    if root is None:
        return _max_abs(a)
    key = id(root)
    hit = _BOUNDS.get(key)
    if hit is None or hit[0]() is not root:
        hit = (weakref.ref(root, partial(_forget, key)), _max_abs(root))
        _BOUNDS[key] = hit
    return hit[1]


@lru_cache(maxsize=None)
def _blas_threads():
    """OpenBLAS's (get, set) thread-count pair as numpy links it, or None.

    dlsym on numpy's own extension module finds the BLAS it was built
    against, whichever prefix and suffix that build exports.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _float_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b through float64 BLAS on one thread, for a caller that proved
    max|a| max|b| inner < 2^53: every product and partial sum is then an
    integer float64 holds exactly, in any summation order, with or without FMA.

    One thread, because OpenBLAS's threads contend on a small host: on a
    2-vCPU machine a 279x360 @ 360x25 product took about 7.5 ms on two
    threads at times, against 0.25 ms on one.  The count is process-wide,
    so the pin assumes one Python thread calls BLAS at a time.
    """
    af, bf = a.astype(np.float64), b.astype(np.float64)
    threads = _blas_threads()
    if threads is None:
        return (af @ bf).astype(np.int64)
    get, put = threads
    old = get()
    put(1)
    try:
        return (af @ bf).astype(np.int64)
    finally:
        put(old)


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product; the tier is chosen by the proven bound
    max|a| max|b| inner: float64 BLAS below 2^53, int64 below 2^62,
    object (big-int) arithmetic otherwise or for object operands."""
    if a.dtype != object and b.dtype != object:
        bound = _bound(a) * _bound(b) * max(a.shape[-1], 1)
        if bound < 2**53:
            return _float_product(a, b)
        if bound < 2**62:
            return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return np.dot(a.astype(object), b.astype(object))

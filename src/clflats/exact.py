"""Exact dense integer linear algebra: GF(p) elimination, certified null bases, products.

Every integer result is exact.  One GF(p) elimination, modular_echelon,
keeps the first-come independent rows of a matrix; its rank is a lower
bound on the Q-rank that callers prove tight with an upper bound, such
as the column count.  certified_null_basis reduces that echelon form to
RREF, rebuilds its free columns by rational reconstruction and certifies
the integer null basis N with one exact product; it is the exact
fallback of a rank that no pivot count proves, which only a failing
span check reaches.  The rank of the incidence matrix and the member
witness take no elimination: they read the certified spectrum of
M M^T (flats.gram_spectrum).
Products pick the cheapest tier a proven bound on every partial sum
allows: float64 BLAS below 2^53, where float64 is only a container for
integers it holds exactly (BLAS pinned to one thread), int64 below 2^62,
and object arithmetic otherwise.
"""

from __future__ import annotations

import ctypes
import weakref
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt

import numpy as np

MODULAR_PRIME = 10**9 + 7


ELIMINATION_ROWS = 128  # rows widened to int64 at a time by modular_echelon


def _residues(block, p: int) -> np.ndarray:
    """An integer block mod p as int64; a narrow type is widened first (it
    cannot hold p)."""
    A = np.asarray(block)
    if A.dtype.kind not in "iu":
        raise TypeError(f"GF(p) elimination takes an integer array, not {A.dtype}")
    if A.dtype.itemsize < 8:
        A = A.astype(np.int64)
    return (A % p).astype(np.int64, copy=False)


def modular_echelon(matrix, p: int):
    """Row echelon form over GF(p) from the first-come independent rows.

    Returns (E, pivots, rows): E[j] is the reduction of input row rows[j]
    against the rows before it, scaled to 1 at column pivots[j] and zero
    at every earlier pivot column.  rows are the indices of the first rows
    that are independent over GF(p), hence over Q, in input order.  When
    the pivots come out in increasing column order (as for any input with
    no more than ELIMINATION_ROWS rows), E is an ordinary row echelon form.

    The input is widened to int64 residues ELIMINATION_ROWS rows at a
    time: each block is reduced by the pivot rows found so far, then row
    by row against itself.  Every update is one elementwise int64 outer
    product, exact because (p - 1)^2 + p < 2^63.
    """
    A = np.asarray(matrix)
    nrows, ncols = A.shape if A.ndim == 2 else (0, 0)
    limit = min(nrows, ncols)
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


def row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, count): the stable lexicographic order of the rows of an
    integer matrix and the lengths of its runs of equal rows, by one
    lexsort: under numpy 2, np.unique imports numpy.ma on first use, which
    costs a cold process about 14 ms."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(order) + 1, dtype=bool)
    new[1:-1] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.diff(np.flatnonzero(new))


def sorted_unique(a) -> np.ndarray:
    """np.unique(a): the sorted distinct entries, by one sort (see row_runs)."""
    ordered = np.sort(np.asarray(a), axis=None)
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return ordered[new]


def certified_null_basis(matrix) -> np.ndarray:
    """An integer basis N of the right nullspace, int64, certified exactly.

    The echelon form of the matrix over GF(p), p = MODULAR_PRIME, is
    reduced to RREF; its free columns hold few distinct values, each
    rebuilt as a small fraction by rational reconstruction.  Row f of N is
    the null vector of free column f times the lcm of its denominators, so
    N[:, free] is diagonal.  check_null_basis then proves that N spans the
    nullspace, so no verdict rests on the reconstruction.  It is the exact
    fallback of ranks that no GF(p) pivot count proves
    (spreads._stack_rank, spreads.character_plan).
    """
    A, p = np.asarray(matrix), MODULAR_PRIME
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
    # row j of the echelon form holds pivot column pivots[j], in any column order
    N[:, np.array(pivots, dtype=np.int64)] = -(num * (scale // den)).T
    check_null_basis(A, N, free)
    return N


def check_null_basis(matrix, N: np.ndarray, free) -> None:
    """Raise AssertionError unless N is a basis of the right nullspace.

    free must be the columns off the GF(p) pivots of the matrix, so that
    |free| = n - rank_p <= dim ker.  One exact product shows that N lies in
    the nullspace, and a nonzero diagonal N[:, free] that N has rank
    |free|, so N spans it (and rank_Q = rank_p).  With no free column the
    GF(p) rank, a lower bound on the rational rank, is the column count,
    an upper bound, so the nullspace is zero and no product is taken.
    """
    A = np.asarray(matrix)
    if N.shape != (len(free), A.shape[1]):
        raise AssertionError(f"a null basis of shape {N.shape} for {len(free)} free columns")
    D = N[:, np.asarray(free, dtype=np.int64)]
    d = np.diagonal(D)
    if not d.all() or (D != np.diag(d)).any() or (len(N) and int_matmul(A, N.T).any()):
        raise AssertionError("the null basis fails its exact certificate")


# ---------------------------------------------------------------------------
# guarded integer products

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

    The cached matrices (the incidence matrix, its Gram matrix M M^T, the
    stacked masks of scheme.relation_products and the fold of
    cl.route_plan) and the dense idempotents of
    scheme.check_eigen_system are read-only, and so are their views, which
    share the bound of the array that owns the data.  Writeable arrays are
    scanned on every call.  The bound is keyed by identity and checked
    through a weak reference, so an array made later at a reused id is
    scanned anew.
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
    so the pin assumes one Python thread calls BLAS at a time.  The float64
    copy of b is freed before the product is converted, so beyond its
    inputs the tier holds two arrays at a time (that copy and the product,
    then the product and its int64 conversion), never all three.
    """
    af, bf = a.astype(np.float64, copy=False), b.astype(np.float64)
    get, put = _blas_threads() or (lambda: None, lambda count: None)
    old = get()
    put(1)
    try:
        product = af @ bf
    finally:
        put(old)
    del bf
    return product.astype(np.int64)


def int_matmul(a: np.ndarray, b: np.ndarray, a_float: np.ndarray | None = None) -> np.ndarray:
    """Exact integer product; the tier is chosen by the proven bound
    max|a| max|b| inner: float64 BLAS below 2^53, int64 below 2^62,
    object (big-int) arithmetic otherwise or for object operands.
    a_float, a cached float64 copy of a, spares the float tier converting a."""
    if a.dtype != object and b.dtype != object:
        bound = _bound(a) * _bound(b) * max(a.shape[-1], 1)
        if bound < 2**53:
            return _float_product(a if a_float is None else a_float, b)
        if bound < 2**62:
            return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return np.dot(a.astype(object), b.astype(object))

"""Exact dense linear algebra over big integers and rationals.

Verification paths never touch floating point: ranks come from
fraction-free (Bareiss) elimination or from GF(p) lower bounds that meet
a proven upper bound, solvability from the null rows of an integer
row-echelon kernel that keeps rows primitive (gcd-reduced), one product
per test.  That elimination runs on numpy int64 arrays while a bound
checked at each pivot rules out overflow and on object (big-int) arrays
past it; large products likewise use int64 only under a proven bound,
falling back to object arithmetic otherwise.  The rational nullspace is
the reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

MODULAR_PRIMES = (10**9 + 7, 10**9 + 9)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix with exact rational entries."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.entries))) if self.entries else self

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(min(self.nrows, self.ncols))),
                   Fraction(0))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().entries
        return RationalMatrix(tuple(
            tuple(sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in cols)
            for r in self.entries
        ))

    def scaled_integer(self) -> tuple[int, list[list[int]]]:
        """(denominator L, integer matrix) with self = intmat / L."""
        L = lcm(*(x.denominator for row in self.entries for x in row)) if self.entries else 1
        return L, [[int(x * L) for x in row] for row in self.entries]


def _int_rows(matrix) -> list[list[int]]:
    """Clear denominators row-wise (rank/solvability-preserving)."""
    if isinstance(matrix, RationalMatrix):
        rows = matrix.entries
    elif isinstance(matrix, np.ndarray):
        return [[int(x) for x in row] for row in matrix]
    else:
        rows = matrix
    out = []
    for row in rows:
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


def modular_rank(matrix, p: int, stop_at: int | None = None) -> int:
    """Rank over GF(p); a lower bound for (and usually equal to) the Q-rank.

    Integer arrays are used as they are, other input is cleared of
    denominators row by row.  The result is min(rank, stop_at).
    """
    A = np.asarray(matrix)
    if A.dtype.kind not in "iu":
        A = np.array(_int_rows(matrix), dtype=object)
    if A.ndim != 2 or not A.size:
        return 0
    A = (A % p).astype(np.int64)
    nrows, ncols = A.shape
    limit = min(nrows, ncols) if stop_at is None else min(stop_at, nrows, ncols)
    r = 0
    for c in range(ncols):
        if r == limit:
            break
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(A[r + 1:, c])
        if below.size:
            A[below, c:] = (A[below, c:] - np.outer(A[below, c], A[r, c:])) % p
        r += 1
    return r


def independent_rows(matrix: np.ndarray, p: int, stop_at: int | None = None) -> list[int]:
    """First-come indices of rows independent over GF(p) (so over Q), at most stop_at.

    Each row is reduced by one int64 product against the reduced basis kept
    so far, under the checked bound max|entry| * p * rank < 2^62.
    """
    nrows, ncols = matrix.shape
    limit = min(nrows, ncols) if stop_at is None else min(stop_at, nrows, ncols)
    if _max_abs(matrix) * p * max(limit, 1) >= 2**62:
        raise ValueError("entries too large for the int64 row reduction")
    basis = np.zeros((limit, ncols), dtype=np.int64)
    pivots: list[int] = []
    kept: list[int] = []
    for i in range(nrows):
        if len(kept) == limit:
            break
        k = len(kept)
        w = (matrix[i] - matrix[i, pivots] @ basis[:k]) % p
        nz = np.flatnonzero(w)
        if not nz.size:
            continue
        c = int(nz[0])
        w = w * pow(int(w[c]), -1, p) % p
        basis[:k] = (basis[:k] - np.outer(basis[:k, c], w)) % p
        basis[k] = w
        pivots.append(c)
        kept.append(i)
    return kept


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
    """Integer rows as an int64 array when every entry fits, else as an object array."""
    try:
        return np.array(rows, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(shape)


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max(abs(int(x)) for x in a.flat)
    return int(np.abs(a).max())


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product; int64 fast path under a proven bound."""
    inner = a.shape[-1]
    bound = _max_abs(a) * _max_abs(b) * max(inner, 1)
    if bound < 2**62 and a.dtype != object and b.dtype != object:
        return a.astype(np.int64) @ b.astype(np.int64)
    return np.dot(a.astype(object), b.astype(object))

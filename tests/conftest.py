"""Shared fixtures; the package memoizes heavy artifacts per configuration."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from clflats import exact, spreads
from clflats.geometry import enumerate_isotropic, space_config
from clflats.scheme import (
    PRODUCT_COLUMNS,
    projections,
    relation_products,
    scheme_tables,
)

SMALL_CONFIGS = (
    ("symplectic", 2, 1), ("symplectic", 3, 1),
    ("unitary", 4, 1), ("orthogonal", 3, 1), ("orthogonal", 5, 1),
)
MEDIUM_CONFIGS = SMALL_CONFIGS + (("symplectic", 2, 2), ("orthogonal", 3, 2))


@pytest.fixture(scope="session")
def s22():
    return space_config("symplectic", 2, 2)


@pytest.fixture(scope="session")
def s21():
    return space_config("symplectic", 2, 1)


@pytest.fixture(scope="session")
def o32():
    return space_config("orthogonal", 3, 2)


@pytest.fixture(scope="session")
def u41():
    return space_config("unitary", 4, 1)


@pytest.fixture(params=SMALL_CONFIGS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}",
                scope="session")
def small_config(request):
    return space_config(*request.param)


@pytest.fixture(params=MEDIUM_CONFIGS, ids=lambda t: f"{t[0][:4]}-q{t[1]}-nu{t[2]}",
                scope="session")
def medium_config(request):
    return space_config(*request.param)


def in_row_span(N: np.ndarray, free, V: np.ndarray) -> bool:
    """Whether every row of V is a rational combination of the rows of N,
    given that N[:, free] is diagonal: then v = sum_f v[f] / N[f, f] * N[f].
    Exact: both sides are scaled by the lcm of the diagonal."""
    d = [int(x) for x in np.diagonal(N[:, free])]
    scale = math.lcm(*d) if d else 1
    coeff = V[:, free].astype(object) * np.array([scale // x for x in d], dtype=object)
    return bool((np.dot(coeff, N.astype(object)) == scale * V.astype(object)).all())


def _rational_rref(matrix) -> tuple[list[dict], list[int], int]:
    """Gauss-Jordan elimination in Fractions on sparse rows ({column: entry}):
    the pivot rows, scaled to 1 at their pivot, their pivot columns and the
    number of columns."""
    rows = [{c: Fraction(int(x)) for c, x in enumerate(row) if x} for row in matrix]
    ncols = np.asarray(matrix).shape[1]
    reduced: list[dict] = []
    pivots: list[int] = []
    for c in range(ncols):
        pick = next((i for i, row in enumerate(rows) if c in row), None)
        if pick is None:
            continue
        prow = rows.pop(pick)
        prow = {k: x / prow[c] for k, x in prow.items()}
        for row in rows + reduced:
            f = row.get(c)
            for k, x in (prow.items() if f else ()):
                v = row.get(k, 0) - f * x
                if v:
                    row[k] = v
                else:
                    del row[k]
        reduced.append(prow)
        pivots.append(c)
    return reduced, pivots, ncols


def rational_nullspace(matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace over Q, one vector per free column;
    the reference for the package's GF(p) elimination, sharing no code."""
    reduced, pivots, ncols = _rational_rref(matrix)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row.get(fc, Fraction(0))
        basis.append(tuple(v))
    return basis


def rational_rank(matrix) -> int:
    """Rank over Q: the number of columns minus the length of
    rational_nullspace, i.e. its number of pivots."""
    return len(_rational_rref(matrix)[1])


def integer_nullspace(matrix) -> np.ndarray:
    """rational_nullspace with each vector scaled to integers, as object rows."""
    basis = []
    for v in rational_nullspace(matrix):
        scale = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    return np.array(basis, dtype=object).reshape(len(basis), np.asarray(matrix).shape[1])


def spanning_rows_oracle(config) -> list[int]:
    """The rows of family_members kept by a GF(p) elimination of the type-II
    stack (type I at nu = 1) in the fixed random.Random(0) shuffle: the
    certificate the package computed before the translation characters.

    The stack lies in the complement of the parallel-class eigenspace, of
    dimension n - m_(0,1), so the elimination stops once it keeps that many
    rows; the count is then the rank over GF(p), a lower bound on the rank
    over Q.  It runs ELIMINATION_ROWS new rows at a time after the echelon
    rows kept so far: those are independent, so they are kept again at
    little cost, and the first-come rows of a prefix of the shuffle are
    those of the whole shuffle that lie in it.
    """
    split = len(enumerate_isotropic(config, config.nu)) if config.nu >= 2 else 0
    tables = scheme_tables(config)
    target = tables.size - tables.multiplicities[(0, 1)]
    stack = spreads.family_indicators(config, slice(split, None))
    order = random.Random(0).sample(range(len(stack)), len(stack))
    echelon = np.zeros((0, stack.shape[1]), dtype=np.int64)
    kept: list[int] = []
    for start in range(0, len(stack), exact.ELIMINATION_ROWS):
        block = order[start:start + exact.ELIMINATION_ROWS]
        echelon, _, rows = exact.modular_echelon(np.vstack([echelon, stack[block]]),
                                                 exact.MODULAR_PRIMES[0])
        kept += [split + block[r - len(kept)] for r in rows[len(kept):]]
        if len(kept) >= target:
            break
    return kept[:target]


def eta1_vanishing_oracle(config, stack) -> bool:
    """Whether every eta = 1 projection of every row of the stack vanishes,
    by the rows of C T for the integer idempotents (j, 1), j < nu, whose
    codes are 1, 3, ..., 2 nu - 1: the type-I vanishing check the
    package computed before it read block constancy."""
    return not projections(config, relation_products(config, stack.T))[1:2 * config.nu:2].any()


def parallel_vanishing_oracle(config, stack) -> bool:
    """Whether the (0, 1) projection of every row of the stack vanishes, by
    the row of C T for the integer (0, 1) idempotent, PRODUCT_COLUMNS rows
    at a time: the type-II vanishing check the package computed
    before it read whether M maps each row to a constant vector."""
    return not any(
        projections(config, relation_products(config, stack[s:s + PRODUCT_COLUMNS].T))[1].any()
        for s in range(0, len(stack), PRODUCT_COLUMNS))

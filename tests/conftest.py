"""Shared fixtures; the package memoizes heavy artifacts per configuration."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from clflats import exact, spreads
from clflats.flats import coset_representatives, coset_table
from clflats.geometry import (
    Isometry,
    SpaceConfig,
    Subspace,
    Vector,
    all_vectors,
    canonicalize,
    contains_vector,
    enumerate_isotropic,
    form_value,
    gram_rank,
    is_isotropic,
    point_array,
    rref,
    space_config,
    span_points,
    subspace_checks,
    subspaces_contain,
    syndrome_keys,
)
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


def unit_vector(config, j: int, scale: int = 1) -> tuple[int, ...]:
    v = [0] * config.dim
    v[j] = scale
    return tuple(v)


def _perp_space(config, sub: Subspace) -> Subspace:
    """Solution space of form(b, v) = 0 for every basis row b."""
    fld = config.field
    n = config.dim
    if sub.dim == 0:
        return canonicalize(config, [unit_vector(config, j) for j in range(n)])
    rows = []
    for b in sub.basis:
        w = [0] * n
        for j in range(n):
            s = 0
            for t in range(n):
                s = fld.add(s, fld.mul(b[t], config.form[t][j]))
            w[j] = s
        if config.case == "unitary":
            w = [fld.conj_table[c] for c in w]
        rows.append(w)
    ech, pivots = rref(fld, rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for row, pc in zip(ech, pivots):
            v[pc] = fld.neg(row[j])
        basis.append(v)
    return canonicalize(config, basis)


@lru_cache(maxsize=None)
def isotropic_oracle(config, m: int) -> tuple[Subspace, ...]:
    """The type-(m,0) subspaces in canonical order, grown one dimension at a
    time: adjoin isotropic vectors from the perp of each subspace of the
    level below, canonicalize, deduplicate.  The generator the package
    used before its batched orderly generation."""
    if m == 0:
        return (Subspace((), ()),)
    out = set()
    for sub in isotropic_oracle(config, m - 1):
        for v in span_points(config, _perp_space(config, sub)):
            if not any(v) or not is_isotropic(config, v):
                continue
            if contains_vector(config.field, sub, v):
                continue
            out.add(canonicalize(config, list(sub.basis) + [v]))
    return tuple(sorted(out, key=Subspace.flat_key))


def isotropic_brute_force(config, m: int) -> tuple[Subspace, ...]:
    """Independent oracle for small m: scan all m-subsets of vectors."""
    if m == 0:
        return (Subspace((), ()),)
    vectors = [v for v in all_vectors(config) if any(v)]
    out = set()
    if m == 1:
        for v in vectors:
            if is_isotropic(config, v):
                out.add(canonicalize(config, [v]))
        return tuple(sorted(out, key=Subspace.flat_key))
    if m != 2:
        raise ValueError("brute-force oracle supports m <= 2 only")
    iso = [v for v in vectors if is_isotropic(config, v)]
    for i, u in enumerate(iso):
        for v in iso[i + 1:]:
            if form_value(config, u, v) != 0 or form_value(config, v, u) != 0:
                continue
            sub = canonicalize(config, [u, v])
            if sub.dim == 2:
                out.add(sub)
    return tuple(sorted(out, key=Subspace.flat_key))


def random_isometry_oracle(config: SpaceConfig, seed: int) -> Isometry:
    """Seeded isometry by greedy completion of hyperbolic pairs, one
    form_value call per vector and pair: the scan geometry.random_isometry
    made before it filtered the points with form_values."""
    rng = random.Random(("isometry", config.key(), seed).__repr__())
    fld = config.field
    nu = config.nu

    us: list[Vector] = []
    ws: list[Vector] = []

    def orthogonal_to_chosen(v: Vector) -> bool:
        return all(form_value(config, b, v) == 0 and form_value(config, v, b) == 0
                   for b in us + ws)

    for _ in range(nu):
        chosen = canonicalize(config, [list(r) for r in us + ws])
        candidates = [
            v for v in all_vectors(config)
            if any(v) and is_isotropic(config, v)
            and orthogonal_to_chosen(v) and not contains_vector(fld, chosen, v)
        ]
        u = rng.choice(sorted(candidates))
        partners = []
        for w in all_vectors(config):
            if not is_isotropic(config, w):
                continue
            if form_value(config, u, w) != 1:
                continue
            if all(form_value(config, b, w) == 0 and form_value(config, w, b) == 0
                   for b in us + ws):
                partners.append(w)
        w = rng.choice(sorted(partners))
        us.append(u)
        ws.append(w)

    T = tuple(us + ws)
    for i in range(config.dim):
        for j in range(config.dim):
            if form_value(config, T[i], T[j]) != config.form[i][j]:
                raise ValueError("matrix does not preserve the form")
    v = tuple(rng.randrange(config.q) for _ in range(config.dim))
    return Isometry(T, v)


def type_II_components_oracle(config) -> tuple[tuple[Subspace, tuple[Subspace, ...]], ...]:
    """The type-(nu+1, 2) subspaces with their interior maximal isotropics,
    one canonicalize per (direction, nonzero coset representative) and one
    gram_rank per new container: the loop spreads.type_II_components made
    before it reduced the whole stack with geometry.rref_stack."""
    maxes = enumerate_isotropic(config, config.nu)
    seen: set[Subspace] = set()
    containers = []
    for p in maxes:
        for v in coset_representatives(config, p)[1:]:
            q_sub = canonicalize(config, list(p.basis) + [v])
            if q_sub not in seen:
                seen.add(q_sub)
                if gram_rank(config, q_sub) == 2:
                    containers.append(q_sub)
    containers.sort(key=Subspace.flat_key)
    contains = subspaces_contain(config, containers, maxes)
    return tuple((q_sub, tuple(p for p, ok in zip(maxes, inside) if ok))
                 for q_sub, inside in zip(containers, contains))


def type_II_members_oracle(config) -> np.ndarray:
    """The sorted, distinct type-II member rows, by the point-wise gather
    spreads._type_II_members made before it labelled flats by coset: the
    syndrome key of every point under a container's parity check labels
    its coset, one np.where takes the flat of p1 through each point of the
    shift's coset and of p2 through each point off it, and a sorted row
    lists each member q^nu times."""
    direction_index = {d: k for k, d in enumerate(enumerate_isotropic(config, config.nu))}
    coset_of = coset_table(config)
    per = config.q**config.nu
    components = type_II_components_oracle(config)
    checks = subspace_checks(config, [q_sub for q_sub, _ in components])
    labels = syndrome_keys(config, checks, point_array(config))
    rows = []
    for (_, interior), label in zip(components, labels):
        inside = np.unique(label)[:, None] == label
        first, second = zip(*itertools.permutations([direction_index[p] for p in interior], 2))
        spread = np.where(inside, coset_of[list(first)][:, None], coset_of[list(second)][:, None])
        spread.sort(axis=2)
        groups = spread.reshape(-1, per, per)
        assert (groups == groups[:, :, :1]).all(), "a row does not cover each point once"
        rows.append(groups[:, :, 0])
    return np.unique(np.concatenate(rows), axis=0)


def membership_rows(plan: spreads.MembershipPlan, n: int) -> np.ndarray:
    """The basis K of ker M that a spreads.MembershipPlan stands for, as a
    dense int64 (rows, n) matrix: block d minus block 0 for each direction
    d > 0, then, pair by pair and v = 1..p-1, the row
    1(d, v) - 1(d, 0) - (1(d_a, v) - 1(d_a, 0)) of each pair that is not
    its line's base."""
    per = plan.per
    trivial = np.zeros((n // per - 1, n), dtype=np.int64)
    for d in range(1, n // per):
        trivial[d - 1, d * per:(d + 1) * per] = 1
        trivial[d - 1, :per] -= 1
    rows = []
    for i, b in enumerate(plan.base.tolist()):
        for v in range(1, plan.groups.shape[1]) if b != i else ():
            row = np.zeros(n, dtype=np.int64)
            for pair, sign in ((i, 1), (b, -1)):
                np.add.at(row, plan.groups[pair, v], sign)
                np.add.at(row, plan.groups[pair, 0], -sign)
            rows.append(row)
    return np.vstack([trivial] + rows)


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

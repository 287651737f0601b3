"""Flats (cosets of subspaces), their lattice operations, and incidence.

A flat is a direction subspace plus the unique coset representative with
zero coordinates at the direction's pivot columns.  Enumeration of the
type-(m,0) flats orders them by (direction canonical index, representative
lexicographic), which fixes the FlatId used by every set type downstream.
The flat of direction d through a point x has the id d q^nu plus the
syndrome key of x under the parity check of d (geometry.syndrome_keys),
so coset_table and the incidence matrix are one syndrome pass over all
points, and flats_in and flats_through test containment by syndromes too.  The
point-flat incidence matrix M has a certified integer null basis N,
from its RREF over GF(p) rebuilt by rational reconstruction; it gives
the exact rank of M.  The image route, of single sets and of batches
alike, reads the translation-character basis of ker M
(spreads.membership_plan) instead, with no elimination.  N is an
exact.NullBasis, kept as its split at the free columns.  A
container's incidence matrix is a slice of M (its points by syndrome
key, its flats by flats_in, whose ids it keeps), and its certified null
basis, the same NullBasis type, is cached per container.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

from . import exact
from .field import e_power, gauss_binomial
from .geometry import (
    SpaceConfig,
    Subspace,
    Vector,
    all_vectors,
    canonicalize,
    contains_subspace,
    contains_vector,
    count_isotropic,
    enumerate_isotropic,
    gram_rank,
    intersect_subspace,
    point_array,
    point_graph,
    qh_plus_one,
    reduce_mod,
    rref,
    span_points,
    subspace_checks,
    subspaces_contain,
    sum_subspace,
    syndrome_keys,
    vec_add,
    vec_sub,
)

FLAT_ENUM_BOUND = 10**5


@dataclass(frozen=True)
class Flat:
    """A coset direction + x with the canonical representative."""

    direction: Subspace
    rep: Vector

    @property
    def dim(self) -> int:
        return self.direction.dim


def flat_make(config: SpaceConfig, direction: Subspace, x) -> Flat:
    """The flat direction + x, with x reduced to the canonical representative."""
    x = tuple(x)
    if len(x) != config.dim:
        raise ValueError("representative has wrong length")
    return Flat(direction, reduce_mod(config.field, direction, x))


def flat_points(config: SpaceConfig, f: Flat) -> list[Vector]:
    fld = config.field
    return [vec_add(fld, p, f.rep) for p in span_points(config, f.direction)]


def flat_contains_point(config: SpaceConfig, f: Flat, v: Vector) -> bool:
    return contains_vector(config.field, f.direction,
                           vec_sub(config.field, v, f.rep))


def flat_contains_flat(config: SpaceConfig, big: Flat, small: Flat) -> bool:
    return (contains_subspace(config.field, big.direction, small.direction)
            and flat_contains_point(config, big, small.rep))


def solve_field_system(config: SpaceConfig, rows: list[list[int]],
                       rhs: list[int]) -> list[int] | None:
    """Solve rows @ y = rhs over F_q from the RREF of [rows | rhs]; None
    when inconsistent (the right-hand column holds a pivot)."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref(config.field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    y = [0] * ncols
    for row, pc in zip(reduced, pivots):
        y[pc] = row[ncols]
    return y


def flat_meet(config: SpaceConfig, f1: Flat, f2: Flat) -> Flat | None:
    """Intersection flat, or None when the cosets are disjoint."""
    fld = config.field
    diff = vec_sub(fld, f2.rep, f1.rep)
    total = sum_subspace(config, f1.direction, f2.direction)
    if not contains_vector(fld, total, diff):
        return None
    # coefficients (a | b) with a.B1 - b.B2 = rep2 - rep1
    b1, b2 = f1.direction.basis, f2.direction.basis
    neg = fld.neg_table
    columns = [list(r) for r in b1] + [[neg[c] for c in r] for r in b2]
    eqs = [list(coord) for coord in zip(*columns)] if columns else []
    if eqs:
        y = solve_field_system(config, eqs, list(diff))
        if y is None:
            raise AssertionError("meeting cosets gave an unsolvable coefficient system")
        common = f1.rep
        for coeff, row in zip(y[:len(b1)], b1):
            if coeff:
                mr = fld.mul_table[coeff]
                common = tuple(fld.add(a, mr[b]) for a, b in zip(common, row))
    else:
        common = f1.rep
    inter = intersect_subspace(config, f1.direction, f2.direction)
    return flat_make(config, inter, common)


def flat_join(config: SpaceConfig, f1: Flat, f2: Flat) -> Flat:
    """The minimal flat containing both cosets."""
    fld = config.field
    diff = vec_sub(fld, f2.rep, f1.rep)
    direction = canonicalize(
        config, list(f1.direction.basis) + list(f2.direction.basis) + [diff])
    return flat_make(config, direction, f1.rep)


# ---------------------------------------------------------------------------
# enumeration

def coset_representatives(config: SpaceConfig, direction: Subspace) -> list[Vector]:
    """Canonical representatives (zero at pivot columns), lexicographic."""
    n = config.dim
    free = [j for j in range(n) if j not in direction.pivots]
    reps = []
    for vals in product(range(config.q), repeat=len(free)):
        v = [0] * n
        for j, c in zip(free, vals):
            v[j] = c
        reps.append(tuple(v))
    return reps


def count_flats(config: SpaceConfig, m: int) -> int:
    """Closed-form size of the set of type-(m,0) flats: q^(2nu-m) cosets per direction."""
    directions = count_isotropic(config, m)
    return config.q ** (2 * config.nu - m) * directions


def count_flats_through(config: SpaceConfig, i: int, j: int) -> int:
    """Closed-form size of the pencil of type-(j,0) flats over a type-(i,0) flat."""
    n = gauss_binomial(config.nu - i, j - i, config.q)
    for t in range(config.nu - j + 1, config.nu - i + 1):
        n *= qh_plus_one(config, t)
    return n


@lru_cache(maxsize=None)
def enumerate_flats(config: SpaceConfig, m: int) -> tuple[Flat, ...]:
    """All type-(m,0) flats; index in this tuple is the flat's stable id."""
    expected = count_flats(config, m)
    if expected > FLAT_ENUM_BOUND:
        raise ValueError(f"flat enumeration bound exceeded: {expected} > {FLAT_ENUM_BOUND}")
    out = []
    for direction in enumerate_isotropic(config, m):
        for rep in coset_representatives(config, direction):
            out.append(Flat(direction, rep))
    return tuple(out)


@lru_cache(maxsize=None)
def flat_ids(config: SpaceConfig) -> dict[Flat, int]:
    """Flat -> id lookup for the maximal totally isotropic flats."""
    return {f: i for i, f in enumerate(enumerate_flats(config, config.nu))}


def flats_through(config: SpaceConfig, f: Flat, j: int) -> list[Flat]:
    """All type-(j,0) flats containing f (f of smaller or equal type).

    A direction d holds at most one of them: f's direction must lie in d,
    and then the flat of d through f.rep, whose id within d's block is the
    syndrome key of f.rep under the parity check of d (the keys of
    coset_representatives count 0, 1, ...).
    """
    if j < f.dim:
        raise ValueError("pencil dimension below the base flat's")
    flats = enumerate_flats(config, j)
    dirs = enumerate_isotropic(config, j)
    inside = np.flatnonzero(subspaces_contain(config, dirs, [f.direction])[:, 0])
    checks = subspace_checks(config, [dirs[d] for d in inside])
    keys = syndrome_keys(config, checks, [f.rep])[:, 0]
    per = len(flats) // len(dirs)
    return [flats[k] for k in (inside * per + keys).tolist()]


def flats_in(config: SpaceConfig, big: Flat) -> list[Flat]:
    """Members of the maximal-flat family lying inside a container flat.

    A flat lies inside iff the basis of its direction has syndrome zero
    under the parity check of the container's direction and its
    representative has the container representative's syndrome.
    """
    _check_container(config, big)
    flats = enumerate_flats(config, config.nu)
    dirs = enumerate_isotropic(config, config.nu)
    inside = subspaces_contain(config, [big.direction], dirs)[0]
    check = subspace_checks(config, [big.direction])
    keys = syndrome_keys(config, check, [f.rep for f in flats] + [big.rep])[0]
    per = len(flats) // len(dirs)
    hits = np.repeat(inside, per) & (keys[:-1] == keys[-1])
    return [flats[k] for k in np.flatnonzero(hits)]


def _check_container(config: SpaceConfig, big: Flat) -> int:
    """Validate type (nu+i, 2i) for some 1 <= i < nu; returns i."""
    i = big.dim - config.nu
    if not 1 <= i < config.nu:
        raise ValueError(f"container dimension {big.dim} not in range")
    if gram_rank(config, big.direction) != 2 * i:
        raise ValueError("container direction does not have Gram rank 2i")
    return i


def container_flats(config: SpaceConfig, s: Flat, i: int) -> list[Flat]:
    """All type-(nu+i, 2i) flats containing the maximal flat s."""
    if not 1 <= i < config.nu:
        raise ValueError(f"i={i} out of range")
    if not is_totally_isotropic_flat(config, s) or s.dim != config.nu:
        raise ValueError("base flat must be maximal totally isotropic")
    fld = config.field
    layer = {s.direction}
    for _ in range(i):
        nxt = set()
        for sub in layer:
            for v in _complement_vectors(config, sub):
                nxt.add(canonicalize(config, list(sub.basis) + [v]))
        layer = nxt
    out = [flat_make(config, sub, s.rep) for sub in sorted(layer, key=Subspace.flat_key)
           if gram_rank(config, sub) == 2 * i]
    if not all(flat_contains_flat(config, t, s) for t in out):
        raise AssertionError("a container flat does not contain the base flat")
    return out


def _complement_vectors(config: SpaceConfig, sub: Subspace):
    fld = config.field
    for v in all_vectors(config):
        if any(v) and not contains_vector(fld, sub, v):
            yield v


def is_totally_isotropic_flat(config: SpaceConfig, f: Flat) -> bool:
    return gram_rank(config, f.direction) == 0


# ---------------------------------------------------------------------------
# incidence

@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 incidence of points (rows) against flats (columns)."""

    points: tuple[Vector, ...]
    flats: tuple[Flat, ...]
    matrix: np.ndarray  # int64, read-only
    ids: np.ndarray     # the flats' ids, ascending, read-only

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@lru_cache(maxsize=None)
def coset_table(config: SpaceConfig) -> np.ndarray:
    """coset_of[d, x]: the id of the maximal flat of direction d through point x.

    Flat ids run direction-major with the representatives in
    coset_representatives order, and the flat of d through x has the
    representative reduce_mod(d, x), so its id is d q^nu plus the
    syndrome key of x under the parity check of d.
    """
    dirs = enumerate_isotropic(config, config.nu)
    per = config.q**config.nu
    if len(enumerate_flats(config, config.nu)) != per * len(dirs):
        raise AssertionError(f"expected {per} cosets for each of {len(dirs)} directions")
    table = (syndrome_keys(config, subspace_checks(config, dirs), point_array(config))
             + per * np.arange(len(dirs), dtype=np.int64)[:, None])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def flat_point_table(config: SpaceConfig) -> np.ndarray:
    """points_of[f]: the point indices of maximal flat f, ascending, in id
    order; int64 (n, q^nu), read-only.  Flat ids run direction-major, so
    the stable argsort of each coset_table row lists the points of its
    direction's flats one flat after another."""
    table = np.argsort(coset_table(config), axis=1, kind="stable").reshape(-1, config.q**config.nu)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def incidence_matrix(config: SpaceConfig) -> IncidenceMatrix:
    """Full point vs maximal-flat incidence (rows in point-index order).

    Point x lies on one flat of each direction, coset_table(config)[:, x].
    """
    flats = enumerate_flats(config, config.nu)
    pts = all_vectors(config)
    M = np.zeros((len(pts), len(flats)), dtype=np.int64)
    M[np.arange(len(pts)), coset_table(config)] = 1
    ids = np.arange(len(flats))
    M.flags.writeable = ids.flags.writeable = False
    return IncidenceMatrix(tuple(pts), flats, M, ids)


@lru_cache(maxsize=None)
def incidence_matrix_in(config: SpaceConfig, big: Flat) -> IncidenceMatrix:
    """Incidence of the container's points against its interior maximal flats.

    A slice of incidence_matrix: the rows are the points whose syndrome
    key under the parity check of the container's direction is the key
    of its representative (in point-index order), the columns the ids of
    flats_in.
    """
    members = flats_in(config, big)
    check = subspace_checks(config, [big.direction])
    keys = syndrome_keys(config, check, np.vstack([point_array(config), [big.rep]]))[0]
    rows = np.flatnonzero(keys[:-1] == keys[-1])
    ids = np.array([flat_ids(config)[f] for f in members], dtype=np.int64)
    inc = incidence_matrix(config)
    M = inc.matrix[np.ix_(rows, ids)]
    M.flags.writeable = ids.flags.writeable = False
    return IncidenceMatrix(tuple(inc.points[r] for r in rows), tuple(members), M, ids)


@lru_cache(maxsize=None)
def incidence_null_basis_in(config: SpaceConfig, big: Flat) -> exact.NullBasis:
    """The certified integer basis of the kernel of incidence_matrix_in.

    A restriction to the container is in the image of the transposed
    container incidence matrix iff this basis annihilates it.
    """
    return exact.certified_null_basis(incidence_matrix_in(config, big).matrix)


@lru_cache(maxsize=None)
def gram_identity_terms(config: SpaceConfig) -> tuple[int, int]:
    """(point multiplier, neighbour multiplier) of the M M^T decomposition."""
    a = prod(qh_plus_one(config, t) for t in range(1, config.nu + 1))
    b = prod(qh_plus_one(config, t) for t in range(1, config.nu))
    return a, b


def check_gram_identity(config: SpaceConfig) -> bool:
    """M M^T == a*I + b*A exactly, with A the point-graph adjacency."""
    M = incidence_matrix(config).matrix
    a, b = gram_identity_terms(config)
    N = exact.int_matmul(M, M.T)
    A = point_graph(config)
    expected = a * np.eye(M.shape[0], dtype=np.int64) + b * A
    return bool((N == expected).all())


@lru_cache(maxsize=None)
def incidence_kernel(config: SpaceConfig) -> exact.NullBasis:
    """The certified integer basis N of ker M.

    N is built from the RREF of M over GF(p), rebuilt over Q by rational
    reconstruction and checked exactly (exact.certified_null_basis).  A
    flat set chi is in the image of M^T iff N chi = 0, since the image is
    the orthogonal complement of ker M; this uses no spread.  N backs
    incidence_rank; the membership routes, single sets and batches,
    decide by the translation-character basis instead
    (spreads.membership_plan), and N is their test oracle.
    """
    return exact.certified_null_basis(incidence_matrix(config).matrix)


@lru_cache(maxsize=None)
def incidence_rank(config: SpaceConfig) -> int:
    """Exact rank of the incidence matrix, proven by its certified null basis."""
    return len(incidence_kernel(config).pivots)


def incidence_rank_closed_form(config: SpaceConfig) -> int:
    q, nu = config.q, config.nu
    return (q**nu - 1) * (e_power(config, 2 * nu - 2 + config.e2) + 1) + 1

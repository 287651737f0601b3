"""Flats (cosets of subspaces), their lattice operations, and incidence.

A flat is a direction subspace plus the unique coset representative with
zero coordinates at the direction's pivot columns.  Enumeration of the
type-(m,0) flats orders them by (direction canonical index, representative
lexicographic), which fixes the FlatId used by every set type downstream.
The flat of direction d through a point x has the id d q^nu plus the
syndrome key of x under the parity check of d (geometry.syndrome_keys),
so coset_table and the incidence matrix are one syndrome pass over all
points, and point_mask, flat_ids_in and flats_through test containment
by syndromes too.  The distance i = nu - dim(da meet db) of every pair
of maximal directions is one exact product of their origin indicators
in coset_table (direction_distances), and the type-(nu+i, 2i) flats
through a maximal flat are the sums of its direction with the
directions at distance i (container_flats).  The exact rank of the
point-flat incidence matrix M is read off the certified spectrum of
G = M M^T (gram_spectrum): G has two or three distinct eigenvalues, each
proposed by a float and certified by exact products, with no
elimination.  The image route, of single sets and of batches alike, and
the restrictions to container flats read the translation-character
bases of ker M and of each container's incidence
(spreads.membership_plan).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def point_mask(config: SpaceConfig, f: Flat) -> np.ndarray:
    """Whether each point, in point-index order, lies on the flat f; bool.

    x lies on f iff x - f.rep lies in f's direction, iff x has the
    syndrome key of f.rep under the direction's parity check.
    """
    check = subspace_checks(config, [f.direction])
    keys = syndrome_keys(config, check, np.vstack([point_array(config), [f.rep]]))[0]
    return keys[:-1] == keys[-1]


def flat_ids_in(config: SpaceConfig, big: Flat) -> np.ndarray:
    """The ids of the maximal flats inside a container flat, ascending; int64.

    A flat lies inside iff the basis of its direction has syndrome zero
    under the parity check of the container's direction and its first
    point lies on the container (point_mask).  Ids run direction-major, so
    each interior direction holds q^i consecutive ids.  Raises ValueError
    unless the container has type (nu+i, 2i), 1 <= i < nu.
    """
    _check_container(config, big)
    dirs = enumerate_isotropic(config, config.nu)
    inside = np.flatnonzero(subspaces_contain(config, [big.direction], dirs)[0])
    per = config.q**config.nu
    ids = (inside[:, None] * per + np.arange(per)).ravel()
    return ids[point_mask(config, big)[flat_point_table(config)[ids, 0]]]


def flats_in(config: SpaceConfig, big: Flat) -> list[Flat]:
    """Members of the maximal-flat family lying inside a container flat, by id."""
    flats = enumerate_flats(config, config.nu)
    return [flats[k] for k in flat_ids_in(config, big).tolist()]


def _check_container(config: SpaceConfig, big: Flat) -> int:
    """Validate type (nu+i, 2i) for some 1 <= i < nu; returns i."""
    i = big.dim - config.nu
    if not 1 <= i < config.nu:
        raise ValueError(f"container dimension {big.dim} not in range")
    if gram_rank(config, big.direction) != 2 * i:
        raise ValueError("container direction does not have Gram rank 2i")
    return i


def container_flats(config: SpaceConfig, s: Flat, i: int) -> list[Flat]:
    """All type-(nu+i, 2i) flats containing the maximal flat s, in
    Subspace.flat_key order of their directions.

    Their directions W are the sums d + d' of the direction d of s with
    the maximal directions d' at distance i from it (direction_distances).
    W has a radical R of dimension nu - i, which lies in d by maximality,
    and d = R + L for a Lagrangian L of a complement H of R in W; H is
    hyperbolic, so it has a Lagrangian L' with L and L' meeting in 0, and
    d' = R + L' is maximal with d + d' = W.  Conversely, for d' at
    distance i, a vector of d orthogonal to d' lies in d', and one of d'
    orthogonal to d in d, by maximality, so the radical of d + d' is
    d meet d', of dimension nu - i, and d + d' has Gram rank 2i.  A sum
    of another Gram rank is an internal error.
    """
    if not 1 <= i < config.nu:
        raise ValueError(f"i={i} out of range")
    if not is_totally_isotropic_flat(config, s) or s.dim != config.nu:
        raise ValueError("base flat must be maximal totally isotropic")
    dirs = enumerate_isotropic(config, config.nu)
    d = dirs.index(s.direction)
    sums = {sum_subspace(config, s.direction, dirs[e])
            for e in np.flatnonzero(direction_distances(config)[d] == i).tolist()}
    out = []
    for w in sorted(sums, key=Subspace.flat_key):
        if gram_rank(config, w) != 2 * i:
            raise AssertionError(f"a sum of two maximal directions of {config.key()} at "
                                 f"distance {i} does not have Gram rank {2 * i}")
        out.append(flat_make(config, w, s.rep))
    return out


def is_totally_isotropic_flat(config: SpaceConfig, f: Flat) -> bool:
    return gram_rank(config, f.direction) == 0


# ---------------------------------------------------------------------------
# incidence

@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 incidence of points (rows) against flats (columns)."""

    matrix: np.ndarray  # int64, read-only

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
def direction_distances(config: SpaceConfig) -> np.ndarray:
    """rd[da, db] = i for every pair of maximal directions, with
    dim(da meet db) = nu - i; int8 (D, D), read-only.

    The flats of da and db through the origin share q^(nu - i) points,
    counted for every direction pair by one exact product of the origin
    indicators of coset_table; a count that is no power q^k, k <= nu, is
    an internal error.
    """
    coset_of = coset_table(config)
    nu, q = config.nu, config.q
    origin = coset_of == coset_of[:, :1]
    shared = exact.int_matmul(origin, origin.T)
    powers = q ** np.arange(nu + 1, dtype=np.int64)
    k = np.minimum(np.searchsorted(powers, shared), nu)
    if (powers[k] != shared).any():
        raise AssertionError(f"two directions of {config.key()} share a number of points "
                             f"that is no power of q up to q^{nu}")
    rd = (nu - k).astype(np.int8)
    rd.flags.writeable = False
    return rd


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
    n = len(enumerate_flats(config, config.nu))
    M = np.zeros((config.num_points, n), dtype=np.int64)
    M[np.arange(config.num_points), coset_table(config)] = 1
    M.flags.writeable = False
    return IncidenceMatrix(M)


@lru_cache(maxsize=None)
def gram_identity_terms(config: SpaceConfig) -> tuple[int, int]:
    """(point multiplier, neighbour multiplier) of the M M^T decomposition."""
    a = prod(qh_plus_one(config, t) for t in range(1, config.nu + 1))
    b = prod(qh_plus_one(config, t) for t in range(1, config.nu))
    return a, b


@lru_cache(maxsize=None)
def gram_matrix(config: SpaceConfig) -> np.ndarray:
    """G = M M^T, points x points, by one exact product; int64, read-only."""
    M = incidence_matrix(config).matrix
    G = exact.int_matmul(M, M.T)
    G.flags.writeable = False
    return G


def check_gram_identity(config: SpaceConfig) -> bool:
    """M M^T == a*I + b*A exactly, with A the point-graph adjacency."""
    a, b = gram_identity_terms(config)
    I = np.eye(config.num_points, dtype=np.int64)
    return bool((gram_matrix(config) == a * I + b * point_graph(config)).all())


def projector_polynomial(mu: tuple[int, ...], i: int) -> list[Fraction]:
    """The coefficients, lowest degree first, of the Lagrange polynomial
    prod over j != i of (x - mu_j) / (mu_i - mu_j), which is 1 at mu_i and
    0 at every other mu_j; at x = G it is the projector E_i onto the
    mu_i-eigenspace once G has no eigenvalue off mu."""
    coeffs = [Fraction(1)]
    for m in mu[:i] + mu[i + 1:]:
        coeffs = [(low - m * c) / (mu[i] - m) for low, c in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@lru_cache(maxsize=None)
def gram_spectrum(config: SpaceConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(mu, m): the distinct eigenvalues of G = M M^T, ascending, and their
    multiplicities, certified exactly; AssertionError if the certificate
    fails.

    A float only proposes: the candidates mu are np.linalg.eigvalsh(G)
    rounded to integers.  G is symmetric, so prod_i (G - mu_i I) = 0, at
    most two exact products, proves that every eigenvalue of G is among
    them; then E_i = projector_polynomial(mu, i) at G is the projector onto
    the mu_i-eigenspace and m_i = tr E_i, read off tr G^0 = n, tr G and
    tr G^2 = sum of G_jk^2, with no matrix power.  A candidate that is no
    eigenvalue has m_i = 0, so the m_i must be positive integers summing
    to n.  G = a I + b A for the point graph A, complete or strongly
    regular (check_gram_identity), so at most three candidates are taken.
    """
    G = gram_matrix(config)
    n, I = len(G), np.eye(len(G), dtype=np.int64)
    mu = tuple(int(e) for e in exact.sorted_unique(np.rint(np.linalg.eigvalsh(G))))
    if len(mu) <= 3:
        product = G - mu[0] * I
        for e in mu[1:]:
            product = exact.int_matmul(product, G - e * I)
        # tr G^0, tr G and tr G^2 = sum of G_jk^2 (G is symmetric), by one guarded product
        flat = G.reshape(1, -1)
        tr = (n, np.trace(G).item(), exact.int_matmul(flat, flat.T).item())
        m = [sum(c * t for c, t in zip(projector_polynomial(mu, i), tr)) for i in range(len(mu))]
        if not product.any() and all(k.denominator == 1 and k > 0 for k in m) and sum(m) == n:
            return mu, tuple(int(k) for k in m)
    raise AssertionError(f"eigenvalue certificate of M M^T fails on {config.key()}: {list(mu)}")


@lru_cache(maxsize=None)
def incidence_rank(config: SpaceConfig) -> int:
    """Exact rank of the incidence matrix: rank M = rank M M^T over the
    reals, the sum of the multiplicities of the nonzero eigenvalues of the
    certified spectrum (gram_spectrum)."""
    return sum(k for e, k in zip(*gram_spectrum(config)) if e)


def incidence_rank_closed_form(config: SpaceConfig) -> int:
    q, nu = config.q, config.nu
    return (q**nu - 1) * (e_power(config, 2 * nu - 2 + config.e2) + 1) + 1

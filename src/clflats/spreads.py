"""Spreads and switching sets of maximal totally isotropic flats.

A full spread partitions the scope's points into q^nu flats.  Two
constructive families exist: type I (all cosets of one maximal totally
isotropic subspace) and, for nu >= 2, type II (mix the cosets of two
distinct maximal totally isotropic subspaces inside a common
type-(nu+1, 2) subspace).  Members are stored as sorted global FlatIds;
a container scope is recorded alongside.  The whole constructive family
is one int64 array, family_members.  Flat ids run direction-major, so
its type-I rows are the ids in blocks of q^nu, one block per maximal
direction, and every type-I fact is read off that layout: their number
is the number of directions, a set's intersections with them are block
sums of its indicator, a spread is type I iff its members share one
block, and their rank is their number, since their supports are
disjoint.  The type-II rows are gathered from flats.coset_table, the
flat of each direction through each point, with the cosets of each
container told apart by the syndrome keys of the points under the
container's parity check (geometry.syndrome_keys); the interior
directions of a container are those whose bases have syndrome zero.
list_type_I and list_type_II wrap the rows as Spreads for the CLI.

The type-II spreads (type I at nu = 1) span the orthogonal complement
of the parallel-class eigenspace, of dimension
n - m_(0,1) = n - rank M + 1.  spanning_rows keeps their first
independent rows in one GF(p) elimination of a fixed shuffle.  That
one count is both the rank the type-II span check reports and the
certificate that the differences of the spreads span ker M, which
makes the constructive spread route of the membership test
conclusive.  A stack rank with no such proof is read off the stack's
certified null basis.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exact
from .field import e_power
from .flats import (
    Flat,
    coset_representatives,
    coset_table,
    enumerate_flats,
    flat_ids,
    flat_make,
    flat_points,
    flats_in,
    incidence_matrix,
)
from .geometry import (
    SpaceConfig,
    Subspace,
    all_vectors,
    canonicalize,
    contains_subspace,
    enumerate_isotropic,
    gram_rank,
    is_totally_isotropic,
    point_array,
    point_index,
    span_points,
    subspace_checks,
    subspaces_contain,
    syndrome_keys,
    vec_add,
)
from .scheme import PRODUCT_COLUMNS, idempotent_coefficients, relation_products, scheme_tables

EXHAUSTIVE_POINT_BOUND = 32


@dataclass(frozen=True)
class Spread:
    """A set of pairwise disjoint maximal flats, scoped to a flat or the space."""

    members: tuple[int, ...]          # sorted global FlatIds
    scope: Flat | None = None         # None = full space
    tag: str = "other"                # "I", "II", or "other"


def spread_type_I(config: SpaceConfig, direction: Subspace) -> Spread:
    """All q^nu cosets of one maximal totally isotropic subspace."""
    if direction.dim != config.nu or not is_totally_isotropic(config, direction):
        raise ValueError("type-I spreads need a maximal totally isotropic direction")
    ids = flat_ids(config)
    members = sorted(ids[flat_make(config, direction, rep)]
                     for rep in coset_representatives(config, direction))
    return Spread(tuple(members), None, "I")


def _check_container(config: SpaceConfig, container: Subspace) -> None:
    """The container preconditions of a type-II spread."""
    if config.nu < 2:
        raise ValueError("type-II spreads need nu >= 2")
    if container.dim != config.nu + 1 or gram_rank(config, container) != 2:
        raise ValueError("container must be a type-(nu+1, 2) subspace")


def _check_direction(config: SpaceConfig, p: Subspace) -> None:
    """A direction of a type-II spread must be maximal totally isotropic."""
    if p.dim != config.nu or not is_totally_isotropic(config, p):
        raise ValueError("directions must be maximal totally isotropic")


def spread_type_II(config: SpaceConfig, container: Subspace,
                   p1: Subspace, p2: Subspace, shift=None) -> Spread:
    """Cosets of p1 inside a coset of the container, cosets of p2 outside it.

    The base construction uses the container subspace itself; an optional
    shift translates the split, which is how the affine group moves these
    spreads around (translates are genuinely new once q > 2); a shift does
    not affect the preconditions.
    """
    _check_container(config, container)
    if p1 == p2:
        raise ValueError("the two directions must be distinct")
    for p in (p1, p2):
        _check_direction(config, p)
        if not contains_subspace(config.field, container, p):
            raise ValueError("directions must lie inside the container")
    fld = config.field
    ids = flat_ids(config)
    if shift is None:
        inside = span_points(config, container)
    else:
        inside = {vec_add(fld, y, tuple(shift)) for y in span_points(config, container)}
    members = {ids[flat_make(config, p1, y)] for y in inside}
    members |= {ids[flat_make(config, p2, y)] for y in all_vectors(config)
                if y not in inside}
    return Spread(tuple(sorted(members)), None, "II")


def _type_I_members(config: SpaceConfig) -> np.ndarray:
    """Member ids of the type-I spreads, one row per direction: flat ids run
    direction-major, q^nu cosets to a direction."""
    n = len(enumerate_flats(config, config.nu))
    return np.arange(n, dtype=np.int64).reshape(-1, config.q**config.nu)


@lru_cache(maxsize=None)
def list_type_I(config: SpaceConfig) -> tuple[Spread, ...]:
    """The type-I spreads, in direction order: the first rows of family_members."""
    return tuple(Spread(tuple(row), None, "I") for row in _type_I_members(config).tolist())


@lru_cache(maxsize=None)
def type_II_components(config: SpaceConfig) -> tuple[tuple[Subspace, tuple[Subspace, ...]], ...]:
    """All type-(nu+1,2) subspaces with their interior maximal isotropics.

    A container p + <v> depends only on the coset v + p, so each p is
    extended by its nonzero coset representatives alone, and each new
    container's Gram rank is checked once.  A maximal isotropic lies in
    a container iff its basis has syndrome zero under the container's
    parity check; one syndrome_keys call tests every pair.
    """
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
    expected_interior = e_power(config, config.e2) + 1
    out = []
    for q_sub, inside in zip(containers, subspaces_contain(config, containers, maxes)):
        interior = tuple(p for p, ok in zip(maxes, inside) if ok)
        if len(interior) != expected_interior:
            raise AssertionError(
                f"container with {len(interior)} interior maximals, expected {expected_interior}")
        out.append((q_sub, interior))
    return tuple(out)


@lru_cache(maxsize=None)
def list_type_II(config: SpaceConfig) -> tuple[Spread, ...]:
    """Every type-II spread: containers, ordered direction pairs, all shifts.

    Shifts range over coset representatives of the container, closing the
    family under the affine group (needed for the span results).  These
    are the rows of family_members after the type-I ones.
    """
    if config.nu < 2:
        raise ValueError("type-II spreads need nu >= 2")
    rows = family_members(config)[len(enumerate_isotropic(config, config.nu)):]
    return tuple(Spread(tuple(row), None, "II") for row in rows.tolist())


@lru_cache(maxsize=None)
def family_members(config: SpaceConfig) -> np.ndarray:
    """Member ids of the constructive family, one spread per row.

    Type-I spreads come first, then the type-II ones when nu >= 2, each
    part in lexicographic order without repeats.  Every spread covers
    each point once, so differences of rows lie in the kernel of the
    incidence matrix; spanning_rows certifies that they span it.
    """
    members = _type_I_members(config)
    if config.nu >= 2:
        members = np.vstack([members, _type_II_members(config)])
    members.flags.writeable = False
    return members


def family_indicators(config: SpaceConfig, rows=slice(None)) -> np.ndarray:
    """0/1 int8 indicator vectors of the spreads family_members(config)[rows]."""
    members = family_members(config)[rows]
    stack = np.zeros((members.shape[0], len(enumerate_flats(config, config.nu))), dtype=np.int8)
    np.put_along_axis(stack, members, 1, axis=1)
    return stack


@lru_cache(maxsize=None)
def spanning_rows(config: SpaceConfig) -> tuple[int, ...]:
    """Rows of family_members(config) that are independent and span the
    parallel-class complement, found by one GF(p) elimination.

    The spanning rows are the type-II spreads, or the type-I ones at
    nu = 1.  They span a space of dimension at most n - m_(0,1), so the
    elimination of their fixed shuffle stops there; neighbouring spreads
    of the sorted family share members, so the shuffle meets independent
    rows sooner.  Rows independent over GF(p) are independent over Q.
    Every kept row s covers each point once, M s^T = 1, checked exactly
    here.  So k kept rows give k - 1 independent differences in ker M,
    and k = n - rank M + 1 proves that the differences span ker M.
    """
    split = len(enumerate_isotropic(config, config.nu)) if config.nu >= 2 else 0
    tables = scheme_tables(config)
    target = tables.size - tables.multiplicities[(0, 1)]
    stack = family_indicators(config, slice(split, None))
    order = random.Random(0).sample(range(len(stack)), len(stack))
    independent = exact.modular_echelon(stack[order], exact.MODULAR_PRIMES[0], stop_at=target)[2]
    kept = [split + order[k] for k in independent]
    cover = exact.int_matmul(incidence_matrix(config).matrix, family_indicators(config, kept).T)
    if (cover != 1).any():
        raise AssertionError(f"a kept spanning spread of {config.key()} does not cover "
                             "each point once")
    return tuple(kept)


def _type_II_members(config: SpaceConfig) -> np.ndarray:
    """The sorted, distinct member rows of every type-II spread.

    coset_of[d, x] is the flat of direction d through point x, and the
    syndrome key of x under a container's parity check labels the coset
    of the container through x; one syndrome_keys call labels every
    point for every container.  A spread from container Q, directions
    (p1, p2) and a shift takes coset_of[p1] on the shift's coset of Q
    and coset_of[p2] off it; one np.where gives the flat through every
    point for every ordered pair and shift of a container at once.  A
    flat has q^nu points, so a sorted row that lists each of its members
    exactly q^nu times covers each point exactly once; that is checked.
    """
    direction_index = {d: k for k, d in enumerate(enumerate_isotropic(config, config.nu))}
    coset_of = coset_table(config)
    per = config.q**config.nu
    components = type_II_components(config)
    # the preconditions of spread_type_II, once per container and direction
    for q_sub, _ in components:
        _check_container(config, q_sub)
    for p in dict.fromkeys(p for _, interior in components for p in interior):
        _check_direction(config, p)
    checks = subspace_checks(config, [q_sub for q_sub, _ in components])
    interiors = np.array([[p.basis for p in interior] for _, interior in components])
    if syndrome_keys(config, checks, interiors.reshape(len(checks), -1, config.dim)).any():
        raise ValueError("directions must lie inside the container")
    labels = syndrome_keys(config, checks, point_array(config))
    rows = []
    for (_, interior), label in zip(components, labels):
        inside = exact.sorted_unique(label)[:, None] == label
        first, second = zip(*itertools.permutations(
            [direction_index[p] for p in interior], 2))
        spread = np.where(inside, coset_of[list(first)][:, None], coset_of[list(second)][:, None])
        spread.sort(axis=2)
        groups = spread.reshape(-1, per, per)
        members = groups[:, :, 0]
        if ((members[:, 0] < 0).any() or (groups != members[:, :, None]).any()
                or (np.diff(members, axis=1) <= 0).any()):
            raise AssertionError(
                f"a type-II spread of {config.key()} does not cover each point once")
        rows.append(members)
    return _unique_rows(np.concatenate(rows))


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """np.unique(a, axis=0) for an integer matrix, by one lexicographic sort
    (np.unique imports numpy.ma on first use under numpy 2)."""
    ordered = a[np.lexsort(a.T[::-1])]
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[new]


# ---------------------------------------------------------------------------
# classification

def coverage(config: SpaceConfig, member_ids) -> np.ndarray:
    M = incidence_matrix(config).matrix
    ids = sorted(member_ids)
    if not ids:
        return np.zeros(M.shape[0], dtype=np.int64)
    return M[:, ids].sum(axis=1)


def classify_set(config: SpaceConfig, member_ids, scope: Flat | None = None) -> str:
    """'partial_spread', 'full_spread', or 'neither' by point-set checks."""
    cov = coverage(config, member_ids)
    if scope is None:
        if cov.max(initial=0) > 1:
            return "neither"
        return "full_spread" if member_ids and cov.min(initial=1) == 1 else "partial_spread"
    scope_idx = sorted(point_index(config, p) for p in flat_points(config, scope))
    outside = np.ones(cov.shape[0], dtype=bool)
    outside[scope_idx] = False
    if cov[outside].max(initial=0) > 0:
        return "neither"
    inside = cov[scope_idx]
    if inside.max(initial=0) > 1:
        return "neither"
    return "full_spread" if member_ids and inside.min(initial=1) == 1 else "partial_spread"


def is_switching_pair(config: SpaceConfig, first, second,
                      scope: Flat | None = None) -> bool:
    """Disjoint partial spreads covering exactly the same points."""
    a, b = set(first), set(second)
    if a & b:
        return False
    if classify_set(config, a, scope) == "neither":
        return False
    if classify_set(config, b, scope) == "neither":
        return False
    return bool((coverage(config, a) == coverage(config, b)).all())


# ---------------------------------------------------------------------------
# exhaustive search

@dataclass(frozen=True)
class SpreadSearch:
    spreads: tuple[Spread, ...]
    exhaustive: bool


def enumerate_spreads(config: SpaceConfig, scope: Flat | None = None) -> SpreadSearch:
    """All spreads of the scope by backtracking over the least uncovered point.

    Bounded at 32 scope points; beyond the bound the constructive
    type-I-within-scope family is returned with exhaustive=False.  Each
    candidate flat is an int64 mask of its scope points, read off the
    incidence rows of those points.  A spread is tagged "I" when its
    members lie in one direction block of the ids, "II" when it is a
    type-II row of family_members, and "other" otherwise.
    """
    if scope is None:
        scope_points = list(range(config.num_points))
        candidates = list(range(len(enumerate_flats(config, config.nu))))
    else:
        scope_points = sorted(point_index(config, p) for p in flat_points(config, scope))
        candidates = [flat_ids(config)[f] for f in flats_in(config, scope)]
    if len(scope_points) > EXHAUSTIVE_POINT_BOUND:
        if scope is None:
            raise ValueError(
                f"exhaustive search bound exceeded ({len(scope_points)} points)")
        return SpreadSearch(_scope_type_I_family(config, scope, scope_points, candidates),
                            exhaustive=False)

    block = incidence_matrix(config).matrix[np.ix_(scope_points, candidates)]
    flat_masks = dict(zip(candidates, (1 << np.arange(len(scope_points), dtype=np.int64))
                          .dot(block).tolist()))
    full_mask = (1 << len(scope_points)) - 1
    # candidates that can cover a given least-uncovered point
    contains_point = [[candidates[c] for c in np.flatnonzero(row)] for row in block]
    solutions: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def backtrack(covered: int) -> None:
        if covered == full_mask:
            solutions.append(tuple(sorted(chosen)))
            return
        low = ((~covered) & full_mask)
        low = (low & -low).bit_length() - 1
        for fid in contains_point[low]:
            m = flat_masks[fid]
            if m & covered:
                continue
            chosen.append(fid)
            backtrack(covered | m)
            chosen.pop()

    backtrack(0)
    per = config.q**config.nu
    # a container scope is too small to hold a type-II spread
    type_II = set() if scope is not None else {
        tuple(row) for row in
        family_members(config)[len(enumerate_isotropic(config, config.nu)):].tolist()}
    spreads = tuple(
        Spread(members, scope, "I" if members[0] // per == members[-1] // per
               else "II" if members in type_II else "other")
        for members in sorted(set(solutions)))
    return SpreadSearch(spreads, exhaustive=True)


def _scope_type_I_family(config: SpaceConfig, scope: Flat, scope_points: list[int],
                         candidates: list[int]) -> tuple[Spread, ...]:
    """One spread per maximal totally isotropic subspace of the scope direction.

    Those are the directions of the flats inside the scope, and the
    flats of such a direction through the scope's points lie inside it,
    q^nu points to a flat; so the sorted coset-table row at the scope's
    points repeats each member q^nu times.
    """
    per = config.q**config.nu
    directions = sorted({fid // per for fid in candidates})
    rows = np.sort(coset_table(config)[np.ix_(directions, scope_points)], axis=1)[:, ::per]
    return tuple(Spread(tuple(row), scope, "I") for row in rows.tolist())


# ---------------------------------------------------------------------------
# span checks

@dataclass(frozen=True)
class SpanReport:
    family: str
    count: int
    rank: int
    expected_rank: int
    vanishing_ok: bool       # projections that the construction forces to zero
    nonvanishing_ok: bool    # projections that must stay nonzero per spread
    rank_method: str

    @property
    def ok(self) -> bool:
        return (self.rank == self.expected_rank and self.vanishing_ok
                and self.nonvanishing_ok)


def _stack_rank(stack: np.ndarray, expected: int, kept: int | None) -> tuple[int, str]:
    """Exact stack rank.  kept is a number of stack rows proven
    independent, where the caller has also proven the rank at most
    `expected` (the rows lie in a space of that dimension, or there are
    only that many rows), or None when it has no such proof; kept ==
    expected then certifies the rank.  Otherwise the rank is the pivot
    count of the stack's certified null basis, so a failing report shows
    the exact rank (a failed certificate raises)."""
    if kept == expected:
        return expected, "certified"
    return len(exact.certified_null_basis(stack).pivots), "null-basis"


def _nonzero_projections(config: SpaceConfig, eig, stack: np.ndarray) -> bool:
    """Whether every stack row has a nonzero projection under the idempotent.

    A seeded random functional of the idempotent witnesses nonzeroness in
    one pass (B_e is symmetric, so r^T B_e s = s . B_e r); rows it fails
    to witness get the exact full-column check.
    """
    w = idempotent_coefficients(config)[1][[scheme_tables(config).eigs.index(eig)]]
    rng = random.Random(("witness", config.key(), eig, 0).__repr__())
    r = np.array([rng.randrange(1, 64) for _ in range(stack.shape[1])], dtype=np.int64)
    projected = relation_products(config, w, r.reshape(-1, 1))[0]
    # PRODUCT_COLUMNS rows at a time, so no float64 copy of the whole stack is made
    witness = np.concatenate([exact.int_matmul(stack[s:s + PRODUCT_COLUMNS], projected)
                              for s in range(0, len(stack), PRODUCT_COLUMNS)])
    return all(relation_products(config, w, stack[i].reshape(-1, 1)).any()
               for i in np.flatnonzero(witness[:, 0] == 0))


def typeI_span_check(config: SpaceConfig) -> SpanReport:
    """Type-I characteristic vectors: independent, orthogonal to every eta=1 space.

    Each flat lies in exactly one type-I spread, and rows with disjoint,
    nonempty supports are independent over every field, so their rank is
    their number; only a stack whose supports overlap is eliminated.
    """
    stack = family_indicators(config, slice(len(enumerate_isotropic(config, config.nu))))
    tables = scheme_tables(config)
    # the eta = 1 idempotents (j, 1), j < nu, have codes 1, 3, ..., 2 nu - 1
    eta1 = idempotent_coefficients(config)[1][1:2 * config.nu:2]
    vanishing_ok = not relation_products(config, eta1, stack.T).any()
    nonvanishing_ok = all(_nonzero_projections(config, (j, 0), stack)
                          for j in range(config.nu + 1))
    expected = sum(tables.multiplicities[(j, 0)] for j in range(config.nu + 1))
    disjoint = (stack.sum(axis=0) <= 1).all() and stack.any(axis=1).all()
    rank, method = _stack_rank(stack, expected, len(stack) if disjoint else None)
    return SpanReport("I", len(stack), rank, expected, vanishing_ok,
                      nonvanishing_ok, method)


def typeII_span_check(config: SpaceConfig) -> SpanReport:
    """Type-II characteristic vectors: span the parallel-class complement."""
    if config.nu < 2:
        raise ValueError("type-II span check needs nu >= 2")
    stack = family_indicators(config, slice(len(enumerate_isotropic(config, config.nu)), None))
    tables = scheme_tables(config)
    parallel = idempotent_coefficients(config)[1][1:2]  # the (0, 1) idempotent
    # one block of spreads at a time, stopping at the first nonzero one
    vanishing_ok = not any(
        relation_products(config, parallel, stack[s:s + PRODUCT_COLUMNS].T).any()
        for s in range(0, len(stack), PRODUCT_COLUMNS))
    nonvanishing_ok = all(_nonzero_projections(config, eig, stack)
                          for eig in tables.eigs if eig[0] != 0)
    expected = tables.size - tables.multiplicities[(0, 1)]
    kept = len(spanning_rows(config)) if vanishing_ok else None
    rank, method = _stack_rank(stack, expected, kept)
    return SpanReport("II", len(stack), rank, expected, vanishing_ok,
                      nonvanishing_ok, method)

"""Spreads and switching sets of maximal totally isotropic flats.

A full spread partitions the scope's points into q^nu flats.  Two
constructive families exist: type I (all cosets of one maximal totally
isotropic subspace) and, for nu >= 2, type II (mix the cosets of two
distinct maximal totally isotropic subspaces inside a common
type-(nu+1, 2) subspace).  Members are stored as sorted global FlatIds;
a container scope is recorded alongside.  The whole constructive family
is one int64 array, family_members; its type-II rows are gathered from
flats.coset_table, the flat of each direction through each point, with
the cosets of each container told apart by the syndrome keys of the
points under the container's parity check (geometry.syndrome_keys);
the interior directions of a container are those whose bases have
syndrome zero.  list_type_II wraps the rows as Spreads.
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


@lru_cache(maxsize=None)
def list_type_I(config: SpaceConfig) -> tuple[Spread, ...]:
    return tuple(spread_type_I(config, d)
                 for d in enumerate_isotropic(config, config.nu))


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
    rows = family_members(config)[len(list_type_I(config)):]
    return tuple(Spread(tuple(row), None, "II") for row in rows.tolist())


@lru_cache(maxsize=None)
def family_members(config: SpaceConfig) -> np.ndarray:
    """Member ids of the constructive family, one spread per row.

    Type-I spreads come first, then the type-II ones when nu >= 2, each
    part in lexicographic order without repeats.  Every spread covers
    each point once, so differences of rows lie in the kernel of the
    incidence matrix; cl._kernel_basis certifies that they span it.
    """
    members = np.array([s.members for s in list_type_I(config)], dtype=np.int64)
    if config.nu >= 2:
        members = np.vstack([members, _type_II_members(config)])
    members.flags.writeable = False
    return members


def family_indicators(config: SpaceConfig, rows: slice = slice(None)) -> np.ndarray:
    """0/1 int8 indicator vectors of the spreads family_members(config)[rows]."""
    members = family_members(config)[rows]
    stack = np.zeros((members.shape[0], len(enumerate_flats(config, config.nu))), dtype=np.int8)
    np.put_along_axis(stack, members, 1, axis=1)
    return stack


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
        inside = np.unique(label)[:, None] == label
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
    return np.unique(np.concatenate(rows), axis=0)


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
    type-I-within-scope family is returned with exhaustive=False.
    """
    if scope is None:
        scope_points = list(range(config.num_points))
        candidates = list(range(len(enumerate_flats(config, config.nu))))
        tagger = _full_space_tag(config)
    else:
        scope_points = sorted(point_index(config, p) for p in flat_points(config, scope))
        candidates = [flat_ids(config)[f] for f in flats_in(config, scope)]
        tagger = None
    if len(scope_points) > EXHAUSTIVE_POINT_BOUND:
        if scope is None:
            raise ValueError(
                f"exhaustive search bound exceeded ({len(scope_points)} points)")
        return SpreadSearch(_scope_type_I_family(config, scope), exhaustive=False)

    M = incidence_matrix(config).matrix
    pos = {p: k for k, p in enumerate(scope_points)}
    flat_masks = {}
    for fid in candidates:
        pts = np.flatnonzero(M[:, fid])
        mask = 0
        for p in pts:
            mask |= 1 << pos[int(p)]
        flat_masks[fid] = mask
    full_mask = (1 << len(scope_points)) - 1
    # candidates that can cover a given least-uncovered point
    contains_point: dict[int, list[int]] = {k: [] for k in range(len(scope_points))}
    for fid in candidates:
        m = flat_masks[fid]
        k = 0
        mm = m
        while mm:
            if mm & 1:
                contains_point[k].append(fid)
            mm >>= 1
            k += 1
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
    spreads = tuple(Spread(members, scope, tagger(members) if tagger else _scope_tag(config, members))
                    for members in sorted(set(solutions)))
    return SpreadSearch(spreads, exhaustive=True)


def _full_space_tag(config: SpaceConfig):
    type1 = {s.members for s in list_type_I(config)}
    type2 = {s.members for s in list_type_II(config)} if config.nu >= 2 else set()

    def tag(members: tuple[int, ...]) -> str:
        if members in type1:
            return "I"
        if members in type2:
            return "II"
        return "other"

    return tag


def _scope_tag(config: SpaceConfig, members: tuple[int, ...]) -> str:
    flats = enumerate_flats(config, config.nu)
    dirs = {flats[i].direction for i in members}
    return "I" if len(dirs) == 1 else "other"


def _scope_type_I_family(config: SpaceConfig, scope: Flat) -> tuple[Spread, ...]:
    """One spread per maximal totally isotropic subspace of the scope direction."""
    fld = config.field
    ids = flat_ids(config)
    members_sets = []
    for p in enumerate_isotropic(config, config.nu):
        if not contains_subspace(fld, scope.direction, p):
            continue
        members = sorted({ids[flat_make(config, p, y)] for y in flat_points(config, scope)})
        members_sets.append(tuple(members))
    return tuple(Spread(m, scope, "I") for m in sorted(members_sets))


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


BARE_RANK_LIMIT = 120_000  # rows*cols budget for direct fraction-free rank


def _stack_rank(config: SpaceConfig, stack: np.ndarray, expected: int,
                upper_bound_proven: bool) -> tuple[int, str]:
    """Exact stack rank: a GF(p) lower bound that meets the proven upper
    bound `expected` is certified; otherwise Bareiss when small, so a
    failing report shows the exact rank, and the GF(p) bound past that."""
    p = exact.MODULAR_PRIMES[0]
    if upper_bound_proven:
        # neighbouring spreads share members; a fixed shuffle meets independent rows sooner
        order = random.Random(0).sample(range(len(stack)), len(stack))
        if exact.modular_rank(stack[order], p, stop_at=expected) == expected:
            return expected, "certified"
    if stack.shape[0] * stack.shape[1] <= BARE_RANK_LIMIT:
        return exact.rank(stack), "bareiss"
    return exact.modular_rank(stack, p), "modular-lower-bound-only"


def _nonzero_projections(config: SpaceConfig, eig, stack: np.ndarray,
                         seed: int = 0) -> bool:
    """Whether every stack row has a nonzero projection under the idempotent.

    A seeded random functional of the idempotent witnesses nonzeroness in
    one pass (B_e is symmetric, so r^T B_e s = s . B_e r); rows it fails
    to witness get the exact full-column check.
    """
    w = idempotent_coefficients(config)[1][[scheme_tables(config).eigs.index(eig)]]
    rng = random.Random(("witness", config.key(), eig, seed).__repr__())
    r = np.array([rng.randrange(1, 64) for _ in range(stack.shape[1])], dtype=np.int64)
    witness = exact.int_matmul(stack, relation_products(config, w, r.reshape(-1, 1))[0])
    return all(relation_products(config, w, stack[i].reshape(-1, 1)).any()
               for i in np.flatnonzero(witness[:, 0] == 0))


def typeI_span_check(config: SpaceConfig) -> SpanReport:
    """Type-I characteristic vectors: independent, orthogonal to every eta=1 space."""
    stack = family_indicators(config, slice(len(list_type_I(config))))
    tables = scheme_tables(config)
    # the eta = 1 idempotents (j, 1), j < nu, have codes 1, 3, ..., 2 nu - 1
    eta1 = idempotent_coefficients(config)[1][1:2 * config.nu:2]
    vanishing_ok = not relation_products(config, eta1, stack.T).any()
    nonvanishing_ok = all(_nonzero_projections(config, (j, 0), stack)
                          for j in range(config.nu + 1))
    expected = sum(tables.multiplicities[(j, 0)] for j in range(config.nu + 1))
    rank, method = _stack_rank(config, stack, expected, upper_bound_proven=vanishing_ok)
    return SpanReport("I", len(stack), rank, expected, vanishing_ok,
                      nonvanishing_ok, method)


def typeII_span_check(config: SpaceConfig) -> SpanReport:
    """Type-II characteristic vectors: span the parallel-class complement."""
    if config.nu < 2:
        raise ValueError("type-II span check needs nu >= 2")
    stack = family_indicators(config, slice(len(list_type_I(config)), None))
    tables = scheme_tables(config)
    parallel = idempotent_coefficients(config)[1][1:2]  # the (0, 1) idempotent
    # one block of spreads at a time, stopping at the first nonzero one
    vanishing_ok = not any(
        relation_products(config, parallel, stack[s:s + PRODUCT_COLUMNS].T).any()
        for s in range(0, len(stack), PRODUCT_COLUMNS))
    nonvanishing_ok = all(_nonzero_projections(config, eig, stack)
                          for eig in tables.eigs if eig[0] != 0)
    expected = tables.size - tables.multiplicities[(0, 1)]
    rank, method = _stack_rank(config, stack, expected, upper_bound_proven=vanishing_ok)
    return SpanReport("II", len(stack), rank, expected, vanishing_ok,
                      nonvanishing_ok, method)

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
disjoint.  The type-II rows are one gather from the i = 1 level of
scheme.pair_factors, which groups the directions at rd = 1 into their
type-(nu+1, 2) containers Q and lists, by coset of Q, the q flats of
each interior direction that lie in it (PairFactors.container_cosets):
a direction d inside Q puts the flat d + x inside the coset x + Q, and
each of the q^(nu-1) cosets of Q, q^(nu+1) points, holds q flats of d.
The spread of Q, directions (p1, p2) and coset s is the q flats of p1
in s, which cover s + Q, and the q^nu - q flats of p2 in the other
cosets, which cover the rest of the space once.  pair_factors raises on
any meeting pattern that is not such a coset split, and character_plan
checks the rows themselves.
list_type_I and list_type_II wrap the rows as Spreads for the CLI.

The translation characters decide what the family spans
(character_plan).  Field codes add digit-wise mod p, so the points form
G = F_p^(2 nu k), q = p^k, whose characters are psi_a(x) = w^(a . x),
w = e^(2 pi i/p).  T_psi is the set of maximal directions d inside
ker psi, and u_d^psi = sum of psi(f) e_f over the flats f of direction d,
where psi(f) is psi at any point of f, which is well defined since psi
is 1 on d.  Three facts carry the plan:
- Translations fix every relation, and they commute with M.  So
  R^n = (+)_psi V_psi, with V_psi spanned by the u_d^psi for d in T_psi:
  e_f = q^(-nu) sum of conj psi(f) u_d^psi over the psi with d in T_psi.
  M maps each u_d^psi to psi itself, read on the points, since each
  point lies on one flat of d.  The psi are independent, so ker M is the
  sum of {sum c_d u_d^psi : sum c_d = 0}, and
  dim ker M = (D - 1) + sum over psi != 1 of max(|T_psi| - 1, 0).
- For psi != 1, the psi component of a type-II spread, p1 on the coset
  s + Q of Q = p1 + p2 and p2 off it, is q^(1 - nu) psi(-s) (u_p1 - u_p2)
  when p1, p2 lie in ker psi, and 0 otherwise: the conj psi(f) of the
  flats of p1 in s + Q sum to q psi(-s), or to 0 when psi is not 1 on Q,
  and those of the flats of p2 off s + Q to minus that.
  A row of flats of two directions with rd = 1, q in one, that covers
  each point once is such a spread: its flats of p1 cover a union of
  cosets of p1 and of p2, hence of Q, with q^(nu + 1) points.
- The span of a translation-closed family is the sum of its psi
  components, since the projection onto V_psi is a combination of
  translations and maps the span into itself.
So, for translation-closed type-II rows whose direction pairs are the
rd = 1 pairs, the span's psi component is spanned by u_p1 - u_p2 over the
rd = 1 edges inside T_psi, of dimension |T_psi| minus the components of
that graph, and its trivial component by the rows' direction-block
sums: that is the exact type-II rank.  The type-I rows are the u_d^1,
whose differences span the trivial part of ker M.  So the differences
of the family span ker M iff the rd = 1 graph on every T_psi is
connected.  That certificate makes the constructive spread route of the
membership test conclusive.  At nu = 1 there are no type-II rows, and
every |T_psi| <= 1, since two maximal directions span the space.  A
stack rank with no such proof is read off the stack's certified null
basis.  The same decomposition gives ker M a basis K with entries in
{-1, 0, 1}, read off the flats' character values (membership_plan); the
image route of a single set or a block of sets decides by K chi = 0,
with no elimination.  The flats inside a container flat s + Q get the
same basis of the kernel of their own incidence matrix from the
characters of Q, which are the restrictions of those of G.

The span checks decide which eigenspace projections of the family
vanish from the scheme's own equivalences, with no idempotent product:
a row has no eta = 1 component iff it is constant on each direction
block (typeI_span_check), and no (0, 1) component iff M maps it to a
constant vector (typeII_span_check).  Each check's docstring gives the
proof and the suite checks it rests on.  The projections that must stay
nonzero are still witnessed through the idempotents, by one seeded
functional (_nonzero_projections).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exact
from .flats import (
    Flat,
    coset_representatives,
    coset_table,
    enumerate_flats,
    flat_ids,
    flat_ids_in,
    flat_make,
    flat_point_table,
    incidence_matrix,
    point_mask,
)
from .geometry import (
    SpaceConfig,
    Subspace,
    all_vectors,
    contains_subspace,
    enumerate_isotropic,
    gram_matrices,
    gram_ranks,
    is_totally_isotropic,
    point_array,
    span_points,
    vec_add,
)
from .scheme import (
    PRODUCT_COLUMNS,
    pair_factors,
    projections,
    relation_products,
    scheme_tables,
)

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


def _check_containers(config: SpaceConfig, containers) -> None:
    """The container preconditions of a type-II spread, for a sequence of
    containers: nu >= 2, and each of type (nu+1, 2), by one gram_ranks."""
    if config.nu < 2:
        raise ValueError("type-II spreads need nu >= 2")
    if (any(c.dim != config.nu + 1 for c in containers)
            or (gram_ranks(config, _bases(config, containers, config.nu + 1)) != 2).any()):
        raise ValueError("container must be a type-(nu+1, 2) subspace")


def _check_directions(config: SpaceConfig, directions) -> None:
    """The directions of type-II spreads must be maximal totally isotropic:
    of dimension nu, with zero Gram matrices."""
    if (any(p.dim != config.nu for p in directions)
            or gram_matrices(config, _bases(config, directions, config.nu)).any()):
        raise ValueError("directions must be maximal totally isotropic")


def _bases(config: SpaceConfig, subs, k: int) -> np.ndarray:
    """The bases of a sequence of k-dimensional subspaces, int64 (S, k, dim)."""
    return np.array([s.basis for s in subs], dtype=np.int64).reshape(len(subs), k, config.dim)


def spread_type_II(config: SpaceConfig, container: Subspace,
                   p1: Subspace, p2: Subspace, shift=None) -> Spread:
    """Cosets of p1 inside a coset of the container, cosets of p2 outside it.

    The base construction uses the container subspace itself; an optional
    shift translates the split, which is how the affine group moves these
    spreads around (translates are genuinely new once q > 2); a shift does
    not affect the preconditions.
    """
    _check_containers(config, [container])
    if p1 == p2:
        raise ValueError("the two directions must be distinct")
    for p in (p1, p2):
        _check_directions(config, [p])
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


def family_members(config: SpaceConfig) -> np.ndarray:
    """Member ids of the constructive family, one spread per row.

    Type-I spreads come first, then the type-II ones when nu >= 2, each
    part in lexicographic order without repeats.  Every spread covers
    each point once, so differences of rows lie in the kernel of the
    incidence matrix; character_plan certifies that they span it.
    """
    return _family(config)[0]


def family_member_columns(config: SpaceConfig) -> np.ndarray:
    """family_members(config) transposed into a C-contiguous, read-only
    (q^nu, rows) array: a set's intersection with every spread is one
    gather of its indicator through it and a sum over axis 0, which reads
    memory in order where the rows of q^nu members would each be a short
    reduction."""
    return _family(config)[1]


@lru_cache(maxsize=None)
def _family(config: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    members = _type_I_members(config)
    if config.nu >= 2:
        members = np.vstack([members, _type_II_members(config)])
    columns = np.ascontiguousarray(members.T)
    members.flags.writeable = columns.flags.writeable = False
    return members, columns


def family_indicators(config: SpaceConfig, rows=slice(None)) -> np.ndarray:
    """0/1 int8 indicator vectors of the spreads family_members(config)[rows]."""
    members = family_members(config)[rows]
    stack = np.zeros((members.shape[0], len(enumerate_flats(config, config.nu))), dtype=np.int8)
    np.put_along_axis(stack, members, 1, axis=1)
    return stack


def _type_II_members(config: SpaceConfig) -> np.ndarray:
    """The sorted, distinct member rows of every type-II spread, one gather
    from the i = 1 level of pair_factors.

    container_cosets lists, for each type-(nu+1, 2) container Q, the q
    flats of each interior direction in each coset of Q.  The spread of
    Q, the ordered direction pair (p1, p2) and the shift coset s is the q
    flats of p1 in s and the q^nu - q flats of p2 in the other cosets;
    character_plan checks that every row covers each point once.
    """
    per = config.q**config.nu
    cells = pair_factors(config).container_cosets().transpose(2, 1, 3, 0)  # (G, k, cosets, q)
    G, k, cosets, q = cells.shape
    first, second = np.nonzero(~np.eye(k, dtype=bool))  # the ordered pairs of interior slots
    others = np.nonzero(~np.eye(cosets, dtype=bool))[1].reshape(cosets, cosets - 1)
    outside = cells[:, second][:, :, others].reshape(G, len(first), cosets, per - q)
    rows = np.concatenate([cells[:, first], outside], axis=3).reshape(-1, per)
    rows.sort(axis=1)
    return _unique_rows(rows).astype(np.int64)


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """np.unique(a, axis=0) for an integer matrix (exact.row_runs)."""
    order, count = exact.row_runs(a)
    return a[order[np.cumsum(count) - count]]


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    """The rows of an integer matrix in one canonical order, flattened: each
    row is sorted as one opaque byte string, so two matrices give equal
    results iff they hold the same rows, counted with multiplicity."""
    a = np.ascontiguousarray(a)
    return np.sort(a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()).view(a.dtype)


# ---------------------------------------------------------------------------
# the translation characters

# bounds the (characters, directions, partners) labels of _components and the
# (pairs, points) values that _check_groups gathers, at a time
CHARACTER_ELEMENTS = 2**20


@dataclass(frozen=True)
class CharacterPlan:
    """What the translation characters prove about ker M and the family.

    kernel_dimension is dim ker M.  The certificate that the differences
    of family_members span ker M is three checks:
    - edges_ok: type-I row d is the direction block d, and each type-II
      row lies in two directions, q of its members in one, whose pairs
      are exactly the pairs with rd = 1 (checked at nu >= 2);
    - closed: the type-II rows are closed under the unit translations;
    - connected: for every nontrivial character a, the graph on T_a with
      the type-II pairs as edges is connected.
    rank is the exact rank of the type-II rows, or None when there are
    none (nu = 1) or when edges_ok or closed fails.
    """

    kernel_dimension: int
    edges_ok: bool
    closed: bool
    connected: bool
    rank: int | None

    @property
    def failure(self) -> str | None:
        """Why the certificate fails, or None when it holds."""
        if not self.edges_ok:
            return "the spreads' directions are not the direction blocks and the rd = 1 pairs"
        if not self.closed:
            return "the type-II spreads are not closed under translation"
        if not self.connected:
            return "the rd = 1 graph on the directions in a character's kernel is disconnected"
        return None


def _line_characters(config: SpaceConfig) -> np.ndarray:
    """One nontrivial character for each F_p-line of F_p^(dim k), as the
    int64 digits (lines, dim k) of the characters whose first nonzero
    digit is 1: c a has the kernel of a.  Digit i k + j pairs with the p^j
    digit of coordinate i."""
    fld = config.field
    m = config.dim * fld.k
    chars = np.arange(1, fld.p**m)[:, None] // fld.p ** np.arange(m) % fld.p
    return chars[chars[np.arange(len(chars)), (chars != 0).argmax(axis=1)] == 1]


def _fp_basis(config: SpaceConfig, bases: np.ndarray) -> np.ndarray:
    """The base-p digits of the F_p basis t^j b of the F_q span of each
    stack of rows b of bases, (spans, rows, dim), for the codes p^j of
    t^j, j < k; int64 (spans, k rows, dim k), in the digit order of
    _line_characters.

    A vector of field codes is the F_p vector of their base-p digits; F_q
    adds digit-wise mod p, so this is additive, and a character a is
    trivial on a span iff a kills the digits of its F_p basis.
    """
    fld = config.field
    scaled = fld.mul_flat[fld.p ** np.arange(fld.k)[:, None, None] * fld.q + bases[:, None]]
    digits = scaled[..., None] // fld.p ** np.arange(fld.k) % fld.p  # (spans, k, rows, dim, k)
    return digits.reshape(len(bases), -1, config.dim * fld.k)


@lru_cache(maxsize=None)
def character_kernels(config: SpaceConfig) -> np.ndarray:
    """T[a, d]: whether maximal direction d lies in the kernel of the
    character a, for one nontrivial character of each F_p-line; bool,
    (lines, directions), read-only.  d lies in ker psi_a iff a kills the
    digits of the F_p basis of d (_fp_basis).
    """
    chars = _line_characters(config)
    basis = np.array([d.basis for d in enumerate_isotropic(config, config.nu)], dtype=np.int64)
    fp_basis = _fp_basis(config, basis).reshape(-1, chars.shape[1])
    values = exact.int_matmul(chars, fp_basis.T) % config.field.p
    kernels = ~values.reshape(len(chars), len(basis), -1).any(axis=2)
    kernels.flags.writeable = False
    return kernels


def _restricted_lines(config: SpaceConfig, direction: Subspace) -> np.ndarray:
    """The line characters that stand for the F_p-lines of nontrivial
    characters of the subspace Q = direction; ascending indices into
    _line_characters.

    a restricts to Q as its values on the F_p basis of Q (_fp_basis).
    The lines with a|Q = 0 are dropped, and of the lines whose
    restrictions agree once scaled to a first nonzero digit 1, the first
    is kept.  Every character of Q is a restriction, since the characters
    of G restrict onto those of its subgroup Q.
    """
    p = config.field.p
    basis = _fp_basis(config, np.array([direction.basis], dtype=np.int64))[0]
    restricted = exact.int_matmul(_line_characters(config), basis.T) % p
    lead = restricted[np.arange(len(restricted)), (restricted != 0).argmax(axis=1)]
    inverse = np.array([0] + [pow(c, -1, p) for c in range(1, p)], dtype=np.int64)
    codes = (restricted * inverse[lead][:, None] % p) @ p ** np.arange(len(basis), dtype=np.int64)
    lines = np.flatnonzero(lead)
    lines = lines[np.argsort(codes[lines], kind="stable")]
    first = np.ones(len(lines), dtype=bool)
    first[1:] = codes[lines[1:]] != codes[lines[:-1]]
    return np.sort(lines[first])


@lru_cache(maxsize=None)
def _point_values(config: SpaceConfig) -> np.ndarray:
    """a . x mod p for every line character a and point x, on the base-p
    digits of x; int64, (lines, points), read-only."""
    fld = config.field
    digits = point_array(config)[:, :, None] // fld.p ** np.arange(fld.k) % fld.p
    digits = digits.reshape(config.num_points, -1)
    values = exact.int_matmul(_line_characters(config), digits.T) % fld.p
    values.flags.writeable = False
    return values


def _unit_translations(config: SpaceConfig) -> np.ndarray:
    """(dim k, n): the flat to which each unit translation, the code p^j
    added to coordinate i, moves each flat; these generate F_q^(2 nu).

    A flat is moved through one of its points, read off coset_table."""
    fld, coset_of = config.field, coset_table(config)
    per, points = config.q**config.nu, coset_of.shape[1]
    on = np.empty(len(coset_of) * per, dtype=np.int64)
    on[coset_of] = np.arange(points)
    coords = point_array(config)[:, :, None]
    weights = config.q ** np.arange(config.dim - 1, -1, -1, dtype=np.int64)[:, None]
    moved = fld.add_flat[coords * fld.q + fld.p ** np.arange(fld.k)]
    target = (np.arange(points)[:, None, None] + (moved - coords) * weights).reshape(points, -1)
    return coset_of[np.arange(len(on)) // per, target.T[:, on]]


def _components(kernels: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """The number of components of the graph on each row's directions whose
    edges join each direction d to partners[d]; (rows,) int64.

    Every direction takes the least label among itself and its partners
    in the row until nothing changes, so each component ends with the
    label of its least direction, and the roots count the components.
    """
    rows, dirs = kernels.shape
    own = np.arange(dirs)
    out = np.empty(rows, dtype=np.int64)
    step = max(1, CHARACTER_ELEMENTS // max(1, dirs * partners.shape[1]))
    for s in range(0, rows, step):
        inside = kernels[s:s + step]
        labels = np.where(inside, own, dirs)
        while True:
            near = labels[:, partners].min(axis=2, initial=dirs)
            following = np.where(inside, np.minimum(labels, near), dirs)
            if (following == labels).all():
                break
            labels = following
        out[s:s + step] = (labels == own).sum(axis=1)
    return out


def _check_cover(config: SpaceConfig, members: np.ndarray) -> None:
    """Raise AssertionError unless every row covers each point once.

    A row of q^nu flats of q^nu points covers each point once iff it hits
    every point; PRODUCT_COLUMNS rows are gathered at a time."""
    per = config.q**config.nu
    points_of = flat_point_table(config)
    ok = members.shape[1] == per
    for s in range(0, len(members), PRODUCT_COLUMNS):
        points = points_of[members[s:s + PRODUCT_COLUMNS]].reshape(-1, per * per)
        hit = np.zeros(points.size, dtype=bool)
        hit[(points + per * per * np.arange(len(points))[:, None]).ravel()] = True
        ok = ok and bool(hit.all())
    if not ok:
        raise AssertionError(f"a spread of {config.key()} does not cover each point once")


def _type_II_edges(config: SpaceConfig, rows: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """Whether each type-II row lies in two directions, q members in one,
    whose pairs are exactly the rd = 1 pairs; and the rows' distinct
    direction-block sums when they do.

    Members are sorted and ids run direction-major, so a row's
    directions are its first and last members' blocks."""
    q, per = config.q, config.q**config.nu
    rd = pair_factors(config).rd
    direction = rows // per
    first, last = direction[:, 0], direction[:, -1]
    count = (direction == first[:, None]).sum(axis=1)
    elsewhere = (direction != first[:, None]) & (direction != last[:, None])
    if elsewhere.any() or (first == last).any() or ((count != q) & (count != per - q)).any():
        return False, None
    a, b = np.nonzero(np.triu(rd == 1))
    if not np.array_equal(exact.sorted_unique(first * len(rd) + last), a * len(rd) + b):
        return False, None
    distinct = exact.sorted_unique((first * len(rd) + last) * per + count)
    pair, held = np.divmod(distinct, per)
    sums = np.zeros((len(distinct), len(rd)), dtype=np.int64)
    sums[np.arange(len(distinct)), pair // len(rd)] = held
    sums[np.arange(len(distinct)), pair % len(rd)] = per - held
    return True, sums


@lru_cache(maxsize=None)
def character_plan(config: SpaceConfig) -> CharacterPlan:
    """kernel_dimension, the spread certificate and the type-II rank, from
    the translation characters (see the module docstring for the proofs).

    kernel_dimension = (D - 1) + sum over the nontrivial characters of
    max(|T_a| - 1, 0); the p - 1 characters of a line share T_a.  The
    type-II rank is the exact rank of the rows' direction-block sums plus
    the sum of |T_a| minus the components of the rd = 1 graph on T_a.
    Raises AssertionError if a row of family_members does not cover each
    point once, which every proof here assumes.
    """
    members = family_members(config)
    _check_cover(config, members)
    dirs = len(enumerate_isotropic(config, config.nu))
    kernels = character_kernels(config)
    sizes = kernels.sum(axis=1)
    conjugates = config.field.p - 1
    kernel_dimension = dirs - 1 + conjugates * int(np.maximum(sizes - 1, 0).sum())
    rows = members[dirs:]
    edges_ok = np.array_equal(members[:dirs], _type_I_members(config))
    if config.nu >= 2:
        pairs_ok, sums = _type_II_edges(config, rows)
        edges_ok = edges_ok and pairs_ok
        partners = np.nonzero(pair_factors(config).rd == 1)[1].reshape(dirs, -1)
    else:
        edges_ok = edges_ok and not len(rows)
        sums, partners = None, np.empty((dirs, 0), dtype=np.int64)
    want = _sorted_rows(rows)
    closed = all(np.array_equal(_sorted_rows(np.sort(shift[rows], axis=1)), want)
                 for shift in _unit_translations(config))
    components = _components(kernels, partners)
    rank = None
    if edges_ok and closed and sums is not None:
        rank = (len(exact.certified_null_basis(sums).pivots)
                + conjugates * int((sizes - components).sum()))
    return CharacterPlan(kernel_dimension, edges_ok, closed, bool((components <= 1).all()), rank)


@dataclass(frozen=True)
class MembershipPlan:
    """A basis K of ker M with entries in {-1, 0, 1}, read off the
    translation characters, in gather form; every array is read-only.

    val_a(f) is a . x mod p at any point x of f; it is well defined when
    the direction d of f lies in T_a, since a kills d.  The pairs (a, d)
    with d in T_a and |T_a| >= 2 are listed line by line, d ascending;
    line[i] is the character of pair i, groups[i, v] the q^nu/p flats f
    of its direction with val_a(f) = v, and base[i] the pair of d_a, the
    first direction of T_a.  Write 1(d, v) for the indicator of
    groups[i, v].  K has D - 1 trivial rows, block d minus block d_0 for
    each direction d != d_0, and, for each pair of a direction d != d_a
    and each v = 1..p-1, the row
    1(d, v) - 1(d, 0) - (1(d_a, v) - 1(d_a, 0)).

    Proof that K is a basis of ker M (the decomposition is the one of the
    module docstring).  M maps 1(d, v) to the indicator of the points with
    a . x = v, since each point lies on one flat of d, and a block to the
    all-one vector; so every row lies in ker M.  1(d, v) - 1(d, 0) has no
    trivial component and no component in V_psi for a psi off the line of
    a (psi is not constant on a coset of ker a, so its sum there is 0);
    its psi_(c a) component is q^(-nu) (q^nu/p) (w^(-c v) - 1) u_d.  The
    rows of distinct lines, and the trivial rows, thus lie in independent
    sums of components.  Within a line, the u_d of distinct d have
    disjoint supports, so a vanishing combination sum lambda_(d,v) of the
    rows of d has sum_v lambda_(d,v) (w^(-c v) - 1) = 0 for every c != 0;
    with lambda_(d,0) = -sum_v lambda_(d,v), the discrete Fourier
    transform of (lambda_(d,v))_v vanishes, so every lambda is 0.  The
    trivial rows have disjoint supports past block d_0.  That is
    (D - 1) + (p - 1) sum_a max(|T_a| - 1, 0) independent rows of ker M,
    CharacterPlan.kernel_dimension = dim ker M of them.

    The plan of a container flat F = s + Q of type (nu+i, 2i) is the same
    basis for the incidence matrix M_F of F's points against the maximal
    flats inside F.  ids are those flats' ids, ascending, q^i to each
    interior direction, and every flat index of the plan (groups, gather,
    the blocks of per = q^i) is a position in ids.  The characters are
    those of Q: a line character a with a|Q != 0 for each F_p-line of
    nontrivial characters of Q, and T_a^Q is T_a on the directions inside
    Q.  Every character of Q restricts from one of G, so the proof above
    goes through with Q in place of G: M_F maps 1(d, v) to the points of
    F with a . x = v, and the flats of d inside F, the cosets of d in Q
    shifted by s, split into p value groups of q^i/p flats each.  ids is
    None for the whole space.
    """

    per: int             # the flats of a direction block: q^nu, or q^i in a container
    line: np.ndarray     # (pairs,) the character of each pair
    groups: np.ndarray   # (pairs, p, per/p) flat ids, by value
    base: np.ndarray     # (pairs,) the pair of d_a
    gather: np.ndarray   # (per/p, pairs (p-1)): groups[i, v, j] at [j, i (p-1) + v - 1], v >= 1
    match: np.ndarray    # (pairs (p-1),): the column of groups[base[i], v] for that of groups[i, v]
    ids: np.ndarray | None = None  # a container's flat ids, ascending; None for the whole space

    def annihilates(self, chi: np.ndarray) -> np.ndarray:
        """K chi = 0 for each column of chi: whether it lies in the image of
        M^T, the orthogonal complement of ker M.  chi is an integer vector
        over the flats (over ids for a container), shape (n,), or a block
        of columns, shape (n, c); the verdict is a bool scalar or a (c,)
        bool array.

        Every sum here has at most q^nu entries of chi, so it is exact
        while max|chi| q^nu < 2^63 in int64, and always for Python ints
        in an object array.  No bound is checked here: a 0/1 chi always
        meets it, and cl.batch_verdicts widens a block that does not.

        The trivial rows vanish iff every block has one sum S.  Then, with
        H[i, v] the sum of chi over groups[i, v], the rows of pair i vanish
        iff H[i, v] = H[base[i], v] for v = 1..p-1: if the differences
        H[i, v] - H[i, 0] agree with those of the base for every v, the
        rows' difference delta is the same for every v, and summing over v
        gives p delta = S - S.  When no column passes its block sums, the
        verdict is returned before any gather; H is one gather through
        `gather`, summed over its contiguous leading axis."""
        blocks = chi.reshape((len(chi) // self.per, self.per) + chi.shape[1:]).sum(axis=1)
        ok = (blocks == blocks[0]).all(axis=0)
        if not any(ok.flat):  # a tenth of ok.any() on a bool scalar
            return ok
        # np.take gathers a block's rows faster than fancy indexing, a
        # single vector slower
        H = (np.take(chi, self.gather, axis=0) if chi.ndim == 2 else chi[self.gather]).sum(axis=0)
        return ok & (H == H[self.match]).all(axis=0)


@lru_cache(maxsize=None)
def membership_plan(config: SpaceConfig, container: Flat | None = None) -> MembershipPlan:
    """The MembershipPlan of one configuration, or of the flats inside one
    container flat, with no elimination.

    The point values a . x mod p are one int_matmul of the line
    characters by the points' digits; each flat takes the value at its
    first point, and each pair's block is sorted by value.  _check_groups
    then checks exactly that a . x = v at every point of every flat of
    groups[i, v], which puts every row of K in the kernel; it raises
    AssertionError otherwise.  A container is validated first
    (flats.flat_ids_in raises ValueError), and its characters are the
    _restricted_lines.
    """
    p = config.field.p
    if container is None:
        per, ids, chars = config.q**config.nu, None, None
        kernels = character_kernels(config)
    else:
        ids = flat_ids_in(config, container)
        ids.flags.writeable = False
        per = config.q**(container.dim - config.nu)
        chars = _restricted_lines(config, container.direction)
        kernels = character_kernels(config)[chars[:, None], ids[::per] // config.q**config.nu]
    line, direction = np.nonzero(kernels & (kernels.sum(axis=1) >= 2)[:, None])
    if chars is not None:
        line = chars[line]
    local = direction[:, None] * per + np.arange(per)
    first = flat_point_table(config)[local if ids is None else ids[local], 0]
    order = np.argsort(_point_values(config)[line[:, None], first], axis=1, kind="stable")
    groups = np.take_along_axis(local, order, axis=1).reshape(len(line), p, per // p)
    base = np.searchsorted(line, line)
    gather = np.ascontiguousarray(groups[:, 1:].transpose(2, 0, 1).reshape(per // p, -1))
    match = (base[:, None] * (p - 1) + np.arange(p - 1)).ravel()
    for a in (line, groups, base, gather, match):
        a.flags.writeable = False
    plan = MembershipPlan(per, line, groups, base, gather, match, ids)
    _check_groups(config, plan)
    return plan


def _check_groups(config: SpaceConfig, plan: MembershipPlan) -> None:
    """Raise AssertionError unless a . x = v at every point x of every flat
    of plan.groups[i, v], a = plan.line[i]; CHARACTER_ELEMENTS points are
    gathered at a time."""
    values, points_of = _point_values(config), flat_point_table(config)
    want = np.arange(config.field.p)[:, None, None]
    step = max(1, CHARACTER_ELEMENTS // config.num_points)
    for s in range(0, len(plan.line), step):
        flats = plan.groups[s:s + step]
        if plan.ids is not None:
            flats = plan.ids[flats]
        seen = values[plan.line[s:s + step, None, None, None], points_of[flats]]
        if (seen != want).any():
            raise AssertionError(f"a character of {config.key()} is not v at every point of "
                                 f"its value group v")


# ---------------------------------------------------------------------------
# classification

def coverage(config: SpaceConfig, member_ids) -> np.ndarray:
    """How many of the member flats hold each point; int64, (points,)."""
    ids = np.fromiter(member_ids, dtype=np.int64)
    return np.bincount(flat_point_table(config)[ids].ravel(), minlength=config.num_points)


def classify_set(config: SpaceConfig, member_ids, scope: Flat | None = None) -> str:
    """'partial_spread', 'full_spread', or 'neither' by point-set checks."""
    cov = coverage(config, member_ids)
    if scope is None:
        if cov.max(initial=0) > 1:
            return "neither"
        return "full_spread" if member_ids and cov.min(initial=1) == 1 else "partial_spread"
    on = point_mask(config, scope)
    if cov[~on].max(initial=0) > 0:
        return "neither"
    inside = cov[on]
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
        scope_points = np.flatnonzero(point_mask(config, scope)).tolist()
        candidates = flat_ids_in(config, scope).tolist()
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
    """Exact stack rank.  kept is a lower bound on the rank that the
    caller has proven (rows with disjoint supports, or the character
    plan's exact rank), where it has also proven the rank at most
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
    k = scheme_tables(config).eigs.index(eig)
    rng = random.Random(("witness", config.key(), eig, 0).__repr__())
    r = np.array([rng.randrange(1, 64) for _ in range(stack.shape[1])], dtype=np.int64)
    projected = projections(config, relation_products(config, r.reshape(-1, 1)))[k]
    # PRODUCT_COLUMNS rows at a time, so no float64 copy of the whole stack is made
    witness = np.concatenate([exact.int_matmul(stack[s:s + PRODUCT_COLUMNS], projected)
                              for s in range(0, len(stack), PRODUCT_COLUMNS)])
    return all(projections(config, relation_products(config, stack[i].reshape(-1, 1)))[k].any()
               for i in np.flatnonzero(witness[:, 0] == 0))


def typeI_span_check(config: SpaceConfig) -> SpanReport:
    """Type-I characteristic vectors: independent, orthogonal to every eta=1 space.

    A row has no eta = 1 component iff it is constant on each direction
    block.  Relation (0, 0) is equality and (0, 1) joins the other flats
    of one direction, so A_(0,0) + A_(0,1) is the block all-ones matrix J.
    By complete_graph_eigenvalue its eigenvalue p_(0,0) + p_(0,1) is
    1 + (q^nu - 1) = q^nu on every V_(j,0) and 1 - 1 = 0 on every V_(j,1),
    so the image of J, the vectors constant on each block, is exactly the
    sum of the V_(j,0).  That rests on the idempotents being the closed
    forms' eigenspaces, which the eigen_system (or eigen_system_probes)
    check verifies.
    Each flat lies in exactly one type-I spread, and rows with disjoint,
    nonempty supports are independent over every field, so their rank is
    their number; only a stack whose supports overlap is eliminated.
    """
    stack = family_indicators(config, slice(len(enumerate_isotropic(config, config.nu))))
    tables = scheme_tables(config)
    blocks = stack.reshape(len(stack), -1, config.q**config.nu)
    vanishing_ok = bool((blocks == blocks[:, :, :1]).all())
    nonvanishing_ok = all(_nonzero_projections(config, (j, 0), stack)
                          for j in range(config.nu + 1))
    expected = sum(tables.multiplicities[(j, 0)] for j in range(config.nu + 1))
    disjoint = (stack.sum(axis=0) <= 1).all() and stack.any(axis=1).all()
    rank, method = _stack_rank(stack, expected, len(stack) if disjoint else None)
    return SpanReport("I", len(stack), rank, expected, vanishing_ok,
                      nonvanishing_ok, method)


def typeII_span_check(config: SpaceConfig) -> SpanReport:
    """Type-II characteristic vectors: span the parallel-class complement.

    A row s has no (0, 1) component iff M s is a constant vector.  The
    rows of M are the pencils, translates of the pencil at the origin;
    translations fix every relation, so they commute with every
    idempotent, and the pencil_battery check puts the pencil in
    V_(0,0) + V_(0,1), where the eigen_system (or eigen_system_probes)
    check makes the idempotents the closed forms' eigenspaces.  The
    incidence_rank check gives rank M = 1 + m_(0,1), so the row space of M
    is V_(0,0) + V_(0,1) and ker M is the sum of the other eigenspaces.
    M sends the all-ones vector, which spans V_(0,0), to D times the
    all-ones vector on the points, so M s is constant iff s lies in
    V_(0,0) + ker M.  The products take PRODUCT_COLUMNS rows at a time, so
    no float64 copy of the whole stack is made.
    """
    if config.nu < 2:
        raise ValueError("type-II span check needs nu >= 2")
    stack = family_indicators(config, slice(len(enumerate_isotropic(config, config.nu)), None))
    tables = scheme_tables(config)
    M = incidence_matrix(config).matrix
    # one block of spreads at a time, stopping at the first failing one
    covers = (exact.int_matmul(M, stack[s:s + PRODUCT_COLUMNS].T)
              for s in range(0, len(stack), PRODUCT_COLUMNS))
    vanishing_ok = all((cover == cover[:1]).all() for cover in covers)
    nonvanishing_ok = all(_nonzero_projections(config, eig, stack)
                          for eig in tables.eigs if eig[0] != 0)
    expected = tables.size - tables.multiplicities[(0, 1)]
    # the plan's rank is that of family_members' rows; a stack failing its
    # vanishing check reads its own exact rank
    kept = character_plan(config).rank if vanishing_ok else None
    rank, method = _stack_rank(stack, expected, kept)
    return SpanReport("II", len(stack), rank, expected, vanishing_ok,
                      nonvanishing_ok, method)

"""The association scheme on maximal totally isotropic flats.

Relations are indexed by (i, xi): i = nu - dim of the direction
intersection, xi = 0 when the cosets meet and 1 when they are disjoint
((nu, 1) never occurs).  Eigenspaces carry the same index family.  All
eigenvalue, valency, and multiplicity tables come from closed forms,
and so does the coefficient table C of the idempotents in the
adjacency basis, E_e = (1/L_e) sum_r C[e, r] A_r.  Both facts of a
relation come from flats.coset_table: i from the D x D table rd of
direction distances (flats.direction_distances), xi from whether the
cosets share a point.  relation_rows reads the int8 rows R[ids, :] of
the relation table straight off them; the axiom check, the inner
distributions and the intersecting check read blocks of rows, and no
n x n table is kept.  For products the relations are factored by
direction groups (pair_factors): for 0 < i < nu, the cosets that group
the meeting flats, at i = 1 those of each type-(nu + 1, 2) container
da + db, which holds every maximal direction at distance 1 from da
inside it, and at i >= 2 those of each unordered pair's sum.  The
checks' one product, the relation-count table T[r] = A_r X for every
relation r, is read from it by relation_products: A_(0,0), A_(0,1) and
A_(nu,0) need only X and its parallel-class totals, A_(i,0) X for
0 < i < nu is a sum over cosets taken once per group (meeting_product,
which the membership routes read too), and A_(i,1) X is the
parallel-class part less A_(i,0) X.  Every idempotent projection is
then one exact product C T (projections), which the checks read.  Dense
idempotents exist only inside check_eigen_system, where they are the
object being verified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from . import exact
from .field import binomial2, e_power, e_power_frac, gauss_binomial
from .flats import Flat, coset_table, direction_distances, flat_meet, flat_point_table
from .geometry import E2, SpaceConfig, is_totally_isotropic, sum_subspace

RelIndex = tuple[int, int]


class _InfiniteValuation:
    """Distinguished valuation of a zero eigenvalue (never a sentinel number)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinity"


INFINITY = _InfiniteValuation()


def relation_indices(nu: int) -> list[RelIndex]:
    """(0,0),(0,1),...,(nu-1,0),(nu-1,1),(nu,0) in canonical order."""
    out = []
    for i in range(nu):
        out += [(i, 0), (i, 1)]
    out.append((nu, 0))
    return out


def _code(nu: int, idx: RelIndex) -> int:
    i, xi = idx
    if not (0 <= i <= nu and xi in (0, 1) and (i, xi) != (nu, 1)):
        raise ValueError(f"invalid index {idx} for nu={nu}")
    return 2 * i + xi


# ---------------------------------------------------------------------------
# closed forms: dual polar layer

def _case_e2(case: str) -> int:
    if case not in E2:
        raise ValueError(f"unknown case {case!r}")
    return E2[case]


def _qpow2(case: str, q: int, twice: int) -> int:
    cfg = _formal_config(case, q)
    return e_power(cfg, twice)


def _qpow2_frac(case: str, q: int, twice: int) -> Fraction:
    cfg = _formal_config(case, q)
    return e_power_frac(cfg, twice)


class _FormalConfig:
    """Carrier of (case, q, q0) for formula evaluation without geometry."""

    def __init__(self, case: str, q: int):
        self.case = case
        self.q = q
        if case == "unitary":
            from math import isqrt
            q0 = isqrt(q)
            if q0 * q0 != q:
                raise ValueError(f"unitary case needs square q, got {q}")
            self.q0 = q0
        else:
            self.q0 = None


@lru_cache(maxsize=None)
def _formal_config(case: str, q: int) -> _FormalConfig:
    return _FormalConfig(case, q)


def dual_polar_size(case: str, q: int, nu2: int) -> int:
    n = 1
    for t in range(1, nu2 + 1):
        n *= _qpow2(case, q, 2 * t + _case_e2(case) - 2) + 1
    return n


def dual_polar_eigenvalue(case: str, q: int, nu2: int, i: int, j: int) -> int:
    """Eigenvalue of the i-th relation on the j-th eigenspace (exact integer).

    The alternating sum over s; an empty range yields 0, which also covers
    i > nu2 as needed by the disjoint-coset branch of the flat scheme.
    """
    if not (0 <= j <= nu2) or i < 0:
        raise ValueError(f"indices out of range: i={i}, j={j}, nu'={nu2}")
    e2 = _case_e2(case)
    total = 0
    for s in range(max(0, j - i), min(j, nu2 - i) + 1):
        sign = -1 if (j + s) % 2 else 1
        twice = e2 * (i + s - j) + 2 * binomial2(j - s) + 2 * binomial2(i + s - j)
        total += (sign * gauss_binomial(j, s, q)
                  * gauss_binomial(nu2 - j, nu2 - i - s, q)
                  * _qpow2(case, q, twice))
    return total


def dual_polar_valency(case: str, q: int, nu2: int, i: int) -> int:
    twice = i * (i - 1) + _case_e2(case) * i
    return _qpow2(case, q, twice) * gauss_binomial(nu2, i, q)


def dual_polar_multiplicity(case: str, q: int, nu2: int, j: int) -> int:
    """Dimension of the j-th eigenspace; exact (rational arithmetic must cancel)."""
    if not 0 <= j <= nu2:
        raise ValueError(f"j={j} out of range 0..{nu2}")
    e2 = _case_e2(case)
    m = Fraction(q) ** j * gauss_binomial(nu2, j, q)
    m *= (_qpow2_frac(case, q, 2 * nu2 + e2 - 4 * j) + 1)
    m /= (_qpow2_frac(case, q, 2 * nu2 + e2 - 2 * j) + 1)
    for s in range(1, j + 1):
        m *= _qpow2_frac(case, q, 2 * nu2 + e2 - 2 * s) + 1
        m /= _qpow2_frac(case, q, 2 * s - e2) + 1
    if m.denominator != 1:
        raise AssertionError(f"non-integral multiplicity {m} at {case} q={q} nu'={nu2} j={j}")
    return int(m)


# ---------------------------------------------------------------------------
# closed forms: flat scheme layer

def complete_graph_eigenvalue(ell: int, q: int, xi: int, eta: int) -> int:
    """First-eigenmatrix entry of the complete graph on q^ell vertices."""
    return [[1, q**ell - 1], [1, -1]][eta][xi]


def valency(config: SpaceConfig, rel: RelIndex) -> int:
    i, xi = rel
    _code(config.nu, rel)
    v = config.q**i * dual_polar_valency(config.case, config.q, config.nu, i)
    if xi == 1:
        v *= config.q ** (config.nu - i) - 1
    return v


def scheme_eigenvalue(config: SpaceConfig, rel: RelIndex, eig: RelIndex) -> int:
    """p_rel(eig) = q^i * c(xi,eta) * (dual polar eigenvalue one level down for eta=1)."""
    i, xi = rel
    j, eta = eig
    _code(config.nu, rel)
    _code(config.nu, eig)
    c = complete_graph_eigenvalue(config.nu - i, config.q, xi, eta)
    return config.q**i * c * dual_polar_eigenvalue(config.case, config.q,
                                                   config.nu - eta, i, j)


def scheme_multiplicity(config: SpaceConfig, eig: RelIndex) -> int:
    j, eta = eig
    _code(config.nu, eig)
    if eta == 0:
        return dual_polar_multiplicity(config.case, config.q, config.nu, j)
    factor = (config.q**config.nu - 1) * (e_power(config, 2 * config.nu + config.e2 - 2) + 1)
    return factor * dual_polar_multiplicity(config.case, config.q, config.nu - 1, j)


@dataclass(frozen=True)
class SchemeTables:
    """Closed-form eigen data of the flat scheme for one configuration."""

    config: SpaceConfig
    rels: tuple[RelIndex, ...]
    eigs: tuple[RelIndex, ...]
    size: int
    valencies: dict[RelIndex, int]
    multiplicities: dict[RelIndex, int]
    P: dict[tuple[RelIndex, RelIndex], int]          # P[rel, eig]
    Q: dict[tuple[RelIndex, RelIndex], Fraction]     # Q[eig, rel]


@lru_cache(maxsize=None)
def scheme_tables(config: SpaceConfig) -> SchemeTables:
    rels = tuple(relation_indices(config.nu))
    size = config.q**config.nu * dual_polar_size(config.case, config.q, config.nu)
    vals = {r: valency(config, r) for r in rels}
    mults = {e: scheme_multiplicity(config, e) for e in rels}
    P = {(r, e): scheme_eigenvalue(config, r, e) for r in rels for e in rels}
    Q = {(e, r): Fraction(mults[e] * P[r, e], vals[r]) for e in rels for r in rels}
    if sum(vals.values()) != size or sum(mults.values()) != size:
        raise AssertionError(f"valency/multiplicity totals disagree with |X|={size}")
    return SchemeTables(config, rels, rels, size, vals, mults, P, Q)


def check_pq_identity(tables: SchemeTables) -> bool:
    """P Q == |X| I exactly."""
    rels = tables.rels
    for a in rels:
        for b in rels:
            s = sum(tables.P[a, e] * tables.Q[e, b] for e in rels)
            if s != (tables.size if a == b else 0):
                return False
    return True


def check_column_sums(tables: SchemeTables) -> bool:
    """sum over relations of p_rel(eig) is |X| at (0,0) and 0 elsewhere."""
    for e in tables.rels:
        s = sum(tables.P[r, e] for r in tables.rels)
        if s != (tables.size if e == (0, 0) else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# constructed relations / adjacency

def relation_of(config: SpaceConfig, f1: Flat, f2: Flat) -> RelIndex:
    """(i, xi) for a pair of maximal totally isotropic flats."""
    for f in (f1, f2):
        if f.dim != config.nu or not is_totally_isotropic(config, f.direction):
            raise ValueError("relation defined only on maximal totally isotropic flats")
    total = sum_subspace(config, f1.direction, f2.direction)
    dim_int = 2 * config.nu - total.dim
    i = config.nu - dim_int
    xi = 0 if flat_meet(config, f1, f2) is not None else 1
    return (i, xi)


@dataclass(frozen=True)
class PairFactors:
    """The relation table factored by direction groups; every array read-only.

    The distance i of two directions da and db is
    flats.direction_distances(config)[da, db].  For 0 < i < nu the
    meeting relation (i, 0) is read off groups of directions: at i = 1 a
    group is the set of maximal directions inside one type-(nu + 1, 2)
    container W = da + db, every pair of which is at distance 1, and at
    i >= 2 it is one unordered direction pair.  Every direction lies in the same number m of groups,
    and every group holds sizes[i - 1] = k directions, ascending, whose
    sum W splits the flats of each into the q^(nu - i) cosets of W, q^i
    flats to a coset; the flats met by a flat a of direction d are those
    of the group's other directions in the coset a + W, for each group of
    d.  The entries (t, g, lambda) of the G groups, numbered
    (t G + g) q^(nu - i) + lambda, are the flats of group g's t-th
    direction in its coset lambda, the cosets of a group numbered in the
    order of their least flat of its first direction:
    members[i - 1][:, e] lists the q^i flats of entry e.
    keys[i - 1][j, a] is the entry of flat a in the j-th group of its
    direction, its own for k > 2 and its partner's for k = 2 (at i >= 2,
    and at i = 1 on the orthogonal spaces, whose containers hold two
    directions).  The i = 1 level also lists the type-II spreads
    (container_cosets).
    """

    per: int
    sizes: tuple[int, ...]
    keys: tuple[np.ndarray, ...]
    members: tuple[np.ndarray, ...]

    def container_cosets(self) -> np.ndarray:
        """members[0] as a read-only (q, k, G, q^(nu - 1)) view: [:, t, g,
        lambda] are the q flats of the t-th direction of the type-(nu + 1, 2)
        container g in its coset lambda, for the G containers of k
        directions each; nu >= 2."""
        members = self.members[0]
        q = members.shape[0]
        return members.reshape(q, self.sizes[0], -1, self.per // q)


PAIR_ELEMENTS = 2**18  # bounds the (pairs, q^nu, q^nu) gathers of pair_factors


@lru_cache(maxsize=None)
def pair_factors(config: SpaceConfig) -> PairFactors:
    """The direction-group factorisation of the relations, read off the
    coset table.

    coset_of[d, x] is the flat of direction d through point x, and
    flats.direction_distances gives the distance i of every direction
    pair da, db.  For 0 < i < nu, the flats of db through the points of a
    flat of da are the q^i flats of db that meet it, each met in
    q^(nu - i) points, and the flats of da with the same least such flat
    form one coset of da + db (_coset_split), whose member lists are the
    cosets of the flats of db, so each pair da < db is split once.  Two
    distance-1 partners of da lie in one container exactly when they
    split the flats of da into the same cosets, which groups them
    (_containers); at i >= 2 the groups are the pairs da < db.  Any other
    pattern is an internal error, and so is a direction whose partners
    fall into containers of unequal sizes.  The gathers hold PAIR_ELEMENTS entries at a time; nothing has
    n^2 entries.
    """
    coset_of = coset_table(config)
    nu, q, per = config.nu, config.q, config.q**config.nu
    rd = direction_distances(config)
    dirs = len(rd)
    points = flat_point_table(config).reshape(dirs, per, per)
    sizes, keys, members = [], [], []
    for i in range(1, nu):
        da, db = np.nonzero(rd == i)
        v = len(db) // dirs
        if (np.bincount(da, minlength=dirs) != v).any():
            raise AssertionError(f"the directions of {config.key()} have unequal numbers "
                                 f"of partners at i = {i}")
        cosets = per // q**i
        pairs = np.stack([da, db], axis=1)[da < db]
        splits = _splits(config, coset_of, points, pairs, cosets)
        groups = pairs
        if i == 1:
            groups, splits = _containers(config, pairs, splits, db.reshape(dirs, v))
        key, member = _group_tables(config, groups, splits, dirs, q**i)
        sizes.append(groups.shape[1])
        keys.append(key)
        members.append(member)
    for a in keys + members:
        a.flags.writeable = False
    return PairFactors(per, tuple(sizes), tuple(keys), tuple(members))


def _splits(config: SpaceConfig, coset_of: np.ndarray, points: np.ndarray, pairs: np.ndarray,
            cosets: int):
    """(start, local, member) of _coset_split for the direction pairs
    pairs[p] = (da, db), in chunks of about PAIR_ELEMENTS gathered entries
    from p = start on; a pair that does not split is an internal error."""
    per = points.shape[1]
    step = max(1, PAIR_ELEMENTS // (per * per))
    for s in range(0, len(pairs), step):
        part = pairs[s:s + step]
        through = np.sort(coset_of[part[:, 1:, None, None], points[part[:, 0], None]], axis=3)
        split = _coset_split(through, per * part[:, 1:, None], cosets)
        if split is None:
            raise AssertionError(f"the meeting flats of two directions of {config.key()} "
                                 f"do not split into the cosets of their sum")
        yield s, *split


def _coset_names(local: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, least) for local[..., a], the coset of flat a of a base
    direction among a pair's cosets, size flats to each: first lists the
    base flats coset by coset, ascending within each, and least[..., kappa]
    is the least base flat of coset kappa."""
    first = np.argsort(local, axis=-1, kind="stable")
    return first, first[..., ::size]


def _containers(config: SpaceConfig, pairs: np.ndarray, splits,
                partners: np.ndarray) -> tuple[np.ndarray, list]:
    """(groups, splits) at i = 1: the type-(nu + 1, 2) containers as rows
    of their maximal directions, ascending, and (0, local, met) of
    _coset_split for the pairs of each row's first direction with the
    others, for _group_tables.

    splits yields _coset_split's for the pairs da < db at distance 1,
    rows of pairs, and partners[d] lists the partners of direction d,
    ascending.  The member lists of the pair (da, db) are the cosets of
    the flats of db, so each pair splits the flats of both.  The container
    da + db splits the flats of da into its cosets, and two partners lie
    in one container exactly when they split them alike, each coset named
    by its least flat of da.  Every direction's partners must fall into
    containers of one size k - 1, and each container must be seen from
    each of its k directions."""
    dirs, v = partners.shape
    q = config.q
    local, met = (np.concatenate(a)[:, 0] for a in zip(*(split[1:] for split in splits)))
    per = local.shape[1]
    # the flats of db in coset kappa of the pair (da, db) form its coset kappa of (db, da)
    back = np.empty_like(local)
    np.put_along_axis(back, met.reshape(len(met), per) - per * pairs[:, 1:],
                      np.repeat(np.arange(per // q), q)[None], axis=1)
    owner = np.repeat(np.arange(dirs), v)
    codes = owner * dirs + partners.reshape(-1)
    ordered = np.empty((dirs * v, per), dtype=local.dtype)
    ordered[np.searchsorted(codes, pairs[:, 0] * dirs + pairs[:, 1])] = local
    ordered[np.searchsorted(codes, pairs[:, 1] * dirs + pairs[:, 0])] = back
    least = _coset_names(ordered, q)[1]
    named = np.column_stack([owner, np.take_along_axis(least, ordered, axis=1)])
    order, count = exact.row_runs(named)
    if (count != count[0]).any():
        raise AssertionError(f"the distance-1 partners of a direction of {config.key()} "
                             f"do not fall into containers of one size")
    # the pairs of each group's owner, its partners ascending
    order = order.reshape(-1, count[0])
    rows = np.column_stack([owner[order[:, 0]], partners.reshape(-1)[order]])
    if (exact.row_runs(np.sort(rows, axis=1))[1] != count[0] + 1).any():
        raise AssertionError(f"a container of {config.key()} is not seen alike from each "
                             f"of its directions")
    first = rows[:, 0] < rows[:, 1]  # seen from its first direction: its pairs are rows of pairs
    at = np.searchsorted(pairs[:, 0] * dirs + pairs[:, 1], codes[order[first]])
    return rows[first], [(0, local[at], met[at])]


def _group_tables(config: SpaceConfig, groups: np.ndarray, splits,
                  dirs: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, members) of one level (see PairFactors) for groups, the rows
    of k directions, ascending, of the dirs directions, and size = q^i
    flats to a coset; splits yields (start, local, met), _coset_split's
    for the pairs (groups[p, 0], groups[p, s]) from p = start on.

    The other directions of a group split its first direction's flats
    into the same cosets (a pair has one; _containers groups a container's
    directions so), which are numbered in the order of their least flat of
    the first direction."""
    G, k = groups.shape
    per = config.q**config.nu
    cosets = per // size
    m = G * k // dirs
    if (np.bincount(groups.reshape(-1), minlength=dirs) != m).any():
        raise AssertionError(f"the directions of {config.key()} lie in unequal numbers "
                             f"of groups")
    # slot[g, t]: the place of group g among the groups of its t-th direction
    order = np.argsort(groups.reshape(-1), kind="stable")
    slot = np.empty(G * k, dtype=np.int64)
    slot[order] = np.arange(G * k) % m
    slot = slot.reshape(G, k)
    read = np.arange(k) if k > 2 else np.array([1, 0])  # its own entry, or its partner's
    keys = np.empty((m, dirs, per), dtype=np.min_scalar_type(G * k * cosets - 1))
    members = np.empty((size, k, G, cosets), dtype=np.min_scalar_type(dirs * per - 1))
    for s, local, met in splits:
        c = len(local)
        first, least = _coset_names(local, size)
        rank = np.argsort(least, axis=2)  # the coset kappa numbered lambda
        cells = np.empty((c, k, cosets, size), dtype=np.int64)
        cells[:, 0] = np.take_along_axis(first[:, 0].reshape(c, cosets, size),
                                         rank[:, 0, :, None], axis=1)
        cells[:, 0] += per * groups[s:s + c, :1, None]
        cells[:, 1:] = np.take_along_axis(met, rank[..., None], axis=2)
        members[:, :, s:s + c] = cells.transpose(3, 1, 0, 2)
        # the number lambda of each flat's coset, direction by direction
        numbered = np.empty((c, k, per), dtype=np.int64)
        flats = (cells - per * groups[s:s + c, :, None, None]).reshape(c, k, per)
        np.put_along_axis(numbered, flats, np.repeat(np.arange(cosets), size)[None, None], axis=2)
        entry = (read * G + np.arange(s, s + c)[:, None]) * cosets
        keys[slot[s:s + c], groups[s:s + c]] = entry[..., None] + numbered
    return keys.reshape(m, dirs * per), members.reshape(size, k * G * cosets)


def _coset_split(through: np.ndarray, offset: np.ndarray, cosets: int):
    """(local, member) for a chunk of direction pairs, or None if their
    meeting flats do not split into cosets.

    through[p, a] lists, sorted, the flats of db through the q^nu points
    of flat a of da, and the flats of db have the ids offset[p] + 0..q^nu-1.
    Each of the q^nu / cosets flats met must appear cosets times in a row;
    a coset is named by the least flat it meets, local[p, a] numbers the
    coset of a among the pair's cosets, each of which must hold per /
    cosets flats of da, and member[p, kappa] lists the flats of db in
    coset kappa, which must partition them: a count per pair of every
    flat of db over the member lists must read one.
    """
    c, v, per, _ = through.shape
    runs = through.reshape(c, v, per, per // cosets, cosets)
    met = runs[..., 0]  # the flats of db meeting each flat of da, ascending
    first = met[..., 0] - offset
    if ((runs != met[..., None]).any() or (np.diff(met, axis=3) <= 0).any()
            or (first < 0).any() or (met[..., -1] - offset >= per).any()):
        return None
    pair = np.arange(c * v).reshape(c, v, 1)
    found = np.zeros(c * v * per, dtype=bool)
    found[pair * per + first] = True
    found = found.reshape(c, v, per)
    if (found.sum(axis=2) != cosets).any():
        return None
    local = (np.cumsum(found, axis=2) - 1).reshape(-1)[pair * per + first]
    if (np.bincount((pair * cosets + local).ravel(), minlength=c * v * cosets)
            != per // cosets).any():
        return None
    # entry j of the member list of a's coset, flat: whole-row fancy indexing is slower
    cells = (pair * cosets + local)[..., None] * (per // cosets) + np.arange(per // cosets)
    member = np.empty(c * v * per, dtype=met.dtype)
    member[cells] = met
    if (member[cells] != met).any():
        return None
    # a partition: each flat of db is in exactly one coset of its pair
    slot = member.reshape(c, v, per) - offset + pair * per
    if (np.bincount(slot.ravel(), minlength=c * v * per) != 1).any():
        return None
    return local, member.reshape(c, v, cosets, per // cosets)


PAIR_BLOCK = 256  # pairs (or rows) per block of relation_rows in verify_scheme and relation_counts


def relation_rows(config: SpaceConfig, ids) -> np.ndarray:
    """R[ids, :], the relation codes 2i + xi of the flats ids against every
    flat, int8 (len(ids), n), read off the coset table.

    A flat x of direction d is in relation (i, 1), code 2i + 1, with every
    flat of a direction at distance i = rd[d, d'] < nu, and in (nu, 0),
    code 2 nu, with every flat of an opposite direction, each of which
    meets x in one point.  The flats that meet x, those of every
    direction through the points of x, read 2i instead: x itself at
    i = 0 and the q^i flats met at 0 < i < nu.
    """
    rd = direction_distances(config)
    nu, per = config.nu, config.q**config.nu
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    d = ids // per
    codes = np.where(rd == nu, 2 * nu, 2 * rd + 1).astype(np.int8)
    rows = np.repeat(codes[d], per, axis=1)
    n = rows.shape[1]
    # met[j, d', p]: the flat of direction d' through the p-th point of flat ids[j]
    met = np.moveaxis(coset_table(config)[:, flat_point_table(config)[ids]], 0, 1)
    met += n * np.arange(len(ids))[:, None, None]
    rows.reshape(-1)[met] = 2 * rd[d][:, :, None]
    return rows


def relation_counts(config: SpaceConfig, ids) -> np.ndarray:
    """How many ordered pairs of the flats ids are in each relation code,
    (2 nu + 1,) int64: the block R[ids][:, ids], PAIR_BLOCK rows at a time."""
    ids = np.asarray(ids, dtype=np.int64)
    counts = np.zeros(2 * config.nu + 1, dtype=np.int64)
    for s in range(0, len(ids), PAIR_BLOCK):
        block = relation_rows(config, ids[s:s + PAIR_BLOCK])[:, ids]
        counts += np.bincount(block.reshape(-1), minlength=len(counts))
    return counts


@lru_cache(maxsize=None)
def distance_masks(config: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 masks (rd = i), i = 0..nu, stacked into one ((nu + 1) d, d)
    matrix for the d directions, and its float64 copy; both read-only."""
    rd = direction_distances(config)
    # a copy that owns its data, so that exact._bound caches its bound
    masks = (rd == np.arange(config.nu + 1)[:, None, None]).reshape(-1, len(rd)).copy()
    masks_float = masks.astype(np.float64)
    masks.flags.writeable = masks_float.flags.writeable = False
    return masks, masks_float


PRODUCT_COLUMNS = 512  # rows per block of the span checks' products and point gathers
MEETING_ELEMENTS = 2**22  # bounds the gathers of each column block of _meeting_sums


def _meeting_sums(factors: PairFactors, i: int, X: np.ndarray) -> np.ndarray:
    """A_(i,0) X for 0 < i < nu, by coset sums taken once per group: X
    summed over the q^i members of every entry (t, g, lambda), then read
    back at each flat's entry in each of its groups and summed over the
    groups.  In a group of k = 2 directions (every group at i >= 2, and
    the containers of the orthogonal spaces) a flat's key is its
    partner's entry.  In a container of k > 2, with c(d, F) the entry sum
    of direction d in the container flat F and T(F) = sum_d c(d, F),
    A_(1,0) X(a) = sum over the containers W of d_a of
    T(a + W) - c(d_a, a + W), and a flat's key is its own entry of T - c.
    Each sum is at most n max|X| in size."""
    # np.take copies whole rows; X[index] is several times slower for c > 1
    sums = np.take(X, factors.members[i - 1], axis=0).sum(axis=0)
    k = factors.sizes[i - 1]
    if k > 2:
        # the entries of each direction slot t form one block, so T is a sum of k blocks
        cells = sums.reshape(k, len(sums) // k, X.shape[1])
        np.subtract(cells.sum(axis=0), cells, out=cells)
    return np.take(sums, factors.keys[i - 1], axis=0).sum(axis=0)


def meeting_product(config: SpaceConfig, i: int, X: np.ndarray) -> np.ndarray:
    """A_(i,0) X for 0 < i < nu and an n x c matrix X in int64 or object
    arithmetic, each entry at most n max|X| in size: the group sums of
    _meeting_sums (the containers at i = 1, the direction pairs at
    i >= 2), at every width, in column blocks whose gathers hold about
    MEETING_ELEMENTS entries.  No n x n array is built."""
    factors = pair_factors(config)
    n, c = X.shape
    step = max(1, MEETING_ELEMENTS // (n * len(factors.keys[i - 1])))
    if c <= step:
        return _meeting_sums(factors, i, X)
    return np.hstack([_meeting_sums(factors, i, X[:, s:s + step]) for s in range(0, c, step)])


def relation_products(config: SpaceConfig, X: np.ndarray) -> np.ndarray:
    """The relation-count table T, T[r] = A_r X exactly for every relation
    code r, (2 nu + 1) x n x c for the n x c integer matrix X.

    Every term is read off the direction-group factorisation.  With S the
    class totals of X (the sums over each direction's q^nu cosets), the
    class part (rd = i) S spread over each class is A_(i,0) X + A_(i,1) X
    for i < nu and A_(nu,0) X for i = nu, all from one product with the
    stacked distance masks.  The meeting part is A_(0,0) X = X and, for
    0 < i < nu, A_(i,0) X from meeting_product.  T[2i + 1] is the class
    part less T[2i].  No n x n array is built.

    Sums run in int64 while 8 nu n max|X| < 2^62, and in object arithmetic
    otherwise.  That bound holds every sum: each class total, distance
    product, coset sum and entry of T is at most n max|X| in size, each
    difference at most 2 n max|X|, and each int_matmul bound n max|X|.
    """
    factors = pair_factors(config)
    nu, per = config.nu, factors.per
    n, c = X.shape
    wide = X.dtype == object or (X.size and 8 * nu * n
                                 * max(-int(X.min()), int(X.max())) >= 2**62)
    Xw = X.astype(object if wide else np.int64, copy=False)
    dirs = n // per
    out = np.empty((2 * nu + 1, n, c), dtype=Xw.dtype)
    # (rd = i) S for every distance i in one product, spread over each class
    # into rows 2i + 1 for i < nu and row 2 nu
    totals = Xw.reshape(dirs, per, c).sum(axis=1)
    masks, masks_float = distance_masks(config)
    classes = exact.int_matmul(masks, totals, a_float=masks_float).reshape(nu + 1, dirs, 1, c)
    out.reshape(2 * nu + 1, dirs, per, c)[[*range(1, 2 * nu, 2), 2 * nu]] = classes
    out[0] = Xw
    for i in range(1, nu):
        out[2 * i] = meeting_product(config, i, Xw)
    out[1:2 * nu:2] -= out[0:2 * nu:2]
    return out if X.dtype == object else out.astype(np.int64, copy=False)


@lru_cache(maxsize=None)
def idempotent_coefficients(config: SpaceConfig) -> tuple[tuple[int, ...], np.ndarray]:
    """(L, C) with E_e = (1/L[e]) sum_r C[e, r] A_r exactly, both in code order.

    C[e, r] = L_e Q[e, r] / |X|, and L_e is the lcm of the denominators of
    row e, so C is an integer matrix.
    """
    tables = scheme_tables(config)
    Ls, rows = [], []
    for e in tables.eigs:
        coeffs = [tables.Q[e, r] / tables.size for r in tables.rels]
        L = lcm(*(c.denominator for c in coeffs))
        Ls.append(L)
        rows.append([int(c * L) for c in coeffs])
    C = np.array(rows, dtype=np.int64)
    C.flags.writeable = False
    return tuple(Ls), C


def projections(config: SpaceConfig, T: np.ndarray) -> np.ndarray:
    """P = C T for the relation-count table T of X: P[e] = L_e E_e X =
    sum_r C[e, r] A_r X, every idempotent projection of X, in one exact
    product."""
    C = idempotent_coefficients(config)[1]
    return exact.int_matmul(C, T.reshape(len(T), -1)).reshape(T.shape)


def idempotent_int(config: SpaceConfig, eig: RelIndex) -> tuple[int, np.ndarray]:
    """(L, B) with the primitive idempotent equal to B / L exactly, as a
    dense gather over every relation row."""
    Ls, C = idempotent_coefficients(config)
    k = _code(config.nu, eig)
    B = C[k][relation_rows(config, np.arange(scheme_tables(config).size))]
    B.flags.writeable = False
    return Ls[k], B


def _eigen_checks(config: SpaceConfig, V: np.ndarray, BVs) -> dict[str, bool]:
    """A_r B_e V = p_r(e) B_e V, B_a B_e V = [a = e] L_e B_e V, trace B_e =
    L_e m_e and sum_e (L / L_e) B_e V = L V, exactly, for BVs[e] = B_e V.

    The relation products of B_e V are every A_r B_e V, C applied to them
    every B_a B_e V, and trace B_e = sum_x C[e, R[x, x]].
    """
    tables = scheme_tables(config)
    rels = tables.rels
    Ls, C = idempotent_coefficients(config)
    ok = dict.fromkeys(("eigen", "idempotent", "orthogonal"), True)
    for k, (e, BV) in enumerate(zip(rels, BVs)):
        S = relation_products(config, BV)
        ok["eigen"] &= all(bool((ABV == tables.P[r, e] * BV).all()) for r, ABV in zip(rels, S))
        BBV = projections(config, S)
        ok["idempotent"] &= bool((BBV[k] == Ls[k] * BV).all())
        ok["orthogonal"] &= not np.delete(BBV.any(axis=(1, 2)), k).any()
    # every flat meets itself, in relation (0, 0)
    diagonal = np.repeat(2 * np.diagonal(direction_distances(config)), config.q**config.nu)
    ok["trace"] = all(int(C[k][diagonal].sum()) == Ls[k] * tables.multiplicities[e]
                      for k, e in enumerate(rels))
    Lc = lcm(*Ls)
    total = sum((Lc // L) * BV.astype(object) for L, BV in zip(Ls, BVs))
    ok["sum"] = bool((total == Lc * V).all())
    return ok


def check_eigen_system(config: SpaceConfig) -> dict[str, bool]:
    """Full exact verification of A E = p E, E^2 = E, orthogonality, traces, sum."""
    tables = scheme_tables(config)
    Bs = [idempotent_int(config, e)[1] for e in tables.rels]
    return _eigen_checks(config, np.eye(tables.size, dtype=np.int64), Bs)


def check_eigen_system_probes(config: SpaceConfig, seed: int = 0,
                              count: int = 100) -> dict[str, bool]:
    """Eigen checks against a seeded probe block V, B_e V = sum_r C[e, r] A_r V."""
    tables = scheme_tables(config)
    rng = np.random.default_rng(list(repr(("eigenprobe", config.key(), seed)).encode()))
    V = rng.integers(-4, 5, (tables.size, count))
    ok = _eigen_checks(config, V, projections(config, relation_products(config, V)))
    return {key: ok[key] for key in ("eigen", "idempotent", "trace", "sum")}


# ---------------------------------------------------------------------------
# inner distributions

@dataclass(frozen=True)
class InnerDistribution:
    """Relation frequencies of a subset, with the derived eigenspace profile."""

    u: dict[RelIndex, Fraction]
    uQ: dict[RelIndex, Fraction]


def inner_distribution(config: SpaceConfig, ids) -> InnerDistribution:
    ids = sorted(ids)
    if not ids:
        raise ValueError("inner distribution of the empty set is undefined")
    tables = scheme_tables(config)
    counts = relation_counts(config, ids)  # in code order, as tables.rels
    u = {rel: Fraction(int(c), len(ids)) for rel, c in zip(tables.rels, counts)}
    uQ = {e: sum((u[r] * tables.Q[e, r] for r in tables.rels), Fraction(0)) for e in tables.rels}
    return InnerDistribution(u, uQ)


# ---------------------------------------------------------------------------
# q-valuations

def q_valuation(case: str, q: int, nu2: int, i: int, j: int):
    """Exact q-adic valuation of the evaluated eigenvalue (ground truth).

    Unitary valuations count powers of q0 and halve, so half-integers
    appear; a zero eigenvalue yields the INFINITY marker.
    """
    value = dual_polar_eigenvalue(case, q, nu2, i, j)
    if value == 0:
        return INFINITY
    base = _formal_config(case, q).q0 if case == "unitary" else q
    k = 0
    while value % base == 0:
        value //= base
        k += 1
    return Fraction(k, 2) if case == "unitary" else Fraction(k)


def phi_piecewise(case: str, nu2: int, i: int, j: int):
    """The stated three-regime piecewise exponent (q-independent form).

    Returns a Fraction, INFINITY, or None when (i, j) is outside the
    stated domain (j >= 2 requires i >= 2).
    """
    e2 = _case_e2(case)
    e = Fraction(e2, 2)
    if j == 0:
        return binomial2(i) + e * i
    if j == 1:
        return binomial2(i - 1) + e * (i - 1)
    if i < 2 or j > nu2 or i > nu2:
        return None
    mid4 = 4 * j - 2 * i - e2  # 4*(j - i/2 - e/2)
    if mid4 < 0:
        return binomial2(i) + (j - i) * (j - e)
    if mid4 > 4 * (nu2 - i):
        return (j - e - nu2 + 1) * (j - nu2 + i - 1) + binomial2(i - 1) + e * (i - 1)
    if case == "orthogonal":
        if i % 2 == 0:
            return Fraction(i * (i - 2), 4)
        return INFINITY if 2 * j == nu2 else Fraction((i - 1) ** 2, 4)
    if case == "unitary":
        return Fraction(i * (i - 1), 4)
    if i % 2 == 0:
        # the middle branch's infinity chain, read as a conjunction
        if 2 * (j - 1) == nu2 and 2 * i == nu2 and nu2 % 4 == 0:
            return INFINITY
        return Fraction(i * i, 4)
    return Fraction(i * i - 1, 4)


@dataclass(frozen=True)
class ValuationMismatch:
    case: str
    q: int
    nu2: int
    i: int
    j: int
    direct: object
    piecewise: object


def valuation_cells(case: str, q: int, nu_max: int) -> list[tuple[int, int, int, object, object]]:
    """(nu2, i, j, direct, piecewise) for every 2 <= i, j <= nu2 <= nu_max,
    each valuation evaluated once."""
    return [(nu2, i, j, q_valuation(case, q, nu2, i, j), phi_piecewise(case, nu2, i, j))
            for nu2 in range(2, nu_max + 1)
            for i in range(2, nu2 + 1)
            for j in range(2, nu2 + 1)]


def valuation_report(case: str, q: int, nu_max: int,
                     cells=None) -> list[ValuationMismatch]:
    """Disagreements between the piecewise form and the direct valuation,
    filtered from valuation_cells (computed here unless given)."""
    if cells is None:
        cells = valuation_cells(case, q, nu_max)
    return [ValuationMismatch(case, q, nu2, i, j, direct, stated)
            for nu2, i, j, direct, stated in cells
            if stated is not None and direct != stated]


# ---------------------------------------------------------------------------
# column uniqueness of the disjoint-parallel eigenvalue

@dataclass(frozen=True)
class UniquenessResult:
    rel: RelIndex
    unique: bool
    duplicates: tuple[RelIndex, ...]
    predicted_exception: str | None
    matches_prediction: bool


def predicted_uniqueness_exception(case: str, nu: int, rel: RelIndex) -> str | None:
    """The stated exception list; (c) is scoped to the orthogonal case.

    The exception catalogue: (a) the parallel relation at nu >= 2,
    (b) the trivial-intersection relation at nu >= 2, (c) even i with
    2 <= i <= nu-1.  As stated, (c) carries no case restriction, but the
    derivation behind it collides values only when e = 0; the scan
    confirms symplectic/unitary rows with even i are in fact unique.
    """
    i, xi = rel
    if nu >= 2 and rel == (0, 1):
        return "a"
    if nu >= 2 and rel == (nu, 0):
        return "b"
    if case == "orthogonal" and i % 2 == 0 and 2 <= i <= nu - 1:
        return "c"
    return None


def column_uniqueness(config: SpaceConfig, rel: RelIndex) -> UniquenessResult:
    """Scan the closed-form row of eigenvalues for duplicates of p_rel(0,1)."""
    if rel == (0, 0):
        raise ValueError("the identity relation is excluded")
    tables = scheme_tables(config)
    target = tables.P[rel, (0, 1)]
    dups = tuple(e for e in tables.eigs
                 if e != (0, 1) and tables.P[rel, e] == target)
    predicted = predicted_uniqueness_exception(config.case, config.nu, rel)
    return UniquenessResult(rel, not dups, dups, predicted,
                            (not dups) == (predicted is None))


# ---------------------------------------------------------------------------
# axiom verification

EXHAUSTIVE_TRIPLE_BOUND = 120


@dataclass(frozen=True)
class SchemeReport:
    partition_ok: bool
    symmetry_ok: bool
    diagonal_ok: bool
    intersection_ok: bool
    pairs_checked: int
    mode: str
    seed: int

    @property
    def ok(self) -> bool:
        return (self.partition_ok and self.symmetry_ok and self.diagonal_ok
                and self.intersection_ok)


def verify_scheme(config: SpaceConfig, seed: int = 0, samples: int = 10_000) -> SchemeReport:
    """Brute-force the scheme axioms on the relation rows.

    The histograms of (R[x, z], R[z, y]) over z must agree on the checked
    pairs (x, y) of one relation: every ordered pair in exhaustive mode
    (n <= EXHAUSTIVE_TRIPLE_BOUND), a seeded stream of them in sampled
    mode.  A block of PAIR_BLOCK pairs reads the rows of its flats once
    (relation_rows) and takes one offset bincount, R[z, y] read as
    R[y, z].  On the rows read, every code must lie in 0..2 nu and each
    must occur (partition_ok), and a row must read 0 at its own flat and
    nowhere else (diagonal_ok); R[x, y] = R[y, x] at every checked pair
    and rd = rd^T (symmetry_ok).  relation_rows writes each entry from rd
    and from whether the two flats share a point, so with rd symmetric R
    is symmetric off the checked pairs too.
    """
    d = 2 * config.nu
    rd = direction_distances(config)
    n = len(rd) * config.q**config.nu
    if n <= EXHAUSTIVE_TRIPLE_BOUND:
        mode = "exhaustive"
        xs, ys = np.divmod(np.arange(n * n), n)
    else:
        mode = "sampled"
        rng = random.Random(("scheme-axioms", config.key(), seed).__repr__())
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
        xs, ys = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    cells = (d + 1) ** 2
    reference: dict[int, np.ndarray] = {}
    codes = np.zeros(256, dtype=np.int64)  # every code of the rows read, a negative one past 127
    diagonal_ok = intersection_ok = True
    symmetry_ok = bool((rd == rd.T).all())
    for s in range(0, len(xs), PAIR_BLOCK):
        x, y = xs[s:s + PAIR_BLOCK], ys[s:s + PAIR_BLOCK]
        ids, at = np.unique(np.concatenate([x, y]), return_inverse=True)
        rows = relation_rows(config, ids)
        counts = np.bincount(rows.reshape(-1).view(np.uint8), minlength=256)
        codes += counts
        # one 0 in each row, at its own flat
        diagonal_ok &= bool(counts[0] == len(ids) and (rows[np.arange(len(ids)), ids] == 0).all())
        rx, ry = rows[at[:len(x)]], rows[at[len(x):]]
        rel = rx[np.arange(len(x)), y]
        symmetry_ok &= bool((rel == ry[np.arange(len(x)), x]).all())
        if counts[d + 1:].any():
            continue  # the histograms need codes in 0..2 nu
        keys = rx.astype(np.int64)
        keys *= d + 1
        keys += ry + cells * np.arange(len(x))[:, None]
        hists = np.bincount(keys.reshape(-1), minlength=cells * len(x)).reshape(len(x), cells)
        for k in exact.sorted_unique(rel):
            block = hists[rel == k]
            if not (block == reference.setdefault(int(k), block[0])).all():
                intersection_ok = False
    partition_ok = bool(codes[:d + 1].all() and not codes[d + 1:].any())
    return SchemeReport(partition_ok, symmetry_ok, diagonal_ok, intersection_ok,
                        len(xs), mode, seed)

"""Shared fixtures; the package memoizes heavy artifacts per configuration."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from clflats import exact, spreads
from clflats.flats import (
    container_flats,
    coset_representatives,
    coset_table,
    direction_distances,
    enumerate_flats,
    flat_make,
    flat_points,
    flats_in,
    incidence_matrix,
)
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
    _code,
    _coset_split,
    idempotent_coefficients,
    pair_factors,
    projections,
    relation_products,
    relation_rows,
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
    before it reduced the whole stack with one batched F_q elimination."""
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


@lru_cache(maxsize=None)
def ordered_pair_tables(config) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(keys, members) of each level 0 < i < nu, one coset table per
    ordered direction pair: the layout scheme.pair_factors built before it
    grouped the directions.  For the j-th partner db of each direction da
    (db ascending) at distance i, the pair's cosets are numbered from
    (da v + j) q^(nu - i); keys[j, a] numbers the coset of flat a for the
    j-th partner of its direction, and members[:, kappa] lists the q^i
    flats of the partner in coset kappa."""
    coset_of = coset_table(config)
    nu, q, per = config.nu, config.q, config.q**config.nu
    rd = direction_distances(config)
    dirs = len(rd)
    points = np.argsort(coset_of, axis=1, kind="stable").reshape(dirs, per, per)
    levels = []
    for i in range(1, nu):
        cosets = q ** (nu - i)
        partners = np.nonzero(rd == i)[1].reshape(dirs, -1)
        v = partners.shape[1]
        key = np.empty((dirs, v, per), dtype=np.int64)
        member = np.empty((dirs, v, cosets, q**i), dtype=np.int64)
        for da in range(dirs):
            through = np.sort(coset_of[partners[da][None, :, None, None], points[da][None, None]],
                              axis=3)
            split = _coset_split(through, per * partners[da][None, :, None], cosets)
            assert split is not None
            local, member[da] = split[0][0], split[1][0]
            key[da] = local + cosets * np.arange(da * v, (da + 1) * v)[:, None]
        levels.append((key.transpose(1, 0, 2).reshape(v, dirs * per),
                       member.reshape(-1, q**i).T))
    return tuple(levels)


def ordered_meeting_sums(config, i: int, X: np.ndarray) -> np.ndarray:
    """A_(i,0) X from the ordered-pair tables: X summed over the members of
    every coset, read back at the coset of each flat for each partner
    direction and summed over the partners (scheme._meeting_sums before
    the direction groups)."""
    keys, members = ordered_pair_tables(config)[i - 1]
    sums = np.take(X, members, axis=0).sum(axis=0)
    return np.take(sums, keys, axis=0).sum(axis=0)


def _partner_entries(factors, i: int) -> np.ndarray:
    """(m, n, k - 1) entries of the flats that each flat meets in each of
    its m groups at level i: those of the group's other directions in the
    flat's coset."""
    keys, k = factors.keys[i - 1], factors.sizes[i - 1]
    if k == 2:
        return keys[..., None]
    block = factors.members[i - 1].shape[1] // k
    own = keys.astype(np.int64)
    t = own // block
    return (own - t * block)[..., None] + block * ((t[..., None] + np.arange(1, k)) % k)


def meeting_neighbours(factors, i: int) -> np.ndarray:
    """(n, K) ids of the K flats in relation (i, 0) with each flat, 0 < i < nu,
    read off the group tables of scheme.pair_factors."""
    met = np.take(factors.members[i - 1], _partner_entries(factors, i), axis=1)
    return np.moveaxis(met, 2, 0).reshape(met.shape[2], -1)  # (q^i, m, n, k - 1) to n rows


@lru_cache(maxsize=None)
def relation_matrix(config) -> np.ndarray:
    """Relation codes (2i + xi) for all ordered pairs of maximal flats, int8
    and read-only: the expansion of scheme.pair_factors that the package
    kept before it read rows off the coset table (scheme.relation_rows).

    Each direction pair's q^nu x q^nu block holds 2i + 1 (disjoint), less
    one where the flats meet: only on the diagonal at i = 0, everywhere at
    i = nu, and at the meeting neighbours of the group tables for
    0 < i < nu.
    """
    factors, rd = pair_factors(config), direction_distances(config)
    nu, per = config.nu, factors.per
    codes = np.where(rd == nu, 2 * nu, 2 * rd + 1).astype(np.int8)
    R = np.repeat(np.repeat(codes, per, axis=0), per, axis=1)
    n = R.shape[0]
    R[np.arange(n), np.arange(n)] = 0
    for i in range(1, nu):
        R[np.arange(n)[:, None], meeting_neighbours(factors, i)] = 2 * i
    R.flags.writeable = False
    return R


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


@lru_cache(maxsize=None)
def _container_directions_oracle(config, direction: Subspace, i: int) -> tuple[Subspace, ...]:
    layer = {direction}
    for _ in range(i):
        nxt = set()
        for sub in layer:
            for v in all_vectors(config):
                if any(v) and not contains_vector(config.field, sub, v):
                    nxt.add(canonicalize(config, list(sub.basis) + [v]))
        layer = nxt
    return tuple(sub for sub in sorted(layer, key=Subspace.flat_key)
                 if gram_rank(config, sub) == 2 * i)


def container_flats_oracle(config, s, i: int) -> list:
    """The type-(nu+i, 2i) flats containing the maximal flat s, by the
    layer growth flats.container_flats made before it read the direction
    distances: every (nu+i)-space over the direction of s, one canonicalize
    per (subspace, vector off it) pair, kept when its Gram rank is 2i,
    through s.rep.  The layers depend on the direction alone, so they are
    cached per direction."""
    return [flat_make(config, w, s.rep)
            for w in _container_directions_oracle(config, s.direction, i)]


def distinct_containers(config, levels=None, bases=None) -> list:
    """Every type-(nu+i, 2i) container flat for each i in levels (default
    1..nu-1) over the first `bases` maximal directions (all when None),
    once, in first-seen order: every coset of each container direction
    through the direction's first flat, which has representative 0.  With
    every direction, that is every container, since each holds a maximal
    flat."""
    per = config.q**config.nu
    seen = {}
    for base in enumerate_flats(config, config.nu)[::per][:bases]:
        for i in levels or range(1, config.nu):
            for t in container_flats(config, base, i):
                for rep in coset_representatives(config, t.direction):
                    seen.setdefault(flat_make(config, t.direction, rep), None)
    return list(seen)


def incidence_by_flat_points(config, big):
    """The incidence of a container's points against the maximal flats
    inside it, by a flat_points loop over its interior flats: the points
    sorted, the flats in flats_in order and the int64 0/1 matrix."""
    members = flats_in(config, big)
    pts = sorted(flat_points(config, big))
    pt_index = {p: i for i, p in enumerate(pts)}
    M = np.zeros((len(pts), len(members)), dtype=np.int64)
    for col, f in enumerate(members):
        for p in flat_points(config, f):
            M[pt_index[p], col] = 1
    return tuple(pts), tuple(members), M


def gram_oracle(config) -> np.ndarray:
    """M M^T for the incidence matrix M, int64, by one float64 product:
    exact, since each entry is at most the number of flats, below 2^53."""
    M = incidence_matrix(config).astype(np.float64)
    return (M @ M.T).astype(np.int64)


@lru_cache(maxsize=None)
def incidence_kernel(config) -> np.ndarray:
    """The certified integer basis N of ker M, int64 and read-only: the
    oracle of the translation-character bases K and K_F, of the image
    route and of the spectral rank of M.  N is built from the RREF of M
    over GF(p), rebuilt over Q by rational reconstruction and checked
    exactly (exact.certified_null_basis); a flat set chi is in the image
    of M^T iff N chi = 0."""
    N = exact.certified_null_basis(incidence_matrix(config))
    N.flags.writeable = False
    return N


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
                                                 exact.MODULAR_PRIME)
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


def idempotent_int(config, eig) -> tuple[int, np.ndarray]:
    """(L, B) with the primitive idempotent equal to B / L exactly, as a
    dense gather of the coefficients C[e] over every relation row: the
    n x n idempotent the package built before it proved the eigen system
    from the translation characters."""
    Ls, C = idempotent_coefficients(config)
    k = _code(config.nu, eig)
    B = C[k][relation_rows(config, np.arange(scheme_tables(config).size))]
    B.flags.writeable = False
    return Ls[k], B


def dense_eigen_checks(config, V: np.ndarray, BVs) -> dict[str, bool]:
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
    Lc = math.lcm(*Ls)
    total = sum((Lc // L) * BV.astype(object) for L, BV in zip(Ls, BVs))
    ok["sum"] = bool((total == Lc * V).all())
    return ok


def dense_eigen_system(config) -> dict[str, bool]:
    """The five eigen-system keys from the dense idempotents, V = I: the
    check the package ran at n <= 500 before the character proof."""
    tables = scheme_tables(config)
    Bs = [idempotent_int(config, e)[1] for e in tables.rels]
    return dense_eigen_checks(config, np.eye(tables.size, dtype=np.int64), Bs)

"""Classical spaces over F_q^(2*nu): forms, subspaces, isotropy, isometries.

A space is one of three cases with parameter e (kept doubled as e2):

    symplectic  e2=2   form [[0, I], [-I, 0]]      any supported q
    unitary     e2=1   form [[0, I], [ I, 0]]      q a square
    orthogonal  e2=0   form [[0, I], [ I, 0]]      q odd

Vectors are tuples of field element codes; subspaces carry the unique
reduced-row-echelon basis of their row space, so equal row spaces give
equal objects.  The canonical order on subspaces of one dimension is
lexicographic on the flattened basis entries.

Membership in a subspace is a syndrome test.  The parity check H of a
subspace, built from its RREF basis, has one column per free (non-pivot)
column, so v H is reduce_mod(sub, v) read at the free columns and
v H = 0 iff v lies in the subspace.  syndrome_keys evaluates v H for a
whole stack of (subspace, vectors) pairs with one table-lookup pass per
coordinate, exact over every supported field, and encodes each syndrome
base q as an int64 key; two vectors have equal keys iff they lie in the
same coset of the subspace, and the keys of the canonical coset
representatives count 0, 1, ... in coset_representatives order.
rref_stack reduces a whole stack of matrices the same way, one pass per
column, so that parity_checks can build the checks of many subspaces
(say, every sum of two directions) from one elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import product

import numpy as np

from .field import FiniteField, e_power, field_of_order, gauss_binomial

CASES = ("symplectic", "unitary", "orthogonal")
E2 = {"symplectic": 2, "unitary": 1, "orthogonal": 0}

Vector = tuple[int, ...]


@dataclass(frozen=True)
class SpaceConfig:
    """The tuple (case, q, nu) plus derived field / form data."""

    case: str
    q: int
    nu: int
    e2: int = dc_field(compare=False)
    field: FiniteField = dc_field(compare=False, repr=False)
    form: tuple[Vector, ...] = dc_field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.nu

    @property
    def q0(self) -> int | None:
        return self.field.q0

    @property
    def num_points(self) -> int:
        return self.q**self.dim

    def key(self) -> tuple[str, int, int]:
        return (self.case, self.q, self.nu)


@lru_cache(maxsize=None)
def space_config(case: str, q: int, nu: int) -> SpaceConfig:
    """Validate and build a space configuration."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    if nu < 1:
        raise ValueError(f"nu must be at least 1, got nu={nu}")
    fld = field_of_order(q)
    if case == "unitary" and fld.q0 is None:
        raise ValueError(f"unitary case needs a square field order, got q={q}")
    if case == "orthogonal" and q % 2 == 0:
        raise ValueError(f"orthogonal case needs odd q, got q={q}")
    n = 2 * nu
    form = [[0] * n for _ in range(n)]
    minus_one = fld.neg(1)
    for i in range(nu):
        form[i][nu + i] = 1
        form[nu + i][i] = minus_one if case == "symplectic" else 1
    return SpaceConfig(case, q, nu, E2[case], fld, tuple(tuple(r) for r in form))


# ---------------------------------------------------------------------------
# vectors

def zero_vector(config: SpaceConfig) -> Vector:
    return (0,) * config.dim


def unit_vector(config: SpaceConfig, j: int, scale: int = 1) -> Vector:
    v = [0] * config.dim
    v[j] = scale
    return tuple(v)


def vec_add(fld: FiniteField, u: Vector, v: Vector) -> Vector:
    add = fld.add_table
    return tuple(add[a][b] for a, b in zip(u, v))


def vec_sub(fld: FiniteField, u: Vector, v: Vector) -> Vector:
    add, neg = fld.add_table, fld.neg_table
    return tuple(add[a][neg[b]] for a, b in zip(u, v))


def vec_scale(fld: FiniteField, c: int, v: Vector) -> Vector:
    row = fld.mul_table[c]
    return tuple(row[a] for a in v)


def all_vectors(config: SpaceConfig) -> list[Vector]:
    """All points of F_q^(2*nu) in lexicographic order."""
    return [tuple(v) for v in product(range(config.q), repeat=config.dim)]


def point_array(config: SpaceConfig) -> np.ndarray:
    """all_vectors(config) as an int64 (q^dim, dim) array, in point-index order."""
    powers = config.q ** np.arange(config.dim - 1, -1, -1, dtype=np.int64)
    return np.arange(config.num_points, dtype=np.int64)[:, None] // powers % config.q


def point_index(config: SpaceConfig, v: Vector) -> int:
    """The base-q number of v: its position in all_vectors order."""
    idx = 0
    for c in v:
        idx = idx * config.q + c
    return idx


def form_value(config: SpaceConfig, x: Vector, y: Vector) -> int:
    """The form x . F . ybar^T (y conjugated in the unitary case)."""
    n = config.dim
    if len(x) != n or len(y) != n:
        raise ValueError(f"vectors must have length {n}")
    fld = config.field
    yy = tuple(fld.conj_table[c] for c in y) if config.case == "unitary" else y
    nu = config.nu
    s = 0
    if config.case == "symplectic":
        for t in range(nu):
            s = fld.add(s, fld.mul(x[t], yy[nu + t]))
            s = fld.sub(s, fld.mul(x[nu + t], yy[t]))
    else:
        for t in range(nu):
            s = fld.add(s, fld.mul(x[t], yy[nu + t]))
            s = fld.add(s, fld.mul(x[nu + t], yy[t]))
    return s


def is_isotropic(config: SpaceConfig, v: Vector) -> bool:
    return form_value(config, v, v) == 0


# ---------------------------------------------------------------------------
# subspaces

@dataclass(frozen=True, order=True)
class Subspace:
    """Row space represented by its unique reduced-row-echelon basis."""

    basis: tuple[Vector, ...]
    pivots: tuple[int, ...] = dc_field(compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def flat_key(self) -> tuple[int, ...]:
        return tuple(c for row in self.basis for c in row)


def rref(fld: FiniteField, rows: list[list[int]]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form over the field; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    add, mul, neg, inv = fld.add_table, fld.mul_table, fld.neg_table, fld.inv_table
    r = 0
    pivots = []
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv_inv = inv[rows[r][c]]
        if piv_inv != 1:
            mrow = mul[piv_inv]
            rows[r] = [mrow[a] for a in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                fr = mul[f]
                rows[i] = [add[a][neg[fr[b]]] for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def canonicalize(config: SpaceConfig, rows) -> Subspace:
    """Canonical Subspace for the row space of the given rows."""
    basis, pivots = rref(config.field, [list(r) for r in rows])
    return Subspace(basis, pivots)


def zero_subspace(config: SpaceConfig) -> Subspace:
    return Subspace((), ())


@lru_cache(maxsize=None)
def subspace_span(fld_q: int, basis: tuple[Vector, ...]) -> frozenset[Vector]:
    fld = field_of_order(fld_q)
    vecs = [(0,) * (len(basis[0]) if basis else 0)]
    if not basis:
        return frozenset({()})
    for b in basis:
        vecs = [vec_add(fld, v, vec_scale(fld, c, b)) for v in vecs for c in range(fld.q)]
    return frozenset(vecs)


def span_points(config: SpaceConfig, sub: Subspace) -> frozenset[Vector]:
    if sub.dim == 0:
        return frozenset({zero_vector(config)})
    return subspace_span(config.q, sub.basis)


def reduce_mod(fld: FiniteField, sub: Subspace, v: Vector) -> Vector:
    """Subtract the unique combination of basis rows clearing pivot coords."""
    out = list(v)
    sub_, mul = fld.sub, fld.mul_table
    for row, pc in zip(sub.basis, sub.pivots):
        c = out[pc]
        if c:
            mr = mul[c]
            out = [sub_(a, mr[b]) for a, b in zip(out, row)]
    return tuple(out)


def rref_stack(config: SpaceConfig, rows) -> tuple[np.ndarray, np.ndarray]:
    """The RREF over F_q of every matrix of a stack (S, r, dim), as rref.

    Returns the reduced stack, zero rows last, and the pivot column of
    each row (S, r), -1 past the rank.  One pass per column through the
    field tables clears that column in every matrix at once.
    """
    fld, q = config.field, config.q
    A = np.array(rows, dtype=np.int64)
    S, r, _ = A.shape
    inv, neg = np.array(fld.inv_table), np.array(fld.neg_table)
    pivots = np.full((S, r), -1, dtype=np.int64)
    rank = np.zeros(S, dtype=np.int64)
    for c in range(config.dim):
        found = (A[:, :, c] != 0) & (np.arange(r) >= rank[:, None])
        s = np.flatnonzero(found.any(axis=1))
        src, dst = found[s].argmax(axis=1), rank[s]
        A[s, src], A[s, dst] = A[s, dst], A[s, src]
        pivot = fld.mul_flat[inv[A[s, dst, c]][:, None] * q + A[s, dst]]
        factor = A[s, :, c]
        A[s] = fld.add_flat[A[s] * q + neg[fld.mul_flat[factor[:, :, None] * q + pivot[:, None]]]]
        A[s, dst] = pivot
        pivots[s, dst] = c
        rank[s] += 1
    return A, pivots


def parity_checks(config: SpaceConfig, bases, pivots) -> np.ndarray:
    """The int64 parity checks (S, dim, m) of a stack of RREF bases (S, k, dim)
    with their pivot columns (S, k), m = dim - k.

    Column j is the unit vector at the j-th free column f minus B[t, f]
    at each pivot column p_t, so v H is reduce_mod(sub, v) at the free
    columns.
    """
    piv = np.asarray(pivots, dtype=np.int64)
    S, k = piv.shape
    B = np.asarray(bases, dtype=np.int64).reshape(S, k, config.dim)
    m = config.dim - k
    is_pivot = np.zeros((S, config.dim), dtype=bool)
    np.put_along_axis(is_pivot, piv, True, axis=1)
    free = np.argsort(is_pivot, axis=1, kind="stable")[:, :m]
    H = np.zeros((S, config.dim, m), dtype=np.int64)
    stack = np.arange(S)[:, None, None]
    H[stack[:, 0], free, np.arange(m)] = 1
    H[stack, piv[:, :, None], np.arange(m)] = np.array(config.field.neg_table)[
        np.take_along_axis(B, free[:, None, :], axis=2)]
    return H


def subspace_checks(config: SpaceConfig, subs) -> np.ndarray:
    """parity_checks of a sequence of subspaces of one dimension."""
    return parity_checks(config, [s.basis for s in subs], [s.pivots for s in subs])


def syndrome_keys(config: SpaceConfig, checks: np.ndarray, vectors) -> np.ndarray:
    """keys[s, v]: the base-q number of the syndrome vectors[s, v] H_s over F_q.

    checks is a stack (S, dim, m) of parity checks of one codimension m;
    vectors is a stack (S, V, dim), or one (V, dim) block shared by every
    check.  The syndromes accumulate in one pass per coordinate through
    the field's add and mul tables; the first syndrome entry is the most
    significant digit, so keys order like the reduced vectors.
    """
    fld, q = config.field, config.q
    H = np.asarray(checks, dtype=np.int64)
    X = np.asarray(vectors, dtype=np.int64)
    if X.ndim == 2:
        X = X[None]
    s = np.zeros((), dtype=np.int64)
    for t in range(config.dim):
        s = fld.add_flat[s * q + fld.mul_flat[X[:, :, t, None] * q + H[:, None, t, :]]]
    keys = np.zeros(s.shape[:2], dtype=np.int64)
    for j in range(H.shape[2]):
        keys = keys * q + s[:, :, j]
    return keys


def subspaces_contain(config: SpaceConfig, bigs, smalls) -> np.ndarray:
    """contains[b, s]: whether smalls[s] lies in bigs[b], by syndromes.

    The bigs share one dimension and the smalls another; a small subspace
    lies in a big one iff every row of its basis has syndrome zero.
    """
    k = smalls[0].dim if len(smalls) else 0
    rows = np.array([s.basis for s in smalls], dtype=np.int64).reshape(-1, config.dim)
    keys = syndrome_keys(config, subspace_checks(config, bigs), rows)
    return ~keys.reshape(len(bigs), len(smalls), k).any(axis=2)


def contains_vector(fld: FiniteField, sub: Subspace, v: Vector) -> bool:
    return not any(reduce_mod(fld, sub, v))


def contains_subspace(fld: FiniteField, big: Subspace, small: Subspace) -> bool:
    return all(contains_vector(fld, big, row) for row in small.basis)


def sum_subspace(config: SpaceConfig, a: Subspace, b: Subspace) -> Subspace:
    return canonicalize(config, list(a.basis) + list(b.basis))


def intersect_subspace(config: SpaceConfig, a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: RREF of [[A A],[B 0]]; zero-left rows carry the intersection."""
    n = config.dim
    rows = [list(r) + list(r) for r in a.basis]
    rows += [list(r) + [0] * n for r in b.basis]
    ech, _ = rref(config.field, rows)
    inter = [row[n:] for row in ech if not any(row[:n])]
    return canonicalize(config, inter)


def gram_matrix(config: SpaceConfig, sub: Subspace) -> list[list[int]]:
    return [[form_value(config, r, s) for s in sub.basis] for r in sub.basis]


def gram_rank(config: SpaceConfig, sub: Subspace) -> int:
    ech, _ = rref(config.field, gram_matrix(config, sub))
    return len(ech)


def subspace_type(config: SpaceConfig, sub: Subspace) -> tuple[int, int]:
    """(dimension, rank of the Gram matrix); type (m,0) means totally isotropic."""
    return sub.dim, gram_rank(config, sub)


def is_totally_isotropic(config: SpaceConfig, sub: Subspace) -> bool:
    return gram_rank(config, sub) == 0


# ---------------------------------------------------------------------------
# enumeration of totally isotropic subspaces

def _perp_space(config: SpaceConfig, sub: Subspace) -> Subspace:
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


ISOTROPIC_ENUM_BOUND = 10**5


def qh_plus_one(config: SpaceConfig, t: int) -> int:
    """q^(t+e-1) + 1, with e carried doubled."""
    return e_power(config, 2 * t + config.e2 - 2) + 1


def count_isotropic(config: SpaceConfig, m: int) -> int:
    """Closed-form number of type-(m,0) subspaces: [nu, m]_q prod (q^(t+e-1) + 1)
    over t = nu-m+1..nu."""
    if m < 0 or m > config.nu:
        raise ValueError(f"m={m} out of range 0..{config.nu}")
    n = gauss_binomial(config.nu, m, config.q)
    for t in range(config.nu - m + 1, config.nu + 1):
        n *= qh_plus_one(config, t)
    return n


@lru_cache(maxsize=None)
def enumerate_isotropic(config: SpaceConfig, m: int) -> tuple[Subspace, ...]:
    """All type-(m,0) subspaces in canonical (lexicographic) order.

    Grown one dimension at a time: adjoin isotropic vectors from the
    perp of the current subspace, canonicalize, deduplicate.  Every level
    is admitted by its closed-form count before any level grows.
    """
    expected = count_isotropic(config, m)
    if expected > ISOTROPIC_ENUM_BOUND:
        raise ValueError(f"isotropic subspace enumeration bound exceeded: "
                         f"{expected} type-({m},0) subspaces > {ISOTROPIC_ENUM_BOUND}")
    if m == 0:
        return (zero_subspace(config),)
    prev = enumerate_isotropic(config, m - 1)
    fld = config.field
    out = set()
    for sub in prev:
        perp = _perp_space(config, sub)
        for v in span_points(config, perp):
            if not any(v) or not is_isotropic(config, v):
                continue
            if contains_vector(fld, sub, v):
                continue
            out.add(canonicalize(config, list(sub.basis) + [v]))
    return tuple(sorted(out, key=Subspace.flat_key))


def isotropic_brute_force(config: SpaceConfig, m: int) -> tuple[Subspace, ...]:
    """Independent oracle for small m: scan all m-subsets of vectors."""
    if m == 0:
        return (zero_subspace(config),)
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


# ---------------------------------------------------------------------------
# isometries

@dataclass(frozen=True)
class Isometry:
    """A form-preserving matrix T plus a translation v, acting as x -> xT + v."""

    T: tuple[Vector, ...]
    v: Vector

    def apply_vector(self, config: SpaceConfig, x: Vector) -> Vector:
        fld = config.field
        n = config.dim
        out = list(self.v)
        for i in range(n):
            c = x[i]
            if c:
                mr = fld.mul_table[c]
                out = [fld.add(a, mr[b]) for a, b in zip(out, self.T[i])]
        return tuple(out)

    def apply_subspace(self, config: SpaceConfig, sub: Subspace) -> Subspace:
        fld = config.field
        rows = []
        for r in sub.basis:
            out = [0] * config.dim
            for i in range(config.dim):
                c = r[i]
                if c:
                    mr = fld.mul_table[c]
                    out = [fld.add(a, mr[b]) for a, b in zip(out, self.T[i])]
            rows.append(out)
        return canonicalize(config, rows)


def _check_isometry(config: SpaceConfig, T: tuple[Vector, ...]) -> None:
    for i in range(config.dim):
        for j in range(config.dim):
            if form_value(config, T[i], T[j]) != config.form[i][j]:
                raise ValueError("matrix does not preserve the form")


def make_isometry(config: SpaceConfig, T, v=None) -> Isometry:
    T = tuple(tuple(r) for r in T)
    _check_isometry(config, T)
    return Isometry(T, tuple(v) if v is not None else zero_vector(config))


def random_isometry(config: SpaceConfig, seed: int) -> Isometry:
    """Seeded isometry by greedy completion of hyperbolic pairs."""
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
    _check_isometry(config, T)
    v = tuple(rng.randrange(config.q) for _ in range(config.dim))
    return Isometry(T, v)


# ---------------------------------------------------------------------------
# point graph

POINT_GRAPH_BOUND = 2**14


def point_graph(config: SpaceConfig) -> np.ndarray:
    """Adjacency on F_q^(2*nu): x ~ y iff x - y is nonzero isotropic."""
    n = config.num_points
    if n > POINT_GRAPH_BOUND:
        raise ValueError(f"point graph bound exceeded: {n} > {POINT_GRAPH_BOUND}")
    pts = all_vectors(config)
    iso = np.zeros(n, dtype=np.int64)
    fld = config.field
    for d in pts:
        if any(d) and is_isotropic(config, d):
            iso[point_index(config, d)] = 1
    A = np.zeros((n, n), dtype=np.int64)
    for i, x in enumerate(pts):
        for j in range(i + 1, n):
            d = vec_sub(fld, pts[j], x)
            if iso[point_index(config, d)]:
                A[i, j] = A[j, i] = 1
    A.flags.writeable = False
    return A

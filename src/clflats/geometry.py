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
subspace_checks builds the checks of a whole sequence of subspaces of
one dimension at once.

The totally isotropic subspaces are enumerated by orderly generation
with the RREF as the canonical form (R. C. Read, "Every one a winner",
1978; B. D. McKay, "Isomorph-free exhaustive generation", 1998): each
comes out once, from its RREF, with no canonicalization and no set.
Level m + 1 is built from level m, all at once with numpy:

    U of dimension m + 1 is totally isotropic iff its RREF is [S; v], where
    S is a totally isotropic m-space in RREF, v = e_c + (entries beyond c)
    with c past every pivot of S and S zero at column c, and v is
    isotropic and perpendicular to every row of S.

Proof.  The first m rows of U's RREF are the RREF of a subspace S of U,
so S is totally isotropic, and its last row has that shape; conversely
such a [S; v] is in RREF, and its rows are pairwise perpendicular and
isotropic, so it spans a totally isotropic (m + 1)-space.  Each U thus
comes from exactly one (S, v).  The forms of whole stacks of vectors come
from form_values, one add_flat/mul_flat pass per coordinate, and one
np.lexsort of the flattened bases puts a level in Subspace.flat_key order.
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


def _digit_rows(q: int, k: int) -> np.ndarray:
    """All of F_q^k as an int64 (q^k, k) array of base-q digits, in lexicographic order."""
    powers = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.arange(q**k, dtype=np.int64)[:, None] // powers % q


def point_array(config: SpaceConfig) -> np.ndarray:
    """all_vectors(config) as an int64 (q^dim, dim) array, in point-index order."""
    return _digit_rows(config.q, config.dim)


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


def form_values(config: SpaceConfig, X, Y) -> np.ndarray:
    """form_value over stacks: the int64 form of X[...] with Y[...], for
    int64 (..., dim) arrays of field codes that broadcast against each other.

    y's partner, conj(y) with its halves swapped and (symplectic case) the
    half moved last negated, pairs with x coordinate by coordinate, so the
    form is one mul_flat lookup and one add_flat pass per coordinate.
    """
    fld, q, nu = config.field, config.q, config.nu
    Y = np.asarray(Y, dtype=np.int64)
    if config.case == "unitary":
        Y = np.array(fld.conj_table, dtype=np.int64)[Y]
    low = Y[..., :nu]
    if config.case == "symplectic":
        low = np.array(fld.neg_table, dtype=np.int64)[low]
    prods = fld.mul_flat[np.asarray(X, dtype=np.int64) * q
                         + np.concatenate([Y[..., nu:], low], axis=-1)]
    s = np.zeros(prods.shape[:-1], dtype=np.int64)
    for t in range(config.dim):
        s = fld.add_flat[s * q + prods[..., t]]
    return s


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


def subspace_checks(config: SpaceConfig, subs) -> np.ndarray:
    """The int64 parity checks (S, dim, m) of a sequence of subspaces of one
    dimension k, m = dim - k.

    Column j is the unit vector at the j-th free column f minus B[t, f]
    at each pivot column p_t of the RREF basis B, so v H is
    reduce_mod(sub, v) at the free columns.
    """
    S, k = len(subs), subs[0].dim if len(subs) else 0
    piv = np.array([s.pivots for s in subs], dtype=np.int64).reshape(S, k)
    B = np.array([s.basis for s in subs], dtype=np.int64).reshape(S, k, config.dim)
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

ISOTROPIC_ENUM_BOUND = 10**5

# the most (subspace, tail) pairs whose forms one pass of the generator evaluates
GENERATION_PAIRS = 1 << 16


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

    Orderly generation from the level below, each subspace once from its
    RREF: U is totally isotropic of dimension m iff its RREF is [S; v] with
    S totally isotropic of dimension m - 1, v = e_c + (entries beyond c),
    c past S's pivots and S zero at column c, v isotropic and perpendicular
    to S.  Proof: S, the RREF of U's first m - 1 rows, spans a subspace of
    U; conversely, such a [S; v] is in RREF with pairwise perpendicular
    isotropic rows.  Level m and every level below it are admitted by
    their closed-form counts before any level is generated.
    """
    for k in (m, *range(m - 1, 0, -1)):
        expected = count_isotropic(config, k)
        if expected > ISOTROPIC_ENUM_BOUND:
            raise ValueError(f"isotropic subspace enumeration bound exceeded: "
                             f"{expected} type-({k},0) subspaces > {ISOTROPIC_ENUM_BOUND}")
    bases, pivots = _isotropic_rref(config, m)
    return tuple(Subspace(tuple(map(tuple, b)), tuple(p))
                 for b, p in zip(bases.tolist(), pivots.tolist()))


@lru_cache(maxsize=None)
def _isotropic_rref(config: SpaceConfig, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The RREF bases (S, m, dim) and pivot columns (S, m) of the type-(m,0)
    subspaces in Subspace.flat_key order, as read-only int64 arrays.

    For each column c, the level-(m-1) bases whose pivots all lie before c
    and whose rows are zero at c are paired with every last row e_c +
    (tail beyond c) that is isotropic, and the pairs whose forms vanish
    are kept, GENERATION_PAIRS pairs at a time; one lexsort orders them.
    """
    n, q = config.dim, config.q
    if m == 0:
        bases, pivots = np.zeros((1, 0, n), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
    else:
        prev, prev_pivots = _isotropic_rref(config, m - 1)
        last = prev_pivots[:, -1] if m > 1 else np.full(len(prev), -1)
        parts = []
        for c in range(n):
            keep = np.flatnonzero((last < c) & ~prev[:, :, c].any(axis=1))
            if not keep.size:
                continue
            rows = np.zeros((q ** (n - 1 - c), n), dtype=np.int64)
            rows[:, c] = 1
            rows[:, c + 1:] = _digit_rows(q, n - 1 - c)
            rows = rows[form_values(config, rows, rows) == 0]
            step = max(1, GENERATION_PAIRS // len(rows))
            for start in range(0, keep.size, step):
                subs = keep[start:start + step]
                perp = np.ones((subs.size, len(rows)), dtype=bool)
                for r in range(m - 1):
                    perp &= form_values(config, prev[subs, r, None, :], rows) == 0
                s, v = np.nonzero(perp)
                parts.append((np.concatenate([prev[subs[s]], rows[v, None, :]], axis=1),
                              np.column_stack([prev_pivots[subs[s]], np.full(s.size, c)])))
        bases = np.concatenate([b for b, _ in parts])
        pivots = np.concatenate([p for _, p in parts])
        order = np.lexsort(bases.reshape(len(bases), -1).T[::-1])
        bases, pivots = bases[order], pivots[order]
    bases.flags.writeable = pivots.flags.writeable = False
    return bases, pivots


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
    rows = np.array(T, dtype=np.int64)
    if (form_values(config, rows[:, None], rows[None]) != np.array(config.form)).any():
        raise ValueError("matrix does not preserve the form")


def random_isometry(config: SpaceConfig, seed: int) -> Isometry:
    """Seeded isometry by greedy completion of hyperbolic pairs.

    Each step draws u from the isotropic points perpendicular to the pairs
    chosen so far (both ways round) and off their span, and then w from
    the isotropic points perpendicular to them with form(u, w) = 1, both in
    point-index order.  Each filter is a form_values pass over point_array;
    a point lies off the span iff its syndrome under the span's parity
    check is nonzero, so the zero point is never drawn.
    """
    rng = random.Random(("isometry", config.key(), seed).__repr__())
    P = point_array(config)
    isotropic = form_values(config, P, P) == 0
    chosen = np.zeros((0, config.dim), dtype=np.int64)
    us: list[Vector] = []
    ws: list[Vector] = []
    for _ in range(config.nu):
        perp = isotropic & ~((form_values(config, chosen[:, None], P) != 0)
                             | (form_values(config, P, chosen[:, None]) != 0)).any(axis=0)
        span = subspace_checks(config, [canonicalize(config, chosen.tolist())])
        off = syndrome_keys(config, span, P)[0] != 0
        u = P[rng.choice(np.flatnonzero(perp & off))]
        w = P[rng.choice(np.flatnonzero(perp & (form_values(config, u, P) == 1)))]
        us.append(tuple(u.tolist()))
        ws.append(tuple(w.tolist()))
        chosen = np.vstack([chosen, u, w])
    T = tuple(us + ws)
    _check_isometry(config, T)
    v = tuple(rng.randrange(config.q) for _ in range(config.dim))
    return Isometry(T, v)


# ---------------------------------------------------------------------------
# point graph

POINT_GRAPH_BOUND = 2**14


@lru_cache(maxsize=None)
def point_graph(config: SpaceConfig) -> np.ndarray:
    """Adjacency on F_q^(2*nu): x ~ y iff x - y is nonzero isotropic.

    diff[i, j], the point index of x_j - x_i, accumulates base q with one
    add_flat lookup of x_j + (-x_i) per coordinate; it is below
    POINT_GRAPH_BOUND, so int16 holds it.  The isotropic points are one
    form_values call over point_array.
    """
    n = config.num_points
    if n > POINT_GRAPH_BOUND:
        raise ValueError(f"point graph bound exceeded: {n} > {POINT_GRAPH_BOUND}")
    fld, q = config.field, config.q
    P = point_array(config)
    X = P.astype(np.int16)
    add = fld.add_flat.astype(np.int16)
    neg = np.array(fld.neg_table, dtype=np.int16)[X]
    diff = np.zeros((n, n), dtype=np.int16)
    for t in range(config.dim):
        diff = diff * q + add[X[None, :, t] * q + neg[:, None, t]]
    iso = P.any(axis=1) & (form_values(config, P, P) == 0)
    A = iso[diff].astype(np.int64)
    A.flags.writeable = False
    return A

"""The association scheme on maximal totally isotropic flats.

Relations are indexed by (i, xi): i = nu - dim of the direction
intersection, xi = 0 when the cosets meet and 1 when they are disjoint
((nu, 1) never occurs).  Eigenspaces carry the same index family.  All
eigenvalue, valency, and multiplicity tables come from closed forms,
and so does the coefficient table C of the idempotents in the
adjacency basis, E_e = (1/L_e) sum_r C[e, r] A_r.  The int8 relation
table is built from syndromes: flats ra + da and rb + db meet iff ra
and rb have equal syndrome keys under a parity check of da + db
(geometry.syndrome_keys), and the sums of all direction pairs come from
stacked RREFs (geometry.rref_stack), so a q^nu x q^nu block is one key
comparison.  It is the only cached n x n object: every product in the
Bose-Mesner algebra, sum_r W[k, r] A_r X for a small integer table W,
is read from it by relation_products.  Dense idempotents exist only
inside check_eigen_system, where they are the object being verified.
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
from .flats import Flat, enumerate_flats, flat_meet
from .geometry import (
    SpaceConfig,
    enumerate_isotropic,
    is_totally_isotropic,
    parity_checks,
    rref_stack,
    sum_subspace,
    syndrome_keys,
)

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
    from .geometry import E2
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


PAIR_CHUNK = 1024  # direction pairs per stacked RREF and syndrome_keys call


@lru_cache(maxsize=None)
def relation_matrix(config: SpaceConfig) -> np.ndarray:
    """Relation codes (2i + xi) for all ordered pairs of maximal flats.

    For directions da, db the sum da + db has dimension nu + i, and the
    flats ra + da, rb + db meet iff ra - rb lies in da + db, that is iff
    ra and rb have equal syndrome keys under its parity check.  Each
    chunk of PAIR_CHUNK direction pairs takes one stacked RREF of the
    bases [da; db]; its pairs are grouped by the rank of the sum, and
    each group takes one syndrome_keys call over every representative
    of every pair, its blocks scattered through the (D, q^nu, D, q^nu)
    view of the table.  A sum that is the whole space has no syndrome:
    its block is the constant 2 nu.
    """
    flats = enumerate_flats(config, config.nu)
    dirs = enumerate_isotropic(config, config.nu)
    n, D = len(flats), len(dirs)
    per = config.q**config.nu  # cosets per direction, contiguous in id order
    if n != per * D:
        raise AssertionError(f"{n} flats, expected {per} cosets for each of {D} directions")
    reps = np.array([f.rep for f in flats], dtype=np.int64).reshape(D, per, config.dim)
    bases = np.array([d.basis for d in dirs], dtype=np.int64)
    R = np.full((n, n), -1, dtype=np.int8)
    blocks_of = R.reshape(D, per, D, per)  # a view: block (a, b) is blocks_of[a, :, b, :]
    first, second = np.triu_indices(D)
    for s in range(0, len(first), PAIR_CHUNK):
        a, b = first[s:s + PAIR_CHUNK], second[s:s + PAIR_CHUNK]
        sums, pivots = rref_stack(config, np.concatenate([bases[a], bases[b]], axis=1))
        rank = (pivots >= 0).sum(axis=1)
        for dim in np.unique(rank).tolist():
            group = rank == dim
            i = dim - config.nu
            if dim == config.dim:
                blocks = np.full((group.sum(), per, per), 2 * i, dtype=np.int8)
            else:
                checks = parity_checks(config, sums[group, :dim], pivots[group, :dim])
                keys = syndrome_keys(config, checks,
                                     np.concatenate([reps[a[group]], reps[b[group]]], axis=1))
                meet = keys[:, :per, None] == keys[:, None, per:]
                blocks = np.where(meet, 2 * i, 2 * i + 1).astype(np.int8)
            blocks_of[a[group], :, b[group], :] = blocks
            blocks_of[b[group], :, a[group], :] = blocks.transpose(0, 2, 1)
    if (R < 0).any():
        raise AssertionError("a direction pair of the relation table was not filled")
    R.flags.writeable = False
    return R


PRODUCT_COLUMNS = 512  # bounds the float64 copies each relation product makes


def relation_products(config: SpaceConfig, W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """out[k] = sum_r W[k, r] A_r X exactly, for each row k of the integer matrix W.

    W has one column per relation code, X one row per flat.  Each row is
    one exact product with a transient matrix read from the relation
    table: the mask R == r for a unit row at code r (none at code 0,
    A_(0,0) = I), the gather W[k][R] otherwise.
    """
    R = relation_matrix(config)
    out = np.zeros((len(W),) + X.shape, dtype=object if X.dtype == object else np.int64)
    for k, w in enumerate(W.tolist()):
        support = [r for r, c in enumerate(w) if c]
        unit = len(support) == 1 and w[support[0]] == 1
        if unit and support[0] == 0:
            out[k] = X
            continue
        G = R == support[0] if unit else W[k][R]
        for s in range(0, X.shape[1], PRODUCT_COLUMNS):
            out[k, :, s:s + PRODUCT_COLUMNS] = exact.int_matmul(G, X[:, s:s + PRODUCT_COLUMNS])
    return out


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


def idempotent_int(config: SpaceConfig, eig: RelIndex) -> tuple[int, np.ndarray]:
    """(L, B) with the primitive idempotent equal to B / L exactly, as a dense gather."""
    Ls, C = idempotent_coefficients(config)
    k = _code(config.nu, eig)
    B = C[k][relation_matrix(config)]
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
    unit = np.eye(len(rels), dtype=np.int64)
    ok = dict.fromkeys(("eigen", "idempotent", "orthogonal"), True)
    for k, (e, BV) in enumerate(zip(rels, BVs)):
        S = relation_products(config, unit, BV)
        ok["eigen"] &= all(bool((ABV == tables.P[r, e] * BV).all()) for r, ABV in zip(rels, S))
        BBV = exact.int_matmul(C, S.reshape(len(rels), -1)).reshape(S.shape)
        ok["idempotent"] &= bool((BBV[k] == Ls[k] * BV).all())
        ok["orthogonal"] &= not np.delete(BBV.any(axis=(1, 2)), k).any()
    diagonal = np.diagonal(relation_matrix(config))
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
    rng = random.Random(("eigenprobe", config.key(), seed).__repr__())
    V = np.array([[rng.randrange(-4, 5) for _ in range(count)] for _ in range(tables.size)],
                 dtype=np.int64)
    T = relation_products(config, np.eye(len(tables.rels), dtype=np.int64), V)
    BVs = exact.int_matmul(idempotent_coefficients(config)[1],
                           T.reshape(len(T), -1)).reshape(T.shape)
    ok = _eigen_checks(config, V, BVs)
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
    R = relation_matrix(config)
    sub = R[np.ix_(ids, ids)]
    counts = np.bincount(sub.reshape(-1), minlength=2 * config.nu + 1)
    u = {}
    for rel in tables.rels:
        u[rel] = Fraction(int(counts[_code(config.nu, rel)]), len(ids))
    uQ = {}
    for e in tables.rels:
        uQ[e] = sum((u[r] * tables.Q[e, r] for r in tables.rels), Fraction(0))
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


def valuation_report(case: str, q: int, nu_max: int) -> list[ValuationMismatch]:
    """Disagreements between the piecewise form and the direct valuation."""
    out = []
    for nu2 in range(2, nu_max + 1):
        for i in range(2, nu2 + 1):
            for j in range(2, nu2 + 1):
                direct = q_valuation(case, q, nu2, i, j)
                stated = phi_piecewise(case, nu2, i, j)
                if stated is not None and direct != stated:
                    out.append(ValuationMismatch(case, q, nu2, i, j, direct, stated))
    return out


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
PAIR_BLOCK = 256  # pairs per offset bincount in verify_scheme


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
    """Brute-force the scheme axioms on the constructed relations.

    The histograms of (R[x, z], R[z, y]) over z must agree on the pairs
    (x, y) of one relation; a block of pairs takes one offset bincount.
    """
    R = relation_matrix(config)
    n = R.shape[0]
    d = 2 * config.nu
    codes = np.unique(R)
    partition_ok = codes.min() >= 0 and codes.max() <= d and len(codes) == d + 1
    symmetry_ok = bool((R == R.T).all())
    diagonal_ok = bool((np.diag(R) == 0).all()) and bool(((R == 0) == np.eye(n, dtype=bool)).all())

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
    intersection_ok = True
    for s in range(0, len(xs), PAIR_BLOCK):
        x, y = xs[s:s + PAIR_BLOCK], ys[s:s + PAIR_BLOCK]
        keys = (R[x].astype(np.int64) * (d + 1) + R[:, y].T
                + cells * np.arange(len(x))[:, None])
        hists = np.bincount(keys.reshape(-1), minlength=cells * len(x)).reshape(len(x), cells)
        rel = R[x, y]
        for k in np.unique(rel):
            block = hists[rel == k]
            if not (block == reference.setdefault(int(k), block[0])).all():
                intersection_ok = False
    return SchemeReport(partition_ok, symmetry_ok, diagonal_ok, intersection_ok,
                        len(xs), mode, seed)

"""Cameron-Liebler sets of maximal totally isotropic flats.

A set's parameter is its size divided by the product (q^(t+e-1) + 1),
t = 1..nu, kept as an exact rational (integrality is observed, never
assumed).  The membership test has several equivalent routes: image of
the transposed incidence matrix (equivalently, orthogonality to its
kernel), spectral support in the two trivial eigenspaces, the shifted
spectral variant, the two-relation neighbour counts, and constant
intersection with the spreads.  All routes are exact.  The image route
of a single set, of a batch (batch_verdicts) and of the nu = 1
classification reads the basis K of ker M with entries in {-1, 0, 1}
that the translation characters give (spreads.membership_plan): chi is
in the image iff K chi = 0, which is a comparison of chi's sums over
value groups of flats, with no elimination of M; a block of columns
takes one gather for all of them.  The restriction to a container flat
is decided the same way, by the basis of the kernel of the container's
own incidence matrix that the characters of the container's direction
give, from chi gathered at the container's flat ids.  No route reads the
certified null basis N of M (flats.incidence_kernel), which gives the
rank of M; the on-demand witness y with M^T y = chi is read off the
certified null basis of [M^T | -chi] (NullBasis.matrix).  The spread
route is conclusive because the differences of the constructive family
span ker M, which spreads.character_plan certifies from the translation
characters with no elimination.

The spectrum, shifted and count routes read two factor terms of chi:
the D parallel-class totals S and the meeting sums A_(i,0) chi,
0 < i < nu (scheme.meeting_product).  Every (j, 0) idempotent gives
(i, 0) and (i, 1) the same coefficient, so its projection of chi is a
function of S alone; the cached route plan reads those class rows off
C, folds their coefficients into the distance masks once per
configuration, and one exact product of that fold with S gives every
such projection, the all-one identity, the class part of the few (j, 1)
rows and the rd = 1 class sums.  The (j, 1) rows add chi and the
meeting sums on (D, q^nu, c) views, and the two i = 1 count laws read
the same terms.  No relation-count table
T[r] = A_r chi and no product C T is formed; scheme.relation_products
and scheme.projections serve the checks.  The shifted verdict is read
off the spectrum verdict: by linearity the projections of the shifted
vector are n B_e chi - (C k)[e] |S| j, with n = q^nu D, and the route
plan certifies C k = (L_0, 0, ..., 0) for the valencies k once per
configuration.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exact
from .field import e_power, gauss_binomial
from .flats import (
    Flat,
    container_flats,
    coset_table,
    enumerate_flats,
    flat_ids,
    flat_make,
    incidence_matrix,
)
from .geometry import (
    Isometry,
    SpaceConfig,
    Vector,
    all_vectors,
    enumerate_isotropic,
    is_isotropic,
    point_index,
    vec_sub,
)
from .scheme import (
    distance_masks,
    idempotent_coefficients,
    meeting_product,
    pair_factors,
    relation_matrix,
    scheme_tables,
)
from .spreads import (
    character_plan,
    enumerate_spreads,
    family_member_columns,
    membership_plan,
)


def set_denominator(config: SpaceConfig, levels: int | None = None) -> int:
    """prod over t = 1..levels of (q^(t+e-1) + 1); levels defaults to nu."""
    levels = config.nu if levels is None else levels
    d = 1
    for t in range(1, levels + 1):
        d *= e_power(config, 2 * t + config.e2 - 2) + 1
    return d


@dataclass(frozen=True)
class FlatSet:
    """A subset of the maximal totally isotropic flats, by sorted ids."""

    config: SpaceConfig
    ids: tuple[int, ...]

    def __post_init__(self):
        if list(self.ids) != sorted(set(self.ids)):
            object.__setattr__(self, "ids", tuple(sorted(set(self.ids))))
        n = len(enumerate_flats(self.config, self.config.nu))
        if self.ids and not (0 <= self.ids[0] and self.ids[-1] < n):
            raise ValueError("flat id out of range")

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def x(self) -> Fraction:
        return Fraction(self.size, route_plan(self.config).D)

    def chi(self) -> np.ndarray:
        """The 0/1 indicator over all flats, built on first use; read-only."""
        v = self.__dict__.get("_chi")
        if v is None:
            v = np.zeros(len(enumerate_flats(self.config, self.config.nu)), dtype=np.int64)
            v[list(self.ids)] = 1
            v.flags.writeable = False
            object.__setattr__(self, "_chi", v)
        return v

    def complement(self) -> "FlatSet":
        n = len(enumerate_flats(self.config, self.config.nu))
        return FlatSet(self.config, tuple(sorted(set(range(n)) - set(self.ids))))

    def __contains__(self, fid: int) -> bool:
        k = bisect.bisect_left(self.ids, fid)
        return k < len(self.ids) and self.ids[k] == fid


def cl_parameter(flat_set: FlatSet) -> Fraction:
    return flat_set.x


def full_set(config: SpaceConfig) -> FlatSet:
    return FlatSet(config, tuple(range(len(enumerate_flats(config, config.nu)))))


def empty_set(config: SpaceConfig) -> FlatSet:
    return FlatSet(config, ())


def apply_isometry(flat_set: FlatSet, iso: Isometry) -> FlatSet:
    """Relabel the set by an affine isometry of the space."""
    config = flat_set.config
    flats = enumerate_flats(config, config.nu)
    ids = flat_ids(config)
    out = []
    for fid in flat_set.ids:
        f = flats[fid]
        direction = iso.apply_subspace(config, f.direction)
        rep = iso.apply_vector(config, f.rep)
        out.append(ids[flat_make(config, direction, rep)])
    return FlatSet(config, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# single-set tests (characterisations of membership)

def test_image(flat_set: FlatSet) -> bool:
    """M^T y = chi is solvable, i.e. chi is orthogonal to ker M: K chi = 0
    for the basis K of ker M with entries in {-1, 0, 1} that the
    translation characters give (spreads.membership_plan, whose docstring
    proves it a basis), with no elimination of M.  K chi = 0 iff every
    direction block has the same sum and, for each character a and each
    direction d in T_a, the sums of chi over the flats of d at each
    nonzero value of a equal those of the first direction of T_a."""
    return bool(membership_plan(flat_set.config).annihilates(flat_set.chi()))


def image_certificate(flat_set: FlatSet) -> tuple[Fraction, ...] | None:
    """An exact point weighting y with M^T y = chi, or None; solved on demand.

    N is the certified null basis of [M^T | -chi], so it spans every
    (y, t) with M^T y = t chi: a row f with t = N[f, -1] != 0 gives
    y = N[f, :-1] / t, and if that column of N is zero, chi is not in the
    image of M^T.
    """
    M = incidence_matrix(flat_set.config).matrix
    N = exact.certified_null_basis(np.hstack([M.T, -flat_set.chi()[:, None]])).matrix()
    rows = np.flatnonzero(N[:, -1])
    if not rows.size:
        return None
    f = N[rows[0]]
    return tuple(Fraction(int(v), int(f[-1])) for v in f[:-1])


def _count_coefficients(config: SpaceConfig, i: int) -> tuple[int, int]:
    """(fixed term scale a_i, parameter scale b_i) of the neighbour-count law."""
    a = (e_power(config, i * (i + 1) + config.e2 * i)
         * gauss_binomial(config.nu - 1, i, config.q))
    b = (e_power(config, i * (i - 1) + config.e2 * i)
         * gauss_binomial(config.nu - 1, i - 1, config.q))
    return a, b


def _read_only(values) -> np.ndarray:
    a = np.array(values, dtype=np.int64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RoutePlan:
    """The chi-independent part of the spectrum, shifted and count routes
    for one configuration; every array is read-only, in code order.

    n = |X| = q^nu D flats in D parallel classes of q^nu.  The
    idempotents are B_e = sum_r C[e, r] A_r, and with M_i = A_(i,0) chi
    (M_0 = chi) and the class sums (rd = i) S of the class totals S,
    B_e chi = sum_(i < nu) (C[e, 2i] - C[e, 2i + 1]) M_i plus the class
    part sum_i C[e, 2i + 1] (rd = i) S, with C[e, 2 nu] at i = nu, spread
    over each class.  A class row is one whose (i, 0) and (i, 1)
    coefficients agree for every i < nu: its projection is its class part
    alone.  fold stacks, for the D x c class totals S, the row of
    directions that gives B_(0,0) chi's value |S|, then one D x D block
    sum_i c_i (rd = i) per class row e >= 2 (classes of them), per other
    row e >= 2 and for the rd = 1 class sums the count laws read.
    flat[k] holds the other rows' coefficients C[e, 2i] - C[e, 2i + 1] on
    M_0 .. M_(nu - 1).  Relation r's neighbour-count law reads
    D T[r] = law_chi[r] chi + law_size[r] |S| for T[r] = A_r chi.

    Every term the routes form, for m = max|chi|, is at most bound m:
    |S| and every class total, class sum and M_i is at most n m, n |S| at
    most n^2 m and L0 |S| at most L0 n m, each partial sum of a row off
    the class rows at most (2 nu + 1) max|C| n m, a law's D T[r] at most
    2 D n m and its right side (|law_chi| + |law_size|) n m.  So while
    bound m < 2^62 int64 holds every term and every sum of two exactly;
    the product by fold picks its own tier (exact.int_matmul).
    """

    n: int
    L0: int
    D: int
    fold: np.ndarray
    fold_float: np.ndarray
    classes: int
    flat: np.ndarray
    law_chi: np.ndarray
    law_size: np.ndarray
    bound: int


@lru_cache(maxsize=None)
def route_plan(config: SpaceConfig) -> RoutePlan:
    """The route plan of one configuration, from the closed forms once.

    Each fold block is the idempotent coefficients folded into the stacked
    distance masks, sum_i c_i (rd = i) = c[rd], one gather of the D x D
    distance table.  Raises AssertionError unless C k = (L_0, 0, ..., 0)
    for the valencies k, the closed form that lets the shifted route read
    the spectrum's zero rows (see _scheme_routes)."""
    tables = scheme_tables(config)
    Ls, C = idempotent_coefficients(config)
    n, D, nu = tables.size, set_denominator(config), config.nu
    rows = C.tolist()
    k = [tables.valencies[r] for r in tables.rels]
    ck = [sum(c * v for c, v in zip(row, k)) for row in rows]
    if ck != [Ls[0]] + [0] * (len(ck) - 1):
        raise AssertionError(f"C k = {ck} is not (L_0, 0, ..., 0) = ({Ls[0]}, 0, ..., 0) "
                             f"for {config.key()}")
    disjoint = C[:, [*range(1, 2 * nu, 2), 2 * nu]]
    flat = C[:, 0:2 * nu:2] - disjoint[:, :nu]
    on_flats = flat[2:].any(axis=1)
    class_rows, flat_rows = 2 + np.flatnonzero(~on_flats), 2 + np.flatnonzero(on_flats)
    distance_one = (np.arange(nu + 1) == 1).astype(np.int64)
    blocks = np.vstack([disjoint[class_rows], disjoint[flat_rows], distance_one])
    rd = pair_factors(config).rd
    # a copy that owns its data, so that exact._bound caches its bound
    fold = np.vstack([disjoint[0][rd[0]], blocks[:, rd].reshape(-1, D)])
    laws = []
    for i, xi in tables.rels:
        a, b = _count_coefficients(config, i)
        # xi = 0: D T = D a chi + b |S|;  xi = 1: D T = a |S| - D a chi
        laws.append((D * a, b) if xi == 0 else (-D * a, a))
    law_chi, law_size = zip(*laws)
    widest = max(abs(c) for row in rows for c in row)
    bound = n * max(n, Ls[0], (2 * nu + 1) * widest, 2 * D,
                    max(map(abs, law_chi)) + max(map(abs, law_size)))
    flat = flat[flat_rows]
    fold_float = fold.astype(np.float64)
    for a in (fold, fold_float, flat):
        a.flags.writeable = False
    return RoutePlan(n, Ls[0], D, fold, fold_float, len(class_rows), flat,
                     _read_only(law_chi), _read_only(law_size), bound)


def _block(cols: np.ndarray, n: int) -> np.ndarray:
    """cols as a block the routes take, or ValueError (see batch_verdicts).

    An object block must hold Python or numpy integers only; its entries
    are returned as Python ints, since a numpy integer scalar wraps where
    object arithmetic must not."""
    if cols.ndim != 2 or cols.shape[0] != n or cols.dtype.kind not in "biuO" or (
            cols.dtype == object and not all(isinstance(v, (int, np.integer))
                                             for v in cols.flat)):
        raise ValueError(f"a block of characteristic columns is a 2-D integer array with "
                         f"{n} rows; got dtype {cols.dtype}, shape {cols.shape}")
    if cols.dtype.kind in "bu":
        return cols.astype(np.int64 if cols.dtype.itemsize < 8 else object)
    if cols.dtype == object:
        return np.array([int(v) for v in cols.flat], dtype=object).reshape(cols.shape)
    return cols


def _widened(cols: np.ndarray, bound: int, limit: int) -> np.ndarray:
    """cols, a block that _block returned, moved to object arithmetic once
    bound * max|cols| reaches limit."""
    if cols.dtype != object and cols.size and bound * max(
            -int(cols.min()), int(cols.max())) >= limit:
        return cols.astype(object)
    return cols


def _law_holds(plan: RoutePlan, cols: np.ndarray, sizes: np.ndarray, r: int,
               meet: np.ndarray | None, classes: np.ndarray | None) -> np.ndarray:
    """Whether relation r = (i, xi)'s law D T[r] = law_chi[r] chi +
    law_size[r] |S| holds, one bool per column of cols (column sums
    sizes), from the factor terms of distance i: meet = A_(i,0) cols
    (cols itself at i = 0; unused at i = nu) and classes = (rd = i) S, the
    D x c class sums (unused for xi = 0 at i < nu).  T[2i] = meet,
    T[2i + 1] = classes - meet and T[2 nu] = classes, each read on
    (D, q^nu, c) views."""
    view = (plan.D, plan.n // plan.D, cols.shape[1])
    if r == len(plan.law_chi) - 1:
        T = classes[:, None]
    elif r % 2:
        T = classes[:, None] - meet.reshape(view)
    else:
        T = meet.reshape(view)
    rhs = plan.law_chi[r] * cols.reshape(view)
    rhs += plan.law_size[r] * sizes
    return (plan.D * T == rhs).all(axis=(0, 1))


def _relation_law(config: SpaceConfig, cols: np.ndarray, r: int) -> np.ndarray:
    """Relation r's neighbour-count law for each column of a block that
    _block returned, from its factor terms alone (_law_holds): no other
    relation's term is formed."""
    plan = route_plan(config)
    cols = _widened(cols, plan.bound, 2**62)
    i = r // 2
    meet = cols if i == 0 else meeting_product(config, i, cols) if i < config.nu else None
    S = cols.reshape(plan.D, plan.n // plan.D, cols.shape[1]).sum(axis=1)
    masks, masks_float = distance_masks(config)
    rows = slice(i * plan.D, (i + 1) * plan.D)
    classes = exact.int_matmul(masks[rows], S, a_float=masks_float[rows])
    return _law_holds(plan, cols, S.sum(axis=0), r, meet, classes)


def _scheme_routes(config: SpaceConfig, cols: np.ndarray) -> dict[str, np.ndarray]:
    """Spectrum, shifted and count verdicts for each column chi of cols,
    a block that _block returned.

    With S the D x c class totals, one exact product fold S
    (route_plan) gives B_(0,0) chi's value, every class row's projection,
    the class part of every other row e >= 2 and the rd = 1 class sums;
    the meeting sums M_i = A_(i,0) chi, 0 < i < nu, come from
    scheme.meeting_product.  The all-one projection n B_(0,0) chi =
    L_0 |S| j holds always, so a violation raises.  chi passes the
    spectrum route when B_e chi = 0 for every e >= 2: a class row on S
    alone, and the few other rows, (j, 1) for 0 < j < nu, together on
    (D, q^nu, c) views as their class part plus their coefficients
    (RoutePlan.flat) times chi and the M_i.  No relation-count table
    T[r] = A_r chi and no product C T is formed.

    The shifted vector q^nu D chi - |S| j has the projections
    n B_e chi - (C k)[e] |S| j, as A_r j = k_r j, and route_plan certifies
    C k = (L_0, 0, ..., 0): row 0 is zero by the all-one identity and row
    e >= 2 is n B_e chi, zero exactly when B_e chi is.  So the shifted
    verdict is the spectrum verdict.

    The count verdict compares the laws of the two i = 1 relations
    (_law_holds on M_1 and the rd = 1 class sums; at nu = 1 the one
    relation (1, 0) = (nu, 0)).  Either law alone decides membership:
    projected onto an eigenspace e off the two trivial ones, the (1, 0)
    law reads p_(1,0)(e) E_e chi = a_1 E_e chi and the (1, 1) law
    p_(1,1)(e) E_e chi = -a_1 E_e chi, and on every configuration tested
    no p_(1,0)(e) there equals a_1 and no p_(1,1)(e) equals -a_1.  Both
    stay compared, as the paper's two-relation statement.
    """
    plan = route_plan(config)
    cols = _widened(cols, plan.bound, 2**62)
    D, c = plan.D, cols.shape[1]
    view = (D, plan.n // D, c)
    S = cols.reshape(view).sum(axis=1)
    sizes = S.sum(axis=0)
    folded = exact.int_matmul(plan.fold, S, a_float=plan.fold_float)
    # the all-one projection is size/|X| times the all-one vector, always
    if not (plan.n * folded[0] == plan.L0 * sizes).all():
        raise AssertionError("all-one projection identity violated")
    split = plan.classes + len(plan.flat)
    blocks = folded[1:].reshape(split + 1, D, c)
    spectrum = ~blocks[:plan.classes].any(axis=(0, 1))
    meets = [meeting_product(config, i, cols) for i in range(1, config.nu)]
    if len(plan.flat):
        rows = blocks[plan.classes:split, :, None] + plan.flat[:, 0, None, None, None] * \
            cols.reshape(view)
        for w, meet in zip(plan.flat.T[1:], meets):
            rows += w[:, None, None, None] * meet.reshape(view)
        spectrum &= ~rows.any(axis=(0, 1, 2))
    meet, distance_one = meets[0] if meets else None, blocks[split]
    counts = _law_holds(plan, cols, sizes, 2, meet, distance_one)
    if meets:
        counts &= _law_holds(plan, cols, sizes, 3, meet, distance_one)
    return {"spectrum": spectrum, "shifted": spectrum.copy(), "counts": counts}


def _set_routes(flat_set: FlatSet) -> dict[str, np.ndarray]:
    return _scheme_routes(flat_set.config, flat_set.chi().reshape(-1, 1))


def test_spectrum(flat_set: FlatSet) -> bool:
    """Spectral support only on the all-one and parallel-class eigenspaces."""
    return bool(_set_routes(flat_set)["spectrum"][0])


def test_shifted_spectrum(flat_set: FlatSet) -> bool:
    """The shifted vector q^nu*D*chi - |L|*j must lie in the parallel eigenspace."""
    return bool(_set_routes(flat_set)["shifted"][0])


def lemma_counts(flat_set: FlatSet, rel) -> bool:
    """Neighbour-count law for one relation, exact at rational parameter."""
    config = flat_set.config
    rels = scheme_tables(config).rels
    if rel not in rels:
        raise ValueError(f"unknown relation {rel!r}; the relations of {config.key()} "
                         f"are {', '.join(map(str, rels))}")
    return bool(_relation_law(config, flat_set.chi().reshape(-1, 1), rels.index(rel))[0])


def test_counts(flat_set: FlatSet) -> bool:
    """The two-relation neighbour-count characterisation (i = 1 rows)."""
    return bool(_set_routes(flat_set)["counts"][0])


@dataclass(frozen=True)
class SpreadTestReport:
    constant: bool            # equal intersection with every family member
    value_matches: bool       # the constant equals the set's parameter
    conclusive: bool          # family certified to decide membership
    family: str
    intersections: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.constant and self.value_matches


def test_spreads(flat_set: FlatSet, family: str = "auto") -> SpreadTestReport:
    """Intersection counts against a spread family.

    family: 'constructive' (= 'auto': type I, plus type II when nu >= 2),
    its parts 'typeI' and 'typeII', or 'exhaustive' (small spaces only).
    The constructive family is conclusive: its differences are certified
    to span ker M by the translation characters (spreads.character_plan:
    the type-II direction pairs are the rd = 1 pairs, the rows are closed
    under translation, and the rd = 1 graph on the directions in each
    character's kernel is connected), so constant intersection is
    membership; a failed certificate raises AssertionError.
    """
    config = flat_set.config
    family = "constructive" if family == "auto" else family
    conclusive = family == "constructive"
    if family == "exhaustive":
        search = enumerate_spreads(config)
        members = np.array([s.members for s in search.spreads], dtype=np.int64).reshape(
            len(search.spreads), config.q**config.nu).T
        conclusive = search.exhaustive
    elif conclusive or family == "typeI" or (family == "typeII" and config.nu >= 2):
        split = len(enumerate_isotropic(config, config.nu))
        rows = {"constructive": slice(None), "typeI": slice(split), "typeII": slice(split, None)}
        members = family_member_columns(config)[:, rows[family]]
        failure = conclusive and character_plan(config).failure
        if failure:
            raise AssertionError(
                f"spread differences do not certify ker M for {config.key()}: {failure}")
    else:
        raise ValueError(f"unknown family {family!r} for nu = {config.nu}")
    # members holds one spread per column: the family has about n spreads of q^nu members
    counts = flat_set.chi()[members].sum(axis=0)
    constant = not counts.size or bool((counts == counts[0]).all())
    inter = tuple(counts.tolist())
    value_matches = constant and (not inter or Fraction(inter[0]) == flat_set.x)
    return SpreadTestReport(constant, value_matches, conclusive, family, inter)


def is_cameron_liebler(flat_set: FlatSet, method: str = "auto") -> bool:
    """Membership verdict by one route: 'image', 'kernel' and 'auto' are
    the one image route, orthogonality to ker M, decided by K chi = 0
    (test_image)."""
    routes = {"image": test_image, "kernel": test_image, "auto": test_image,
              "spectrum": test_spectrum, "shifted": test_shifted_spectrum,
              "counts": test_counts, "spreads": lambda fs: test_spreads(fs).passed}
    if method not in routes:
        raise ValueError(f"unknown method {method!r}")
    return routes[method](flat_set)


def battery(flat_set: FlatSet) -> dict[str, bool]:
    """All routes at once; the equivalent ones must agree."""
    routes = _set_routes(flat_set)
    verdicts = {
        "image": test_image(flat_set),
        **{name: bool(ok[0]) for name, ok in routes.items()},
        "spreads": test_spreads(flat_set).passed,
    }
    if len(set(verdicts.values())) != 1:
        raise AssertionError(f"equivalent membership routes disagree: {verdicts}")
    return verdicts


# ---------------------------------------------------------------------------
# batch verdicts (for large randomized agreement sweeps)

def batch_verdicts(config: SpaceConfig, chi_matrix: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorised exact verdicts for many characteristic columns at once.

    chi_matrix is an integer array, or an object array of Python or numpy
    integers, one row per flat and one subset per column; bool and
    unsigned blocks are widened to int64 (uint64, which may pass int64, to
    object), and any other block (float, complex, string, or an object
    entry that is no integer) raises ValueError first.
    Returns boolean arrays for the image, spectrum, shifted and count routes.

    The image route decides K chi = 0 for every column at once, through
    the translation-character basis K of ker M (spreads.membership_plan),
    so no batch eliminates M; its sums are of q^nu entries, so the block
    is widened to object arithmetic once q^nu max|chi| reaches 2^63, as
    the scheme routes widen theirs at 2^62 (_scheme_routes).
    """
    cols = _block(chi_matrix, scheme_tables(config).size)
    plan = membership_plan(config)
    image = plan.annihilates(_widened(cols, plan.per, 2**63))
    return {"image": image, **_scheme_routes(config, cols)}


def random_subset_matrix(config: SpaceConfig, count: int, seed: int) -> np.ndarray:
    """Seeded 0/1 matrix of random subsets (uniform size), one per column."""
    rng = random.Random(("subsets", config.key(), seed).__repr__())
    n = len(enumerate_flats(config, config.nu))
    cols = np.zeros((n, count), dtype=np.int64)
    for c in range(count):
        size = rng.randint(0, n)
        for fid in rng.sample(range(n), size):
            cols[fid, c] = 1
    return cols


# ---------------------------------------------------------------------------
# constructions and closure algebra

def construct_pencil(config: SpaceConfig, point: Vector) -> FlatSet:
    """All maximal totally isotropic flats through one point: its column of
    the coset table."""
    if len(point) != config.dim or not all(0 <= c < config.q for c in point):
        raise ValueError(f"point {tuple(point)} is not a vector of {config.dim} "
                         f"coordinates in 0..{config.q - 1}")
    column = coset_table(config)[:, point_index(config, point)]
    return FlatSet(config, tuple(sorted(column.tolist())))


def pencils_disjoint(config: SpaceConfig, a: Vector, b: Vector) -> bool:
    """Pencils at two points share no flat iff the difference is non-isotropic."""
    return not is_isotropic(config, vec_sub(config.field, a, b))


def combine(first: FlatSet, second: FlatSet | None, mode: str) -> FlatSet:
    """Closure algebra: complement, disjoint_union, difference."""
    config = first.config
    if mode == "complement":
        return first.complement()
    if second is None or second.config is not config:
        raise ValueError("second operand missing or from another configuration")
    a, b = set(first.ids), set(second.ids)
    if mode == "disjoint_union":
        if a & b:
            raise ValueError("operands are not disjoint")
        return FlatSet(config, tuple(sorted(a | b)))
    if mode == "difference":
        if not b <= a:
            raise ValueError("difference requires containment")
        return FlatSet(config, tuple(sorted(a - b)))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# nu = 1 exhaustive classification

EXHAUSTIVE_SUBSET_BOUND = 24


def classify_nu1(config: SpaceConfig) -> list[tuple[FlatSet, Fraction]]:
    """Every Cameron-Liebler set at nu = 1, by exhaustive subset sweep.

    Each hit is cross-checked against the spread-selection description:
    constant intersection with the (q^e + 1) parallel classes, and the
    set is the union of those selections.  The classes are the blocks of
    q^nu consecutive flat ids, so the intersections are block sums.
    """
    if config.nu != 1:
        raise ValueError("classification sweep is for nu = 1")
    n = len(enumerate_flats(config, 1))
    if n > EXHAUSTIVE_SUBSET_BOUND:
        raise ValueError(f"too many flats for exhaustive sweep: {n}")
    plan = membership_plan(config)
    classes = len(enumerate_isotropic(config, 1))
    out = []
    for mask in range(1 << n):
        ids = tuple(i for i in range(n) if mask >> i & 1)
        chi = np.zeros(n, dtype=np.int64)
        chi[list(ids)] = 1
        if not plan.annihilates(chi):
            continue
        fs = FlatSet(config, ids)
        x = fs.x
        selections = chi.reshape(classes, -1).sum(axis=1)
        if (selections != selections[0]).any() or Fraction(int(selections[0])) != x:
            raise AssertionError("classified set fails the spread-selection description")
        out.append((fs, x))
    return out


# ---------------------------------------------------------------------------
# intersecting families

@dataclass(frozen=True)
class IntersectingReport:
    is_intersecting: bool
    is_maximum: bool
    bound: int
    clique_coclique_ok: bool


def intersecting_check(flat_set: FlatSet) -> IntersectingReport:
    """Pairwise meeting family test plus the size bound.

    Also verifies, on this configuration, the product-bound instance:
    a pencil (clique) and a type-I spread (coclique) multiply to the
    total number of flats and meet in exactly one member; the type-I
    spreads are the blocks of q^nu consecutive flat ids.
    """
    config = flat_set.config
    R = relation_matrix(config)
    ids = list(flat_set.ids)
    sub = R[np.ix_(ids, ids)]
    intersecting = bool((sub % 2 == 0).all())  # even codes = meeting cosets
    bound = set_denominator(config)
    pencil = construct_pencil(config, (0,) * config.dim)
    per_spread = pencil.chi().reshape(len(enumerate_isotropic(config, config.nu)), -1).sum(axis=1)
    product_ok = (pencil.size * config.q**config.nu == len(enumerate_flats(config, config.nu))
                  and bool((per_spread == 1).all()))
    return IntersectingReport(intersecting, intersecting and flat_set.size == bound,
                              bound, product_ok)


# ---------------------------------------------------------------------------
# restriction to container flats

@dataclass(frozen=True)
class Restriction:
    container: Flat
    i: int
    member_ids: tuple[int, ...]   # global ids of the members inside the container
    x_f: Fraction
    in_container_image: bool
    integral: bool
    within_bounds: bool

    @property
    def ok(self) -> bool:
        return self.in_container_image and self.integral and self.within_bounds


def restrict_cl(flat_set: FlatSet, container: Flat) -> Restriction:
    """Restrict to the members inside a type-(nu+i, 2i) container flat.

    The restriction is in the image of the container's transposed
    incidence matrix iff the container's translation-character basis
    (spreads.membership_plan with the container) annihilates it, as for
    the whole space.  Raises ValueError for a flat of another type.
    """
    config = flat_set.config
    plan = membership_plan(config, container)
    i = container.dim - config.nu
    chi_local = flat_set.chi()[plan.ids]
    members = tuple(plan.ids[chi_local != 0].tolist())
    in_image = bool(plan.annihilates(chi_local))
    x_f = Fraction(len(members), set_denominator(config, i))
    integral = x_f.denominator == 1
    within = 0 <= x_f <= min(flat_set.x, Fraction(config.q**i))
    return Restriction(container, i, members, x_f, in_image, integral, within)


def _container_parameters(flat_set: FlatSet, base_id: int, i: int) -> tuple[Fraction, ...]:
    """The restricted parameter x_F of every type-(nu+i, 2i) container of a member."""
    config = flat_set.config
    if base_id not in flat_set:
        raise ValueError("base flat must belong to the set")
    base = enumerate_flats(config, config.nu)[base_id]
    return tuple(restrict_cl(flat_set, t).x_f for t in container_flats(config, base, i))


def degree_identity_holds(config: SpaceConfig, i: int, x: Fraction, parameters) -> bool:
    """x equals (sum of the container parameters) / [nu-1 choose nu-i]_q
    minus (q^nu - 1)/(q^i - 1) plus 1, exactly."""
    q = config.q
    rhs = (sum(parameters, Fraction(0)) / gauss_binomial(config.nu - 1, config.nu - i, q)
           - Fraction(q**config.nu - 1, q**i - 1) + 1)
    return x == rhs


def degree_identity(flat_set: FlatSet, base_id: int, i: int) -> bool:
    """The container-sum identity (degree_identity_holds) for a member of the set."""
    config = flat_set.config
    params = _container_parameters(flat_set, base_id, i)
    expected_count = gauss_binomial(config.nu, config.nu - i, config.q)
    if len(params) != expected_count:
        raise AssertionError(f"container count {len(params)} != {expected_count}")
    return degree_identity_holds(config, i, flat_set.x, params)


@dataclass(frozen=True)
class PencilProfile:
    """Distribution of container parameters over the containers of one member."""

    base_id: int
    i: int
    x: Fraction
    container_parameters: tuple[Fraction, ...]
    histogram: dict[int, int]          # theta -> |T_theta|, theta = 1..min(x, q^i)
    count_identity_ok: bool
    weighted_identity_ok: bool
    bound_ok: bool
    case: str                          # 'equality' or 'strict' (empty if x < 2)
    case_detail_ok: bool


def pencil_distribution(flat_set: FlatSet, base_id: int, i: int) -> PencilProfile:
    config = flat_set.config
    params = _container_parameters(flat_set, base_id, i)
    q = config.q
    x = flat_set.x
    cap = min(x, Fraction(q**i))
    if any(p.denominator != 1 for p in params):
        raise AssertionError("non-integral container parameter")
    hist: dict[int, int] = {}
    for p in params:
        hist[int(p)] = hist.get(int(p), 0) + 1
    if any(theta < 1 or theta > cap for theta in hist):
        raise AssertionError(f"container parameter outside 1..{cap}: {sorted(hist)}")
    total_containers = gauss_binomial(config.nu, config.nu - i, q)
    smaller = gauss_binomial(config.nu - 1, config.nu - i, q)
    count_ok = sum(hist.values()) == total_containers
    weighted_ok = sum((theta - 1) * c for theta, c in hist.items()) == (x - 1) * smaller

    if x < 2:
        return PencilProfile(base_id, i, x, params, hist, count_ok, weighted_ok,
                             True, "", True)
    cap_i = int(cap)
    t1 = hist.get(1, 0)
    bound = total_containers - Fraction(x - 1, cap_i - 1) * smaller
    bound_ok = t1 <= bound
    if Fraction(t1) == bound:
        case = "equality"
        top = hist.get(cap_i, 0)
        detail = (Fraction(top) == Fraction(x - 1, cap_i - 1) * smaller
                  and all(hist.get(theta, 0) == 0 for theta in range(2, cap_i)))
    else:
        case = "strict"
        # locate the bracketing index and check the parameter lower bound;
        # the stated window on ell itself is vacuous once x is large
        ell = t1 // smaller + 1
        detail = (1 <= ell
                  and (ell - 1) * smaller <= t1 < ell * smaller
                  and x >= Fraction(q**config.nu - 1, q**i - 1) - ell + 2)
    return PencilProfile(base_id, i, x, params, hist, count_ok, weighted_ok,
                         bound_ok, case, detail)


# ---------------------------------------------------------------------------
# search

def search_cl(config: SpaceConfig, x_target: Fraction | int, strategy: str,
              seed: int = 0, tries: int = 200) -> list[FlatSet]:
    """Sets with the target parameter passing the full battery.

    exhaustive: complete sweep (small flat counts only).
    pencil_closure: pencils, complements, and disjoint unions of at most
    min(x, q^nu) pencils.
    seeded_random: random subsets of the right size (rarely fruitful).
    A set has at most n = q^nu * D flats, so no parameter lies outside
    [0, q^nu]; such a target returns [] before any set is built.
    """
    if strategy not in ("exhaustive", "pencil_closure", "seeded_random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    x_target = Fraction(x_target)
    if not 0 <= x_target <= config.q**config.nu:
        return []
    n = len(enumerate_flats(config, config.nu))
    D = set_denominator(config)
    target_size = x_target * D
    found: dict[tuple[int, ...], FlatSet] = {}

    def consider(fs: FlatSet) -> None:
        if fs.x == x_target and fs.ids not in found and is_cameron_liebler(fs):
            battery(fs)
            found[fs.ids] = fs

    if strategy == "exhaustive":
        if n > EXHAUSTIVE_SUBSET_BOUND:
            raise ValueError(f"too many flats for exhaustive search: {n}")
        if target_size.denominator != 1:
            return []
        for ids in itertools.combinations(range(n), int(target_size)):
            consider(FlatSet(config, ids))
    elif strategy == "pencil_closure":
        pencils = [construct_pencil(config, pt) for pt in all_vectors(config)]
        for p in pencils:
            consider(p)
            consider(p.complement())
        consider(full_set(config))
        consider(empty_set(config))
        limit = min(int(x_target), config.q**config.nu) if x_target.denominator == 1 else 0
        if limit >= 2:
            _disjoint_unions(config, pencils, limit, consider)
    else:
        rng = random.Random(("search", config.key(), seed).__repr__())
        if target_size.denominator == 1:
            for _ in range(tries):
                ids = tuple(sorted(rng.sample(range(n), int(target_size))))
                consider(FlatSet(config, ids))
    return [found[k] for k in sorted(found)]


def _disjoint_unions(config: SpaceConfig, pencils, limit: int, consider) -> None:
    pts = all_vectors(config)
    by_point = dict(zip(pts, pencils))

    def grow(chosen_pts, start):
        if 2 <= len(chosen_pts) <= limit:
            union = set()
            for pt in chosen_pts:
                union |= set(by_point[pt].ids)
            consider(FlatSet(config, tuple(sorted(union))))
        if len(chosen_pts) == limit:
            return
        for k in range(start, len(pts)):
            cand = pts[k]
            if all(pencils_disjoint(config, cand, p) for p in chosen_pts):
                grow(chosen_pts + [cand], k + 1)

    for k in range(len(pts)):
        grow([pts[k]], k + 1)

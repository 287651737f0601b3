"""Seeded inputs for the benchmark workloads.

Every input is derived from the workload seed, so the same seed gives the
same sets.  Each set carries the verdict it must receive, fixed when it is
made and never computed by the membership routes under test:

* members are constructed Cameron-Liebler sets (pencils, complements,
  isometric images of pencils, disjoint pencil unions);
* non-members are proven by an independent certificate: a Cameron-Liebler
  set meets every parallel class of maximal flats (a type-I spread) in the
  same number of flats, and every non-member made here meets two parallel
  classes unequally.  Random subsets that happen to meet every class
  equally are drawn again.

Non-members get sizes that Cameron-Liebler sets can have (x times the set
denominator for an integer x), so the parameter alone cannot decide them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from clflats import cl, flats, geometry

MEMBER_KINDS = ("pencil", "complement", "isometry_image", "union")
# Members cost one to two orders of magnitude more per query than random
# non-members (the routes stop early on a non-member); a near-miss costs
# anything in between.  With this mix the membership pool's median falls
# in the middle of the unitary(4,2) non-members that are rejected at
# once, and its tail among the symplectic(3,2) members, never on a
# boundary between two clusters whose place would shift from seed to seed.
NON_MEMBER_KINDS = ("random", "near_miss_pencil", "near_miss_complement") * 2


@dataclass(frozen=True)
class FlatSetInput:
    """One generated subset of the maximal flats with its expected verdict."""

    key: tuple[str, int, int]
    kind: str
    ids: tuple[int, ...]
    expected: bool


def _config(key):
    return geometry.space_config(*key)


def _random_point(config, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(config.q) for _ in range(config.dim))


def _pencil(config, rng):
    return cl.construct_pencil(config, _random_point(config, rng))


def _class_counts(config, ids) -> Counter:
    """Members of the set per parallel class (flat direction)."""
    maximal = flats.enumerate_flats(config, config.nu)
    return Counter(maximal[i].direction for i in ids)


def _meets_classes_unequally(config, ids) -> bool:
    counts = _class_counts(config, ids)
    classes = len(geometry.enumerate_isotropic(config, config.nu))
    values = set(counts.values())
    if len(counts) < classes:
        values.add(0)
    return len(values) > 1


def _member(config, kind: str, rng: random.Random) -> tuple[str, tuple[int, ...]]:
    if kind == "pencil":
        return kind, _pencil(config, rng).ids
    if kind == "complement":
        return kind, _pencil(config, rng).complement().ids
    if kind == "isometry_image":
        iso = geometry.random_isometry(config, rng.randrange(2**31))
        return kind, cl.apply_isometry(_pencil(config, rng), iso).ids
    if kind == "union":
        a = _random_point(config, rng)
        points = geometry.all_vectors(config)
        partners = [b for b in points if cl.pencils_disjoint(config, a, b)]
        if partners:
            b = rng.choice(partners)
            first = cl.construct_pencil(config, a)
            second = cl.construct_pencil(config, b)
            return kind, cl.combine(first, second, "disjoint_union").ids
        # the point graph is complete (symplectic): no two pencils are disjoint
        iso = geometry.random_isometry(config, rng.randrange(2**31))
        return "isometry_complement", cl.apply_isometry(
            _pencil(config, rng).complement(), iso).ids
    raise ValueError(f"unknown member kind {kind!r}")


def _non_member(config, kind: str, rng: random.Random) -> tuple[int, ...]:
    maximal = flats.enumerate_flats(config, config.nu)
    n = len(maximal)
    if kind == "random":
        denominator = cl.set_denominator(config)
        while True:
            x = rng.randint(1, config.q**config.nu - 1)
            ids = tuple(sorted(rng.sample(range(n), x * denominator)))
            if _meets_classes_unequally(config, ids):
                return ids
    if kind in ("near_miss_pencil", "near_miss_complement"):
        base = _pencil(config, rng)
        if kind == "near_miss_complement":
            base = base.complement()
        members = set(base.ids)
        out = rng.choice(sorted(members))
        # a flat of another parallel class, so two class counts change by one
        candidates = [i for i in range(n) if i not in members
                      and maximal[i].direction != maximal[out].direction]
        ids = tuple(sorted((members - {out}) | {rng.choice(candidates)}))
        if not _meets_classes_unequally(config, ids):
            raise AssertionError("near-miss set meets every parallel class equally")
        return ids
    raise ValueError(f"unknown non-member kind {kind!r}")


def config_sets(key, rng: random.Random) -> list[FlatSetInput]:
    """One set of each member kind and each non-member kind for a configuration."""
    config = _config(key)
    out = []
    for kind in MEMBER_KINDS:
        made, ids = _member(config, kind, rng)
        out.append(FlatSetInput(key, made, ids, True))
    for kind in NON_MEMBER_KINDS:
        out.append(FlatSetInput(key, kind, _non_member(config, kind, rng), False))
    return out


def query_stream(keys, seed: int, cycles: int) -> list[FlatSetInput]:
    """Membership queries: per cycle, one config_sets() batch per configuration.

    Every cycle has the same share of each configuration and of members,
    so latency statistics compare across seeds; the order within a cycle
    is shuffled by the seed.
    """
    rng = random.Random(f"membership-warm/{seed}")
    stream = []
    for _ in range(cycles):
        cycle = [s for key in keys for s in config_sets(key, rng)]
        rng.shuffle(cycle)
        stream.extend(cycle)
    return stream


@dataclass(frozen=True)
class Block:
    """A 0/1 matrix with one generated set per column, plus expected verdicts."""

    key: tuple[str, int, int]
    matrix: np.ndarray
    expected: np.ndarray
    kinds: tuple[str, ...]


def column_block(key, columns: int, rng: random.Random) -> Block:
    """A block of `columns` sets, cycling through the member/non-member kinds."""
    config = _config(key)
    n = len(flats.enumerate_flats(config, config.nu))
    sets: list[FlatSetInput] = []
    while len(sets) < columns:
        sets.extend(config_sets(key, rng))
    sets = sets[:columns]
    rng.shuffle(sets)
    matrix = np.zeros((n, columns), dtype=np.int64)
    for c, s in enumerate(sets):
        matrix[list(s.ids), c] = 1
    return Block(key, matrix, np.array([s.expected for s in sets]),
                 tuple(s.kind for s in sets))


def sweep_blocks(keys, seed: int, columns: int, rounds: int) -> list[Block]:
    """Per round, one block per configuration, in the order of `keys`."""
    rng = random.Random(f"batch-sweep/{seed}")
    return [column_block(key, columns, rng) for _ in range(rounds) for key in keys]

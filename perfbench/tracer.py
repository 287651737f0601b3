"""Span tracing of the clflats layers from outside the package.

`Tracer.install()` replaces each function named in LAYER_FUNCTIONS by a
wrapper at every place it is bound: the defining module, every clflats
module that copied the binding with `from .x import name`, and the
package namespace.  Methods are replaced on their class.  A wrapper
records a span (name, parent span, start, end) in memory; `uninstall()`
puts the originals back.  Self time of a span is its duration minus the
durations of its direct children.

The small inner-loop helpers (reduce_mod, rref, form_value, vec_*) stay
unwrapped: a span per call would cost more than the work it measures.
Their time shows in the self time of the wrapped caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYER_FUNCTIONS = {
    "geometry": ("enumerate_isotropic", "random_isometry", "point_graph"),
    "flats": ("enumerate_flats", "incidence_matrix", "incidence_rank", "flats_through"),
    "exact": ("EchelonSolver.solvable", "int_echelon", "nullspace", "rank",
              "modular_rank", "int_matmul"),
    "scheme": ("relation_matrix", "idempotent_int", "check_eigen_system",
               "check_eigen_system_probes", "verify_scheme"),
    "spreads": ("type_II_components", "list_type_II", "typeI_span_check",
                "typeII_span_check"),
    "cl": ("battery", "test_image", "test_spectrum", "test_shifted_spectrum",
           "test_counts", "test_spreads", "batch_verdicts", "construct_pencil",
           "_image_solver", "_kernel_basis"),
    "cli": ("run", "paper_suite", "emit"),
}

# Every lru_cache entry point of the package, for cache_info() deltas.
CACHED_FUNCTIONS = {
    "field": ("make_field",),
    "geometry": ("space_config", "subspace_span", "enumerate_isotropic"),
    "flats": ("enumerate_flats", "flat_ids", "incidence_matrix", "gram_identity_terms",
              "incidence_rank"),
    "scheme": ("_formal_config", "scheme_tables", "relation_matrix", "adjacency_matrix",
               "idempotent_int"),
    "spreads": ("list_type_I", "type_II_components", "list_type_II"),
    "cl": ("_image_solver", "_kernel_basis"),
}

INT_MATMUL = "exact.int_matmul"


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYER_FUNCTIONS.items()
            for name in names]


def cache_names() -> list[str]:
    return [f"{module}.{name}" for module, names in CACHED_FUNCTIONS.items()
            for name in names]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "clflats" or name.startswith("clflats."))]


def _resolve(module_name: str, qualname: str):
    """(owner object, attribute, current value) or None if it does not exist."""
    try:
        module = importlib.import_module(f"clflats.{module_name}")
    except ImportError:
        return None
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def _cache_counts() -> dict[str, tuple[int, int]]:
    out = {}
    for name in cache_names():
        module_name, attr = name.split(".", 1)
        found = _resolve(module_name, attr)
        if found is None:
            continue
        fn = found[2]
        if not hasattr(fn, "cache_info"):  # replaced by a span wrapper
            fn = getattr(fn, "__wrapped__", None)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
    return out


class Tracer:
    """In-memory spans plus int_matmul result dtypes and cache counters."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.matmul_int64 = 0
        self.matmul_calls = 0
        self._cache_start: dict[str, tuple[int, int]] | None = None

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the block, child of the innermost open span."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = perf_counter()

    def _wrap(self, name: str, fn):
        tracer = self
        count_dtype = name == INT_MATMUL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count_dtype:
                tracer.matmul_calls += 1
                tracer.matmul_int64 += getattr(result, "dtype", None) == "int64"
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYER_FUNCTIONS entry at every binding.

        The first call also takes the cache counters that cache_deltas()
        subtracts, so re-installing after uninstall() keeps one baseline.
        """
        self.missing = []
        for module_name in LAYER_FUNCTIONS:
            try:
                importlib.import_module(f"clflats.{module_name}")
            except ImportError:
                pass
        modules = _package_modules()
        for module_name, names in LAYER_FUNCTIONS.items():
            for qualname in names:
                found = _resolve(module_name, qualname)
                if found is None:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                owner, attr, original = found
                wrapper = self._wrap(f"{module_name}.{qualname}", original)
                if not isinstance(owner, types.ModuleType):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        if self._cache_start is None:
            self._cache_start = _cache_counts()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per cached function since the first install()."""
        start = self._cache_start or {}
        return {name: (hits - start.get(name, (0, 0))[0], misses - start.get(name, (0, 0))[1])
                for name, (hits, misses) in _cache_counts().items()}

    # -- output ----------------------------------------------------------

    def dump(self) -> dict:
        """Everything a parent process needs to merge this trace."""
        return {"spans": self.spans, "missing": self.missing,
                "matmul_calls": self.matmul_calls, "matmul_int64": self.matmul_int64,
                "caches": self.cache_deltas()}


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for idx, (name, parent, start, end) in enumerate(spans):
        stats[name]["calls"] += 1
        stats[name]["self_s"] += (end - start) - child_time[idx]
    return dict(stats)


def merge(dumps) -> dict:
    """Combine Tracer.dump() results from several processes."""
    spans: list[list] = []
    missing: set[str] = set()
    calls = int64 = 0
    caches: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for d in dumps:
        base = len(spans)
        spans.extend([n, p + base if p >= 0 else -1, s, e] for n, p, s, e in d["spans"])
        missing.update(d["missing"])
        calls += d["matmul_calls"]
        int64 += d["matmul_int64"]
        for name, (hits, misses) in d["caches"].items():
            caches[name][0] += hits
            caches[name][1] += misses
    return {"spans": spans, "missing": sorted(missing), "matmul_calls": calls,
            "matmul_int64": int64, "caches": {k: tuple(v) for k, v in caches.items()}}


def write(path, dump: dict) -> None:
    with open(path, "w") as fh:
        json.dump(dump, fh)

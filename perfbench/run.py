"""clflats benchmark: cold paper verification, warm membership queries,
batched verdict sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads (see BENCHMARK.json and perfbench/README.md):

  verify-cold      `clflats verify --suite paper`, one fresh process per
                   call, for sp(2,2), U(4,1) and O(3,2), each with four
                   seeded `--seed` values.
  membership-warm  one long-lived process, one closed-loop client sending
                   seeded flat sets through `cl.battery` (the
                   `clflats cl test --method auto` path).
  batch-sweep      `cl.batch_verdicts` on seeded 0/1 column blocks.

Each workload has a fixed pool of operations made from the seed.  The
pool is timed pass after pass for --seconds (at least one whole pass).
Each execution is scaled to the host speed measured next to it, and an
operation's latency is the median of its scaled executions (hostspeed.py).

Every workload checks its outputs; each failed check counts against
`attempted` in the error rate.  The last line of stdout is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  Lines before it repeat the figures by name for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import STARTUP_NOMINAL_S, Speed, startup_work, timed_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"

# Sub-second configurations of the standard grid, one per case; the
# multi-second ones (symplectic(3,2), symplectic(2,3), unitary(4,2)) are
# left out, see README.md.
VERIFY_CONFIGS = (("symplectic", 2, 2), ("unitary", 4, 1), ("orthogonal", 3, 2))
MEMBERSHIP_CONFIGS = (("symplectic", 3, 2), ("unitary", 4, 2), ("orthogonal", 3, 2))
SWEEP_CONFIGS = (("symplectic", 3, 2), ("unitary", 4, 2))
# Each run verifies every configuration with this many `clflats verify
# --seed` values, drawn from a pool the reference digests cover.  The
# seed changes the sampled checks and so the work by up to half, so one
# configuration's latency is the mean over its calls.
VERIFY_SEED_POOL = 16
VERIFY_SEEDS_PER_CONFIG = 4
# Fresh-process imports timed per verify-cold run; setup_s is their median.
IMPORT_PROBES = 9
# Membership queries come from a pool of this many cycles (inputs.py);
# every run sees the same shares of configurations and of members, and
# the same pool size, so p50 and the tail are the same order statistics.
MEMBERSHIP_POOL_CYCLES = 2
SWEEP_COLUMNS = 25
SWEEP_POOL_ROUNDS = 12
CLI_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


def key_name(key) -> str:
    return "{}-{}-{}".format(*key)


# ---------------------------------------------------------------------------
# results

@dataclass
class Result:
    """What one workload run measured, before it is turned into metrics."""

    workload: str
    setup_s: list[float] = field(default_factory=list)      # scaled, as op_s
    setup_raw_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)     # latency of each op, scaled
    op_raw_s: list[float] = field(default_factory=list)  # the same, unscaled
    items: int = 0                                      # sets/configurations in the pool
    passes: int = 0                                     # timed passes over the pool
    measured_s: float = 0.0                             # wall time of all passes
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    layer_units: dict[str, str] = field(default_factory=dict)
    speed: Speed = field(default_factory=Speed)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f}"


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(result: Result, rss_mb: float) -> dict[str, float]:
    """The bounded metrics, at the reference speed (hostspeed.py)."""
    tail_s, _ = tail(result.op_s)
    return {
        "setup_s": statistics.median(result.setup_s),
        "op_p50_ms": statistics.median(result.op_s) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "peak_rss_mb": rss_mb,
    }


def rate_per_s(result: Result) -> float:
    """One client, back to back: the pool's items over its summed latency.
    Printed, not bounded: on membership-warm it moves with how early each
    seed's near-miss sets are rejected."""
    return result.items / sum(result.op_s)


# ---------------------------------------------------------------------------
# verify-cold

def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def verify_seeds(seed: int, configs) -> dict:
    """For each configuration, the `--seed` values of its calls."""
    rng = random.Random(f"verify-cold/{seed}")
    return {key: tuple(sorted(rng.sample(range(VERIFY_SEED_POOL), VERIFY_SEEDS_PER_CONFIG)))
            for key in configs}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def verify_argv(key, cli_seed: int) -> list[str]:
    case, q, nu = key
    return ["verify", "--suite", "paper", "--case", case, "--q", str(q),
            "--nu", str(nu), "--seed", str(cli_seed)]


def check_report(result: Result, key, cli_seed: int, proc, reference: dict) -> None:
    """Exit code 0, every report passes, and the bytes hash to the reference."""
    what = f"verify {key_name(key)} seed {cli_seed}"
    try:
        blob = json.loads(proc.stdout)
        passed = blob["pass"] is True and all(r["pass"] is True for r in blob["reports"])
    except (ValueError, KeyError, TypeError):
        passed = False
    digest = hashlib.sha256(proc.stdout).hexdigest()
    want = reference.get(key_name(key), {}).get(str(cli_seed))
    result.check(proc.returncode == 0 and passed and digest == want,
                 f"{what}: exit {proc.returncode}, pass {passed}, digest {digest[:12]}")


def verify_one(result: Result, key, cli_seed: int, reference: dict, spans_dir=None) -> float:
    """One configuration in a fresh process, checked; returns its wall time."""
    argv = verify_argv(key, cli_seed)
    if spans_dir is None:
        cmd = [sys.executable, "-m", "clflats.cli", *argv]
    else:
        spans = spans_dir / f"verify-{key_name(key)}-{cli_seed}.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *argv]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=cli_env(), cwd=ROOT,
                          timeout=CLI_TIMEOUT_S)
    elapsed = perf_counter() - start
    check_report(result, key, cli_seed, proc, reference)
    return elapsed


def import_probe() -> None:
    subprocess.run([sys.executable, "-c", "import clflats.cli"], env=cli_env(), cwd=ROOT,
                   check=True, timeout=CLI_TIMEOUT_S)


def run_verify_cold(seed: int, seconds: float, trace: bool, configs=VERIFY_CONFIGS,
                    reference: dict | None = None) -> tuple[Result, float]:
    result = Result("verify-cold", speed=Speed(startup_work, STARTUP_NOMINAL_S, every_s=1.0))
    reference = load_reference() if reference is None else reference
    seeds = verify_seeds(seed, configs)
    calls = [(key, cli_seed) for key in seeds for cli_seed in seeds[key]]
    result.notes.append("cli seeds: " + ", ".join(
        f"{key_name(k)}={','.join(map(str, s))}" for k, s in seeds.items()))
    result.notes.append("configuration shares: " + ", ".join(
        f"{key_name(k)} {1 / len(seeds):.3f}" for k in seeds))
    result.notes.append("one operation is one configuration: the mean of its "
                        f"{VERIFY_SEEDS_PER_CONFIG} calls")
    result.speed.sample()
    for _ in range(IMPORT_PROBES):
        begin = perf_counter()
        import_probe()
        end = perf_counter()
        result.setup_raw_s.append(end - begin)
        result.setup_s.append(result.speed.stretch(begin, end))
    result.items = len(seeds)

    def one(call):
        return verify_one(result, *call, reference)

    # a traced run times one untraced pass, to compare the traced one with
    scaled, raw, result.passes, result.measured_s = timed_passes(
        calls, one, 0 if trace else seconds, result.speed)
    result.op_s, result.op_raw_s = (
        [statistics.fmean(t for (k, _), t in zip(calls, per_call) if k == key) for key in seeds]
        for per_call in (scaled, raw))
    if trace:
        trace_verify(result, calls, reference, untraced=sum(raw))
    return result, peak_rss_mb(resource.RUSAGE_CHILDREN)


def trace_verify(result: Result, calls, reference: dict, untraced: float) -> None:
    """Run every call again through traced_cli.py; `untraced` is the
    summed time of the same calls untraced."""
    import tracer

    OUT.mkdir(exist_ok=True)
    traced = sum(verify_one(result, key, cli_seed, reference, spans_dir=OUT)
                 for key, cli_seed in calls)
    dumps = []
    for key, cli_seed in calls:
        path = OUT / f"verify-{key_name(key)}-{cli_seed}.json"
        with open(path) as fh:
            dumps.append(json.load(fh))
    merged = tracer.merge(dumps)
    tracer.write(OUT / "trace-verify-cold.json", merged)
    layer_metrics(result, merged, traced_s=traced, untraced_s=untraced)


# ---------------------------------------------------------------------------
# in-process workloads

def import_package():
    """Import clflats from this checkout's src/ (never from elsewhere)."""
    import clflats

    if Path(clflats.__file__).resolve().parent != SRC / "clflats":
        raise RuntimeError(f"clflats imported from {clflats.__file__}, not {SRC}")
    from clflats import cl, geometry
    return cl, geometry


def check_battery(result: Result, cl, config, s) -> float:
    """One membership query; verdicts must match the generated expectation.
    Returns the latency of the `battery` call."""
    what = f"{key_name(s.key)} {s.kind}"
    flat_set = cl.FlatSet(config, s.ids)
    start = perf_counter()
    try:
        verdicts = cl.battery(flat_set)
    except AssertionError as exc:
        elapsed = perf_counter() - start
        result.check(False, f"{what}: routes disagree ({exc})")
        return elapsed
    elapsed = perf_counter() - start
    # the constructive spread route is only a necessary condition, so it
    # may pass on a non-member; on a member every route must pass
    ok = verdicts["image"] == s.expected and (not s.expected or all(verdicts.values()))
    result.check(ok, f"{what}: expected {s.expected}, got {verdicts}")
    return elapsed


def warm_setup(result: Result, tracer_obj, configs, warm_up) -> tuple:
    """Cold start until the first operation can run: import, then one
    warm-up operation per configuration (its verdict is checked too)."""
    speed = result.speed
    speed.sample()
    start = perf_counter()
    raw = scaled = 0.0
    with maybe_span(tracer_obj, "bench.setup"):
        if tracer_obj is not None:
            tracer_obj.install()
        # each phase is scaled by the references timed around it
        begin = perf_counter()
        cl, geometry = import_package()
        end = perf_counter()
        raw, scaled = end - begin, speed.stretch(begin, end)
        for key in configs:
            config = geometry.space_config(*key)
            begin = perf_counter()
            ok = warm_up(cl, config)
            end = perf_counter()
            raw, scaled = raw + end - begin, scaled + speed.stretch(begin, end)
            result.check(ok, f"{key_name(key)} warm-up pencil")
    result.setup_s, result.setup_raw_s = [scaled], [raw]
    return cl, geometry, start


def run_membership(seed: int, seconds: float, trace: bool,
                   configs=MEMBERSHIP_CONFIGS, edit_inputs=None) -> tuple[Result, float]:
    result = Result("membership-warm")
    tracer_obj = new_tracer(trace)

    def warm_up(cl, config):
        return all(cl.battery(cl.construct_pencil(config, (0,) * config.dim)).values())

    cl, geometry, start = warm_setup(result, tracer_obj, configs, warm_up)
    import inputs

    with maybe_span(tracer_obj, "bench.generate"):
        stream = inputs.query_stream(configs, seed, MEMBERSHIP_POOL_CYCLES)
    if edit_inputs is not None:
        stream = edit_inputs(stream)
    config_of = {key: geometry.space_config(*key) for key in configs}
    record_shares(result, [(key_name(s.key), s.expected) for s in stream])
    result.items = len(stream)

    def one(s):
        return check_battery(result, cl, config_of[s.key], s)

    if tracer_obj is not None:
        traced_ops(result, tracer_obj, stream, one, start)
    else:
        result.op_s, result.op_raw_s, result.passes, result.measured_s = timed_passes(
            stream, one, seconds, result.speed)
    return result, peak_rss_mb(resource.RUSAGE_SELF)


def check_block(result: Result, cl, config, block) -> float:
    """All five routes agree on each column, and with the expected verdict.
    Returns the latency of the `batch_verdicts` call."""
    start = perf_counter()
    verdicts = cl.batch_verdicts(config, block.matrix)
    elapsed = perf_counter() - start
    for c, expected in enumerate(block.expected):
        got = {route: bool(v[c]) for route, v in verdicts.items()}
        result.check(set(got.values()) == {bool(expected)},
                     f"{key_name(block.key)} column {c} ({block.kinds[c]}): "
                     f"expected {bool(expected)}, got {got}")
    return elapsed


def run_sweep(seed: int, seconds: float, trace: bool, configs=SWEEP_CONFIGS,
              columns=SWEEP_COLUMNS, edit_inputs=None) -> tuple[Result, float]:
    result = Result("batch-sweep")
    tracer_obj = new_tracer(trace)

    def warm_up(cl, config):
        pencil = cl.construct_pencil(config, (0,) * config.dim)
        verdicts = cl.batch_verdicts(config, pencil.chi().reshape(-1, 1))
        return all(bool(v[0]) for v in verdicts.values())

    cl, geometry, start = warm_setup(result, tracer_obj, configs, warm_up)
    import inputs

    with maybe_span(tracer_obj, "bench.generate"):
        blocks = inputs.sweep_blocks(configs, seed, columns, SWEEP_POOL_ROUNDS)
    if edit_inputs is not None:
        blocks = edit_inputs(blocks)
    config_of = {key: geometry.space_config(*key) for key in configs}
    record_shares(result, [(key_name(b.key), bool(e)) for b in blocks for e in b.expected])
    result.notes.append(f"block size {columns} columns; one operation is one block "
                        f"({len(blocks)} blocks, {columns * len(blocks)} sets)")
    result.items = columns * len(blocks)

    def one(block):
        return check_block(result, cl, config_of[block.key], block)

    if tracer_obj is not None:
        traced_ops(result, tracer_obj, blocks, one, start)
    else:
        result.op_s, result.op_raw_s, result.passes, result.measured_s = timed_passes(
            blocks, one, seconds, result.speed)
    return result, peak_rss_mb(resource.RUSAGE_SELF)


def record_shares(result: Result, rows) -> None:
    """Share of members and of each configuration, from (config, expected) rows."""
    n = len(rows)
    members = sum(1 for _, expected in rows if expected)
    result.notes.append(f"inputs: {n}; members {members / n:.3f}, "
                        f"non-members {(n - members) / n:.3f}")
    per_config: dict[str, int] = {}
    for name, _ in rows:
        per_config[name] = per_config.get(name, 0) + 1
    result.notes.append("configuration shares: " + ", ".join(
        f"{name} {count / n:.3f}" for name, count in per_config.items()))


# ---------------------------------------------------------------------------
# tracing

def new_tracer(trace: bool):
    if not trace:
        return None
    import tracer

    return tracer.Tracer()


def maybe_span(tracer_obj, name: str):
    return contextlib.nullcontext() if tracer_obj is None else tracer_obj.span(name)


def traced_ops(result: Result, tracer_obj, ops, one, start: float) -> None:
    """Run the op pool untraced, then traced, and derive the layer metrics.

    Set-up and input generation ran traced; the wrappers come off only
    for the untraced pass, whose time the traced pass is compared with.
    """
    import tracer

    setup_done = perf_counter()
    tracer_obj.uninstall()
    result.op_s, result.op_raw_s, result.passes, result.measured_s = timed_passes(
        ops, one, 0, result.speed)
    # the same latencies, summed, with and without the wrappers
    untraced = sum(result.op_raw_s)
    tracer_obj.install()
    traced_start = perf_counter()
    traced_ops_s = 0.0
    for op in ops:
        with tracer_obj.span("bench.op"):
            traced_ops_s += one(op)
    loop_s = perf_counter() - traced_start
    tracer_obj.uninstall()
    dump = tracer_obj.dump()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{result.workload}.json", dump)
    wall = (setup_done - start) + loop_s
    layer_metrics(result, dump, traced_s=traced_ops_s, untraced_s=untraced, wall_s=wall)


def layer_metrics(result: Result, dump: dict, traced_s: float, untraced_s: float,
                  wall_s: float | None = None) -> None:
    import tracer

    stats = tracer.self_times(dump["spans"])
    layer, units = result.layer, result.layer_units
    for name in tracer.span_names():
        entry = stats.get(name, {"calls": 0, "self_s": 0.0})
        layer[f"{name}.self_s"] = entry["self_s"]
        units[f"{name}.self_s"] = "s"
        layer[f"{name}.calls"] = entry["calls"]
        units[f"{name}.calls"] = "count"
    calls = dump["matmul_calls"]
    layer["exact.int_matmul.int64_ratio"] = dump["matmul_int64"] / calls if calls else 0.0
    units["exact.int_matmul.int64_ratio"] = "ratio"
    for name in tracer.cache_names():
        hits, misses = dump["caches"].get(name, (0, 0))
        layer[f"{name}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        units[f"{name}.cache_hit_ratio"] = "ratio"
    self_sum = sum(entry["self_s"] for entry in stats.values())
    wall_s = traced_s if wall_s is None else wall_s
    bench_self = sum(entry["self_s"] for name, entry in stats.items()
                     if name.startswith("bench."))
    layer["trace.traced_s"] = wall_s
    layer["trace.self_sum_s"] = self_sum
    layer["trace.bench_self_s"] = bench_self
    layer["trace.overhead_s"] = traced_s - untraced_s
    for name in ("trace.traced_s", "trace.self_sum_s", "trace.bench_self_s",
                 "trace.overhead_s"):
        units[name] = "s"
    result.notes.append(
        f"trace: self times sum to {self_sum:.4f} s of {wall_s:.4f} s traced wall "
        f"(gap {wall_s - self_sum:.4f} s); tracing overhead {traced_s - untraced_s:.4f} s "
        f"({traced_s:.4f} s traced vs {untraced_s:.4f} s untraced, same inputs)")
    if dump["missing"]:
        result.notes.append("not found, reported as 0: " + ", ".join(dump["missing"]))


# ---------------------------------------------------------------------------
# output

def report_lines(result: Result, metrics: dict[str, float]) -> list[str]:
    """Human-readable figures, under the names the workload documentation uses."""
    n = len(result.op_s)
    lines = [f"workload {result.workload}"]
    lines += [f"  note: {note}" for note in result.notes]
    durations = result.speed.durations
    lines.append(f"  note: {result.passes} timed passes begun over the pool "
                 f"({result.measured_s:.2f} s); reference work median "
                 f"{statistics.median(durations) * 1000:.3f} ms over {len(durations)} samples; "
                 f"times are at the reference speed (unscaled setup_s "
                 f"{statistics.median(result.setup_raw_s):.4f}, op_p50_ms "
                 f"{statistics.median(result.op_raw_s) * 1000:.4f})")
    setup_n = len(result.setup_s)
    lines.append(f"  setup_s            {metrics['setup_s']:.4f} s (median of {setup_n})")
    p90 = statistics.quantiles(result.op_s, n=10)[-1] if n >= 2 else result.op_s[0]
    beyond = sum(1 for x in result.op_s if x > p90)
    _, label = tail(result.op_s)
    if result.workload == "verify-cold":
        lines.append(f"  verify_s           {sum(result.op_s):.4f} s "
                     f"(one call per configuration, {n} configurations)")
    elif result.workload == "membership-warm":
        lines.append(f"  query_p50_ms       {metrics['op_p50_ms']:.4f} ms (n={n})")
        lines.append(f"  query_p90_ms       {p90 * 1000:.4f} ms "
                     f"(n={n}, {beyond} samples beyond)")
        lines.append(f"  queries_per_s      {rate_per_s(result):.4f} 1/s")
    else:
        lines.append(f"  sweep_sets_per_s   {rate_per_s(result):.4f} 1/s")
    lines.append(f"  op_p50_ms          {metrics['op_p50_ms']:.4f} ms (n={n})")
    lines.append(f"  op_tail_ms         {metrics['op_tail_ms']:.4f} ms ({label}, n={n})")
    lines.append(f"  peak_rss_mb        {metrics['peak_rss_mb']:.4f} MB")
    rate = result.failed / result.attempted if result.attempted else 0.0
    lines.append(f"  error_rate         {rate:.4f} ratio "
                 f"({result.failed} failed / {result.attempted} attempted)")
    lines += [f"  failure: {what}" for what in result.failures]
    for name, value in result.layer.items():
        lines.append(f"  {name:<52} {value:.6g} {result.layer_units[name]}")
    return lines


def result_json(result: Result, rss_mb: float, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": result.layer_units[name]}
                   for name, value in result.layer.items()}
    else:
        values = end_to_end(result, rss_mb)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}


RUNNERS = {"verify-cold": run_verify_cold, "membership-warm": run_membership,
           "batch-sweep": run_sweep}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="clflats benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, **overrides) -> int:
    """Run one workload; `overrides` go to the workload runner (self-test)."""
    args = parse_args(argv)
    if not (SRC / "clflats" / "__init__.py").is_file():
        sys.stderr.write(f"error: no clflats package under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    result, rss_mb = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace),
                                            **overrides)
    blob = result_json(result, rss_mb, bool(args.trace))
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}, "
          f"python {sys.version.split()[0]}, numpy {importlib.metadata.version('numpy')}, "
          f"nproc {os.cpu_count()}")
    for line in report_lines(result, end_to_end(result, rss_mb)):
        print(line)
    print(json.dumps(blob), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

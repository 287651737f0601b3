"""Self-test of the benchmark on tiny instances of each workload.

    python3 -m pytest perfbench/tests -q

Checks that every metric is printed by name with its unit, that the
result line matches BENCHMARK.json, and that tampered expectations (a
flipped expected verdict, a wrong report digest) count as failures.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

TINY = (("symplectic", 2, 2), ("orthogonal", 3, 2))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(capsys, workload, trace=0, **overrides):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], **overrides)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out[:-1], json.loads(out[-1])


def assert_printed(lines, name, unit):
    assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines), \
        f"{name} [{unit}] not printed"


def assert_end_to_end(lines, blob):
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in blob["metrics"].items()} == want
    assert all(v["value"] > 0 for v in blob["metrics"].values())
    for name, unit in want.items():
        assert_printed(lines, name, unit)
    assert_printed(lines, "error_rate", "ratio")


def flip_first(items):
    first = items[0]
    return [dataclasses.replace(first, expected=not first.expected)] + list(items[1:])


def flip_first_column(blocks):
    first = blocks[0]
    expected = first.expected.copy()
    expected[0] = not expected[0]
    return [dataclasses.replace(first, expected=expected)] + list(blocks[1:])


CALLS = len(TINY) * run.VERIFY_SEEDS_PER_CONFIG


def test_verify_cold(capsys):
    lines, blob = invoke(capsys, "verify-cold", configs=TINY)
    assert blob["correct"] and blob["failed"] == 0 and blob["attempted"] == CALLS
    assert_end_to_end(lines, blob)
    assert_printed(lines, "verify_s", "s")


def test_verify_cold_tampered_digest(capsys):
    reference = run.load_reference()
    seed = run.verify_seeds(7, TINY)[TINY[0]][0]
    reference[run.key_name(TINY[0])][str(seed)] = "0" * 64
    lines, blob = invoke(capsys, "verify-cold", configs=TINY, reference=reference)
    assert not blob["correct"] and blob["failed"] == 1
    assert any(line.split()[:2] == ["error_rate", f"{1 / CALLS:.4f}"] for line in lines)


def test_membership(capsys):
    lines, blob = invoke(capsys, "membership-warm", configs=TINY)
    assert blob["correct"] and blob["attempted"] > len(TINY)
    assert_end_to_end(lines, blob)
    for name, unit in (("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
                       ("queries_per_s", "1/s")):
        assert_printed(lines, name, unit)


def test_membership_tampered_verdict(capsys):
    lines, blob = invoke(capsys, "membership-warm", configs=TINY, edit_inputs=flip_first)
    assert blob["failed"] == 1 and not blob["correct"]


def test_sweep(capsys):
    lines, blob = invoke(capsys, "batch-sweep", configs=TINY[:1], columns=8)
    assert blob["correct"] and blob["failed"] == 0
    assert_end_to_end(lines, blob)
    assert_printed(lines, "sweep_sets_per_s", "1/s")


def test_sweep_tampered_verdict(capsys):
    _, blob = invoke(capsys, "batch-sweep", configs=TINY[:1], columns=8,
                     edit_inputs=flip_first_column)
    assert blob["failed"] == 1 and not blob["correct"]


@pytest.mark.parametrize("workload", ["verify-cold", "membership-warm", "batch-sweep"])
def test_trace(capsys, workload):
    overrides = {"configs": TINY[1:]}
    if workload == "batch-sweep":
        overrides["columns"] = 8
    lines, blob = invoke(capsys, workload, trace=1, **overrides)
    assert blob["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in blob["metrics"].items()} == want
    layer = {k: v["value"] for k, v in blob["metrics"].items()}
    assert layer["exact.int_matmul.calls"] > 0
    if workload != "verify-cold":
        # in-process: only the benchmark's own loop runs outside every span;
        # verify-cold also leaves interpreter start-up outside them
        gap = layer["trace.traced_s"] - layer["trace.self_sum_s"]
        assert 0 <= gap <= max(abs(layer["trace.overhead_s"]), 0.05)


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "batch-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

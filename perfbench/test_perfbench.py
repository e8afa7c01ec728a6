"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They run tiny versions of every workload, so they take a minute or two.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

WORKLOADS = ("paper", "search")
SIX = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "fail_ratio", "peak_rss_mb")


def bench(*args, cwd=ROOT, timeout=300):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def last_json(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def tiny(workload, seed, trace, max_ops=4):
    out = bench("--workload", workload, "--seed", seed, "--seconds", 0, "--trace", trace,
                "--max-ops", max_ops)
    assert out.returncode == 0, out.stderr
    return out, last_json(out)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    ops_a = gen.generate(workload, 11, str(a), rounds=1)
    ops_b = gen.generate(workload, 11, str(b), rounds=1)
    strip = lambda ops: json.dumps(ops).replace(str(a), "").replace(str(b), "")  # noqa: E731
    assert strip(ops_a) == strip(ops_b)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        if name != "ops.json":
            assert filecmp.cmp(a / name, b / name, shallow=False), name
    other = gen.generate(workload, 12, str(tmp_path / "c"), rounds=1)
    assert strip(other).replace(str(tmp_path / "c"), "") != strip(ops_a)


def test_round_mix_is_fixed(tmp_path):
    """Every round of every workload holds the same strata."""
    for workload in WORKLOADS:
        ops = gen.generate(workload, 5, str(tmp_path / workload), rounds=3)
        mixes = {}
        for op in ops:
            mixes.setdefault(op["round"], []).append(op["stratum"])
        first = sorted(mixes[0])
        assert all(sorted(m) == first for m in mixes.values()), workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload):
    out, res = tiny(workload, 3, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    for name, m in res["metrics"].items():
        assert m["value"] > 0 and m["unit"], name
    text = out.stdout
    for name in SIX:
        assert f"#   {name}" in text, name
    assert "fail_ratio         0.0000 failed/attempted" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_calls_repeat_per_seed(workload):
    _, first = tiny(workload, 4, 1, max_ops=6)
    _, second = tiny(workload, 4, 1, max_ops=6)
    assert first["correct"] and second["correct"]
    wanted = {name for name, _ in PER_LAYER}
    assert wanted <= set(first["metrics"])
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls == again
    assert any(calls.values())


def test_tracer_restores_every_name():
    import skewcyclic
    from skewcyclic import cli, distance, fields, verify

    before = (cli.free_distance, verify.free_distance, skewcyclic.free_distance,
              fields.Poly.__mul__, distance.free_distance)
    with Tracer() as tracer:
        assert cli.free_distance is not before[0]
        assert verify.free_distance is cli.free_distance is skewcyclic.free_distance
        assert fields.Poly.__mul__ is not before[3]
        fields.Poly.one(fields.make_field(2, 1)) * fields.Poly.one(fields.make_field(2, 1))
    assert tracer.counts["fields.Poly.mul"] == 1
    after = (cli.free_distance, verify.free_distance, skewcyclic.free_distance,
             fields.Poly.__mul__, distance.free_distance)
    assert all(x is y for x, y in zip(before, after))


def test_self_time_excludes_children():
    t = Tracer()
    outer = t._span_wrapper("outer", lambda f: f())
    inner = t._span_wrapper("inner", lambda: sum(range(20000)))
    outer(inner)
    agg = t.aggregate()
    assert agg["outer"]["calls"] == agg["inner"]["calls"] == 1
    total = agg["outer"]["total_s"]
    assert agg["outer"]["self_s"] == pytest.approx(total - agg["inner"]["total_s"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench("--workload", "search", "--seed", 1, "--seconds", 1, "--trace", 0,
                cwd=str(tmp_path), timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_kernel_window_brackets_each_op():
    import calib

    # refs[i] is timed right after op i; op i sees refs[i-3 .. i+2]
    refs = [1.0, 2.0, 3.0, 10.0, 5.0]
    assert calib.local_speeds(refs) == [2.0, 2.5, 3.0, 3.0, 4.0]
    assert calib.reference() > 0

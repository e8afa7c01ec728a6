"""Layered benchmark for skewcyclic.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a checkout.  One process, one thread, one client in a
closed loop: each op is issued when the previous one returns.  The program
is imported from the checkout's `src/` and driven only through
`skewcyclic.cli.main([...])` and the package's public functions.

With `--trace 0` the run measures end to end: set-up time from fresh
interpreters, then whole rounds of ops for at least `--seconds` seconds and
at least 100 ops; every time is scaled to a nominal machine speed by the
reference kernel in `calib.py`.  With `--trace 1` it runs a fixed number of rounds, each op
once untraced and once traced, and reports per-layer calls and times and the
tracing overhead.  The last line of standard output is one JSON object.
`--workload all` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper", "search")

# end-to-end metrics: name -> unit, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3
MIN_OPS = 100
WARMUP_OPS = 4
HARD_LIMIT_S = 150.0  # stop starting rounds past this, so the run ends < 180 s
# rounds run (twice) by a traced run; fixed, so call counts repeat per seed
TRACE_ROUNDS = {"paper": 1, "search": 1}


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


# -- run header ----------------------------------------------------------------


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines():
    total = 0
    pkg = os.path.join(SRC, "skewcyclic")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def header(args):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(),
    }


# -- phases --------------------------------------------------------------------


def python_cmd(script, *args):
    return [sys.executable, os.path.join(HERE, script), *map(str, args)]


def generate(workload, seed):
    """Write the inputs in a child process and load the op list."""
    workdir = os.path.join(".bench_work", f"{workload}-s{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = python_cmd("gen.py", workload, seed, workdir)
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
    with open(os.path.join(workdir, "ops.json"), encoding="utf-8") as fh:
        return workdir, json.load(fh)["ops"]


def measure_setup(workload):
    """Median set-up seconds (at the nominal machine speed) over
    SETUP_REPEATS fresh interpreters, and the context-table problems the
    last one found."""
    times, walls, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            python_cmd("setup_probe.py", workload),
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            return None, [f"set-up probe failed: {out.stderr.strip()[-400:]}"]
        res = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(res["setup_s"])
        walls.append(res["wall_s"])
        problems = res["problems"]
    print(f"# set-up: {', '.join(f'{t:.3f}' for t in times)} s at the nominal speed; "
          f"{', '.join(f'{t:.3f}' for t in walls)} s wall clock", flush=True)
    return statistics.median(times), problems


def run_ops(runner, ops, tracer=None, refs=None):
    """Execute and check each op; returns latencies (s) and failure reasons.

    With `refs` (a list), the reference kernel is timed after each op and
    its time appended there.
    """
    lat, failures = [], []
    for op in ops:
        if tracer is not None:
            tracer.op_id = op["id"]
        t0 = time.perf_counter()
        try:
            result = runner.execute(op)
            err = None
        except Exception as exc:  # a crashed op is a failed op
            result, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if err is None:
            try:
                err = runner.check(op, result)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = True
        if err is not None:
            failures.append(f"op {op['id']} ({op['stratum']}): {err}")
        if refs is not None:
            refs.append(calib.reference())
    return lat, failures


def rounds_of(ops):
    out = {}
    for op in ops:
        out.setdefault(op["round"], []).append(op)
    return [out[k] for k in sorted(out)]


def timed_loop(runner, ops, seconds, max_ops, t_process, refs):
    """Whole rounds, cycled, until `seconds` have passed and MIN_OPS ran.

    Returns the ops run, their latencies, the failure reasons and, per round,
    (first op index, op count, failed count).  Kernel times go to `refs`.
    """
    rounds = rounds_of(ops)
    done, lat, failures, spans = [], [], [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        batch = rounds[i % len(rounds)]
        if max_ops is not None:
            batch = batch[: max_ops - len(lat)]
        l, f = run_ops(runner, batch, refs=refs)
        spans.append((len(lat), len(l), len(f)))
        done += batch
        lat += l
        failures += f
        i += 1
        elapsed = time.perf_counter() - t0
        if max_ops is not None and len(lat) >= max_ops:
            break
        if elapsed >= seconds and len(lat) >= MIN_OPS:
            break
        per_round = elapsed / i
        if time.perf_counter() - t_process + per_round > HARD_LIMIT_S:
            log(f"stopping early: the next round would pass {HARD_LIMIT_S:.0f} s")
            break
    return done, lat, failures, spans


def quantiles(lat):
    if len(lat) == 1:
        return lat[0], lat[0]
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return q[4], q[8]


def round_rates(lat, spans):
    """Per round, ops verified correct per second of op time."""
    return [(n - nf) / sum(lat[i:i + n]) for i, n, nf in spans]


def spread(xs):
    """Quartile distance over the median."""
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / q[1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload --------------------------------------------------------------


def run_workload(args, t_process):
    from gen import WHY
    from ops import Runner

    print("# header " + json.dumps(header(args)), flush=True)
    workdir, ops = generate(args.workload, args.seed)
    print(f"# why {args.workload}: {WHY[args.workload]}", flush=True)
    problems = []
    if args.trace:
        setup_s = None
    else:
        setup_s, problems = measure_setup(args.workload)
    runner = Runner(ops)
    runner.prepare(ops)

    if args.trace:
        return trace_run(args, runner, ops, workdir, problems)

    calib.warm()
    refs = []
    _, warm_failures = run_ops(runner, rounds_of(ops)[0][:WARMUP_OPS], refs=refs)
    lead = len(refs)
    done, raw, failures, spans = timed_loop(
        runner, ops, args.seconds, args.max_ops, t_process, refs)
    # every op time at the nominal machine speed (see calib.py)
    speeds = calib.local_speeds(refs)[lead:]
    lat = [t * calib.NOMINAL_S / k for t, k in zip(raw, speeds)]
    rates = round_rates(lat, spans)
    attempted, failed = len(lat), len(failures)
    p50, p90 = quantiles(lat)
    metrics = {
        "setup_s": setup_s if setup_s is not None else 0.0,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    beyond = sum(1 for x in lat if x > p90)
    print(f"# {attempted} ops in {len(rates)} rounds, {sum(raw):.2f} s busy, {beyond} beyond p90; "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}", flush=True)
    raw50, raw90 = quantiles(raw)
    kernel = refs[lead:]
    print(f"# wall clock, unscaled: ops_per_s {statistics.median(round_rates(raw, spans)):.4f}, "
          f"op_p50_ms {1e3 * raw50:.4f}, op_p90_ms {1e3 * raw90:.4f}; kernel "
          f"{1e3 * statistics.median(kernel):.4f} ms median (nominal {1e3 * calib.NOMINAL_S:.1f}), "
          f"quartile spread {spread(kernel):.3f}, range {1e3 * min(kernel):.3f}-"
          f"{1e3 * max(kernel):.3f} ms", flush=True)
    if len(lat) > 1:
        # how close p50 and p90 sit to a step between op classes
        q = statistics.quantiles(lat, n=20, method="inclusive")
        print("# neighbourhood (ms): " + ", ".join(
            f"p{5 * (i + 1)} {1e3 * q[i]:.2f}" for i in (7, 8, 10, 11, 15, 16, 18)), flush=True)
    print("# at the nominal machine speed:", flush=True)
    for name, unit in END_TO_END:
        print(f"#   {name:12s} {metrics[name]:12.4f} {unit}", flush=True)
    print(f"#   {'fail_ratio':12s} {failed / attempted:12.4f} failed/attempted", flush=True)
    by_stratum = {}
    for op, t in zip(done, lat):
        by_stratum.setdefault(op["stratum"], []).append(t)
    print("# per stratum: median ms, samples (a stratum is one code shape or check)", flush=True)
    for name, xs in sorted(by_stratum.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"#   {name:34s} {1e3 * statistics.median(xs):10.2f} {len(xs):5d}", flush=True)
    for msg in (problems + warm_failures + failures)[:10]:
        log("FAIL " + msg)
    correct = not (problems or warm_failures or failures) and setup_s is not None
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def trace_run(args, runner, ops, workdir, problems):
    """Fixed rounds, each op untraced and traced; per-layer metrics and the
    tracing overhead."""
    from contexts import check_against_program
    from gen import CONTEXTS_OF
    from setup_probe import build_contexts
    from tracer import Tracer

    chosen = [op for rnd in rounds_of(ops)[: TRACE_ROUNDS[args.workload]] for op in rnd]
    if args.max_ops is not None:
        chosen = chosen[: args.max_ops]
    run_ops(runner, chosen[:WARMUP_OPS])
    tracer = Tracer()
    with tracer:
        names = CONTEXTS_OF[args.workload]
        tracer.op_id = -1
        built = build_contexts(names)
        tracer.active = False
        problems = problems + check_against_program(names, built)
        tracer.active = True
    # each op runs untraced and traced back to back, in alternating order,
    # so that drift in machine speed cancels out of the overhead
    plain, traced, failures, failed_ids = [], [], [], set()
    for i, op in enumerate(chosen):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer:
                    lat, fail = run_ops(runner, [op], tracer)
                traced += lat
            else:
                lat, fail = run_ops(runner, [op])
                plain += lat
            failures += fail
            if fail:
                failed_ids.add(op["id"])
    tracer.write(os.path.join(workdir, "spans.json"))
    metrics = tracer.metrics()
    plain_rate = len(chosen) / sum(plain)
    traced_rate = len(chosen) / sum(traced)
    metrics["trace.untraced_ops_per_s"] = {"value": plain_rate, "unit": "ops/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "ops/s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (plain_rate / traced_rate - 1.0), "unit": "%"}
    print(f"# traced {len(chosen)} ops; {len(tracer.start)} spans written to "
          f"{os.path.join(workdir, 'spans.json')}", flush=True)
    busy = sum(traced)
    in_ops = tracer.aggregate(ops_only=True)
    top = sorted(((name, a["self_s"]) for name, a in in_ops.items()), key=lambda kv: -kv[1])[:6]
    print("# largest self times inside ops (set-up left out):", flush=True)
    for name, v in top:
        print(f"#   {name:50s} {v:9.4f} s  {100 * v / busy:5.1f}% of traced op time", flush=True)
    print(f"#   tracing overhead {metrics['trace.overhead_pct']['value']:.1f}% "
          f"({plain_rate:.3f} -> {traced_rate:.3f} ops/s)", flush=True)
    for msg in (problems + failures)[:10]:
        log("FAIL " + msg)
    return {
        "correct": not problems and not failures,
        "attempted": len(chosen),
        "failed": len(failed_ids),
        "metrics": metrics,
    }


# -- all workloads -------------------------------------------------------------


def run_all(args):
    rows = {}
    for wl in WORKLOADS:
        cmd = python_cmd("run.py", "--workload", wl, "--seed", args.seed,
                         "--seconds", args.seconds, "--trace", args.trace)
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            log(f"{wl}: exit code {out.returncode}")
            return 1
        rows[wl] = json.loads(out.stdout.strip().splitlines()[-1])
    for wl, res in rows.items():
        print(f"{wl}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:58s} {m['value']:14.4f} {m['unit']}")
        print(f"  {'fail_ratio':58s} {res['failed'] / res['attempted']:14.4f} failed/attempted")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    t_process = time.perf_counter()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one string-hash layout for every run, so runs differ only by seed
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="stop after this many ops: a tiny run, for the self-tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skewcyclic", "__init__.py")):
        log(f"no program source at {os.path.relpath(SRC)}/skewcyclic; run from a checkout")
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, t_process)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""ffast2d benchmark: seeded decode workloads, end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ./src only:

  python3 perfbench/run.py --workload lsparse-280 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --out perfbench/BENCH_baseline.json

--trace 0 sets up, then times a closed loop of operations and prints the
end-to-end metrics. --trace 1 sets up, then runs the traced pass (layer by
layer, from outside the package) and prints the per-layer metrics.
`all` runs every workload with --trace 0 and then --trace 1, each in its
own process. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. NOTES.md defines each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# setup_s is the median of at least SETUP_REPS set-ups spanning SETUP_MIN_S.
# Each set-up warms up on another instance, so that setup_s does not follow
# one instance's decode time: with a fixed warm-up instance, robust-280's
# setup_s spread 30% across seeds.
SETUP_REPS = 10
SETUP_MIN_S = 2.0
BUILD_REPS = 5        # core.build_plan_ms is the median of this many builds
# decode_ms.tail is a fixed percentile, so that it means the same on a
# faster program. MIN_OPS gives it at least 10 samples beyond in every run.
# Higher percentiles of these short runs measure the shared host's hiccups:
# p99 on vsparse-2520 spread 35% across seeds.
TAIL_PCT = 75
MIN_OPS = 44
MIN_TRACED_OPS = 5    # the traced pass reports means; it needs no tail
WORKLOAD_NAMES = ["lsparse-280", "vsparse-2520", "robust-280"]


def import_package():
    """Puts ./src first on the path; refuses to run against any other copy."""
    pkg = SRC / "ffast2d"
    if not (pkg / "__init__.py").is_file():
        sys.exit("perfbench: no ffast2d source tree at %s" % pkg)
    sys.path.insert(0, str(SRC))
    import ffast2d
    if Path(ffast2d.__file__).resolve().parent != pkg:
        sys.exit("perfbench: imported ffast2d from %s, not %s"
                 % (ffast2d.__file__, pkg))


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
        "commit": git_commit(),
    }


def closed_loop(op, seconds: float, speed, min_ops: int) -> list:
    """Runs op(0), op(1), ... back to back for `seconds` (at least min_ops).

    Returns (host-speed scale, result) pairs. The host-speed kernel runs
    between operations, never inside one.
    """
    out = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(out) < min_ops:
        scale = speed.scale()
        out.append((scale, op(len(out))))
    return out


def tail(values: list) -> float:
    """The TAIL_PCT percentile, by nearest rank."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * TAIL_PCT / 100))]


def timed_run(wl, args, work: Path, speed) -> dict:
    speed.prime()
    setups = []
    state = None
    started = time.perf_counter()
    while (len(setups) < SETUP_REPS
           or time.perf_counter() - started < SETUP_MIN_S):
        # every set-up starts from the same heap: the last one's objects are
        # gone, so no set-up pays for another's garbage collection
        state = None
        gc.collect()
        scale = speed.scale()
        start = time.perf_counter()
        state = wl.setup(args.seed, work)
        wl.op(state, len(setups))             # warm-up, not counted
        setups.append((time.perf_counter() - start) * scale)
    pairs = closed_loop(lambda j: wl.op(state, j), args.seconds, speed,
                        MIN_OPS)
    outcomes = [o for _, o in pairs]
    done = [(scale, o) for scale, o in pairs if not o.failed]
    lat_ms = [o.seconds * scale * 1e3 for scale, o in done]
    attempted = len(outcomes)
    failed = attempted - len(done)
    false_success = sum(o.false_success for o in outcomes)
    return {
        "metrics": {
            "decodes_per_s": (len(lat_ms) / sum(lat_ms) * 1e3, "1/s"),
            "decode_ms.p50": (statistics.median(lat_ms), "ms"),
            "decode_ms.tail": (tail(lat_ms), "ms"),
            "success_rate": (sum(o.correct for o in outcomes) / attempted,
                             "ratio"),
            "samples_per_decode": (statistics.median(o.samples
                                                     for _, o in done),
                                   "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        },
        "details": {
            "decode_ms.tail_percentile": TAIL_PCT,
            "latency_samples": len(lat_ms),
            "setups": len(setups),
            "false_success": false_success,
            "failure_share": failed / attempted,
            "unscaled_decode_ms.p50": statistics.median(
                o.seconds * 1e3 for _, o in done),
            "host_speed": speed.summary(),
        },
        "correct": false_success == 0,
        "attempted": attempted,
        "failed": failed,
    }


def traced_run(wl, args, work: Path, speed) -> dict:
    import layers

    state = wl.setup(args.seed, work)
    wl.op(state, 0)                           # warm-up, not counted
    speed.prime()
    build_scale = speed.scale()
    builds = []
    for _ in range(BUILD_REPS):
        start = time.perf_counter()
        wl.build_plan()
        builds.append((time.perf_counter() - start) * build_scale)

    # the CLI probe goes before anything that holds a whole grid in this
    # process, so that its decode processes report their own peak memory
    cli_metrics, checks, array = layers.cli_probe(wl, state, work, SRC, speed)
    dense_ms = layers.dense_fft2_ms(array) * speed.scale()
    del array

    def op(j):
        try:
            return layers.traced_op(wl, state, j)
        except Exception:
            traceback.print_exc()
            return None

    pairs = closed_loop(op, args.seconds, speed, MIN_TRACED_OPS)
    records = [layers.scaled(rec, scale) for scale, rec in pairs
               if rec is not None]
    failed = len(pairs) - len(records)
    metrics = {"core.build_plan_ms": (statistics.median(builds) * 1e3, "ms")}
    metrics.update(layers.layer_metrics(records))
    metrics.update(cli_metrics)
    sparse_ms = statistics.median(r["plain"] for r in records) * 1e3
    metrics["ref.dense_fft2_ms"] = (dense_ms, "ms")
    metrics["ref.dense_over_sparse"] = (dense_ms / sparse_ms, "ratio")

    attempted = len(pairs)
    false_success = (sum(r["false_success"] for r in records)
                     + sum(c[1] for c in checks))
    return {
        "metrics": metrics,
        "details": {
            "traced_ops": len(records),
            "traced_success_rate": sum(r["correct"] for r in records)
            / max(len(records), 1),
            "cli_probe_checks": [{"correct": c[0], "exit_code": c[2]}
                                 for c in checks],
            "false_success": false_success,
            "failure_share": failed / attempted,
            "host_speed": speed.summary(),
        },
        "correct": false_success == 0,
        "attempted": attempted,
        "failed": failed,
    }


def print_result(name: str, env: dict, res: dict) -> None:
    print("workload %s  seed %d" % (name, env["seed"]))
    print("environment " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in res["metrics"].items():
        print("  %-32s %16.6g %s" % (key, value, unit))
    for key, value in res["details"].items():
        print("  %-32s %s" % (key, json.dumps(value)))
    print("  %-32s %d of %d" % ("failed", res["failed"], res["attempted"]))


def run_one(args) -> int:
    import_package()
    import workloads
    from hostspeed import HostSpeed

    wl = workloads.make_workloads(SRC)[args.workload]
    env = environment(args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=wl.name + "-", dir=WORK))
    try:
        res = (traced_run if args.trace else timed_run)(wl, args, work,
                                                         HostSpeed())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_result(wl.name, env, res)
    if args.out:
        doc = {"workload": wl.name, "trace": args.trace,
               "seconds": args.seconds, "environment": env, **res}
        doc["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in res["metrics"].items()}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, timed then traced, each in a fresh process."""
    import_package()
    WORK.mkdir(exist_ok=True)
    runs, status = [], 0
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            fd, part = tempfile.mkstemp(suffix=".json", dir=WORK)
            os.close(fd)
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", part]
            try:
                code = subprocess.run(cmd).returncode
                if code == 0:
                    runs.append(json.loads(Path(part).read_text()))
            finally:
                os.unlink(part)
            if code != 0:
                status = 1
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(json.dumps({"correct": all(r["correct"] for r in runs)
                      and status == 0,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": {}}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

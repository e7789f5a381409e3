"""Per-layer measurements, taken from outside the package.

Every number comes from timing calls into a layer's public functions, from
a delegating source wrapper, or from the decoders' public `trace=` callback.
Nothing inside src/ is instrumented.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ffast2d.cli import read_signal_bin
from ffast2d.core import STATUS_SUCCESS
from ffast2d.frontend import run_frontend
from ffast2d.peeler import KIND_SINGLETON

from workloads import CLI_TIMEOUT_S, child_env, run_cli

PROBE_REPS = 3          # CLI decode processes and file reads per traced run
IMPORT_REPS = 5         # bare and import-only interpreters per traced run
DENSE_MIN_REPS = 3
DENSE_BUDGET_S = 1.0


class TimedSource:
    """Delegating signal source that times and records every read."""

    def __init__(self, inner):
        self.inner = inner
        self.dims = inner.dims
        self.calls = 0
        self.busy = 0.0
        self.last_end = 0.0
        self._start_count = inner.access_count
        self._reads = []

    @property
    def access_count(self) -> int:
        return self.inner.access_count

    @property
    def charged(self) -> int:
        return self.inner.access_count - self._start_count

    def _timed(self, read, a, b):
        start = time.perf_counter()
        out = read(a, b)
        self.last_end = time.perf_counter()
        self.busy += self.last_end - start
        self.calls += 1
        return out

    def sample_grid(self, rows, cols):
        self._reads.append((rows, cols, True))
        return self._timed(self.inner.sample_grid, rows, cols)

    def sample_points(self, aa, bb):
        self._reads.append((aa, bb, False))
        return self._timed(self.inner.sample_points, aa, bb)

    def distinct_cells(self) -> int:
        nx, ny = self.dims.nx, self.dims.ny
        flat = []
        for a, b, grid in self._reads:
            a = np.asarray(a, dtype=np.int64) % nx
            b = np.asarray(b, dtype=np.int64) % ny
            flat.append((a[:, None] * ny + b[None, :]).ravel() if grid
                        else a * ny + b)
        return int(np.unique(np.concatenate(flat)).size) if flat else 0


def traced_op(wl, state, j: int) -> dict:
    """One traced operation: an untraced twin, then the layers one by one.

    The traced decode is split into self times that add up to it:
    validate (a direct FfastPlan.validate call), oracle reads (the wrapper,
    inside the decode), front-end self time (a direct run_frontend call
    minus its reads) and peel (from the end of the decode's last read to
    its return). What these do not cover is the remainder. Peel splits
    further into per-peel and scan time, from the times of the trace events.
    """
    plan = state.plan
    pc = time.perf_counter
    source = wl.source(state, j)
    start = pc()
    wl.decode(source, plan)
    plain = pc() - start

    start = pc()
    plan.validate()
    validate = pc() - start

    fe_source = TimedSource(wl.source(state, j))
    start = pc()
    run_frontend(plan, fe_source)
    frontend = pc() - start

    source = TimedSource(wl.source(state, j))
    events = []

    def record(event):
        events.append((pc(), event["round"], event["stage"]))

    start = pc()
    report = wl.decode(source, plan, trace=record)
    end = pc()
    decode_s = end - start
    frontend_self = frontend - fe_source.busy
    peel = end - source.last_end
    # a gap between two peels of the same round and stage is one peel's
    # work: subtracting the last peel and classifying the next bin. The
    # rest of the peel stage (first-pass stats, the stage scans, the live
    # counts at round ends) is scan time.
    gaps = [t1 - t0 for (t0, r0, s0), (t1, r1, s1) in zip(events, events[1:])
            if (r0, s0) == (r1, s1)]
    per_peel = statistics.fmean(gaps) * len(events) if gaps else 0.0

    truth = wl.truth(state, j)
    success = report.status == STATUS_SUCCESS
    correct, false_success = wl.judge(report.spectrum.entries, truth, success)
    bins = sum(sum(s.values()) for s in report.bin_stats)
    return {
        "plain": plain, "validate": validate, "frontend": frontend,
        "frontend_self": frontend_self, "sample": source.busy, "peel": peel,
        "per_peel": per_peel, "scan": peel - per_peel, "decode": decode_s,
        "remainder": decode_s - validate - source.busy - frontend_self - peel,
        "calls": source.calls, "charged": source.charged,
        "distinct": source.distinct_cells(), "rounds": report.peel_iterations,
        "peels": len(events), "peels_per_coeff": len(events) / len(truth),
        "singleton_frac": sum(s[KIND_SINGLETON] for s in report.bin_stats) / bins,
        "success": success, "correct": correct, "false_success": false_success,
    }


TIME_KEYS = ("plain", "validate", "frontend", "frontend_self", "sample", "peel",
             "per_peel", "scan", "decode", "remainder")


def scaled(record: dict, scale: float) -> dict:
    """The record with its times multiplied by the host-speed scale."""
    return {k: v * scale if k in TIME_KEYS else v for k, v in record.items()}


def layer_metrics(records: list) -> dict:
    """Per-layer metrics over the traced operations, as (value, unit).

    Times are means, so that the self times add up to trace.decode_ms
    exactly; counts are medians.
    """
    def ms(key):
        return statistics.fmean(r[key] for r in records) * 1e3

    def med(key):
        return statistics.median(r[key] for r in records)

    plain = sum(r["plain"] for r in records)
    traced = sum(r["decode"] for r in records)
    return {
        "core.validate_ms": (ms("validate"), "ms"),
        "oracle.sample_ms": (ms("sample"), "ms"),
        "oracle.sample_calls": (med("calls"), "count"),
        "oracle.samples_charged": (med("charged"), "count"),
        "oracle.distinct_cells": (med("distinct"), "count"),
        "oracle.reads_per_distinct": (med("charged") / med("distinct"), "ratio"),
        "frontend.run_ms": (ms("frontend"), "ms"),
        "frontend.self_ms": (ms("frontend_self"), "ms"),
        "peel.ms": (ms("peel"), "ms"),
        "peel.per_peel_ms": (ms("per_peel"), "ms"),
        "peel.scan_ms": (ms("scan"), "ms"),
        "peel.rounds": (med("rounds"), "count"),
        "peel.peels": (med("peels"), "count"),
        "peel.peels_per_coeff": (statistics.fmean(
            r["peels_per_coeff"] for r in records), "ratio"),
        "peel.first_pass_singleton_frac": (statistics.fmean(
            r["singleton_frac"] for r in records), "ratio"),
        "peel.status_success_frac": (statistics.fmean(
            float(r["success"]) for r in records), "ratio"),
        "trace.decode_ms": (ms("decode"), "ms"),
        "trace.remainder_ms": (ms("remainder"), "ms"),
        "trace.overhead_pct": (100.0 * (1.0 - plain / traced), "%"),
    }


def _process_seconds(cmd, src: Path) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, env=child_env(src),
                   timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start


def cli_probe(wl, state, work: Path, src: Path, speed):
    """cli-layer metrics for the workload's plan and instance 0.

    Returns (metrics, checks, signal array); checks holds one
    (correct, false_success, exit code) per decode process. Times are
    scaled by the host-speed kernel like every other time.
    """
    plan_path, signal_path, extra = wl.cli_inputs(state, work)
    # decode processes first: a child's ru_maxrss starts from this process's
    # peak, which the in-process reads below raise by the size of the grid
    runs = []
    for _ in range(PROBE_REPS):
        scale = speed.scale()
        run = run_cli(src, plan_path, signal_path, extra)
        runs.append((scale, run))
    bare, imported = [], []
    for _ in range(IMPORT_REPS):
        scale = speed.scale()
        bare.append(_process_seconds([sys.executable, "-c", "pass"], src)
                    * scale)
        imported.append(_process_seconds(
            [sys.executable, "-c", "from ffast2d.cli import main"], src)
            * scale)
    reads = []
    for _ in range(PROBE_REPS):
        scale = speed.scale()
        start = time.perf_counter()
        array = read_signal_bin(str(signal_path))
        reads.append((time.perf_counter() - start) * scale)
    checks = []
    for _, run in runs:
        if run.doc is None:
            checks.append((False, False, run.returncode))
            continue
        correct, false = wl.judge(run.entries, wl.truth(state, 0),
                                  run.doc["status"] == STATUS_SUCCESS)
        checks.append((correct, false, run.returncode))
    done = [(scale, run) for scale, run in runs if run.doc is not None]
    metrics = {
        "cli.import_ms": ((statistics.median(imported)
                           - statistics.median(bare)) * 1e3, "ms"),
        "cli.read_signal_ms": (statistics.median(reads) * 1e3, "ms"),
        "cli.reported_wall_ms": (statistics.median(
            run.doc["wall_time_ms"] * scale for scale, run in done), "ms"),
        "cli.overhead_ms": (statistics.median(
            (run.seconds * 1e3 - run.doc["wall_time_ms"]) * scale
            for scale, run in done), "ms"),
        "cli.peak_rss_mb": (max(run.peak_rss_mb for _, run in runs), "MB"),
    }
    return metrics, checks, array


def dense_fft2_ms(array: np.ndarray) -> float:
    """Median time of a dense np.fft.fft2 of the workload's grid, unscaled."""
    np.fft.fft2(array)
    times = []
    while len(times) < DENSE_MIN_REPS or sum(times) < DENSE_BUDGET_S:
        start = time.perf_counter()
        np.fft.fft2(array)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3

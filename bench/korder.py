#!/usr/bin/env python3
"""Criterion 6's k-order check, run in-process on two source trees.

Acceptance criterion 6 asserts t(100) < t(200) < t(300) for the mean
decode times of cli.bench_rows([315], 315, [100, 200, 300], trials=10,
seed=700). One run of it is at the mercy of a host spike, and a whole
process's timing moves with its page faults and heap layout, so this
script loads both trees' packages into one process (as bench/ab.py
does), runs that call on each tree per repeat, alternating which tree
goes first, and does so in --processes fresh processes (default 3) of
REPEATS repeats each, one process at a time:

  python3 bench/korder.py --parent ../parent/src
  python3 bench/korder.py --parent ../parent/src --processes 10

For each tree it prints each process's held counts (the repeats in
which t(100) < t(200) < t(300) held), then the pooled count over all
processes, the median t(100)/t(200) and t(200)/t(300) ratios over all
repeats, and the median t(100). Criterion 6 is judged by pooled counts:
the unchanged parent does not hold every repeat.
"""

from __future__ import annotations

import argparse
import multiprocessing
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ab import ROOT, fresh_tree

LABELS = ("parent", "change")
REPEATS = 10                    # per process


def _k_times(bench_rows, trials: int) -> list[float]:
    rows = bench_rows([315], 315, [100, 200, 300], trials=trials, seed=700)
    return [row["mean_time_ms"] for row in rows]


def _held(runs) -> int:
    """The repeats in which t(100) < t(200) < t(300)."""
    return sum(t1 < t2 < t3 for t1, t2, t3 in runs)


def _process(trees: dict, parent_first: bool) -> dict:
    """One process's repeats: each tree's (t100, t200, t300) per repeat."""
    loaded = {}
    for label in LABELS if parent_first else LABELS[::-1]:
        with fresh_tree(trees[label]) as modules:
            from ffast2d.cli import bench_rows
            _k_times(bench_rows, 1)               # warm-up, not counted
        loaded[label] = (modules, bench_rows)
    times = {label: [] for label in LABELS}
    for r in range(REPEATS):
        for label in LABELS if r % 2 == 0 else LABELS[::-1]:
            modules, bench_rows = loaded[label]
            sys.modules.update(modules)
            times[label].append(_k_times(bench_rows, 10))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="the parent's source tree (its src directory)")
    parser.add_argument("--change", type=Path, default=ROOT / "src",
                        help="the change's source tree (default: ./src)")
    parser.add_argument("--processes", type=int, default=3,
                        help="fresh processes, run one after another "
                             "(default 3)")
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error("--processes must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {label: [] for label in LABELS}
    print("criterion 6 k-order: %d processes x %d repeats"
          % (args.processes, REPEATS))
    # one worker, replaced after each task: the processes run one at a
    # time, each from a fresh import
    with ProcessPoolExecutor(1, multiprocessing.get_context("spawn"),
                             max_tasks_per_child=1) as pool:
        for p in range(args.processes):
            got = pool.submit(_process, trees, p % 2 == 0).result()
            print("  process %d: %s" % (p + 1, ", ".join(
                "%s held %d of %d" % (label, _held(got[label]), REPEATS)
                for label in LABELS)), flush=True)
            for label in LABELS:
                times[label] += got[label]
    for label in LABELS:
        runs = times[label]
        print("  %-6s pooled held %d of %d, median t100/t200 %.3f, "
              "t200/t300 %.3f, t100 %.3f ms"
              % (label, _held(runs), len(runs),
                 statistics.median(t1 / t2 for t1, t2, _ in runs),
                 statistics.median(t2 / t3 for _, t2, t3 in runs),
                 statistics.median(t1 for t1, _, _ in runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

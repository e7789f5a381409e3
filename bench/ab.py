#!/usr/bin/env python3
"""In-process A/B of two source trees on the benchmark's workloads.

Both trees' ffast2d packages are loaded into this one process, so the
page-fault and heap-layout shifts that move a whole process's timing fall
on both alike; perfbench's per-process medians cannot resolve a change
below about 5%. Each tree decodes the same seeded instances, built by its
own package through perfbench/workloads.py (imported, never edited), and
the rounds alternate which tree goes first:

  python3 bench/ab.py --parent ../parent/src --workload robust-280
  python3 bench/ab.py --parent ../parent/src --change src --workload all \\
      --rounds 30 --seed 3
  python3 bench/ab.py --parent ../parent/src --workload robust-280 --lift-trim

For each workload it prints each tree's median decode time, taken over
the rounds of each round's mean, since one decode's time depends on its
instance and a median over all decodes can fall between the instances'
clusters; the median over rounds of the change/parent ratio of the two
trees' round means; the rounds each tree won (the lower round mean); and
each tree's correct and failed decodes. --lift-trim first allocates and
frees a 2 MB array, which raises glibc's mmap and trim thresholds above
it (as bench/faults.py --lift-trim does), so neither tree's decodes fault
their memory back in and the ratio compares the computation alone.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ["lsparse-280", "vsparse-2520", "robust-280"]


def _ours(name: str) -> bool:
    return name in ("ffast2d", "workloads") or name.startswith("ffast2d.")


@contextmanager
def fresh_tree(src: Path, *extra: Path):
    """Within the block, imports load src's ffast2d package afresh (and
    the modules on the extra paths); yields a dict that, once the block
    ends, holds the modules it loaded, by name."""
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]
    paths = [str(src)] + [str(path) for path in extra]
    sys.path[:0] = paths
    modules = {}
    try:
        import ffast2d
        if Path(ffast2d.__file__).resolve().parent != src / "ffast2d":
            sys.exit("ab: imported ffast2d from %s, not %s"
                     % (ffast2d.__file__, src))
        yield modules
    finally:
        del sys.path[:len(paths)]
    modules.update((n, m) for n, m in sys.modules.items() if _ours(n))


class Tree:
    """One source tree's workload, set up from the seed, and the modules
    it was loaded with.

    The modules are put back into sys.modules before each of the tree's
    turns, as the package imports some modules inside functions, which
    would otherwise resolve to the tree loaded last.
    """

    def __init__(self, label: str, src: Path, workload: str, seed: int):
        with fresh_tree(src, PERFBENCH) as self.modules:
            import workloads
            self.wl = workloads.make_workloads(src)[workload]
            # the set-up's work directory is used only by the CLI probe
            self.state = self.wl.setup(seed, None)
            self.wl.op(self.state, 0)             # warm-up, not counted
        self.label = label
        self.means: list[float] = []
        self.correct = self.failed = self.won = 0

    def round(self) -> None:
        """Decodes every instance once; records their mean decode time."""
        sys.modules.update(self.modules)
        gc.collect()
        seconds = []
        for j in range(len(self.state.cases)):
            outcome = self.wl.op(self.state, j)
            self.correct += outcome.correct
            self.failed += outcome.failed
            if not outcome.failed:
                seconds.append(outcome.seconds)
        self.means.append(statistics.fmean(seconds) if seconds
                          else float("nan"))


def ab(parent: Path, change: Path, workload: str, rounds: int,
       seed: int) -> None:
    trees = [Tree("parent", parent, workload, seed),
             Tree("change", change, workload, seed)]
    for r in range(rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            tree.round()
        min(trees, key=lambda tree: tree.means[-1]).won += 1
    print("%s: %d rounds of %d decodes, seed %d"
          % (workload, rounds, len(trees[0].state.cases), seed))
    for tree in trees:
        print("  %-6s median %.3f ms, won %d rounds, %d correct, %d failed"
              % (tree.label, statistics.median(tree.means) * 1e3, tree.won,
                 tree.correct, tree.failed))
    ratios = [c / p for p, c in zip(trees[0].means, trees[1].means)]
    print("  change/parent ratio %.4f (median over rounds)"
          % statistics.median(ratios))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="the parent's source tree (its src directory)")
    parser.add_argument("--change", type=Path, default=ROOT / "src",
                        help="the change's source tree (default: ./src)")
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        required=True)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench's set-up seed")
    parser.add_argument("--lift-trim", action="store_true",
                        help="free a 2 MB array first, so glibc keeps the "
                             "decodes' memory")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.lift_trim:
        import numpy as np
        np.ones(1 << 21, dtype=np.uint8)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        ab(args.parent.resolve(), args.change.resolve(), name, args.rounds,
           args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Page faults, transient memory and time per decode, in a fresh process.

Builds one benchmark workload's seeded instances through
perfbench/workloads.py (imported, never edited) from the given source
tree, decodes each once as a warm-up, then decodes them all --rounds
times and prints three numbers:

  - minor page faults per decode (getrusage over the timed decodes): a
    decode whose temporaries glibc hands back to the system and maps
    again pays them on every call;
  - the transient peak per decode, from tracemalloc in a second,
    untimed pass: the most memory a decode held above what it started
    with (median and largest over the decodes);
  - the median decode time of the timed pass.

  python3 bench/faults.py --workload robust-280
  python3 bench/faults.py --src ../parent/src --workload robust-280
  python3 bench/faults.py --workload robust-280 --lift-trim

--lift-trim first allocates and frees a 2 MB array. glibc then raises its
mmap and trim thresholds above it, so no decode's temporaries go back to
the system: the faults vanish from both trees and what is left to
compare is the computation. Each run is one process; run it several
times to see how far its numbers spread.
"""

from __future__ import annotations

import argparse
import gc
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["lsparse-280", "vsparse-2520", "robust-280"]


def measure(src: Path, workload: str, rounds: int, seed: int,
            lift_trim: bool) -> dict:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import numpy as np
    import workloads

    if lift_trim:
        np.ones(1 << 21, dtype=np.uint8)
    wl = workloads.make_workloads(src)[workload]
    state = wl.setup(seed, None)
    cases = range(len(state.cases))
    for j in cases:
        wl.op(state, j)
    gc.collect()

    # made before the loop, so that no list grows on the heap between
    # decodes
    seconds = [0.0] * (rounds * len(cases))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for r in range(rounds):
        for j in cases:
            seconds[r * len(cases) + j] = wl.op(state, j).seconds
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    peaks = []
    tracemalloc.start()
    for j in cases:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wl.op(state, j)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
    tracemalloc.stop()
    return {"decodes": len(seconds), "faults": faults / len(seconds),
            "peak_mb": statistics.median(peaks) / 2 ** 20,
            "peak_max_mb": max(peaks) / 2 ** 20,
            "decode_ms": statistics.median(seconds) * 1e3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import ffast2d from "
                             "(default: ./src)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--rounds", type=int, default=10,
                        help="timed passes over the instances")
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench's set-up seed")
    parser.add_argument("--lift-trim", action="store_true",
                        help="free a 2 MB array first, so glibc keeps the "
                             "decodes' memory")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    got = measure(args.src.resolve(), args.workload, args.rounds, args.seed,
                  args.lift_trim)
    print("%s (%s%s): %d decodes, seed %d"
          % (args.workload, args.src, ", trim lifted" if args.lift_trim
             else "", got["decodes"], args.seed))
    print("  minor faults per decode %.1f" % got["faults"])
    print("  transient peak per decode %.2f MB (largest %.2f MB)"
          % (got["peak_mb"], got["peak_max_mb"]))
    print("  median decode %.3f ms" % got["decode_ms"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

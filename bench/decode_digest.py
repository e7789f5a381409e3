#!/usr/bin/env python3
"""Writes a JSON digest of a fixed set of seeded decodes.

Two trees that decode alike write the same file, so "no decode changed"
is a diff of two digests:

  python3 bench/decode_digest.py --out new.json
  python3 bench/decode_digest.py --src ../parent/src --out old.json
  diff old.json new.json

The set covers the benchmark's three workload families (lsparse-280,
vsparse-2520, robust-280), the plans of acceptance criterion 6 at their
k, the plans of criteria 2, 3 and 4 across their k, and repeat-60: a
60x60 robust family read at five times the plan's noise, whose decodes
end `not-a-singleton-loop` and where seed 311 peels one location four
times, so the set reaches the summation of repeated peels. Each decode
is one line: its family, k and instance seed, then status, rounds,
first-pass bin statistics, charged and distinct samples, the number of
entries, the number of peels beyond one per peeled location (from the
trace), sha256s of the sorted support and of the values in support order
(their reprs, so a one-bit change shows), and a sha256 of the front
end's observation stacks (frontend.run_frontend on a fresh source from
the same seeds: each stack's shape and bytes, stages and planes in
order).

It also digests lone-vector classifications: criterion 8's
chains-vs-reliability setup (64x64, design seed 2, noise variance 0.5),
50 seeded vectors for each of reps 1, 3, 5 and 9, through
robust.robust_classify. Each is one line with its reps and trial, then the
result's kind, location and value repr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _families():
    """(family, plan, k list, seeds, source maker, min_magnitude) rows."""
    from ffast2d.cli import BENCH_FAMILIES
    from ffast2d.core import Constellation, Dims, RobustParams, build_plan
    from ffast2d.oracle import NoisySource, VALUE_UNIT_CIRCLE, gen_instance

    def planted(value_model=VALUE_UNIT_CIRCLE, sigma2=0.0):
        def make(plan, k, seed):
            source = gen_instance(plan.dims, k, value_model, seed).source
            if sigma2 > 0:
                source = NoisySource(source, sigma2, seed + 1)
            return source
        return make

    d280, d2520 = Dims(280, 280), Dims(2520, 2520)
    rho = 10 ** 1.3 / Constellation(1.0, 2, 8).mean_power()
    robust = build_plan(d280, [25, 64, 49], "less-sparse", "robust",
                        RobustParams(chains_per_dim=1, reps=5, noise_var=1.0,
                                     seed=8))
    rows = [
        ("lsparse-280", build_plan(d280, [25, 64, 49], "less-sparse"),
         [3821], range(12), planted(), 0.0),
        ("vsparse-2520", build_plan(d2520, [81, 25, 49, 64], "very-sparse"),
         [100], range(24), planted(), 0.0),
        ("robust-280", robust, [50], range(900, 912),
         planted(Constellation(rho, 2, 8), 1.0), math.sqrt(rho) / 4),
    ]
    for (nx, ny, k), factors in sorted(BENCH_FAMILIES.items()):
        rows.append(("criterion-6 %dx%d" % (nx, ny),
                     build_plan(Dims(nx, ny), factors, "very-sparse"), [k],
                     range(600, 605), planted(), 0.0))
    for n, factors in ((30, [4, 9, 25]), (60, [16, 9, 25])):
        rows.append(("criterion-2 %dx%d" % (n, n),
                     build_plan(Dims(n, n), factors, "less-sparse"),
                     range(1, 26), range(20000, 20001), planted(), 0.0))
    rows.append(("criterion-3", build_plan(d280, [25, 64, 49], "less-sparse"),
                 [6623, 5677, 4968, 4416, 3974, 3821, 3613, 3312, 3057, 2839],
                 range(300, 301), planted(), 0.0))
    rows.append(("criterion-4",
                 build_plan(d2520, [81, 25, 49, 64], "very-sparse"),
                 range(70, 180, 10), range(400, 402), planted(), 0.0))
    rows.append(("repeat-60",
                 build_plan(Dims(60, 60), [16, 9, 25], "less-sparse",
                            "robust", RobustParams(1, 3, 0.01, 3)),
                 [12], range(300, 320), planted(sigma2=0.05), 0.0))
    return rows


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stacks_sha(stacks) -> str:
    import numpy as np

    h = hashlib.sha256()
    for stack in stacks:
        h.update(repr(stack.shape).encode())
        h.update(np.ascontiguousarray(stack).tobytes())
    return h.hexdigest()


def digest() -> list[dict]:
    from ffast2d.frontend import run_frontend
    from ffast2d.peeler import decode

    records = []
    for family, plan, ks, seeds, make, min_magnitude in _families():
        for k in ks:
            for seed in seeds:
                peeled = []
                report = decode(make(plan, k, seed), plan,
                                min_magnitude=min_magnitude,
                                trace=lambda e: peeled.append(e["location"]))
                entries = sorted(report.spectrum.items())
                records.append({
                    "family": family, "k": k, "seed": seed,
                    "status": report.status,
                    "rounds": report.peel_iterations,
                    "bin_stats": report.bin_stats,
                    "samples": report.samples_touched,
                    "distinct": report.distinct_cells,
                    "entries": len(entries),
                    "repeats": len(peeled) - len(set(peeled)),
                    "support": _sha(repr([loc for loc, _ in entries])),
                    "values": _sha(repr([val for _, val in entries])),
                    "stacks": _stacks_sha(run_frontend(plan,
                                                       make(plan, k, seed))),
                })
    return records


def classifications() -> list[dict]:
    import numpy as np
    from ffast2d.core import Dims, RobustParams
    from ffast2d.frontend import BinObservation
    from ffast2d.robust import design_shifts, robust_classify

    dims = Dims(64, 64)
    records = []
    for reps in (1, 3, 5, 9):
        params = RobustParams(chains_per_dim=1, reps=reps, noise_var=0.5)
        shifts = design_shifts(dims, params, seed=2)
        sarr = np.asarray(shifts, dtype=float)
        rng = np.random.default_rng(100 + reps)
        for trial in range(50):
            u, v = int(rng.integers(64)), int(rng.integers(64))
            w = np.exp(2j * np.pi * (u * sarr[:, 0] / 64
                                     + v * sarr[:, 1] / 64))
            noise = (rng.normal(size=len(shifts))
                     + 1j * rng.normal(size=len(shifts))) * 0.5
            cls = robust_classify(BinObservation(0, (0, 0), w + noise, shifts),
                                  dims, params, noise_var=0.5)
            records.append({
                "family": "classify-64", "reps": reps, "trial": trial,
                "kind": cls.kind, "location": cls.location,
                "value": repr(cls.value),
            })
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="source tree to import ffast2d from")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    records = digest()
    classified = classifications()
    lines = ",\n".join(json.dumps(r, sort_keys=True)
                       for r in records + classified)
    args.out.write_text("[\n%s\n]\n" % lines)
    print("%d decodes, %d classifications -> %s"
          % (len(records), len(classified), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

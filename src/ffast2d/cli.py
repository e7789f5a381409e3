"""Command-line harness and on-disk formats.

Commands:
  gen     write a planted sparse instance (truth CSV, optional dense signal)
  decode  run the sparse transform on a file or synthetic instance
  sweep   success-rate vs sparsity Monte Carlo, CSV output
  bench   decode wall-time vs grid size / sparsity, CSV output

Formats:
  truth spectrum  UTF-8 CSV "u,v,re,im", header line, sorted by (u, v)
  dense signal    16-byte header (magic "FF2D", u32 nx, u32 ny, u32 zero)
                  then row-major interleaved little-endian f64 re/im pairs
  decode report   JSON document; wall-time fields vary run to run, all
                  other fields are reproducible byte for byte

Exit codes: 0 success, 1 usage or I/O error, 2 decode left residual.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
import time

import numpy as np

from .core import (Constellation, Dims, FfastError, MODE_NOISELESS,
                   MODE_ROBUST, REGIME_LESS_SPARSE, REGIME_VERY_SPARSE,
                   RobustParams, STATUS_SUCCESS, SparseSpectrum, build_plan,
                   plan_eta, plan_from_json, plan_sample_budget, plan_to_json)
from .oracle import (VALUE_COMPLEX_GAUSSIAN, VALUE_UNIT_CIRCLE, ArraySource,
                     ExponentialSumSource, NoisySource, gen_instance,
                     mean_power, synthesize_dense)
from .peeler import decode

SIGNAL_MAGIC = b"FF2D"
DENSE_LIMIT = 10 ** 6

# Known-good very-sparse factor lists for the runtime benchmark, keyed by
# (nx, ny, k). Columns stay at 315; rows grow 315 -> 5985 at constant k,
# and k grows at fixed 315x315.
BENCH_FAMILIES = {
    (315, 315, 100): [81, 25, 49],
    (630, 315, 100): [81, 25, 98],
    (1260, 315, 100): [81, 100, 49],
    (5985, 315, 100): [81, 25, 49, 19],
    (315, 315, 200): [1225, 81],
    (315, 315, 300): [2025, 49],
}


class TooLargeToMaterialize(FfastError, ValueError):
    """Dense output refused: the grid exceeds the materialization limit."""


def write_spectrum_csv(path: str, spectrum: SparseSpectrum) -> None:
    lines = ["u,v,re,im"]
    for (u, v), val in spectrum.items():
        lines.append("%d,%d,%r,%r" % (u, v, val.real, val.imag))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _add_row(entries: dict, row: str, where: str) -> None:
    """Adds one 'u,v,re,im' row to entries; a location may appear once."""
    parts = row.split(",")
    if len(parts) != 4:
        raise FfastError("%s: expected 4 fields u,v,re,im" % where)
    loc = (int(parts[0]), int(parts[1]))
    if loc in entries:
        raise FfastError("%s: location (%d, %d) appears twice"
                         % ((where,) + loc))
    entries[loc] = complex(float(parts[2]), float(parts[3]))


def read_spectrum_csv(path: str, dims: Dims) -> SparseSpectrum:
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "u,v,re,im":
            raise FfastError("%s: expected header 'u,v,re,im', got %r"
                             % (path, header))
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                _add_row(entries, line.strip(), "%s:%d" % (path, lineno))
    return SparseSpectrum.from_entries(dims, entries)


def write_signal_bin(path: str, signal: np.ndarray) -> None:
    signal = np.ascontiguousarray(signal, dtype="<c16")
    nx, ny = signal.shape
    with open(path, "wb") as fh:
        fh.write(SIGNAL_MAGIC + struct.pack("<III", nx, ny, 0))
        fh.write(signal.tobytes())


def read_signal_bin(path: str) -> np.ndarray:
    """Read-only memory map of a dense signal file, shape (nx, ny).

    The header and the file size are checked up front; no sample is read
    until a source reads it.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != SIGNAL_MAGIC:
            raise FfastError("%s: not a dense signal file" % path)
        nx, ny, _ = struct.unpack("<III", header[4:])
        payload = os.fstat(fh.fileno()).st_size - 16
        if nx * ny == 0 or payload != 16 * nx * ny:
            raise FfastError("%s: header says %d x %d samples, but %d bytes "
                             "of samples follow" % (path, nx, ny, payload))
        return np.memmap(fh, dtype="<c16", mode="r", offset=16,
                         shape=(nx, ny))


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_entries(text: str, dims: Dims) -> SparseSpectrum:
    entries = {}
    for group in text.split(";"):
        if group.strip():
            _add_row(entries, group.strip(), "--entries")
    return SparseSpectrum.from_entries(dims, entries)


def _value_model(args):
    if args.value_model == "constellation":
        return Constellation(args.rho, args.m1, args.m2)
    return args.value_model


def report_doc(report, plan, wall_ms: float) -> dict:
    k = len(report.spectrum)
    return {
        "nx": plan.dims.nx,
        "ny": plan.dims.ny,
        "mode": plan.mode,
        "status": report.status,
        "samples_touched": report.samples_touched,
        "distinct_cells": report.distinct_cells,
        "sample_budget": plan_sample_budget(plan),
        "peel_iterations": report.peel_iterations,
        "oversampling_ratio": report.samples_touched / k if k else None,
        "bin_stats": report.bin_stats,
        "wall_time_ms": round(wall_ms, 3),
        "entries": [[u, v, val.real, val.imag]
                    for (u, v), val in report.spectrum.items()],
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    dims = Dims(args.nx, args.ny)
    if args.entries:
        truth = _parse_entries(args.entries, dims)
    else:
        truth = gen_instance(dims, args.k, _value_model(args), args.seed).truth
    write_spectrum_csv(args.out_truth, truth)
    if args.out_signal:
        if dims.n > DENSE_LIMIT:
            raise TooLargeToMaterialize(
                "dense output needs %d samples, limit is %d"
                % (dims.n, DENSE_LIMIT))
        write_signal_bin(args.out_signal, synthesize_dense(truth))
    return 0


def _decode_source(args, plan):
    dims = plan.dims
    if args.signal:
        return ArraySource(read_signal_bin(args.signal)), None
    if args.truth:
        truth = read_spectrum_csv(args.truth, dims)
        return ExponentialSumSource(truth), truth
    if args.k is None:
        raise FfastError("decode needs --signal, --truth, or --k")
    truth = gen_instance(dims, args.k, _value_model(args), args.seed).truth
    return ExponentialSumSource(truth), truth


def _decode_sigma2(args, truth) -> float:
    """--sigma2, or the variance --snr-db sets against the truth's mean
    power. --snr-db is the CLI's own, so its rule is here: it must be
    finite. A variance that underflows is 0, no noise; one that
    overflows is inf, which NoisySource refuses."""
    if args.sigma2 is not None or args.snr_db is None:
        return args.sigma2 or 0.0
    if not math.isfinite(args.snr_db):
        raise FfastError("--snr-db must be a finite number, got %r"
                         % args.snr_db)
    if not truth:
        raise FfastError("--snr-db needs a truth spectrum to scale against")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return float(mean_power(truth) / np.float64(10) ** (args.snr_db / 10))


def cmd_decode(args) -> int:
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = plan_from_json(fh.read())
    source, truth = _decode_source(args, plan)
    sigma2 = _decode_sigma2(args, truth)
    if sigma2 != 0:
        source = NoisySource(source, sigma2, args.noise_seed)
    start = time.perf_counter()
    report = decode(source, plan, min_magnitude=args.min_magnitude)
    wall_ms = (time.perf_counter() - start) * 1e3
    doc = report_doc(report, plan, wall_ms)
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if report.status == STATUS_SUCCESS else 2


def _spectra_match(got: SparseSpectrum, want: SparseSpectrum,
                   tol: float = 1e-6) -> bool:
    keys = set(got.entries) | set(want.entries)
    return all(abs(got.get(*k) - want.get(*k)) <= tol for k in keys)


def _trial_stats(plan, k: int, value_model, trials: int, seed: int, judge,
                 sigma2: float = 0.0, min_magnitude: float = 0.0) -> dict:
    """Successes and mean cost of seeded decodes, timing only the decode.

    Trial t draws its instance with seed + t and, when sigma2 is not 0,
    its noise with seed + t + 1 (NoisySource refuses a negative or NaN
    sigma2); judge(report, truth) scores it.
    """
    if trials < 1:
        raise FfastError("trials must be at least 1, got %d" % trials)
    successes = 0
    samples = 0
    elapsed = 0.0
    for t in range(trials):
        inst = gen_instance(plan.dims, k, value_model, seed + t)
        source = inst.source
        if sigma2 != 0:
            source = NoisySource(source, sigma2, seed + t + 1)
        start = time.perf_counter()
        report = decode(source, plan, min_magnitude=min_magnitude)
        elapsed += time.perf_counter() - start
        samples += report.samples_touched
        successes += int(judge(report, inst.truth))
    return {"trials": trials, "successes": successes,
            "mean_samples": samples / trials,
            "mean_time_ms": elapsed / trials * 1e3}


def sweep_rows(dims: Dims, factors, regime: str, k_list, trials: int,
               seed: int, mode: str = MODE_NOISELESS, sigma2: float = 0.0,
               value_model=VALUE_UNIT_CIRCLE, robust_params=None,
               min_magnitude: float = 0.0):
    """One row per k: success rate and mean cost over seeded trials.

    A robust trial succeeds on the right support, a noiseless one on
    success with the right values.
    """
    if mode == MODE_ROBUST:
        robust_params = robust_params or RobustParams(noise_var=sigma2)

        def judge(report, truth):
            return set(report.spectrum.entries) == set(truth.entries)
    else:
        def judge(report, truth):
            return (report.status == STATUS_SUCCESS
                    and _spectra_match(report.spectrum, truth))
    plan = build_plan(dims, factors, regime, mode, robust_params)
    rows = []
    for k in k_list:
        # trial seeds run on across rows
        stats = _trial_stats(plan, k, value_model, trials,
                             seed + len(rows) * trials, judge, sigma2,
                             min_magnitude)
        rows.append({"k": k, "eta": plan_eta(plan, k), **stats,
                     "success_rate": stats["successes"] / trials})
    return rows


def _rows_to_csv(rows, columns) -> str:
    fmt = {"eta": "%.6f", "success_rate": "%.6f", "mean_samples": "%.1f",
           "mean_time_ms": "%.3f"}
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt.get(c, "%s") % (row[c],) for c in columns))
    return "\n".join(lines) + "\n"


def _robust_params(args, seed: int = 0) -> RobustParams | None:
    """The robust design flags as RobustParams, which checks them; None
    in noiseless mode with every flag at its default. build_plan refuses
    parameters on a noiseless plan, so a robust-only flag there is an
    error."""
    params = RobustParams(chains_per_dim=args.chains, reps=args.reps,
                          noise_var=args.sigma2 or 0.0, seed=seed)
    if args.mode != MODE_ROBUST and params == RobustParams():
        return None
    return params


def cmd_plan(args) -> int:
    plan = build_plan(Dims(args.nx, args.ny), _parse_int_list(args.factors),
                      args.regime, args.mode,
                      _robust_params(args, args.design_seed))
    _emit(plan_to_json(plan, indent=2), args.out)
    return 0


def cmd_sweep(args) -> int:
    rows = sweep_rows(Dims(args.nx, args.ny), _parse_int_list(args.factors),
                      args.regime, _parse_int_list(args.k_list), args.trials,
                      args.seed, mode=args.mode, sigma2=args.sigma2 or 0.0,
                      value_model=_value_model(args),
                      robust_params=_robust_params(args),
                      min_magnitude=args.min_magnitude)
    _emit(_rows_to_csv(rows, ["k", "eta", "trials", "successes",
                              "success_rate", "mean_samples", "mean_time_ms"]),
          args.out)
    return 0


def bench_rows(nx_list, ny: int, k_list, trials: int, seed: int):
    """Mean decode time per (k, nx) over the curated plan family."""
    rows = []
    for k in k_list:
        for nx in nx_list:
            key = (nx, ny, k)
            if key not in BENCH_FAMILIES:
                raise FfastError("no benchmark plan for nx=%d, ny=%d, k=%d"
                                 % key)
            plan = build_plan(Dims(nx, ny), BENCH_FAMILIES[key],
                              REGIME_VERY_SPARSE)
            stats = _trial_stats(
                plan, k, VALUE_UNIT_CIRCLE, trials, seed + len(rows) * trials,
                lambda report, _: report.status == STATUS_SUCCESS)
            rows.append({"k": k, "nx": nx, "ny": ny, **stats})
    return rows


def cmd_bench(args) -> int:
    rows = bench_rows(_parse_int_list(args.nx_list), args.ny,
                      _parse_int_list(args.k_list), args.trials, args.seed)
    _emit(_rows_to_csv(rows, ["k", "nx", "ny", "trials", "successes",
                              "mean_samples", "mean_time_ms"]), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; exit 2 is reserved for decode residue
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_value_model_flags(p) -> None:
    p.add_argument("--value-model", default=VALUE_UNIT_CIRCLE,
                   choices=[VALUE_UNIT_CIRCLE, VALUE_COMPLEX_GAUSSIAN,
                            "constellation"])
    p.add_argument("--rho", type=float, default=1.0,
                   help="constellation power parameter")
    p.add_argument("--m1", type=int, default=2,
                   help="constellation magnitude levels")
    p.add_argument("--m2", type=int, default=8,
                   help="constellation phase levels")


def _add_plan_flags(p) -> None:
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--factors", required=True, help="comma-separated")
    p.add_argument("--regime", default=REGIME_LESS_SPARSE,
                   choices=[REGIME_LESS_SPARSE, REGIME_VERY_SPARSE])
    p.add_argument("--mode", default=MODE_NOISELESS,
                   choices=[MODE_NOISELESS, MODE_ROBUST])
    p.add_argument("--sigma2", type=float, help="per-sample noise variance")
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--reps", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffast2d",
                     description="Sparse 2D DFT via subsampling and peeling")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("plan",
                       help="build a subsampling plan and write it as JSON")
    _add_plan_flags(p)
    p.add_argument("--design-seed", type=int, default=0,
                   help="robust mode: shift design seed")
    p.add_argument("--out", help="plan JSON path (default stdout)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("gen",
                       help="write a planted sparse instance")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--entries", help="explicit 'u,v,re,im;...' coefficients")
    p.add_argument("--seed", type=int, default=0)
    _add_value_model_flags(p)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-signal")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decode",
                       help="decode a file or synthetic instance")
    p.add_argument("--plan", required=True, help="plan JSON path")
    p.add_argument("--signal", help="dense signal file")
    p.add_argument("--truth", help="sparse truth CSV, sampled lazily")
    p.add_argument("--k", type=int, help="synthesize a k-sparse instance")
    p.add_argument("--seed", type=int, default=0)
    _add_value_model_flags(p)
    p.add_argument("--sigma2", type=float, help="per-sample noise variance")
    p.add_argument("--snr-db", type=float,
                   help="noise level from mean coefficient power")
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--min-magnitude", type=float, default=0.0,
                   help="drop recovered values at or below this")
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep",
                       help="success rate vs sparsity")
    _add_plan_flags(p)
    p.add_argument("--k-list", required=True, help="comma-separated")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-magnitude", type=float, default=0.0)
    _add_value_model_flags(p)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench",
                       help="decode wall time vs grid size")
    p.add_argument("--nx-list", required=True, help="comma-separated")
    p.add_argument("--ny", type=int, default=315)
    p.add_argument("--k-list", default="100", help="comma-separated")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FfastError, OSError, ValueError) as exc:
        print("ffast2d: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

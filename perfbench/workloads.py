"""The benchmark's seeded workloads: set-up, one timed operation, its check.

An operation is one decode of one seeded instance. Every workload is a
closed loop: one caller in one process, each operation starting after the
previous one returned. The instance set is a pure function of the
benchmark's seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ffast2d.cli import write_spectrum_csv
from ffast2d.core import (Constellation, Dims, MODE_ROBUST, RobustParams,
                          STATUS_SUCCESS, SparseSpectrum, build_plan,
                          plan_to_json)
from ffast2d.oracle import NoisySource, VALUE_UNIT_CIRCLE, gen_instance
from ffast2d.peeler import decode
from ffast2d.robust import robust_decode

COEFF_TOL = 1e-6          # noiseless: every coefficient within this of truth
ROBUST_NMSE_MAX = 0.03    # robust: criterion 8's error gate
CLI_TIMEOUT_S = 60
# What the installed `ffast2d` console script runs (entry point ffast2d.cli:main).
CLI_SHIM = "import sys; from ffast2d.cli import main; sys.exit(main())"
WRITER = Path(__file__).resolve().parent / "write_signal.py"


@dataclass
class Outcome:
    """One operation as the benchmark saw it."""

    seconds: float
    correct: bool          # output passes the workload's truth check
    false_success: bool    # reported success with a wrong spectrum
    failed: bool           # the decode raised
    samples: int = 0


class Robust(NamedTuple):
    """Robust-mode settings of a workload."""

    params: RobustParams
    sigma2: float
    min_magnitude: float


@dataclass
class Case:
    """One seeded instance: its truth, lazy source and noise seed."""

    truth: dict
    source: object
    noise_seed: int


@dataclass
class State:
    plan: object
    cases: list


def spectra_match(got: dict, want: dict, tol: float = COEFF_TOL) -> bool:
    keys = got.keys() | want.keys()
    return all(abs(got.get(k, 0j) - want.get(k, 0j)) <= tol for k in keys)


def robust_match(got: dict, want: dict) -> bool:
    """Criterion 8: exact support and NMSE <= 0.03."""
    if set(got) != set(want):
        return False
    err = sum(abs(got[loc] - val) ** 2 for loc, val in want.items())
    return err / sum(abs(val) ** 2 for val in want.values()) <= ROBUST_NMSE_MAX


def child_env(src: Path) -> dict:
    """Environment for a child interpreter that imports ffast2d from src only."""
    return dict(os.environ, PYTHONPATH=str(src))


class InProcess:
    """Decodes of lazily sampled planted instances, in this process."""

    def __init__(self, name, src: Path, dims, factors, regime, k, instances,
                 value_model=VALUE_UNIT_CIRCLE, robust=None):
        self.name = name
        self.src = src
        self.dims = Dims(*dims)
        self.factors = factors
        self.regime = regime
        self.k = k
        self.instances = instances
        self.value_model = value_model
        self.robust = robust          # a Robust, or None for noiseless

    def build_plan(self):
        if self.robust is None:
            return build_plan(self.dims, self.factors, self.regime)
        return build_plan(self.dims, self.factors, self.regime, MODE_ROBUST,
                          self.robust.params)

    def setup(self, seed: int, work: Path) -> State:
        plan = self.build_plan()
        rng = np.random.default_rng(seed)
        seeds = rng.integers(2 ** 31, size=(self.instances, 2))
        cases = []
        for inst_seed, noise_seed in seeds:
            inst = gen_instance(self.dims, self.k, self.value_model,
                                int(inst_seed))
            cases.append(Case(dict(inst.truth.entries), inst.source,
                              int(noise_seed)))
        return State(plan, cases)

    def source(self, state: State, j: int):
        case = state.cases[j % len(state.cases)]
        if self.robust is None:
            return case.source
        return NoisySource(case.source, self.robust.sigma2, case.noise_seed)

    def truth(self, state: State, j: int) -> dict:
        return state.cases[j % len(state.cases)].truth

    def decode(self, source, plan, trace=None):
        if self.robust is None:
            return decode(source, plan, trace=trace)
        return robust_decode(source, plan,
                             min_magnitude=self.robust.min_magnitude,
                             trace=trace)

    def judge(self, got: dict, want: dict, claimed: bool) -> tuple[bool, bool]:
        """(correct, false_success) for one output."""
        if self.robust is None:
            match = spectra_match(got, want)
            return claimed and match, claimed and not match
        match = robust_match(got, want)
        return match, claimed and not match

    def op(self, state: State, j: int) -> Outcome:
        source = self.source(state, j)
        start = time.perf_counter()
        try:
            report = self.decode(source, state.plan)
        except Exception:
            traceback.print_exc()
            return Outcome(time.perf_counter() - start, False, False, True)
        seconds = time.perf_counter() - start
        correct, false = self.judge(report.spectrum.entries,
                                    self.truth(state, j),
                                    report.status == STATUS_SUCCESS)
        return Outcome(seconds, correct, false, False, report.samples_touched)

    def cli_inputs(self, state: State, work: Path):
        """Plan file, dense signal file and extra decode flags for instance 0."""
        plan_path = work / ("%s.plan.json" % self.name)
        plan_path.write_text(plan_to_json(state.plan))
        truth_path = work / ("%s.truth.csv" % self.name)
        write_spectrum_csv(str(truth_path), SparseSpectrum.from_entries(
            self.dims, state.cases[0].truth))
        signal_path = work / ("%s.signal.bin" % self.name)
        subprocess.run([sys.executable, str(WRITER), str(truth_path),
                        str(self.dims.nx), str(self.dims.ny), str(signal_path)],
                       check=True, env=child_env(self.src),
                       timeout=CLI_TIMEOUT_S)
        extra = []
        if self.robust is not None:
            extra = ["--sigma2", repr(self.robust.sigma2),
                     "--noise-seed", str(state.cases[0].noise_seed),
                     "--min-magnitude", repr(self.robust.min_magnitude)]
        return plan_path, signal_path, extra


@dataclass
class CliRun:
    seconds: float
    returncode: int
    doc: dict | None       # parsed JSON report; None unless exit code 0 or 2
    entries: dict
    peak_rss_mb: float


def run_cli(src: Path, plan_path: Path, signal_path: Path, extra) -> CliRun:
    """Runs one decode process and waits for it.

    The wall time covers the whole process. Output goes to files next to
    the plan, so no pipe can fill; wait4 gives this child's own peak RSS.
    """
    cmd = [sys.executable, "-c", CLI_SHIM, "decode", "--plan", str(plan_path),
           "--signal", str(signal_path)] + list(extra)
    out_path = plan_path.with_suffix(".out")
    err_path = plan_path.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(src))
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CLI_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024.0
    if proc.returncode not in (0, 2):
        sys.stderr.write(err_path.read_text())
        return CliRun(seconds, proc.returncode, None, {}, peak)
    doc = json.loads(out_path.read_text())
    entries = {(int(u), int(v)): complex(re, im)
               for u, v, re, im in doc["entries"]}
    return CliRun(seconds, proc.returncode, doc, entries, peak)


def make_workloads(src: Path) -> dict:
    """The three workloads, keyed by name."""
    rho = 10 ** 1.3 / Constellation(1.0, 2, 8).mean_power()    # 13 dB, ~17.1
    robust = Robust(RobustParams(chains_per_dim=1, reps=5, noise_var=1.0,
                                 seed=8), 1.0, math.sqrt(rho) / 4)
    wls = [
        # peeling is ~98% of the decode (3.8k peels): per-peel and worklist
        # changes must move it
        InProcess("lsparse-280", src, dims=(280, 280), factors=[25, 64, 49],
                  regime="less-sparse", k=3821, instances=32),
        # the paper's headline, 657 reads of 6.35M cells: per-peel work is
        # about 64% of the decode and fixed per-decode costs about 37%
        InProcess("vsparse-2520", src, dims=(2520, 2520),
                  factors=[81, 25, 49, 64], regime="very-sparse", k=100,
                  instances=32),
        # criterion 8 at 13 dB, 181 chains: sampling and small FFTs are half
        # of the decode
        InProcess("robust-280", src, dims=(280, 280), factors=[25, 64, 49],
                  regime="less-sparse", k=50, instances=16,
                  value_model=Constellation(rho, 2, 8), robust=robust),
    ]
    return {wl.name: wl for wl in wls}

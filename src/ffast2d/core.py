"""Core types and measurement-plan construction.

A plan describes d >= 2 subsampling stages over an nx-by-ny grid. Stage i
keeps every (sub_x, sub_y)-th sample, so its small spectrum has
bins_x * bins_y aliased bins. Bin counts follow a co-prime factor list
f_0..f_{d-1} with prod(f_i) == nx*ny:

  less-sparse regime: stage i has B_i = n / f_i bins (all factors but f_i),
  very-sparse regime: stage i has B_i = f_i bins.

Each stage also carries a list of circular shifts (delay chains); chain c
observes every spectral coefficient (u, v) aliased into its bin with phase
weight exp(2j*pi*(u*s1/nx + v*s2/ny)).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

MODE_NOISELESS = "noiseless"
MODE_ROBUST = "robust"
REGIME_LESS_SPARSE = "less-sparse"
REGIME_VERY_SPARSE = "very-sparse"


class FfastError(Exception):
    """Base class for all library errors."""


class PlanError(FfastError, ValueError):
    """A measurement plan could not be built or validated; the message
    names the rule it breaks."""


@dataclass(frozen=True)
class Dims:
    """Grid extents. n is the total number of samples."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise PlanError("dims must be positive, got (%r, %r)" % (self.nx, self.ny))

    @property
    def n(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class Constellation:
    """Value model with quantized magnitudes and phases.

    Magnitudes are sqrt(rho)/2 + j*sqrt(rho)/m1 for j = 0..m1, phases are
    2*pi*j/m2 for j = 0..m2-1. rho is the target per-coefficient power
    relative to unit per-sample noise variance.
    """

    rho: float
    m1: int
    m2: int

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("m1 and m2 must be positive integers")

    def magnitudes(self) -> list[float]:
        r = math.sqrt(self.rho)
        return [r / 2 + j * r / self.m1 for j in range(self.m1 + 1)]

    def mean_power(self) -> float:
        # average |value|^2 over the magnitude levels (phases are unit modulus)
        return self.rho * sum((0.5 + j / self.m1) ** 2 for j in range(self.m1 + 1)) / (self.m1 + 1)


# Relative slacks of the robust classifier's zero-ton energy test and
# singleton residual test (robust._energy_test and robust._fit). Plan
# documents written before they were fixed carry them as "gamma_zero" and
# "gamma_single"; plan_from_json reads those keys only at these values.
GAMMA_ZERO = 0.5
GAMMA_SINGLE = 0.5


@dataclass(frozen=True)
class RobustParams:
    """Delay-chain design and noise level for decoding in noise.

    chains_per_dim and reps multiply the number of random-offset shift pairs
    per bit level; noise_var is the per-sample complex noise variance; seed
    fixes the shift design. The slacks of the classifier's tests are fixed:
    GAMMA_ZERO and GAMMA_SINGLE.
    """

    chains_per_dim: int = 1
    reps: int = 1
    noise_var: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.chains_per_dim < 1:
            raise ValueError("chains_per_dim must be >= 1")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0 <= self.noise_var < math.inf:
            raise ValueError("noise_var must be finite and >= 0")

    @property
    def pairs_per_level(self) -> int:
        """Shift pairs per dimension and bit level."""
        return self.chains_per_dim * self.reps


def bit_levels(n: int) -> int:
    """Number of shift-pair bit levels needed to resolve an index in [0, n)."""
    return 0 if n <= 1 else (n - 1).bit_length()


def _robust_span(dims: Dims, params: RobustParams, axis: int):
    """Chains [a, b) of the robust layout's pairs along axis (0 is x): the
    anchor is chain 0, then the x pairs, then the y pairs. Pair q of an
    axis, at bit level q // pairs_per_level, is chains a + 2q and a + 2q + 1,
    so ys[a:b:2] and ys[a + 1:b:2] hold the pairs' first and second chains."""
    x, y = (2 * bit_levels(n) * params.pairs_per_level
            for n in (dims.nx, dims.ny))
    return (1, 1 + x) if axis == 0 else (1 + x, 1 + x + y)


def robust_pairs(dims: Dims, params: RobustParams):
    """(axis, n, 2^j) of the robust layout's pairs in chain order
    (_robust_span): pair p is chains 2p + 1 and 2p + 2."""
    return [(axis, n, 1 << (q // params.pairs_per_level))
            for axis, n in enumerate((dims.nx, dims.ny))
            for a, b in [_robust_span(dims, params, axis)]
            for q in range((b - a) // 2)]


def _on_axis(axis: int, a: int, b: int):
    return ((a, 0), (b, 0)) if axis == 0 else ((0, a), (0, b))


def noiseless_shifts(dims: Dims) -> tuple[tuple[int, int], ...]:
    """Anchor plus one unit shift per nontrivial dimension."""
    shifts = [(0, 0)]
    if dims.nx > 1:
        shifts.append((1, 0))
    if dims.ny > 1:
        shifts.append((0, 1))
    return tuple(shifts)


def design_shifts(dims: Dims, params: RobustParams, seed: int):
    """Anchor plus per-dimension dyadic offset pairs; deterministic in seed.

    Pair (axis, n, step) of robust_pairs is (r, r + step mod n) along its
    axis, with a fresh random offset r. Offsets are rejection-sampled for
    distinctness against all shifts so far; tiny grids that cannot avoid
    repeats fall back to duplicates.
    """
    rng = np.random.default_rng(seed)
    shifts = [(0, 0)]
    used = {(0, 0)}
    for axis, n, step in robust_pairs(dims, params):
        pair = None
        for _ in range(64):
            r = int(rng.integers(n))
            cand = _on_axis(axis, r, (r + step) % n)
            if cand[0] not in used and cand[1] not in used:
                pair = cand
                break
            pair = pair or cand
        used.update(pair)
        shifts.extend(pair)
    return tuple(shifts)


@lru_cache(maxsize=64)
def check_robust_layout(dims: Dims, shifts, params: RobustParams) -> None:
    """Refuses shifts other than the design_shifts layout: the anchor
    (0, 0), then each pair of robust_pairs as (r, r + 2^j mod n) along its
    axis, with 0 on the other. Cached, as robust.robust_classify checks
    every vector it is given, and a caller hands it many of one layout.
    """
    pairs = robust_pairs(dims, params)
    if len(shifts) != 1 + 2 * len(pairs):
        raise PlanError("robust stage has %d shifts, expected %d"
                        % (len(shifts), 1 + 2 * len(pairs)))
    want = [(0, 0)]
    for p, (axis, n, step) in enumerate(pairs):
        r = shifts[2 * p + 1][axis] % n
        want += _on_axis(axis, r, (r + step) % n)
    for c, (got, need) in enumerate(zip(shifts, want)):
        if tuple(got) != need:
            raise PlanError("robust shift %d is %r; the dyadic pair layout "
                            "needs %r" % (c, got, need))


@dataclass(frozen=True)
class StageConfig:
    """One subsampling stage: periods, bin grid and delay-chain shifts."""

    sub_x: int
    sub_y: int
    bins_x: int
    bins_y: int
    shifts: tuple[tuple[int, int], ...]

    @classmethod
    def from_subsampling(cls, dims: Dims, sub_x: int, sub_y: int,
                         shifts) -> "StageConfig":
        if sub_x < 1 or sub_y < 1 or dims.nx % sub_x or dims.ny % sub_y:
            raise PlanError(
                "subsampling (%d, %d) does not divide dims (%d, %d)"
                % (sub_x, sub_y, dims.nx, dims.ny))
        return cls(sub_x, sub_y, dims.nx // sub_x, dims.ny // sub_y,
                   tuple((int(s1), int(s2)) for s1, s2 in shifts))

    @property
    def bin_count(self) -> int:
        return self.bins_x * self.bins_y


@dataclass(frozen=True)
class FfastPlan:
    """Measurement plan: dims, stages and decode mode.

    A plan is valid by construction: __post_init__ runs validate, so
    FfastPlan(...) and dataclasses.replace refuse a broken plan with a
    PlanError, and a plan that exists need not be checked again.
    """

    dims: Dims
    stages: tuple[StageConfig, ...]
    mode: str = MODE_NOISELESS
    robust_params: RobustParams | None = None

    def __post_init__(self):
        self.validate()

    @property
    def bin_counts(self) -> list[int]:
        return [s.bin_count for s in self.stages]

    def validate(self) -> None:
        if len(self.stages) < 2:
            raise PlanError("a plan needs at least 2 stages, got %d" % len(self.stages))
        if self.mode not in (MODE_NOISELESS, MODE_ROBUST):
            raise PlanError("unknown mode %r" % (self.mode,))
        if (self.mode == MODE_ROBUST) != (self.robust_params is not None):
            raise PlanError("robust parameters go with a robust plan and "
                            "only with one; mode is %r" % (self.mode,))
        dims = self.dims
        for s in self.stages:
            if s.sub_x * s.bins_x != dims.nx or s.sub_y * s.bins_y != dims.ny:
                raise PlanError(
                    "stage periods (%d, %d) do not tile dims (%d, %d)"
                    % (s.sub_x, s.sub_y, dims.nx, dims.ny))
            # so that the noiseless chains sit on distinct lattices
            if (dims.nx > 1 and s.sub_x == 1) or (dims.ny > 1 and s.sub_y == 1):
                raise PlanError(
                    "stage periods (%d, %d) leave a dimension of (%d, %d) "
                    "unsubsampled" % (s.sub_x, s.sub_y, dims.nx, dims.ny))
            self._check_shifts(s)
        self._check_factor_structure()

    def _check_shifts(self, s: StageConfig) -> None:
        if self.mode == MODE_ROBUST:
            check_robust_layout(self.dims, s.shifts, self.robust_params)
        elif s.shifts != noiseless_shifts(self.dims):
            raise PlanError("noiseless stages use the shift list %r, got %r"
                            % (noiseless_shifts(self.dims), s.shifts))

    def _check_factor_structure(self) -> None:
        """Bin counts must realize a co-prime factor list in either regime."""
        n = self.dims.n
        candidates = []
        very = self.bin_counts
        if all(b >= 2 for b in very):
            candidates.append(very)
        if all(b >= 1 and n % b == 0 and n // b >= 2 for b in very):
            candidates.append([n // b for b in very])
        for factors in candidates:
            try:
                _check_factors(factors, n)
                return
            except PlanError:
                pass
        raise PlanError(
            "stage bin counts %r do not realize a co-prime factor split of %d"
            % (self.bin_counts, n))


def _check_factors(factors: list[int], n: int) -> None:
    """Factors must be >= 2, pairwise co-prime and multiply to n."""
    if min(factors) < 2:
        raise PlanError("factors must all be >= 2, got %r" % (factors,))
    for a, b in combinations(factors, 2):
        if math.gcd(a, b) != 1:
            raise PlanError("factors %d and %d share a divisor" % (a, b))
    if math.prod(factors) != n:
        raise PlanError("factor product %d != nx*ny = %d"
                        % (math.prod(factors), n))


@dataclass
class SparseSpectrum:
    """Sparse set of DFT coefficients; entries with value exactly 0 are dropped."""

    dims: Dims
    entries: dict[tuple[int, int], complex] = field(default_factory=dict)

    @classmethod
    def from_entries(cls, dims: Dims, items) -> "SparseSpectrum":
        out: dict[tuple[int, int], complex] = {}
        for (u, v), val in dict(items).items():
            u, v = int(u), int(v)
            if not (0 <= u < dims.nx and 0 <= v < dims.ny):
                raise ValueError("location (%d, %d) outside dims (%d, %d)"
                                 % (u, v, dims.nx, dims.ny))
            val = complex(val)
            if not cmath.isfinite(val):
                raise ValueError("non-finite value %r at (%d, %d)"
                                 % (val, u, v))
            if val != 0:
                out[(u, v)] = val
        return cls(dims, out)

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, u: int, v: int) -> complex:
        return self.entries.get((u, v), 0j)

    def items(self):
        return sorted(self.entries.items())


STATUS_SUCCESS = "success"
STATUS_RESIDUAL_LEFT = "residual-left"
STATUS_NOT_A_SINGLETON_LOOP = "not-a-singleton-loop"


@dataclass
class DecodeReport:
    """Decode outcome: recovered spectrum plus accounting.

    samples_touched counts every sample charged to the source, repeats
    included; distinct_cells counts the grid cells those reads cover.
    """

    spectrum: SparseSpectrum
    samples_touched: int
    distinct_cells: int
    peel_iterations: int
    status: str
    bin_stats: list[dict[str, int]]


def build_plan(dims: Dims, factors, regime: str = REGIME_LESS_SPARSE,
               mode: str = MODE_NOISELESS,
               robust_params: RobustParams | None = None) -> FfastPlan:
    """Build a validated plan from a pairwise co-prime factor list.

    Stage i is derived from factors[i]: in the less-sparse regime it
    subsamples by factors[i] (bin count n / factors[i]); in the very-sparse
    regime its bin count is factors[i]. A stage must actually subsample
    every dimension of size > 1, otherwise the split is rejected.
    """
    factors = [int(f) for f in factors]
    if len(factors) < 2:
        raise PlanError("need at least 2 factors, got %r" % (factors,))
    _check_factors(factors, dims.n)
    if regime not in (REGIME_LESS_SPARSE, REGIME_VERY_SPARSE):
        raise PlanError("unknown regime %r" % (regime,))
    if mode == MODE_ROBUST and robust_params is None:
        robust_params = RobustParams()

    stages = []
    for i, f in enumerate(factors):
        bin_count = dims.n // f if regime == REGIME_LESS_SPARSE else f
        split = _split_bins(dims, bin_count)
        if split is None:
            raise PlanError(
                "factor %d: no bin grid of size %d divides dims (%d, %d) "
                "while subsampling every nontrivial dimension"
                % (f, bin_count, dims.nx, dims.ny))
        bins_x, bins_y = split
        if mode == MODE_ROBUST:
            shifts = design_shifts(dims, robust_params, robust_params.seed + i)
        else:
            shifts = noiseless_shifts(dims)
        stages.append(StageConfig.from_subsampling(
            dims, dims.nx // bins_x, dims.ny // bins_y, shifts))

    return FfastPlan(dims, tuple(stages), mode, robust_params)


def _split_bins(dims: Dims, bin_count: int) -> tuple[int, int] | None:
    """First valid (bins_x, bins_y) with bins_x ascending.

    A valid split has bins_x * bins_y == bin_count with bins_x | nx and
    bins_y | ny, and leaves no dimension of size > 1 fully sampled
    (bins == dim means the stage does not subsample it at all).
    """
    for bins_x in range(1, bin_count + 1):
        if bin_count % bins_x or dims.nx % bins_x:
            continue
        bins_y = bin_count // bins_x
        if dims.ny % bins_y:
            continue
        if dims.nx > 1 and bins_x == dims.nx:
            continue
        if dims.ny > 1 and bins_y == dims.ny:
            continue
        return bins_x, bins_y
    return None


def plan_sample_budget(plan: FfastPlan) -> int:
    """Total accessor calls the front end makes: sum over stages and chains."""
    return sum(len(s.shifts) * s.bin_count for s in plan.stages)


def plan_eta(plan: FfastPlan, k: int) -> float:
    """Average bins per stage divided by the sparsity k."""
    if k <= 0:
        raise ValueError("k must be positive")
    return sum(plan.bin_counts) / len(plan.stages) / k


def plan_to_json(plan: FfastPlan, indent: int | None = None) -> str:
    doc = {
        "nx": plan.dims.nx,
        "ny": plan.dims.ny,
        "mode": plan.mode,
        "stages": [
            {"sub_x": s.sub_x, "sub_y": s.sub_y,
             "shifts": [[s1, s2] for s1, s2 in s.shifts]}
            for s in plan.stages
        ],
    }
    if plan.robust_params is not None:
        rp = plan.robust_params
        doc["robust"] = {
            "chains_per_dim": rp.chains_per_dim,
            "reps": rp.reps,
            "noise_var": rp.noise_var,
            "seed": rp.seed,
        }
    return json.dumps(doc, indent=indent, sort_keys=True)


def _plan_number(value, integral: bool = True):
    """A number read from a plan document, checked rather than cast.

    int() would read 2.9 as 2 and True as 1, and fail with OverflowError
    on 1e400 (inf once parsed), so all three are refused.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanError("expected a number, got %r" % (value,))
    if integral:
        if isinstance(value, float) and not value.is_integer():
            raise PlanError("expected an integer, got %r" % (value,))
        return int(value)
    value = float(value)
    if not math.isfinite(value):
        raise PlanError("expected a finite number, got %r" % (value,))
    return value


def plan_from_json(text: str) -> FfastPlan:
    try:
        doc = json.loads(text)
        dims = Dims(_plan_number(doc["nx"]), _plan_number(doc["ny"]))
        mode = doc.get("mode", MODE_NOISELESS)
        params = None
        if "robust" in doc:
            r = doc["robust"]
            params = RobustParams(
                chains_per_dim=_plan_number(r["chains_per_dim"]),
                reps=_plan_number(r["reps"]),
                noise_var=_plan_number(r["noise_var"], integral=False),
                seed=_plan_number(r.get("seed", 0)))
            for key, fixed in (("gamma_zero", GAMMA_ZERO),
                               ("gamma_single", GAMMA_SINGLE)):
                if key in r and _plan_number(r[key], integral=False) != fixed:
                    raise PlanError("robust %s is fixed at %r, got %r"
                                    % (key, fixed, r[key]))
        stages = tuple(
            StageConfig.from_subsampling(
                dims, _plan_number(s["sub_x"]), _plan_number(s["sub_y"]),
                [(_plan_number(a), _plan_number(b)) for a, b in s["shifts"]])
            for s in doc["stages"])
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise PlanError("malformed plan document: %s" % exc) from exc
    return FfastPlan(dims, stages, mode, params)

import numpy as np
import pytest

from ffast2d import peeler
from ffast2d.core import (Dims, FfastError, SparseSpectrum, build_plan,
                          noiseless_shifts, plan_sample_budget,
                          STATUS_RESIDUAL_LEFT, STATUS_SUCCESS)
from ffast2d.frontend import BinObservation, NonFiniteSample, chain_weights
from ffast2d.oracle import (ArraySource, ExponentialSumSource, gen_instance,
                            synthesize_dense)
from ffast2d.peeler import (BinClass, DEFAULT_TOL_ANGLE, DEFAULT_TOL_RESIDUAL,
                            KIND_MULTI_TON, KIND_SINGLETON, KIND_ZERO_TON,
                            WrongShiftLayout, decode, ratio_estimates,
                            ratio_test)

WORKED_6X6 = {(1, 3): 7.0, (2, 0): 3.0, (2, 3): 5.0, (4, 0): 1.0}


def _obs(values, dims, bin=(0, 0), stage=0):
    return BinObservation(stage, bin, np.asarray(values, dtype=complex),
                          noiseless_shifts(dims))


def test_ratio_estimates_worked_singleton():
    dims = Dims(6, 6)
    est = ratio_estimates([5.0, -2.5 + 4.330127018922193j, -5.0], dims)
    assert est == pytest.approx((2.0, 3.0), abs=1e-9)


def test_ratio_estimates_worked_multiton():
    # the collision bin: raw estimates stay far from integers in u
    dims = Dims(6, 6)
    est = ratio_estimates([4.0, -2.0 + 1j * np.sqrt(3.0), 4.0], dims)
    assert est == pytest.approx((2.318443422514485, 0.0), abs=1e-12)


def test_ratio_test_worked_singleton():
    dims = Dims(6, 6)
    got = ratio_test(_obs([5.0, -2.5 + 4.330127018922193j, -5.0], dims,
                          bin=(0, 1)), dims)
    assert got.kind == KIND_SINGLETON
    assert got.location == (2, 3)
    assert got.value == pytest.approx(5.0, abs=1e-9)


def test_ratio_test_worked_multiton():
    dims = Dims(6, 6)
    got = ratio_test(_obs([4.0, -2.0 + 1j * np.sqrt(3.0), 4.0], dims), dims)
    assert got.kind == KIND_MULTI_TON


def test_ratio_test_zero_bin():
    dims = Dims(6, 6)
    got = ratio_test(_obs([0.0, 0.0, 0.0], dims), dims)
    assert got.kind == KIND_ZERO_TON


def test_ratio_test_near_integer_collision_is_multiton():
    # two coefficients whose mixture still lands near an integer in u but
    # fails the per-chain residual check
    dims = Dims(6, 6)
    w1 = chain_weights(dims, _stage(dims), 2, 3)
    w2 = chain_weights(dims, _stage(dims), 2, 0)
    got = ratio_test(_obs(5.0 * w1 + 0.05 * w2, dims, bin=(0, 1)), dims)
    assert got.kind == KIND_MULTI_TON


def _stage(dims):
    # chain weights only depend on dims and shifts, so any legal split works
    from ffast2d.core import StageConfig
    return StageConfig.from_subsampling(dims, 1, 1, noiseless_shifts(dims))


def test_ratio_test_rejects_wrong_layout():
    dims = Dims(6, 6)
    bad = BinObservation(0, (0, 0), np.zeros(3, dtype=complex),
                         ((0, 0), (2, 0), (0, 1)))
    with pytest.raises(WrongShiftLayout):
        ratio_test(bad, dims)
    short = BinObservation(0, (0, 0), np.zeros(2, dtype=complex),
                           ((0, 0), (1, 0), (0, 1)))
    with pytest.raises(WrongShiftLayout):
        ratio_test(short, dims)


@pytest.mark.parametrize("nx,ny", [(12, 18), (36, 35), (5, 31), (1, 31),
                                   (31, 1)])
def test_ratio_test_recovers_every_location(nx, ny):
    dims = Dims(nx, ny)
    shifts = noiseless_shifts(dims)
    stage = _stage(dims)
    rng = np.random.default_rng(nx * ny)
    for u in range(nx):
        for v in range(ny):
            val = complex(rng.normal(), rng.normal()) + 3.0
            values = val * chain_weights(dims, stage, u, v)
            got = ratio_test(BinObservation(0, (0, 0), values, shifts), dims)
            assert got.kind == KIND_SINGLETON
            assert got.location == (u, v)
            assert abs(got.value - val) < 1e-9


@pytest.mark.parametrize("nx,factors,k,seed",
                         [(60, [16, 9, 25], 60, seed) for seed in range(3)]
                         + [(280, [25, 64, 49], 3821, 0)])
def test_peel_reclassifies_only_touched_bins(monkeypatch, nx, factors, k, seed):
    # a worklist peeler classifies every bin once, then re-classifies a bin
    # only after a peel lands in it: at most one column per stage per peel
    columns = []
    scan = peeler._ratio_scan

    def counting_scan(cols, *args):
        columns.append(cols.shape[1])
        return scan(cols, *args)

    monkeypatch.setattr(peeler, "_ratio_scan", counting_scan)
    dims = Dims(nx, nx)
    plan = build_plan(dims, factors, "less-sparse")
    events = []
    decode(gen_instance(dims, k, seed=seed).source, plan, trace=events.append)
    assert events
    bound = sum(plan.bin_counts) + len(plan.stages) * len(events)
    assert sum(columns) <= bound


def _vectorized_ratio_scan(cols, dims, tol_angle, tol_residual, zero_thresh):
    # reference: the same ratio test as whole-array numpy expressions
    anchor = cols[0]
    mag = np.abs(anchor)
    nonzero = np.abs(cols).max(axis=0) > zero_thresh
    n = np.array([d for d in (dims.nx, dims.ny) if d > 1]).reshape(-1, 1)
    ratio = cols[1:] * np.conj(anchor)
    est = np.arctan2(ratio.imag, ratio.real) * n / (2 * np.pi) % n
    snapped = np.rint(est)
    locs = snapped.astype(np.int64) % n
    w = np.exp(2j * np.pi * (locs / n))
    single = (nonzero & (mag > zero_thresh)
              & (np.abs(est - snapped) <= tol_angle).all(axis=0)
              & (np.abs(cols[1:] - anchor * w) <= tol_residual * mag).all(axis=0))
    return nonzero, single, locs[0], locs[-1]


@pytest.mark.parametrize("nx,ny", [(12, 18), (1, 31), (31, 1)])
def test_ratio_scan_matches_vectorized_reference(nx, ny):
    dims = Dims(nx, ny)
    stage = _stage(dims)
    rng = np.random.default_rng(nx + 100 * ny)
    cols = []
    for _ in range(400):
        kind = rng.integers(5)
        u, v = int(rng.integers(nx)), int(rng.integers(ny))
        val = complex(rng.normal(), rng.normal())
        col = val * chain_weights(dims, stage, u, v)
        if kind == 1:      # collision
            col = col + complex(rng.normal(), rng.normal()) * chain_weights(
                dims, stage, int(rng.integers(nx)), int(rng.integers(ny)))
        elif kind == 2:    # empty, or a residue at the zero floor
            col = col * rng.choice([0.0, 1e-10, 1e-9])
        elif kind == 3:    # perturbed around the residual tolerance
            col = col + rng.choice([1e-7, 1e-6, 1e-5]) * rng.normal(size=col.size)
        elif kind == 4:    # anchor drowned, other chains live
            col[0] = 0.0
        cols.append(col)
    cols = np.array(cols).T
    nonzero, single, uu, vv, vals = peeler._ratio_scan(
        cols, dims, DEFAULT_TOL_ANGLE, DEFAULT_TOL_RESIDUAL, 1e-9)
    ref_nonzero, ref_single, ref_u, ref_v = _vectorized_ratio_scan(
        cols, dims, DEFAULT_TOL_ANGLE, DEFAULT_TOL_RESIDUAL, 1e-9)
    assert np.array_equal(nonzero, ref_nonzero)
    assert np.array_equal(single, ref_single)
    assert single.any() and (nonzero & ~single).any() and (~nonzero).any()
    if nx > 1:
        assert np.array_equal(uu[single], ref_u[single])
    if ny > 1:
        assert np.array_equal(vv[single], ref_v[single])
    assert np.array_equal(vals, cols[0])


def _worked_plan_and_source():
    plan = build_plan(Dims(6, 6), [9, 4])
    truth = SparseSpectrum.from_entries(Dims(6, 6), WORKED_6X6)
    return plan, truth, ExponentialSumSource(truth)


def test_peel_worked_example():
    plan, truth, src = _worked_plan_and_source()
    events = []
    report = decode(src, plan, trace=events.append)
    assert report.status == STATUS_SUCCESS
    assert report.spectrum.items() == truth.items()
    assert report.samples_touched == 39
    assert plan_sample_budget(plan) == 39
    assert [e["location"] for e in events] == [(2, 3), (1, 3), (4, 0), (2, 0)]
    assert report.peel_iterations == 2
    assert report.bin_stats == [
        {"zero-ton": 1, "singleton": 2, "multi-ton": 1},
        {"zero-ton": 7, "singleton": 0, "multi-ton": 2},
    ]


def test_peel_trace_rounds_non_decreasing():
    plan, _, src = _worked_plan_and_source()
    events = []
    decode(src, plan, trace=events.append)
    rounds = [e["round"] for e in events]
    assert rounds == sorted(rounds)
    for e in events:
        stage = plan.stages[e["stage"]]
        u, v = e["location"]
        assert (u % stage.bins_x, v % stage.bins_y) == e["bin"]


def test_peel_round_budget_cuts_off():
    # two-hop dependency: stage 0 pairs {A,B} and {C,D}, stage 1 pairs {B,C}
    # with A and D alone, so stage 0 resolves only after round 1 completes
    plan = build_plan(Dims(6, 6), [9, 4])
    truth = SparseSpectrum.from_entries(
        Dims(6, 6), {(0, 0): 2.0, (2, 2): 3.0, (5, 5): 5.0, (1, 1): 7.0})
    full = decode(ExponentialSumSource(truth), plan)
    assert full.status == STATUS_SUCCESS
    got = dict(full.spectrum.items())
    assert set(got) == set(dict(truth.items()))
    assert all(abs(got[loc] - val) < 1e-9 for loc, val in truth.items())
    assert full.peel_iterations == 3

    cut = decode(ExponentialSumSource(truth), plan, max_rounds=1)
    assert cut.status == STATUS_RESIDUAL_LEFT
    assert cut.peel_iterations == 1
    assert set(dict(cut.spectrum.items())) == {(0, 0), (1, 1)}


def test_zero_signal_decodes_to_empty():
    plan = build_plan(Dims(6, 6), [9, 4])
    src = ExponentialSumSource(SparseSpectrum.from_entries(Dims(6, 6), {}))
    report = decode(src, plan)
    assert report.status == STATUS_SUCCESS
    assert len(report.spectrum) == 0
    assert report.peel_iterations == 1


def test_decode_rejects_robust_plan():
    from ffast2d.core import RobustParams
    plan = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse",
                      mode="robust",
                      robust_params=RobustParams(noise_var=1.0))
    inst = gen_instance(Dims(60, 60), 3, seed=0)
    with pytest.raises(FfastError):
        decode(inst.source, plan)


def test_oversampling_ratio_is_samples_per_recovered():
    plan, _, src = _worked_plan_and_source()
    report = decode(src, plan)
    assert report.oversampling_ratio == pytest.approx(39 / 4)
    empty = decode(ExponentialSumSource(
        SparseSpectrum.from_entries(Dims(6, 6), {})), plan)
    assert empty.oversampling_ratio is None


@pytest.mark.parametrize("k", [1, 5, 12, 20])
def test_monte_carlo_exact_recovery_30x30(k):
    # less-sparse plan with ~120 bins per stage on average; k far below
    # the transition, so exact recovery should be the norm
    plan = build_plan(Dims(30, 30), [4, 9, 25])
    ok = 0
    trials = 50
    for t in range(trials):
        inst = gen_instance(Dims(30, 30), k, seed=1000 * k + t)
        report = decode(inst.source, plan)
        if report.status == STATUS_SUCCESS:
            got = dict(report.spectrum.items())
            want = dict(inst.truth.items())
            assert set(got) == set(want)
            assert all(abs(got[loc] - want[loc]) <= 1e-6 for loc in want)
            ok += 1
    assert ok >= int(0.99 * trials)


def test_success_implies_consistency_via_trace():
    plan = build_plan(Dims(30, 30), [4, 9, 25])
    inst = gen_instance(Dims(30, 30), 15, seed=77)
    events = []
    report = decode(inst.source, plan, trace=events.append)
    assert report.status == STATUS_SUCCESS
    total = {}
    for e in events:
        total[e["location"]] = total.get(e["location"], 0j) + e["value"]
    got = dict(report.spectrum.items())
    for loc, val in got.items():
        assert abs(total[loc] - val) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_decode_rejects_non_finite_sample(bad):
    # one bad cell on the anchor lattice used to peel into made-up
    # coefficients instead of failing
    plan = build_plan(Dims(30, 30), [4, 9, 25])
    x = synthesize_dense(gen_instance(Dims(30, 30), 10, seed=3).truth)
    x[0, 0] = bad
    with pytest.raises(NonFiniteSample):
        decode(ArraySource(x), plan)


@pytest.mark.parametrize("seed", range(4))
def test_decode_is_scale_equivariant(seed):
    dims = Dims(30, 30)
    plan = build_plan(dims, [4, 9, 25])
    truth = gen_instance(dims, 10, seed=40 + seed).truth
    base = decode(ExponentialSumSource(truth), plan)
    assert base.status == STATUS_SUCCESS
    want = dict(base.spectrum.items())
    for c in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        scaled = SparseSpectrum.from_entries(
            dims, {loc: c * val for loc, val in truth.items()})
        report = decode(ExponentialSumSource(scaled), plan)
        got = dict(report.spectrum.items())
        assert report.status == base.status, c
        assert set(got) == set(want), c
        assert all(abs(got[loc] - c * want[loc]) <= 1e-9 * c for loc in want), c

import cmath
import math
import warnings

import numpy as np
import pytest

from ffast2d import peeler
from ffast2d.core import (Dims, RobustParams, SparseSpectrum, build_plan,
                          noiseless_shifts, plan_sample_budget, STATUS_SUCCESS)
from ffast2d.frontend import BinObservation, NonFiniteSample
from ffast2d.oracle import (ArraySource, ExponentialSumSource, NoisySource,
                            gen_instance, synthesize_dense)
from ffast2d.peeler import (BinClass, DEFAULT_TOL_ANGLE, DEFAULT_TOL_RESIDUAL,
                            KIND_MULTI_TON, KIND_SINGLETON, KIND_ZERO_TON,
                            decode, observation_zero_threshold,
                            ratio_estimates)
from ffast2d.roots import unit_root_list, unit_roots

WORKED_6X6 = {(1, 3): 7.0, (2, 0): 3.0, (2, 3): 5.0, (4, 0): 1.0}


def _weights(shifts, dims, u, v):
    s = np.asarray(shifts, dtype=float)
    return np.exp(2j * np.pi * (u * s[:, 0] / dims.nx + v * s[:, 1] / dims.ny))


def _obs(values, dims, bin=(0, 0), stage=0):
    return BinObservation(stage, bin, np.asarray(values, dtype=complex),
                          noiseless_shifts(dims))


def _ratio_test(obs, dims):
    # the decode's scalar ratio test on one column; any nonzero chain is live
    cols = np.asarray(obs.values, dtype=np.complex128)[:, None]
    return BinClass.from_scan(peeler._ratio_scan(cols, dims, 0.0))


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
    got = _ratio_test(_obs([5.0, -2.5 + 4.330127018922193j, -5.0], dims,
                           bin=(0, 1)), dims)
    assert got.kind == KIND_SINGLETON
    assert got.location == (2, 3)
    assert got.value == pytest.approx(5.0, abs=1e-9)


def test_ratio_test_worked_multiton():
    dims = Dims(6, 6)
    got = _ratio_test(_obs([4.0, -2.0 + 1j * np.sqrt(3.0), 4.0], dims), dims)
    assert got.kind == KIND_MULTI_TON


def test_ratio_test_zero_bin():
    dims = Dims(6, 6)
    got = _ratio_test(_obs([0.0, 0.0, 0.0], dims), dims)
    assert got.kind == KIND_ZERO_TON


def test_ratio_test_near_integer_collision_is_multiton():
    # two coefficients whose mixture still lands near an integer in u but
    # fails the per-chain residual check
    dims = Dims(6, 6)
    w1 = _weights(noiseless_shifts(dims), dims, 2, 3)
    w2 = _weights(noiseless_shifts(dims), dims, 2, 0)
    got = _ratio_test(_obs(5.0 * w1 + 0.05 * w2, dims, bin=(0, 1)), dims)
    assert got.kind == KIND_MULTI_TON


@pytest.mark.parametrize("nx,ny", [(12, 18), (36, 35), (5, 31), (1, 31),
                                   (31, 1)])
def test_ratio_test_recovers_every_location(nx, ny):
    dims = Dims(nx, ny)
    shifts = noiseless_shifts(dims)
    rng = np.random.default_rng(nx * ny)
    for u in range(nx):
        for v in range(ny):
            val = complex(rng.normal(), rng.normal()) + 3.0
            values = val * _weights(shifts, dims, u, v)
            got = _ratio_test(BinObservation(0, (0, 0), values, shifts), dims)
            assert got.kind == KIND_SINGLETON
            assert got.location == (u, v)
            assert abs(got.value - val) < 1e-9


def _recording_peel(monkeypatch, batches):
    # wraps peel_stacks so that every batch of columns its classifier is
    # handed lands in batches, as (idx, cols)
    peel = peeler.peel_stacks

    def recording_peel(stacks, plan, classify, *args, **kwargs):
        def recording_classify(si, idx, cols):
            batches.append((idx, cols.copy()))
            return classify(si, idx, cols)
        return peel(stacks, plan, recording_classify, *args, **kwargs)

    monkeypatch.setattr(peeler, "peel_stacks", recording_peel)


@pytest.mark.parametrize("nx,factors,k,seed",
                         [(60, [16, 9, 25], 60, seed) for seed in range(3)]
                         + [(280, [25, 64, 49], 3821, 0)])
def test_peel_reclassifies_only_touched_bins(monkeypatch, nx, factors, k, seed):
    # a worklist peeler classifies every bin once, then re-classifies a bin
    # only after a peel lands in it: at most one column per stage per peel.
    # Columns are counted at the classifier peel_stacks is handed, which
    # both the scalar and the whole-array ratio test sit behind. Noiseless
    # stages share one plane layout, so the first pass is one call over
    # the bins of every stage.
    batches = []
    _recording_peel(monkeypatch, batches)
    dims = Dims(nx, nx)
    plan = build_plan(dims, factors, "less-sparse")
    events = []
    decode(gen_instance(dims, k, seed=seed).source, plan, trace=events.append)
    assert events
    columns = [cols.shape[1] for _, cols in batches]
    assert isinstance(batches[0][0], slice)
    assert columns[0] == sum(plan.bin_counts)
    assert not any(isinstance(idx, slice) for idx, _ in batches[1:])
    # then one call per stage step, over the bins it touched in all stages
    steps = {(e["round"], e["stage"]) for e in events}
    assert len(batches) == 1 + len(steps)
    bound = sum(plan.bin_counts) + len(plan.stages) * len(events)
    assert sum(columns) <= bound
    if nx == 280:
        assert max(columns[1:]) >= peeler.WHOLE_ARRAY_BATCH


@pytest.mark.parametrize("dims,factors,regime,k,seed",
                         [((280, 280), [25, 64, 49], "less-sparse", 3821, 0),
                          ((2520, 2520), [81, 25, 49, 64], "very-sparse",
                           100, 1)]
                         + [((60, 60), [16, 9, 25], "less-sparse", 60, seed)
                            for seed in range(3)])
def test_whole_array_ratio_test_decides_as_scalar(monkeypatch, dims, factors,
                                                  regime, k, seed):
    # every column a decode hands its classifier, first pass and mid-peel
    # batches alike, gets the same class and location from both tests
    batches = []
    _recording_peel(monkeypatch, batches)
    dims = Dims(*dims)
    plan = build_plan(dims, factors, regime)
    decode(gen_instance(dims, k, seed=seed).source, plan)
    assert len(batches) > 1
    cols = np.concatenate([cols for _, cols in batches], axis=1)
    thresh = observation_zero_threshold([cols[:, :sum(plan.bin_counts)]])
    scalar = peeler._ratio_scan(cols, dims, thresh)
    whole = peeler._ratio_scan_whole(cols, dims, thresh)
    assert scalar[1].any() and (scalar[0] & ~scalar[1]).any()
    for a, b in zip(scalar, whole):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("nx,factors,k,seed",
                         [(60, [16, 9, 25], 60, seed) for seed in range(3)]
                         + [(280, [25, 64, 49], 3821, 0)])
def test_whole_array_batches_decode_as_scalar(monkeypatch, nx, factors, k,
                                              seed):
    dims = Dims(nx, nx)
    plan = build_plan(dims, factors, "less-sparse")
    source = gen_instance(dims, k, seed=seed).source
    shipped = decode(source, plan)
    monkeypatch.setattr(peeler, "WHOLE_ARRAY_BATCH", sum(plan.bin_counts) + 1)
    scalar = decode(source, plan)
    got, want = shipped.spectrum.items(), scalar.spectrum.items()
    assert list(got) == list(want)
    assert shipped.status == scalar.status
    assert shipped.bin_stats == scalar.bin_stats
    assert shipped.peel_iterations == scalar.peel_iterations
    assert shipped.samples_touched == scalar.samples_touched


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
    shifts = noiseless_shifts(dims)
    rng = np.random.default_rng(nx + 100 * ny)
    cols = []
    for _ in range(400):
        kind = rng.integers(5)
        u, v = int(rng.integers(nx)), int(rng.integers(ny))
        val = complex(rng.normal(), rng.normal())
        col = val * _weights(shifts, dims, u, v)
        if kind == 1:      # collision
            col = col + complex(rng.normal(), rng.normal()) * _weights(
                shifts, dims, int(rng.integers(nx)), int(rng.integers(ny)))
        elif kind == 2:    # empty, or a residue at the zero floor
            col = col * rng.choice([0.0, 1e-10, 1e-9])
        elif kind == 3:    # perturbed around the residual tolerance
            col = col + rng.choice([1e-7, 1e-6, 1e-5]) * rng.normal(size=col.size)
        elif kind == 4:    # anchor drowned, other chains live
            col[0] = 0.0
        cols.append(col)
    cols = np.array(cols).T
    ref_nonzero, ref_single, ref_u, ref_v = _vectorized_ratio_scan(
        cols, dims, DEFAULT_TOL_ANGLE, DEFAULT_TOL_RESIDUAL, 1e-9)
    scans = [scan(cols, dims, 1e-9)
             for scan in (peeler._ratio_scan, peeler._ratio_scan_whole)]
    for nonzero, single, uu, vv, vals in scans:
        assert np.array_equal(nonzero, ref_nonzero)
        assert np.array_equal(single, ref_single)
        assert single.any() and (nonzero & ~single).any() and (~nonzero).any()
        if nx > 1:
            assert np.array_equal(uu[single], ref_u[single])
        if ny > 1:
            assert np.array_equal(vv[single], ref_v[single])
        assert not uu[~single].any() and not vv[~single].any()
        assert np.array_equal(vals, cols[0])
    for scalar, batch in zip(*scans):
        assert scalar.dtype == batch.dtype
        assert np.array_equal(scalar, batch)


@pytest.mark.parametrize("n", [280, 315, 2520])
def test_whole_array_ratio_test_wraps_as_scalar(n):
    # estimates just below n round up to n and wrap to 0, and negative
    # angles fold up by n: both tests give the same arrays, bit for bit
    dims = Dims(n, n)
    shifts = noiseless_shifts(dims)
    rng = np.random.default_rng(n)
    cols = []
    for _ in range(500):
        u, v = rng.choice([0, n - 1, int(rng.integers(n))], size=2)
        col = complex(*rng.normal(size=2)) * _weights(shifts, dims, u, v)
        # phase noise about the residual tolerance, either way
        cols.append(col * np.exp(1j * rng.normal(0, 1e-6, 3)))
    cols = np.array(cols).T
    scalar = peeler._ratio_scan(cols, dims, 1e-9)
    whole = peeler._ratio_scan_whole(cols, dims, 1e-9)
    assert scalar[1].any() and (~scalar[1]).any()
    assert (scalar[2][scalar[1]] == 0).any() or (
        scalar[3][scalar[1]] == 0).any()
    for a, b in zip(scalar, whole):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _first_pass_as_loop(monkeypatch, cols, dims, zero_thresh):
    # the screened first pass must return the scalar loop's five arrays
    # bit for bit; returns the columns it handed the loop
    loop = peeler._ratio_scan
    handed = []

    def recording(cols, *args):
        handed.append(cols.copy())
        return loop(cols, *args)

    monkeypatch.setattr(peeler, "_ratio_scan", recording)
    got = peeler._first_pass(cols, dims, zero_thresh)
    want = loop(cols, dims, zero_thresh)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    (cols,) = handed
    return want, cols


def _gap_at_screen_edge():
    # an anchor a whose chain a + t lies exactly t = 2 tol a above it in
    # floating point, so that the screen's gap equals its bound
    t = 13_510_000_000 * 2.0 ** -52
    a = t / (2 * DEFAULT_TOL_RESIDUAL)
    assert 2 * DEFAULT_TOL_RESIDUAL * a == t and (a + t) - a == t
    return a, a + t


def test_first_pass_screen_edges(monkeypatch):
    dims = Dims(12, 18)
    zt = 1e-9
    a, r = _gap_at_screen_edge()
    above_floor = math.nextafter(zt, 1)
    cols = np.array([
        [a, math.nextafter(r, 0), a],     # gap one ulp below the bound
        [a, r, a],                        # gap at the bound
        [a, a, math.nextafter(r, 3)],     # one ulp above it: settled
        [zt, 1.0, 1.0],                   # anchor at the zero floor
        [above_floor, 1.0, 1.0],          # just above it: settled
        [0.0, 0.0, 0.0],                  # empty
        [1e-3, 1e6j, -1e6],               # |y_c| >> |y_0|: settled
        [1.0, 1e-4, 1.0],                 # |y_c| << |y_0|: settled
        0.7 * _weights(noiseless_shifts(dims), dims, 5, 11),
    ], dtype=complex).T
    want, handed = _first_pass_as_loop(monkeypatch, cols, dims, zt)
    # the singleton is settled too: the loop gets the zero-tons and the
    # candidates that fail the half-tolerance test
    assert handed.tobytes() == cols[:, [0, 1, 3, 5]].tobytes()
    assert want[0].tolist() == [True] * 5 + [False] + [True] * 3
    assert want[1].tolist() == [False] * 8 + [True]
    assert (want[2][8], want[3][8]) == (5, 11)


@pytest.mark.parametrize("nx,ny", [(1, 31), (31, 1)])
def test_first_pass_screen_on_a_one_row_or_one_column_grid(monkeypatch, nx,
                                                            ny):
    # the anchor stands in for the missing shifted chain; its gap is 0, so
    # only the one shifted chain can settle a column as a multi-ton, and
    # the singleton is settled by the half-tolerance test
    dims = Dims(nx, ny)
    w = _weights(noiseless_shifts(dims), dims, 3 % nx, 7 % ny)
    a, r = _gap_at_screen_edge()
    cols = np.array([0.5 * w,            # singleton
                     w * [1.0, 1.5],     # multi-ton: settled
                     [a, r],             # gap at the bound
                     [a, math.nextafter(r, 3)],   # one ulp above: settled
                     [0.0, 0.0]], dtype=complex).T
    want, handed = _first_pass_as_loop(monkeypatch, cols, dims, 1e-9)
    assert handed.tobytes() == cols[:, [2, 4]].tobytes()
    assert want[1].tolist() == [True] + [False] * 4


def test_first_pass_loop_sees_only_unsettled_columns(monkeypatch):
    # on the pinned lsparse-280 seed-1 decode the screens settle all 3,213
    # first-pass multi-tons and all 1,642 singletons; the loop gets only
    # the 1,106 zero-tons
    counts = []
    loop = peeler._ratio_scan

    def counting(cols, *args):
        counts.append(cols.shape[1])
        return loop(cols, *args)

    monkeypatch.setattr(peeler, "_ratio_scan", counting)
    dims = Dims(280, 280)
    plan = build_plan(dims, [25, 64, 49], "less-sparse")
    report = decode(gen_instance(dims, 3821, seed=1).source, plan)
    assert report.status == STATUS_SUCCESS
    assert sum(plan.bin_counts) == 5961
    assert counts[0] == 1106 == sum(st[KIND_ZERO_TON]
                                    for st in report.bin_stats)
    assert sum(st[KIND_SINGLETON] for st in report.bin_stats) == 1642


def _settled_by_screen(col, dims, zero_thresh):
    # whether _first_pass settles this candidate column as a singleton: the
    # whole-array test passes it at half of each tolerance and twice the
    # floor
    return bool(peeler._ratio_scan_whole(
        np.asarray(col, dtype=complex)[:, None], dims, 2 * zero_thresh,
        DEFAULT_TOL_ANGLE / 2, DEFAULT_TOL_RESIDUAL / 2)[1][0])


def _straddle(settles, inside, outside):
    # two adjacent positive floats between inside and outside, the first
    # settling and the next not, by bisection over their bit patterns
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (inside, outside))
    assert settles(inside) and not settles(outside)
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        if settles(float(np.int64(mid).view(np.float64))):
            lo = mid
        else:
            hi = mid
    return [float(np.int64(x).view(np.float64)) for x in (lo, hi)]


def _residual_straddle(dims, axis):
    # singletons at (0, 0) with value 1 whose shifted chain on `axis` is
    # 1 + r: their residual r lies one ulp either side of half the
    # residual tolerance
    def col(r):
        c = [1.0] * len(noiseless_shifts(dims))
        c[axis] = r
        return c

    return [col(r) for r in _straddle(
        lambda r: _settled_by_screen(col(r), dims, 1e-9),
        1 + 0.8 * DEFAULT_TOL_RESIDUAL / 2, 1 + 1.2 * DEFAULT_TOL_RESIDUAL / 2)]


def test_first_pass_screen_half_tolerance_margins(monkeypatch):
    # candidates one ulp inside each margin of the half-tolerance test are
    # settled, those one ulp outside go to the loop, and the loop, at full
    # tolerance, calls every one a singleton at the same location
    dims = Dims(12, 18)
    zt = 1e-9
    cols = _residual_straddle(dims, 1) + _residual_straddle(dims, 2)
    # an anchor at twice the floor, and one ulp above it
    cols += [[a] * 3 for a in (2 * zt, math.nextafter(2 * zt, 1))]
    cols = np.array(cols, dtype=complex).T
    want, handed = _first_pass_as_loop(monkeypatch, cols, dims, zt)
    assert handed.tobytes() == cols[:, [1, 3, 4]].tobytes()
    assert want[1].all()
    assert not want[2].any() and not want[3].any()


def test_first_pass_screen_angle_margins(monkeypatch):
    # on a long axis a phase off its location by a quarter of the angle
    # tolerance still passes the half-tolerance residual test, so the angle
    # estimate's margin decides: one ulp inside it on either side settles
    # the column, one ulp outside hands it to the loop
    n, v = 360_000, 1234
    dims = Dims(1, n)

    def phase(off):
        return 2 * math.pi * (v + off) / n

    cols = []
    for side in (1, -1):
        re = math.cos(phase(side * DEFAULT_TOL_ANGLE / 2))
        cols += [[1.0, complex(re, im)] for im in _straddle(
            lambda im: _settled_by_screen([1.0, complex(re, im)], dims, 1e-9),
            math.sin(phase(side * 0.8 * DEFAULT_TOL_ANGLE / 2)),
            math.sin(phase(side * 1.2 * DEFAULT_TOL_ANGLE / 2)))]
    cols = np.array(cols, dtype=complex).T
    want, handed = _first_pass_as_loop(monkeypatch, cols, dims, 1e-9)
    assert handed.tobytes() == cols[:, [1, 3]].tobytes()
    assert want[1].all() and (want[3] == v).all()


@pytest.mark.parametrize("nx,ny", [(1, 31), (31, 1)])
def test_first_pass_screen_margin_on_a_one_row_or_one_column_grid(
        monkeypatch, nx, ny):
    # the one shifted chain's residual decides, one ulp either side of the
    # margin; the anchor standing in for the other chain passes
    dims = Dims(nx, ny)
    cols = np.array(_residual_straddle(dims, 1), dtype=complex).T
    want, handed = _first_pass_as_loop(monkeypatch, cols, dims, 1e-9)
    assert handed.tobytes() == cols[:, [1]].tobytes()
    assert want[1].all()


def test_unit_roots_hold_cmath_exp_values():
    # both ratio tests read their residual roots from these tables, which
    # hold cmath.exp's values bit for bit
    for n in (2, 12, 18, 31, 35, 40, 56, 280, 1225, 2520):
        want = [cmath.exp(2j * math.pi * (loc / n)) for loc in range(n)]
        assert unit_roots(n).tolist() == want
        assert list(unit_root_list(n)) == want


@pytest.mark.parametrize("repeat", [False, True])
def test_sum_peels_matches_a_dict_sum_in_peel_order(repeat):
    # each location's value is the sum of its peels taken in peel order
    # from zero, as a dict accumulation takes it: a -0.0 part becomes +0.0
    dims = Dims(6, 6)
    peels = [(np.array([1, 2]), np.array([3, 4]),
              np.array([0.1 + 0.7j, complex(-0.0, -2.0)])),
             (np.array([5]), np.array([0]), np.array([1e-12 + 0j]))]
    if repeat:
        peels += [(np.array([1, 1]), np.array([3, 3]),
                   np.array([0.2 - 0.3j, 0.3 + 0j]))]
    want = {}
    for pu, pv, pval in peels:
        for key, val in zip(zip(pu.tolist(), pv.tolist()), pval.tolist()):
            want[key] = want.get(key, 0j) + val
    got, events = peeler._sum_peels(peels, dims, 1e-9, 1.0)
    assert events == sum(len(pu) for pu, _, _ in peels)
    assert got == {key: val for key, val in want.items() if abs(val) > 1e-9}
    assert math.copysign(1.0, got[(2, 4)].real) == 1.0
    assert peeler._sum_peels([], dims, 0.0, 1.0) == ({}, 0)


@pytest.mark.parametrize("mode", ["noiseless", "robust"])
def test_peel_refuses_a_singleton_located_in_another_bin(monkeypatch, mode):
    # the classifier moves every singleton's location one row over, so it
    # lies in another bin of its stage (every stage has bins_x > 1); the
    # engine must peel none of them, and the decode must not succeed
    dims = Dims(60, 60)
    params = RobustParams(chains_per_dim=1, reps=3, noise_var=0.01, seed=5)
    plan = build_plan(dims, [16, 9, 25], "very-sparse", mode=mode,
                      robust_params=params if mode == "robust" else None)
    assert all(stage.bins_x > 1 for stage in plan.stages)
    source = gen_instance(dims, 8, seed=2).source
    if mode == "robust":
        source = NoisySource(source, 0.01, seed=52)
    peel = peeler.peel_stacks

    def misplacing_peel(stacks, plan, classify, *args, **kwargs):
        def misplacing_classify(si, idx, cols):
            nonzero, single, uu, vv, vals = classify(si, idx, cols)
            return nonzero, single, (uu + 1) % dims.nx, vv, vals
        return peel(stacks, plan, misplacing_classify, *args, **kwargs)

    monkeypatch.setattr(peeler, "peel_stacks", misplacing_peel)
    events = []
    report = decode(source, plan, trace=events.append)
    assert events == []
    assert len(report.spectrum) == 0
    assert report.status != STATUS_SUCCESS


def _worked_plan_and_source():
    plan = build_plan(Dims(6, 6), [9, 4])
    truth = SparseSpectrum.from_entries(Dims(6, 6), WORKED_6X6)
    return plan, truth, ExponentialSumSource(truth)


def test_peel_worked_example():
    plan, truth, src = _worked_plan_and_source()
    events = []
    report = decode(src, plan, trace=events.append)
    assert report.status == STATUS_SUCCESS
    # the source synthesizes these small reads directly, so the values
    # carry the rounding of a sum of unit roots
    got, want = report.spectrum.items(), truth.items()
    assert [loc for loc, _ in got] == [loc for loc, _ in want]
    assert all(abs(g - w) <= 1e-12 for (_, g), (_, w) in zip(got, want))
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


def test_peel_resolves_a_two_hop_dependency():
    # stage 0 pairs {A,B} and {C,D}, stage 1 pairs {B,C} with A and D
    # alone, so stage 0 resolves only after round 1 completes
    plan = build_plan(Dims(6, 6), [9, 4])
    truth = SparseSpectrum.from_entries(
        Dims(6, 6), {(0, 0): 2.0, (2, 2): 3.0, (5, 5): 5.0, (1, 1): 7.0})
    full = decode(ExponentialSumSource(truth), plan)
    assert full.status == STATUS_SUCCESS
    got = dict(full.spectrum.items())
    assert set(got) == set(dict(truth.items()))
    assert all(abs(got[loc] - val) < 1e-9 for loc, val in truth.items())
    assert full.peel_iterations == 3


def test_zero_signal_decodes_to_empty():
    plan = build_plan(Dims(6, 6), [9, 4])
    src = ExponentialSumSource(SparseSpectrum.from_entries(Dims(6, 6), {}))
    report = decode(src, plan)
    assert report.status == STATUS_SUCCESS
    assert len(report.spectrum) == 0
    assert report.peel_iterations == 1


def test_very_sparse_decode_of_a_billion_cell_grid():
    # the paper's sub-linear regime: a 32736x32736 grid (1.07e9 cells,
    # never materialized) decoded from 9,222 reads, 8.6e-6 of the grid
    dims = Dims(32736, 32736)
    plan = build_plan(dims, [961, 1024, 1089], "very-sparse")
    inst = gen_instance(dims, 1707, seed=0)
    report = decode(inst.source, plan)
    assert report.status == STATUS_SUCCESS
    got, want = dict(report.spectrum.items()), dict(inst.truth.items())
    assert set(got) == set(want) and len(want) == 1707
    assert all(abs(got[loc] - want[loc]) <= 1e-6 for loc in want)
    assert report.samples_touched == 9222
    assert report.distinct_cells == 9216
    assert report.peel_iterations == 4


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_decode_refuses_a_min_magnitude_that_is_not_finite_and_nonnegative(
        bad):
    # a NaN or infinite cut used to drop every entry, ending residual-left
    # with 0 entries; the decode refuses it before reading a sample
    dims = Dims(30, 30)
    source = gen_instance(dims, 10, seed=40).source
    with pytest.raises(ValueError, match="min_magnitude"):
        decode(source, build_plan(dims, [4, 9, 25]), min_magnitude=bad)
    assert source.access_count == 0


def test_decode_refuses_a_spectrum_that_overflows():
    # the samples are finite, but a lattice's FFT overflows past the float
    # maximum; the decode refuses the signal instead of peeling inf and NaN
    dims = Dims(30, 30)
    plan = build_plan(dims, [4, 9, 25])
    truth = gen_instance(dims, 10, seed=40).truth
    scaled = SparseSpectrum.from_entries(
        dims, {loc: 1.7e307 * val for loc, val in truth.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteSample, match="lattice"):
            decode(ExponentialSumSource(scaled), plan)


@pytest.mark.parametrize("seed", range(4))
def test_decode_is_scale_equivariant(monkeypatch, seed):
    # a product of two observations overflows beyond about 1e154 and
    # underflows below 1e-154: the decode peels at unit scale, so c as far
    # out as 1e+-300 still gives c times the spectrum, and the zero floor
    # it peels with is the scaled stacks' own, bit for bit
    floors = []
    peel = peeler.peel_stacks

    def recording_peel(stacks, plan, classify, touched, cut, *args):
        floors.append((cut, observation_zero_threshold(stacks)))
        return peel(stacks, plan, classify, touched, cut, *args)

    monkeypatch.setattr(peeler, "peel_stacks", recording_peel)
    dims = Dims(30, 30)
    plan = build_plan(dims, [4, 9, 25])
    truth = gen_instance(dims, 10, seed=40 + seed).truth
    base = decode(ExponentialSumSource(truth), plan)
    assert base.status == STATUS_SUCCESS
    want = dict(base.spectrum.items())
    for c in (1e-300, 1e-200, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e200, 1e300):
        scaled = SparseSpectrum.from_entries(
            dims, {loc: c * val for loc, val in truth.items()})
        report = decode(ExponentialSumSource(scaled), plan)
        got = dict(report.spectrum.items())
        assert report.status == base.status, c
        assert set(got) == set(want), c
        assert all(abs(got[loc] - c * want[loc]) <= 1e-9 * c for loc in want), c
        cut, floor = floors[-1]
        assert cut == floor > 0, c

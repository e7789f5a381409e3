import dataclasses

import numpy as np
import pytest

from ffast2d.core import (Constellation, Dims, FfastPlan, PlanError,
                          RobustParams, SparseSpectrum, _robust_span,
                          bit_levels, build_plan, robust_pairs, STATUS_SUCCESS)
from ffast2d.frontend import (BinObservation, NonFiniteSample, run_frontend,
                              stage_lattices)
from ffast2d.oracle import (ArraySource, ExponentialSumSource, NoisySource,
                            gen_instance, synthesize_dense)
from ffast2d.peeler import (KIND_MULTI_TON, KIND_SINGLETON, KIND_ZERO_TON,
                            BinClass, _ratio_scan, decode)
from ffast2d import peeler
from ffast2d import robust
from ffast2d.core import GAMMA_SINGLE
from ffast2d.roots import unit_roots
from ffast2d.robust import (VALUE_SIGMAS, _energy_test, _ladder_decode,
                            _turns, design_shifts, robust_classify,
                            robust_decode)


def _weights(shifts, dims, u, v):
    s = np.asarray(shifts, dtype=float)
    return np.exp(2j * np.pi * (u * s[:, 0] / dims.nx + v * s[:, 1] / dims.ny))


def test_design_shifts_count_and_structure():
    dims = Dims(8, 8)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=1.0)
    shifts = design_shifts(dims, params, seed=0)
    assert len(shifts) == 13 == 1 + 2 * len(robust_pairs(dims, params))
    assert shifts[0] == (0, 0)
    assert len(set(shifts)) == 13
    # layout: 3 x-levels then 3 y-levels, each pair stepping by 2^j
    for j in range(3):
        (a1, a2), (b1, b2) = shifts[1 + 2 * j], shifts[2 + 2 * j]
        assert a2 == b2 == 0 and (b1 - a1) % 8 == 1 << j
    for j in range(3):
        (a1, a2), (b1, b2) = shifts[7 + 2 * j], shifts[8 + 2 * j]
        assert a1 == b1 == 0 and (b2 - a2) % 8 == 1 << j


def test_design_shifts_deterministic():
    dims = Dims(60, 60)
    params = RobustParams(chains_per_dim=2, reps=3, noise_var=1.0)
    assert design_shifts(dims, params, 5) == design_shifts(dims, params, 5)
    assert design_shifts(dims, params, 5) != design_shifts(dims, params, 6)


def test_design_shifts_tiny_grid_falls_back_to_duplicates():
    dims = Dims(2, 2)
    params = RobustParams(chains_per_dim=2, reps=4, noise_var=1.0)
    shifts = design_shifts(dims, params, seed=0)
    assert len(shifts) == 1 + 2 * len(robust_pairs(dims, params))
    assert len(set(shifts)) < len(shifts)


def _obs_for(dims, params, entries, sigma2=0.0, seed=0, shift_seed=1):
    shifts = design_shifts(dims, params, seed=shift_seed)
    values = np.zeros(len(shifts), dtype=complex)
    for (u, v), val in entries.items():
        values = values + val * _weights(shifts, dims, u, v)
    if sigma2 > 0:
        rng = np.random.default_rng(seed)
        values = values + (rng.normal(size=len(shifts))
                           + 1j * rng.normal(size=len(shifts))) * np.sqrt(sigma2 / 2)
    return BinObservation(0, (0, 0), values, shifts)


def test_robust_classify_noiseless_cases():
    dims = Dims(16, 16)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=0.0)
    single = robust_classify(_obs_for(dims, params, {(5, 11): 2.0 - 1.0j}),
                             dims, params)
    assert single.kind == KIND_SINGLETON
    assert single.location == (5, 11)
    assert abs(single.value - (2.0 - 1.0j)) < 1e-9

    zero = robust_classify(_obs_for(dims, params, {}), dims, params)
    assert zero.kind == KIND_ZERO_TON

    multi = robust_classify(
        _obs_for(dims, params, {(1, 2): 1.0, (9, 3): 1.5}), dims, params)
    assert multi.kind == KIND_MULTI_TON


def test_robust_classify_matches_ratio_test_when_clean():
    dims = Dims(16, 16)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=0.0)
    rng = np.random.default_rng(3)
    for _ in range(25):
        u, v = int(rng.integers(16)), int(rng.integers(16))
        val = complex(rng.normal(), rng.normal()) + 2.0
        robust = robust_classify(_obs_for(dims, params, {(u, v): val}),
                                 dims, params)
        cols = val * _weights(((0, 0), (1, 0), (0, 1)), dims, u, v)
        plain = BinClass.from_scan(_ratio_scan(cols[:, None], dims, 0.0))
        assert robust.kind == plain.kind == KIND_SINGLETON
        assert robust.location == plain.location == (u, v)
        assert abs(robust.value - plain.value) < 1e-9


def test_robust_classify_rejects_wrong_layout():
    dims = Dims(16, 16)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=0.0)
    noiseless = BinObservation(0, (0, 0), np.ones(3, dtype=complex),
                               ((0, 0), (1, 0), (0, 1)))
    with pytest.raises(PlanError):
        robust_classify(noiseless, dims, params)
    shifts = design_shifts(dims, params, seed=1)
    broken = ((1, 0),) + shifts[1:]
    with pytest.raises(PlanError):
        robust_classify(BinObservation(0, (0, 0),
                                       np.ones(len(shifts), dtype=complex),
                                       broken), dims, params)


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan),
                                 complex(np.inf, 0), complex(-np.inf, 0),
                                 complex(0, np.inf), complex(0, -np.inf)],
                         ids=["nan", "nan-imag", "inf", "-inf", "inf-imag",
                              "-inf-imag"])
def test_robust_classify_refuses_non_finite_values(bad):
    dims = Dims(8, 8)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=0.0)
    shifts = design_shifts(dims, params, seed=1)
    values = np.ones(len(shifts), dtype=complex)
    values[4] = bad
    # RuntimeWarnings are errors under the suite's filterwarnings
    with pytest.raises(NonFiniteSample):
        robust_classify(BinObservation(0, (0, 0), values, shifts), dims,
                        params)


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
def test_robust_classify_refuses_a_bad_noise_var_override(bad):
    # the override goes through RobustParams; a NaN one used to call a
    # clean singleton a zero-ton, and -1 a multi-ton
    dims = Dims(16, 16)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=0.0)
    obs = _obs_for(dims, params, {(5, 11): 2.0 - 1.0j})
    assert robust_classify(obs, dims, params,
                           noise_var=0.0).kind == KIND_SINGLETON
    with pytest.raises(ValueError, match="noise_var"):
        robust_classify(obs, dims, params, noise_var=bad)


def test_robust_classify_takes_shifts_as_lists():
    dims = Dims(16, 16)
    params = RobustParams(chains_per_dim=1, reps=3, noise_var=0.25)
    for entries in ({(5, 11): 2.0 - 1.0j}, {}, {(1, 2): 1.0, (9, 3): -1.0}):
        obs = _obs_for(dims, params, entries, sigma2=0.25, seed=4)
        as_lists = BinObservation(0, (0, 0), obs.values,
                                  [list(s) for s in obs.shifts])
        arrays = BinObservation(0, (0, 0), obs.values,
                                np.asarray(obs.shifts))
        want = robust_classify(obs, dims, params)
        assert robust_classify(as_lists, dims, params) == want
        assert robust_classify(arrays, dims, params) == want
    shifts = [list(s) for s in design_shifts(dims, params, seed=1)]
    ones = np.ones(len(shifts), dtype=complex)
    for c, bad in ((3, [shifts[3][0], 0, 0]), (0, [0]), (5, 7),
                   (2, [1.5, 0])):
        broken = shifts[:c] + [bad] + shifts[c + 1:]
        with pytest.raises(PlanError):
            robust_classify(BinObservation(0, (0, 0), ones, broken), dims,
                            params)


def test_robust_singleton_location_under_noise():
    # per-chain snr around 13 dB, 5 repetitions, majority vote
    dims = Dims(280, 280)
    params = RobustParams(chains_per_dim=1, reps=5, noise_var=1.0)
    shifts = design_shifts(dims, params, seed=1)
    model = Constellation(rho=10 ** 1.3, m1=2, m2=8)
    mags = model.magnitudes()
    phases = [2 * np.pi * j / model.m2 for j in range(model.m2)]
    sarr = np.asarray(shifts, dtype=float)
    rng = np.random.default_rng(7)
    hits = 0
    trials = 1000
    for _ in range(trials):
        u, v = int(rng.integers(280)), int(rng.integers(280))
        val = mags[rng.integers(len(mags))] * np.exp(
            1j * phases[rng.integers(len(phases))])
        w = np.exp(2j * np.pi * (u * sarr[:, 0] / 280 + v * sarr[:, 1] / 280))
        noise = (rng.normal(size=len(shifts))
                 + 1j * rng.normal(size=len(shifts))) / np.sqrt(2)
        obs = BinObservation(0, (0, 0), val * w + noise, shifts)
        cls = robust_classify(obs, dims, params, noise_var=1.0)
        if cls.kind == KIND_SINGLETON and cls.location == (u, v):
            assert abs(cls.value - val) < 0.5
            hits += 1
    assert hits / trials >= 0.99


def test_robust_zero_ton_rate_under_pure_noise():
    # 13 chains, GAMMA_ZERO 0.5: energy threshold sits at the ~0.956
    # quantile of the bin-energy distribution
    dims = Dims(8, 8)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=1.0)
    shifts = design_shifts(dims, params, seed=0)
    rng = np.random.default_rng(11)
    n = 10000
    noise = (rng.normal(size=(n, 13)) + 1j * rng.normal(size=(n, 13))) / np.sqrt(2)
    zero = sum(
        robust_classify(BinObservation(0, (0, 0), noise[t], shifts),
                        dims, params, noise_var=1.0).kind == KIND_ZERO_TON
        for t in range(n))
    assert 0.95 <= zero / n <= 0.97


def test_robust_location_error_shrinks_with_reps():
    # per-chain snr around 3 dB: single-pair estimates fail often, majority
    # over more repetitions must not do worse
    dims = Dims(64, 64)
    rates = {}
    for reps in (1, 3, 5, 9):
        params = RobustParams(chains_per_dim=1, reps=reps, noise_var=0.5)
        shifts = design_shifts(dims, params, seed=2)
        sarr = np.asarray(shifts, dtype=float)
        rng = np.random.default_rng(100 + reps)
        err = 0
        trials = 400
        for _ in range(trials):
            u, v = int(rng.integers(64)), int(rng.integers(64))
            w = np.exp(2j * np.pi * (u * sarr[:, 0] / 64 + v * sarr[:, 1] / 64))
            noise = (rng.normal(size=len(shifts))
                     + 1j * rng.normal(size=len(shifts))) * 0.5
            cls = robust_classify(
                BinObservation(0, (0, 0), w + noise, shifts),
                dims, params, noise_var=0.5)
            if cls.kind != KIND_SINGLETON or cls.location != (u, v):
                err += 1
        rates[reps] = err / trials
    assert rates[1] >= rates[3] >= rates[5] >= rates[9]
    assert rates[9] <= rates[1] / 2


def _robust_plan_60(reps=3, sigma2=0.01, seed=5):
    params = RobustParams(chains_per_dim=1, reps=reps, noise_var=sigma2,
                          seed=seed)
    return build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse",
                      mode="robust", robust_params=params), params


def test_robust_decode_noisy_support_and_values():
    plan, _ = _robust_plan_60()
    model = Constellation(rho=1.0, m1=2, m2=8)
    for seed in range(5):
        inst = gen_instance(Dims(60, 60), 8, value_model=model, seed=seed)
        noisy = NoisySource(inst.source, 0.01, seed=seed + 50)
        report = robust_decode(noisy, plan, min_magnitude=0.25)
        got = dict(report.spectrum.items())
        want = dict(inst.truth.items())
        assert set(got) == set(want)
        nmse = (sum(abs(got[loc] - val) ** 2 for loc, val in want.items())
                / sum(abs(val) ** 2 for val in want.values()))
        assert nmse < 1e-3
        assert report.samples_touched == 3650


def test_robust_decode_zero_noise_matches_noiseless_decoder():
    robust_plan, _ = _robust_plan_60(sigma2=0.0)
    plain_plan = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse")
    for seed in range(5):
        inst = gen_instance(Dims(60, 60), 10, seed=seed)
        a = robust_decode(inst.source, robust_plan)
        b = decode(inst.source, plain_plan)
        assert a.status == b.status == STATUS_SUCCESS
        ga, gb = dict(a.spectrum.items()), dict(b.spectrum.items())
        assert set(ga) == set(gb)
        assert all(abs(ga[loc] - gb[loc]) <= 1e-9 for loc in ga)


def test_robust_decode_shares_the_noiseless_trajectory():
    # at sigma = 0 both decoders run the same loop with equivalent
    # classifiers, so they peel the same bins in the same order
    robust_plan = build_plan(
        Dims(60, 60), [16, 9, 25], regime="very-sparse", mode="robust",
        robust_params=RobustParams(chains_per_dim=1, reps=1, noise_var=0.0,
                                   seed=3))
    plain_plan = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse")
    for seed in range(30):
        source = gen_instance(Dims(60, 60), 12, seed=7000 + seed).source
        runs = []
        for run, plan in ((robust_decode, robust_plan), (decode, plain_plan)):
            events = []
            report = run(source, plan, trace=events.append)
            runs.append(([(e["round"], e["stage"], e["bin"], e["location"])
                          for e in events], report.peel_iterations,
                         report.bin_stats))
        assert runs[0] == runs[1], seed


def test_robust_peel_classifies_each_stage_once_per_step(monkeypatch):
    # the robust classifier reads each stage's own lattice geometry, so
    # the engine calls it per stage: once on the first pass, then once per
    # stage step on the bins that step touched
    calls = []
    peel = peeler.peel_stacks

    def recording_peel(stacks, plan, classify, *args, **kwargs):
        def recording_classify(si, idx, cols):
            calls.append((si, idx))
            return classify(si, idx, cols)
        return peel(stacks, plan, recording_classify, *args, **kwargs)

    monkeypatch.setattr(peeler, "peel_stacks", recording_peel)
    plan, _ = _robust_plan_60()
    stages = len(plan.stages)
    inst = gen_instance(Dims(60, 60), 8, Constellation(1.0, 2, 8), seed=2)
    events = []
    robust_decode(NoisySource(inst.source, 0.01, seed=52), plan,
                  min_magnitude=0.25, trace=events.append)
    steps = {(e["round"], e["stage"]) for e in events}
    assert steps
    assert [(si, type(idx)) for si, idx in calls[:stages]] == [
        (si, slice) for si in range(stages)]
    assert [si for si, _ in calls[stages:]] == list(range(stages)) * len(steps)


def test_decode_refuses_a_broken_robust_layout_before_reading():
    # stage 0's first dyadic pair swapped: (r + 1, 0) before (r, 0)
    plan, _ = _robust_plan_60(reps=1)
    shifts = plan.stages[0].shifts
    swapped = shifts[:1] + (shifts[2], shifts[1]) + shifts[3:]
    stages = (dataclasses.replace(plan.stages[0], shifts=swapped),
              ) + plan.stages[1:]
    source = gen_instance(plan.dims, 8, seed=2).source
    with pytest.raises(PlanError, match="dyadic pair layout"):
        decode(source, FfastPlan(plan.dims, stages, plan.mode,
                                 plan.robust_params))
    assert source.access_count == 0


def test_robust_decode_rejects_non_finite_sample():
    plan, _ = _robust_plan_60(sigma2=0.0)
    x = synthesize_dense(gen_instance(Dims(60, 60), 8, seed=2).truth)
    x[0, 0] = np.nan
    with pytest.raises(NonFiniteSample):
        robust_decode(ArraySource(x), plan)


@pytest.mark.parametrize("seed", range(3))
def test_robust_decode_is_scale_equivariant(seed):
    plan, _ = _robust_plan_60(sigma2=0.0)
    dims = Dims(60, 60)
    truth = gen_instance(dims, 10, seed=60 + seed).truth
    base = robust_decode(ExponentialSumSource(truth), plan)
    assert base.status == STATUS_SUCCESS
    want = dict(base.spectrum.items())
    # the products of two observations leave the float range beyond
    # about 1e+-154; the decode peels at unit scale, so sigma = 0 holds
    # to the float limits as the noiseless decode does
    for c in (1e-300, 1e-200, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e200, 1e300):
        scaled = SparseSpectrum.from_entries(
            dims, {loc: c * val for loc, val in truth.items()})
        report = robust_decode(ExponentialSumSource(scaled), plan)
        got = dict(report.spectrum.items())
        assert report.status == base.status, c
        assert set(got) == set(want), c
        assert all(abs(got[loc] - c * want[loc]) <= 1e-9 * c for loc in want), c


def test_robust_decode_magnitude_filter():
    # a cut above every coefficient empties the spectrum; recovery events
    # that get filtered leave the report in a non-success state
    plan, _ = _robust_plan_60(sigma2=0.0)
    truth = SparseSpectrum.from_entries(Dims(60, 60), {(3, 7): 1.0,
                                                       (20, 41): 1.0j})
    report = robust_decode(ExponentialSumSource(truth), plan,
                           min_magnitude=10.0)
    assert len(report.spectrum) == 0
    assert report.status != STATUS_SUCCESS


def _criterion_8_setup():
    dims = Dims(280, 280)
    rho = 10 ** 1.3 / Constellation(1.0, 2, 8).mean_power()
    params = RobustParams(chains_per_dim=1, reps=5, noise_var=1.0, seed=8)
    plan = build_plan(dims, [25, 64, 49], "less-sparse", mode="robust",
                      robust_params=params)
    return plan, Constellation(rho, 2, 8), np.sqrt(rho) / 4


def test_robust_very_sparse_decode_reads_a_sliver_of_the_grid():
    # a 2288x2288 robust decode at 13 dB: 145 chains per stage charge
    # 79,170 reads, yet only 63,740 distinct cells, 1.2% of the grid
    dims = Dims(2288, 2288)
    params = RobustParams(chains_per_dim=1, reps=3, noise_var=1.0, seed=1)
    plan = build_plan(dims, [121, 169, 256], "very-sparse", mode="robust",
                      robust_params=params)
    rho = 10 ** 1.3 / Constellation(1.0, 2, 8).mean_power()
    inst = gen_instance(dims, 303, Constellation(rho, 2, 8), seed=0)
    report = robust_decode(NoisySource(inst.source, 1.0, seed=100), plan,
                           min_magnitude=np.sqrt(rho) / 4)
    assert set(dict(report.spectrum.items())) == set(inst.truth.entries)
    assert report.samples_touched == 79170
    assert report.distinct_cells == 63740


def test_robust_decode_pure_noise_is_quiet():
    # 181 chains per stage sit on 9, 15 and 13 lattices; a zero-ton test
    # that counted them as independent flagged about 6.5% of these bins
    plan, _, min_mag = _criterion_8_setup()
    empty = gen_instance(plan.dims, 0, seed=0).source
    for seed in range(10):
        report = robust_decode(NoisySource(empty, 1.0, seed=seed), plan,
                               min_magnitude=min_mag)
        live = sum(s[KIND_SINGLETON] + s[KIND_MULTI_TON]
                   for s in report.bin_stats)
        assert live <= 0.005 * sum(plan.bin_counts), seed
        assert report.status == STATUS_SUCCESS, seed
        assert len(report.spectrum) == 0, seed


def test_robust_decode_reports_success_under_noise():
    # criterion 8's instances: a right decode peels its 50 coefficients
    # and no noise, so it drains the graph and says so
    plan, model, min_mag = _criterion_8_setup()
    wins = 0
    for i in range(40):
        inst = gen_instance(plan.dims, 50, model, seed=900 + i)
        report = robust_decode(NoisySource(inst.source, 1.0, seed=i), plan,
                               min_magnitude=min_mag)
        assert set(dict(report.spectrum.items())) == set(inst.truth.entries), i
        wins += report.status == STATUS_SUCCESS
    assert wins >= 36


def _ladder_decode_per_pair_reference(ys, dims, params, axis):
    # one np.angle call per ladder pair, kept as the oracle; pair p of
    # robust_pairs is chains 2p + 1 and 2p + 2
    n = (dims.nx, dims.ny)[axis]
    levels, reps = bit_levels(n), params.pairs_per_level
    m = ys.shape[1]
    if levels == 0:
        return np.zeros(m, dtype=np.int64)
    frac = np.empty((levels, reps, m))
    seen = {}
    for p, (ax, _, step) in enumerate(robust_pairs(dims, params)):
        if ax != axis:
            continue
        j = step.bit_length() - 1
        rep = seen[j] = seen.get(j, -1) + 1
        c1, c2 = 2 * p + 1, 2 * p + 2
        frac[j, rep] = np.angle(ys[c2] * np.conj(ys[c1])) / (2 * np.pi) % 1.0
    est = frac[0]
    for j in range(1, levels):
        whole = np.rint(est * (1 << j) - frac[j])
        est = (whole + frac[j]) / (1 << j)
    ints = np.rint(est * n).astype(np.int64) % n
    return np.sort(ints, axis=0)[reps // 2]


def _ladder_plan(dims, reps):
    # criterion 8's plan and k = 50 instance at 13 dB, or a 1-row or
    # 1-column [13, 14] plan, whose x or y ladder is empty, at k = 4
    if dims == Dims(280, 280):
        rho = 10 ** 1.3 / Constellation(1.0, 2, 8).mean_power()
        params = RobustParams(chains_per_dim=1, reps=reps, noise_var=1.0,
                              seed=8)
        plan = build_plan(dims, [25, 64, 49], "less-sparse", mode="robust",
                          robust_params=params)
        inst = gen_instance(dims, 50, Constellation(rho, 2, 8), seed=4321)
        return plan, NoisySource(inst.source, 1.0, seed=77)
    params = RobustParams(chains_per_dim=1, reps=reps, noise_var=0.5, seed=3)
    plan = build_plan(dims, [13, 14], "very-sparse", mode="robust",
                      robust_params=params)
    inst = gen_instance(dims, 4, seed=reps)
    return plan, NoisySource(inst.source, 0.5, seed=reps)


def _check_ladders(plan, source):
    dims, params = plan.dims, plan.robust_params
    for stage, stack in zip(plan.stages, run_frontend(plan, source)):
        lat = stage_lattices(dims, stage)
        cols = stack.reshape(stack.shape[0], -1)
        pos = np.arange(cols.shape[1])
        for sel in (pos, pos[:0], pos[5:6]):
            i, j = np.divmod(sel, stage.bins_y)
            ramp = np.exp(2j * np.pi * (lat.dq[:, :1] * i / stage.bins_x
                                        + lat.dq[:, 1:] * j / stage.bins_y))
            ys = cols[:, sel][lat.inv] * ramp
            turns = _turns(ys[1::2], ys[2::2]) % 1.0
            for axis, n in enumerate((dims.nx, dims.ny)):
                a, b = _robust_span(dims, params, axis)
                got = _ladder_decode(turns[a // 2:b // 2], n,
                                     params.pairs_per_level)
                want = _ladder_decode_per_pair_reference(ys, dims, params,
                                                         axis)
                assert got.shape == (len(sel),)
                assert np.array_equal(got, want)


def test_ladder_decode_matches_per_pair_reference():
    # noisy chain columns of every bin of every stage, plus m = 0 and
    # m = 1; chain c is lattice plane inv[c] times its phase ramp
    for dims, reps in ((Dims(280, 280), 5), (Dims(1, 182), 1),
                       (Dims(1, 182), 3), (Dims(1, 182), 5),
                       (Dims(182, 1), 1), (Dims(182, 1), 3),
                       (Dims(182, 1), 5)):
        _check_ladders(*_ladder_plan(dims, reps))


def _chain_fit_reference(ys, shifts, dims, params, sigma2, spread,
                         zero_thresh):
    # the fit over every chain that the plane fit replaced, kept as the
    # oracle: ys is (C, m) chain columns and shifts the (C, 2) chain shifts
    n = ys.shape[0]
    uu, vv = (_ladder_decode_per_pair_reference(ys, dims, params, axis)
              for axis in (0, 1))
    w = (unit_roots(dims.nx)[shifts[:, :1] * uu % dims.nx]
         * unit_roots(dims.ny)[shifts[:, 1:] * vv % dims.ny])
    vals = (np.conj(w) * ys).sum(axis=0) / n
    resid = (np.abs(ys - vals[None, :] * w) ** 2).sum(axis=0)
    single = ((resid <= (1 + GAMMA_SINGLE) * n * sigma2 + n * zero_thresh ** 2)
              & (np.abs(vals) > zero_thresh)
              & (np.abs(vals) ** 2 > VALUE_SIGMAS ** 2 * sigma2 * spread
                 / n ** 2))
    return single, uu, vv, vals


def _captured_classifications(monkeypatch, plan, sources):
    # every classifier call of the decodes: its stage, bins and a copy of
    # its plane columns, the decode's scale and floor, and its result
    calls = []
    build = robust.robust_classifier

    def recording_classifier(plan, zero_thresh, unit):
        classify = build(plan, zero_thresh, unit)

        def recorded(si, idx, cols):
            out = classify(si, idx, cols)
            calls.append((si, idx, cols.copy(), zero_thresh, unit, out))
            return out
        return recorded

    monkeypatch.setattr(robust, "robust_classifier", recording_classifier)
    for source in sources:
        robust_decode(source, plan)
    return calls


@pytest.mark.parametrize("sigma2", [1.0, 0.0])
def test_plane_fit_matches_the_chain_fit(monkeypatch, sigma2):
    # criterion 8's plan and instances: the classifier fits the 9-15
    # planes of each stage, and must find what the fit over all 181
    # chain-expanded columns finds
    _, model, _ = _criterion_8_setup()
    params = RobustParams(chains_per_dim=1, reps=5, noise_var=sigma2, seed=8)
    plan = build_plan(Dims(280, 280), [25, 64, 49], "less-sparse",
                      mode="robust", robust_params=params)
    dims = plan.dims
    sources = [gen_instance(dims, 50, model, seed=900 + i).source
               for i in range(3)]
    if sigma2:
        sources = [NoisySource(src, sigma2, seed=i)
                   for i, src in enumerate(sources)]
    calls = _captured_classifications(monkeypatch, plan, sources)
    fitted = singles = 0
    for si, idx, cols, zero_thresh, unit, got in calls:
        stage = plan.stages[si]
        lat = stage_lattices(dims, stage)
        nonzero, single, uu, vv, vals = got
        spread = float(lat.sizes @ lat.sizes)
        noise = sigma2 / stage.bin_count * unit * unit
        assert np.array_equal(nonzero, _energy_test(
            lat.sizes @ np.abs(cols) ** 2, len(lat.inv), spread, noise,
            zero_thresh))
        live = np.flatnonzero(nonzero)
        i, j = np.divmod(np.arange(stage.bin_count)[idx][live],
                         stage.bins_y)
        ramp = (unit_roots(stage.bins_x)[lat.dq[:, :1] * i % stage.bins_x]
                * unit_roots(stage.bins_y)[lat.dq[:, 1:] * j % stage.bins_y])
        ref = _chain_fit_reference(cols[:, live][lat.inv] * ramp, lat.shifts,
                                   dims, params, noise, spread, zero_thresh)
        # a multi-ton's ladder output is noise either way, and at sigma 0
        # can round apart at a tie
        assert np.array_equal(single[live], ref[0])
        assert np.array_equal(uu[live][ref[0]], ref[1][ref[0]])
        assert np.array_equal(vv[live][ref[0]], ref[2][ref[0]])
        # the plane identity holds for a location in its own bin; the
        # engine drops a singleton at any other
        own = (ref[1] % stage.bins_x == i) & (ref[2] % stage.bins_y == j)
        assert np.all(np.abs(vals[live] - ref[3])[own]
                      <= 1e-12 * np.abs(ref[3][own]))
        assert not single[np.flatnonzero(~nonzero)].any()
        fitted += live.size
        singles += np.count_nonzero(ref[0])
    assert fitted > singles >= 150


def _classify_reference(obs, dims, params, noise_var):
    # robust_classify with the chain fit above
    shifts = np.asarray(obs.shifts, dtype=np.int64)
    ys = np.asarray(obs.values, dtype=np.complex128)[:, None]
    n = len(shifts)
    zero_thresh = peeler.observation_zero_threshold([ys])
    nonzero = _energy_test((np.abs(ys) ** 2).sum(axis=0), n, n, noise_var,
                           zero_thresh)
    fit = _chain_fit_reference(ys, shifts, dims, params, noise_var, n,
                               zero_thresh)
    return BinClass.from_scan((nonzero,) + fit)


def test_robust_classify_matches_the_chain_fit_bit_for_bit():
    # a lone vector is the plane fit with one chain per plane and no
    # ramp: the 200 vectors of the decode digest, bit for bit
    dims = Dims(64, 64)
    for reps in (1, 3, 5, 9):
        params = RobustParams(chains_per_dim=1, reps=reps, noise_var=0.5)
        shifts = design_shifts(dims, params, seed=2)
        sarr = np.asarray(shifts, dtype=float)
        rng = np.random.default_rng(100 + reps)
        for _ in range(50):
            u, v = int(rng.integers(64)), int(rng.integers(64))
            w = np.exp(2j * np.pi * (u * sarr[:, 0] / 64
                                     + v * sarr[:, 1] / 64))
            noise = (rng.normal(size=len(shifts))
                     + 1j * rng.normal(size=len(shifts))) * 0.5
            obs = BinObservation(0, (0, 0), w + noise, shifts)
            got = robust_classify(obs, dims, params, noise_var=0.5)
            want = _classify_reference(obs, dims, params, 0.5)
            assert got == want
            assert repr(got.value) == repr(want.value)

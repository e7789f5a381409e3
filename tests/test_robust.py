import numpy as np
import pytest

from ffast2d.core import (Constellation, Dims, RobustParams, SparseSpectrum,
                          build_plan, robust_chain_count, STATUS_SUCCESS)
from ffast2d.frontend import BinObservation, NonFiniteSample
from ffast2d.oracle import (ArraySource, ExponentialSumSource, add_noise,
                            gen_instance, synthesize_dense)
from ffast2d.peeler import (KIND_MULTI_TON, KIND_SINGLETON, KIND_ZERO_TON,
                            WrongShiftLayout, decode, ratio_test)
from ffast2d.robust import (design_shifts, estimate_noise_variance,
                            robust_classify, robust_decode)


def _weights(shifts, dims, u, v):
    s = np.asarray(shifts, dtype=float)
    return np.exp(2j * np.pi * (u * s[:, 0] / dims.nx + v * s[:, 1] / dims.ny))


def test_design_shifts_count_and_structure():
    dims = Dims(8, 8)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=1.0)
    shifts = design_shifts(dims, params, seed=0)
    assert len(shifts) == 13 == robust_chain_count(dims, params)
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
    assert len(shifts) == robust_chain_count(dims, params)
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
        plain = ratio_test(
            BinObservation(0, (0, 0),
                           val * _weights(((0, 0), (1, 0), (0, 1)), dims, u, v),
                           ((0, 0), (1, 0), (0, 1))), dims)
        assert robust.kind == plain.kind == KIND_SINGLETON
        assert robust.location == plain.location == (u, v)
        assert abs(robust.value - plain.value) < 1e-9


def test_robust_classify_rejects_wrong_layout():
    dims = Dims(16, 16)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=0.0)
    noiseless = BinObservation(0, (0, 0), np.ones(3, dtype=complex),
                               ((0, 0), (1, 0), (0, 1)))
    with pytest.raises(WrongShiftLayout):
        robust_classify(noiseless, dims, params)
    shifts = design_shifts(dims, params, seed=1)
    broken = ((1, 0),) + shifts[1:]
    with pytest.raises(WrongShiftLayout):
        robust_classify(BinObservation(0, (0, 0),
                                       np.ones(len(shifts), dtype=complex),
                                       broken), dims, params)


def test_robust_singleton_location_under_noise():
    # per-chain snr around 13 dB, 5 repetitions, majority vote
    dims = Dims(280, 280)
    params = RobustParams(chains_per_dim=1, reps=5, noise_var=1.0)
    shifts = design_shifts(dims, params, seed=1)
    model = Constellation(rho=10 ** 1.3, m1=2, m2=8)
    mags, phases = model.magnitudes(), model.phases()
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
    # 13 chains, gamma_zero 0.5: energy threshold sits at the ~0.956
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
        noisy = add_noise(inst.source, 0.01, seed=seed + 50)
        report = robust_decode(noisy, plan, min_magnitude=0.25)
        got = dict(report.spectrum.items())
        want = dict(inst.truth.items())
        assert set(got) == set(want)
        nmse = (sum(abs(got[loc] - val) ** 2 for loc, val in want.items())
                / sum(abs(val) ** 2 for val in want.values()))
        assert nmse < 1e-3
        assert report.samples_touched == 3650


def test_robust_decode_zero_noise_matches_noiseless_decoder():
    robust_plan, params = _robust_plan_60(sigma2=0.0)
    plain_plan = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse")
    for seed in range(5):
        inst = gen_instance(Dims(60, 60), 10, seed=seed)
        a = robust_decode(inst.source, robust_plan, params)
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
            cut = run(source, plan, max_rounds=1)
            runs.append(([(e["round"], e["stage"], e["bin"], e["location"])
                          for e in events], report.peel_iterations,
                         report.bin_stats, cut.status,
                         set(dict(cut.spectrum.items()))))
        assert runs[0] == runs[1], seed


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
    for c in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        scaled = SparseSpectrum.from_entries(
            dims, {loc: c * val for loc, val in truth.items()})
        report = robust_decode(ExponentialSumSource(scaled), plan)
        got = dict(report.spectrum.items())
        assert report.status == base.status, c
        assert set(got) == set(want), c
        assert all(abs(got[loc] - c * want[loc]) <= 1e-9 * c for loc in want), c


def test_robust_decode_requires_robust_plan():
    plain = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse")
    inst = gen_instance(Dims(60, 60), 3, seed=0)
    with pytest.raises(Exception):
        robust_decode(inst.source, plain)


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


def test_estimate_noise_variance():
    # needs bins >> k so the median bin is signal-free; the trimmed mean
    # clips the upper tail, so allow a generous band around the truth
    plan = build_plan(Dims(60, 60), [16, 9, 25], regime="less-sparse",
                      mode="robust",
                      robust_params=RobustParams(reps=3, noise_var=2.0, seed=5))
    model = Constellation(rho=400.0, m1=2, m2=8)
    for seed in range(3):
        inst = gen_instance(Dims(60, 60), 5, value_model=model, seed=seed)
        noisy = add_noise(inst.source, 2.0, seed=seed + 9)
        est = estimate_noise_variance(noisy, plan)
        assert abs(est - 2.0) / 2.0 < 0.25
    quiet = add_noise(gen_instance(Dims(60, 60), 0, seed=0).source, 2.0, seed=1)
    est0 = estimate_noise_variance(quiet, plan)
    assert abs(est0 - 2.0) / 2.0 < 0.25

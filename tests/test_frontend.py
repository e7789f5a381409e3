import tracemalloc

import numpy as np
import pytest

from ffast2d.core import (Constellation, Dims, RobustParams, SparseSpectrum,
                          StageConfig, build_plan, plan_sample_budget)
from ffast2d.crt import DiagonalView, diag_freq_index
from ffast2d.frontend import (NonFiniteSample, ShapeMismatch, alias_bin,
                              chain_weights, run_frontend, stage_observations)
from ffast2d.oracle import (ArraySource, ExponentialSumSource, NoisySource,
                            alias_sum_oracle, dense_dft_2d, gen_instance)

WORKED_6X6 = {(1, 3): 7.0, (2, 0): 3.0, (2, 3): 5.0, (4, 0): 1.0}


def _worked_source():
    truth = SparseSpectrum.from_entries(Dims(6, 6), WORKED_6X6)
    return ExponentialSumSource(truth), truth


def _stage_6x6():
    return StageConfig.from_subsampling(Dims(6, 6), 3, 3,
                                        [(0, 0), (1, 0), (0, 1)])


def _one_chain(src, dims, sub_x, sub_y, shift):
    stage = StageConfig.from_subsampling(dims, sub_x, sub_y, [shift])
    return stage_observations(src, dims, stage)[0]


def test_subsample_lattice_cells():
    # shift (1, 0) on a 3x3 decimation reads x[(3a+1) % 6][3b]
    x = np.arange(36, dtype=np.complex128).reshape(6, 6)
    src = ArraySource(x)
    got = _one_chain(src, Dims(6, 6), 3, 3, (1, 0))
    assert src.access_count == 4

    rows = (1 + 3 * np.arange(2)) % 6
    cols = (0 + 3 * np.arange(2)) % 6
    want = np.fft.fft2(x[np.ix_(rows, cols)]) / 4
    assert np.allclose(got, want, atol=1e-12)


def test_worked_example_anchor_grid():
    src, _ = _worked_source()
    got = stage_observations(src, Dims(6, 6), _stage_6x6())[0]
    assert np.allclose(got, [[4.0, 5.0], [0.0, 7.0]], atol=1e-9)


def test_identity_stage_recovers_full_spectrum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    got = _one_chain(ArraySource(x), Dims(6, 6), 1, 1, (0, 0))
    assert np.allclose(got, dense_dft_2d(x), atol=1e-12)


@pytest.mark.parametrize("nx,ny,sub,shift", [
    (24, 24, (3, 4), (0, 0)),
    (24, 24, (3, 4), (5, 2)),
    (12, 18, (2, 3), (1, 1)),
    (20, 9, (4, 3), (3, 0)),
])
def test_aliasing_identity_brute_force(nx, ny, sub, shift):
    # folded dense spectrum with shift weights == front-end bin output
    dims = Dims(nx, ny)
    rng = np.random.default_rng(nx + ny)
    x = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    stage = StageConfig.from_subsampling(dims, sub[0], sub[1], [shift])
    big = dense_dft_2d(x)
    want = np.zeros((stage.bins_x, stage.bins_y), dtype=np.complex128)
    for u in range(nx):
        for v in range(ny):
            w = np.exp(2j * np.pi * (u * shift[0] / nx + v * shift[1] / ny))
            want[u % stage.bins_x, v % stage.bins_y] += big[u, v] * w
    got = _one_chain(ArraySource(x), dims, sub[0], sub[1], shift)
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("shift", [(0, 0), (1, 0), (0, 1), (4, 3)])
def test_frontend_matches_alias_oracle(shift):
    # the shift rides along with the noiseless chains, in whichever read
    # group it falls into
    src, truth = _worked_source()
    stage = StageConfig.from_subsampling(Dims(6, 6), 3, 3,
                                         [(0, 0), (1, 0), (0, 1), shift])
    got = stage_observations(src, Dims(6, 6), stage)[3]
    want = alias_sum_oracle(truth, stage, shift)
    assert np.max(np.abs(got - want)) < 1e-9


def test_shift_weight_on_one_sparse_signal():
    dims = Dims(6, 6)
    truth = SparseSpectrum.from_entries(dims, {(4, 0): 1.0})
    src = ExponentialSumSource(truth)
    anchor, shifted, _ = stage_observations(src, dims, _stage_6x6())
    w = np.exp(2j * np.pi * 4 / 6)
    assert np.allclose(shifted, anchor * w, atol=1e-9)


def test_run_frontend_sample_accounting():
    plan = build_plan(Dims(6, 6), [9, 4])
    src, _ = _worked_source()
    stacks = run_frontend(plan, src)
    assert src.access_count == 39
    assert [s.shape for s in stacks] == [(3, 2, 2), (3, 3, 3)]


def test_run_frontend_rejects_wrong_grid():
    plan = build_plan(Dims(6, 6), [9, 4])
    other = gen_instance(Dims(12, 12), 3, seed=0)
    with pytest.raises(ShapeMismatch):
        run_frontend(plan, other.source)


def test_run_frontend_worked_bin_values():
    plan = build_plan(Dims(6, 6), [9, 4])
    src, _ = _worked_source()
    stack = run_frontend(plan, src)[0]
    assert plan.stages[0].shifts == ((0, 0), (1, 0), (0, 1))
    # multiton bin (0, 0): coefficients (2, 0) and (4, 0)
    assert np.allclose(stack[:, 0, 0],
                       [4.0, -2.0 + 1j * np.sqrt(3.0), 4.0], atol=1e-9)
    # singleton bin (0, 1): coefficient (2, 3) of value 5
    assert np.allclose(stack[:, 0, 1],
                       [5.0, -2.5 + 4.330127018922193j, -5.0], atol=1e-9)
    # zero-ton bin (1, 0)
    assert np.max(np.abs(stack[:, 1, 0])) < 1e-9


def test_alias_bin_and_chain_weights():
    dims = Dims(6, 6)
    stage = _stage_6x6()
    assert alias_bin(dims, stage, 4, 0) == (0, 0)
    assert np.allclose(chain_weights(dims, stage, 4, 0),
                       [1.0, np.exp(2j * np.pi * 4 / 6), 1.0], atol=1e-12)
    assert np.allclose(chain_weights(dims, stage, 2, 3),
                       [1.0, np.exp(2j * np.pi * 2 / 6),
                        np.exp(2j * np.pi * 3 / 6)], atol=1e-12)


def test_frontend_linearity():
    dims = Dims(12, 12)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    y = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    fx = _one_chain(ArraySource(x), dims, 3, 4, (2, 1))
    fy = _one_chain(ArraySource(y), dims, 3, 4, (2, 1))
    fxy = _one_chain(ArraySource(x + 2 * y), dims, 3, 4, (2, 1))
    assert np.allclose(fxy, fx + 2 * fy, atol=1e-10)


def test_stage_observations_stack_order():
    src, truth = _worked_source()
    stage = _stage_6x6()
    stack = stage_observations(src, Dims(6, 6), stage)
    for c, shift in enumerate(stage.shifts):
        want = alias_sum_oracle(truth, stage, shift)
        assert np.max(np.abs(stack[c] - want)) < 1e-9


def test_stage_observations_name_the_non_finite_chain():
    # cell (0, 1) is read by the (0, 1) chain only
    x = np.ones((6, 6), dtype=np.complex128)
    x[0, 1] = np.nan
    with pytest.raises(NonFiniteSample, match=r"\(0, 1\)"):
        stage_observations(ArraySource(x), Dims(6, 6), _stage_6x6())


def _criterion_8_plan():
    params = RobustParams(chains_per_dim=1, reps=5, noise_var=1.0, seed=8)
    return build_plan(Dims(280, 280), [25, 64, 49], "less-sparse",
                      mode="robust", robust_params=params)


def _diagonal_case():
    # 35x36 is co-prime: its 1-row view has the 1260-point spectrum
    # X1[0][diag_freq_index(u, v)] = X[u][v]
    dims = Dims(35, 36)
    inst = gen_instance(dims, 7, seed=4)
    flat = {(0, diag_freq_index(u, v, dims)): val
            for (u, v), val in inst.truth.items()}
    truth = SparseSpectrum.from_entries(Dims(1, dims.n), flat)
    plan = build_plan(Dims(1, dims.n), [35, 36], regime="very-sparse")
    return plan, DiagonalView(inst.source), truth


def _frontend_case(kind):
    if kind == "diagonal":
        return _diagonal_case()
    if kind == "noiseless":
        dims = Dims(30, 30)
        plan = build_plan(dims, [4, 9, 25])
    else:
        dims = Dims(60, 60)
        params = RobustParams(chains_per_dim=1, reps=3, noise_var=1.0, seed=5)
        plan = build_plan(dims, [16, 9, 25], regime="very-sparse",
                          mode="robust", robust_params=params)
    inst = gen_instance(dims, 12, seed=6)
    return plan, inst.source, inst.truth


@pytest.mark.parametrize("kind", ["noiseless", "robust", "diagonal"])
def test_stage_observations_match_alias_oracle_chain_by_chain(kind):
    plan, src, truth = _frontend_case(kind)
    dims = plan.dims
    for stage in plan.stages:
        if kind == "robust":
            # several chains read one lattice: their offsets agree modulo
            # the stage periods
            lattices = {(s1 % stage.sub_x, s2 % stage.sub_y)
                        for s1, s2 in stage.shifts}
            assert len(lattices) < len(stage.shifts)
        before = src.access_count
        stack = stage_observations(src, dims, stage)
        assert src.access_count - before == len(stage.shifts) * stage.bin_count
        assert stack.shape == (len(stage.shifts), stage.bins_x, stage.bins_y)
        for c, shift in enumerate(stage.shifts):
            want = alias_sum_oracle(truth, stage, shift)
            assert np.max(np.abs(stack[c] - want)) < 1e-9


class _CountingSource:
    """Delegates reads to a source and counts its sample_grid calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dims = inner.dims
        self.grid_calls = 0

    @property
    def access_count(self):
        return self.inner.access_count

    def sample_grid(self, rows, cols):
        self.grid_calls += 1
        return self.inner.sample_grid(rows, cols)

    def sample_points(self, aa, bb):
        return self.inner.sample_points(aa, bb)


def test_run_frontend_reads_two_grids_per_stage():
    plan = _criterion_8_plan()
    counter = _CountingSource(gen_instance(plan.dims, 50, seed=900).source)
    run_frontend(plan, counter)
    assert counter.grid_calls == 2 * len(plan.stages)
    assert counter.access_count == plan_sample_budget(plan)


def test_run_frontend_peak_memory_near_its_output():
    # the FFT runs in place: the largest transient is one read group, not
    # a second copy of the stack
    plan = _criterion_8_plan()
    rho = 10 ** 1.3 / Constellation(1.0, 2, 8).mean_power()
    inst = gen_instance(plan.dims, 50, Constellation(rho, 2, 8), seed=900)
    src = NoisySource(inst.source, 1.0, seed=0)
    run_frontend(plan, src)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stacks = run_frontend(plan, src)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(s.nbytes for s in stacks)

import numpy as np
import pytest

from ffast2d.core import Dims, SparseSpectrum, StageConfig, build_plan
from ffast2d.frontend import (ShapeMismatch, alias_bin, alias_support_map,
                              chain_weights, run_frontend, stage_observations,
                              subsample_shifted, support_bin_groups)
from ffast2d.oracle import (ArraySource, ExponentialSumSource,
                            alias_sum_oracle, dense_dft_2d, gen_instance,
                            synthesize_dense)

WORKED_6X6 = {(1, 3): 7.0, (2, 0): 3.0, (2, 3): 5.0, (4, 0): 1.0}


def _worked_source():
    truth = SparseSpectrum.from_entries(Dims(6, 6), WORKED_6X6)
    return ExponentialSumSource(truth), truth


def _stage_6x6():
    return StageConfig.from_subsampling(Dims(6, 6), 3, 3,
                                        [(0, 0), (1, 0), (0, 1)])


def test_subsample_lattice_cells():
    # shift (1, 0) on a 3x3 decimation reads x[(3a+1) % 6][3b]
    x = np.arange(36, dtype=np.complex128).reshape(6, 6)
    src = ArraySource(x)
    stage = _stage_6x6()
    subsample_shifted(src, Dims(6, 6), stage, (1, 0))
    assert src.access_count == 4

    rows = (1 + 3 * np.arange(2)) % 6
    cols = (0 + 3 * np.arange(2)) % 6
    want = np.fft.fft2(x[np.ix_(rows, cols)]) / 4
    got = subsample_shifted(ArraySource(x), Dims(6, 6), stage, (1, 0))
    assert np.allclose(got, want, atol=1e-12)


def test_worked_example_anchor_grid():
    src, _ = _worked_source()
    got = subsample_shifted(src, Dims(6, 6), _stage_6x6(), (0, 0))
    assert np.allclose(got, [[4.0, 5.0], [0.0, 7.0]], atol=1e-9)


def test_identity_stage_recovers_full_spectrum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    stage = StageConfig.from_subsampling(Dims(6, 6), 1, 1, [(0, 0)])
    got = subsample_shifted(ArraySource(x), Dims(6, 6), stage, (0, 0))
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
    got = subsample_shifted(ArraySource(x), dims, stage, shift)
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("shift", [(0, 0), (1, 0), (0, 1), (4, 3)])
def test_frontend_matches_alias_oracle(shift):
    src, truth = _worked_source()
    stage = _stage_6x6()
    got = subsample_shifted(src, Dims(6, 6), stage, shift)
    want = alias_sum_oracle(truth, stage, shift)
    assert np.max(np.abs(got - want)) < 1e-9


def test_shift_weight_on_one_sparse_signal():
    dims = Dims(6, 6)
    truth = SparseSpectrum.from_entries(dims, {(4, 0): 1.0})
    src = ExponentialSumSource(truth)
    stage = _stage_6x6()
    anchor = subsample_shifted(src, dims, stage, (0, 0))
    shifted = subsample_shifted(src, dims, stage, (1, 0))
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


def test_alias_support_map_weights():
    dims = Dims(6, 6)
    stage = _stage_6x6()
    assert alias_bin(dims, stage, 4, 0) == (0, 0)
    b, w = alias_support_map(dims, stage, 4, 0)
    assert b == (0, 0)
    assert np.allclose(w, [1.0, np.exp(2j * np.pi * 4 / 6), 1.0], atol=1e-12)
    assert np.allclose(chain_weights(dims, stage, 2, 3),
                       [1.0, np.exp(2j * np.pi * 2 / 6),
                        np.exp(2j * np.pi * 3 / 6)], atol=1e-12)


def test_support_bin_groups_worked_example():
    stage = _stage_6x6()
    groups = support_bin_groups(stage, list(WORKED_6X6))
    assert groups[(0, 0)] == [(2, 0), (4, 0)]
    assert groups[(0, 1)] == [(2, 3)]
    assert groups[(1, 1)] == [(1, 3)]
    assert (1, 0) not in groups


def test_frontend_linearity():
    dims = Dims(12, 12)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    y = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    stage = StageConfig.from_subsampling(dims, 3, 4, [(0, 0)])
    fx = subsample_shifted(ArraySource(x), dims, stage, (2, 1))
    fy = subsample_shifted(ArraySource(y), dims, stage, (2, 1))
    fxy = subsample_shifted(ArraySource(x + 2 * y), dims, stage, (2, 1))
    assert np.allclose(fxy, fx + 2 * fy, atol=1e-10)


def test_stage_observations_stack_order():
    src, truth = _worked_source()
    stage = _stage_6x6()
    stack = stage_observations(src, Dims(6, 6), stage)
    for c, shift in enumerate(stage.shifts):
        want = alias_sum_oracle(truth, stage, shift)
        assert np.max(np.abs(stack[c] - want)) < 1e-9

import numpy as np
import pytest

from ffast2d.core import (Dims, FfastError, RobustParams, SparseSpectrum,
                          build_plan)
from ffast2d.crt import (DiagonalView, DimsNotCoprime, coprime_sparse_dft,
                         diag_freq_pair, good_thomas_forward,
                         good_thomas_reverse)
from ffast2d.oracle import (ExponentialSumSource, dense_dft_2d, gen_instance,
                            synthesize_dense)


def test_diag_readout_cells():
    dims = Dims(4, 5)
    x = np.arange(20, dtype=float).reshape(4, 5)
    vec = good_thomas_forward(x, dims)
    assert vec[0] == x[0][0]
    assert vec[1] == x[1][1]
    assert vec[7] == x[3][2]
    assert vec.shape == (20,)


def test_diag_readout_is_bijection():
    dims = Dims(4, 5)
    x = np.arange(20).reshape(4, 5)
    vec = good_thomas_forward(x, dims)
    assert sorted(vec.tolist()) == list(range(20))


def test_diag_readout_one_row_is_identity():
    dims = Dims(1, 9)
    x = np.arange(9).reshape(1, 9)
    assert np.array_equal(good_thomas_forward(x, dims), np.arange(9))


def test_diag_freq_maps_invert():
    dims = Dims(4, 5)
    assert diag_freq_pair((2 * 5 + 3 * 4) % 20, dims) == (2, 3)
    for f in range(20):
        u, v = diag_freq_pair(f, dims)
        assert (u * 5 + v * 4) % 20 == f
    pairs = {diag_freq_pair(f, dims) for f in range(20)}
    assert len(pairs) == 20


def test_delta_lands_on_mapped_frequency():
    # spatial delta at the diagonal point of t = 18 keeps a permuted spectrum
    dims = Dims(4, 5)
    x = np.zeros((4, 5), dtype=np.complex128)
    x[18 % 4, 18 % 5] = 1.0
    vec = good_thomas_forward(x, dims)
    assert vec[18] == 1.0 and np.count_nonzero(vec) == 1


@pytest.mark.parametrize("nx,ny", [(3, 4), (4, 5), (13, 14), (9, 25)])
def test_relabeled_1d_dft_matches_dense_2d(nx, ny):
    dims = Dims(nx, ny)
    rng = np.random.default_rng(nx * ny)
    x = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    spec1d = np.fft.fft(good_thomas_forward(x, dims)) / dims.n
    got = good_thomas_reverse(spec1d, dims)
    assert np.max(np.abs(got - dense_dft_2d(x))) < 1e-9


def test_reverse_of_constant_signal():
    # flat signal: all energy in 1D bin 0, which maps to 2D bin (0, 0)
    dims = Dims(3, 4)
    x = np.ones((3, 4), dtype=np.complex128)
    spec1d = np.fft.fft(good_thomas_forward(x, dims)) / dims.n
    grid = good_thomas_reverse(spec1d, dims)
    assert abs(grid[0, 0] - 1.0) < 1e-12
    assert np.max(np.abs(grid - dense_dft_2d(x))) < 1e-12


def test_reverse_of_row_harmonic():
    dims = Dims(4, 5)
    a = np.arange(4)[:, None]
    x = np.exp(2j * np.pi * a / 4) * np.ones((1, 5))
    spec1d = np.fft.fft(good_thomas_forward(x, dims)) / dims.n
    grid = good_thomas_reverse(spec1d, dims)
    want = np.zeros((4, 5), dtype=np.complex128)
    want[1, 0] = 1.0
    assert np.max(np.abs(grid - want)) < 1e-12


def test_forward_rejects_bad_inputs():
    with pytest.raises(DimsNotCoprime):
        good_thomas_forward(np.zeros((4, 6)), Dims(4, 6))
    with pytest.raises(ValueError):
        good_thomas_forward(np.zeros((4, 4)), Dims(4, 5))
    with pytest.raises(ValueError):
        good_thomas_reverse(np.zeros(19), Dims(4, 5))


def test_diagonal_view_matches_readout():
    dims = Dims(4, 5)
    inst = gen_instance(dims, 6, seed=3)
    dense = synthesize_dense(inst.truth)
    view = DiagonalView(inst.source)
    assert view.dims == Dims(1, 20)
    got = view.sample_grid([0], np.arange(20))[0]
    assert np.max(np.abs(got - good_thomas_forward(dense, dims))) < 1e-10


def _plan_1x20():
    return build_plan(Dims(1, 20), [4, 5], regime="very-sparse")


def test_coprime_sparse_dft_one_sparse():
    dims = Dims(4, 5)
    truth = SparseSpectrum.from_entries(dims, {(2, 3): 1.5 - 0.5j})
    got = coprime_sparse_dft(ExponentialSumSource(truth), dims, _plan_1x20())
    assert got.items() == truth.items() or (
        len(got) == 1 and abs(got.get(2, 3) - (1.5 - 0.5j)) < 1e-9)


def test_coprime_sparse_dft_zero_signal():
    dims = Dims(4, 5)
    truth = SparseSpectrum.from_entries(dims, {})
    got = coprime_sparse_dft(ExponentialSumSource(truth), dims, _plan_1x20())
    assert len(got) == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_coprime_sparse_dft_matches_dense_oracle(seed):
    dims = Dims(4, 5)
    inst = gen_instance(dims, 3, seed=seed)
    got = coprime_sparse_dft(inst.source, dims, _plan_1x20())
    want = dense_dft_2d(synthesize_dense(inst.truth))
    assert set(dict(got.items())) == set(dict(inst.truth.items()))
    for (u, v), val in got.items():
        assert abs(val - want[u, v]) < 1e-9


@pytest.mark.parametrize("nx,ny,k", [(4, 5, 3), (13, 14, 4)])
def test_coprime_sparse_dft_robust_plan_matches_noiseless(nx, ny, k):
    # at zero noise a robust 1-row plan gives the noiseless plan's spectrum
    dims = Dims(nx, ny)
    view = Dims(1, dims.n)
    plain = build_plan(view, [nx, ny], regime="very-sparse")
    robust = build_plan(view, [nx, ny], regime="very-sparse", mode="robust",
                        robust_params=RobustParams(reps=3, noise_var=0.0,
                                                   seed=1))
    for seed in range(20):
        source = gen_instance(dims, k, seed=seed).source
        want = coprime_sparse_dft(source, dims, plain)
        got = coprime_sparse_dft(source, dims, robust)
        assert len(want) and set(got.entries) == set(want.entries), seed
        assert all(abs(got.get(*loc) - val) <= 1e-9
                   for loc, val in want.items()), seed


def test_coprime_sparse_dft_validates_inputs():
    dims = Dims(4, 6)
    inst = gen_instance(dims, 2, seed=0)
    with pytest.raises(DimsNotCoprime):
        coprime_sparse_dft(inst.source, dims, _plan_1x20())
    good = gen_instance(Dims(4, 5), 2, seed=0)
    with pytest.raises(ValueError):
        coprime_sparse_dft(good.source, Dims(4, 5),
                           build_plan(Dims(1, 12), [3, 4],
                                      regime="very-sparse"))


def test_coprime_sparse_dft_refuses_a_failed_decode():
    # k = 12 on the 1x182 [13, 14] plan, seed 2: the decode stalls with
    # 8 of the 12 entries peeled, which is not the spectrum
    dims = Dims(13, 14)
    plan = build_plan(Dims(1, dims.n), [13, 14], regime="very-sparse")
    source = gen_instance(dims, 12, seed=2).source
    with pytest.raises(FfastError, match="not-a-singleton-loop.* 8 entries"):
        coprime_sparse_dft(source, dims, plan)

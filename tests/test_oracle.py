import cmath
import math

import numpy as np
import pytest

from ffast2d.core import Constellation, Dims, SparseSpectrum, StageConfig
from ffast2d.oracle import (ArraySource, ExponentialSumSource, KTooLarge,
                            NoisySource, add_noise, alias_sum_oracle,
                            dense_dft_2d, gen_instance, instance_snr,
                            synthesize_dense)

WORKED_6X6 = {(1, 3): 7.0, (2, 0): 3.0, (2, 3): 5.0, (4, 0): 1.0}


def _random_spectrum(dims, k, rng):
    flat = rng.choice(dims.n, size=k, replace=False)
    entries = {}
    for t in flat:
        u, v = divmod(int(t), dims.ny)
        entries[(u, v)] = complex(rng.normal(), rng.normal())
    return SparseSpectrum.from_entries(dims, entries)


def test_dense_delta_gives_flat_spectrum():
    x = np.zeros((5, 7), dtype=np.complex128)
    x[0, 0] = 1.0
    got = dense_dft_2d(x)
    assert np.allclose(got, np.full((5, 7), 1 / 35), atol=1e-12)


def test_dense_single_harmonic_is_delta():
    a = np.arange(5)[:, None]
    b = np.arange(7)[None, :]
    x = np.exp(2j * np.pi * (2 * a / 5 + 3 * b / 7))
    got = dense_dft_2d(x)
    want = np.zeros((5, 7), dtype=np.complex128)
    want[2, 3] = 1.0
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("nx,ny", [(4, 6), (8, 3), (16, 16), (9, 25)])
def test_dense_matches_fft_engine(nx, ny):
    rng = np.random.default_rng(nx * 100 + ny)
    x = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    want = np.fft.fft2(x) / (nx * ny)
    assert np.allclose(dense_dft_2d(x), want, atol=1e-9)


@pytest.mark.parametrize("nx,ny,k", [(6, 6, 4), (12, 5, 7), (32, 27, 20)])
def test_synthesis_analysis_round_trip(nx, ny, k):
    dims = Dims(nx, ny)
    rng = np.random.default_rng(7 * nx + ny)
    truth = _random_spectrum(dims, k, rng)
    got = dense_dft_2d(synthesize_dense(truth))
    want = np.zeros((nx, ny), dtype=np.complex128)
    for (u, v), val in truth.items():
        want[u, v] = val
    assert np.max(np.abs(got - want)) < 1e-10


def test_alias_fold_worked_example():
    dims = Dims(6, 6)
    truth = SparseSpectrum.from_entries(dims, WORKED_6X6)
    stage = StageConfig.from_subsampling(dims, 3, 3,
                                         [(0, 0), (1, 0), (0, 1)])
    got = alias_sum_oracle(truth, stage, (0, 0))
    assert np.allclose(got, [[4.0, 5.0], [0.0, 7.0]], atol=1e-12)


@pytest.mark.parametrize("shift", [(0, 0), (1, 0), (0, 1), (2, 5)])
def test_alias_fold_matches_per_term_sum(shift):
    dims = Dims(6, 6)
    truth = SparseSpectrum.from_entries(dims, WORKED_6X6)
    stage = StageConfig.from_subsampling(dims, 3, 3,
                                         [(0, 0), (1, 0), (0, 1)])
    want = np.zeros((2, 2), dtype=complex)
    for (u, v), val in truth.items():
        w = cmath.exp(2j * cmath.pi * (u * shift[0] / 6 + v * shift[1] / 6))
        want[u % 2, v % 2] += val * w
    got = alias_sum_oracle(truth, stage, shift)
    assert np.allclose(got, want, atol=1e-12)


def test_expsum_sample_matches_compensated_sum():
    dims = Dims(36, 20)
    rng = np.random.default_rng(3)
    truth = _random_spectrum(dims, 25, rng)
    src = ExponentialSumSource(truth)
    for a, b in [(0, 0), (1, 0), (17, 13), (35, 19), (41, -3)]:
        terms = [val * cmath.exp(2j * cmath.pi * ((a % 36) * u / 36
                                                  + (b % 20) * v / 20))
                 for (u, v), val in truth.items()]
        want = complex(math.fsum(t.real for t in terms),
                       math.fsum(t.imag for t in terms))
        assert abs(src.sample(a, b) - want) < 1e-12
    assert src.access_count == 5


def test_expsum_grid_fast_path_matches_dense():
    dims = Dims(24, 18)
    rng = np.random.default_rng(11)
    truth = _random_spectrum(dims, 15, rng)
    src = ExponentialSumSource(truth)
    dense = ArraySource(synthesize_dense(truth))
    # full arithmetic progressions, with and without offset
    for rows, cols in [(np.arange(0, 24, 3), np.arange(0, 18, 6)),
                       (np.arange(1, 24, 3) % 24, np.arange(5, 23, 6) % 18),
                       (np.arange(24), np.arange(18))]:
        got = src.sample_grid(rows, cols)
        want = dense.sample_grid(rows, cols)
        assert np.max(np.abs(got - want)) < 1e-10


def test_expsum_grid_general_path_matches_dense():
    dims = Dims(10, 9)
    rng = np.random.default_rng(12)
    truth = _random_spectrum(dims, 8, rng)
    src = ExponentialSumSource(truth)
    dense = ArraySource(synthesize_dense(truth))
    rows = np.array([0, 1, 3])
    cols = np.array([2, 4, 5, 8])
    assert np.max(np.abs(src.sample_grid(rows, cols)
                         - dense.sample_grid(rows, cols))) < 1e-10


def test_expsum_points_matches_dense():
    dims = Dims(8, 15)
    rng = np.random.default_rng(13)
    truth = _random_spectrum(dims, 6, rng)
    src = ExponentialSumSource(truth)
    dense = ArraySource(synthesize_dense(truth))
    aa = np.array([0, 3, 7, 5])
    bb = np.array([14, 0, 2, 9])
    assert np.max(np.abs(src.sample_points(aa, bb)
                         - dense.sample_points(aa, bb))) < 1e-10
    assert src.access_count == 4


def _lattice(start, step, count, n):
    return (start + step * np.arange(count)) % n


# 24x18 reads: lattices back to back, a rotated copy of a lattice (same
# cells, other order), exact repeats and a scattered index list
REPEATED_READS = [
    (np.concatenate([_lattice(0, 3, 8, 24), _lattice(1, 3, 8, 24),
                     _lattice(3, 3, 8, 24)]), _lattice(5, 6, 3, 18)),
    (_lattice(2, 3, 8, 24), np.concatenate([_lattice(0, 6, 3, 18),
                                            _lattice(5, 6, 3, 18),
                                            _lattice(0, 6, 3, 18)])),
    (np.concatenate([_lattice(1, 12, 2, 24)] * 3),
     np.concatenate([_lattice(4, 9, 2, 18), _lattice(13, 9, 2, 18)])),
    (np.array([2, 7, 2, 2, 30, 11]), np.array([3, 3, 17, -1, 0])),
]


@pytest.mark.parametrize("rows,cols", REPEATED_READS)
def test_sample_grid_with_repeats_matches_separate_reads(rows, cols):
    dims = Dims(24, 18)
    truth = _random_spectrum(dims, 15, np.random.default_rng(14))
    dense = synthesize_dense(truth)
    want = dense[np.ix_(rows % 24, cols % 18)]
    charge = len(rows) * len(cols)

    arr = ArraySource(dense)
    assert np.array_equal(arr.sample_grid(rows, cols), want)
    assert arr.access_count == charge

    src = ExponentialSumSource(truth)
    assert np.max(np.abs(src.sample_grid(rows, cols) - want)) < 1e-10
    assert src.access_count == charge

    # noise is a pure function of the cell: a read with repeats is
    # bit-identical to one read per cell, and the inner source is charged
    # the distinct cells only
    inner = ArraySource(dense)
    noisy = NoisySource(inner, sigma2=0.5, seed=9)
    got = noisy.sample_grid(rows, cols)
    assert noisy.access_count == charge
    distinct = len(set(rows % 24)) * len(set(cols % 18))
    assert inner.access_count == distinct
    cells = np.array([[noisy.sample(int(a), int(b)) for b in cols]
                      for a in rows])
    assert np.array_equal(got, cells)


def test_array_source_access_accounting():
    src = ArraySource(np.ones((4, 5)))
    src.sample(0, 0)
    src.sample_grid([0, 2], [1, 3, 4])
    src.sample_points([0, 1], [1, 2])
    assert src.access_count == 1 + 6 + 2


def test_gen_instance_deterministic():
    dims = Dims(60, 60)
    a = gen_instance(dims, 12, seed=5)
    b = gen_instance(dims, 12, seed=5)
    c = gen_instance(dims, 12, seed=6)
    assert a.truth.items() == b.truth.items()
    assert a.truth.items() != c.truth.items()
    assert len(a.truth) == 12


def test_gen_instance_edge_cases():
    dims = Dims(4, 5)
    assert len(gen_instance(dims, 0, seed=1).truth) == 0
    with pytest.raises(KTooLarge):
        gen_instance(dims, 21, seed=1)
    full = gen_instance(dims, 20, seed=1)
    assert len(full.truth) == 20


def test_gen_instance_constellation_membership():
    model = Constellation(rho=20.0, m1=2, m2=8)
    points = [mag * cmath.exp(1j * ph)
              for mag in model.magnitudes() for ph in model.phases()]
    inst = gen_instance(Dims(60, 60), 40, value_model=model, seed=2)
    for _, val in inst.truth.items():
        assert min(abs(val - p) for p in points) < 1e-12


def test_gen_instance_gaussian_model():
    inst = gen_instance(Dims(50, 50), 400, value_model="complex-gaussian",
                        seed=3)
    powers = [abs(v) ** 2 for _, v in inst.truth.items()]
    # unit mean power, 400 draws: mean of Exp(1) is within ~5 sigma
    assert abs(np.mean(powers) - 1.0) < 0.25


def test_noise_is_deterministic_per_cell():
    inner = ExponentialSumSource(SparseSpectrum.from_entries(Dims(16, 16), {}))
    noisy = NoisySource(inner, sigma2=1.0, seed=42)
    first = noisy.sample(3, 7)
    second = noisy.sample(3, 7)
    assert first == second
    rows, cols = np.arange(0, 16, 4), np.arange(0, 16, 4)
    grid = noisy.sample_grid(rows, cols)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            assert grid[i, j] == noisy.sample(int(a), int(b))


def test_noise_differs_across_seeds():
    inner = ExponentialSumSource(SparseSpectrum.from_entries(Dims(8, 8), {}))
    a = NoisySource(inner, sigma2=1.0, seed=1).sample(2, 2)
    b = NoisySource(inner, sigma2=1.0, seed=2).sample(2, 2)
    assert a != b


def test_noise_moments():
    dims = Dims(400, 250)
    inner = ExponentialSumSource(SparseSpectrum.from_entries(dims, {}))
    noisy = NoisySource(inner, sigma2=2.5, seed=7)
    z = noisy.sample_grid(np.arange(400), np.arange(250)).ravel()
    assert abs(np.mean(np.abs(z) ** 2) - 2.5) / 2.5 < 0.03
    assert abs(np.mean(z)) < 0.05 * math.sqrt(2.5)
    # circular symmetry: both quadratures carry half the power
    assert abs(np.var(z.real) - 1.25) / 1.25 < 0.05
    assert abs(np.var(z.imag) - 1.25) / 1.25 < 0.05


def test_add_noise_zero_sigma_is_identity():
    truth = SparseSpectrum.from_entries(Dims(6, 6), WORKED_6X6)
    src = ExponentialSumSource(truth)
    noisy = add_noise(src, 0.0, seed=3)
    rows, cols = np.arange(0, 6, 3), np.arange(0, 6, 3)
    assert np.array_equal(noisy.sample_grid(rows, cols),
                          src.sample_grid(rows, cols))


def test_instance_snr_plug_in():
    model = Constellation(rho=20.0, m1=2, m2=8)
    inst = gen_instance(Dims(300, 300), 3000, value_model=model, seed=9)
    want = model.mean_power() / 2.0
    assert abs(instance_snr(inst, 2.0) - want) / want < 0.05

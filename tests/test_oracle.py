import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ffast2d.core import (Constellation, Dims, PlanError, SparseSpectrum,
                          StageConfig)
from ffast2d.oracle import (DIRECT_SYNTHESIS_MAX, NOISE_BLOCK, ArraySource,
                            ExponentialSumSource, KTooLarge, NoisySource,
                            SignalSource, _first_seen, _noise_at,
                            _progression_length, alias_sum_oracle,
                            dense_dft_2d, gen_instance, instance_snr,
                            mean_power, synthesize_dense)

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
        assert abs(src.sample_points([a], [b])[0] - want) < 1e-12
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


@pytest.mark.parametrize("rows,cols,folded", [
    # 6 x 10 x 40 = 2,400 terms: synthesized directly
    (np.arange(0, 60, 10), np.arange(3, 60, 6), False),
    # 30 x 30 x 40 = 36,000 terms, two runs per axis: directly
    (np.concatenate([np.arange(0, 60, 4), np.arange(1, 60, 4)]),
     np.concatenate([np.arange(0, 60, 4), np.arange(2, 60, 4)]), False),
    # 40 x 45 x 40 = 72,000 terms, past the crossover: folded
    (np.concatenate([np.arange(0, 60, 3), np.arange(1, 60, 3)]),
     np.concatenate([np.arange(0, 60, 4), np.arange(5, 65, 4) % 60,
                     np.arange(2, 60, 4)]), True),
    # 60 x 60 x 40 = 144,000 terms, the whole grid: folded
    (np.arange(60), np.arange(60), True),
    # 50 x 60 x 40 terms, not full progressions: directly
    (np.arange(50), np.arange(60), False),
])
def test_expsum_grid_paths_match_dense_across_crossover(monkeypatch, rows,
                                                        cols, folded):
    dims = Dims(60, 60)
    truth = _random_spectrum(dims, 40, np.random.default_rng(14))
    src = ExponentialSumSource(truth)
    folds = []
    fold = ExponentialSumSource._folded

    def counting_fold(self, *args):
        folds.append(args)
        return fold(self, *args)

    monkeypatch.setattr(ExponentialSumSource, "_folded", counting_fold)
    if folded:
        assert len(rows) * len(cols) * len(truth) > DIRECT_SYNTHESIS_MAX
    got = src.sample_grid(rows, cols)
    want = synthesize_dense(truth)[np.ix_(rows, cols)]
    assert bool(folds) == folded
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
    # a read is charged every cell asked for, repeats included, and
    # returns its distinct rows by its distinct columns in first-seen order
    dims = Dims(24, 18)
    truth = _random_spectrum(dims, 15, np.random.default_rng(14))
    dense = synthesize_dense(truth)
    distinct_rows = list(dict.fromkeys((rows % 24).tolist()))
    distinct_cols = list(dict.fromkeys((cols % 18).tolist()))
    want = dense[np.ix_(distinct_rows, distinct_cols)]
    charge = len(rows) * len(cols)

    arr = ArraySource(dense)
    got = arr.sample_grid(rows, cols)
    assert got.shape == (len(distinct_rows), len(distinct_cols))
    assert np.array_equal(got, want)
    assert arr.access_count == charge

    src = ExponentialSumSource(truth)
    got = src.sample_grid(rows, cols)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-10
    assert src.access_count == charge

    # noise is a pure function of the cell: a read with repeats is
    # bit-identical to one read per distinct cell, and the inner source is
    # charged the distinct cells only
    inner = ArraySource(dense)
    noisy = NoisySource(inner, sigma2=0.5, seed=9)
    got = noisy.sample_grid(rows, cols)
    assert noisy.access_count == charge
    assert inner.access_count == want.size
    cells = np.array([[noisy.sample_points([a], [b])[0]
                       for b in distinct_cols] for a in distinct_rows])
    assert np.array_equal(got, cells)


NOT_1D_READS = [
    ("sample_points", [[0, 1], [2, 3]], [[0, 1], [2, 3]]),
    ("sample_points", 3, 4),
    ("sample_grid", [[0, 1], [2, 3]], [0, 1]),
    ("sample_grid", [0, 1], 2),
]


@pytest.mark.parametrize("reader,a,b", NOT_1D_READS)
@pytest.mark.parametrize("make", [
    lambda: ArraySource(np.arange(16.).reshape(4, 4)),
    lambda: ExponentialSumSource(
        SparseSpectrum.from_entries(Dims(4, 4), {(1, 2): 1.0, (3, 0): 2j})),
], ids=["array", "expsum"])
def test_readers_refuse_indices_that_are_not_1d(make, reader, a, b):
    # a reader charges len() of each index array, so it takes 1-D ones only
    src = make()
    with pytest.raises(ValueError, match=reader):
        getattr(src, reader)(a, b)
    assert src.access_count == 0


NOT_INTEGER_READS = [
    ("sample_grid", [0.5, 1.7], [0]),
    ("sample_grid", ["1"], [0]),
    ("sample_grid", [1], np.array([0.0])),
    ("sample_points", [2.9], [3.2]),
    ("sample_points", [True], [1]),
]


@pytest.mark.parametrize("reader,a,b", NOT_INTEGER_READS)
def test_readers_refuse_indices_that_are_not_integers(reader, a, b):
    # a fraction, a string or a bool is refused, not cast to a cell
    src = ArraySource(np.arange(16.).reshape(4, 4))
    with pytest.raises(ValueError, match="integer index arrays"):
        getattr(src, reader)(a, b)
    assert src.access_count == 0


def test_readers_take_integer_lists_and_arrays_and_empty_lists():
    x = np.arange(16.).reshape(4, 4)
    src = ArraySource(x)
    for rows in ([1, 3], np.array([1, 3], dtype=np.int32),
                 np.array([1, 3], dtype=np.uint8)):
        assert np.array_equal(src.sample_grid(rows, [0, 2]),
                              x[np.ix_([1, 3], [0, 2])])
        assert np.array_equal(src.sample_points(rows, [2, 2]), x[[1, 3], 2])
    assert src.sample_grid([], [0]).shape == (0, 1)
    assert src.sample_points([], []).shape == (0,)
    assert src.access_count == 3 * (4 + 2)


def test_sample_grid_reduces_unsigned_rows_above_2_63_modulo_n():
    # (2^63 + 1) mod 6 is 3; a cast to int64 first wraps it to row 5
    x = np.arange(36.).reshape(6, 6)
    src = ArraySource(x)
    rows = np.array([2 ** 63 + 1], dtype=np.uint64)
    assert np.array_equal(src.sample_grid(rows, [0]), x[[3]][:, [0]])


def test_sample_points_reduces_unsigned_rows_above_2_63_modulo_n():
    # (2^64 - 1) mod 6 is 3; a cast to int64 first wraps it to -1, row 5
    x = np.arange(36.).reshape(6, 6)
    src = ArraySource(x)
    rows = np.array([2 ** 64 - 1], dtype=np.uint64)
    assert np.array_equal(src.sample_points(rows, [1]), x[[3], [1]])


def test_base_source_has_no_read_of_its_own():
    # a source implements the two hooks; the base class has no fallback
    src = SignalSource(Dims(2, 3))
    with pytest.raises(NotImplementedError):
        src.sample_grid([0], [1])
    with pytest.raises(NotImplementedError):
        src.sample_points([0], [1])


def test_array_source_access_accounting():
    src = ArraySource(np.ones((4, 5)))
    src.sample_points([0], [0])
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
    points = [mag * cmath.exp(2j * math.pi * j / model.m2)
              for mag in model.magnitudes() for j in range(model.m2)]
    inst = gen_instance(Dims(60, 60), 40, value_model=model, seed=2)
    for _, val in inst.truth.items():
        assert min(abs(val - p) for p in points) < 1e-12


def test_gen_instance_gaussian_model():
    inst = gen_instance(Dims(50, 50), 400, value_model="complex-gaussian",
                        seed=3)
    powers = [abs(v) ** 2 for _, v in inst.truth.items()]
    # unit mean power, 400 draws: mean of Exp(1) is within ~5 sigma
    assert abs(np.mean(powers) - 1.0) < 0.25


def _gen_instance_per_entry_reference(dims, k, value_model, seed):
    # the per-entry generator, kept as the oracle: one draw call per value,
    # the truth through from_entries, the source arrays from sorted items
    rng = np.random.default_rng(seed)
    flat = rng.choice(dims.n, size=k, replace=False)
    entries = {}
    for t in np.sort(flat):
        u, v = divmod(int(t), dims.ny)
        if isinstance(value_model, Constellation):
            mags = value_model.magnitudes()
            mag = mags[rng.integers(len(mags))]
            phase = 2 * np.pi * rng.integers(value_model.m2) / value_model.m2
            val = mag * np.exp(1j * phase)
        elif value_model == "unit-circle":
            val = np.exp(2j * np.pi * rng.uniform())
        else:
            re, im = rng.normal(size=2)
            val = complex(re, im) / math.sqrt(2)
        entries[(u, v)] = val
    truth = SparseSpectrum.from_entries(dims, entries)
    items = truth.items()
    arrays = (np.array([u for (u, _), _ in items], dtype=np.int64),
              np.array([v for (_, v), _ in items], dtype=np.int64),
              np.array([val for _, val in items], dtype=np.complex128))
    return truth, arrays


GEN_MODELS = ["unit-circle", "complex-gaussian",
              Constellation(rho=20.0, m1=2, m2=8),
              Constellation(rho=3.0, m1=1, m2=1)]
GEN_SIZES = [((4, 5), 0), ((4, 5), 1), ((4, 5), 20), ((1, 31), 9),
             ((60, 60), 50), ((280, 280), 3821)]


@pytest.mark.parametrize("model", GEN_MODELS, ids=str)
def test_gen_instance_matches_per_entry_reference(model):
    for (nx, ny), k in GEN_SIZES:
        dims = Dims(nx, ny)
        for seed in range(5):
            inst = gen_instance(dims, k, model, seed)
            truth, (u, v, vals) = _gen_instance_per_entry_reference(
                dims, k, model, seed)
            assert list(inst.truth.entries.items()) == list(
                truth.entries.items())
            assert all(type(a) is int and type(b) is int
                       and type(val) is complex
                       for (a, b), val in inst.truth.entries.items())
            assert np.array_equal(inst.source._u, u)
            assert np.array_equal(inst.source._v, v)
            assert np.array_equal(inst.source._vals, vals)
            assert inst.source._u.dtype == np.int64
            assert inst.source._vals.dtype == np.complex128


def test_expsum_source_sorts_shuffled_entries():
    inst = gen_instance(Dims(60, 60), 200, "complex-gaussian", seed=8)
    items = list(inst.truth.entries.items())
    order = np.random.default_rng(4).permutation(len(items))
    shuffled = SparseSpectrum(inst.dims, dict(items[i] for i in order))
    assert list(shuffled.entries) != list(inst.truth.entries)
    src = ExponentialSumSource(shuffled)
    assert np.array_equal(src._u, inst.source._u)
    assert np.array_equal(src._v, inst.source._v)
    assert np.array_equal(src._vals, inst.source._vals)
    rows, cols = np.arange(0, 60, 4), np.arange(0, 60, 6)
    assert np.array_equal(src.sample_grid(rows, cols),
                          inst.source.sample_grid(rows, cols))


def _noise_reference(seed, flat, sigma2):
    # the field as one expression per step, which _noise_at computes in
    # place; it must give the same bits
    def mix(x):
        x = x.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return x

    base = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    idx = flat.astype(np.uint64)
    h1 = mix((idx << np.uint64(1)) + base + np.uint64(1))
    h2 = mix((idx << np.uint64(1)) + base + np.uint64(2))
    u1 = ((h1 >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    u2 = ((h2 >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    mag = np.sqrt(-sigma2 * np.log(u1))
    return mag * np.exp(2j * np.pi * u2)


@pytest.mark.parametrize("seed,sigma2", [(0, 1.0), (7, 0.37), (12345, 2.5),
                                         (2 ** 40 + 3, 1e-6)])
def test_noise_matches_reference_bit_for_bit(seed, sigma2):
    rng = np.random.default_rng(seed % 1000)
    flat = rng.integers(0, 2520 * 2520, size=20_000)
    for idx in (flat, flat.reshape(100, 200), np.arange(280 * 280)):
        got = _noise_at(seed, idx, sigma2)
        want = _noise_reference(seed, idx, sigma2)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_noise_is_deterministic_per_cell():
    inner = ExponentialSumSource(SparseSpectrum.from_entries(Dims(16, 16), {}))
    noisy = NoisySource(inner, sigma2=1.0, seed=42)
    first = noisy.sample_points([3], [7])[0]
    second = noisy.sample_points([3], [7])[0]
    assert first == second
    rows, cols = np.arange(0, 16, 4), np.arange(0, 16, 4)
    grid = noisy.sample_grid(rows, cols)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            assert grid[i, j] == noisy.sample_points([a], [b])[0]


@pytest.mark.parametrize("shape,rows,cols", [
    # more than one block of whole rows, and a last partial block
    ((512, 512), np.arange(512), np.arange(512)),
    # one row, and one column, longer than a block
    ((1, 3 * NOISE_BLOCK + 5), np.arange(1), np.arange(3 * NOISE_BLOCK + 5)),
    ((3 * NOISE_BLOCK + 5, 1), np.arange(3 * NOISE_BLOCK + 5), np.arange(1)),
    # a few rows of a long row each, with repeats and strides
    ((3, 2 * NOISE_BLOCK), np.array([2, 0, 2]),
     np.arange(0, 2 * NOISE_BLOCK, 3)),
    # nothing read
    ((8, 8), np.arange(0), np.arange(8)),
    ((8, 8), np.arange(8), np.arange(0)),
], ids=["512x512", "long-row", "long-column", "repeats", "no-rows",
        "no-cols"])
def test_noisy_grid_adds_its_noise_in_blocks_bit_for_bit(shape, rows, cols):
    # the blocks add each cell's noise in place, as one whole-grid sum did
    rng = np.random.default_rng(3)
    signal = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    noisy = NoisySource(ArraySource(signal), sigma2=0.7, seed=11)
    got = noisy.sample_grid(rows, cols)
    r, c = _first_seen(rows, shape[0]), _first_seen(cols, shape[1])
    want = signal[np.ix_(r, c)] + _noise_at(
        11, r[:, None] * shape[1] + c[None, :], 0.7)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert noisy.access_count == len(rows) * len(cols)


def _read_peak(source, rows, cols) -> tuple:
    """A grid read's result and the most memory it held, in bytes."""
    source.sample_grid(rows, cols)            # caches and tables warm
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grid = source.sample_grid(rows, cols)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return grid, peak


def test_noisy_read_of_an_array_holds_little_beyond_its_grid():
    # the gather is the grid; the noise goes into it a block at a time
    # (the whole-grid noise field held 4.5 times the grid)
    rng = np.random.default_rng(5)
    signal = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
    noisy = NoisySource(ArraySource(signal), sigma2=1.0, seed=2)
    grid, peak = _read_peak(noisy, np.arange(512), np.arange(512))
    assert peak <= 1.25 * grid.nbytes


def test_noisy_read_of_the_lazy_source_holds_little_beyond_its_grid():
    # criterion 8's stage-0 read of 280 x 56 cells (5,992 rows charged):
    # the fold sums into the grid it returns and transforms it in place
    from ffast2d.core import RobustParams, build_plan
    from ffast2d.frontend import stage_lattices

    dims = Dims(280, 280)
    plan = build_plan(dims, [25, 64, 49], "less-sparse", mode="robust",
                      robust_params=RobustParams(1, 5, 1.0, 8))
    rows, cols = stage_lattices(dims, plan.stages[0]).reads[0][:2]
    rho = 10 ** 1.3 / Constellation(1.0, 2, 8).mean_power()
    inst = gen_instance(dims, 50, Constellation(rho, 2, 8), seed=900)
    grid, peak = _read_peak(NoisySource(inst.source, 1.0, seed=0), rows,
                            cols)
    assert grid.shape == (280, 56)
    assert peak <= 2 * grid.nbytes


def test_reads_share_no_memory_with_their_source():
    # a read is the caller's to write: NoisySource adds into it in place
    from ffast2d.crt import DiagonalView

    dims = Dims(60, 60)
    truth = _random_spectrum(dims, 40, np.random.default_rng(8))
    signal = synthesize_dense(truth)
    kept = signal.copy()
    array = ArraySource(signal)
    lazy = ExponentialSumSource(truth)
    full, some = np.arange(60), np.array([3, 7, 7, 11])
    reads = [(array, full, full), (array, some, some),
             (lazy, full, full), (lazy, some, some)]
    for inner in (array, lazy):
        noisy = NoisySource(inner, sigma2=1.0, seed=4)
        reads += [(noisy, full, full), (noisy, some, full)]
    view = DiagonalView(ExponentialSumSource(SparseSpectrum.from_entries(
        Dims(4, 9), {(1, 2): 1.0})))
    reads += [(view, np.arange(1), np.arange(36))]
    storage = [signal, lazy._u, lazy._v, lazy._vals, lazy._rx, lazy._ry,
               view.inner._vals, view.inner._rx, view.inner._ry]
    for source, rows, cols in reads:
        grid = source.sample_grid(rows, cols)
        assert grid.flags.writeable
        assert not any(np.shares_memory(grid, kept_array)
                       for kept_array in storage)
    assert np.array_equal(signal, kept)


def test_noise_differs_across_seeds():
    inner = ExponentialSumSource(SparseSpectrum.from_entries(Dims(8, 8), {}))
    a = NoisySource(inner, sigma2=1.0, seed=1).sample_points([2], [2])[0]
    b = NoisySource(inner, sigma2=1.0, seed=2).sample_points([2], [2])[0]
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
    noisy = NoisySource(src, 0.0, seed=3)
    rows, cols = np.arange(0, 6, 3), np.arange(0, 6, 3)
    assert np.array_equal(noisy.sample_grid(rows, cols),
                          src.sample_grid(rows, cols))


@pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0])
def test_noisy_source_refuses_bad_sigma2(sigma2):
    # a NaN variance would turn every sample into nan+nanj
    src = ExponentialSumSource(SparseSpectrum.from_entries(Dims(6, 6),
                                                           WORKED_6X6))
    with pytest.raises(ValueError, match="sigma2"):
        NoisySource(src, sigma2, seed=0)


@pytest.mark.parametrize("seed", [1.5, 1.0, "1"])
def test_noisy_source_refuses_a_seed_that_is_not_an_integer(seed):
    # seed 1.5 used to be read as 1, and gave seed 1's noise
    src = ExponentialSumSource(SparseSpectrum.from_entries(Dims(6, 6),
                                                           WORKED_6X6))
    with pytest.raises(PlanError, match="seed is not an integer"):
        NoisySource(src, 1.0, seed=seed)
    assert NoisySource(src, 1.0, seed=np.int64(1)).seed == 1


def test_progression_length_of_short_and_broken_runs():
    # a read of 0 or 1 index is its own run; runs that do not step by
    # n // m all the way are no progressions, so the read is not folded
    assert _progression_length(np.array([], dtype=np.int64), 10) == 0
    assert _progression_length(np.array([7]), 10) == 1
    assert _progression_length(np.array([3, 5, 7, 9, 1]), 10) == 5
    assert _progression_length(np.array([0, 2, 4, 6, 9]), 10) == 0
    assert _progression_length(np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 9]),
                               10) == 0


@pytest.mark.parametrize("model", ["unit-circle", "complex-gaussian",
                                   Constellation(rho=20.0, m1=2, m2=8)])
def test_gen_instance_source_equals_source_from_spectrum(model):
    # gen_instance hands its sorted arrays to the source directly
    for dims, k, seed in [(Dims(280, 280), 3821, 1), (Dims(60, 40), 200, 5),
                          (Dims(7, 5), 35, 2), (Dims(6, 6), 0, 0)]:
        inst = gen_instance(dims, k, model, seed)
        built = ExponentialSumSource(inst.truth)
        for name in ("_u", "_v", "_vals"):
            got, want = getattr(inst.source, name), getattr(built, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert inst.source.dims == dims and inst.source.access_count == 0


def test_mean_power():
    spectrum = SparseSpectrum.from_entries(Dims(6, 6), WORKED_6X6)
    assert mean_power(spectrum) == (49 + 9 + 25 + 1) / 4
    assert mean_power(SparseSpectrum.from_entries(Dims(6, 6), {})) == 0.0


def test_instance_snr_plug_in():
    model = Constellation(rho=20.0, m1=2, m2=8)
    inst = gen_instance(Dims(300, 300), 3000, value_model=model, seed=9)
    want = model.mean_power() / 2.0
    assert abs(instance_snr(inst, 2.0) - want) / want < 0.05


def _first_seen_unique_reference(idx, n):
    # the np.unique + argsort version, kept as the oracle
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) == len(idx):
        return idx
    _, first = np.unique(idx, return_index=True)
    return idx[np.sort(first)]


def _first_seen_cases():
    rng = np.random.default_rng(31)
    cases = [(np.array([], dtype=np.int64), 5), (np.array([3]), 4),
             (np.array([0]), 1), (np.full(7, 2), 3), (np.full(40, 0), 1),
             (np.array([4, 1, 4, 0, 1, 4]), 5)]
    for n in (2, 7, 56, 280):
        cases.append((rng.permutation(n)[:max(1, n // 2)], n))
        cases.append((rng.integers(n, size=3 * n + 1), n))
        cases.append((np.tile(rng.permutation(n), 3), n))
    return [(np.asarray(idx, dtype=np.int64), n) for idx, n in cases]


@pytest.mark.parametrize("idx,n", _first_seen_cases())
def test_first_seen_matches_unique_reference(idx, n):
    got = _first_seen(idx, n)
    want = _first_seen_unique_reference(idx, n)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype

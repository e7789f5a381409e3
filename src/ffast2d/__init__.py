"""Sparse 2D DFT via co-prime subsampling, aliasing and peeling decoding."""

from .core import (Constellation, DecodeReport, Dims, FfastError, FfastPlan,
                   MODE_NOISELESS, MODE_ROBUST, NoValidSplit, NotCoprime,
                   PlanError, ProductMismatch, REGIME_LESS_SPARSE,
                   REGIME_VERY_SPARSE, RobustParams, SparseSpectrum,
                   STATUS_NOT_A_SINGLETON_LOOP, STATUS_RESIDUAL_LEFT,
                   STATUS_SUCCESS, StageConfig, bit_levels, build_plan,
                   noiseless_shifts, plan_eta, plan_from_json,
                   plan_sample_budget, plan_to_json, robust_chain_count)
from .oracle import (ArraySource, ExponentialSumSource, Instance, KTooLarge,
                     NoisySource, SignalSource, VALUE_COMPLEX_GAUSSIAN,
                     VALUE_UNIT_CIRCLE, add_noise, alias_sum_oracle,
                     dense_dft_2d, gen_instance, instance_snr,
                     synthesize_dense)
from .frontend import (BinObservation, NonFiniteSample, ShapeMismatch,
                       alias_bin, chain_weights, run_frontend,
                       stage_observations)
from .peeler import (BinClass, KIND_MULTI_TON, KIND_SINGLETON, KIND_ZERO_TON,
                     WrongShiftLayout, decode, ratio_estimates, ratio_test)
from .robust import (design_shifts, estimate_noise_variance, robust_classify,
                     robust_decode)
from .crt import (CrtBasis, DiagonalView, DimsNotCoprime, ResidueOutOfRange,
                  coprime_sparse_dft, crt_reconstruct, diag_freq_index,
                  diag_freq_pair, good_thomas_forward, good_thomas_reverse)

__version__ = "0.1.0"

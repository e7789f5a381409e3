"""Seeded decodes and robust plans pinned to recorded outcomes.

Each case is one seeded decode whose status, round count, first-pass bin
statistics, charged and distinct reads and recovered support are written
down here. A change that claims to leave decoding alone must keep every
one of them; the support is compared through a sha256 of its sorted
locations. A grid of robust plans is pinned the same way, through a
sha256 of their plan documents.
"""

import hashlib
import math

import pytest

from ffast2d.core import (Constellation, Dims, PlanError, RobustParams,
                          build_plan, plan_from_json, plan_to_json)
from ffast2d.oracle import NoisySource, gen_instance
from ffast2d.peeler import decode
from ffast2d.robust import robust_decode


def _stats(*rows):
    return [{"zero-ton": z, "singleton": s, "multi-ton": m} for z, s, m in rows]


def _lsparse_280():
    dims = Dims(280, 280)
    plan = build_plan(dims, [25, 64, 49], "less-sparse")
    return decode(gen_instance(dims, 3821, seed=1).source, plan)


def _vsparse_2520():
    dims = Dims(2520, 2520)
    plan = build_plan(dims, [81, 25, 49, 64], "very-sparse")
    return decode(gen_instance(dims, 100, seed=1).source, plan)


def _robust_280():
    # criterion 8's plan and instance model at 13 dB
    dims = Dims(280, 280)
    rho = 10 ** 1.3 / Constellation(1.0, 2, 8).mean_power()
    plan = build_plan(dims, [25, 64, 49], "less-sparse", "robust",
                      RobustParams(chains_per_dim=1, reps=5, noise_var=1.0,
                                   seed=8))
    inst = gen_instance(dims, 50, Constellation(rho, 2, 8), seed=900)
    return decode(NoisySource(inst.source, 1.0, seed=0), plan,
                  min_magnitude=math.sqrt(rho) / 4)


def _worked_30():
    dims = Dims(30, 30)
    return decode(gen_instance(dims, 15, seed=77).source,
                  build_plan(dims, [4, 9, 25]))


def _robust_60():
    dims = Dims(60, 60)
    plan = build_plan(dims, [16, 9, 25], "very-sparse", "robust",
                      RobustParams(chains_per_dim=1, reps=3, noise_var=0.01,
                                   seed=5))
    inst = gen_instance(dims, 12, Constellation(1.0, 2, 8), seed=0)
    return decode(NoisySource(inst.source, 0.01, seed=50), plan,
                  min_magnitude=0.25)


RECORDS = [
    (_lsparse_280, "success", 6,
     _stats((921, 1113, 1102), (51, 166, 1008), (134, 363, 1103)),
     17_883, 16_668, 3821,
     "5ff732323c98ffa8f22d5ea42e9b9e5cf65db97a6de2ba49180f489d2748f46c"),
    (_vsparse_2520, "success", 3,
     _stats((25, 29, 27), (0, 1, 24), (4, 17, 28), (15, 19, 30)),
     657, 648, 100,
     "7bdbea4253f55c1b80b3fa2c34743f2b2b3ee5e3973ea90b18895df4f24d5f85"),
    (_robust_280, "success", 2,
     _stats((3086, 48, 2), (1176, 46, 3), (1551, 48, 1)),
     1_078_941, 50_176, 50,
     "63237ed3646a46a3d85a7d3b3f171d1af12ea3c3246a22ca2724a15db0ffb449"),
    (_worked_30, "success", 2,
     _stats((211, 13, 1), (86, 13, 1), (22, 13, 1)),
     1083, 768, 15,
     "fe1cd7d535893cf919d2b44e7bb6e0e1e6b9b8ccb5cbd84d874c31872b3a5745"),
    (_robust_60, "success", 3,
     _stats((9, 3, 4), (3, 3, 3), (17, 5, 3)),
     3650, 1090, 12,
     "4ae9151a3d9d9386631b12a84d6df1602a20107d8a69dd522dc6b1ff92b7238c"),
]


@pytest.mark.parametrize(
    "run,status,rounds,bin_stats,touched,distinct,k,support", RECORDS,
    ids=[r[0].__name__.lstrip("_") for r in RECORDS])
def test_seeded_decode_matches_its_record(run, status, rounds, bin_stats,
                                          touched, distinct, k, support):
    report = run()
    assert report.status == status
    assert report.peel_iterations == rounds
    assert report.bin_stats == bin_stats
    assert report.samples_touched == touched
    assert report.distinct_cells == distinct
    assert len(report.spectrum) == k
    locations = repr(sorted(report.spectrum.entries)).encode()
    assert hashlib.sha256(locations).hexdigest() == support


def test_robust_decode_is_decode():
    # one decode for both modes; the robust records above go through it
    assert robust_decode is decode


PLAN_GRID = [((60, 60), [16, 9, 25]), ((280, 280), [25, 64, 49]),
             ((2520, 2520), [81, 25, 49, 64]), ((1, 20), [4, 5]),
             ((1, 182), [13, 14])]
PLAN_GRID_SHA256 = (
    "d15b56ec0dc3f875787ed31c6dca99a729a372a228ec135185ee821350f2fbd2")


def test_robust_plans_match_their_record():
    # every regime, reps 1, 3 and 5 and design seeds 0-3 of each grid;
    # each plan must also read back from its own document
    docs = []
    for (nx, ny), factors in PLAN_GRID:
        for regime in ("less-sparse", "very-sparse"):
            for reps in (1, 3, 5):
                for seed in range(4):
                    try:
                        plan = build_plan(
                            Dims(nx, ny), factors, regime, "robust",
                            RobustParams(reps=reps, noise_var=1.0, seed=seed))
                    except PlanError:
                        continue
                    docs.append(plan_to_json(plan))
                    assert plan_from_json(docs[-1]) == plan
    assert len(docs) == 120
    digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
    assert digest == PLAN_GRID_SHA256

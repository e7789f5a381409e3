import dataclasses
import json

import numpy as np
import pytest

from ffast2d.core import (Constellation, Dims, FfastPlan, PlanError,
                          RobustParams, SparseSpectrum, StageConfig,
                          bit_levels, build_plan, noiseless_shifts, plan_eta,
                          plan_from_json, plan_sample_budget, plan_to_json,
                          robust_pairs)


def test_dims_product():
    d = Dims(6, 35)
    assert d.n == 210


@pytest.mark.parametrize("nx,ny", [(0, 4), (4, 0), (-1, 3)])
def test_dims_rejects_nonpositive(nx, ny):
    with pytest.raises(PlanError):
        Dims(nx, ny)


@pytest.mark.parametrize("nx,ny", [(30.0, 30.0), (30, 1.5), ("30", 30)])
def test_dims_refuse_values_that_are_not_integers(nx, ny):
    # read through operator.index, not cast: 30.0 is refused like 1.5
    with pytest.raises(PlanError, match="is not an integer"):
        Dims(nx, ny)
    assert Dims(np.int64(30), np.int32(30)) == Dims(30, 30)


def test_build_plan_refuses_a_factor_that_is_not_an_integer():
    # int() would have built the [4, 9, 25] plan from 4.5
    with pytest.raises(PlanError, match=r"a factor is not an integer: 4\.5"):
        build_plan(Dims(30, 30), [4.5, 9, 25])
    assert (build_plan(Dims(30, 30), np.array([4, 9, 25])).stages
            == build_plan(Dims(30, 30), [4, 9, 25]).stages)


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), -float("inf")])
def test_constellation_refuses_a_rho_that_is_not_finite_and_positive(rho):
    with pytest.raises(ValueError, match="rho"):
        Constellation(rho, 2, 8)


def test_constellation_levels():
    c = Constellation(rho=4.0, m1=2, m2=4)
    # sqrt(rho) = 2: magnitudes 1, 2, 3
    assert c.magnitudes() == pytest.approx([1.0, 2.0, 3.0])
    assert c.mean_power() == pytest.approx(4.0 * (0.25 + 1.0 + 2.25) / 3)


def test_noiseless_shift_layouts():
    assert noiseless_shifts(Dims(6, 6)) == ((0, 0), (1, 0), (0, 1))
    assert noiseless_shifts(Dims(1, 20)) == ((0, 0), (0, 1))
    assert noiseless_shifts(Dims(20, 1)) == ((0, 0), (1, 0))


def test_build_plan_6x6():
    plan = build_plan(Dims(6, 6), [9, 4])
    assert [(s.sub_x, s.sub_y) for s in plan.stages] == [(3, 3), (2, 2)]
    assert plan.bin_counts == [4, 9]
    assert all(s.shifts == ((0, 0), (1, 0), (0, 1)) for s in plan.stages)
    assert plan_sample_budget(plan) == 39


def test_build_plan_280_less_sparse():
    plan = build_plan(Dims(280, 280), [25, 64, 49])
    assert [(s.sub_x, s.sub_y) for s in plan.stages] == [(5, 5), (8, 8), (7, 7)]
    assert [(s.bins_x, s.bins_y) for s in plan.stages] == [(56, 56), (35, 35),
                                                           (40, 40)]
    assert plan_sample_budget(plan) == 17883


def test_build_plan_2520_very_sparse():
    plan = build_plan(Dims(2520, 2520), [81, 25, 49, 64],
                      regime="very-sparse")
    assert [(s.bins_x, s.bins_y) for s in plan.stages] == [(9, 9), (5, 5),
                                                           (7, 7), (8, 8)]
    assert plan_sample_budget(plan) == 657
    assert plan_eta(plan, 100) == pytest.approx(0.5475)


def test_build_plan_single_stage_of_one_bin_rejected():
    # factors of length 1 never describe a usable plan
    with pytest.raises(PlanError):
        build_plan(Dims(6, 6), [36])


@pytest.mark.parametrize("regime", ["less-sparse", "very-sparse"])
def test_build_plan_4x5_has_no_split(regime):
    with pytest.raises(PlanError, match="no bin grid"):
        build_plan(Dims(4, 5), [4, 5], regime=regime)


def test_build_plan_one_row_grid_splits():
    plan = build_plan(Dims(1, 20), [4, 5], regime="very-sparse")
    assert [(s.bins_x, s.bins_y) for s in plan.stages] == [(1, 4), (1, 5)]
    assert all(s.shifts == ((0, 0), (0, 1)) for s in plan.stages)


def test_build_plan_rejects_shared_divisor():
    with pytest.raises(PlanError, match="share a divisor"):
        build_plan(Dims(12, 12), [6, 24])


def test_build_plan_rejects_product_mismatch():
    with pytest.raises(PlanError, match="factor product"):
        build_plan(Dims(6, 6), [4, 5])


def test_build_plan_factor_errors_keep_their_order():
    # a unit factor is reported before a shared divisor, and a shared
    # divisor before a wrong product
    with pytest.raises(PlanError, match=">= 2"):
        build_plan(Dims(12, 12), [1, 6, 4])
    with pytest.raises(PlanError, match="share a divisor"):
        build_plan(Dims(12, 12), [6, 4])


def test_build_plan_rejects_unit_factor():
    with pytest.raises(PlanError, match=">= 2"):
        build_plan(Dims(6, 6), [1, 36])


def test_split_prefers_smallest_row_count():
    # bin count 8 on a 6x12 grid: 1x8 does not tile, first fit is 2x4
    plan = build_plan(Dims(6, 12), [8, 9], regime="very-sparse")
    assert (plan.stages[0].bins_x, plan.stages[0].bins_y) == (2, 4)
    assert (plan.stages[1].bins_x, plan.stages[1].bins_y) == (3, 3)


def test_very_sparse_regime_uses_single_factors():
    plan = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse")
    assert plan.bin_counts == [16, 9, 25]
    less = build_plan(Dims(60, 60), [16, 9, 25], regime="less-sparse")
    assert less.bin_counts == [225, 400, 144]


def test_stage_config_divisibility():
    with pytest.raises(PlanError, match="does not divide"):
        StageConfig.from_subsampling(Dims(6, 6), 4, 2, [(0, 0)])


def test_stage_config_refuses_a_fractional_shift():
    # a fractional shift is refused, not truncated; pairs of integers in
    # any sequence are kept as int pairs
    with pytest.raises(PlanError, match=r"\(1\.5, 0\)"):
        StageConfig.from_subsampling(Dims(6, 6), 3, 3,
                                     [(0, 0), (1.5, 0), (0, 1)])
    with pytest.raises(PlanError, match="got 5"):
        StageConfig(3, 3, 2, 2, 5)
    stage = StageConfig(3, 3, 2, 2, [[0, 0], (1, 0), np.array([0, 1])])
    assert stage.shifts == ((0, 0), (1, 0), (0, 1))
    assert all(type(s) is int for shift in stage.shifts for s in shift)


def test_robust_plan_refuses_a_one_element_shift():
    # a y-pair chain with no y is refused before the layout check reads it
    dims = Dims(60, 60)
    params = RobustParams(reps=1, noise_var=1.0, seed=3)
    plan = build_plan(dims, [16, 9, 25], "very-sparse", "robust", params)
    c = 2 * [axis for axis, _, _ in robust_pairs(dims, params)].index(1) + 1
    stage = plan.stages[0]
    shifts = list(stage.shifts)
    shifts[c] = (shifts[c][1],)
    with pytest.raises(PlanError, match="pair of integers"):
        FfastPlan(dims, (dataclasses.replace(stage, shifts=tuple(shifts)),)
                  + plan.stages[1:], plan.mode, params)


def test_validate_rejects_noiseless_layout_drift():
    plan = build_plan(Dims(6, 6), [9, 4])
    bad = plan.stages[0].__class__(3, 3, 2, 2, ((0, 0), (2, 0), (0, 1)))
    with pytest.raises(PlanError):
        plan.__class__(plan.dims, (bad, plan.stages[1]), plan.mode)


def test_replacing_a_stage_revalidates_the_plan():
    # a plan is valid by construction, dataclasses.replace included
    plan = build_plan(Dims(6, 6), [9, 4])
    bad = dataclasses.replace(plan.stages[0], shifts=((0, 0), (2, 0), (0, 1)))
    with pytest.raises(PlanError, match="shift list"):
        dataclasses.replace(plan, stages=(bad, plan.stages[1]))


def test_validate_rejects_a_stage_that_does_not_subsample():
    # build_plan never makes one; a hand-made plan must not slip through,
    # or its (0, 0) and (1, 0) chains would read one lattice
    dims = Dims(4, 9)
    shifts = noiseless_shifts(dims)
    stages = (StageConfig.from_subsampling(dims, 1, 9, shifts),
              StageConfig.from_subsampling(dims, 4, 1, shifts))
    with pytest.raises(PlanError, match="unsubsampled"):
        FfastPlan(dims, stages).validate()


def test_validate_refuses_an_unknown_mode():
    plan = build_plan(Dims(6, 6), [9, 4])
    with pytest.raises(PlanError, match="unknown mode 'fast'"):
        FfastPlan(plan.dims, plan.stages, "fast")


def test_validate_refuses_periods_that_do_not_tile():
    # 2 x 2 periods of 2 x 3 bins cover 4 x 6 cells, not 6 x 6
    plan = build_plan(Dims(6, 6), [9, 4])
    bad = StageConfig(2, 2, 2, 3, noiseless_shifts(Dims(6, 6)))
    with pytest.raises(PlanError, match="do not tile"):
        FfastPlan(plan.dims, (bad, plan.stages[1]))


def test_validate_refuses_bin_counts_with_no_coprime_split():
    # two 9-bin stages on 6x6: [9, 9] shares a divisor, and so does the
    # less-sparse reading [4, 4]
    dims = Dims(6, 6)
    stage = StageConfig.from_subsampling(dims, 2, 2, noiseless_shifts(dims))
    with pytest.raises(PlanError, match=r"\[9, 9\] do not realize"):
        FfastPlan(dims, (stage, stage))


def test_build_plan_refuses_an_unknown_regime():
    with pytest.raises(PlanError, match="unknown regime 'dense'"):
        build_plan(Dims(6, 6), [9, 4], "dense")


def test_build_plan_gives_a_robust_plan_default_params():
    plan = build_plan(Dims(60, 60), [16, 9, 25], "very-sparse", "robust")
    assert plan.robust_params == RobustParams()
    assert plan == build_plan(Dims(60, 60), [16, 9, 25], "very-sparse",
                              "robust", RobustParams())


@pytest.mark.parametrize("field,value", [("chains_per_dim", 2.5),
                                         ("reps", 3.0), ("seed", 1.5),
                                         ("seed", "1")])
def test_robust_params_refuse_integers_that_are_not_integers(field, value):
    # chains_per_dim 2.5 and seed 1.5 used to pass, and build_plan then
    # raised a TypeError
    with pytest.raises(PlanError, match="%s is not an integer" % field):
        RobustParams(**{field: value})


@pytest.mark.parametrize("m1,m2", [(2.5, 8), (2, 8.0)])
def test_constellation_refuses_levels_that_are_not_integers(m1, m2):
    # Constellation(1.0, 2.5, 8) used to pass, and magnitudes() then
    # raised a TypeError
    with pytest.raises(PlanError, match="is not an integer"):
        Constellation(1.0, m1, m2)


def test_bit_levels():
    assert [bit_levels(n) for n in (1, 2, 3, 8, 9, 280)] == [0, 1, 2, 3, 4, 9]


def test_robust_chain_count_8x8():
    # an anchor and one pair per axis and bit level: 1 + 2 * (3 + 3)
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=1.0)
    assert 1 + 2 * len(robust_pairs(Dims(8, 8), params)) == 13


def test_robust_params_validation():
    with pytest.raises(ValueError):
        RobustParams(reps=0)
    with pytest.raises(ValueError):
        RobustParams(noise_var=-1.0)
    # a NaN noise_var used to pass `< 0` and be written into plan files
    for bad in ({"noise_var": float("nan")}, {"noise_var": float("inf")}):
        with pytest.raises(ValueError):
            RobustParams(**bad)


def test_robust_plan_chain_counts():
    params = RobustParams(chains_per_dim=1, reps=1, noise_var=1.0)
    plan = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse",
                      mode="robust", robust_params=params)
    want = 1 + 2 * len(robust_pairs(Dims(60, 60), params))
    assert want == 25
    assert all(len(s.shifts) == want for s in plan.stages)
    assert all(s.shifts[0] == (0, 0) for s in plan.stages)


def test_plan_json_round_trip():
    plan = build_plan(Dims(280, 280), [25, 64, 49])
    text = plan_to_json(plan, indent=2)
    again = plan_from_json(text)
    assert again == plan
    doc = json.loads(text)
    assert doc["nx"] == 280 and doc["mode"] == "noiseless"
    assert len(doc["stages"]) == 3


def test_plan_json_round_trip_robust():
    params = RobustParams(chains_per_dim=2, reps=3, noise_var=0.5, seed=9)
    plan = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse",
                      mode="robust", robust_params=params)
    assert plan_from_json(plan_to_json(plan)) == plan
    assert set(json.loads(plan_to_json(plan))["robust"]) == {
        "chains_per_dim", "reps", "noise_var", "seed"}


def test_plan_json_round_trip_with_numpy_integers():
    # Dims, StageConfig and RobustParams keep their integers as ints, so
    # plans built from numpy integers write and read back like any other
    plain = build_plan(Dims(np.int64(6), 6), [9, 4])
    dims = Dims(6, 6)
    periods = FfastPlan(dims, tuple(
        StageConfig.from_subsampling(dims, np.int64(p), np.int32(p),
                                     noiseless_shifts(dims))
        for p in (3, 2)))
    params = RobustParams(chains_per_dim=np.int32(1), reps=np.int64(3),
                          seed=np.uint8(2))
    robust = build_plan(Dims(60, np.int64(60)), [16, 9, 25],
                        regime="very-sparse", mode="robust",
                        robust_params=params)
    assert type(plain.dims.nx) is int
    assert {type(getattr(st, f)) for st in periods.stages
            for f in ("sub_x", "sub_y", "bins_x", "bins_y")} == {int}
    assert [type(getattr(params, f)) for f in ("chains_per_dim", "reps",
                                               "seed")] == [int] * 3
    for plan in (plain, periods, robust):
        assert plan_from_json(plan_to_json(plan)) == plan
    assert plan_from_json(plan_to_json(plain)).dims == Dims(6, 6)
    assert plan_from_json(plan_to_json(periods)) == build_plan(dims, [9, 4])


@pytest.mark.parametrize("sub", [3.0, 1.5, "3", None])
def test_stage_periods_that_are_not_integers_are_refused(sub):
    # read through operator.index, as Dims reads its extents: a period of
    # 3.0 is refused with a PlanError rather than failing later in the plan
    dims = Dims(6, 6)
    shifts = noiseless_shifts(dims)
    with pytest.raises(PlanError, match="sub_x is not an integer"):
        StageConfig.from_subsampling(dims, sub, 3, shifts)
    with pytest.raises(PlanError, match="bins_y is not an integer"):
        StageConfig(2, 2, 3, sub, shifts)


# a robust plan document as written while the classifier's slacks were
# still plan parameters
OLD_ROBUST_DOC = (
    '{"mode": "robust", "nx": 6, "ny": 6, "robust": {"chains_per_dim": 1, '
    '"gamma_single": 0.5, "gamma_zero": 0.5, "noise_var": 0.25, "reps": 1, '
    '"seed": 3}, "stages": [{"shifts": [[0, 0], [4, 0], [5, 0], [1, 0], '
    '[3, 0], [1, 0], [5, 0], [0, 1], [0, 2], [0, 3], [0, 5], [0, 3], '
    '[0, 1]], "sub_x": 3, "sub_y": 3}, {"shifts": [[0, 0], [4, 0], [5, 0], '
    '[1, 0], [3, 0], [2, 0], [0, 0], [0, 4], [0, 5], [0, 1], [0, 3], '
    '[0, 4], [0, 2]], "sub_x": 2, "sub_y": 2}]}')


def test_plan_json_reads_a_document_with_the_fixed_slacks():
    plan = build_plan(Dims(6, 6), [9, 4], mode="robust",
                      robust_params=RobustParams(noise_var=0.25, seed=3))
    assert plan_from_json(OLD_ROBUST_DOC) == plan


def test_plan_json_refuses_a_slack_other_than_the_fixed_one():
    doc = json.loads(OLD_ROBUST_DOC)
    doc["robust"]["gamma_single"] = 0.4
    with pytest.raises(PlanError, match="gamma_single"):
        plan_from_json(json.dumps(doc))


def _plan_text(nx=6, sub_x=3, shift=(1, 0)):
    # the 6x6 [9, 4] plan's document with one field replaced; json writes
    # inf and nan as the literals Infinity and NaN, and 1e400 parses as inf
    doc = json.loads(plan_to_json(build_plan(Dims(6, 6), [9, 4])))
    doc["nx"] = nx
    doc["stages"][0]["sub_x"] = sub_x
    doc["stages"][0]["shifts"][1] = list(shift)
    return json.dumps(doc).replace("Infinity", "1e400")


def _robust_doc():
    plan = build_plan(Dims(60, 60), [16, 9, 25], regime="very-sparse",
                      mode="robust",
                      robust_params=RobustParams(noise_var=0.5))
    return json.loads(plan_to_json(plan))


def _robust_plan_text(**robust):
    doc = _robust_doc()
    doc["robust"].update(robust)
    return json.dumps(doc)


def _robust_shifts_text(edit):
    # the 60x60 robust plan's document with stage 0's shift list changed
    # in place by edit; its chains 1 and 2 are x-pairs (r, 0), (r + 1, 0)
    doc = _robust_doc()
    edit(doc["stages"][0]["shifts"])
    return json.dumps(doc)


def _swap_first_pair(shifts):
    shifts[1], shifts[2] = shifts[2], shifts[1]


def _step_first_pair_by_two(shifts):
    shifts[2][0] = (shifts[1][0] + 2) % 60


def _lift_first_pair_off_axis(shifts):
    shifts[1][1] = shifts[2][1] = 7


def _shift_the_anchor(shifts):
    shifts[0] = [1, 0]


def _noiseless_plan_text(edit):
    # the 6x6 [9, 4] plan's document, changed in place by edit
    doc = json.loads(plan_to_json(build_plan(Dims(6, 6), [9, 4])))
    edit(doc)
    return json.dumps(doc)


def test_plan_json_integral_floats_read_as_ints():
    doc = json.loads(plan_to_json(build_plan(Dims(6, 6), [9, 4])))
    doc["nx"] = 6.0
    doc["stages"][0]["shifts"][1] = [1.0, 0]
    assert plan_from_json(json.dumps(doc)) == build_plan(Dims(6, 6), [9, 4])


@pytest.mark.parametrize("text", [
    "not json",
    "{}",
    '{"nx": 6, "ny": 6, "stages": []}',
    '{"nx": 6, "ny": 6, "mode": "noiseless", "stages": [{"sub_x": 4}]}',
    # numbers int() would have truncated, cast or overflowed on; each
    # fraction or boolean casts to the value its plan holds
    pytest.param(_plan_text(sub_x=3.5), id="sub_x-3.5"),
    pytest.param(_plan_text(shift=[1.7, 0]), id="shift-1.7"),
    pytest.param(_plan_text(nx=1e400), id="nx-1e400"),
    pytest.param(_plan_text(nx=float("nan")), id="nx-nan"),
    pytest.param(_plan_text(nx="6"), id="nx-string"),
    pytest.param(_plan_text(shift=[1, 0, 0]), id="shift-triple"),
    pytest.param(_robust_plan_text(noise_var=float("inf")), id="noise_var-inf"),
    pytest.param(_robust_plan_text(noise_var=10 ** 400),
                 id="noise_var-10e400"),
    pytest.param(_robust_plan_text(reps=1.5), id="reps-1.5"),
    pytest.param(_robust_plan_text(chains_per_dim=True),
                 id="chains_per_dim-true"),
    pytest.param(_robust_plan_text(gamma_zero=1.0), id="gamma_zero-1.0"),
    # the mode and the robust block go together
    pytest.param(json.dumps({key: val for key, val in _robust_doc().items()
                             if key != "robust"}), id="robust-without-params"),
    pytest.param(_noiseless_plan_text(
        lambda doc: doc.update(robust=_robust_doc()["robust"])),
        id="noiseless-with-params"),
    pytest.param(_noiseless_plan_text(
        lambda doc: doc["stages"][0].update(shifts=[[0, 0], [0, 1], [1, 0]])),
        id="noiseless-swapped-shifts"),
    # the robust dyadic pair layout, which decode would read only after
    # the front end had sampled the grid
    pytest.param(_robust_shifts_text(_swap_first_pair),
                 id="robust-swapped-pair"),
    pytest.param(_robust_shifts_text(_step_first_pair_by_two),
                 id="robust-wrong-level-step"),
    pytest.param(_robust_shifts_text(_lift_first_pair_off_axis),
                 id="robust-off-axis-offset"),
    pytest.param(_robust_shifts_text(_shift_the_anchor),
                 id="robust-non-anchor-first"),
    pytest.param("[" * 200_000 + "]" * 200_000, id="deep-nesting"),
])
def test_plan_json_malformed(text):
    with pytest.raises(PlanError):
        plan_from_json(text)


def test_sparse_spectrum_drops_zeros_and_range_checks():
    s = SparseSpectrum.from_entries(Dims(4, 4), {(0, 0): 0, (1, 2): 3j})
    assert len(s) == 1
    assert s.get(1, 2) == 3j
    assert s.get(0, 0) == 0
    with pytest.raises(ValueError):
        SparseSpectrum.from_entries(Dims(4, 4), {(4, 0): 1})


@pytest.mark.parametrize("bad", [float("inf"), float("nan"),
                                 complex(1.0, float("-inf"))])
def test_sparse_spectrum_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        SparseSpectrum.from_entries(Dims(4, 4), {(1, 2): bad})


def test_plan_eta_requires_positive_k():
    plan = build_plan(Dims(6, 6), [9, 4])
    with pytest.raises(ValueError):
        plan_eta(plan, 0)

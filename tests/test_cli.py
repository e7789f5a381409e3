import json

import numpy as np
import pytest

from ffast2d.cli import (BENCH_FAMILIES, bench_rows, main, read_signal_bin,
                         read_spectrum_csv, sweep_rows, write_signal_bin,
                         write_spectrum_csv)
from ffast2d.core import (Dims, FfastError, RobustParams, SparseSpectrum,
                          build_plan, plan_to_json)

WORKED_ENTRIES = "1,3,7,0;2,0,3,0;2,3,5,0;4,0,1,0"


def _write_plan(tmp_path, dims=Dims(6, 6), factors=(9, 4),
                regime="less-sparse", mode="noiseless", params=None):
    plan = build_plan(dims, list(factors), regime, mode, params)
    path = tmp_path / "plan.json"
    path.write_text(plan_to_json(plan))
    return str(path)


def test_spectrum_csv_round_trip(tmp_path):
    dims = Dims(10, 12)
    truth = SparseSpectrum.from_entries(
        dims, {(0, 0): 1.25 - 3j, (9, 11): -0.5 + 1e-12j, (3, 4): 2.0})
    path = str(tmp_path / "truth.csv")
    write_spectrum_csv(path, truth)
    again = read_spectrum_csv(path, dims)
    assert again.items() == truth.items()
    text = (tmp_path / "truth.csv").read_text()
    assert text.splitlines()[0] == "u,v,re,im"


def test_spectrum_csv_rejects_garbage(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("u,v,value\n0,0,1\n")
    with pytest.raises(FfastError):
        read_spectrum_csv(str(bad_header), Dims(4, 4))
    bad_fields = tmp_path / "b.csv"
    bad_fields.write_text("u,v,re,im\n0,0,1\n")
    with pytest.raises(FfastError):
        read_spectrum_csv(str(bad_fields), Dims(4, 4))


def test_signal_bin_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    path = str(tmp_path / "sig.bin")
    write_signal_bin(path, x)
    assert np.array_equal(read_signal_bin(path), x)
    raw = (tmp_path / "sig.bin").read_bytes()
    assert raw[:4] == b"FF2D"
    assert len(raw) == 16 + 5 * 7 * 16


def test_signal_bin_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FfastError):
        read_signal_bin(str(bad))
    short = tmp_path / "short.bin"
    short.write_bytes(b"FF2D" + (4).to_bytes(4, "little") * 2
                      + (0).to_bytes(4, "little") + b"\x00" * 8)
    with pytest.raises(FfastError):
        read_signal_bin(str(short))


def test_gen_writes_deterministic_truth(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["gen", "--nx", "60", "--ny", "60", "--k", "9", "--seed", "4"]
    assert main(args + ["--out-truth", a]) == 0
    assert main(args + ["--out-truth", b]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    got = read_spectrum_csv(a, Dims(60, 60))
    assert len(got) == 9


def test_gen_refuses_huge_dense_output(tmp_path, capsys):
    code = main(["gen", "--nx", "2520", "--ny", "2520", "--k", "1",
                 "--out-truth", str(tmp_path / "t.csv"),
                 "--out-signal", str(tmp_path / "s.bin")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_gen_decode_round_trip_worked_example(tmp_path):
    truth_path = str(tmp_path / "truth.csv")
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES,
                 "--out-truth", truth_path]) == 0
    plan_path = _write_plan(tmp_path)
    out_path = str(tmp_path / "report.json")
    code = main(["decode", "--plan", plan_path, "--truth", truth_path,
                 "--out", out_path])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "success"
    assert doc["samples_touched"] == 39
    assert doc["sample_budget"] == 39
    assert doc["nx"] == 6 and doc["ny"] == 6
    got = {(u, v): complex(re, im) for u, v, re, im in doc["entries"]}
    assert got == {(1, 3): 7, (2, 0): 3, (2, 3): 5, (4, 0): 1}


def test_decode_from_dense_signal(tmp_path):
    truth_path = str(tmp_path / "truth.csv")
    sig_path = str(tmp_path / "sig.bin")
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES,
                 "--out-truth", truth_path, "--out-signal", sig_path]) == 0
    plan_path = _write_plan(tmp_path)
    out_path = str(tmp_path / "report.json")
    assert main(["decode", "--plan", plan_path, "--signal", sig_path,
                 "--out", out_path]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "success"
    assert len(doc["entries"]) == 4


def test_decode_report_reproducible_modulo_wall_time(tmp_path):
    plan_path = _write_plan(tmp_path)
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert main(["decode", "--plan", plan_path, "--k", "3",
                     "--seed", "11", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc.pop("wall_time_ms")
        outs.append(doc)
    assert outs[0] == outs[1]


def test_decode_exit_codes(tmp_path, capsys):
    # overloaded instance: more coefficients than the tiny plan can peel
    plan_path = _write_plan(tmp_path)
    code = main(["decode", "--plan", plan_path, "--k", "30", "--seed", "0"])
    capsys.readouterr()
    assert code == 2

    assert main(["decode", "--plan", str(tmp_path / "missing.json"),
                 "--k", "1"]) == 1
    capsys.readouterr()

    bad_plan = tmp_path / "bad.json"
    bad_plan.write_text("{half a plan")
    assert main(["decode", "--plan", str(bad_plan), "--k", "1"]) == 1
    capsys.readouterr()

    # dense signal with the wrong shape
    sig = tmp_path / "sig.bin"
    write_signal_bin(str(sig), np.zeros((4, 4), dtype=complex))
    assert main(["decode", "--plan", plan_path, "--signal", str(sig)]) == 1
    capsys.readouterr()


def test_decode_rejects_non_finite_signal(tmp_path, capsys):
    sig_path = str(tmp_path / "sig.bin")
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES,
                 "--out-truth", str(tmp_path / "truth.csv"),
                 "--out-signal", sig_path]) == 0
    x = read_signal_bin(sig_path)
    x[0, 0] = np.nan
    write_signal_bin(sig_path, x)
    plan_path = _write_plan(tmp_path)
    assert main(["decode", "--plan", plan_path, "--signal", sig_path]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_decode_needs_an_input(tmp_path, capsys):
    plan_path = _write_plan(tmp_path)
    assert main(["decode", "--plan", plan_path]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["decode"]) == 1
    capsys.readouterr()
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", "1,2,3", "--out-truth", "/dev/null"]) == 1
    capsys.readouterr()


def test_sweep_rows_exact_recovery_region():
    rows = sweep_rows(Dims(30, 30), [4, 9, 25], "less-sparse",
                      k_list=[1, 4, 8], trials=5, seed=0)
    assert [r["k"] for r in rows] == [1, 4, 8]
    for row in rows:
        assert row["trials"] == 5
        assert row["successes"] == 5
        assert row["success_rate"] == 1.0
        assert row["mean_samples"] == 3 * (225 + 100 + 36)
        assert row["eta"] == pytest.approx((225 + 100 + 36) / 3 / row["k"])


def test_sweep_cli_deterministic_modulo_time(tmp_path):
    args = ["sweep", "--nx", "30", "--ny", "30", "--factors", "4,9,25",
            "--k-list", "2,5", "--trials", "4", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0

    def strip_time(text):
        lines = text.strip().splitlines()
        cols = lines[0].split(",")
        keep = [i for i, c in enumerate(cols) if c != "mean_time_ms"]
        return [[ln.split(",")[i] for i in keep] for ln in lines]

    assert strip_time(a.read_text()) == strip_time(b.read_text())
    header = a.read_text().splitlines()[0]
    assert header == "k,eta,trials,successes,success_rate,mean_samples,mean_time_ms"


def test_sweep_robust_mode():
    params = RobustParams(chains_per_dim=1, reps=3, noise_var=0.01, seed=5)
    rows = sweep_rows(Dims(60, 60), [16, 9, 25], "very-sparse",
                      k_list=[5], trials=3, seed=1, mode="robust",
                      sigma2=0.01, robust_params=params, min_magnitude=0.25)
    assert rows[0]["successes"] == 3
    assert rows[0]["mean_samples"] == 73 * 50


def test_bench_rows_budget_and_success():
    rows = bench_rows([315], ny=315, k_list=[100], trials=2, seed=0)
    assert len(rows) == 1
    row = rows[0]
    assert row["successes"] == 2
    assert row["mean_samples"] == 3 * (81 + 25 + 49)
    assert row["mean_time_ms"] > 0


def test_bench_rejects_unknown_family():
    with pytest.raises(FfastError):
        bench_rows([100], ny=315, k_list=[100], trials=1, seed=0)


def test_bench_families_are_coprime_and_sized():
    import math
    for (nx, ny, _k), factors in BENCH_FAMILIES.items():
        assert math.prod(factors) == nx * ny
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert math.gcd(factors[i], factors[j]) == 1
        build_plan(Dims(nx, ny), factors, "very-sparse").validate()


def test_plan_cli_matches_library_builder(tmp_path):
    path = tmp_path / "plan.json"
    assert main(["plan", "--nx", "6", "--ny", "6", "--factors", "9,4",
                 "--out", str(path)]) == 0
    want = build_plan(Dims(6, 6), [9, 4], "less-sparse")
    assert json.loads(path.read_text()) == json.loads(plan_to_json(want))

    truth = tmp_path / "truth.csv"
    report = tmp_path / "report.json"
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES, "--out-truth", str(truth)]) == 0
    assert main(["decode", "--plan", str(path), "--truth", str(truth),
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["status"] == "success"
    assert doc["samples_touched"] == 39


def test_plan_cli_robust_carries_design(tmp_path):
    from ffast2d.core import plan_from_json

    path = tmp_path / "plan.json"
    assert main(["plan", "--nx", "60", "--ny", "60", "--factors", "16,9,25",
                 "--regime", "very-sparse", "--mode", "robust",
                 "--sigma2", "0.01", "--chains", "1", "--reps", "3",
                 "--design-seed", "5", "--out", str(path)]) == 0
    plan = plan_from_json(path.read_text())
    assert plan.mode == "robust"
    assert plan.robust_params == RobustParams(chains_per_dim=1, reps=3,
                                              noise_var=0.01, seed=5)
    want = build_plan(Dims(60, 60), [16, 9, 25], "very-sparse", "robust",
                      plan.robust_params)
    assert json.loads(path.read_text()) == json.loads(plan_to_json(want))


def test_plan_cli_rejects_bad_factors(capsys):
    assert main(["plan", "--nx", "12", "--ny", "12",
                 "--factors", "6,24"]) == 1
    assert "error" in capsys.readouterr().err

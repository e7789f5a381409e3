import json
import time

import numpy as np
import pytest

import ffast2d.cli
from ffast2d.cli import (BENCH_FAMILIES, bench_rows, main, read_signal_bin,
                         read_spectrum_csv, sweep_rows, write_signal_bin,
                         write_spectrum_csv)
from ffast2d.core import (Dims, FfastError, RobustParams, SparseSpectrum,
                          build_plan, plan_from_json, plan_to_json)
from ffast2d.oracle import (ArraySource, ExponentialSumSource, NoisySource,
                            gen_instance, mean_power, synthesize_dense)
from ffast2d.peeler import decode

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
    got = read_signal_bin(path)
    assert np.array_equal(got, x)
    assert got.shape == (5, 7) and not got.flags.writeable
    raw = (tmp_path / "sig.bin").read_bytes()
    assert raw[:4] == b"FF2D"
    assert len(raw) == 16 + 5 * 7 * 16


def _signal_header(nx, ny, magic=b"FF2D"):
    return magic + nx.to_bytes(4, "little") + ny.to_bytes(4, "little") \
        + (0).to_bytes(4, "little")


def test_signal_bin_rejects_garbage(tmp_path, capsys):
    plan_path = _write_plan(tmp_path)
    whole = b"\x00" * (36 * 16)
    cases = {
        "bad": b"NOPE" + b"\x00" * 12,
        "wrong_magic": _signal_header(6, 6, b"FF3D") + whole,
        "tiny": b"FF2D\x06",
        "short": _signal_header(4, 4) + b"\x00" * 8,
        "header_only": _signal_header(6, 6),
        "truncated": _signal_header(6, 6) + whole[:-16],
        "oversized": _signal_header(6, 6) + whole + b"\x00" * 16,
        "ragged": _signal_header(6, 6) + whole + b"\x00" * 3,
        "empty_grid": _signal_header(0, 6),
    }
    for name, raw in cases.items():
        path = tmp_path / (name + ".bin")
        path.write_bytes(raw)
        with pytest.raises(FfastError):
            read_signal_bin(str(path))
        assert main(["decode", "--plan", plan_path,
                     "--signal", str(path)]) == 1, name
        assert "ffast2d: error:" in capsys.readouterr().err, name


def test_decode_from_memory_map_equals_in_memory(tmp_path):
    dims = Dims(60, 60)
    plan = build_plan(dims, [16, 9, 25], "very-sparse")
    signal = synthesize_dense(gen_instance(dims, 6, seed=2).truth)
    path = str(tmp_path / "sig.bin")
    write_signal_bin(path, signal)
    mm = read_signal_bin(path)
    mapped = ArraySource(mm)
    # the source reads the map itself, never a copy of it
    assert np.shares_memory(mapped._signal, mm)
    assert not mapped._signal.flags.writeable
    a = decode(mapped, plan)
    b = decode(ArraySource(signal), plan)
    assert a.status == b.status == "success"
    assert a.spectrum.entries == b.spectrum.entries
    assert (a.samples_touched, a.distinct_cells, a.bin_stats) == (
        b.samples_touched, b.distinct_cells, b.bin_stats)


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


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_gen_refuses_a_constellation_rho_that_is_not_finite(tmp_path, capsys,
                                                           rho):
    # such a rho would write NaN values that decode --truth then refuses
    truth = tmp_path / "t.csv"
    code = main(["gen", "--nx", "8", "--ny", "8", "--k", "3",
                 "--value-model", "constellation", "--rho", rho,
                 "--out-truth", str(truth)])
    assert code == 1
    assert "rho" in capsys.readouterr().err
    assert not truth.exists()


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
    # the stages share 9 of their cells
    assert doc["distinct_cells"] == 30
    assert doc["sample_budget"] == 39
    assert doc["nx"] == 6 and doc["ny"] == 6
    got = {(u, v): complex(re, im) for u, v, re, im in doc["entries"]}
    # the lazy source synthesizes these small reads directly, so the
    # values carry the rounding of a sum of unit roots, as a decode of the
    # dense signal file does
    want = {(1, 3): 7, (2, 0): 3, (2, 3): 5, (4, 0): 1}
    assert set(got) == set(want)
    assert all(abs(got[loc] - val) <= 1e-12 for loc, val in want.items())


def test_oversampling_ratio_is_samples_per_recovered(tmp_path):
    truth_path = tmp_path / "truth.csv"
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES,
                 "--out-truth", str(truth_path)]) == 0
    plan_path = _write_plan(tmp_path)
    out_path = tmp_path / "report.json"
    assert main(["decode", "--plan", plan_path, "--truth", str(truth_path),
                 "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["oversampling_ratio"] == 39 / 4
    # no entry recovered: no ratio
    truth_path.write_text("u,v,re,im\n")
    assert main(["decode", "--plan", plan_path, "--truth", str(truth_path),
                 "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["entries"] == [] and doc["oversampling_ratio"] is None


def test_decode_min_magnitude_cuts_in_noiseless_mode(tmp_path):
    # one cut rule for both modes: the dropped (4, 0) peel leaves the
    # decode residual-left, exit 2
    truth_path = str(tmp_path / "truth.csv")
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES,
                 "--out-truth", truth_path]) == 0
    out_path = tmp_path / "report.json"
    assert main(["decode", "--plan", _write_plan(tmp_path),
                 "--truth", truth_path, "--min-magnitude", "2",
                 "--out", str(out_path)]) == 2
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "residual-left"
    assert [(u, v) for u, v, _, _ in doc["entries"]] == [(1, 3), (2, 0),
                                                         (2, 3)]


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


@pytest.mark.parametrize("old,new", [('"sub_x": 3', '"sub_x": 3.5'),
                                     ('"nx": 6', '"nx": 1e400')],
                         ids=["sub_x-3.5", "nx-1e400"])
def test_decode_rejects_plan_numbers_int_would_cast(tmp_path, capsys, old,
                                                     new):
    # int() read sub_x 3.5 as 3, the worked plan's own value, and raised
    # OverflowError on 1e400
    text = plan_to_json(build_plan(Dims(6, 6), [9, 4]))
    assert old in text
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(text.replace(old, new, 1))
    assert main(["decode", "--plan", str(plan_path), "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert "ffast2d: error:" in err
    assert "Traceback" not in err


WORKED_PLAN = plan_to_json(build_plan(Dims(6, 6), [9, 4]))
LONG_INDEX = "1" * 5000

# (reader, file bytes or flags): every one must end in exit 1 and one
# error line
MALFORMED_INPUTS = {
    "plan-deep-nesting": ("plan", b"[" * 200_000 + b"]" * 200_000),
    "plan-empty-list": ("plan", b"[]"),
    "plan-string": ("plan", b'"x"'),
    "plan-robust-string": ("plan", WORKED_PLAN[:-1].encode()
                           + b', "robust": "abc"}'),
    "plan-long-index": ("plan", WORKED_PLAN.replace(
        '"nx": 6', '"nx": ' + LONG_INDEX).encode()),
    "plan-bad-utf8": ("plan", b'{"nx": \xff\xfe}'),
    "truth-inf": ("truth", b"u,v,re,im\n1,1,inf,0\n"),
    "truth-nan": ("truth", b"u,v,re,im\n1,1,0,nan\n"),
    "truth-duplicate": ("truth", b"u,v,re,im\n1,1,1,0\n2,2,1,0\n1,1,2,0\n"),
    "truth-long-index": ("truth", ("u,v,re,im\n%s,0,1,0\n"
                                   % LONG_INDEX).encode()),
    "truth-bad-utf8": ("truth", b"u,v,re,im\n1,\xff,1,0\n"),
    "signal-truncated-header": ("signal", b"FF2D\x06\x00\x00\x00\x06"),
    "signal-oversized-header": ("signal", b"FF2D" + b"\xff" * 8 + b"\x00" * 4
                                + b"\x00" * (36 * 16)),
    "entries-inf": ("entries", b"1,1,inf,0"),
    "entries-duplicate": ("entries", b"1,1,1,0;1,1,2,0"),
    "decode-sigma2-negative": ("decode-flags", b"--sigma2 -1"),
    "decode-sigma2-nan": ("decode-flags", b"--sigma2 nan"),
    "decode-snr-db-nan": ("decode-flags", b"--snr-db nan"),
    "decode-min-magnitude-nan": ("decode-flags", b"--min-magnitude nan"),
    "sweep-min-magnitude-nan": ("sweep-flags", b"--min-magnitude nan"),
    "sweep-trials-zero": ("sweep-flags", b"--trials 0"),
    "sweep-trials-negative": ("sweep-flags", b"--trials -3"),
    "bench-trials-zero": ("bench-flags", b"--trials 0"),
    # robust-only flags on a noiseless plan
    "sweep-noiseless-sigma2": ("sweep-flags", b"--sigma2 1e-9"),
    "sweep-noiseless-reps": ("sweep-flags", b"--reps 3"),
    "plan-noiseless-sigma2": ("plan-flags", b"--sigma2 5"),
    "plan-noiseless-chains": ("plan-flags", b"--chains 2"),
    "plan-noiseless-reps": ("plan-flags", b"--reps 7"),
    "plan-noiseless-design-seed": ("plan-flags", b"--design-seed 3"),
    "plan-sigma2-nan": ("plan-flags", b"--sigma2 nan"),
    "plan-sigma2-negative": ("plan-flags", b"--sigma2 -1"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_cli_readers_refuse_malformed_input(tmp_path, capsys, name):
    reader, raw = MALFORMED_INPUTS[name]
    path = tmp_path / "input"
    path.write_bytes(raw)
    if reader == "entries":
        argv = ["gen", "--nx", "6", "--ny", "6", "--entries", raw.decode(),
                "--out-truth", str(tmp_path / "t.csv")]
    elif reader == "plan":
        argv = ["decode", "--plan", str(path), "--k", "1"]
    elif reader == "decode-flags":
        argv = (["decode", "--plan", _write_plan(tmp_path), "--k", "2"]
                + raw.decode().split())
    elif reader == "sweep-flags":
        argv = (["sweep", "--nx", "6", "--ny", "6", "--factors", "9,4",
                 "--k-list", "2", "--trials", "1"] + raw.decode().split())
    elif reader == "bench-flags":
        argv = (["bench", "--nx-list", "315", "--trials", "1"]
                + raw.decode().split())
    elif reader == "plan-flags":
        argv = (["plan", "--nx", "6", "--ny", "6", "--factors", "9,4",
                 "--out", str(tmp_path / "plan.json")] + raw.decode().split())
    else:
        argv = ["decode", "--plan", _write_plan(tmp_path),
                "--" + reader, str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ffast2d: error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_decode_snr_db_scales_the_noise_to_the_truth_file(tmp_path):
    # --snr-db sets sigma2 = mean power / 10^(snr/10) against the truth,
    # and the decode reads the truth through NoisySource at that variance
    truth_path = str(tmp_path / "truth.csv")
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES, "--out-truth", truth_path]) == 0
    plan_path = _write_plan(tmp_path)
    out_path = tmp_path / "report.json"
    code = main(["decode", "--plan", plan_path, "--truth", truth_path,
                 "--snr-db", "40", "--noise-seed", "5",
                 "--out", str(out_path)])
    doc = json.loads(out_path.read_text())
    truth = read_spectrum_csv(truth_path, Dims(6, 6))
    sigma2 = mean_power(truth) / 10 ** 4
    want = decode(NoisySource(ExponentialSumSource(truth), sigma2, 5),
                  plan_from_json((tmp_path / "plan.json").read_text()))
    assert code == (0 if want.status == "success" else 2)
    assert doc["status"] == want.status
    assert doc["entries"] == [[u, v, val.real, val.imag]
                              for (u, v), val in want.spectrum.items()]
    assert doc["entries"] != [[u, v, val.real, val.imag]
                              for (u, v), val in truth.items()]


def test_decode_snr_db_needs_a_truth(tmp_path, capsys):
    sig_path = str(tmp_path / "sig.bin")
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES,
                 "--out-truth", str(tmp_path / "truth.csv"),
                 "--out-signal", sig_path]) == 0
    assert main(["decode", "--plan", _write_plan(tmp_path),
                 "--signal", sig_path, "--snr-db", "20"]) == 1
    assert "--snr-db needs a truth" in capsys.readouterr().err


def test_decode_snr_db_whose_variance_overflows_is_refused(tmp_path,
                                                           capsys):
    # 10^(-400) underflows to 0; the variance it divides is inf, refused
    # as --sigma2 inf is, where a ZeroDivisionError used to end in a
    # traceback
    assert main(["decode", "--plan", _write_plan(tmp_path), "--k", "2",
                 "--snr-db", "-4000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ffast2d: error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_decode_snr_db_whose_variance_underflows_decodes_without_noise(
        tmp_path, capsys):
    # 10^(1e307) overflows, where an OverflowError used to end in a
    # traceback; the variance is 0, so the decode is the noiseless one
    plan_path = _write_plan(tmp_path)
    docs = []
    for extra in ([], ["--snr-db", "1e308"]):
        path = tmp_path / "report.json"
        assert main(["decode", "--plan", plan_path, "--k", "2", "--seed", "4",
                     "--out", str(path)] + extra) == 0
        doc = json.loads(path.read_text())
        doc.pop("wall_time_ms")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert capsys.readouterr().err == ""


def test_decode_rejects_non_finite_signal(tmp_path, capsys):
    sig_path = str(tmp_path / "sig.bin")
    assert main(["gen", "--nx", "6", "--ny", "6",
                 "--entries", WORKED_ENTRIES,
                 "--out-truth", str(tmp_path / "truth.csv"),
                 "--out-signal", sig_path]) == 0
    x = np.array(read_signal_bin(sig_path))
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


def test_sweep_times_only_the_decode(monkeypatch):
    def slow_match(got, want, tol=1e-6):
        time.sleep(0.02)
        return True

    monkeypatch.setattr(ffast2d.cli, "_spectra_match", slow_match)
    rows = sweep_rows(Dims(30, 30), [4, 9, 25], "less-sparse",
                      k_list=[1], trials=3, seed=0)
    assert rows[0]["successes"] == 3
    assert rows[0]["mean_time_ms"] < 20


def test_sweep_robust_mode():
    params = RobustParams(chains_per_dim=1, reps=3, noise_var=0.01, seed=5)
    rows = sweep_rows(Dims(60, 60), [16, 9, 25], "very-sparse",
                      k_list=[5], trials=3, seed=1, mode="robust",
                      sigma2=0.01, robust_params=params, min_magnitude=0.25)
    assert rows[0]["successes"] == 3
    assert rows[0]["mean_samples"] == 73 * 50


def test_sweep_rows_refuses_a_min_magnitude_that_is_not_finite():
    # decode owns the rule; a NaN cut used to drop every entry
    with pytest.raises(ValueError, match="min_magnitude"):
        sweep_rows(Dims(30, 30), [4, 9, 25], "less-sparse", k_list=[2],
                   trials=1, seed=0, min_magnitude=float("nan"))


def test_noiseless_sweep_rows_refuses_a_negative_sigma2():
    # a nonzero sigma2 always goes to NoisySource, which refuses -1; the
    # trials used to decode without noise
    with pytest.raises(ValueError, match="sigma2"):
        sweep_rows(Dims(30, 30), [4, 9, 25], "less-sparse", k_list=[2],
                   trials=1, seed=0, sigma2=-1.0)


def test_bench_cli_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--nx-list", "315", "--k-list", "100",
                 "--trials", "2", "--seed", "1", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == "k,nx,ny,trials,successes,mean_samples,mean_time_ms"
    assert row.split(",")[:6] == ["100", "315", "315", "2", "2", "465.0"]
    assert float(row.split(",")[6]) > 0


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


def test_readme_robust_example_exits_clean(tmp_path):
    # the README's robust CLI example, at the plan's noise variance
    plan_path = str(tmp_path / "plan280r.json")
    assert main(["plan", "--nx", "280", "--ny", "280",
                 "--factors", "25,64,49", "--mode", "robust",
                 "--sigma2", "1.0", "--reps", "5", "--design-seed", "8",
                 "--out", plan_path]) == 0
    report = tmp_path / "report.json"
    assert main(["decode", "--plan", plan_path, "--k", "50", "--seed", "12",
                 "--value-model", "constellation", "--rho", "17.1",
                 "--sigma2", "1.0", "--noise-seed", "3",
                 "--min-magnitude", "1.0", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["status"] == "success"
    assert len(doc["entries"]) == 50


def test_plan_cli_rejects_bad_factors(capsys):
    assert main(["plan", "--nx", "12", "--ny", "12",
                 "--factors", "6,24"]) == 1
    assert "error" in capsys.readouterr().err

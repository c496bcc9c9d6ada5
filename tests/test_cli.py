import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrtfit
from mrtfit import dataio
from mrtfit.cli import main

from conftest import REF


def run(args):
    return main(args)


def write_config(tmp_path, text=""):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


DERIVE_ARGS = ["derive", "--gamma-phi", "0.54", "--zeta-phi", "4.53",
               "--phi31", "2153.6", "--ip-ua", "1.37", "--l-ph", "250",
               "--t-mk", "7.3"]


def test_derive_reference_values(capsys):
    assert run(DERIVE_ARGS + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(float(out["eta"]) - 5.9e-2) < 0.5e-2
    assert abs(float(out["r_shunt_kohm"]) - 147.0) < 13.0
    assert abs(float(out["tan_delta_c"]) - 2.07e-3) < 0.04e-3
    assert abs(float(out["tan_delta_l_1ghz"]) - 10.6e-6) < 0.9e-6


def test_derive_table_format(capsys):
    assert run(DERIVE_ARGS) == 0
    out = capsys.readouterr().out
    assert "eta" in out and "tan_delta_c" in out


def test_gen_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, "[gen]\nn_points = 40\nqubit_id = qt\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["gen", "--config", cfg, "--seed", "3",
                "--out", str(out1)]) == 0
    assert run(["gen", "--config", cfg, "--seed", "3",
                "--out", str(out2)]) == 0
    f1 = (out1 / "qt.csv").read_bytes()
    f2 = (out2 / "qt.csv").read_bytes()
    assert f1 == f2
    assert run(["gen", "--config", cfg, "--seed", "4",
                "--out", str(out2)]) == 0
    assert (out2 / "qt.csv").read_bytes() != f1


def test_gen_negative_seed_flag_is_a_validation_error(tmp_path, capsys):
    assert run(["gen", "--seed", "-1", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("MRTFIT-ERROR class=validation message=")
    assert "--seed must be a non-negative integer, got -1" in err
    assert not list(tmp_path.iterdir())


def test_gen_fit_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, "[gen]\nn_points = 160\nqubit_id = rt\n")
    assert run(["gen", "--config", cfg, "--seed", "21",
                "--out", str(tmp_path)]) == 0
    data = tmp_path / "rt.csv"
    assert run(["fit", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path), "--format", "json"]) == 0
    report = json.loads((tmp_path / "rt.report.json").read_text())
    best = report["best_fit"]
    assert abs(best["w_phi_uphi0"]["value"] / REF["w_phi_uphi0"] - 1) < 0.03
    assert abs(best["phi31_uphi0"]["value"] / REF["phi31_uphi0"] - 1) < 1e-3
    assert abs(best["delta01_mhz"]["value"] / 2.72 - 1) < 0.03
    assert abs(best["zeta_phi_uphi0"]["value"] / REF["zeta_phi_uphi0"] - 1) < 0.15
    # report loads back and passes the self-consistency check
    dataio.load_report(tmp_path / "rt.report.json")
    assert (tmp_path / "rt.residuals.csv").exists()
    assert (tmp_path / "rt.report.txt").exists()


def test_held_parameters_take_their_model_values(tmp_path, capsys):
    # a parameter left out of [fit] free is held at its [model] value, not
    # at the automatic guess, by fit and batch alike; the dataset was made
    # at the [model] temperature, 7.3 mK
    cfg = write_config(tmp_path, "[gen]\nqubit_id = q0\n[fit]\n"
                       "free = delta01,delta03,phi31,w_phi,gamma_phi,zeta_phi\n")
    data_dir = tmp_path / "data"
    assert run(["gen", "--config", cfg, "--out", str(data_dir)]) == 0
    assert run(["fit", "--config", cfg, "--data", str(data_dir / "q0.csv"),
                "--out", str(tmp_path / "fit")]) == 0
    assert run(["batch", "--config", cfg, "--data-dir", str(data_dir),
                "--out", str(tmp_path / "batch")]) == 0
    for out in ("fit", "batch"):
        report = json.loads((tmp_path / out / "q0.report.json").read_text())
        held = report["best_fit"]["temperature_mk"]
        assert held["value"] == pytest.approx(7.3, rel=1e-12) and held["fitted"] is False
        assert report["best_fit"]["w_phi_uphi0"]["fitted"] is True
        assert report["chi2_per_dof"] < 1.5, out


def test_simulate_writes_decomposed_table(tmp_path):
    cfg = write_config(tmp_path, "[simulate]\nn_points = 50\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "model_curve.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.split(",") == ["phi_x_uPhi0", "rate_total_per_us",
                                 "rate_peak0_per_us", "rate_peak1_per_us"]
    assert len([l for l in lines if not l.startswith("#")]) == 51


def test_simulate_total_is_the_sum_of_its_peaks(tmp_path):
    # one build serves all three columns, on a window off the 500 uPhi0 marks
    cfg = write_config(tmp_path, "[simulate]\nphi_min_uphi0 = -437\n"
                                 "phi_max_uphi0 = 2611\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "model_curve.csv", delimiter=",", skiprows=2)
    np.testing.assert_allclose(table[:, 1], table[:, 2] + table[:, 3],
                               rtol=2e-8, atol=0)


def test_simulate_default_output_is_pinned(tmp_path, monkeypatch):
    # the default model on a 50 uPhi0 grid must stay byte-identical at the
    # zeroth peak, the valley and the first peak; a change that moves these
    # rows has to update them and say why.  The quintic on the W/8 grid
    # moved rows 11 and 54 in the ninth and eighth digits; both stay within
    # 2.5e-7 of a 2^17 + 1 build
    monkeypatch.delenv("MRTFIT_CONFIG", raising=False)
    cfg = write_config(tmp_path, "[simulate]\nn_points = 71\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "model_curve.csv").read_text().splitlines()[2:]
    assert len(rows) == 71
    assert rows[11] == ("5.00000000e+01,8.75744168e-02,8.73003020e-02,"
                        "2.74114782e-04")
    assert rows[19] == ("4.50000000e+02,6.96964764e-04,2.02400632e-04,"
                        "4.94564133e-04")
    assert rows[54] == ("2.20000000e+03,9.77747977e+00,3.81930735e-05,"
                        "9.77744158e+00")


def test_simulate_without_ohmic_noise_keeps_its_far_tail_positive(tmp_path):
    # with gamma = 0 the zeroth peak is the closed-form Gaussian, which
    # underflowed to 0 some tens of widths out; it is clamped as the tables are
    cfg = write_config(tmp_path, "[model]\ngamma_phi_uphi0 = 0\ndelta03_mhz = 0\n"
                                 "[simulate]\nn_points = 61\nphi_min_uphi0 = -3000\n"
                                 "phi_max_uphi0 = 3000\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "model_curve.csv", delimiter=",", skiprows=2)
    assert table.shape == (61, 3) and np.all(table[:, 1:] > 0)


def test_squid_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, "[squid]\ngrid_points = 256\n")
    assert run(["squid", "--config", cfg, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(float(out["ip_ua"]) - 1.262) < 0.01
    assert abs(float(out["omega31_ghz"]) - 16.35) < 0.05
    assert float(out["delta01_mhz"]) == pytest.approx(13.39, abs=0.05)


def test_squid_default_output_is_pinned(capsys, monkeypatch):
    # the default summary must stay byte-identical; a change that moves it
    # has to update these values and say why
    monkeypatch.delenv("MRTFIT_CONFIG", raising=False)
    assert run(["squid", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "beta_eff": "1.196012",
        "delta01_mhz": "1.33860636e+01",
        "delta03_mhz": "1.09812993e+02",
        "energy_0_ghz": "7.58301867e+02",
        "energy_1_ghz": "7.58301867e+02",
        "energy_2_ghz": "7.74657761e+02",
        "energy_3_ghz": "7.74657761e+02",
        "ip_ua": "1.26244473e+00",
        "omega31_ghz": "1.63558947e+01",
        "v31_harmonic_uv": "7.01865391e+00",
        "v31_uv": "6.86012535e+00",
    }


def test_batch_over_directory(tmp_path, capsys):
    cfg = write_config(tmp_path, "[gen]\nn_points = 140\n")
    data_dir = tmp_path / "data"
    for k, seed in enumerate((31, 32, 33)):
        sub = write_config(tmp_path, f"[gen]\nn_points = 140\nqubit_id = q{k}\n")
        assert run(["gen", "--config", sub, "--seed", str(seed),
                    "--out", str(data_dir)]) == 0
    out_dir = tmp_path / "out"
    assert run(["batch", "--config", cfg, "--data-dir", str(data_dir),
                "--out", str(out_dir), "--format", "json"]) == 0
    summary = (out_dir / "batch_summary.csv").read_text().splitlines()
    assert len(summary) == 4           # header + three qubits
    assert all(",ok," in line for line in summary[1:])
    hist = (out_dir / "batch_histograms.csv").read_text().splitlines()
    assert hist[0] == "metric,bin_lo,bin_hi,count"
    assert (out_dir / "q1.report.json").exists()


def test_batch_fails_only_the_dataset_whose_file_stem_is_no_id(tmp_path, capsys):
    # a dataset without an id is named after its file; the stem "a,b" is no
    # valid id, so that row fails and the other datasets are still fitted
    data_dir = tmp_path / "data"
    for k, seed in enumerate((31, 32)):
        sub = write_config(tmp_path, f"[gen]\nn_points = 140\nqubit_id = q{k}\n")
        assert run(["gen", "--config", sub, "--seed", str(seed),
                    "--out", str(data_dir)]) == 0
    text = (data_dir / "q0.csv").read_text()
    (data_dir / "a,b.csv").write_text(text.replace("# qubit_id = q0\n", ""))
    out_dir = tmp_path / "out"
    assert run(["batch", "--config", write_config(tmp_path, ""),
                "--data-dir", str(data_dir), "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert err.count("MRTFIT-WARN") == 1 and "a,b.csv" in err
    rows = (out_dir / "batch_summary.csv").read_text().splitlines()[1:]
    assert [len(r.split(",")) for r in rows] == [7, 7, 7]
    assert [r.split(",")[1] for r in rows] == ["failed", "ok", "ok"]
    assert (out_dir / "q0.report.json").exists() and (out_dir / "q1.report.json").exists()


def test_batch_fails_only_the_dataset_whose_file_does_not_load(tmp_path, capsys):
    # one malformed file fails its own row; the other dataset is still fitted
    data_dir = tmp_path / "data"
    sub = write_config(tmp_path, "[gen]\nn_points = 140\nqubit_id = q0\n")
    assert run(["gen", "--config", sub, "--seed", "3", "--out", str(data_dir)]) == 0
    (data_dir / "bad.csv").write_text("# ip_uA = 1.37\nphi_x_uPhi0,rate_per_us\n1.0,0.0\n")
    out_dir = tmp_path / "out"
    assert run(["batch", "--config", write_config(tmp_path, ""),
                "--data-dir", str(data_dir), "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert err.count("MRTFIT-WARN") == 1 and "bad.csv" in err and "rate must be positive" in err
    assert "MRTFIT-ERROR" not in err
    rows = (out_dir / "batch_summary.csv").read_text().splitlines()[1:]
    assert [len(r.split(",")) for r in rows] == [7, 7]
    assert [r.split(",")[1] for r in rows] == ["failed", "ok"]
    assert (out_dir / "q0.report.json").exists()


def test_batch_fails_only_the_dataset_that_is_not_utf8(tmp_path, capsys):
    data_dir = tmp_path / "data"
    sub = write_config(tmp_path, "[gen]\nn_points = 140\nqubit_id = q0\n")
    assert run(["gen", "--config", sub, "--seed", "3", "--out", str(data_dir)]) == 0
    (data_dir / "latin1.csv").write_bytes((MALFORMED / "non_utf8.csv").read_bytes())
    out_dir = tmp_path / "out"
    assert run(["batch", "--config", write_config(tmp_path, ""),
                "--data-dir", str(data_dir), "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert err.count("MRTFIT-WARN") == 1 and "latin1.csv" in err and "not UTF-8" in err
    assert "MRTFIT-ERROR" not in err
    rows = (out_dir / "batch_summary.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["failed", "ok"]
    assert (out_dir / "q0.report.json").exists()


def test_batch_in_which_no_fit_converges_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mrtfit.fitter.MAX_NFEV", 2)
    data_dir = tmp_path / "data"
    sub = write_config(tmp_path, "[gen]\nn_points = 140\nqubit_id = q0\n")
    assert run(["gen", "--config", sub, "--seed", "3", "--out", str(data_dir)]) == 0
    out_dir = tmp_path / "out"
    assert run(["batch", "--config", write_config(tmp_path, ""), "--threads", "1",
                "--data-dir", str(data_dir), "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert err.count("MRTFIT-WARN") == 1 and "did not converge within 2" in err
    assert "MRTFIT-ERROR" not in err
    rows = (out_dir / "batch_summary.csv").read_text().splitlines()[1:]
    assert rows == ["q0,failed,,,,,"]


# ---------------------------------------------------------------------------
# failure classes and exit codes

def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# ip_uA = 1.37\nphi_x_uPhi0,rate_per_us\n1.0,0.0\n")
    code = run(["fit", "--data", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "MRTFIT-ERROR class=parse" in err


MALFORMED = Path(__file__).parent / "data" / "malformed"

# each bad input of the corpus, the subcommand it runs through, the option
# that reads it, and the failure class and exit code it must end in
MALFORMED_CASES = {
    "zero_rate.csv": ("fit", "--data", "parse", 2),
    "nan_field.csv": ("fit", "--data", "parse", 2),
    "ragged_row.csv": ("fit", "--data", "parse", 2),
    "empty.csv": ("fit", "--data", "parse", 2),
    "non_utf8.csv": ("fit", "--data", "parse", 2),
    "bad,stem.csv": ("fit", "--data", "validation", 3),
    "unknown_fit_key.ini": ("fit", "--config", "parse", 2),
    "non_utf8.ini": ("simulate", "--config", "parse", 2),
    "grid_points_over_bound.ini": ("squid", "--config", "validation", 3),
    "grid_points_odd.ini": ("squid", "--config", "validation", 3),
    "well_metadata.csv": ("fit", "--data", "parse", 2),
    "ip_not_a_number.csv": ("fit", "--data", "parse", 2),
    "duplicate_meta_key.csv": ("fit", "--data", "parse", 2),
    "rel_err_not_a_number.csv": ("fit", "--data", "parse", 2),
    "well_label_q.csv": ("fit", "--data", "parse", 2),
    "rel_err_on_some_rows.csv": ("fit", "--data", "parse", 2),
    "no_phi_column.csv": ("fit", "--data", "parse", 2),
    "no_section_header.ini": ("simulate", "--config", "parse", 2),
    "duplicate_key.ini": ("simulate", "--config", "parse", 2),
    "half_span.ini": ("squid", "--config", "parse", 2),
    "rel_err_overflow.csv": ("fit", "--data", "validation", 3),
    "gen_seed_negative.ini": ("gen", "--config", "validation", 3),
}
# what the error line of a corpus file must say, where its place matters
MALFORMED_SAYS = {
    "well_metadata.csv": "well_metadata.csv: line 3: well must be L or R, got 'X'",
    "ip_not_a_number.csv": "ip_not_a_number.csv: line 3: bad ip_uA value 'abc'",
    "duplicate_meta_key.csv": ("duplicate_meta_key.csv: line 4: metadata key 'ip_uA' "
                               "repeats the one on line 3"),
    "half_span.ini": "unknown key 'half_span' in [squid]",
    "gen_seed_negative.ini": "[gen] seed must be a non-negative integer, got -1",
}


@pytest.mark.parametrize("name", MALFORMED_CASES)
def test_malformed_input_gives_one_error_line(name, tmp_path, capsys, monkeypatch):
    import mrtfit.squid_full as squid_full

    command, option, klass, code = MALFORMED_CASES[name]
    solves = []
    monkeypatch.setattr(squid_full, "_lowest_levels", lambda *a, **k: solves.append(a))
    options = {"--config": write_config(tmp_path, ""), "--out": str(tmp_path / "out")}
    if command == "fit":
        good = tmp_path / "good.csv"
        good.write_text("# ip_uA = 1.37\nphi_x_uPhi0,rate_per_us\n0.0,1e-3\n100.0,1e-3\n")
        options["--data"] = str(good)
    options[option] = str(MALFORMED / name)
    assert run([command, *sum(options.items(), ())]) == code
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1 and "Traceback" not in err
    assert err.startswith(f"MRTFIT-ERROR class={klass} message=")
    assert MALFORMED_SAYS.get(name, "") in err
    assert solves == []


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "{dir}"],
    ["simulate", "--config", "{dir}"],
    ["simulate", "--out", "{file}"],
], ids=["fit_data_is_a_directory", "simulate_config_is_a_directory",
        "simulate_out_is_a_file"])
def test_file_system_error_on_a_given_path_is_a_parse_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1 and "Traceback" not in err
    assert err.startswith("MRTFIT-ERROR class=parse message=") and str(tmp_path) in err


@pytest.mark.parametrize("argv, says", [
    (DERIVE_ARGS + ["--seed", "3"], "unrecognized arguments: --seed 3"),
    (DERIVE_ARGS[:-2], "mrtfit derive: the following arguments are required: --t-mk"),
    (["bogus"], "invalid choice: 'bogus'"),
    # a subcommand takes only the shared flags it reads
    (DERIVE_ARGS + ["--config", "run.ini"], "unrecognized arguments: --config run.ini"),
    (DERIVE_ARGS + ["--out", "out"], "unrecognized arguments: --out out"),
    (["simulate", "--format", "json"], "unrecognized arguments: --format json"),
    (["gen", "--format", "json"], "unrecognized arguments: --format json"),
])
def test_usage_error_is_one_line_with_exit_1(argv, says, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == mrtfit.cli.EXIT_USAGE == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("MRTFIT-ERROR class=usage message=")
    assert says in err


def test_subcommand_options_are_pinned():
    # each subcommand registers only the flags it reads
    sub = next(a for a in mrtfit.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: [s for a in p._actions for s in a.option_strings]
               for name, p in sub.choices.items()}
    assert options == {
        "derive": ["-h", "--help", "--format", "--gamma-phi", "--zeta-phi", "--phi31",
                   "--ip-ua", "--l-ph", "--t-mk", "--loss-freq-ghz"],
        "simulate": ["-h", "--help", "--config", "--out"],
        "gen": ["-h", "--help", "--config", "--out", "--seed"],
        "fit": ["-h", "--help", "--config", "--out", "--format", "--data"],
        "batch": ["-h", "--help", "--config", "--out", "--format", "--data-dir",
                  "--threads"],
        "squid": ["-h", "--help", "--config", "--out", "--format"],
    }


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["derive", "--help"])
    assert exc.value.code == 0
    assert "--gamma-phi" in capsys.readouterr().out


def test_exit_code_missing_file(capsys):
    assert run(["fit", "--data", "/nonexistent/x.csv"]) == 2


def test_exit_code_config_error(tmp_path, capsys):
    # an unknown key is a parse error
    for body in ("[model]\nbogus = 1\n", "[model]\ngr_form = standard\n"):
        cfg = write_config(tmp_path, body)
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2, body
        assert capsys.readouterr().err.startswith("MRTFIT-ERROR class=parse"), body


def test_exit_code_validation_error(tmp_path, capsys):
    # too few points for a fit: validation class, exit 3
    good_cfg = write_config(tmp_path, "")
    small = tmp_path / "small.csv"
    rows = "\n".join(f"{x:.1f},0.5" for x in np.linspace(0, 100, 5))
    small.write_text("# ip_uA = 1.37\nphi_x_uPhi0,rate_per_us\n" + rows + "\n")
    code = run(["fit", "--config", good_cfg, "--data", str(small)])
    assert code == 3
    assert "class=validation" in capsys.readouterr().err


def test_exit_code_non_convergence_writes_no_report(tmp_path, capsys, monkeypatch):
    import mrtfit.fitter as fitter

    cfg = write_config(tmp_path, "[gen]\nn_points = 140\nqubit_id = q0\n")
    assert run(["gen", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
    least_squares = fitter.least_squares
    monkeypatch.setattr(fitter, "least_squares", lambda fun, x0, **kwargs: least_squares(
        fun, x0, **dict(kwargs, max_nfev=2)))
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert run(["fit", "--config", cfg, "--data", str(tmp_path / "data" / "q0.csv"),
                "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1
    assert err.startswith("MRTFIT-ERROR class=non-convergence message=")
    assert list(out_dir.iterdir()) == []


def test_bad_fit_config_value_is_a_validation_error(tmp_path, capsys):
    # an empty or repeated free list fails before any fit starts
    data = tmp_path / "d.csv"
    data.write_text("# ip_uA = 1.37\nphi_x_uPhi0,rate_per_us\n0.0,0.5\n")
    for free in ("", "w_phi,w_phi"):
        cfg = write_config(tmp_path, f"[fit]\nfree = {free}\n")
        assert run(["fit", "--config", cfg, "--data", str(data),
                    "--out", str(tmp_path)]) == 3, free
        err = capsys.readouterr().err
        assert err.startswith("MRTFIT-ERROR class=validation") and "free" in err, free


def _gen_dataset(tmp_path) -> Path:
    """A fittable seeded dataset, ``synthetic.csv`` in ``tmp_path/data``."""
    cfg = write_config(tmp_path, "[gen]\nn_points = 120\n")
    assert run(["gen", "--config", cfg, "--seed", "3",
                "--out", str(tmp_path / "data")]) == 0
    return tmp_path / "data" / "synthetic.csv"


def _files(root) -> list:
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*") if p.is_file())


@pytest.mark.parametrize("value", ["nan", "inf", "-250"])
def test_bad_inductance_fails_before_the_fit(tmp_path, capsys, monkeypatch, value):
    import mrtfit.fitter as fitter

    data = _gen_dataset(tmp_path)
    starts = []
    monkeypatch.setattr(fitter, "least_squares", lambda *a, **k: starts.append(a))
    cfg = write_config(tmp_path, f"[fit]\ninductance_ph = {value}\n")
    out = tmp_path / "out"
    assert run(["fit", "--config", cfg, "--data", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1
    assert err.startswith("MRTFIT-ERROR class=validation") and "inductance" in err
    assert starts == [] and not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--l-ph", "nan"), ("--t-mk", "inf"), ("--ip-ua", "nan"),
    ("--gamma-phi", "inf"), ("--zeta-phi", "nan"), ("--phi31", "inf"),
    ("--loss-freq-ghz", "nan"),
])
def test_derive_rejects_non_finite_input(capsys, flag, value):
    argv = DERIVE_ARGS + ["--loss-freq-ghz", "1"]
    argv[argv.index(flag) + 1] = value
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("MRTFIT-ERROR") == 1
    assert captured.err.startswith("MRTFIT-ERROR class=validation")


@pytest.mark.parametrize("ip", ["inf", "nan", "-inf"])
def test_non_finite_persistent_current_is_a_parse_error(tmp_path, capsys, ip):
    data = tmp_path / "d.csv"
    data.write_text(f"# ip_uA = {ip}\nphi_x_uPhi0,rate_per_us\n0.0,0.5\n")
    out = tmp_path / "out"
    assert run(["fit", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1
    assert err.startswith("MRTFIT-ERROR class=parse") and "ip_a must" in err
    assert not out.exists()


@pytest.mark.parametrize("qubit_id", ["../escaped", "a/b", "a\\b", "a,b", ".", "..", ""])
def test_dataset_qubit_id_cannot_name_a_path(tmp_path, capsys, qubit_id):
    # the id names the report files, and batch writes it into a CSV column
    data = _gen_dataset(tmp_path)
    data.write_text(data.read_text().replace("# qubit_id = synthetic",
                                             f"# qubit_id = {qubit_id}"))
    before = _files(tmp_path)
    out = tmp_path / "out" / "deep"
    for argv in (["fit", "--data", str(data)], ["batch", "--data-dir", str(data.parent)]):
        assert run(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.count("MRTFIT-ERROR") == 1
        assert err.startswith("MRTFIT-ERROR class=parse") and "qubit_id must" in err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("qubit_id", ["../../x", "a,b"])
def test_gen_qubit_id_cannot_name_a_path(tmp_path, capsys, qubit_id):
    cfg = write_config(tmp_path, f"[gen]\nn_points = 40\nqubit_id = {qubit_id}\n")
    assert run(["gen", "--config", cfg, "--out", str(tmp_path / "a" / "b")]) == 3
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1
    assert err.startswith("MRTFIT-ERROR class=validation") and "qubit_id must" in err
    assert _files(tmp_path) == ["run.ini"]


def test_percent_in_a_config_value_is_literal(tmp_path, capsys):
    cfg = write_config(tmp_path, "[gen]\nn_points = 40\nqubit_id = q%1\n")
    assert run(["gen", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "q%1.csv").exists()


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# the subcommand that reads each config section
READER = {"model": ["simulate"], "fit": ["fit", "--data", "absent.csv"],
          "squid": ["squid"], "gen": ["gen"], "simulate": ["simulate"]}
NUMERIC_KEYS = [(section, key) for section, keys in dataio.CONFIG_DEFAULTS.items()
                for key, value in keys.items() if _is_number(value)]


@pytest.mark.parametrize("section, key", NUMERIC_KEYS,
                         ids=[f"{s}.{k}" for s, k in NUMERIC_KEYS])
def test_every_numeric_config_key_is_read_and_checked(tmp_path, capsys, section, key):
    # a key nothing reads accepts "abc" silently and fails here
    cfg = write_config(tmp_path, f"[{section}]\n{key} = abc\n")
    assert run(READER[section] + ["--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1
    assert err.startswith("MRTFIT-ERROR class=parse") and f"[{section}] {key} " in err


DELETED_FIT_KEYS = {"ftol": "1e-10", "xtol": "1e-10", "gtol": "1e-10",
                    "max_nfev": "2000", "multistart": "5", "jitter_rel": "0.2",
                    "seed": "0"}


@pytest.mark.parametrize("key", list(DELETED_FIT_KEYS))
def test_deleted_fit_key_is_a_parse_error(tmp_path, capsys, key):
    # the solver policy is fixed: even the former default value is refused
    cfg = write_config(tmp_path, f"[fit]\n{key} = {DELETED_FIT_KEYS[key]}\n")
    assert run(READER["fit"] + ["--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1
    assert err.startswith("MRTFIT-ERROR class=parse") and f"unknown key '{key}'" in err


@pytest.mark.parametrize("key", list(dataio.CONFIG_DEFAULTS["model"]))
def test_infinite_model_value_is_a_validation_error(tmp_path, capsys, key):
    cfg = write_config(tmp_path, f"[model]\n{key} = inf\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("MRTFIT-ERROR") == 1
    assert err.startswith("MRTFIT-ERROR class=validation") and "finite" in err
    assert not (tmp_path / "model_curve.csv").exists()


def test_exit_code_single_well(tmp_path, capsys):
    cfg = write_config(tmp_path, "[squid]\nphi_cjj_x = 0.5\n")
    code = run(["squid", "--config", cfg])
    assert code == 3
    assert "class=validation" in capsys.readouterr().err


@pytest.mark.parametrize("body, says, code, cls", [
    ("ic_ua = nan", "ic_a", 3, "validation"), ("l_ph = inf", "l_h", 3, "validation"),
    ("c_ff = inf", "c_f", 3, "validation"), ("phi_cjj_x = nan", "phi_cjj_x", 3, "validation"),
    # n_levels and half_span are no longer keys: an unknown key is a parse error
    ("n_levels = 3000", "n_levels", 2, "parse"),
    ("half_span = -0.5", "half_span", 2, "parse"),
    ("half_span = inf", "half_span", 2, "parse"),
    ("grid_points = 131072", "n_points", 3, "validation"),
], ids=["ic_ua", "l_ph", "c_ff", "phi_cjj_x", "n_levels", "half_span_negative",
        "half_span_inf", "grid_points"])
def test_squid_config_checked_before_any_solve(tmp_path, capsys, monkeypatch, body, says,
                                               code, cls):
    import mrtfit.squid_full as squid_full

    solves = []
    monkeypatch.setattr(squid_full, "_lowest_levels", lambda *a, **k: solves.append(a))
    cfg = write_config(tmp_path, f"[squid]\n{body}\n")
    assert run(["squid", "--config", cfg]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"MRTFIT-ERROR class={cls}") and says in err
    assert solves == []


@pytest.mark.parametrize("command", ["simulate", "gen"])
def test_flux_grid_over_the_bound_is_rejected_before_allocation(tmp_path, capsys,
                                                                monkeypatch, command):
    # one point over the 10^6 bound fails before any grid is allocated
    grids = []
    monkeypatch.setattr(np, "linspace", lambda *a, **k: grids.append(a))
    cfg = write_config(tmp_path, f"[{command}]\nn_points = 1000001\n")
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("MRTFIT-ERROR class=validation") and "n_points" in err
    assert grids == [] and not out.exists()


def test_config_from_environment(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "[simulate]\nn_points = 12\n")
    monkeypatch.setenv("MRTFIT_CONFIG", cfg)
    assert run(["simulate", "--out", str(tmp_path)]) == 0
    rows = [l for l in (tmp_path / "model_curve.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 13


def test_batch_threads_smoke(tmp_path, capsys):
    data_dir = tmp_path / "data"
    for k, seed in enumerate((51, 52)):
        sub = write_config(tmp_path, f"[gen]\nn_points = 120\nqubit_id = t{k}\n")
        assert run(["gen", "--config", sub, "--seed", str(seed),
                    "--out", str(data_dir)]) == 0
    out_dir = tmp_path / "out"
    assert run(["batch", "--config", write_config(tmp_path, ""),
                "--data-dir", str(data_dir), "--out", str(out_dir),
                "--threads", "2"]) == 0
    summary = (out_dir / "batch_summary.csv").read_text().splitlines()
    assert len(summary) == 3


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; returns its standard output, stripped."""
    src = str(Path(mrtfit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_cli_import_skips_unused_scipy_subpackages():
    code = ("import sys, mrtfit.cli; print(' '.join(m for m in "
            "('scipy.signal', 'scipy.stats', 'scipy.interpolate', "
            "'scipy.optimize', 'scipy.integrate') if m in sys.modules))")
    assert _python(code) == ""


@pytest.mark.parametrize("argv, unwanted", [
    # the noise formulas are plain math
    (DERIVE_ARGS, ("scipy", "numpy")),
    # numpy.fft and the trapezoid-rule w(z) build the line shapes
    (["simulate"], ("scipy",)),
    (["gen"], ("scipy",)),
    # the sine DVR needs numpy.linalg alone
    (["squid", "--format", "json"], ("scipy",)),
    # the fit is a numpy trust-region solve; the guess's running median
    # needs no numpy.ma (its submodules; numpy.matrixlib is not one), and
    # one process needs no pool
    (["fit", "--data", "{data}"], ("scipy", "numpy.ma.", "concurrent.futures")),
    (["batch", "--data-dir", "{data_dir}"], ("scipy", "numpy.ma.", "concurrent.futures")),
], ids=["derive", "simulate", "gen", "squid", "fit", "batch"])
def test_subcommand_loads_only_the_scipy_it_runs(tmp_path, argv, unwanted):
    # derive writes nothing and takes no --out
    argv = argv if argv == DERIVE_ARGS else argv + ["--out", str(tmp_path)]
    if argv[0] in ("fit", "batch"):
        data = _gen_dataset(tmp_path)
        argv = [a.format(data=data, data_dir=data.parent) for a in argv]
    code = (
        "import contextlib, io, sys\n"
        "from mrtfit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"print(' '.join(m for m in sys.modules if m.startswith({unwanted!r})))")
    assert _python(code) == ""


def test_unexpected_exception_is_reported_as_internal(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(mrtfit.cli, "cmd_derive", broken)
    assert run(DERIVE_ARGS) == mrtfit.cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err == 'MRTFIT-ERROR class=internal message="RuntimeError: boom"\n'


def test_package_names_resolve_in_a_fresh_interpreter():
    code = ("import mrtfit\n"
            "names = [*mrtfit.__all__, 'squid_full']\n"
            "missing = [n for n in names if getattr(mrtfit, n, None) is None]\n"
            "missing += [n for n in mrtfit.__all__ if n not in dir(mrtfit)]\n"
            "from mrtfit import *\n"
            "print(' '.join(missing))")
    assert _python(code) == ""


def test_package_root_exports_are_pinned():
    # the records, entry points and errors a caller imports from the root;
    # envelopes and unit conversions stay in their submodules
    assert sorted(mrtfit.__all__) == [
        "BatchResult", "ConfigError", "ConvergenceError", "DatasetFormatError",
        "DomainError", "EffectivePotential", "FitConfig", "FitResult",
        "FullModelNoise", "FullModelResult", "InitialGuess", "LineShapes",
        "ModelValidityWarning", "MrtParams", "MrtfitError", "NoiseSummary",
        "RateDataset", "ReportError", "RfSquidParams", "SingleWellError",
        "ValidationError", "WellBasis", "batch_fit", "effective_potential",
        "envelopes", "errors", "fit", "fitter", "full_model_rate",
        "ground_pair_splitting", "harmonic_v31", "initial_guess", "peak_rates",
        "rate_model", "simulate_curve", "solve_wells", "squid_full", "units"]
    # the names that left the root still import from their submodules
    from mrtfit import envelopes, rate_model, units
    moved = {envelopes: "g_high g_low g_relax relax_width",
             rate_model: "FrequencyGrid",
             units: "derive_eta derive_shunt_and_inductive_loss derive_tan_delta_c "
                    "energy_to_flux flux_to_energy ghz_to_kelvin kelvin_to_ghz "
                    "noise_summary"}
    assert all(hasattr(m, n) for m, names in moved.items() for n in names.split())


def test_package_names_follow_their_submodule(monkeypatch):
    # resolved on every access, never cached: a name replaced in its
    # submodule (and later restored) is seen through the package
    import mrtfit.fitter

    def stand_in(*args, **kwargs):
        return None

    monkeypatch.setattr(mrtfit.fitter, "fit", stand_in)
    assert mrtfit.fit is stand_in
    assert "fit" not in vars(mrtfit)

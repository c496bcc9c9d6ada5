import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mrtfit import dataio
from mrtfit.errors import ConfigError, DatasetFormatError, ReportError, ValidationError
from mrtfit.fitter import FitConfig, RateDataset, fit
from mrtfit.rate_model import MrtParams, simulate_curve

from conftest import REF


def small_dataset():
    return RateDataset(phi_x=np.array([-10.0, 5.0, 40.0]),
                       rate=np.array([1e-3, 2e-3, 9e-2]),
                       ip_a=1.37e-6,
                       sigma_rel=np.array([0.05, 0.05, 0.06]),
                       well="L", qubit_id="q00")


# ---------------------------------------------------------------------------
# dataset files

def test_dataset_round_trip(tmp_path):
    path = tmp_path / "q00.csv"
    ds = small_dataset()
    dataio.save_dataset(path, ds)
    back = dataio.load_dataset(path)
    np.testing.assert_allclose(back.phi_x, ds.phi_x, rtol=1e-8)
    np.testing.assert_allclose(back.rate, ds.rate, rtol=1e-8)
    np.testing.assert_allclose(back.sigma_rel, ds.sigma_rel, rtol=1e-8)
    assert back.ip_a == pytest.approx(ds.ip_a, rel=1e-6)
    assert back.qubit_id == "q00"
    # writing the reloaded dataset reproduces the file byte for byte
    path2 = tmp_path / "q00b.csv"
    dataio.save_dataset(path2, back)
    assert path.read_text() == path2.read_text()


def test_minimal_three_row_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("# ip_uA = 1.37\n"
                    "phi_x_uPhi0,rate_per_us\n"
                    "1.0,0.5\n2.0,0.6\n3.0,0.7\n")
    ds = dataio.load_dataset(path)
    assert len(ds) == 3
    assert ds.sigma_rel is None
    assert list(ds.well_labels()) == ["L", "L", "L"]


def test_zero_rate_row_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# ip_uA = 1.37\n"
                    "phi_x_uPhi0,rate_per_us\n"
                    "1.0,0.5\n2.0,0.0\n")
    with pytest.raises(DatasetFormatError) as err:
        dataio.load_dataset(path)
    assert "line 4" in str(err.value)


def test_malformed_row_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("# ip_uA = 1.37\n"
                    "phi_x_uPhi0,rate_per_us\n"
                    "1.0,0.5\nnot-a-number,0.6\n")
    with pytest.raises(DatasetFormatError) as err:
        dataio.load_dataset(path)
    assert err.value.line == 4


@pytest.mark.parametrize("row", ["nan,0.6,0.05", "2.0,inf,0.05", "2.0,0.6,inf"],
                         ids=["phi_x_uPhi0", "rate_per_us", "rate_rel_err"])
def test_non_finite_field_rejected_with_line_number(tmp_path, row):
    path = tmp_path / "bad3.csv"
    path.write_text("# ip_uA = 1.37\n"
                    "phi_x_uPhi0,rate_per_us,rate_rel_err\n"
                    "1.0,0.5,0.05\n" + row + "\n")
    with pytest.raises(DatasetFormatError) as err:
        dataio.load_dataset(path)
    assert err.value.line == 4


def test_unknown_column_warns(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text("# ip_uA = 1.37\n"
                    "phi_x_uPhi0,rate_per_us,mystery\n"
                    "1.0,0.5,7\n2.0,0.6,8\n")
    with pytest.warns(UserWarning):
        ds = dataio.load_dataset(path)
    assert len(ds) == 2


@pytest.mark.parametrize("bad", [
    {"ip_a": math.nan}, {"ip_a": math.inf}, {"ip_a": 0.0}, {"qubit_id": "../q"},
    {"qubit_id": "a/b"}, {"qubit_id": "a\\b"}, {"qubit_id": "a,b"},
    {"qubit_id": "."}, {"qubit_id": ".."}, {"qubit_id": ""}, {"qubit_id": "q\n1"},
], ids=["nan ip", "infinite ip", "zero ip", "parent id", "slash id", "backslash id",
        "comma id", "dot id", "dot-dot id", "empty id", "newline id"])
def test_dataset_rejects_bad_current_or_id(bad):
    (name,) = bad
    with pytest.raises(ValidationError, match=name):
        replace(small_dataset(), **bad)


def test_missing_ip_metadata_is_an_error(tmp_path):
    path = tmp_path / "noip.csv"
    path.write_text("phi_x_uPhi0,rate_per_us\n1.0,0.5\n")
    with pytest.raises(DatasetFormatError):
        dataio.load_dataset(path)


def test_per_point_wells_and_dataset_default(tmp_path):
    path = tmp_path / "wells.csv"
    path.write_text("# ip_uA = 1.37\n# well = R\n"
                    "phi_x_uPhi0,rate_per_us,rate_rel_err,well\n"
                    "-1.0,0.5,0.05,L\n2.0,0.6,0.05,\n")
    ds = dataio.load_dataset(path)
    assert list(ds.well_labels()) == ["L", "R"]


# ---------------------------------------------------------------------------
# run configuration

def test_default_config_builds_reference_model():
    cfg = dataio.default_config()
    p = cfg.model_params()
    assert p.delta01_ghz == pytest.approx(REF["delta01_ghz"])
    assert p.ip_a == pytest.approx(REF["ip_a"])
    assert isinstance(cfg.fit_config(), FitConfig)


def test_config_unknown_key_fails_closed(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\ndelta01_mhz = 3.0\ntypo_key = 1\n")
    with pytest.raises(ConfigError):
        dataio.load_config(path)
    path2 = tmp_path / "bad2.ini"
    path2.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        dataio.load_config(path2)


def test_readme_config_example_loads(tmp_path):
    # fails when the README example names a key the configuration refuses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "example.ini"
    path.write_text(example)
    dataio.load_config(path)


def test_config_overrides_apply(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text("[model]\ndelta01_mhz = 3.5\n[gen]\nseed = 7\n")
    cfg = dataio.load_config(path)
    assert cfg.model_params().delta01_ghz == pytest.approx(3.5e-3)
    assert cfg.getint("gen", "seed") == 7
    # untouched keys keep their defaults
    assert cfg.getfloat("model", "w_phi_uphi0") == pytest.approx(37.2)


def test_simulated_curve_round_trip(tmp_path):
    params = MrtParams(**REF)
    curve = simulate_curve(np.linspace(-500.0, 3000.0, 50), params, init_well="R")
    path = tmp_path / "sim.csv"
    dataio.save_dataset(path, curve)
    back = dataio.load_dataset(path)
    np.testing.assert_allclose(back.phi_x, curve.phi_x, rtol=1e-8)
    np.testing.assert_allclose(back.rate, curve.rate, rtol=1e-8)
    assert back.ip_a == pytest.approx(params.ip_a, rel=1e-12)
    assert back.sigma_rel is None
    assert np.all(back.well_labels() == "R")


# ---------------------------------------------------------------------------
# fit reports

def make_fit_result():
    params = MrtParams(**REF)
    phi = np.linspace(-500.0, 3000.0, 100)
    curve = simulate_curve(phi, params)
    rng = np.random.default_rng(3)
    ds = RateDataset(phi_x=phi, rate=curve.rate * np.exp(0.05 * rng.standard_normal(100)),
                     ip_a=params.ip_a, sigma_rel=np.full(100, 0.05))
    return fit(ds, FitConfig(), params)


def test_report_round_trip_and_self_consistency(tmp_path):
    result = make_fit_result()
    cfg = FitConfig()
    report = dataio.report_from_fit(result, cfg, input_sha256="abc",
                                    config_sha256="def")
    path = tmp_path / "report.json"
    dataio.save_report(path, report)
    back = dataio.load_report(path)
    assert back["best_fit"]["w_phi_uphi0"]["value"] == pytest.approx(
        result.params.w_phi_uphi0)
    assert back["provenance"]["input_sha256"] == "abc"
    text = dataio.render_report_text(report)
    assert "tan delta_C" in text and "chi2/dof" in text


def test_tampered_report_fails_on_load(tmp_path):
    result = make_fit_result()
    report = dataio.report_from_fit(result, FitConfig())
    report["derived"]["eta"] *= 1.5
    path = tmp_path / "tampered.json"
    dataio.save_report(path, report)
    with pytest.raises(ReportError):
        dataio.load_report(path)


def test_report_determinism_modulo_timestamp(tmp_path):
    result = make_fit_result()
    r1 = dataio.report_from_fit(result, FitConfig(), timestamp="T")
    r2 = dataio.report_from_fit(result, FitConfig(), timestamp="T")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dataio.save_report(p1, r1)
    dataio.save_report(p2, r2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# plot tables

def test_curve_table_with_residuals(tmp_path):
    params = MrtParams(**REF)
    phi = np.linspace(-100.0, 100.0, 9)
    curve = simulate_curve(phi, params)
    data = RateDataset(phi_x=phi, rate=curve.rate * np.exp(0.1), ip_a=REF["ip_a"])
    path = tmp_path / "table.csv"
    dataio.write_curve_table(path, {"total": curve}, data)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["phi_x_uPhi0", "rate_total_per_us", "data_rate_per_us",
                      "residual_log10"]
    # hand-check the residual on three rows: log10(data/model) = 0.1/ln(10)
    expect = 0.1 / math.log(10.0)
    for row in lines[1:4]:
        cells = [float(x) for x in row.split(",")]
        assert cells[3] == pytest.approx(expect, rel=1e-6)


def test_model_only_table(tmp_path):
    params = MrtParams(**REF)
    phi = np.linspace(-50.0, 50.0, 5)
    curve = simulate_curve(phi, params)
    path = tmp_path / "model.csv"
    dataio.write_curve_table(path, {"total": curve})
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "phi_x_uPhi0,rate_total_per_us"
    assert len(rows) == 6
    vals = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert np.all(vals[:, 1] > 0)

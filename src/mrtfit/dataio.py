"""Dataset files, run configuration, fit reports, and plot tables.

Dataset files are comma-separated text with a leading block of
comment-prefixed metadata lines and a header row::

    # mrtfit-dataset v1
    # ip_uA = 1.37
    # qubit_id = q00
    phi_x_uPhi0,rate_per_us,rate_rel_err,well
    -5.000000000e+02,1.234567890e-03,5.000000000e-02,L

``rate_rel_err`` and ``well`` are optional columns; a dataset-wide well
label can be given as metadata instead.  Unknown columns are ignored
with a warning; malformed rows, including non-finite numbers (``nan``,
``inf``), are rejected with their line number.

Run configuration is INI-style with sections [model], [fit], [squid],
[gen], [simulate].  Every key has a documented default and unknown
sections and keys are errors, so a typo cannot silently fall back; a
numeric value that does not parse is an error naming its key.  Values
are read literally (no ``%`` interpolation).  The [model] keys and their
defaults are the labels and defaults of ``units.FIT_PARAMS`` plus
``ip_ua``; [fit] holds only the free-parameter list and the loop
inductance, because the solver policy is fixed in ``fitter``.

All numeric output is fixed scientific notation with nine significant
digits, which makes regenerated files byte-comparable across platforms.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, DatasetFormatError, ReportError, ValidationError
from .units import FIT_PARAMS, noise_summary

if TYPE_CHECKING:
    from .fitter import FitConfig, FitResult
    from .rate_model import MrtParams, RateDataset

DATASET_TAG = "mrtfit-dataset v1"
REPORT_TAG = "mrtfit-report-v1"

_FMT = "{:.8e}"          # nine significant digits


def fmt(value: float) -> str:
    return _FMT.format(float(value))


# ---------------------------------------------------------------------------
# dataset files

_KNOWN_COLUMNS = ("phi_x_uPhi0", "rate_per_us", "rate_rel_err", "well")


def _read_text(path: Path, error) -> str:
    """The text of a UTF-8 file; a byte that does not decode raises ``error``."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text: byte "
                    f"0x{exc.object[exc.start]:02x} ({exc.reason})") from exc


def load_dataset(path) -> RateDataset:
    """Parse and validate a dataset file.

    Raises DatasetFormatError with a line number for malformed rows,
    metadata values, a repeated metadata key or invariant violations (for
    example a non-positive rate).
    """
    from .rate_model import RateDataset

    path = Path(path)
    meta, meta_line = {}, {}
    header = None
    rows = []
    text = _read_text(path, DatasetFormatError)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = (part.strip() for part in body.partition("="))
                if key in meta:
                    raise DatasetFormatError(f"metadata key {key!r} repeats the one on "
                                             f"line {meta_line[key]}", line=lineno, path=path)
                meta[key], meta_line[key] = val, lineno
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            unknown = [c for c in header if c not in _KNOWN_COLUMNS]
            if "phi_x_uPhi0" not in header or "rate_per_us" not in header:
                raise DatasetFormatError(
                    "header must contain phi_x_uPhi0 and rate_per_us",
                    line=lineno)
            if unknown:
                warnings.warn(f"{path.name}: ignoring unknown columns {unknown}",
                              stacklevel=2)
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise DatasetFormatError(
                f"expected {len(header)} fields, got {len(cells)}",
                line=lineno)
        rows.append((lineno, dict(zip(header, cells))))
    if header is None or not rows:
        raise DatasetFormatError(f"{path}: no data rows found")

    if "ip_uA" not in meta:
        raise DatasetFormatError(
            f"{path}: metadata must carry the measured persistent current "
            "as '# ip_uA = ...'")
    try:
        ip_a = float(meta["ip_uA"]) * 1e-6
    except ValueError as exc:
        raise DatasetFormatError(f"bad ip_uA value {meta['ip_uA']!r}",
                                 line=meta_line["ip_uA"], path=path) from exc

    default_well = meta.get("well", "L")
    if default_well not in ("L", "R"):
        raise DatasetFormatError(f"well must be L or R, got {default_well!r}",
                                 line=meta_line["well"], path=path)
    phi, rate, sig, well = [], [], [], []
    has_sigma = False
    for lineno, row in rows:
        try:
            x = float(row["phi_x_uPhi0"])
            r = float(row["rate_per_us"])
        except ValueError as exc:
            raise DatasetFormatError(f"non-numeric field: {exc}", line=lineno) from exc
        if not math.isfinite(x):
            raise DatasetFormatError(
                f"phi_x_uPhi0 must be finite, got {row['phi_x_uPhi0']}", line=lineno)
        if not math.isfinite(r):
            raise DatasetFormatError(
                f"rate must be finite, got {row['rate_per_us']}", line=lineno)
        if r <= 0:
            raise DatasetFormatError(
                f"rate must be positive, got {row['rate_per_us']}", line=lineno)
        phi.append(x)
        rate.append(r)
        s = row.get("rate_rel_err", "")
        if s:
            has_sigma = True
            try:
                s_val = float(s)
            except ValueError as exc:
                raise DatasetFormatError(f"bad rate_rel_err {s!r}", line=lineno) from exc
            if not (math.isfinite(s_val) and s_val > 0):
                raise DatasetFormatError(
                    f"rate_rel_err must be positive and finite, got {s}", line=lineno)
            sig.append(s_val)
        else:
            sig.append(math.nan)
        w = row.get("well", "") or default_well
        if w not in ("L", "R"):
            raise DatasetFormatError(f"well must be L or R, got {w!r}", line=lineno)
        well.append(w)

    order = np.argsort(np.asarray(phi))
    phi_arr = np.asarray(phi)[order]
    rate_arr = np.asarray(rate)[order]
    well_arr = np.asarray(well)[order]
    sigma = None
    if has_sigma:
        sig_arr = np.asarray(sig)[order]
        if np.any(np.isnan(sig_arr)):
            raise DatasetFormatError(
                f"{path}: rate_rel_err present on some rows but missing on others")
        sigma = sig_arr
    try:
        return RateDataset(phi_x=phi_arr, rate=rate_arr, ip_a=ip_a,
                           sigma_rel=sigma, well=well_arr,
                           qubit_id=meta.get("qubit_id"))
    except ValidationError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def save_dataset(path, dataset: RateDataset, extra_meta: Optional[dict] = None):
    """Write a dataset in the versioned file format."""
    path = Path(path)
    lines = [f"# {DATASET_TAG}", f"# ip_uA = {dataset.ip_a * 1e6:.6f}"]
    if dataset.qubit_id:
        lines.append(f"# qubit_id = {dataset.qubit_id}")
    for key, val in (extra_meta or {}).items():
        lines.append(f"# {key} = {val}")
    lines.append("phi_x_uPhi0,rate_per_us,rate_rel_err,well")
    wells = dataset.well_labels()
    sig = dataset.sigma_rel
    for i in range(len(dataset)):
        s = fmt(sig[i]) if sig is not None else ""
        lines.append(",".join([fmt(dataset.phi_x[i]), fmt(dataset.rate[i]),
                               s, wells[i]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# run configuration

CONFIG_DEFAULTS = {
    "model": {**{q.label: str(q.default) for q in FIT_PARAMS}, "ip_ua": "1.37"},
    "fit": {
        "free": "delta01,delta03,phi31,w_phi,gamma_phi,zeta_phi,temperature",
        "inductance_ph": "250",
    },
    "squid": {
        "ic_ua": "2.30",
        "l_ph": "250",
        "c_ff": "110",
        "phi_cjj_x": "-0.74",
        "grid_points": "128",
    },
    "gen": {
        "n_points": "200",
        "phi_min_uphi0": "-500",
        "phi_max_uphi0": "3000",
        "noise_rel": "0.05",
        "seed": "0",
        "well": "L",
        "qubit_id": "synthetic",
    },
    "simulate": {
        "n_points": "701",
        "phi_min_uphi0": "-500",
        "phi_max_uphi0": "3000",
        "well": "L",
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with all defaults filled in."""

    sections: dict
    source_text: str = ""

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def _number(self, section: str, key: str, kind):
        value = self.get(section, key)
        try:
            return kind(value)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"[{section}] {key} = {value!r} is not {what}") from None

    def getfloat(self, section: str, key: str) -> float:
        return self._number(section, key, float)

    def getint(self, section: str, key: str) -> int:
        return self._number(section, key, int)

    def model_params(self) -> MrtParams:
        from .rate_model import MrtParams

        return MrtParams(
            ip_a=self.getfloat("model", "ip_ua") * 1e-6,
            **{q.field: self.getfloat("model", q.label) * (1.0 / q.scale)
               for q in FIT_PARAMS})

    def fit_config(self) -> FitConfig:
        from .fitter import FitConfig

        free = tuple(x.strip() for x in self.get("fit", "free").split(",") if x.strip())
        return FitConfig(free=free,
                         inductance_h=self.getfloat("fit", "inductance_ph") * 1e-12)

    def sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()


def default_config() -> RunConfig:
    sections = {s: dict(kv) for s, kv in CONFIG_DEFAULTS.items()}
    return RunConfig(sections=sections, source_text="")


def load_config(path) -> RunConfig:
    """Read an INI run configuration, fail-closed on unknown entries."""
    path = Path(path)
    text = _read_text(path, ConfigError)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: cannot parse: {exc}") from exc
    sections = {s: dict(kv) for s, kv in CONFIG_DEFAULTS.items()}
    for section in parser.sections():
        if section not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in CONFIG_DEFAULTS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            sections[section][key] = value
    cfg = RunConfig(sections=sections, source_text=text)
    cfg.model_params()       # validate eagerly
    cfg.fit_config()
    return cfg


# ---------------------------------------------------------------------------
# fit reports

def report_from_fit(result: FitResult, config: FitConfig,
                    input_sha256: str = "", config_sha256: str = "",
                    timestamp: Optional[str] = None) -> dict:
    """Machine-readable fit report (a plain JSON-serializable dict)."""
    best = {}
    for q in FIT_PARAMS:
        sigma = result.uncertainties.get(q.name)
        best[q.label] = {
            "value": float(getattr(result.params, q.field) * q.scale),
            "sigma_1": None if sigma is None else
            (None if math.isinf(sigma) else float(sigma * q.scale)),
            "fitted": q.name in result.param_order,
        }
    return {
        "format": REPORT_TAG,
        "provenance": {
            "tool": "mrtfit",
            "version": __version__,
            "created_utc": timestamp if timestamp is not None
            else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "input_sha256": input_sha256,
            "config_sha256": config_sha256,
        },
        "fixed": {"ip_ua": result.params.ip_a * 1e6,
                  "inductance_ph": config.inductance_h * 1e12},
        "best_fit": best,
        "chi2": result.chi2,
        "dof": result.dof,
        "chi2_per_dof": result.chi2 / result.dof if result.dof else math.nan,
        "status": result.status,
        "converged": result.converged,
        "n_eval": result.n_eval,
        "covariance": {"order": list(result.param_order),
                       "matrix": [[float(x) for x in row]
                                  for row in result.covariance]},
        "derived": asdict(result.derived),
    }


def save_report(path, report: dict):
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_report(path) -> dict:
    """Load a report and re-derive the noise metrics from the stored
    best-fit parameters; a mismatch means the file was edited or the
    producing version disagrees, and is an error."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if report.get("format") != REPORT_TAG:
        raise ReportError(f"{path}: not a {REPORT_TAG} file")
    best = {q.name: report["best_fit"][q.label]["value"] * (1.0 / q.scale)
            for q in FIT_PARAMS}
    fixed = report["fixed"]
    summary = noise_summary(
        gamma_phi=best["gamma_phi"],
        zeta_phi=best["zeta_phi"],
        phi31=best["phi31"],
        ip=fixed["ip_ua"] * 1e-6,
        inductance=fixed["inductance_ph"] * 1e-12,
        temperature=best["temperature"],
        omegas=tuple(w for w, _ in report["derived"]["tan_delta_l_at"]))
    stored = report["derived"]
    checks = [(name, getattr(summary, name), stored[name])
              for name in ("eta", "r_shunt_ohm", "tan_delta_c")]
    for (w, v), (w_s, v_s) in zip(summary.tan_delta_l_at,
                                  stored["tan_delta_l_at"]):
        checks.append((f"tan_delta_l({w_s:.3e})", v, v_s))
    for name, fresh, persisted in checks:
        if not math.isclose(fresh, persisted, rel_tol=1e-9, abs_tol=1e-300):
            raise ReportError(
                f"{path}: derived metric {name} fails recomputation "
                f"({persisted} stored vs {fresh} recomputed)")
    return report


def render_report_text(report: dict) -> str:
    """Human-readable rendering of a fit report."""
    lines = [f"mrtfit fit report ({report['provenance']['version']})",
             f"status: {report['status']}",
             f"chi2/dof = {report['chi2_per_dof']:.4g}  "
             f"(chi2 = {report['chi2']:.6g}, dof = {report['dof']})",
             "", "best-fit parameters (1 sigma):"]
    for label, entry in report["best_fit"].items():
        sigma = entry["sigma_1"]
        tag = "" if entry["fitted"] else "  [fixed]"
        if sigma is None:
            lines.append(f"  {label:18s} = {fmt(entry['value'])}{tag}")
        else:
            lines.append(f"  {label:18s} = {fmt(entry['value'])} "
                         f"+- {fmt(sigma)}{tag}")
    lines.append("")
    lines.append("derived noise metrics:")
    d = report["derived"]
    lines.append(f"  eta              = {fmt(d['eta'])}")
    r_s = d["r_shunt_ohm"]
    lines.append("  R_shunt          = " +
                 ("infinite (no ohmic noise)" if math.isinf(r_s)
                  else f"{fmt(r_s / 1e3)} kOhm"))
    lines.append(f"  tan delta_C      = {fmt(d['tan_delta_c'])}")
    for w, v in d["tan_delta_l_at"]:
        lines.append(f"  tan delta_L      = {fmt(v)} at omega/2pi = "
                     f"{fmt(w / (2 * math.pi) / 1e9)} GHz")
    return "\n".join(lines) + "\n"


def input_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# plot-ready tables

def write_curve_table(path, curves: dict, dataset: Optional[RateDataset] = None):
    """Aligned table of model curves and (optionally) data with residuals.

    ``curves`` maps column label to RateDataset; all curves must share
    one flux grid.  The residual column is log10(data / first model column),
    the natural quantity to inspect for a log-space fit.  Rates are
    strictly positive by construction so the table is safe to plot on a
    log axis.
    """
    labels = list(curves)
    if not labels:
        raise ValidationError("need at least one curve")
    first = curves[labels[0]]
    for label in labels[1:]:
        if not np.array_equal(curves[label].phi_x, first.phi_x):
            raise ValidationError("all curves must share one flux grid")
    header = ["phi_x_uPhi0"] + [f"rate_{label}_per_us" for label in labels]
    data_col = None
    resid_col = None
    if dataset is not None:
        if len(dataset) != len(first) or not np.allclose(
                dataset.phi_x, first.phi_x, rtol=0, atol=1e-9):
            raise ValidationError("dataset grid must match the curve grid")
        data_col = dataset.rate
        resid_col = np.log10(dataset.rate / first.rate)
        header += ["data_rate_per_us", "residual_log10"]
    lines = ["# mrtfit-table v1", ",".join(header)]
    for i in range(len(first)):
        cells = [fmt(first.phi_x[i])]
        cells += [fmt(curves[label].rate[i]) for label in labels]
        if data_col is not None:
            cells += [fmt(data_col[i]), fmt(resid_col[i])]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

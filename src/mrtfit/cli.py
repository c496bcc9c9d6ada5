"""Command-line interface.

Subcommands: simulate, fit, derive, squid, gen, batch.  Failures exit
with a class-specific status (usage errors on the command line 1, parse
errors 2, validation errors 3, non-convergence 4, any other exception 5 as
class ``internal``) and print one machine-parsable line on stderr of the
form ``MRTFIT-ERROR class=<class> message="..."``, never a traceback or
usage text.  ``--help`` prints its help and exits 0.

Each subcommand imports the parts of the package it runs, so ``derive``
loads no scipy module and only ``fit`` and ``batch`` load
``scipy.optimize``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, dataio, units
from .errors import (
    ConfigError,
    ConvergenceError,
    DatasetFormatError,
    MrtfitError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_INTERNAL = 5

CONFIG_ENV_VAR = "MRTFIT_CONFIG"


def _fail(klass: str, message: str, code: int) -> int:
    message = message.replace('"', "'").replace("\n", " ")
    print(f'MRTFIT-ERROR class={klass} message="{message}"', file=sys.stderr)
    return code


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Argument parser, subparsers included, whose usage errors raise
    :class:`_UsageError` instead of printing usage text and exiting 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _load_config(args) -> dataio.RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return dataio.default_config()
    return dataio.load_config(path)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_or_json(args, rows: dict, title: str):
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(title)
        for key, val in rows.items():
            print(f"  {key:24s} {val}")


def cmd_derive(args) -> int:
    summary = units.noise_summary(
        gamma_phi=args.gamma_phi, zeta_phi=args.zeta_phi, phi31=args.phi31,
        ip=args.ip_ua * 1e-6, inductance=args.l_ph * 1e-12,
        temperature=args.t_mk * 1e-3,
        omegas=tuple(2 * math.pi * 1e9 * f for f in args.loss_freq_ghz))
    rows = {
        "eta": dataio.fmt(summary.eta),
        "r_shunt_kohm": ("inf" if math.isinf(summary.r_shunt_ohm)
                         else dataio.fmt(summary.r_shunt_ohm / 1e3)),
        "tan_delta_c": dataio.fmt(summary.tan_delta_c),
    }
    for (w, v), f in zip(summary.tan_delta_l_at, args.loss_freq_ghz):
        rows[f"tan_delta_l_{f:g}ghz"] = dataio.fmt(v)
    _print_or_json(args, rows, "derived noise metrics")
    return EXIT_OK


def _flux_grid(cfg: dataio.RunConfig, section: str) -> np.ndarray:
    """The flux biases (uPhi0) ``[section]`` asks for."""
    n = cfg.getint(section, "n_points")
    lo = cfg.getfloat(section, "phi_min_uphi0")
    hi = cfg.getfloat(section, "phi_max_uphi0")
    if not (n >= 1 and math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"[{section}] needs n_points >= 1 and finite "
                              f"flux ends, got {n} points on {lo}..{hi}")
    return np.linspace(lo, hi, n)


def cmd_simulate(args) -> int:
    from .rate_model import RateCurve, peak_rates

    cfg = _load_config(args)
    params = cfg.model_params()
    phi = _flux_grid(cfg, "simulate")
    well = cfg.get("simulate", "well")
    r01, r03 = peak_rates(phi, params, well, cfg.get("model", "gr_form"))
    curves = {"total": RateCurve(phi_x=phi, rate=r01 + r03, init_well=well),
              "peak0": RateCurve(phi_x=phi, rate=r01, init_well=well)}
    if params.delta03_ghz > 0 and np.all(r03 > 0):
        curves["peak1"] = RateCurve(phi_x=phi, rate=r03, init_well=well)
    out = _out_dir(args) / "model_curve.csv"
    dataio.write_curve_table(out, curves)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    from .fitter import RateDataset
    from .rate_model import simulate_curve

    cfg = _load_config(args)
    params = cfg.model_params()
    seed = args.seed if args.seed is not None else cfg.getint("gen", "seed")
    phi = _flux_grid(cfg, "gen")
    well, qubit_id = cfg.get("gen", "well"), cfg.get("gen", "qubit_id")
    curve = simulate_curve(phi, params, init_well=well,
                           gr_form=cfg.get("model", "gr_form"))
    noise_rel = cfg.getfloat("gen", "noise_rel")
    rng = np.random.default_rng(seed)
    noisy = curve.rate * np.exp(noise_rel * rng.standard_normal(len(phi)))
    dataset = RateDataset(
        phi_x=phi, rate=noisy, ip_a=params.ip_a,
        sigma_rel=np.full(len(phi), noise_rel), well=well, qubit_id=qubit_id)
    out = _out_dir(args) / f"{qubit_id}.csv"
    dataio.save_dataset(out, dataset, extra_meta={
        "seed": seed, "noise_rel": noise_rel,
        "generator": "mrtfit-gen",
    })
    print(f"wrote {out}")
    return EXIT_OK


def _fit_and_report(dataset, cfg, data_path, out_dir) -> dict:
    from .fitter import fit, initial_guess
    from .rate_model import RateCurve, peak_rates

    fit_cfg = cfg.fit_config()
    guess = initial_guess(dataset)
    result = fit(dataset, fit_cfg, guess)
    report = dataio.report_from_fit(
        result, fit_cfg,
        input_sha256=dataio.input_sha256(data_path) if data_path else "",
        config_sha256=cfg.sha256())
    stem = dataset.qubit_id or Path(data_path).stem
    report_path = out_dir / f"{stem}.report.json"
    dataio.save_report(report_path, report)
    (out_dir / f"{stem}.report.txt").write_text(
        dataio.render_report_text(report), encoding="utf-8")
    # residual table on the data grid (skipped when biases repeat, since a
    # curve table needs a strictly increasing axis)
    if np.all(np.diff(dataset.phi_x) > 0):
        r01, r03 = peak_rates(dataset.folded_phi(), result.params,
                              gr_form=fit_cfg.gr_form)
        model = RateCurve(phi_x=np.asarray(dataset.phi_x), rate=r01 + r03,
                          init_well="L")
        dataio.write_curve_table(out_dir / f"{stem}.residuals.csv",
                                 {"model": model}, dataset)
    else:
        print(f"MRTFIT-WARN qubit={stem} residual table skipped: "
              "repeated flux biases", file=sys.stderr)
    return report


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    dataset = dataio.load_dataset(args.data)
    out_dir = _out_dir(args)
    report = _fit_and_report(dataset, cfg, args.data, out_dir)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(dataio.render_report_text(report), end="")
    return EXIT_OK


def cmd_batch(args) -> int:
    from .fitter import batch_fit

    cfg = _load_config(args)
    files = sorted(Path(args.data_dir).glob("*.csv"))
    if not files:
        raise ValidationError(f"no .csv datasets found in {args.data_dir}")
    datasets = []
    for f in files:
        ds = dataio.load_dataset(f)
        if ds.qubit_id is None:
            ds = dataclasses.replace(ds, qubit_id=f.stem)
        datasets.append(ds)
    out_dir = _out_dir(args)
    fit_cfg = cfg.fit_config()
    result = batch_fit(datasets, fit_cfg, threads=args.threads)
    lines = ["qubit_id,status,chi2_per_dof,eta,r_shunt_ohm,tan_delta_c,"
             "tan_delta_l_1ghz"]
    for entry, f in zip(result.entries, files):
        if entry.result is None:
            lines.append(f"{entry.qubit_id},failed,,,,,")
            print(f"MRTFIT-WARN qubit={entry.qubit_id} error={entry.error}",
                  file=sys.stderr)
            continue
        r = entry.result
        report = dataio.report_from_fit(r, fit_cfg,
                                        input_sha256=dataio.input_sha256(f),
                                        config_sha256=cfg.sha256())
        dataio.save_report(out_dir / f"{entry.qubit_id}.report.json", report)
        d = r.derived
        lines.append(",".join([
            entry.qubit_id, "ok", dataio.fmt(r.chi2 / r.dof),
            dataio.fmt(d.eta), dataio.fmt(d.r_shunt_ohm),
            dataio.fmt(d.tan_delta_c), dataio.fmt(d.tan_delta_l_at[0][1])]))
    (out_dir / "batch_summary.csv").write_text("\n".join(lines) + "\n",
                                               encoding="utf-8")
    hist_lines = ["metric,bin_lo,bin_hi,count"]
    for metric, rows in result.histograms.items():
        for lo, hi, count in rows:
            hist_lines.append(f"{metric},{dataio.fmt(lo)},{dataio.fmt(hi)},{count}")
    (out_dir / "batch_histograms.csv").write_text("\n".join(hist_lines) + "\n",
                                                  encoding="utf-8")
    rows = {}
    for metric, stats in result.summary.items():
        rows[metric] = (f"mean {dataio.fmt(stats['mean'])} "
                        f"std {dataio.fmt(stats['std'])} n {stats['n']}")
    _print_or_json(args, {k: str(v) for k, v in rows.items()},
                   f"batch summary over {result.n_ok}/{len(datasets)} fits")
    return EXIT_OK if result.n_ok else EXIT_NONCONVERGENCE


def cmd_squid(args) -> int:
    from .squid_full import (RfSquidParams, effective_potential, harmonic_v31,
                             persistent_current, solve_wells)

    cfg = _load_config(args)
    f = functools.partial(cfg.getfloat, "squid")
    n_levels = cfg.getint("squid", "n_levels")
    params = RfSquidParams(ic_a=f("ic_ua") * 1e-6, l_h=f("l_ph") * 1e-12,
                           c_f=f("c_ff") * 1e-15, phi_cjj_x=f("phi_cjj_x"))
    pot = effective_potential(params, n_points=cfg.getint("squid", "grid_points"),
                              half_span=f("half_span"))
    basis = solve_wells(pot, params.c_f, n_levels=n_levels)
    ip = persistent_current(basis)
    omega31 = basis.omega31_ghz
    v31 = basis.voltage_v[1, 3]
    rows = {
        "beta_eff": f"{params.beta_eff:.6f}",
        "ip_ua": dataio.fmt(ip * 1e6),
        "delta01_mhz": dataio.fmt(basis.delta_ghz[(0, 1)] * 1e3),
        "delta03_mhz": dataio.fmt(basis.delta_ghz[(0, 3)] * 1e3),
        "omega31_ghz": dataio.fmt(omega31),
        "v31_uv": dataio.fmt(v31 * 1e6),
        "v31_harmonic_uv": dataio.fmt(
            harmonic_v31(2 * math.pi * omega31 * 1e9, params.c_f) * 1e6),
    }
    for n in range(2 * n_levels):
        rows[f"energy_{n}_ghz"] = dataio.fmt(basis.energies_ghz[n])
    _print_or_json(args, rows, "rf-SQUID well summary")
    if args.out:
        out = _out_dir(args) / "squid_summary.json"
        out.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mrtfit",
        description="Simulate and fit macroscopic resonant tunneling rate "
                    "curves of rf-SQUID flux qubits; extract flux- and "
                    "charge-noise parameters.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration file (INI); "
                       f"default from ${CONFIG_ENV_VAR} if set")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("derive", help="derived noise metrics from fit values")
    common(p)
    p.add_argument("--gamma-phi", type=float, required=True,
                   help="ohmic broadening, uPhi0")
    p.add_argument("--zeta-phi", type=float, required=True,
                   help="charge broadening, uPhi0")
    p.add_argument("--phi31", type=float, required=True,
                   help="peak separation, uPhi0")
    p.add_argument("--ip-ua", type=float, required=True,
                   help="persistent current, uA")
    p.add_argument("--l-ph", type=float, required=True,
                   help="main-loop inductance, pH")
    p.add_argument("--t-mk", type=float, required=True, help="temperature, mK")
    p.add_argument("--loss-freq-ghz", type=float, nargs="+", default=[1.0],
                   help="frequencies for tan delta_L, GHz")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("simulate", help="tabulate a model rate curve")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", help="generate a seeded synthetic dataset")
    common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured random seed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="fit a dataset and write a report")
    common(p)
    p.add_argument("--data", required=True, help="dataset file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("batch", help="fit every dataset in a directory")
    common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per dataset and CPU")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("squid", help="solve the rf-SQUID circuit and print "
                                     "well quantities")
    common(p)
    p.set_defaults(func=cmd_squid)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    try:
        return args.func(args)
    except (DatasetFormatError, ConfigError) as exc:
        return _fail("parse", str(exc), EXIT_PARSE)
    except FileNotFoundError as exc:
        return _fail("parse", f"file not found: {exc}", EXIT_PARSE)
    except ConvergenceError as exc:
        return _fail("non-convergence", str(exc), EXIT_NONCONVERGENCE)
    except (ValidationError, MrtfitError) as exc:
        return _fail("validation", str(exc), EXIT_VALIDATION)
    except Exception as exc:  # noqa: BLE001 - last resort: one line, no traceback
        return _fail("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: simulate, fit, derive, squid, gen, batch.  Failures exit
with a class-specific status (usage errors on the command line 1, parse
errors 2, file-system errors on a given path included, validation errors
3, non-convergence 4, any other exception 5 as class ``internal``) and
print one machine-parsable line on stderr of the form ``MRTFIT-ERROR
class=<class> message="..."``, never a traceback or usage text.
``--help`` prints its help and exits 0.

Each subcommand imports the parts of the package it runs, and none loads
scipy: the line shapes, the rf-SQUID solver and the fit run on numpy
alone, and ``derive`` loads no numpy either.
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
# the most flux biases simulate and gen tabulate, 8 MB per column
MAX_FLUX_POINTS = 10**6


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


def _flux_grid(cfg: dataio.RunConfig, section: str):
    """The flux biases (uPhi0) ``[section]`` asks for, an array of at most
    MAX_FLUX_POINTS of them."""
    import numpy as np

    n = cfg.getint(section, "n_points")
    lo = cfg.getfloat(section, "phi_min_uphi0")
    hi = cfg.getfloat(section, "phi_max_uphi0")
    if not (1 <= n <= MAX_FLUX_POINTS and math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"[{section}] needs 1 <= n_points <= {MAX_FLUX_POINTS} "
                              f"and finite flux ends, got {n} points on {lo}..{hi}")
    return np.linspace(lo, hi, n)


def cmd_simulate(args) -> int:
    from .rate_model import RateDataset, peak_rates

    cfg = _load_config(args)
    params = cfg.model_params()
    phi = _flux_grid(cfg, "simulate")
    well = cfg.get("simulate", "well")
    r01, r03 = peak_rates(phi, params, well)
    column = functools.partial(RateDataset, phi_x=phi, ip_a=params.ip_a, well=well)
    curves = {"total": column(rate=r01 + r03), "peak0": column(rate=r01)}
    if params.delta03_ghz > 0:
        curves["peak1"] = column(rate=r03)
    out = _out_dir(args) / "model_curve.csv"
    dataio.write_curve_table(out, curves)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    import numpy as np

    from .rate_model import simulate_curve

    cfg = _load_config(args)
    params = cfg.model_params()
    seed = args.seed if args.seed is not None else cfg.getint("gen", "seed")
    if seed < 0:
        where = "[gen] seed" if args.seed is None else "--seed"
        raise ValidationError(f"{where} must be a non-negative integer, got {seed}")
    phi = _flux_grid(cfg, "gen")
    well, qubit_id = cfg.get("gen", "well"), cfg.get("gen", "qubit_id")
    curve = simulate_curve(phi, params, init_well=well)
    noise_rel = cfg.getfloat("gen", "noise_rel")
    rng = np.random.default_rng(seed)
    noisy = curve.rate * np.exp(noise_rel * rng.standard_normal(len(phi)))
    dataset = dataclasses.replace(curve, rate=noisy, qubit_id=qubit_id,
                                  sigma_rel=np.full(len(phi), noise_rel))
    out = _out_dir(args) / f"{qubit_id}.csv"
    dataio.save_dataset(out, dataset, extra_meta={
        "seed": seed, "noise_rel": noise_rel,
        "generator": "mrtfit-gen",
    })
    print(f"wrote {out}")
    return EXIT_OK


def _start(dataset, fit_cfg, model):
    """The automatic guess for ``dataset`` with each parameter that
    ``fit_cfg`` holds at its value in ``model``, the ``[model]`` section."""
    from .fitter import InitialGuess, initial_guess

    held = {q.field: getattr(model, q.field)
            for q in units.FIT_PARAMS if q.name not in fit_cfg.free}
    return InitialGuess(dataclasses.replace(initial_guess(dataset).params, **held))


def _fit_and_report(dataset, cfg, data_path, out_dir) -> dict:
    import numpy as np

    from .fitter import fit
    from .rate_model import peak_rates

    fit_cfg = cfg.fit_config()
    result = fit(dataset, fit_cfg, _start(dataset, fit_cfg, cfg.model_params()))
    report = dataio.report_from_fit(
        result, fit_cfg,
        input_sha256=dataio.input_sha256(data_path),
        config_sha256=cfg.sha256())
    stem = dataset.qubit_id
    report_path = out_dir / f"{stem}.report.json"
    dataio.save_report(report_path, report)
    (out_dir / f"{stem}.report.txt").write_text(
        dataio.render_report_text(report), encoding="utf-8")
    # residual table on the data grid, its model column the dataset with the
    # fitted rates (skipped unless the biases strictly increase, as a plotted
    # flux axis must)
    if np.all(np.diff(dataset.phi_x) > 0):
        r01, r03 = peak_rates(dataset.folded_phi(), result.params)
        model = dataclasses.replace(dataset, rate=r01 + r03, sigma_rel=None)
        dataio.write_curve_table(out_dir / f"{stem}.residuals.csv",
                                 {"model": model}, dataset)
    else:
        print(f"MRTFIT-WARN qubit={stem} residual table skipped: "
              "repeated flux biases", file=sys.stderr)
    return report


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    dataset = dataio.load_dataset(args.data)
    # a dataset without an id is named after its file, whose stem must then
    # be a valid id, checked before the fit
    dataset = dataclasses.replace(dataset, qubit_id=dataset.qubit_id or Path(args.data).stem)
    out_dir = _out_dir(args)
    report = _fit_and_report(dataset, cfg, args.data, out_dir)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(dataio.render_report_text(report), end="")
    return EXIT_OK


def cmd_batch(args) -> int:
    from .fitter import DERIVED_METRICS, BatchEntry, batch_fit, metric_value

    cfg = _load_config(args)
    files = sorted(Path(args.data_dir).glob("*.csv"))
    if not files:
        raise ValidationError(f"no .csv datasets found in {args.data_dir}")
    # a dataset without an id is named after its file; a file that does not
    # load, or whose stem is no valid id, fails its own row as a fit would
    datasets, failed = [], {}
    for i, f in enumerate(files):
        try:
            ds = dataio.load_dataset(f)
            datasets.append(dataclasses.replace(ds, qubit_id=ds.qubit_id or f.stem))
        except ValidationError as exc:
            failed[i] = BatchEntry(f"dataset-{i}", None, f"{f.name}: {exc}")
            last = exc
    if not datasets:
        raise last   # nothing to fit: fail as a lone dataset does, writing nothing
    out_dir = _out_dir(args)
    fit_cfg = cfg.fit_config()
    start = functools.partial(_start, fit_cfg=fit_cfg, model=cfg.model_params())
    result = batch_fit(datasets, fit_cfg, threads=args.threads, start=start)
    fitted = iter(result.entries)
    entries = [failed.get(i) or next(fitted) for i in range(len(files))]
    lines = [",".join(["qubit_id,status,chi2_per_dof", *DERIVED_METRICS])]
    for entry, f in zip(entries, files):
        if entry.result is None:
            lines.append(f"{entry.qubit_id},failed," + "," * len(DERIVED_METRICS))
            print(f"MRTFIT-WARN qubit={entry.qubit_id} error={entry.error}",
                  file=sys.stderr)
            continue
        r = entry.result
        report = dataio.report_from_fit(r, fit_cfg,
                                        input_sha256=dataio.input_sha256(f),
                                        config_sha256=cfg.sha256())
        dataio.save_report(out_dir / f"{entry.qubit_id}.report.json", report)
        lines.append(",".join([
            entry.qubit_id, "ok", dataio.fmt(r.chi2 / r.dof),
            *(dataio.fmt(metric_value(r.derived, m)) for m in DERIVED_METRICS)]))
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
                   f"batch summary over {result.n_ok}/{len(files)} fits")
    return EXIT_OK if result.n_ok else EXIT_NONCONVERGENCE


def cmd_squid(args) -> int:
    from .squid_full import RfSquidParams, effective_potential, harmonic_v31, solve_wells

    cfg = _load_config(args)
    f = functools.partial(cfg.getfloat, "squid")
    params = RfSquidParams(ic_a=f("ic_ua") * 1e-6, l_h=f("l_ph") * 1e-12,
                           c_f=f("c_ff") * 1e-15, phi_cjj_x=f("phi_cjj_x"))
    pot = effective_potential(params, n_points=cfg.getint("squid", "grid_points"))
    basis = solve_wells(pot, params.c_f)
    omega31 = basis.omega31_ghz
    v31 = basis.voltage_v[1, 3]
    rows = {
        "beta_eff": f"{params.beta_eff:.6f}",
        "ip_ua": dataio.fmt(basis.ip_a * 1e6),
        "delta01_mhz": dataio.fmt(basis.delta_ghz[(0, 1)] * 1e3),
        "delta03_mhz": dataio.fmt(basis.delta_ghz[(0, 3)] * 1e3),
        "omega31_ghz": dataio.fmt(omega31),
        "v31_uv": dataio.fmt(v31 * 1e6),
        "v31_harmonic_uv": dataio.fmt(
            harmonic_v31(2 * math.pi * omega31 * 1e9, params.c_f) * 1e6),
    }
    for n, energy in enumerate(basis.energies_ghz):
        rows[f"energy_{n}_ghz"] = dataio.fmt(energy)
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

    shared = {
        "--config": {"help": "run configuration file (INI); "
                             f"default from ${CONFIG_ENV_VAR} if set"},
        "--out": {"help": "output directory (default: cwd)"},
        "--format": {"choices": ("table", "json"), "default": "table"},
    }

    def add(name, summary, func, *flags):
        """Subcommand ``name`` with the shared ``flags`` that ``func`` reads."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    p = add("derive", "derived noise metrics from fit values", cmd_derive, "--format")
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

    add("simulate", "tabulate a model rate curve", cmd_simulate, "--config", "--out")

    p = add("gen", "generate a seeded synthetic dataset", cmd_gen, "--config", "--out")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured random seed")

    p = add("fit", "fit a dataset and write a report", cmd_fit,
            "--config", "--out", "--format")
    p.add_argument("--data", required=True, help="dataset file")

    p = add("batch", "fit every dataset in a directory", cmd_batch,
            "--config", "--out", "--format")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per dataset and CPU")

    add("squid", "solve the rf-SQUID circuit and print well quantities", cmd_squid,
        "--config", "--out", "--format")
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
    except OSError as exc:
        return _fail("parse", str(exc), EXIT_PARSE)
    except ConvergenceError as exc:
        return _fail("non-convergence", str(exc), EXIT_NONCONVERGENCE)
    except (ValidationError, MrtfitError) as exc:
        return _fail("validation", str(exc), EXIT_VALIDATION)
    except Exception as exc:  # noqa: BLE001 - last resort: one line, no traceback
        return _fail("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())

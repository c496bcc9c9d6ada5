"""mrtfit benchmark: times the public API and the CLI on seeded inputs,
checks every output, and reports end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fit_mc --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs an untraced pass and then a traced pass over the same
operations and reports per-layer metrics (see ``bench/README.md``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` of the checkout; without it the run exits with
status 2 and prints no result.
"""

import os

# fixed before numpy is imported here and inherited by every child process:
# one BLAS/OpenMP thread per process, so two batch workers never use more
# threads than cores, and no user configuration file
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ.pop("MRTFIT_CONFIG", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import OP, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fit_mc", "model_sweep", "cli")
SETUP_PROBES = 3

# (name, unit) of the per-layer metrics; per-operation values are averages
# over the operations of the traced pass
PER_LAYER = [
    ("rate_model.build.count", "count"),
    ("rate_model.build.self_s", "s"),
    ("rate_model.grid_points.p50", "count"),
    ("rate_model.grid_points.max", "count"),
    ("rate_model.convolve.calls", "count"),
    ("rate_model.convolve.self_s", "s"),
    ("rate_model.voigt.calls", "count"),
    ("rate_model.voigt.self_s", "s"),
    ("rate_model.spline.calls", "count"),
    ("rate_model.spline.self_s", "s"),
    ("rate_model.quad.calls", "count"),
    ("rate_model.quad.self_s", "s"),
    ("rate_model.eval.calls", "count"),
    ("rate_model.eval.self_s", "s"),
    ("rate_model.simulate_curve.self_s", "s"),
    ("rate_model.cache.hit_ratio", "ratio"),
] + [(f"envelopes.{fn}.{kind}", unit)
     for fn in ("g_low", "g_relax", "thermal_enhancement", "relax_width")
     for kind, unit in (("calls", "count"), ("self_s", "s"))] + [
    ("fitter.objective.calls", "count"),
    ("fitter.objective.self_s", "s"),
    ("fitter.least_squares.self_s", "s"),
    ("fitter.initial_guess.self_s", "s"),
    ("fitter.fit.self_s", "s"),
    ("fitter.starts.count", "count"),
    ("fitter.converged_ratio", "ratio"),
    ("fitter.batch.wall_s", "s"),
    ("fitter.batch.efficiency", "ratio"),
    ("squid_full.eigh.calls", "count"),
    ("squid_full.eigh.self_s", "s"),
    ("squid_full.solve_wells.calls", "count"),
    ("squid_full.solve_wells.self_s", "s"),
    ("squid_full.full_spectrum.calls", "count"),
    ("squid_full.full_model_rate.self_s", "s"),
    ("dataio.load_dataset.self_s", "s"),
    ("dataio.report_from_fit.self_s", "s"),
    ("dataio.save_report.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import.scipy.signal_s", "s"),
    ("cli.import.scipy.optimize_s", "s"),
    ("cli.import.scipy.integrate_s", "s"),
    ("cli.import.mrtfit_s", "s"),
    ("guard.fit_c2_ratio", "ratio"),
    ("guard.lineshape_relerr", "ratio"),
    ("guard.squid_relerr", "ratio"),
    ("guard.derive_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.other.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]
# per-operation call counts and self times read straight from the spans
SPAN_METRICS = {
    "rate_model.build.count": ("rate_model.build", "calls"),
    "fitter.objective.calls": ("fitter.objective", "calls"),
}
for _name, _unit in PER_LAYER:
    _span, _, _kind = _name.rpartition(".")
    if _kind in ("calls", "self_s") and not _name.startswith("trace."):
        SPAN_METRICS.setdefault(_name, (_span, _kind))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def timed_loop(wl, seconds, n_max=None, tracer=None):
    """Run operations 0, 1, ... for about ``seconds`` (or ``n_max``
    operations), stopping only at a round boundary: the one nearest to
    ``seconds``, judged by the mean round time so far.  Returns one
    ``(kind, wall_s, error)`` per operation; outputs are checked outside
    the timed region."""
    records = []
    t_start = time.perf_counter()
    i = 0
    while True:
        rounds, within = divmod(i, wl.round_size)
        if within == 0:
            elapsed = time.perf_counter() - t_start
            half_round = elapsed / rounds / 2.0 if rounds else 0.0
            if (n_max is not None and i >= n_max) or elapsed + half_round >= seconds:
                break
        kind, thunk = wl.op(i)
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = thunk()
            else:
                with tracer.span(OP):
                    out = thunk()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            error = f"{kind}: {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if error is None:
            try:
                error = wl.check(kind, out)
            except Exception as exc:  # noqa: BLE001
                error = f"{kind}: output check failed: {type(exc).__name__}: {exc}"
        records.append((kind, wall, error))
        i += 1
    return records


def run_guards(wl):
    """Guard name -> (error, tolerance); a guard that raises is reported as
    an error string instead."""
    try:
        return wl.guard(), []
    except Exception as exc:  # noqa: BLE001
        return {}, [f"guard: {type(exc).__name__}: {exc}"]


def setup_probe(args) -> float:
    """Wall time of a fresh interpreter that imports the package, builds
    this workload's inputs and warms up, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=170)
    return time.perf_counter() - t0


def summarize_errors(records, guard_errors, guards):
    errors = [e for _, _, e in records if e is not None] + guard_errors
    errors += [f"guard {name}: {err:.3g} exceeds tolerance {tol:.3g}"
               for name, (err, tol) in guards.items() if not err <= tol]
    for e in errors[:20]:
        print(f"FAILED {e}")
    return errors


def run_plain(wl, args):
    setup = [setup_probe(args) for _ in range(SETUP_PROBES)]
    wl.setup()
    records = timed_loop(wl, args.seconds)
    guards, guard_errors = run_guards(wl)
    errors = summarize_errors(records, guard_errors, guards)

    ok = [w for _, w, e in records if e is None]
    by_kind = {}
    for kind, w, e in records:
        if e is None:
            by_kind.setdefault(kind, []).append(w)
    for kind, ws in by_kind.items():
        print(f"{wl.name} {kind}: n={len(ws)} median={statistics.median(ws):.4f} s "
              f"min={min(ws):.4f} s max={max(ws):.4f} s")
    for name, (err, tol) in guards.items():
        print(f"{wl.name} guard {name}: {err:.3e} (tolerance {tol:.1e})")
    print(f"{wl.name} setup probes: " + " ".join(f"{s:.3f}" for s in setup))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(ok) if ok else 0.0, "s"),
        "ops_per_s": (len(ok) / sum(w for _, w, _ in records), "1/s"),
        "acc_worst": (max((err / tol for err, tol in guards.values()),
                          default=0.0), "ratio"),
    }
    return metrics, len(records) + len(guards) + len(guard_errors), len(errors)


def run_traced(wl, args):
    wl.setup()
    half = args.seconds / 2.0
    untraced = timed_loop(wl, half)
    values = wl.extras()
    cache = getattr(sys.modules["mrtfit.rate_model"], "_cached_shapes", None)
    if cache is not None:
        cache.cache_clear()       # the traced pass repeats the same inputs
        info0 = cache.cache_info()
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(wl, half, n_max=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    guards, guard_errors = run_guards(wl)
    errors = summarize_errors(untraced + traced, guard_errors, guards)

    n = len(traced)
    calls, self_s, other, overfull = tracer.layer_totals()
    absent = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        if span in tracer.absent:
            absent[metric] = f"absent: {tracer.absent[span]}"
        values[metric] = (calls[span] if kind == "calls" else self_s[span]) / n
    grid = tracer.samples["rate_model.grid_points"]
    values["rate_model.grid_points.p50"] = statistics.median(grid) if grid else 0
    values["rate_model.grid_points.max"] = max(grid, default=0)
    if cache is None:
        absent["rate_model.cache.hit_ratio"] = \
            "absent: rate_model has no _cached_shapes lru_cache"
    else:
        info1 = cache.cache_info()
        hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
        values["rate_model.cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    starts = tracer.counters["fitter.starts"]
    values["fitter.starts.count"] = starts / n
    values["fitter.converged_ratio"] = (
        tracer.counters["fitter.converged_starts"] / starts if starts else 0.0)
    for name, (err, _tol) in guards.items():
        values[f"guard.{name}"] = err
    m = min(n, len(untraced))
    base = sum(w for _, w, _ in untraced[:m])
    values["trace.ops"] = n
    values["trace.other.self_s"] = other / n
    values["trace.overhead_frac"] = sum(w for _, w, _ in traced[:m]) / base - 1.0

    # consistency of the spans: layer self times fit inside each op, and the
    # objective was called exactly as often as the fits report
    if overfull:
        errors.append(f"trace: layer self times exceed op wall time in {len(overfull)} ops")
    n_eval = tracer.counters["fitter.n_eval"]
    if n_eval and n_eval != calls["fitter.objective"]:
        errors.append(f"trace: objective calls {calls['fitter.objective']} != "
                      f"sum of FitResult.n_eval {n_eval}")

    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            absent.setdefault(name, f"not measured on {wl.name}")
        metrics[name] = (float(values.get(name, 0.0)), unit)
    for name, reason in absent.items():
        print(f"{wl.name} per-layer {name}: {reason}")
    attempted = len(untraced) + len(traced) + len(guards) + len(guard_errors)
    return metrics, attempted, len(errors)


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mrtfit" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mrtfit'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import mrtfit
    if Path(mrtfit.__file__).resolve().parent != (SRC / "mrtfit").resolve():
        print(f"error: imported mrtfit from {mrtfit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Cli

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = WORKLOADS[args.workload]
        wl = (Cli(args.seed, workdir, in_process=bool(args.trace))
              if cls is Cli else cls(args.seed, workdir))
        if args.setup_only:
            wl.setup()
            return 0
        run = run_traced if args.trace else run_plain
        metrics, attempted, failed = run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    import numpy
    import scipy
    print("environment " + json.dumps({
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mrtfit": mrtfit.__version__, "commit": commit_id(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

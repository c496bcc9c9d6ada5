"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (before any
timing), hands out operations by index through ``op(i)`` and checks each
output in ``check`` outside the timed region.  The same index always
gives the same operation, so the traced pass of a ``--trace 1`` run
repeats the untraced pass op for op.  ``guard`` computes the accuracy
guards against independent references; the guard panels are fixed, not
seeded, so the guard compares code versions rather than noise draws.

* ``fit_mc``: serial ``fit(ds, guess=initial_guess(ds))`` over a pool of
  noisy REF datasets (fitter plus repeated line-shape builds).
* ``model_sweep``: one-off ``simulate_curve`` builds over varied regimes,
  with one ``full_model_rate(bias_mode="per_bias")`` call every ninth op
  (rate_model, envelopes and squid_full; no fitter).
* ``cli``: every subcommand as its own process (import cost, dataio and
  the batch process pool).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mrtfit
from mrtfit import dataio
from mrtfit.units import energy_to_flux, kelvin_to_ghz

import oracles

# tests/conftest.py reference values and tests/test_acceptance.py tolerances
REF = dict(delta01_ghz=2.72e-3, delta03_ghz=29.8e-3, phi31_uphi0=2153.6,
           w_phi_uphi0=37.2, gamma_phi_uphi0=0.54, zeta_phi_uphi0=4.53,
           temperature_k=7.3e-3, ip_a=1.37e-6)
REF_CIRCUIT = dict(ic_a=2.30e-6, l_h=250e-12, c_f=110e-15, phi_cjj_x=-0.74)
TOL_C2 = {"delta01_ghz": 0.03, "w_phi_uphi0": 0.03, "phi31_uphi0": 1e-3,
          "zeta_phi_uphi0": 0.10, "gamma_phi_uphi0": 0.25,
          "temperature_k": 0.15}
LINESHAPE_TOL = 1e-3          # criterion 4
SQUID_TOL = 1e-3              # default grid against a 4x-point grid
SQUID_FIELDS = ("ip_a", "delta01_ghz", "delta03_ghz", "omega31_ghz", "v31_volt")
# criterion 1: (target, tolerance) of the derive outputs at the REF inputs
DERIVE_TARGETS = {"eta": (5.9e-2, 0.5e-2), "r_shunt_kohm": (147.0, 13.0),
                  "tan_delta_c": (2.07e-3, 0.04e-3),
                  "tan_delta_l_1ghz": (10.6e-6, 0.9e-6)}

NOISE_REL = 0.05
C2_PHI = np.linspace(-500.0, 3000.0, 200)


def ref_params(**overrides) -> mrtfit.MrtParams:
    return mrtfit.MrtParams(**{**REF, **overrides})


def noisy_ref_dataset(rng, clean, well="L", qubit_id=None) -> mrtfit.RateDataset:
    """The criterion-2 dataset: REF on 200 points, 5% log-normal noise.
    ``well="R"`` gives the mirrored measurement of the same curve, listed
    in increasing flux like the left-well one."""
    noisy = clean * np.exp(NOISE_REL * rng.standard_normal(len(C2_PHI)))
    phi = C2_PHI
    if well == "R":
        phi, noisy = -C2_PHI[::-1], noisy[::-1]
    return mrtfit.RateDataset(phi_x=phi, rate=noisy, ip_a=REF["ip_a"],
                              sigma_rel=np.full(len(phi), NOISE_REL),
                              well=well, qubit_id=qubit_id)


def positive_finite(values) -> bool:
    values = np.asarray(values, dtype=float)
    return values.size > 0 and bool(np.all(np.isfinite(values) & (values > 0)))


def peak_biases(p) -> list:
    """Zeroth peak, valley and first peak of a REF-like curve (uPhi0)."""
    shift = energy_to_flux(p.w_ghz() ** 2 / (2.0 * p.temperature_ghz()), p.ip_a)
    return [shift, 0.55 * p.phi31_uphi0, p.phi31_uphi0 + shift]


def lineshape_relerr(p, phi, model_rate, at) -> float:
    """Worst |model/quad - 1| at the biases of ``phi`` nearest to ``at``,
    where the reference is above 1e-6 of the largest reference value."""
    idx = sorted({int(np.argmin(np.abs(phi - a))) for a in at})
    ref = [oracles.total_rate(float(phi[i]), p) for i in idx]
    top = max(ref)
    return max(abs(model_rate[i] / r - 1.0)
               for i, r in zip(idx, ref) if r > 1e-6 * top)


class Workload:
    name = ""
    round_size = 1        # the timed loop stops only at a round boundary

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Build the inputs and warm up; set-up time covers this."""

    def op(self, i: int):
        """(kind, thunk) of operation ``i``."""
        raise NotImplementedError

    def check(self, kind, out):
        """None if the output is correct, else the reason it is not."""
        return None

    def guard(self) -> dict:
        """Accuracy guards: name -> (error, tolerance)."""
        return {}

    def extras(self) -> dict:
        """Per-layer numbers measured outside the op loop, with no wrapper
        installed (trace runs only)."""
        return {}


# ---------------------------------------------------------------------------

class FitMC(Workload):
    name = "fit_mc"
    POOL = 48
    GUARD_SEEDS = (42_000, 42_001, 42_002)   # criterion-2 noise seeds

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.clean = mrtfit.simulate_curve(C2_PHI, ref_params()).rate
        self.pool = [noisy_ref_dataset(rng, self.clean,
                                       well=rng.choice(["L", "R"]),
                                       qubit_id=f"mc{k:02d}")
                     for k in range(self.POOL)]
        guess = mrtfit.initial_guess(self.pool[0])
        mrtfit.LineShapes(guess.params, -500.0, 3000.0)

    def op(self, i):
        ds = self.pool[i % self.POOL]

        def run():
            return mrtfit.fit(ds, guess=mrtfit.initial_guess(ds))
        return "fit", run

    def check(self, kind, res):
        values = [getattr(res.params, f) for f in TOL_C2]
        if not res.converged or not np.all(np.isfinite(values)):
            return f"fit not converged or non-finite: {res.status}"
        if not res.chi2 / res.dof < 2.0:
            return f"chi2/dof = {res.chi2 / res.dof:.2f} on 5% noise"
        return None

    def guard(self):
        truth = ref_params()
        fits = []
        for s in self.GUARD_SEEDS:
            ds = noisy_ref_dataset(np.random.default_rng(s), self.clean)
            fits.append(mrtfit.fit(ds, guess=mrtfit.initial_guess(ds)))
        worst = max(abs(np.median([getattr(r.params, f) for r in fits])
                        / getattr(truth, f) - 1.0) / tol
                    for f, tol in TOL_C2.items())
        return {"fit_c2_ratio": (worst, 1.0)}

    def extras(self):
        # batch fan-out at min(2, nproc) workers against the serial times
        # of the same datasets
        workers = min(2, os.cpu_count() or 1)
        jobs = self.pool[:4]
        serial = []
        for ds in jobs:
            t0 = time.perf_counter()
            mrtfit.fit(ds, guess=mrtfit.initial_guess(ds))
            serial.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        result = mrtfit.batch_fit(jobs, threads=workers)
        wall = time.perf_counter() - t0
        if result.n_ok != len(jobs):
            raise RuntimeError(f"batch_fit fitted {result.n_ok}/{len(jobs)}")
        return {"fitter.batch.wall_s": wall,
                "fitter.batch.efficiency": sum(serial) / (workers * wall)}


# ---------------------------------------------------------------------------

class ModelSweep(Workload):
    name = "model_sweep"
    N_BIASES = 1000
    FULL_MODEL_EVERY = 9
    FULL_MODEL_BIASES = 60
    # one regime per curve op, cycled in this order so every run has the
    # same mix; "narrow" hits the 2^18+1 grid clamp and the quad
    # renormalization, "wide" widens the window to +-20000 uPhi0
    REGIMES = ("base", "gamma0", "base", "zeta0", "narrow",
               "base", "delta03_0", "wide")

    def setup(self):
        phi = np.linspace(-500.0, 3000.0, self.N_BIASES)
        mrtfit.simulate_curve(phi, ref_params(delta01_ghz=2.5e-3))
        circuit = mrtfit.RfSquidParams(**REF_CIRCUIT)
        mrtfit.solve_wells(mrtfit.effective_potential(circuit), circuit.c_f,
                           compute_amplitudes=False)

    def _curve_params(self, rng, regime):
        t_k = rng.uniform(5e-3, 15e-3)
        w = rng.uniform(15.0, 60.0)
        # ohmic coupling 2 gamma / k_B T kept below the 0.3 validity limit
        gamma_max = energy_to_flux(0.14 * kelvin_to_ghz(t_k), REF["ip_a"])
        p = dict(REF, temperature_k=t_k, w_phi_uphi0=w,
                 gamma_phi_uphi0=gamma_max * 10 ** rng.uniform(-2.0, 0.0),
                 zeta_phi_uphi0=w * rng.uniform(0.02, 0.5),
                 phi31_uphi0=rng.uniform(1500.0, 2500.0),
                 delta01_ghz=rng.uniform(1.5e-3, 4e-3),
                 delta03_ghz=rng.uniform(15e-3, 45e-3))
        if regime == "gamma0":
            p["gamma_phi_uphi0"] = 0.0
        elif regime == "zeta0":
            p["zeta_phi_uphi0"] = 0.0
        elif regime == "delta03_0":
            p["delta03_ghz"] = 0.0
        elif regime == "narrow":
            # below about 0.05 uPhi0 the quad renormalization can return a
            # negative mass and the build fails (see bench/README.md)
            p["zeta_phi_uphi0"] = rng.uniform(0.05, 0.1)
        p = mrtfit.MrtParams(**p)
        lo, hi = ((-20000.0, 20000.0) if regime == "wide"
                  else (-0.3 * p.phi31_uphi0, 1.45 * p.phi31_uphi0))
        return p, np.linspace(lo, hi, self.N_BIASES)

    def op(self, i):
        rng = np.random.default_rng([self.seed, i])
        if i % self.FULL_MODEL_EVERY == self.FULL_MODEL_EVERY - 1:
            circuit = mrtfit.RfSquidParams(
                **dict(REF_CIRCUIT, phi_cjj_x=rng.uniform(-0.76, -0.735)))
            noise = mrtfit.FullModelNoise(
                w_phi_uphi0=rng.uniform(30.0, 50.0),
                gamma_phi_uphi0=rng.uniform(0.2, 1.0),
                tan_delta_c=rng.uniform(1e-3, 3e-3),
                temperature_k=rng.uniform(5e-3, 10e-3))
            phi = np.linspace(-500.0, 3000.0, self.FULL_MODEL_BIASES)

            def run():
                return mrtfit.full_model_rate(circuit, noise, phi,
                                              bias_mode="per_bias")
            return "full_model", run
        k = i - i // self.FULL_MODEL_EVERY
        p, phi = self._curve_params(rng, self.REGIMES[k % len(self.REGIMES)])
        well = "R" if rng.random() < 0.5 else "L"
        if well == "R":
            phi = -phi[::-1]

        def run():
            return mrtfit.simulate_curve(phi, p, init_well=well)
        return "curve", run

    def check(self, kind, out):
        curve = out.curve if kind == "full_model" else out
        if not positive_finite(curve.rate):
            return f"{kind}: rates not finite and positive"
        if kind == "full_model" and not positive_finite(
                [out.solver[f] for f in SQUID_FIELDS]):
            return "full_model: solver quantities not finite and positive"
        return None

    def guard(self):
        worst_shape = 0.0
        for p in (ref_params(), ref_params(zeta_phi_uphi0=0.05)):
            phi = np.linspace(-0.3 * p.phi31_uphi0, 1.45 * p.phi31_uphi0,
                              self.N_BIASES)
            rate = mrtfit.simulate_curve(phi, p).rate
            worst_shape = max(worst_shape,
                              lineshape_relerr(p, phi, rate, peak_biases(p)))
        circuit = mrtfit.RfSquidParams(**REF_CIRCUIT)
        noise = mrtfit.FullModelNoise(w_phi_uphi0=37.2, gamma_phi_uphi0=0.54,
                                      tan_delta_c=2e-3, temperature_k=7.3e-3)
        phi = np.linspace(-500.0, 3000.0, self.FULL_MODEL_BIASES)
        base = mrtfit.full_model_rate(circuit, noise, phi).solver
        n_ref = 4 * mrtfit.squid_full.DEFAULT_GRID_POINTS
        fine = mrtfit.full_model_rate(circuit, noise, phi, n_points=n_ref).solver
        worst_squid = max(abs(base[f] / fine[f] - 1.0) for f in SQUID_FIELDS)
        return {"lineshape_relerr": (worst_shape, LINESHAPE_TOL),
                "squid_relerr": (worst_squid, SQUID_TOL)}


# ---------------------------------------------------------------------------

class Cli(Workload):
    name = "cli"
    SUBCOMMANDS = ("derive", "simulate", "squid", "fit", "batch")
    round_size = len(SUBCOMMANDS)
    BATCH = 4

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir)
        self.in_process = in_process
        self.threads = min(2, os.cpu_count() or 1)
        self.derive_out = []
        self.simulate_table = None

    def setup(self):
        import mrtfit.cli  # noqa: F401  - compiles the .pyc files up front
        rng = np.random.default_rng(self.seed)
        clean = mrtfit.simulate_curve(C2_PHI, ref_params()).rate
        self.data = self.workdir / "fit.csv"
        self.batch_dir = self.workdir / "batch"
        self.batch_dir.mkdir(parents=True, exist_ok=True)
        dataio.save_dataset(self.data, noisy_ref_dataset(
            rng, clean, well=rng.choice(["L", "R"]), qubit_id="cli_fit"))
        for k in range(self.BATCH):
            dataio.save_dataset(self.batch_dir / f"b{k}.csv", noisy_ref_dataset(
                rng, clean, well=rng.choice(["L", "R"]), qubit_id=f"b{k}"))

    def argv(self, sub, out):
        if sub == "derive":
            return ["derive", "--gamma-phi", "0.54", "--zeta-phi", "4.53",
                    "--phi31", "2153.6", "--ip-ua", "1.37", "--l-ph", "250",
                    "--t-mk", "7.3", "--format", "json"]
        if sub == "squid":
            return ["squid", "--format", "json"]
        if sub == "simulate":
            return ["simulate", "--out", str(out)]
        if sub == "fit":
            return ["fit", "--data", str(self.data), "--out", str(out),
                    "--format", "json"]
        return ["batch", "--data-dir", str(self.batch_dir), "--out", str(out),
                "--threads", str(self.threads)]

    def op(self, i):
        sub = self.SUBCOMMANDS[i % len(self.SUBCOMMANDS)]
        out = self.workdir / f"out{i}"
        argv = self.argv(sub, out)

        def run():
            if self.in_process:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = mrtfit.cli.main(argv)
                return code, buf.getvalue(), out
            proc = subprocess.run([sys.executable, "-m", "mrtfit.cli", *argv],
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, out
        return sub, run

    def check(self, sub, out):
        code, stdout, out_dir = out
        if code != 0:
            return f"{sub}: exit code {code}"
        if sub in ("derive", "squid", "fit"):
            rows = json.loads(stdout)
        if sub == "derive":
            self.derive_out.append({k: float(rows[k]) for k in DERIVE_TARGETS})
        elif sub == "squid":
            if not positive_finite([float(rows[k]) for k in
                                    ("ip_ua", "delta01_mhz", "omega31_ghz")]):
                return "squid: quantities not finite and positive"
        elif sub == "simulate":
            table = read_csv_table(out_dir / "model_curve.csv")
            if not positive_finite(table[:, 1:]):
                return "simulate: rates not finite and positive"
            self.simulate_table = table
        elif sub == "fit":
            stem = "cli_fit"
            report = dataio.load_report(out_dir / f"{stem}.report.json")
            if not report["converged"]:
                return "fit: report says not converged"
            read_csv_table(out_dir / f"{stem}.residuals.csv")
        elif sub == "batch":
            lines = (out_dir / "batch_summary.csv").read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            if len(rows) != self.BATCH or any(r[1] != "ok" for r in rows):
                return f"batch: summary rows {rows}"
            for r in rows:
                dataio.load_report(out_dir / f"{r[0]}.report.json")
            read_csv_table(out_dir / "batch_histograms.csv", numeric_from=1)
        return None

    def guard(self):
        out = {}
        if self.derive_out:
            out["derive_ratio"] = (max(abs(d[k] - t) / tol
                                 for d in self.derive_out
                                 for k, (t, tol) in DERIVE_TARGETS.items()), 1.0)
        if self.simulate_table is not None:
            table = self.simulate_table
            p = ref_params()
            out["lineshape_relerr"] = (
                lineshape_relerr(p, table[:, 0], table[:, 1], peak_biases(p)),
                LINESHAPE_TOL)
        return out

    def extras(self):
        return import_costs()


def read_csv_table(path, numeric_from=0) -> np.ndarray:
    """Parse a comma-separated table (``#`` lines skipped, one header);
    columns from ``numeric_from`` on must be numeric."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()
            if line and not line.startswith("#")]
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: ragged or empty table")
    return np.array([[float(c) for c in r[numeric_from:]] for r in rows[1:]])


IMPORT_MODULES = ("scipy.signal", "scipy.optimize", "scipy.integrate", "mrtfit")


def import_costs() -> dict:
    """Interpreter floor, ``import mrtfit.cli`` wall time (medians of 3
    fresh interpreters) and cumulative ``-X importtime`` times of the heavy
    modules; a module that is no longer imported reads 0."""
    def wall(code):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    out = {"cli.interpreter_s": wall("pass"),
           "cli.import_s": wall("import mrtfit.cli")}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import mrtfit.cli"], capture_output=True, text=True,
                          check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    for mod in IMPORT_MODULES:
        out[f"cli.import.{mod}_s"] = cumulative.get(mod, 0.0)
    return out


WORKLOADS = {w.name: w for w in (FitMC, ModelSweep, Cli)}

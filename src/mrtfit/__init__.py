"""mrtfit: macroscopic resonant tunneling rate curves of rf-SQUID flux
qubits, and the flux- and charge-noise parameters extractable from them.

The package simulates two-peak tunneling-rate line shapes built from
convolved noise envelopes, fits them to measured rate-versus-flux data,
converts the fitted broadenings into standard noise metrics (ohmic
coupling, shunt resistance, capacitive and inductive loss tangents), and
cross-validates the simplified line-shape model against a full 1D
rf-SQUID circuit eigenproblem.

The public names below are resolved on first access (PEP 562), so that
importing the package, or a light submodule such as ``units``, loads no
submodule it does not use.  Each access looks the name up in its submodule
again, so no stale copy of a submodule's attribute is kept.  Envelopes and
unit conversions are imported from ``mrtfit.envelopes`` and ``mrtfit.units``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "envelopes": (),
    "errors": (
        "ConfigError", "ConvergenceError", "DatasetFormatError", "DomainError",
        "ModelValidityWarning", "MrtfitError", "ReportError", "SingleWellError",
        "ValidationError"),
    "fitter": (
        "BatchResult", "FitConfig", "FitResult", "InitialGuess", "batch_fit",
        "fit", "initial_guess"),
    "rate_model": (
        "LineShapes", "MrtParams", "RateDataset", "peak_rates", "simulate_curve"),
    "squid_full": (
        "EffectivePotential", "FullModelNoise", "FullModelResult",
        "RfSquidParams", "WellBasis", "effective_potential", "full_model_rate",
        "ground_pair_splitting", "harmonic_v31", "solve_wells"),
    "units": ("NoiseSummary",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                       name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

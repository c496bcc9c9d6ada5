"""In-memory spans around mrtfit's layer entry points, installed at run time.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
each traced name for a wrapper in every ``mrtfit`` module that binds it
(so ``from .rate_model import LineShapes`` in ``cli`` is covered too) and
``uninstall`` puts the originals back.  A span is ``[name, start, end,
parent]``; spans stay in memory until the run ends, and self time is a
span's duration minus the durations of its direct children.  A name the
package no longer has is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name): functions and classes looked up through
# module globals at call time.  Third-party names (voigt_profile, quad, ...)
# are traced only where an mrtfit module binds them.
FUNCTIONS = (
    ("rate_model", "convolve", "rate_model.convolve"),
    ("rate_model", "voigt_profile", "rate_model.voigt"),
    ("rate_model", "CubicSpline", "rate_model.spline"),
    ("rate_model", "quad", "rate_model.quad"),
    ("rate_model", "simulate_curve", "rate_model.simulate_curve"),
    ("envelopes", "g_low", "envelopes.g_low"),
    ("envelopes", "g_relax", "envelopes.g_relax"),
    ("envelopes", "thermal_enhancement", "envelopes.thermal_enhancement"),
    ("envelopes", "relax_width", "envelopes.relax_width"),
    ("fitter", "initial_guess", "fitter.initial_guess"),
    ("fitter", "fit", "fitter.fit"),
    ("fitter", "least_squares", "fitter.least_squares"),
    ("fitter", "batch_fit", "fitter.batch_fit"),
    ("squid_full", "eigh_tridiagonal", "squid_full.eigh"),
    ("squid_full", "solve_wells", "squid_full.solve_wells"),
    ("squid_full", "full_spectrum", "squid_full.full_spectrum"),
    ("squid_full", "full_model_rate", "squid_full.full_model_rate"),
    ("dataio", "load_dataset", "dataio.load_dataset"),
    ("dataio", "report_from_fit", "dataio.report_from_fit"),
    ("dataio", "save_report", "dataio.save_report"),
)

# (module, class, method, span name): patched on the class, which covers
# every module that binds the class.
METHODS = (
    ("rate_model", "LineShapes", "__init__", "rate_model.build"),
    ("rate_model", "LineShapes", "shape01", "rate_model.eval"),
    ("rate_model", "LineShapes", "shape03", "rate_model.eval"),
    ("fitter", "_Objective", "__call__", "fitter.objective"),
)

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.samples = defaultdict(list)
        self.absent = {}
        self._stack = []
        self._undo = []

    # ---- recording ------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out
        return traced

    def _after_build(self, args, _out):
        self.samples["rate_model.grid_points"].append(len(args[0].grid))

    def _after_fit(self, _args, out):
        self.counters["fitter.n_eval"] += out.n_eval

    def _after_least_squares(self, _args, out):
        self.counters["fitter.starts"] += 1
        self.counters["fitter.converged_starts"] += int(out.status > 0)

    # ---- installation ---------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mrtfit" or n.startswith("mrtfit."))]
        after = {"fitter.least_squares": self._after_least_squares,
                 "fitter.fit": self._after_fit}
        for mod_name, attr, name in FUNCTIONS:
            owner = sys.modules.get(f"mrtfit.{mod_name}")
            orig = getattr(owner, attr, None)
            if orig is None:
                self.absent[name] = f"mrtfit.{mod_name} has no {attr}"
                continue
            wrapper = self._wrap(orig, name, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, orig))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules.get(f"mrtfit.{mod_name}"), cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                self.absent[name] = f"mrtfit.{mod_name}.{cls_name} has no {meth}"
                continue
            hook = self._after_build if name == "rate_model.build" else None
            setattr(cls, meth, self._wrap(orig, name, hook))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # ---- analysis -------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls and total self seconds, bench spans
        excluded; the self time of the bench's op spans (time in no traced
        layer); and the ops whose layer self times exceed their wall time."""
        child_sum = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_sum[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        op_of = {}
        layer_self_in_op = defaultdict(float)
        other = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child_sum[i]
            op_of[i] = i if name == OP else op_of.get(parent)
            if name == OP:
                other += own
                continue
            calls[name] += 1
            self_s[name] += own
            if op_of[i] is not None:
                layer_self_in_op[op_of[i]] += own
        overfull = [i for i, s in layer_self_in_op.items()
                    if s > self.spans[i][2] - self.spans[i][1] + 1e-9]
        return calls, self_s, other, overfull

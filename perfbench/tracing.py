"""Spans and counters around specband's public functions, installed from outside.

The tracer replaces module-level names that the package looks up at call
time with timing wrappers, and a few methods with count-only wrappers.  It
changes no program code, and ``restore`` puts every original back.  Each
span is ``[name, start, end, parent index, attempt id]``; spans stay in
memory until the run writes them out.
"""

import collections
import functools
import sys
from time import perf_counter

from specband.matrices import MatrixSpec
from specband.spectral import StepMeasure
from specband.vectorpoly import VectorPolynomial

#: functions timed as spans, by defining module; the span is "module.function"
TIMED = {
    "matrices": ("truncate", "analyze_structure", "validate_class"),
    "spectral": (
        "eigen_decompose",
        "step_measure",
        "psi_at",
        "build_p",
        "build_q",
        "gram_matrix",
        "multiplication_matrix",
        "q_norms_sq",
        "det_theta_polynomial",
    ),
    "interpolation": ("verify_generators",),
    "reconstruct": (
        "roundtrip",
        "orthonormalize",
        "recover_matrix",
        "spec_from_dense",
        "compare_measures",
    ),
    "serialize": (
        "load",
        "dump",
        "measure_from_dict",
        "measure_to_dict",
        "matrix_to_dict",
        "matrix_from_dict",
        "boundary_to_dict",
        "boundary_from_dict",
        "spec_to_dict",
        "spec_from_dict",
    ),
    "cli": ("run_cli",),
}

#: functions and methods only counted: (owner, attribute, counter name);
#: kernel_dimension is not timed so that verify_generators' self time holds
#: its one-SVD-per-height walk
COUNTED = (
    ("interpolation", "kernel_dimension", "interpolation.kernel_dimension.calls"),
    (MatrixSpec, "struct_tol", "matrices.struct_tol.calls"),
    (StepMeasure, "moment", "spectral.moment.calls"),
)

#: VectorPolynomial arithmetic; a call made inside another one is not counted
ARITH = ("__add__", "__sub__", "__mul__", "__rmul__", "z_mul", "scalar_poly_mul")


def _module(name):
    return sys.modules[f"specband.{name}"]


def _specband_modules():
    return [m for k, m in sys.modules.items() if k == "specband" or k.startswith("specband.")]


class Tracer:
    """Records spans and counts while installed; records nothing afterwards."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.attempt = -1
        self._open = []
        self._patches = []
        self._arith_depth = 0

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, on_return=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.attempt]
            spans.append(span)
            open_spans.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _arith(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._arith_depth == 0:
                self.counts["vectorpoly.arith.calls"] += 1
            self._arith_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._arith_depth -= 1

        return wrapper

    # -- hooks that read the work a call did off its arguments or result --

    def _entries(self, args, _result):
        self.counts["matrices.entries_checked"] += len(args[0].entries)

    def _sweep(self, _args, res):
        emitted = len(res.p_tilde)
        # the sweep stops at the cap (one more index visited, then dropped)
        # unless every residue class closed with a degeneration first
        stopped_at_cap = len(res.q_tilde) < res.t_tilde.n
        self.counts["reconstruct.orthonormalize.emitted"] += emitted
        self.counts["reconstruct.orthonormalize.visited"] += (
            emitted + len(res.q_tilde) + len(res.skip_log) + stopped_at_cap
        )

    # -- install / restore ------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        """Replace ``original`` under every name a specband module binds it to."""
        for mod in _specband_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self):
        hooks = {
            "matrices.validate_class": self._entries,
            "matrices.analyze_structure": self._entries,
            "reconstruct.orthonormalize": self._sweep,
        }
        # a listed name the package no longer has is an error, not a metric of 0
        for module, names in TIMED.items():
            mod = _module(module)
            for fname in names:
                original = getattr(mod, fname)
                name = f"{module}.{fname}"
                self._patch_everywhere(original, self._timed(name, original, hooks.get(name)))
        for owner, attr, name in COUNTED:
            if isinstance(owner, str):
                original = getattr(_module(owner), attr)
                self._patch_everywhere(original, self._counted(name, original))
            else:
                self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        for attr in ARITH:
            self._patch(VectorPolynomial, attr, self._arith(getattr(VectorPolynomial, attr)))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- aggregation ------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds), self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - inner)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,attempt\n")
            for name, start, end, parent, attempt in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{attempt}\n")

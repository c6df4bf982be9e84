"""Outside-in tracer for the ``schatten_widths`` layers.

The package is not edited.  :class:`Tracer` replaces every public function
of the traced modules by a timing wrapper, everywhere the function object
is bound: the defining module, every module that imported the name (for
example ``distances.schatten_norm`` or ``estimators.jacobi_svd``) and
module-level dicts that hold it (``cli._ESTIMATORS``).  Leaving the
``with`` block restores every binding.

Spans are aggregated in memory per (span, parent) -- one ``calib-n2`` pass
makes about 180k ``schatten_norm`` calls -- into call counts, total time
and self time.  Self time is a span's duration minus the time covered by
its wrapped children.  A wrapped call made directly inside a span of the
same name (``singular_values`` -> ``jacobi_svd``, ``estimate_gelfand`` ->
``estimate_kolmogorov``) is part of that span, not a new one.

A name that a later version of the package no longer has is recorded as
absent; its metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

import numpy as np

MODULES = (
    "core",
    "ascent",
    "distances",
    "estimators",
    "oracle",
    "recovery",
    "certificates",
    "envelope",
    "cli",
)

# Functions reported under one shared span name; every other public
# function ``f`` of module ``m`` is the span ``m.f``.
GROUPED = {
    "core.jacobi_svd": "core.svd",
    "core.singular_values": "core.svd",
    "estimators.estimate_approx": "estimators",
    "estimators.estimate_gelfand": "estimators",
    "estimators.estimate_kolmogorov": "estimators",
    "estimators.operator_norm_estimate": "estimators",
    "certificates.upper_certificates": "certificates.build",
    "certificates.lower_certificates": "certificates.build",
    "certificates.upper_column_zero": "certificates.build",
    "certificates.upper_factor_through_S2": "certificates.build",
    "certificates.upper_trivial": "certificates.build",
    "certificates.lower_two_summing": "certificates.build",
    "certificates.lower_gks_kolmogorov": "certificates.build",
    "certificates.lower_multiplicativity": "certificates.build",
    "cli.run": "cli.main",
}

# Methods traced on their class: (module, class, method) -> span.
METHODS = {("envelope", "EnvelopeProfile", "value"): "envelope.value"}

# Spans the per-layer metrics are read from; a missing one is reported.
EXPECTED = (
    "core.svd",
    "core.schatten_norm",
    "ascent.sup_ratio_ascent",
    "ascent.norm_gradient",
    "distances.distance_schatten",
    "estimators",
    "oracle.net_oracle",
    "recovery.nuclear_decoder",
    "recovery.worst_case_error",
    "certificates.build",
    "certificates.verify_certificate",
    "envelope.envelope_profile",
    "envelope.value",
    "cli.main",
)

DISTANCE_PATHS = ("trivial", "frobenius", "codim1", "n2", "spectral", "irls")


def distance_path(x, basis, q) -> str:
    """The solver ``distance_schatten`` dispatches to, in its own order."""
    from schatten_widths.exponents import as_exponent, is_infinite

    q = as_exponent(q)
    if basis.dim == 0:
        return "trivial"
    if q == 2:
        return "frobenius"
    if basis.dim == basis.N * basis.N - 1:
        return "codim1"
    if basis.N == 2:
        return "n2"
    if is_infinite(q):
        return "spectral"
    return "irls"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _svd_call(c: Counter, args, kwargs) -> None:
    a = np.asarray(_arg(args, kwargs, 0, "a"))
    c["core.svd.matrices"] += a.shape[0] if a.ndim == 3 else 1


def _norm_call(c: Counter, args, kwargs) -> None:
    if np.shape(_arg(args, kwargs, 0, "a")) == (2, 2):
        c["core.schatten_norm.2x2"] += 1


def _distance_call(c: Counter, args, kwargs) -> None:
    path = distance_path(
        _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "basis"), _arg(args, kwargs, 2, "q")
    )
    c[f"distances.path.{path}"] += 1


def _ascent_result(c: Counter, r) -> None:
    c["ascent.iterations"] += r.iterations
    c["ascent.evaluations"] += r.evaluations
    c["ascent.converged"] += bool(r.converged)


def _distance_result(c: Counter, r) -> None:
    c["distances.iterations"] += r.iterations
    c["distances.converged"] += bool(r.converged)


def _oracle_result(c: Counter, r) -> None:
    c["oracle.frames"] += r.restarts


def _decoder_result(c: Counter, r) -> None:
    c["recovery.fista_iterations"] += r.iterations
    c["recovery.converged"] += bool(r.converged)


def _verify_result(c: Counter, r) -> None:
    c["certificates.verify_samples"] += r.samples


ON_CALL: dict[str, Callable] = {
    "core.svd": _svd_call,
    "core.schatten_norm": _norm_call,
    "distances.distance_schatten": _distance_call,
}
ON_RESULT: dict[str, Callable] = {
    "ascent.sup_ratio_ascent": _ascent_result,
    "distances.distance_schatten": _distance_result,
    "oracle.net_oracle": _oracle_result,
    "recovery.nuclear_decoder": _decoder_result,
    "certificates.verify_certificate": _verify_result,
}


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.stats`` and ``t.counters``.

    ``stats[(span, parent)] = [calls, total_s, self_s]``; ``parent`` is
    ``None`` for a span opened at top level.
    """

    def __init__(self) -> None:
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, object, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += elapsed
        entry = self.stats[(name, parent)]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, time.perf_counter() - start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        on_call = ON_CALL.get(name)
        on_result = ON_RESULT.get(name)
        stack = self._stack
        counters = self.counters
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(counters, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, perf_counter() - start)
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _targets(self) -> dict[int, tuple[Callable, str]]:
        """``id(function) -> (function, span)`` for every traced function."""
        targets = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"schatten_widths.{short}")
            except ImportError:
                self.absent.append(f"schatten_widths.{short}")
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if callable(fn) and getattr(fn, "__module__", None) == module.__name__ \
                        and not isinstance(fn, type):
                    key = f"{short}.{attr}"
                    targets[id(fn)] = (fn, GROUPED.get(key, key))
        for key in GROUPED:
            short, attr = key.split(".")
            if not hasattr(sys.modules.get(f"schatten_widths.{short}"), attr):
                self.absent.append(key)
        return targets

    def __enter__(self) -> "Tracer":
        self.absent = []
        targets = self._targets()
        wrappers = {key: self.wrap(span, fn) for key, (fn, span) in targets.items()}
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "schatten_widths" or n.startswith("schatten_widths."))
        ]
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    self._patches.append((module, attr, value, False))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers and v is targets[id(v)][0]:
                            self._patches.append((value, k, v, True))
                            value[k] = wrappers[id(v)]
        for (short, cls_name, method), span in METHODS.items():
            cls = getattr(sys.modules.get(f"schatten_widths.{short}"), cls_name, None)
            original = getattr(cls, method, None)
            if original is None:
                self.absent.append(f"{short}.{cls_name}.{method}")
                continue
            self._patches.append((cls, method, original, False))
            setattr(cls, method, self.wrap(span, original))
        names = {span for _, span in targets.values()} | set(METHODS.values())
        self.absent.extend(s for s in EXPECTED if s not in names and s not in self.absent)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def by_span(self) -> dict[str, list]:
        """``span -> [calls, total_s, self_s]`` summed over parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (span, _), (calls, total, own) in self.stats.items():
            entry = out[span]
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return dict(out)

    def span_table(self, scale: float = 1.0) -> list[dict]:
        """Rows ``{span, parent, calls, total_s, self_s}``, divided by ``scale``."""
        return [
            {"span": span, "parent": parent, "calls": calls / scale,
             "total_s": total / scale, "self_s": own / scale}
            for (span, parent), (calls, total, own) in sorted(
                self.stats.items(), key=lambda kv: -kv[1][2])
        ]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float,
                  values_moved: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per pass, as ``name -> (value, unit)``."""
    spans = tracer.by_span()
    c = tracer.counters

    def calls(span: str) -> float:
        return spans.get(span, [0, 0.0, 0.0])[0] / passes

    def self_s(span: str) -> float:
        return spans.get(span, [0, 0.0, 0.0])[2] / passes

    def count(key: str) -> float:
        return c[key] / passes

    envelope_self = sum(v[2] for s, v in spans.items() if s.startswith("envelope.")) / passes
    out: dict[str, tuple[float, str]] = {
        "core.svd.calls": (calls("core.svd"), "count"),
        "core.svd.matrices": (count("core.svd.matrices"), "count"),
        "core.svd.self_s": (self_s("core.svd"), "s"),
        "core.svd.us_per_matrix": (
            1e6 * _share(self_s("core.svd"), count("core.svd.matrices")), "us"),
        "core.schatten_norm.calls": (calls("core.schatten_norm"), "count"),
        "core.schatten_norm.self_s": (self_s("core.schatten_norm"), "s"),
        "core.schatten_norm.share_2x2": (
            _share(count("core.schatten_norm.2x2"), calls("core.schatten_norm")), "fraction"),
        "ascent.sup_ratio_ascent.calls": (calls("ascent.sup_ratio_ascent"), "count"),
        "ascent.sup_ratio_ascent.self_s": (self_s("ascent.sup_ratio_ascent"), "s"),
        "ascent.iterations": (count("ascent.iterations"), "count"),
        "ascent.evaluations": (count("ascent.evaluations"), "count"),
        "ascent.converged_share": (
            _share(count("ascent.converged"), calls("ascent.sup_ratio_ascent")), "fraction"),
        "ascent.norm_gradient.calls": (calls("ascent.norm_gradient"), "count"),
        "ascent.norm_gradient.self_s": (self_s("ascent.norm_gradient"), "s"),
        "distances.distance_schatten.calls": (calls("distances.distance_schatten"), "count"),
        "distances.distance_schatten.self_s": (self_s("distances.distance_schatten"), "s"),
        "distances.iterations": (count("distances.iterations"), "count"),
        "distances.converged_share": (
            _share(count("distances.converged"), calls("distances.distance_schatten")),
            "fraction"),
    }
    for path in DISTANCE_PATHS:
        out[f"distances.path.{path}"] = (count(f"distances.path.{path}"), "count")
    out.update({
        "estimators.calls": (calls("estimators"), "count"),
        "estimators.self_s": (self_s("estimators"), "s"),
        "oracle.net_oracle.calls": (calls("oracle.net_oracle"), "count"),
        "oracle.net_oracle.self_s": (self_s("oracle.net_oracle"), "s"),
        "oracle.frames": (count("oracle.frames"), "count"),
        "recovery.nuclear_decoder.calls": (calls("recovery.nuclear_decoder"), "count"),
        "recovery.nuclear_decoder.self_s": (self_s("recovery.nuclear_decoder"), "s"),
        "recovery.fista_iterations": (count("recovery.fista_iterations"), "count"),
        "recovery.us_per_iteration": (
            1e6 * _share(self_s("recovery.nuclear_decoder"), count("recovery.fista_iterations")),
            "us"),
        "recovery.converged_share": (
            _share(count("recovery.converged"), calls("recovery.nuclear_decoder")), "fraction"),
        "recovery.worst_case_error.self_s": (self_s("recovery.worst_case_error"), "s"),
        "certificates.build.calls": (calls("certificates.build"), "count"),
        "certificates.build.self_s": (self_s("certificates.build"), "s"),
        "certificates.verify_certificate.calls": (calls("certificates.verify_certificate"), "count"),
        "certificates.verify_certificate.self_s": (self_s("certificates.verify_certificate"), "s"),
        "certificates.verify_samples": (count("certificates.verify_samples"), "count"),
        "envelope.envelope_profile.calls": (calls("envelope.envelope_profile"), "count"),
        "envelope.value.calls": (calls("envelope.value"), "count"),
        "envelope.self_s": (envelope_self, "s"),
        "envelope.rows_per_s": (_share(calls("envelope.value"), envelope_self), "1/s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_out": (count("cli.bytes_out"), "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
        "check.values_moved": (float(values_moved), "count"),
    })
    return out

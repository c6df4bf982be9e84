"""Numbered acceptance checks that gate a release of this library.

Each check re-verifies one advertised behavior end to end — exact-formula
agreement of the ascent estimator, estimator calibration against frozen
net-oracle values, certificate consistency, structural properties of the
two-sided envelopes, and the decay of the recovery error — and returns a
:class:`CheckResult` with a single pass/fail verdict plus a human-readable
detail line.  The ``suite`` subcommand of the command line interface and
``tests/test_acceptance.py`` both run the same registry, so the pass/fail
logic lives in exactly one place.

Checks are deterministic: every randomized step uses a fixed seed.  Where
a check carries a runtime budget, exceeding the budget fails the check
even if all numeric assertions hold.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .certificates import lower_certificates, upper_certificates, upper_column_zero
from .core import EmbeddingSpec, embedding_norm, hull_decompose, littlewood_check, schatten_norm
from .envelope import envelope_profile
from .estimators import (
    estimate_approx,
    estimate_gelfand,
    estimate_kolmogorov,
    operator_norm_estimate,
)
from .exponents import as_exponent, dual_exponent, inv, npower
from .oracle import load_frozen_battery
from .recovery import compare_to_envelope, worst_case_error

__all__ = [
    "CheckResult",
    "EXPONENT_GRID",
    "BANACH_GRID",
    "check_numbers",
    "run_check",
    "run_suite",
]

#: The standard 7-point exponent grid used by the exact-norm and envelope
#: checks: two quasi-norm points, the Banach range, and both endpoints.
EXPONENT_GRID = ("1/2", "3/4", "1", "4/3", "2", "4", "inf")

#: The Banach sub-grid (duality arguments need p, q >= 1).
BANACH_GRID = ("1", "4/3", "2", "4", "inf")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check."""

    number: int
    slug: str
    passed: bool
    runtime_s: float
    budget_s: Optional[float]
    detail: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def summary_line(self) -> str:
        budget = f", budget {self.budget_s:.0f}s" if self.budget_s is not None else ""
        return (
            f"check {self.number} [{self.slug}]: {self.status} "
            f"({self.runtime_s:.1f}s{budget}) -- {self.detail}"
        )


# ---------------------------------------------------------------------------
# 1. exact norm agreement
# ---------------------------------------------------------------------------


def _check_exact_norm_agreement() -> tuple[bool, str]:
    """Ascent estimate of the embedding norm vs. the closed form."""
    worst, worst_at, runs = 0.0, "", 0
    for N in (2, 3, 4):
        for ps, qs in itertools.product(EXPONENT_GRID, EXPONENT_GRID):
            spec = EmbeddingSpec(ps, qs, N)
            estimate = operator_norm_estimate(spec)
            exact = embedding_norm(ps, qs, N)
            rel = abs(estimate.value - exact) / exact
            runs += 1
            if rel > worst:
                worst, worst_at = rel, spec.describe()
    return worst <= 1e-6, (
        f"{runs} embeddings; worst |estimate/exact - 1| = {worst:.3g} "
        f"at {worst_at} (tolerance 1e-06)"
    )


# ---------------------------------------------------------------------------
# 2. s-numbers of the identity on a fixed space
# ---------------------------------------------------------------------------


def _check_identity_snumbers() -> tuple[bool, str]:
    """All three estimators must return 1 on p = q (every s-number is 1)."""
    worst, worst_at, runs = 0.0, "", 0
    for sym in ("1/2", "1", "2", "inf"):
        for n in range(1, 5):
            spec = EmbeddingSpec(sym, sym, 2, n=n)
            for fn in (estimate_approx, estimate_gelfand, estimate_kolmogorov):
                dev = abs(fn(spec).value - 1.0)
                runs += 1
                if dev > worst:
                    worst, worst_at = dev, f"{fn.__name__}, p=q={sym}, n={n}"
    return worst <= 0.02, (
        f"{runs} estimates; worst |value - 1| = {worst:.3g} at {worst_at} (tolerance 0.02)"
    )


# ---------------------------------------------------------------------------
# 3. quasi-norm domain collapse onto the p = 1 values
# ---------------------------------------------------------------------------


def _check_quasi_range_collapse() -> tuple[bool, str]:
    """For q = 1 targets, p < 1 sources give the same widths as p = 1 (all 1)."""
    worst, worst_at = 0.0, ""
    for fn in (estimate_approx, estimate_kolmogorov):
        for n in range(1, 5):
            base = fn(EmbeddingSpec("1", "1", 2, n=n)).value
            for ps in ("1/2", "3/4"):
                val = fn(EmbeddingSpec(ps, "1", 2, n=n)).value
                for dev, tag in (
                    (abs(val / base - 1.0), "vs p=1 value"),
                    (abs(val - 1.0), "vs exact 1"),
                ):
                    if dev > worst:
                        worst, worst_at = dev, f"{fn.__name__}, ({ps},1), n={n}, {tag}"
    return worst <= 0.05, (
        f"16 quasi-norm estimates; worst deviation {worst:.3g} at {worst_at} (tolerance 0.05)"
    )


# ---------------------------------------------------------------------------
# 4. certificate sandwich
# ---------------------------------------------------------------------------


def _check_certificate_sandwich() -> tuple[bool, str]:
    """Exact lower certificates never exceed exact upper certificates.

    Only certificates with certified constants participate: a bound whose
    stated value is proven only up to an unspecified factor (such as the
    factor-through-Hilbert route) may legitimately dip below an exact
    lower bound.  Additionally, at the last index n = N^2 with p <= q the
    multiplicativity certificate must equal N^(1/q - 1/p) exactly — the
    smallest s-number of the embedding.
    """
    violations = checked = 0
    worst_gap_at = ""
    worst_endpoint = 0.0
    for N in (2, 3, 4):
        for ps, qs in itertools.product(BANACH_GRID, BANACH_GRID):
            for n in range(1, N * N + 1):
                spec = EmbeddingSpec(ps, qs, N, n=n)
                lows = [c for c in lower_certificates(spec) if c.exact_constant]
                ups = [c for c in upper_certificates(spec) if c.exact_constant]
                max_low = max(c.value for c in lows)
                min_up = min(c.value for c in ups)
                checked += 1
                if max_low > min_up * (1 + 1e-12):
                    violations += 1
                    worst_gap_at = spec.describe()
                if n == N * N and spec.p <= spec.q:
                    mult = next(c for c in lows if c.method == "multiplicativity")
                    expected = npower(N, inv(spec.q) - inv(spec.p))
                    worst_endpoint = max(worst_endpoint, abs(mult.value / expected - 1.0))
    passed = violations == 0 and worst_endpoint <= 1e-12
    detail = (
        f"{checked} grid points; {violations} sandwich violations"
        + (f" (e.g. {worst_gap_at})" if violations else "")
        + f"; endpoint certificate deviation {worst_endpoint:.3g} (tolerance 1e-12)"
    )
    return passed, detail


# ---------------------------------------------------------------------------
# 5. column-zeroing witness inequality
# ---------------------------------------------------------------------------


def _check_column_zero_bound() -> tuple[bool, str]:
    """Sampled proof inequality behind the column-zeroing certificate.

    For every q <= p pair on the grid and every index n at N = 4, zeroing
    the kept columns of 1000 Gaussian matrices must satisfy
    ``norm_q(residual) <= value * norm_p(matrix)`` with zero violations.
    """
    N = 4
    violations = points = samples = 0
    worst = 0.0
    pairs = [
        (ps, qs)
        for ps, qs in itertools.product(EXPONENT_GRID, EXPONENT_GRID)
        if as_exponent(qs) <= as_exponent(ps)
    ]
    for ps, qs in pairs:
        for n in range(1, N * N + 1):
            spec = EmbeddingSpec(ps, qs, N, n=n)
            cert = upper_column_zero(spec)
            k = cert.witness["kept_columns"]
            rng = np.random.default_rng(51200 + points)
            a = rng.standard_normal((1000, N, N))
            residual = a.copy()
            residual[:, :, :k] = 0.0
            ratios = schatten_norm(residual, spec.q) / (cert.value * schatten_norm(a, spec.p))
            worst = max(worst, float(ratios.max()))
            violations += int((ratios > 1.0 + 1e-9).sum())
            points += 1
            samples += a.shape[0]
    return violations == 0, (
        f"{points} (p,q,n) points x 1000 samples ({samples} total); "
        f"max ratio {worst:.6f}; {violations} violations"
    )


# ---------------------------------------------------------------------------
# 6. calibration against frozen net-oracle values
# ---------------------------------------------------------------------------


def _check_oracle_calibration() -> tuple[bool, str]:
    """Fast estimators vs. the committed brute-force reference battery."""
    battery = load_frozen_battery()
    h = float(battery["h"])
    tol = max(0.05, 2.0 * h)
    fns = {"kolmogorov": estimate_kolmogorov, "approx": estimate_approx}
    worst, worst_at, count = 0.0, "", 0
    for pt in battery["points"]:
        if not pt["battery"]:
            continue
        spec = EmbeddingSpec(pt["p"], pt["q"], 2, n=pt["n"])
        val = fns[pt["kind"]](spec).value
        dev = abs(val / pt["value"] - 1.0)
        count += 1
        if dev > worst:
            worst, worst_at = dev, f"{pt['kind']} at ({pt['p']},{pt['q']}), n={pt['n']}"
    return worst <= tol, (
        f"{count} battery points (oracle resolution h={h:g}); "
        f"worst relative deviation {worst:.3g} at {worst_at} (tolerance {tol:g})"
    )


# ---------------------------------------------------------------------------
# 7. envelope structural suite
# ---------------------------------------------------------------------------


def _profile_endpoint(kind: str, pe, qe, N: int) -> float:
    """Exact n = N^2 anchor of an envelope profile.

    Gelfand numbers end at the smallest restriction ratio
    ``min(1, N^(1/q-1/p))``; approximation and Kolmogorov numbers collapse
    quasi-norm exponents onto 1 first (hyperplane distances for exponents
    below 1 coincide with the nuclear-norm case).
    """
    if kind == "gelfand":
        return min(1.0, npower(N, inv(qe) - inv(pe)))
    pt, qt = max(pe, 1), max(qe, 1)
    return min(1.0, npower(N, inv(qt) - inv(pt)))


def _check_envelope_structure() -> tuple[bool, str]:
    """Monotonicity, bounded gap, duality symmetry, endpoint anchors."""
    kinds = ("approximation", "gelfand", "kolmogorov")
    mono_bad = anchor_bad = dual_bad = profiles = 0
    worst_ratio = 0.0
    for N in (8, 16, 32):
        for ps, qs in itertools.product(EXPONENT_GRID, EXPONENT_GRID):
            pe, qe = as_exponent(ps), as_exponent(qs)
            for kind in kinds:
                prof = envelope_profile(kind, pe, qe, N)
                vals = prof.values()
                profiles += 1
                prev_u = prev_l = math.inf
                for ev in vals:
                    if ev.value_upper > prev_u * (1 + 1e-12) or ev.value_lower > prev_l * (
                        1 + 1e-12
                    ):
                        mono_bad += 1
                    prev_u, prev_l = ev.value_upper, ev.value_lower
                    if ev.value_lower > 0:
                        worst_ratio = max(worst_ratio, ev.value_upper / ev.value_lower)
                norm = embedding_norm(pe, qe, N)
                endpoint = _profile_endpoint(kind, pe, qe, N)
                first, last = vals[0], vals[-1]
                ok = (
                    abs(first.value_upper - norm) <= 1e-12 * norm
                    and abs(last.value_upper - endpoint) <= 1e-12 * endpoint
                )
                if first.value_lower > 0:
                    ok = (
                        ok
                        and abs(first.value_lower - norm) <= 1e-12 * norm
                        and abs(last.value_lower - endpoint) <= 1e-12 * endpoint
                    )
                else:
                    ok = ok and last.value_lower == 0.0
                if not ok:
                    anchor_bad += 1
        for ps, qs in itertools.product(BANACH_GRID, BANACH_GRID):
            pe, qe = as_exponent(ps), as_exponent(qs)
            gel = envelope_profile("gelfand", pe, qe, N)
            kol = envelope_profile("kolmogorov", dual_exponent(qe), dual_exponent(pe), N)
            for gv, kv in zip(gel.values(), kol.values()):
                if (
                    abs(gv.value_upper - kv.value_upper) > 1e-12 * gv.value_upper
                    or abs(gv.value_lower - kv.value_lower) > 1e-12 * max(gv.value_lower, 1e-300)
                ):
                    dual_bad += 1
    ratio_ok = worst_ratio <= 4.0 * (1 + 1e-12)
    passed = mono_bad == 0 and ratio_ok and anchor_bad == 0 and dual_bad == 0
    return passed, (
        f"{profiles} profiles; {mono_bad} monotonicity breaks; "
        f"max upper/lower ratio {worst_ratio:.6f} (<= 4); "
        f"{anchor_bad} endpoint anchor failures; {dual_bad} duality mismatches"
    )


# ---------------------------------------------------------------------------
# 8. interpolation inequality and hull decomposition
# ---------------------------------------------------------------------------

_RANDOM_EXPONENTS = ("1/2", "2/3", "1", "4/3", "2", "3", "4", "inf")


def _random_test_matrix(rng: np.random.Generator) -> np.ndarray:
    N = int(rng.integers(2, 6))
    a = rng.standard_normal((N, N))
    style = int(rng.integers(0, 4))
    if style == 1:  # rank deficient
        r = int(rng.integers(1, N))
        a = rng.standard_normal((N, r)) @ rng.standard_normal((r, N))
    elif style == 2:  # wildly scaled
        a = a * 10.0 ** int(rng.integers(-8, 9))
    elif style == 3:  # near-flat spectrum
        q_m, _ = np.linalg.qr(a)
        a = q_m + 1e-3 * rng.standard_normal((N, N))
    return a


def _check_interpolation_and_hull() -> tuple[bool, str]:
    """10^4 random multiplicative-interpolation checks and 10^4 random
    hull decompositions, at 1e-12 / 1e-10 tolerances respectively."""
    rng = np.random.default_rng(88)
    lw_fail = 0
    for _ in range(10_000):
        a = _random_test_matrix(rng)
        ps, qs = rng.choice(_RANDOM_EXPONENTS, size=2)
        if not littlewood_check(a, str(ps), str(qs), float(rng.uniform())).ok:
            lw_fail += 1
    hull_fail = 0
    worst_recon = 0.0
    for _ in range(10_000):
        a = _random_test_matrix(rng)
        decomp = hull_decompose(a)
        scale = float(np.linalg.norm(a))
        err = float(np.linalg.norm(decomp.reconstruct() - a)) / scale
        worst_recon = max(worst_recon, err)
        weights = decomp.weights
        ok = (
            err <= 1e-10
            and np.all(weights > 0)
            and np.all(np.diff(weights) <= 1e-12 * weights[0])
            and all(
                abs(float(np.linalg.norm(t.summand)) - 1.0) <= 1e-12 for t in decomp.terms
            )
        )
        if not ok:
            hull_fail += 1
    passed = lw_fail == 0 and hull_fail == 0
    return passed, (
        f"10000 interpolation checks ({lw_fail} failures, tolerance 1e-12); "
        f"10000 hull decompositions ({hull_fail} failures, worst reconstruction "
        f"error {worst_recon:.3g}, tolerance 1e-10)"
    )


# ---------------------------------------------------------------------------
# 9. recovery error decay
# ---------------------------------------------------------------------------


def _check_recovery_decay() -> tuple[bool, str]:
    """Log-log slope of the worst-case recovery error and envelope band.

    At N = 32, (p,q) = (1,2): the fitted slope of worst_error vs m over
    m >= N must land in [-0.65, -0.35], and for m >= 2N the measured error
    must stay within a factor 8 of the recovery envelope.
    """
    N, p, q = 32, 1, 2
    ms = (8, 16, 32, 64, 128, 256)
    results = [worst_case_error(N, p, q, m, test_budget=12, seed=11) for m in ms]
    xs = [math.log(m) for m, r in zip(ms, results) if m >= N]
    ys = [math.log(r.worst_error) for m, r in zip(ms, results) if m >= N]
    slope = float(np.polyfit(xs, ys, 1)[0])
    worst_band = 0.0
    for m, res in zip(ms, results):
        if m >= 2 * N:
            comp = compare_to_envelope(res)
            worst_band = max(worst_band, max(comp.ratio, 1.0 / comp.ratio))
    passed = -0.65 <= slope <= -0.35 and worst_band <= 8.0
    errors = ", ".join(f"m={m}: {r.worst_error:.4f}" for m, r in zip(ms, results))
    return passed, (
        f"slope {slope:.3f} over m >= {N} (window [-0.65, -0.35]); "
        f"worst envelope factor {worst_band:.2f} for m >= {2 * N} (<= 8); {errors}"
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_Check = Callable[[], "tuple[bool, str]"]

_REGISTRY: tuple[tuple[int, str, Optional[float], _Check], ...] = (
    (1, "exact-norm-agreement", 60.0, _check_exact_norm_agreement),
    (2, "identity-s-numbers", 120.0, _check_identity_snumbers),
    (3, "quasi-range-collapse", None, _check_quasi_range_collapse),
    (4, "certificate-sandwich", 60.0, _check_certificate_sandwich),
    (5, "column-zeroing-bound", None, _check_column_zero_bound),
    (6, "oracle-calibration", 1800.0, _check_oracle_calibration),
    (7, "envelope-structure", 60.0, _check_envelope_structure),
    (8, "interpolation-and-hull", None, _check_interpolation_and_hull),
    (9, "recovery-decay", 1200.0, _check_recovery_decay),
)


def check_numbers() -> tuple[int, ...]:
    """Numbers of the registered acceptance checks, in run order."""
    return tuple(number for number, _, _, _ in _REGISTRY)


def run_check(number: int) -> CheckResult:
    """Run one acceptance check by number and return its result."""
    for num, slug, budget, fn in _REGISTRY:
        if num == number:
            start = time.perf_counter()
            passed, detail = fn()
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed > budget:
                passed = False
                detail += f"; runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"
            return CheckResult(
                number=num,
                slug=slug,
                passed=passed,
                runtime_s=elapsed,
                budget_s=budget,
                detail=detail,
            )
    raise ValueError(f"no acceptance check number {number!r}")


def run_suite(
    numbers: Optional[Iterable[int]] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> list[CheckResult]:
    """Run the selected checks (default: all) and return their results.

    ``echo`` is called with each result's summary line as soon as the
    check finishes, so long suites can stream progress.
    """
    selected: Sequence[int] = tuple(numbers) if numbers is not None else check_numbers()
    results = []
    for number in selected:
        result = run_check(number)
        if echo is not None:
            echo(result.summary_line())
        results.append(result)
    return results

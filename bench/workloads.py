"""The benchmark's workloads: job lists with an output check for each job.

A job is one library or CLI call a user makes, and counts as one
operation.  It fails if it raises or if its output misses its check.
Jobs whose inputs do not depend on ``--seed`` are *fixed*: their values
are pinned in ``pinned.json`` (taken at the commit that defined the
benchmark), so a change that moves a number shows in
``check.values_moved`` even while the check's tolerance still passes.

Every workload is sized so that one pass over its job list takes about
4 s on a shared 2-core x86 virtual machine with single-threaded BLAS; a
run repeats passes for its ``--seconds``.  The sizes below are trimmed
from the costlier calls a user can make (see ``BENCHMARK.json``).
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

NAMES = ("calib-n2", "search-n3", "recovery-n32", "closed-form")
# The ``machine.speed_chunk`` kind each workload's times are scaled by:
# the kind of work that dominates it.
SPEED = {"calib-n2": "small", "search-n3": "small", "recovery-n32": "decode",
         "closed-form": "small"}

# ``pinned.json`` and the checks compare relative changes against this.
MOVED_REL = 1e-9


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], object]
    # result -> (value, ok); ``value`` is a float or a hex digest
    check: Callable[[object], tuple[object, bool]]
    fixed: bool = True


@dataclass(frozen=True)
class CliRun:
    """What one in-process ``cli.main`` call left behind."""

    code: int
    path: str
    bytes_out: int


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# calib-n2: N = 2 estimators and the net oracle on the frozen battery
# ---------------------------------------------------------------------------

# One estimator call per estimator path of the battery: Frobenius,
# nuclear (2x2 split) and quasi-norm distances, the Hilbert closed form,
# and the approximation-number reductions.  The other battery points
# repeat these paths at up to 3.2 s a call (kolmogorov (1,inf) n=2).
CALIB_ESTIMATES = (
    ("kolmogorov", "1", "2", 3),
    ("kolmogorov", "2", "1", 3),
    ("kolmogorov", "1/2", "2", 3),
    ("kolmogorov", "2", "2", 3),
    ("approx", "2", "inf", 4),
    ("approx", "inf", "2", 2),
    ("gelfand", "1/2", "1", 2),
)
# Net-oracle calls at the battery's resolution, on the Frobenius-distance
# and restriction nets.  The two distance-net points, kolmogorov (2,1) n=3
# and (1,inf) n=2, cost 48 s and 32 s at that resolution and still 3 s and
# 1.8 s at the coarsest (h = 0.25), so they are left out.
CALIB_ORACLE = (
    ("kolmogorov", "1", "2", 2),
    ("kolmogorov", "inf", "2", 2),
    ("kolmogorov", "1", "2", 4),
    ("approx", "2", "inf", 4),
    ("approx", "2", "inf", 2),
    ("gelfand", "1/2", "1", 2),
)


def _calib_n2(seed: int, tmpdir: str, pins: dict) -> list[Job]:
    import schatten_widths as sw

    battery = sw.load_frozen_battery()
    h0 = float(battery["h"])
    frozen = {(pt["kind"], pt["p"], pt["q"], pt["n"]): pt["value"] for pt in battery["points"]}
    # looked up at call time, so that a tracer installed later sees the call
    fns = {"kolmogorov": "estimate_kolmogorov", "approx": "estimate_approx",
           "gelfand": "estimate_gelfand"}
    estimate_tol = max(0.05, 2.0 * h0)  # acceptance check 6's rule
    jobs = []
    for kind, p, q, n in CALIB_ESTIMATES:
        spec = sw.EmbeddingSpec(p, q, 2, n=n)
        ref = frozen[(kind, p, q, n)]
        jobs.append(Job(
            f"estimate:{kind}({p},{q})n={n}",
            lambda fn=fns[kind], spec=spec: getattr(sw, fn)(spec),
            lambda est, ref=ref: (est.value, _rel(est.value, ref) <= estimate_tol),
        ))
    for kind, p, q, n in CALIB_ORACLE:
        spec = sw.EmbeddingSpec(p, q, 2, n=n)
        ref = frozen[(kind, p, q, n)]
        jobs.append(Job(
            f"oracle:{kind}({p},{q})n={n}",
            lambda spec=spec, kind=kind: sw.net_oracle(spec, kind, h=h0),
            # the frozen value reproduces exactly at its own resolution
            lambda est, ref=ref: (est.value, _rel(est.value, ref) <= 1e-12),
        ))
    return jobs


# ---------------------------------------------------------------------------
# search-n3: ascent searches and distance solves at N = 3 (Jacobi kernel)
# ---------------------------------------------------------------------------

# A quasi-norm point, the Frobenius class and both endpoints of the
# acceptance grid, p != q; the full 7 x 7 grid takes 8.5 s.  The diagonal
# p == q is left out: its norm is 1, found by the first starts in a few
# ms, and such short jobs would set job_p50_s.
SEARCH_EXPONENTS = ("1/2", "1", "2", "inf")
SEARCH_GRID = tuple((p, q) for p, q in itertools.product(SEARCH_EXPONENTS, repeat=2) if p != q)
# (q, subspace dimension) of the N = 3 distance solves: IRLS for finite
# q != 2, spectral homotopy for q = inf, plus one Frobenius and one
# codimension-1 solve.  Inputs come from a fixed generator.
SEARCH_DISTANCES = tuple(itertools.product(("1/2", "1", "3/2"), (1, 4, 7))) + (
    ("inf", 1),
    ("inf", 4),
    ("2", 4),
    ("1", 8),
)
SEARCH_DISTANCE_SEED = 2103


def _distance_check(sw, x: np.ndarray, basis, q: str):
    """``d_2 * c <= d_q <= ||x||_q``, and the residual attains ``d_q``."""
    from schatten_widths.exponents import inv

    qe = sw.as_exponent(q)
    cols = basis.columns
    vec = x.reshape(-1)
    d2 = float(np.linalg.norm(vec - cols @ (cols.T @ vec)))
    # ||R||_q >= ||R||_2 for q <= 2, and >= N^(1/q - 1/2) ||R||_2 above
    factor = 1.0 if qe <= 2 else basis.N ** (float(inv(qe)) - 0.5)
    upper = sw.schatten_norm(x, qe)

    def check(res):
        attained = sw.schatten_norm(res.residual, qe)
        ok = (
            d2 * factor * (1 - 1e-9) <= res.value <= upper * (1 + 1e-9)
            and _rel(attained, res.value) <= 1e-9
        )
        return res.value, ok

    return check


def _search_n3(seed: int, tmpdir: str, pins: dict) -> list[Job]:
    import schatten_widths as sw
    from schatten_widths.operators import SubspaceBasis, orthonormal_columns

    N = 3
    jobs = []
    for p, q in SEARCH_GRID:
        spec = sw.EmbeddingSpec(p, q, N)
        exact = sw.embedding_norm(p, q, N)
        jobs.append(Job(
            f"norm({p},{q})N=3",
            lambda spec=spec: sw.operator_norm_estimate(spec),
            lambda est, exact=exact: (est.value, _rel(est.value, exact) <= 1e-6),
        ))
    rng = np.random.default_rng(SEARCH_DISTANCE_SEED)
    for q, dim in SEARCH_DISTANCES:
        columns = orthonormal_columns(rng.standard_normal((N * N, dim)))
        x = rng.standard_normal((N, N))
        jobs.append(Job(
            f"distance(q={q},dim={dim})N=3",
            # a fresh basis per call: the codimension-1 solver caches per
            # basis object, and one user call starts with that cache empty
            lambda x=x, columns=columns, q=q: sw.distance_schatten(
                x, SubspaceBasis(columns, N), q),
            _distance_check(sw, x, SubspaceBasis(columns, N), q),
        ))
    return jobs


# ---------------------------------------------------------------------------
# recovery-n32: FISTA nuclear-norm decodes with 32 x 32 LAPACK SVDs
# ---------------------------------------------------------------------------

# (m, test_budget) of each sweep point at N = 32, (p, q) = (1, 2), seed 11
# as in acceptance check 9.  One point with the budget trimmed from 12 to
# 3 (the least ``worst_case_error`` accepts) takes 3.5-5 s; each further
# point would cut the passes of a run.
RECOVERY_POINTS = ((128, 3),)
RECOVERY_SEED = 11


def _recovery_n32(seed: int, tmpdir: str, pins: dict) -> list[Job]:
    import schatten_widths as sw

    N, p, q = 32, 1, 2
    norm = sw.embedding_norm(p, q, N)
    jobs = []
    for m, budget in RECOVERY_POINTS:
        def run(m=m, budget=budget):
            # one sweep point, as one row of the ``recovery`` command
            result = sw.worst_case_error(N, p, q, m, test_budget=budget, seed=RECOVERY_SEED)
            return result, sw.compare_to_envelope(result)

        def check(out, m=m):
            result, ratio = out
            factor = max(ratio.ratio, 1.0 / ratio.ratio)
            # acceptance check 9's band applies from m >= 2N on
            ok = result.worst_error <= norm * (1 + 1e-12) and (m < 2 * N or factor <= 8.0)
            return result.worst_error, ok

        jobs.append(Job(f"recovery(N=32,m={m},budget={budget})", run, check))
    return jobs


# ---------------------------------------------------------------------------
# closed-form: envelopes, certificates and the CLI; per-matrix kernel calls
# ---------------------------------------------------------------------------

ENVELOPE_N = 128
ENVELOPE_KINDS = ("approximation", "gelfand", "kolmogorov")
BOUNDS_ARGS = ("-p", "2", "-q", "1", "-N", "4", "-n", "5", "--verify", "--samples", "500")
# littlewood_check and hull_decompose calls, each on its own matrix
PER_MATRIX_CALLS = 500
# acceptance check 8's exponent set
RANDOM_EXPONENTS = ("1/2", "2/3", "1", "4/3", "2", "3", "4", "inf")


def _test_matrix(rng: np.random.Generator, N: int, style: int) -> np.ndarray:
    """Acceptance check 8's random matrices, with N and style given."""
    a = rng.standard_normal((N, N))
    if style == 1:  # rank deficient
        r = int(rng.integers(1, N))
        a = rng.standard_normal((N, r)) @ rng.standard_normal((r, N))
    elif style == 2:  # scaled over 16 decades
        a = a * 10.0 ** int(rng.integers(-8, 9))
    elif style == 3:  # near-flat spectrum
        q_m, _ = np.linalg.qr(a)
        a = q_m + 1e-3 * rng.standard_normal((N, N))
    return a


def _strata(i: int) -> tuple[int, int]:
    # every (N, style) cell gets the same share of the calls, so the cost
    # of a pass does not depend on the seed
    return 2 + i % 4, (i // 4) % 4


def _cli_job(sw, job_id: str, argv: list[str], path: str, check) -> Job:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sw.cli.main(argv + ["--output", path])
        return CliRun(code, path, len(out.getvalue().encode()) + os.path.getsize(path))

    return Job(job_id, run, check)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _closed_form(seed: int, tmpdir: str, pins: dict) -> list[Job]:
    import schatten_widths as sw
    import schatten_widths.cli  # noqa: F401

    jobs = []
    for kind in ENVELOPE_KINDS:
        job_id = f"cli:envelope(1,2)N={ENVELOPE_N}:{kind}"

        def check(run, job_id=job_id):
            # the CSV bytes must equal the pinned ones
            digest = _digest(run.path)
            return digest, run.code == 0 and digest == pins[job_id]

        jobs.append(_cli_job(
            sw, job_id,
            ["envelope", "-p", "1", "-q", "2", "-N", str(ENVELOPE_N), "--kind", kind],
            os.path.join(tmpdir, f"envelope-{kind}.csv"), check))

    def bounds_check(run):
        with open(run.path, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        ok = run.code == 0 and rows and all(row["verified"] == "1" for row in rows)
        return _digest(run.path), bool(ok)

    jobs.append(_cli_job(sw, "cli:bounds(2,1)N=4,n=5", ["bounds", *BOUNDS_ARGS],
                         os.path.join(tmpdir, "bounds.csv"), bounds_check))

    rng = np.random.default_rng(seed)
    for i in range(PER_MATRIX_CALLS):
        a = _test_matrix(rng, *_strata(i))
        ps, qs = (str(s) for s in rng.choice(RANDOM_EXPONENTS, size=2))
        theta = float(rng.uniform())
        jobs.append(Job(
            f"littlewood:{i}",
            lambda a=a, ps=ps, qs=qs, theta=theta: sw.littlewood_check(a, ps, qs, theta),
            lambda rep: (rep.interpolated_norm, rep.ok),  # 1e-12 slack inside
            fixed=False,
        ))
    for i in range(PER_MATRIX_CALLS):
        a = _test_matrix(rng, *_strata(i))
        jobs.append(Job(f"hull:{i}", lambda a=a: sw.hull_decompose(a),
                        lambda d, a=a: _hull_check(d, a), fixed=False))
    return jobs


def _hull_check(decomp, a: np.ndarray) -> tuple[float, bool]:
    """Acceptance check 8's hull rules at its 1e-10 / 1e-12 tolerances."""
    err = float(np.linalg.norm(decomp.reconstruct() - a)) / float(np.linalg.norm(a))
    weights = decomp.weights
    ok = (
        err <= 1e-10
        and bool(np.all(weights > 0))
        and bool(np.all(np.diff(weights) <= 1e-12 * weights[0]))
        and all(abs(float(np.linalg.norm(t.summand)) - 1.0) <= 1e-12 for t in decomp.terms)
    )
    return err, ok


_BUILDERS = {
    "calib-n2": _calib_n2,
    "search-n3": _search_n3,
    "recovery-n32": _recovery_n32,
    "closed-form": _closed_form,
}


def build(name: str, seed: int, tmpdir: str, pins: dict) -> list[Job]:
    """The job list of workload ``name``.

    ``tmpdir`` receives the CLI's output files; ``pins`` are this
    workload's values from ``pinned.json``.
    """
    return _BUILDERS[name](seed, tmpdir, pins)

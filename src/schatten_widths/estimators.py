"""Numerical estimators for the three s-number scales of matrix-space maps.

Every estimator returns an :class:`Estimate` carrying the value, the
method actually used, the randomness budget, and a convergence flag.
Methods:

* ``pg-search`` — projected-gradient sup ascent combined with a candidate
  search over approximants/subspaces (the generic path);
* ``hilbert-exact`` — both exponents are 2, where the identity is an
  isometry of ``S_2`` and every s-number is 1;
* ``dual-reduction`` — Gelfand numbers computed as Kolmogorov numbers of
  the dual embedding (exact identity for Banach exponents);
* ``identity-exact`` — the diagonal quasi-norm Gelfand case, where every
  restriction of the identity has norm exactly 1.

The ``pg-search`` estimators share one search: score a list of candidate
subspaces or approximants with cheap ascents, refine the best one, and
re-evaluate a few finalists with the full ascent.  A Kolmogorov
subspace's score is also floored by a fixed probe battery, whose
dual-norm achievers come from :func:`core.norm_and_gradient`.  The
direct Gelfand search runs the ascent on each candidate subspace
itself.  The only search options are
``restarts`` (the full ascent's start count) and ``seed``; the budgets
are fixed:

* cheap ascents: 3 starts, 60 iterations (80 in the direct Gelfand search);
* full ascents and ``operator_norm_estimate``: 250 iterations (400 in
  the direct Gelfand search);
* Kolmogorov numbers: 3 random frames among the candidates, then 16
  rounds of frame perturbation that stop after 8 rounds without gain;
* approximation numbers: 2 random projections among the candidates, then
  5 rounds of adversarial refinement;
* direct Gelfand search: the two coordinate subspaces, then 20 rounds of
  frame perturbation.

Scope: quasi-norm codomains (``q < 1``) are supported on the diagonal
``p == q`` only, where sound anchor candidates exist; the inner distance
solves are then local and the search is flagged in ``detail``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .ascent import AscentResult, default_starts, sup_ratio_ascent
from .core import (
    EmbeddingSpec,
    norm_and_deferred_gradient,
    norm_and_gradient,
    schatten_norm,
)
from .distances import distance_schatten
from .exponents import INF, dual_exponent, exponent_float
from .operators import (
    OperatorOnMatrices,
    SubspaceBasis,
    orthonormal_columns,
    subspace_from_matrices,
    vec,
)

__all__ = [
    "Estimate",
    "estimate_approx",
    "estimate_gelfand",
    "estimate_kolmogorov",
    "operator_norm_estimate",
]

_CHEAP_STARTS = 3
_CHEAP_ITER = 60
_FINAL_ITER = 250
_KOLMOGOROV_ROUNDS = 16
_KOLMOGOROV_RANDOM_FRAMES = 3
_APPROX_REFINE_ROUNDS = 5
_APPROX_RANDOM_MAPS = 2
_GELFAND_ROUNDS = 20
_GELFAND_CHEAP_ITER = 80
_GELFAND_FINAL_ITER = 400


@dataclass(frozen=True)
class Estimate:
    """A numerical s-number (or norm) estimate with its provenance."""

    value: float
    snumber_kind: str
    method: str
    spec: EmbeddingSpec
    restarts: int
    seed: int
    converged: bool
    detail: dict


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def _norm_objective(op: Optional[OperatorOnMatrices], q):
    qf = exponent_float(q)
    if op is None:
        return lambda x: norm_and_deferred_gradient(x, qf)

    def objective(x: np.ndarray):
        value, image_gradient = norm_and_deferred_gradient(op.apply(x), qf)

        def gradient():
            grad = image_gradient()
            return None if grad is None else op.apply_adjoint(grad)

        return value, gradient

    return objective


def operator_norm_estimate(
    spec: EmbeddingSpec,
    operator: Optional[OperatorOnMatrices] = None,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> Estimate:
    """Estimate ``sup ||T X||_q / ||X||_p`` by multi-start gradient ascent.

    ``operator=None`` means the embedding itself (``T = id``), for which
    the start battery contains exact maximizers of both norm regimes.
    """
    rng = np.random.default_rng(seed)
    n_gauss = max(1, restarts - 5)
    starts = default_starts(spec.N, rng, n_gaussian=n_gauss, n_rank_one=2)
    result = sup_ratio_ascent(
        _norm_objective(operator, spec.q), spec.p, starts, max_iter=_FINAL_ITER
    )
    return Estimate(
        value=result.value,
        snumber_kind="operator-norm",
        method="pg-search",
        spec=spec,
        restarts=len(starts),
        seed=seed,
        converged=result.converged,
        detail={
            "iterations": result.iterations,
            "evaluations": result.evaluations,
            "start_index": result.start_index,
        },
    )


def _reduced(inner: Estimate, spec: EmbeddingSpec, kind: str, head: dict,
             method: Optional[str] = None) -> Estimate:
    """``inner``, an estimate of an equal quantity, reported as the ``kind``
    number of ``spec``: ``head`` comes first in its detail, and ``method``
    replaces its method when given."""
    return replace(inner, snumber_kind=kind, spec=spec, method=method or inner.method,
                   detail={**head, **inner.detail})


def _hilbert_estimate(spec: EmbeddingSpec, kind: str, seed: int) -> Estimate:
    """At ``p = q = 2`` the identity is an isometry of ``S_2``, so every
    s-number of all three scales is exactly 1."""
    spec.require_index()
    return Estimate(
        value=1.0,
        snumber_kind=kind,
        method="hilbert-exact",
        spec=spec,
        restarts=0,
        seed=seed,
        converged=True,
        detail={},
    )


# ---------------------------------------------------------------------------
# shared search machinery
# ---------------------------------------------------------------------------


def _distance_objective(basis: SubspaceBasis, q, warm: dict):
    def objective(x: np.ndarray):
        res = distance_schatten(x, basis, q, warm_start=warm.get("w"))
        warm["w"] = res.coefficients
        warm["ok"] = warm.get("ok", True) and res.converged
        if res.value <= 0:
            return 0.0, lambda: None
        return res.value, lambda: norm_and_gradient(res.residual, q)[1]

    return objective


def _sup_over_sphere(
    objective,
    spec: EmbeddingSpec,
    rng: np.random.Generator,
    *,
    n_starts: int,
    max_iter: int,
    extra_starts: Sequence[np.ndarray] = (),
) -> AscentResult:
    n_gauss = max(1, n_starts // 2)
    n_rank = max(1, n_starts - n_gauss)
    starts = default_starts(
        spec.N, rng, n_gaussian=n_gauss, n_rank_one=n_rank, extra=extra_starts
    )
    return sup_ratio_ascent(objective, spec.p, starts, max_iter=max_iter)


def _coordinate_subspaces(N: int, m: int) -> list[tuple[str, SubspaceBasis]]:
    """The labelled spans of the first ``m`` matrix units, row-major and
    column-major."""
    full = N * N
    row_major = list(range(m))
    col_major = [i * N + j for j in range(N) for i in range(N)][:m]
    subspaces = []
    for label, order in (("coords-row", row_major), ("coords-col", col_major)):
        sel = np.zeros((full, len(order)))
        for k, idx in enumerate(order):
            sel[idx, k] = 1.0
        subspaces.append((label, SubspaceBasis(sel, N)))
    return subspaces


def _random_frame(rng: np.random.Generator, full: int, m: int) -> np.ndarray:
    return orthonormal_columns(rng.standard_normal((full, m)))


def _split_families(N: int) -> list[list[np.ndarray]]:
    """Canonical orderings of the transpose-symmetry eigenbasis.

    The matrix space splits into the span of the identity plus the
    antisymmetric matrices (rotation-like) and the traceless-symmetric
    matrices (reflection-like).  Prefixes of these orderings are frequent
    exact optimizers of width problems — at ``N = 2`` the two planes are
    precisely where the singular values decouple — so they belong in
    every subspace candidate list alongside coordinate masks.
    """
    anti = []
    sym_off = []
    for i in range(N):
        for j in range(i + 1, N):
            e = np.zeros((N, N))
            e[i, j] = 1.0
            anti.append((e - e.T) / math.sqrt(2.0))
            sym_off.append((e + e.T) / math.sqrt(2.0))
    diag_traceless = []
    for i in range(N - 1):
        d = np.zeros(N)
        d[i] = 1.0
        d[i + 1] = -1.0
        diag_traceless.append(np.diag(d) / math.sqrt(2.0))
    rotation_like = [np.eye(N) / math.sqrt(N)] + anti
    reflection_like = diag_traceless + sym_off
    return [rotation_like + reflection_like, reflection_like + rotation_like]


def _score(candidates, evaluate) -> list[tuple]:
    """``(evaluate(candidate), label, candidate)`` for each labelled
    candidate, lowest value first; ties keep the candidates' order."""
    scored = [(evaluate(cand), label, cand) for label, cand in candidates]
    scored.sort(key=lambda t: t[0])
    return scored


def _perturb_basis(
    basis: SubspaceBasis, tau: float, rng: np.random.Generator
) -> SubspaceBasis:
    g = rng.standard_normal(basis.columns.shape)
    return SubspaceBasis(orthonormal_columns(basis.columns + tau * g), basis.N)


def _perturbation_descent(evaluate, start, rng, rounds, rel_gain=0.0, patience=None):
    """Adaptive random descent over frames from ``start = (value, basis)``.

    Each round perturbs the best frame at scale ``tau`` and keeps the trial
    when its value drops below ``(1 - rel_gain)`` times the best; ``tau``
    grows after a gain and shrinks otherwise.  ``patience`` rounds in a row
    without a gain end the search.  Returns the best ``(value, basis)``.
    """
    best_val, best = start
    tau = 0.3
    misses = 0
    for _ in range(rounds):
        trial = _perturb_basis(best, tau, rng)
        value = evaluate(trial)
        if value < best_val * (1 - rel_gain):
            best_val, best = value, trial
            tau = min(tau * 1.2, 0.8)
            misses = 0
        else:
            tau = max(tau * 0.7, 1e-3)
            misses += 1
            if misses == patience:
                break
    return best_val, best


def _best_finalist(finalists, evaluate) -> tuple[float, str, bool]:
    """``(value, label, converged)`` of the lowest-valued labelled finalist,
    with ``evaluate(candidate) -> (value, converged)``; the first wins ties."""
    best = (math.inf, "", False)
    for label, cand in finalists:
        value, converged = evaluate(cand)
        if value < best[0]:
            best = (value, label, converged)
    return best


# ---------------------------------------------------------------------------
# Kolmogorov numbers
# ---------------------------------------------------------------------------


def _kolmogorov_candidates(
    spec: EmbeddingSpec, m: int, rng: np.random.Generator
) -> list[tuple[str, SubspaceBasis]]:
    N = spec.N
    full = N * N
    bases = _coordinate_subspaces(N, m)
    # identity-direction-first frame: the flat-spectrum direction matters
    # for codomain exponents below the domain's.  The off-diagonal units
    # come next, then the diagonal units E_ii (i < N-1), which complete
    # the frame to a basis for every m <= N^2 - 1
    units = [(i, j) for i in range(N) for j in range(N) if i != j]
    units += [(i, i) for i in range(N - 1)]
    mats = [np.eye(N)]
    for i, j in units[: max(m - 1, 0)]:
        e = np.zeros((N, N))
        e[i, j] = 1.0
        mats.append(e)
    if m >= 1:
        bases.append(("identity-first", subspace_from_matrices(mats[:m], N)))
    for label, family in zip(("split-rotation", "split-reflection"),
                             _split_families(N)):
        bases.append((label, subspace_from_matrices(family[:m], N)))
    for k in range(_KOLMOGOROV_RANDOM_FRAMES):
        bases.append((f"random-{k}", SubspaceBasis(_random_frame(rng, full, m), N)))
    return bases


def _probe_ratio(spec: EmbeddingSpec, basis: SubspaceBasis) -> float:
    """Best distance ratio over a fixed battery of structured probes.

    The battery holds the matrix units, the identity, and the Frobenius
    complement of the subspace: each complement direction and three
    seeded complement mixtures, each with the points of the ``S_p`` unit
    sphere that best pair with it, from :func:`core.norm_and_gradient`
    (the top rank-one part, and for ``p > 1`` the dual-norm gradient).
    Those achievers matter most: at codimension one the distance is a
    multiple of the pairing with the subspace's normal ``Z``, so the
    achiever for ``Z`` is an exact extremizer of the ratio.  Each probe
    ratio is the objective at an explicit matrix, hence a sound lower
    bound for the supremum.
    """
    N, p, q = spec.N, spec.p, spec.q
    full = N * N
    probes: list[np.ndarray] = []
    for i in range(N):
        for j in range(N):
            e = np.zeros((N, N))
            e[i, j] = 1.0
            probes.append(e)
    probes.append(np.eye(N))
    if basis.dim < full:
        complement = basis.complement
        # dual exponents whose norm gradients are the achievers
        duals = (INF,) if p <= 1 else (INF, dual_exponent(p))
        rng = np.random.default_rng(20240817)
        mixtures = [complement[:, k] for k in range(complement.shape[1])]
        for _ in range(3):
            z = rng.standard_normal(complement.shape[1])
            mixtures.append(complement @ (z / np.linalg.norm(z)))
        for column in mixtures:
            mat = column.reshape(N, N)
            probes.append(mat)
            for r in duals:
                achiever = norm_and_gradient(mat, r)[1]
                if achiever is not None:
                    probes.append(achiever)
    best = 0.0
    for probe in probes:
        denom = schatten_norm(probe, p)
        if not denom > 0:
            continue
        res = distance_schatten(probe, basis, q)
        value = res.value
        if q < 1 and basis.dim > 0:
            alt = distance_schatten(
                probe, basis, q, warm_start=basis.coefficients(probe)
            )
            value = min(value, alt.value)
        best = max(best, value / denom)
    return best


def _evaluate_subspace(
    spec: EmbeddingSpec,
    basis: SubspaceBasis,
    rng: np.random.Generator,
    *,
    n_starts: int,
    max_iter: int,
    extra_starts: Sequence[np.ndarray] = (),
) -> tuple[AscentResult, bool]:
    warm: dict = {}
    objective = _distance_objective(basis, spec.q, warm)
    result = _sup_over_sphere(
        objective,
        spec,
        rng,
        n_starts=n_starts,
        max_iter=max_iter,
        extra_starts=extra_starts,
    )
    probe = _probe_ratio(spec, basis)
    if probe > result.value:
        result = AscentResult(
            value=probe,
            maximizer=result.maximizer,
            converged=result.converged,
            iterations=result.iterations,
            evaluations=result.evaluations,
            start_index=-1,
        )
    return result, bool(warm.get("ok", True))


def estimate_kolmogorov(
    spec: EmbeddingSpec,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> Estimate:
    """Estimate the ``n``-th Kolmogorov number: the best achievable
    ``sup_X dist_q(X, E) / ||X||_p`` over candidate subspaces ``E`` of
    dimension ``n - 1``, searched by coordinate anchors, random frames,
    and adaptive frame perturbation, with the finalists re-evaluated at
    full ascent budget."""
    n = spec.require_index()
    p, q, N = spec.p, spec.q, spec.N
    if q < 1 and p != q:
        raise NotImplementedError(
            "quasi-norm codomains are supported on the diagonal p == q only"
        )
    if p == 2 and q == 2:
        return _hilbert_estimate(spec, "kolmogorov", seed)

    rng = np.random.default_rng(seed)
    m = n - 1
    quasi_inner = q < 1

    def cheap(basis: SubspaceBasis) -> float:
        return _evaluate_subspace(
            spec, basis, rng, n_starts=_CHEAP_STARTS, max_iter=_CHEAP_ITER
        )[0].value

    def full(basis: SubspaceBasis) -> tuple[float, bool]:
        result, inner_ok = _evaluate_subspace(
            spec, basis, rng, n_starts=restarts, max_iter=_FINAL_ITER
        )
        return result.value, result.converged and inner_ok

    if m == 0:
        value, converged = full(SubspaceBasis(np.zeros((N * N, 0)), N))
        detail = {"candidates": 1, "winner": "zero-subspace"}
    else:
        candidates = _kolmogorov_candidates(spec, m, rng)
        scored = _score(candidates, cheap)
        _, perturbed = _perturbation_descent(
            cheap, (scored[0][0], scored[0][2]), rng, _KOLMOGOROV_ROUNDS,
            rel_gain=1e-4, patience=8,
        )
        finalists = [("perturbed", perturbed), scored[0][1:]]
        if len(scored) > 1 and scored[1][0] < 1.15 * scored[0][0]:
            finalists.append(scored[1][1:])
        value, winner, converged = _best_finalist(finalists, full)
        detail = {"candidates": len(candidates), "search_rounds": _KOLMOGOROV_ROUNDS,
                  "winner": winner}
    return Estimate(
        value=value,
        snumber_kind="kolmogorov",
        method="pg-search",
        spec=spec,
        restarts=restarts,
        seed=seed,
        converged=converged,
        detail={**detail, "quasi_inner": quasi_inner},
    )


# ---------------------------------------------------------------------------
# approximation numbers
# ---------------------------------------------------------------------------


def _mask_operator(N: int, order: Sequence[int], rank: int, scale: float = 1.0
                   ) -> OperatorOnMatrices:
    full = N * N
    m = np.zeros((full, full))
    for idx in order[:rank]:
        m[idx, idx] = scale
    return OperatorOnMatrices(m, N)


def _approx_candidates(
    spec: EmbeddingSpec, rank: int, rng: np.random.Generator
) -> list[tuple[str, OperatorOnMatrices]]:
    N = spec.N
    full = N * N
    zero = OperatorOnMatrices(np.zeros((full, full)), N)
    cands: list[tuple[str, OperatorOnMatrices]] = [("zero", zero)]
    col_order = [i * N + j for j in range(N) for i in range(N)]
    row_order = list(range(full))
    for label, order in (("col-keep", col_order), ("row-keep", row_order)):
        for scale in (1.0, 0.5):
            cands.append(
                (f"{label}@{scale:g}", _mask_operator(N, order, rank, scale))
            )
    for k in range(_APPROX_RANDOM_MAPS):
        frame = _random_frame(rng, full, rank)
        proj = frame @ frame.T
        cands.append((f"random-proj-{k}", OperatorOnMatrices(proj, N)))
        cands.append((f"random-proj-{k}@0.5", OperatorOnMatrices(0.5 * proj, N)))
    return cands


def _truncate_rank(matrix: np.ndarray, rank: int) -> np.ndarray:
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    s[rank:] = 0.0
    return (u * s) @ vt


def _adversarial_refine(
    spec: EmbeddingSpec,
    operator: OperatorOnMatrices,
    rank: int,
    rng: np.random.Generator,
) -> OperatorOnMatrices:
    """A few rounds of best-response descent: find a near-worst input for
    the current approximant, take a rank-constrained gradient step that
    shrinks the residual on a pool of worst inputs."""
    matrix = operator.matrix.copy()
    N = spec.N
    pool: list[np.ndarray] = []
    eta = 0.5
    current = None
    for _ in range(_APPROX_REFINE_ROUNDS):
        op = OperatorOnMatrices(matrix, N)
        result = _sup_over_sphere(
            _norm_objective(op.subtract_from_identity(), spec.q),
            spec,
            rng,
            n_starts=_CHEAP_STARTS,
            max_iter=_CHEAP_ITER,
            extra_starts=pool[-2:],
        )
        if current is not None and result.value >= current:
            eta *= 0.5
            if eta < 1e-3:
                break
        current = result.value
        worst = result.maximizer
        pool.append(worst)
        grad_dir = norm_and_gradient(worst - op.apply(worst), spec.q)[1]
        if grad_dir is None:
            break
        update = np.outer(vec(grad_dir), vec(worst))
        matrix = _truncate_rank(matrix + eta * update, rank)
    return OperatorOnMatrices(matrix, N)


def estimate_approx(
    spec: EmbeddingSpec,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> Estimate:
    """Estimate the ``n``-th approximation number: the best achievable
    residual norm ``sup_X ||X - A(X)||_q / ||X||_p`` over candidate maps
    ``A`` of rank below ``n``.

    When one side is the Frobenius class, the exact coincidences with the
    width scales are used instead of a direct rank search (domain
    exponent 2: Gelfand; codomain exponent 2: Kolmogorov)."""
    n = spec.require_index()
    p, q = spec.p, spec.q
    if q < 1 and p != q:
        raise NotImplementedError(
            "quasi-norm codomains are supported on the diagonal p == q only"
        )
    if p == 2 and q == 2:
        return _hilbert_estimate(spec, "approximation", seed)
    if n == 1:
        base = operator_norm_estimate(spec, restarts=restarts, seed=seed)
        return _reduced(base, spec, "approximation", {"reduction": "index-1-is-norm"})
    if q == 2:
        inner = estimate_kolmogorov(spec, restarts=restarts, seed=seed)
        return _reduced(inner, spec, "approximation", {"reduction": "hilbert-codomain"})
    if p == 2 and q >= 1:
        inner = estimate_gelfand(spec, restarts=restarts, seed=seed)
        return _reduced(inner, spec, "approximation", {"reduction": "hilbert-domain"})

    rng = np.random.default_rng(seed)
    rank = n - 1

    def residual_sup(op: OperatorOnMatrices, n_starts: int, max_iter: int) -> AscentResult:
        return _sup_over_sphere(
            _norm_objective(op.subtract_from_identity(), spec.q),
            spec,
            rng,
            n_starts=n_starts,
            max_iter=max_iter,
        )

    def full(op: OperatorOnMatrices) -> tuple[float, bool]:
        result = residual_sup(op, restarts, _FINAL_ITER)
        return result.value, result.converged

    candidates = _approx_candidates(spec, rank, rng)
    scored = _score(candidates, lambda op: residual_sup(op, _CHEAP_STARTS, _CHEAP_ITER).value)
    refined = _adversarial_refine(spec, scored[0][2], rank, rng)
    finalists = [("refined", refined), *(entry[1:] for entry in scored[:2])]
    value, winner, converged = _best_finalist(finalists, full)
    return Estimate(
        value=value,
        snumber_kind="approximation",
        method="pg-search",
        spec=spec,
        restarts=restarts,
        seed=seed,
        converged=converged,
        detail={"candidates": len(candidates), "winner": winner},
    )


# ---------------------------------------------------------------------------
# Gelfand numbers
# ---------------------------------------------------------------------------


def _sup_ratio_on_subspace(
    spec: EmbeddingSpec,
    basis: SubspaceBasis,
    rng: np.random.Generator,
    *,
    n_starts: int,
    max_iter: int,
) -> AscentResult:
    """Maximize ``||X||_q / ||X||_p`` over nonzero ``X`` in the subspace,
    from the normalized all-ones coefficients and Gaussian coefficients."""
    dim = basis.dim
    coeffs = [np.ones(dim) / math.sqrt(dim)]
    coeffs += [rng.standard_normal(dim) for _ in range(1, n_starts)]
    return sup_ratio_ascent(_norm_objective(None, spec.q), spec.p,
                            [basis.member(z) for z in coeffs],
                            max_iter=max_iter, subspace=basis)


def estimate_gelfand(
    spec: EmbeddingSpec,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> Estimate:
    """Estimate the ``n``-th Gelfand number.

    Banach exponents reduce exactly to a Kolmogorov estimate for the dual
    embedding.  The diagonal ``p == q < 1`` is exactly 1 (every restriction
    of the identity has norm 1).  Other quasi-norm domains run a direct,
    experimental search over subspaces of codimension ``n - 1``, scored by
    ascents of ``||X||_q / ||X||_p`` on each; ``converged`` is the final
    ascent's flag."""
    n = spec.require_index()
    p, q, N = spec.p, spec.q, spec.N
    if p == 2 and q == 2:
        return _hilbert_estimate(spec, "gelfand", seed)
    if p == q and p < 1:
        return Estimate(
            value=1.0,
            snumber_kind="gelfand",
            method="identity-exact",
            spec=spec,
            restarts=0,
            seed=seed,
            converged=True,
            detail={"reduction": "identity-restriction-norm"},
        )
    if p >= 1 and q >= 1:
        dual_spec = EmbeddingSpec(dual_exponent(q), dual_exponent(p), N, n)
        inner = estimate_kolmogorov(dual_spec, restarts=restarts, seed=seed)
        dual = (str(dual_spec.p), str(dual_spec.q))
        return _reduced(inner, spec, "gelfand", {"dual": dual}, method="dual-reduction")

    # direct search over codimension-(n-1) subspaces; experimental
    if q < 1 and p != q:
        raise NotImplementedError(
            "quasi-norm codomains are supported on the diagonal p == q only"
        )
    rng = np.random.default_rng(seed)

    def cheap(basis: SubspaceBasis) -> float:
        return _sup_ratio_on_subspace(
            spec, basis, rng, n_starts=_CHEAP_STARTS, max_iter=_GELFAND_CHEAP_ITER
        ).value

    scored = _score(_coordinate_subspaces(N, N * N - n + 1), cheap)
    best, basis = _perturbation_descent(
        cheap, (scored[0][0], scored[0][2]), rng, _GELFAND_ROUNDS
    )
    final = _sup_ratio_on_subspace(
        spec, basis, rng, n_starts=restarts, max_iter=_GELFAND_FINAL_ITER
    )
    return Estimate(
        value=max(best, final.value),
        snumber_kind="gelfand",
        method="pg-search",
        spec=spec,
        restarts=restarts,
        seed=seed,
        converged=final.converged,
        detail={"experimental": True, "search_rounds": _GELFAND_ROUNDS},
    )

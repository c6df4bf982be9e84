"""Numerical estimators for the three s-number scales of matrix-space maps.

Every estimator returns an :class:`Estimate` carrying the value, the
method actually used, the randomness budget, and a convergence flag.
Methods:

* ``pg-search`` — projected-gradient sup ascent combined with a candidate
  search over approximants/subspaces (the generic path);
* ``hilbert-exact`` — both exponents are 2, where the identity is an
  isometry of ``S_2`` and every s-number is 1;
* ``identity-exact`` — the pairs where every s-number is exactly 1:
  Gelfand numbers on the diagonal ``p == q``, and Kolmogorov and
  approximation numbers on ``p <= q <= max(p, 1)`` (see ``_closed_form``);
* ``anchor-exact`` — the indices the two-sided bounds pin, for all three
  kinds: 1 at ``n <= N`` for ``p <= q`` (``rank-one-member``), the last
  index ``n = N^2`` (``last-index``), the last index's value at every
  ``n > N^2 - rho(N)`` for ``p <= q``, with ``rho`` the Hurwitz-Radon
  number (``hurwitz-radon-tail``), the norm at ``n <= rho(N)`` for
  ``p > q`` (``hurwitz-radon``), and 1 at ``n >= N^2 - N + 1`` for
  ``p > q`` (``column-zero``).  ``detail["reduction"]`` names the proof,
  and the value costs no array work.

One function, ``_closed_form``, decides the exact cases and the
approximation numbers' reductions for all three estimators, and rejects
the inputs no search handles; an estimator searches only where it finds
none.  At ``N = 2`` it finds one for every spec it accepts, so the
estimators never search there; the searches themselves stay reachable
as ``_width_search`` and ``_approx_search``.

Gelfand and Kolmogorov numbers share one search over subspaces.  The
``n``-th Gelfand number of ``S_a -> S_b`` is the least, over subspaces
``L`` of codimension ``n - 1``, of ``sup_{X in L} ||X||_b / ||X||_a``.  For
``q >= 1`` the quotient norm of ``S_q / F`` is dual to the ``S_{q*}`` norm
on the annihilator of ``F`` (Hahn-Banach), and for ``p < 1`` the ``S_p``
ball's convex hull is the ``S_1`` ball, so the Kolmogorov numbers are
Gelfand numbers: ``d_n(S_p -> S_q) = c_n(S_{q*} -> S_{max(p,1)*})``, and the
search runs at that pair.  No estimator solves a subspace distance.

The search scores a list of candidate subspaces (approximants, for the
approximation numbers, held as plain ``N^2 x N^2`` arrays in ``vec``
coordinates) with cheap ascents, perturbs or refines the best one, and
re-evaluates a few finalists with the full ascent.  The only search
options are ``restarts`` (the full ascent's start count) and ``seed``; the
budgets are fixed:

* cheap ascents: 3 starts, 60 iterations;
* full ascents and ``operator_norm_estimate``: 250 iterations;
* width searches: 3 random frames among the candidates, then 16 rounds
  of frame perturbation that stop after 8 rounds without gain; an ascent
  on a subspace of codimension below ``N`` adds 3 rank-one starts;
* approximation numbers: 2 random projections among the candidates, then
  5 rounds of adversarial refinement.

Scope: quasi-norm codomains (``q < 1``) are supported where the value is
exactly 1: ``p <= q`` for Kolmogorov and approximation numbers, and
``p == q`` for Gelfand numbers.  The searches therefore run only at
``q >= 1``, off the anchors, and approximation numbers search only at
``p >= 1``: a quasi-norm domain reduces to ``p = 1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .ascent import AscentResult, default_starts, sup_ratio_ascent
from .core import (
    EmbeddingSpec,
    as_int,
    embedding_norm,
    last_snumber,
    norm_and_deferred_gradient,
    norm_and_gradient,
)
from .exponents import dual_exponent, exponent_float
from .operators import SubspaceBasis, orthonormal_columns, subspace_from_matrices

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
_SEARCH_ROUNDS = 16
_SEARCH_PATIENCE = 8
_RANDOM_FRAMES = 3
_RANK_ONE_STARTS = 3
_APPROX_REFINE_ROUNDS = 5
_APPROX_RANDOM_MAPS = 2


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


def _require_restarts(restarts) -> None:
    count = as_int(restarts)
    if count is None or count < 1:
        raise ValueError(f"restarts must be a positive integer, got {restarts!r}")


def operator_norm_estimate(
    spec: EmbeddingSpec,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> Estimate:
    """Estimate the embedding's norm ``sup ||X||_q / ||X||_p`` by
    multi-start gradient ascent; the start battery contains exact
    maximizers of both norm regimes."""
    _require_restarts(restarts)
    rng = np.random.default_rng(seed)
    n_gauss = max(1, restarts - 5)
    starts = default_starts(spec.N, rng, n_gaussian=n_gauss, n_rank_one=2)
    result = sup_ratio_ascent(spec.q, spec.p, starts, max_iter=_FINAL_ITER)
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


def _width_pair(spec: EmbeddingSpec, kind: str):
    """The pair ``(a, b)`` whose Gelfand search gives the ``kind`` width of
    ``spec``: ``(p, q)`` for Gelfand numbers, and ``(q*, max(p, 1)*)`` for
    Kolmogorov numbers with ``q >= 1``."""
    p, q = spec.p, spec.q
    if kind == "gelfand":
        return p, q
    return dual_exponent(q), dual_exponent(max(p, 1))


def _hurwitz_radon_number(N: int) -> int:
    """The Hurwitz-Radon number ``rho(N) = 8a + 2^b`` of ``N = 2^(4a+b)``
    times an odd number, ``0 <= b <= 3``: the largest dimension of a space
    of ``N x N`` matrices whose every member is a multiple of an orthogonal
    matrix."""
    a, b = divmod((N & -N).bit_length() - 1, 4)
    return 8 * a + 2**b


def _anchor(spec: EmbeddingSpec, kind: str) -> Optional[tuple[float, str]]:
    """``(value, reduction)`` of a proven anchor at ``spec``, or None; for
    the specs that pass ``_closed_form``'s refusal and exact pairs, which
    all have ``q >= 1``.  See ``_closed_form`` for the proofs."""
    p, q, N, n = spec.p, spec.q, spec.N, spec.n
    if p <= q and n <= N:
        return 1.0, "rank-one-member"
    if n == N * N:
        return last_snumber(kind, p, q, N), "last-index"
    if p <= q and n > N * N - _hurwitz_radon_number(N):
        return last_snumber(kind, p, q, N), "hurwitz-radon-tail"
    if p > q and n <= _hurwitz_radon_number(N):
        return embedding_norm(p, q, N), "hurwitz-radon"
    if p > q and n >= N * N - N + 1:
        return 1.0, "column-zero"
    return None


def _closed_form(spec: EmbeddingSpec, kind: str, restarts: int, seed: int
                 ) -> Optional[Estimate]:
    """The ``kind`` number of ``spec`` from an exact value or an exact
    reduction, or None where the search must run; raises where no search
    is sound (``q < 1`` with ``q < p``, and Gelfand numbers at ``q < 1``
    off the diagonal).  The rules, in order:

    * ``hilbert-exact``: ``p = q = 2``, where the identity is an isometry
      of ``S_2``.
    * ``identity-exact``, the value 1 wherever the identity's restrictions
      or an annihilator pin it.  Gelfand numbers on ``p == q``: every
      restriction of the identity has norm 1.  Kolmogorov numbers on
      ``p <= q <= max(p, 1)``: for ``q >= 1`` that is ``q == max(p, 1)``,
      whose searched pair is diagonal; for ``q < 1``, ``F`` has dimension
      ``n - 1 < N^2``, so its annihilator holds a nonzero ``Z``.  Let
      ``X = u v^T`` for ``Z``'s top singular pair: ``||X||_p = 1`` and
      ``<X, Z> = ||Z||_inf``.  Every ``Y`` in ``F`` has ``<Y, Z> = 0``, so
      ``||X - Y||_q >= ||X - Y||_1 >= <X - Y, Z> / ||Z||_inf = 1``.  Either
      way ``d_n >= 1``, and ``d_n <= d_1 = ||id|| = 1``.  Approximation
      numbers on the same pairs: ``d_n <= a_n <= ||id||``.
    * ``anchor-exact``, for all three kinds; every spec left has ``q >= 1``.
      Each proof bounds the Gelfand number from below by the value, and so
      the Kolmogorov number, the Gelfand number at its searched pair; the
      norm or an explicit approximant bounds ``a_n`` from above, and
      ``a_n >= max(c_n, d_n)`` closes the sandwich.  ``n = 1`` is always an
      anchor.  ``detail["reduction"]`` names the proof:

      - ``rank-one-member``, ``p <= q`` and ``n <= N``: the value is 1.  A
        subspace of codimension ``n - 1 < N`` holds a rank-one ``u v^T``
        (take ``u`` orthogonal to ``W v`` for each of its ``n - 1``
        normals ``W``), whose ratio is 1, so ``c_n >= 1``; the Kolmogorov
        number is that Gelfand number at the pair ``(q*, max(p, 1)*)``,
        again with domain exponent at most the codomain's.  The norm is 1.
      - ``last-index``, ``n = N^2``: ``core.last_snumber``, whose docstring
        has the proof and the two attaining approximants.
      - ``hurwitz-radon-tail``, ``p <= q`` and ``n > N^2 - rho(N)``: the
        value is ``core.last_snumber``, ``N^(1/q-1/p)`` for Gelfand numbers
        and ``N^(1/q-1/max(p,1))`` for the other two.  Lower bound: by the
        power-mean inequality, ``||X||_q / ||X||_p >= N^(1/q-1/p)`` for
        ``p <= q``, so ``c_n`` is at least that, and ``d_n`` at least
        ``N^(1/q-1/max(p,1))``, the same bound at the searched pair
        ``(q*, max(p,1)*)``.  Upper bound for the widths: the Hurwitz-Radon
        space ``H`` (see ``hurwitz-radon``) has codimension
        ``N^2 - rho(N) <= n - 1``, so it holds a subspace of codimension
        ``n - 1``.  Every member has a flat spectrum, so the sup of the
        ratio over ``H`` is ``N^(1/q-1/p)``, and ``N^(1/q-1/max(p,1))`` at
        the searched pair.
        Upper bound for ``a_n``: the approximant ``id - P_H``, with ``P_H``
        the Frobenius projection onto ``H``, has rank ``N^2 - rho(N) <=
        n - 1``.  Write ``P_H X = sum c_k Q_k`` with ``Q_k`` the orthogonal
        family spanning ``H``, ``tr(Q_k^T Q_l) = N delta_kl``.  Every
        ``sum a_k Q_k`` with ``|a| = 1`` is orthogonal, so by Hoelder
        ``|c| = sup_{|a|=1} <X, sum a_k Q_k> / N <= ||X||_1 / N <=
        N^(-1/max(p,1)) ||X||_p``, and ``||P_H X||_q = N^(1/q) |c| <=
        N^(1/q-1/max(p,1)) ||X||_p`` for every ``p`` and ``q``.  At
        ``N = 2`` (``rho = 2``) the rule covers ``n = 3``, and with the
        other anchors every spec the estimators accept.
      - ``hurwitz-radon``, ``p > q`` and ``n <= rho(N)``: the value is the
        norm ``N^(1/q-1/p)``.  By Hurwitz and Radon, a ``rho(N)``
        dimensional space ``H`` of multiples of orthogonal matrices exists
        (span{I, J} at ``N = 2``, the quaternion multiplications at
        ``N = 4``), and it meets every subspace of codimension
        ``n - 1 < rho(N)``.  Its members have flat spectra, so their ratio
        is the norm: ``c_n >= ||id||``.  The Kolmogorov number is the
        Gelfand number at ``(q*, p*)``, again with ``q* > p*`` and the same
        norm.
      - ``column-zero``, ``p > q`` and ``n >= N^2 - N + 1``: the value is 1.
        The approximant that keeps all columns but the first has rank
        ``N^2 - N <= n - 1`` and leaves ``X -> X e_1 e_1^T``, a matrix of
        rank one whose norm ``||X e_1||_2`` is at most ``||X||_inf <=
        ||X||_p``, so ``a_n <= 1`` (``certificates.upper_column_zero``).
        Every ratio ``||X||_q / ||X||_p`` is at least 1 for ``p > q``, so
        ``c_n >= 1``; the Kolmogorov number is the Gelfand number at
        ``(q*, p*)``, again with ``q* > p*``.
    * Approximation numbers reduce, with the inner estimate's method:
      with a Frobenius codomain (domain) to the Kolmogorov (Gelfand)
      numbers (``hilbert-codomain``, ``hilbert-domain``), and at
      ``p < 1 <= q`` to ``p = 1`` (``quasi-domain-collapse``): the ``S_p``
      ball's convex hull is the ``S_1`` ball, and ``X -> ||X - A(X)||_q``
      is convex, so each approximant's sup over the ``S_p`` ball is its
      sup over the ``S_1`` ball.
    """
    n = spec.require_index()
    _require_restarts(restarts)
    p, q = spec.p, spec.q
    if q < 1 and (q < p or (kind == "gelfand" and p != q)):
        raise NotImplementedError(
            "quasi-norm codomains are supported for p <= q only, and for "
            "Gelfand numbers on the diagonal p == q only"
        )
    if p == 2 and q == 2:
        return Estimate(value=1.0, snumber_kind=kind, method="hilbert-exact", spec=spec,
                        restarts=0, seed=seed, converged=True, detail={})
    if p == q if kind == "gelfand" else p <= q <= max(p, 1):
        if kind == "approximation":
            reduction = "width-sandwich"
        elif kind == "kolmogorov" and q < 1:
            reduction = "rank-one-annihilator"
        else:
            reduction = "identity-restriction-norm"
        return Estimate(value=1.0, snumber_kind=kind, method="identity-exact", spec=spec,
                        restarts=0, seed=seed, converged=True,
                        detail={"reduction": reduction})
    if (anchor := _anchor(spec, kind)) is not None:
        value, reduction = anchor
        return Estimate(value=value, snumber_kind=kind, method="anchor-exact", spec=spec,
                        restarts=0, seed=seed, converged=True,
                        detail={"reduction": reduction})
    if kind != "approximation":
        return None
    inner_spec = spec
    if q == 2:
        reduction, estimator = "hilbert-codomain", estimate_kolmogorov
    elif p == 2:
        reduction, estimator = "hilbert-domain", estimate_gelfand
    elif p < 1:
        reduction, estimator = "quasi-domain-collapse", estimate_approx
        inner_spec = replace(spec, p=1)
    else:
        return None
    inner = estimator(inner_spec, restarts=restarts, seed=seed)
    return replace(inner, snumber_kind=kind, spec=spec,
                   detail={"reduction": reduction, **inner.detail})


# ---------------------------------------------------------------------------
# shared search machinery
# ---------------------------------------------------------------------------


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


def _perturbation_descent(evaluate, start, rng):
    """Adaptive random descent over frames from ``start = (value, basis)``.

    Each round perturbs the best frame at scale ``tau`` and keeps the trial
    when its value drops below ``1 - 1e-4`` times the best; ``tau`` grows
    after a gain and shrinks otherwise.  The search ends after
    ``_SEARCH_ROUNDS`` rounds, or ``_SEARCH_PATIENCE`` rounds in a row
    without a gain.  Returns the best ``(value, basis)``.
    """
    best_val, best = start
    tau = 0.3
    misses = 0
    for _ in range(_SEARCH_ROUNDS):
        trial = _perturb_basis(best, tau, rng)
        value = evaluate(trial)
        if value < best_val * (1 - 1e-4):
            best_val, best = value, trial
            tau = min(tau * 1.2, 0.8)
            misses = 0
        else:
            tau = max(tau * 0.7, 1e-3)
            misses += 1
            if misses == _SEARCH_PATIENCE:
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
# Gelfand and Kolmogorov numbers
# ---------------------------------------------------------------------------


def _subspace_candidates(N: int, m: int, rng: np.random.Generator
                         ) -> list[tuple[str, SubspaceBasis]]:
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
    bases.append(("identity-first", subspace_from_matrices(mats[:m], N)))
    for label, family in zip(("split-rotation", "split-reflection"),
                             _split_families(N)):
        bases.append((label, subspace_from_matrices(family[:m], N)))
    for k in range(_RANDOM_FRAMES):
        bases.append((f"random-{k}", SubspaceBasis(_random_frame(rng, full, m), N)))
    return bases


def _sup_ratio_on_subspace(a, b, basis: SubspaceBasis, rng: np.random.Generator,
                           n_starts: int, max_iter: int) -> tuple[float, bool]:
    """``(value, converged)`` of the ascent of ``||X||_b / ||X||_a`` over
    nonzero ``X`` in the subspace, from the normalized all-ones coefficients
    and Gaussian coefficients.  Where the codimension is below ``N`` it adds
    rank-one members ``u v^T``, with ``u`` orthogonal to ``W v`` for every
    normal ``W``: at ``a <= b`` they attain the sup, 1, while the ascent
    alone stalls near the quasi-norm cusp."""
    N, dim = basis.N, basis.dim
    coeffs = [np.ones(dim) / math.sqrt(dim)]
    coeffs += [rng.standard_normal(dim) for _ in range(1, n_starts)]
    starts = [basis.member(z) for z in coeffs]
    normals = basis.complement.T.reshape(-1, N, N)
    if len(normals) < N:
        for _ in range(_RANK_ONE_STARTS):
            v = rng.standard_normal(N)
            u = np.linalg.svd(np.vstack([np.zeros(N), normals @ v]))[2][-1]
            starts.append(basis.member(basis.coefficients(np.outer(u, v))))
    result = sup_ratio_ascent(b, a, starts, max_iter=max_iter, subspace=basis)
    return result.value, result.converged


def _width_search(spec: EmbeddingSpec, kind: str, restarts: int, seed: int) -> Estimate:
    """The search behind both width estimators.

    At the searched pair ``(a, b)`` it looks for the subspace ``L`` of
    codimension ``n - 1`` with the least ``sup_L ||X||_b / ||X||_a``.
    Candidates are scored with cheap ascents, the best frame is perturbed,
    and the finalists (the perturbed frame only where it moved) are
    re-evaluated at full budget.  ``n >= 2``: the whole space, ``n = 1``,
    is always an anchor of :func:`_closed_form`.
    """
    N = spec.N
    rng = np.random.default_rng(seed)
    pair = _width_pair(spec, kind)
    m, evaluate = N * N - spec.n + 1, partial(_sup_ratio_on_subspace, *pair)

    def cheap(basis: SubspaceBasis) -> float:
        return evaluate(basis, rng, _CHEAP_STARTS, _CHEAP_ITER)[0]

    def full(basis: SubspaceBasis) -> tuple[float, bool]:
        return evaluate(basis, rng, restarts, _FINAL_ITER)

    candidates = _subspace_candidates(N, m, rng)
    scored = _score(candidates, cheap)
    _, perturbed = _perturbation_descent(cheap, (scored[0][0], scored[0][2]), rng)
    finalists = [scored[0][1:]]
    if perturbed is not scored[0][2]:
        finalists.insert(0, ("perturbed", perturbed))
    if len(scored) > 1 and scored[1][0] < 1.15 * scored[0][0]:
        finalists.append(scored[1][1:])
    value, winner, converged = _best_finalist(finalists, full)
    detail = {"candidates": len(candidates), "search_rounds": _SEARCH_ROUNDS,
              "winner": winner, "pair": tuple(map(str, pair))}
    return Estimate(value=value, snumber_kind=kind, method="pg-search", spec=spec,
                    restarts=restarts, seed=seed, converged=converged, detail=detail)


def estimate_gelfand(
    spec: EmbeddingSpec,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> Estimate:
    """Estimate the ``n``-th Gelfand number: the least achievable
    ``sup_{X in L} ||X||_q / ||X||_p`` over candidate subspaces ``L`` of
    codimension ``n - 1``, searched by coordinate, identity-first and
    transpose-split frames, random frames, and adaptive frame perturbation,
    with the finalists re-evaluated at full ascent budget.  The diagonal
    ``p == q`` is exactly 1 (every restriction of the identity has norm
    1)."""
    if (exact := _closed_form(spec, "gelfand", restarts, seed)) is not None:
        return exact
    return _width_search(spec, "gelfand", restarts, seed)


def estimate_kolmogorov(
    spec: EmbeddingSpec,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> Estimate:
    """Estimate the ``n``-th Kolmogorov number ``inf_F sup_X dist_q(X, F) /
    ||X||_p`` over subspaces ``F`` of dimension ``n - 1``.

    For ``q >= 1`` this is the Gelfand number of ``S_{q*} -> S_{max(p,1)*}``
    (the sup over ``X`` equals the sup of ``||Z||_{max(p,1)*} / ||Z||_{q*}``
    over the annihilator of ``F``), found by the Gelfand search at that
    pair; ``detail["pair"]`` names it.  On ``p <= q <= max(p, 1)``, quasi
    codomains included, the value is exactly 1 at every ``n`` (see
    ``_closed_form``)."""
    if (exact := _closed_form(spec, "kolmogorov", restarts, seed)) is not None:
        return exact
    return _width_search(spec, "kolmogorov", restarts, seed)


# ---------------------------------------------------------------------------
# approximation numbers
# ---------------------------------------------------------------------------


def _residual_objective(A: np.ndarray, q):
    """The objective ``X -> ||X - A(X)||_q`` of the approximant ``A``, an
    ``N^2 x N^2`` array in ``vec`` coordinates, with its deferred gradient
    ``(I - A)^T`` applied to the norm's gradient at the residual."""
    qf = exponent_float(q)
    residual = np.eye(len(A)) - A
    N = math.isqrt(len(A))

    def objective(x: np.ndarray):
        value, image_gradient = norm_and_deferred_gradient(
            (residual @ x.reshape(-1)).reshape(N, N), qf)

        def gradient():
            grad = image_gradient()
            return None if grad is None else (residual.T @ grad.reshape(-1)).reshape(N, N)

        return value, gradient

    return objective


def _residual_sup(spec: EmbeddingSpec, A: np.ndarray, rng: np.random.Generator,
                  n_starts: int, max_iter: int, extra: Sequence[np.ndarray] = ()
                  ) -> AscentResult:
    """The ascent of ``||X - A(X)||_q / ||X||_p`` from ``n_starts`` starts,
    half Gaussian and half rank-one, plus ``extra``."""
    n_gauss = max(1, n_starts // 2)
    starts = default_starts(spec.N, rng, n_gaussian=n_gauss,
                            n_rank_one=max(1, n_starts - n_gauss), extra=extra)
    return sup_ratio_ascent(_residual_objective(A, spec.q), spec.p, starts,
                            max_iter=max_iter)


def _approx_candidates(N: int, rank: int, rng: np.random.Generator
                       ) -> list[tuple[str, np.ndarray]]:
    """The labelled starting approximants of rank ``rank``: zero, kept
    coordinates (column- and row-major) and random projections, each also
    at half scale."""
    full = N * N
    cands = [("zero", np.zeros((full, full)))]
    col_order = [i * N + j for j in range(N) for i in range(N)]
    for label, order in (("col-keep", col_order), ("row-keep", list(range(full)))):
        keep = np.zeros(full)
        keep[order[:rank]] = 1.0
        for scale in (1.0, 0.5):
            cands.append((f"{label}@{scale:g}", np.diag(scale * keep)))
    for k in range(_APPROX_RANDOM_MAPS):
        frame = _random_frame(rng, full, rank)
        proj = frame @ frame.T
        cands.append((f"random-proj-{k}", proj))
        cands.append((f"random-proj-{k}@0.5", 0.5 * proj))
    return cands


def _truncate_rank(matrix: np.ndarray, rank: int) -> np.ndarray:
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    s[rank:] = 0.0
    return (u * s) @ vt


def _adversarial_refine(spec: EmbeddingSpec, A: np.ndarray, rank: int,
                        rng: np.random.Generator) -> np.ndarray:
    """A few rounds of best-response descent: find a near-worst input for
    the current approximant, take a rank-constrained gradient step that
    shrinks the residual on a pool of worst inputs."""
    N = spec.N
    pool: list[np.ndarray] = []
    eta = 0.5
    current = None
    for _ in range(_APPROX_REFINE_ROUNDS):
        result = _residual_sup(spec, A, rng, _CHEAP_STARTS, _CHEAP_ITER, pool[-2:])
        if current is not None and result.value >= current:
            eta *= 0.5
            if eta < 1e-3:
                break
        current = result.value
        worst = result.maximizer
        pool.append(worst)
        grad_dir = norm_and_gradient(worst - (A @ worst.reshape(-1)).reshape(N, N), spec.q)[1]
        if grad_dir is None:
            break
        A = _truncate_rank(A + eta * np.outer(grad_dir.reshape(-1), worst.reshape(-1)), rank)
    return A


def _approx_search(spec: EmbeddingSpec, restarts: int, seed: int) -> Estimate:
    """The search behind :func:`estimate_approx`, the counterpart of
    :func:`_width_search`.

    Candidate approximants of rank ``n - 1`` are scored with cheap
    ascents, the best is refined adversarially, and the refined map and the
    two best candidates are re-evaluated at full budget.  ``n >= 2``: the
    first index is always an anchor of :func:`_closed_form`.
    """
    rng = np.random.default_rng(seed)
    rank = spec.n - 1

    def full(A: np.ndarray) -> tuple[float, bool]:
        result = _residual_sup(spec, A, rng, restarts, _FINAL_ITER)
        return result.value, result.converged

    candidates = _approx_candidates(spec.N, rank, rng)
    scored = _score(candidates,
                    lambda A: _residual_sup(spec, A, rng, _CHEAP_STARTS, _CHEAP_ITER).value)
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


def estimate_approx(
    spec: EmbeddingSpec,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> Estimate:
    """Estimate the ``n``-th approximation number: the best achievable
    residual norm ``sup_X ||X - A(X)||_q / ||X||_p`` over candidate maps
    ``A`` of rank below ``n``.

    The search runs only where ``_closed_form`` finds nothing exact: on
    ``p <= q <= max(p, 1)`` the value is exactly 1, squeezed between the
    Kolmogorov number and the norm (``width-sandwich``); the anchors
    (``n = 1`` among them) are exact; when one side is the Frobenius class
    the width scales give it, and a quasi-norm domain reduces to ``p = 1``.
    Elsewhere :func:`_approx_search` runs."""
    if (exact := _closed_form(spec, "approximation", restarts, seed)) is not None:
        return exact
    return _approx_search(spec, restarts, seed)

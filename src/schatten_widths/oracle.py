"""Brute-force net reference values for s-numbers at N = 2.

This is the calibration counterpart to :mod:`.estimators`: instead of
gradient ascent and adaptive subspace perturbation it evaluates large
deterministic nets and refines by zooming, so the systematic errors of
the two paths are unrelated.  Everything is expressed in the
rotation/reflection split coordinates of 2x2 matrices, which turns every
inner solve into scalar algebra that vectorizes over the whole net:

* Kolmogorov path — minimize over subspace frames the net-sup of
  ``dist_q(X, E) / ||X||_p``.  The inner distance is exact per net point:
  Euclidean projection for ``q = 2``, candidate enumeration (``m = 1``)
  or a bisected quadratic minimax dual (``m = 2``) for ``q = 1``, golden
  section (``m = 1``) or Weiszfeld iteration (``m = 2``) for ``q = inf``,
  and the dual-pairing closed form for codimension one.
* Gelfand path — minimize over frames the sup of the restriction ratio
  ``||X||_q / ||X||_p`` over a net inside the subspace, augmented with
  the subspace's exact rank-one members (without them the net-sup misses
  the cusp maxima of quasi-norm ratios).
* Approximation numbers reduce to one of the above when either side is
  the Frobenius class; other exponent pairs are refused.

The frame search of both paths scores frames in stacks, one stack per
round: the structured seed frames, the random start frames, then in each
zoom round the perturbations of the three best frames so far.  The
frames, their order and the tie rule (the frame seen first wins) are
those of scoring one frame at a time, so values and frame counts do not
depend on the stacking.

Only the three best frames ever matter, and a frame's net-sup is at
least the sup over any part of its net.  So every batch after the seeds
is first screened with the evaluator's ``lower`` bound, and only the
frames whose bound lies below the largest value of the current top three
are scored in full.  A frame at or above that bar cannot enter the top
three: three frames seen earlier are no larger, and they win ties.  The
bounds are exact lower bounds (the restriction nets' rank-one members;
every ``_STRIDE``-th point of the Frobenius distance net, deflated by a
rounding margin), so values, frames and frame counts are those of
scoring every frame.  The nuclear and spectral distance nets have no
bound and score every frame.

An evaluator, and its bound, work through a stack in tiles whose
temporaries hold at most ``_CHUNK`` = 2**15 float64 elements (256 KB, a
share of a core's L2 cache); larger tiles were slower and raised the
peak memory.  The Frobenius distance net and the restriction
nets compute each tile with whole-tile array operations (their matrix
products run frame by frame, so that a frame's value does not depend on
its stack); the nuclear and spectral distance nets solve one frame at a
time, because their 48-60 passes over the whole net per frame do not
shrink in a stack.

Values carry an ``O(h)`` error bar and are deterministic given the seed.
The cost guard refuses ``N > 2``.
"""
from __future__ import annotations

import itertools
import json
import math
from importlib import resources
from typing import Callable

import numpy as np

from .core import EmbeddingSpec, embedding_norm, split_2x2
from .estimators import Estimate

__all__ = ["net_oracle", "load_frozen_battery", "DEFAULT_ORACLE_SEED"]

#: Default seed for the oracle's sampling; fixed so frozen reference
#: values can be reproduced bit-for-bit.
DEFAULT_ORACLE_SEED = 20240801

_TINY = 1e-300

#: Bound, in float64 elements (256 KB), on each temporary of a stacked
#: frame evaluation, so that a tile of work stays in a core's L2 cache.
_CHUNK = 1 << 15

#: The Frobenius distance net's lower bound reads every ``_STRIDE``-th
#: net point.
_STRIDE = 16

#: Deflation of each point's ratio in that bound, in units of
#: ``||X||_2 / ||X||_p`` (see :meth:`_DistanceNet._euclid_lower`).
_STRIDE_MARGIN = 1e-6


def load_frozen_battery() -> dict:
    """Load the committed oracle reference values (package data).

    Returns the parsed JSON: ``h``, ``seed``, and a ``points`` list whose
    entries carry ``kind``, ``p``, ``q``, ``n``, the oracle ``value`` and
    ``error_bar``, and whether the point belongs to the calibration
    ``battery`` proper (the rest are extra pinned values for unit tests).
    ``tests/fixtures/regenerate.py`` rebuilds the file from scratch.
    """
    path = resources.files("schatten_widths").joinpath("data/oracle_battery.json")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# split coordinates, vectorized over nets
# ---------------------------------------------------------------------------


def _split_parts(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`core.split_2x2` of vectorized 2x2 matrices.

    ``X`` has rows ``(x00, x01, x10, x11)``; returns the (K, 2) arrays of
    rotation parts ``u`` and reflection parts ``v``.
    """
    u, v = split_2x2(*X.T)
    return np.stack(u, axis=1), np.stack(v, axis=1)


def _sing_pair(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (s1 >= s2) of vectorized 2x2 matrices.

    ``X`` has shape ``(..., 4)``, entries ``(x00, x01, x10, x11)`` last;
    the results have shape ``(...)``.
    """
    (u1, u2), (v1, v2) = split_2x2(*np.moveaxis(X, -1, 0))
    nu = np.hypot(u1, u2)
    nv = np.hypot(v1, v2)
    return nu + nv, np.abs(nu - nv)


def _ratio_vec(X: np.ndarray, pf: float, qf: float) -> np.ndarray:
    """``||X||_q / ||X||_p`` of vectorized 2x2 matrices of shape
    ``(..., 4)`` (denominator floored at ``_TINY``)."""
    s1, s2 = _sing_pair(X)
    return _schatten_vec(s1, s2, qf) / np.maximum(_schatten_vec(s1, s2, pf), _TINY)


def _schatten_vec(s1: np.ndarray, s2: np.ndarray, pf: float) -> np.ndarray:
    """Schatten p-(quasi-)norm from a singular pair, vectorized."""
    if pf == math.inf:
        return s1.copy()
    s1c = np.maximum(s1, _TINY)
    return s1c * (1.0 + (s2 / s1c) ** pf) ** (1.0 / pf)


def _dual_pairing_vec(s1: np.ndarray, s2: np.ndarray, pf: float) -> np.ndarray:
    """``sup { <Z, X> : ||X||_p <= 1 }`` from the singular pair of Z.

    For p <= 1 the extreme points of the unit ball are rank one, so the
    supremum is the spectral norm; otherwise it is the dual-exponent
    norm (nuclear for p = inf).
    """
    if pf <= 1.0:
        return s1.copy()
    if pf == math.inf:
        return s1 + s2
    pstar = pf / (pf - 1.0)
    return _schatten_vec(s1, s2, pstar)


# ---------------------------------------------------------------------------
# nets
# ---------------------------------------------------------------------------


def _matrix_net(h: float, rng: np.random.Generator) -> np.ndarray:
    """Deterministic net of 2x2 matrix directions, as (K, 4) row-vecs.

    Three sheets: a rank-one grid (the extreme rays of every quasi-norm
    ball), rotated diagonal matrices covering all singular-value ratios
    and both determinant signs, and a seeded Gaussian cloud.  The ratio
    being maximized is homogeneous, so no normalization is applied.
    """
    sheets = []

    thetas = np.arange(0.0, math.pi, h)
    ca, sa = np.cos(thetas), np.sin(thetas)
    cb, sb = ca, sa
    rank_one = np.empty((thetas.size * thetas.size, 4))
    rank_one[:, 0] = np.outer(ca, cb).ravel()
    rank_one[:, 1] = np.outer(ca, sb).ravel()
    rank_one[:, 2] = np.outer(sa, cb).ravel()
    rank_one[:, 3] = np.outer(sa, sb).ravel()
    sheets.append(rank_one)

    angles = np.arange(0.0, math.pi, 2.0 * h)
    ts = np.linspace(-1.0, 1.0, int(round(1.0 / h)) + 1)
    al, be, tt = np.meshgrid(angles, angles, ts, indexing="ij")
    al, be, tt = al.ravel(), be.ravel(), tt.ravel()
    ca, sa = np.cos(al), np.sin(al)
    cb, sb = np.cos(be), np.sin(be)
    rotated = np.empty((al.size, 4))
    rotated[:, 0] = ca * cb + tt * sa * sb
    rotated[:, 1] = ca * sb - tt * sa * cb
    rotated[:, 2] = sa * cb - tt * ca * sb
    rotated[:, 3] = sa * sb + tt * ca * cb
    sheets.append(rotated)

    n_gauss = max(64, int(round(16.0 / h)))
    sheets.append(rng.standard_normal((n_gauss, 4)))

    net = np.vstack(sheets)
    keep = np.einsum("ij,ij->i", net, net) > 1e-18
    return net[keep]


def _fibonacci_sphere(k: int) -> np.ndarray:
    """Quasi-uniform (k, 3) point set on the unit 2-sphere."""
    i = np.arange(k, dtype=float) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / k
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


_COORD_DIRS = np.eye(4)
_SPLIT_DIRS = (
    np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, -1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 0.0],
        ]
    )
    / math.sqrt(2.0)
)


def _seed_directions() -> np.ndarray:
    """Canonical unit directions: coordinates, split axes, flat rank-ones."""
    flats = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5]])
    return np.vstack([_COORD_DIRS, _SPLIT_DIRS, flats])


def _orth(columns: np.ndarray) -> np.ndarray:
    """Orthonormalize a (F, 4, m) stack of frames with one stacked QR.

    Numerically rank-deficient frames (some ``|diag R| < 1e-8``) are
    dropped; the rest keep their order.
    """
    q, r = np.linalg.qr(columns)
    return q[np.abs(np.diagonal(r, axis1=-2, axis2=-1)).min(axis=-1) >= 1e-8]


def _seed_frames(m: int) -> np.ndarray:
    """Structured starting frames, (S, 4, m): coordinate and split-axis
    spans."""
    dirs = np.vstack([_COORD_DIRS, _SPLIT_DIRS])
    if m == 1:
        return dirs[:, :, None]
    if m == 2:
        pairs = [np.stack([a, b], axis=1) for a, b in itertools.combinations(dirs, 2)]
        return _orth(np.stack(pairs))
    # m == 3: the orthogonal complement of each direction
    u, _, _ = np.linalg.svd(dirs[:, :, None], full_matrices=True)
    return u[:, :, 1:4]


# ---------------------------------------------------------------------------
# inner distance solves, batched over the matrix net
# ---------------------------------------------------------------------------


class _DistanceNet:
    """Net-sup evaluator ``B -> max_i dist_q(X_i, span B) / ||X_i||_p``.

    ``scored`` counts the frames scored in full.  At ``q = 2`` the
    evaluator also has ``lower`` (:meth:`_euclid_lower`), an exact lower
    bound that reads every ``_STRIDE``-th net point.
    """

    def __init__(self, X: np.ndarray, pf: float, qf: float) -> None:
        if qf not in (1.0, 2.0, math.inf):
            raise NotImplementedError(
                "net oracle distances support q in {1, 2, inf} "
                f"for low-dimensional subspaces, got q = {qf}"
            )
        self.qf = qf
        self.scored = 0
        s1, s2 = _sing_pair(X)
        self.norm_p = np.maximum(_schatten_vec(s1, s2, pf), _TINY)
        if qf == 2.0:
            # one coordinate per row: ``b @ net`` is the fast layout of
            # the product, and a tile of net points is four contiguous runs
            self.net = np.ascontiguousarray(X.T)
            self.sq = np.einsum("ij,ij->i", X, X)
            sub = slice(None, None, _STRIDE)
            self.sub = (
                np.ascontiguousarray(self.net[:, sub]),
                self.sq[sub],
                self.norm_p[sub],
                _STRIDE_MARGIN * np.sqrt(self.sq[sub]) / self.norm_p[sub],
            )
        else:
            self.U, self.V = _split_parts(X)
            self.cu = np.einsum("ij,ij->i", self.U, self.U)
            self.cv = np.einsum("ij,ij->i", self.V, self.V)

    @property
    def lower(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """The frame screen's lower bound, or None (no screen) at q != 2.

        A property, not an attribute set in ``__init__``: a stored bound
        method would make each evaluator a reference cycle, which holds
        its net until the cyclic collector runs.
        """
        return self._euclid_lower if self.qf == 2.0 else None

    # -- frame preprocessing ------------------------------------------------

    def _frame_split(self, B: np.ndarray):
        bu, bv = map(np.array, split_2x2(*B))  # (2, m) each
        ru = bu.T @ self.U.T  # (m, K)
        rv = bv.T @ self.V.T
        return bu, bv, ru, rv

    def _phi(self, g11, g12, g22, r1, r2, c, w1, w2):
        quad = g11 * w1 * w1 + 2.0 * g12 * w1 * w2 + g22 * w2 * w2
        return np.maximum(c - 2.0 * (r1 * w1 + r2 * w2) + quad, 0.0)

    # -- per-codimension solvers ---------------------------------------------

    @staticmethod
    def _euclid_max(B, net, sq, norm_p, margin=None) -> np.ndarray:
        """Net-sup of ``dist_2(X, span B) / ||X||_p - margin`` for each
        frame of a (F, 4, m) stack, over the (4, K) ``net`` with its
        squared Frobenius norms ``sq`` and p-norms ``norm_p``.

        ``dist_2(X, span B)^2 = ||X||_2^2 - ||B^T X||^2``, on tiles of
        frames by net points of at most ``_CHUNK`` elements each; a frame
        whose projections alone outgrow that gets several tiles.  The
        projections are one matrix product per frame, of a shape fixed by
        the net and m: one product over a whole tile would let BLAS pick
        its kernel, and with it the rounding, from the tile's height, and
        a frame's value would depend on its stack.
        """
        F, _, m = B.shape
        K = net.shape[1]
        step = max(1, _CHUNK // (m * K))
        width = max(1, _CHUNK // (m * step))
        coef = B.transpose(0, 2, 1)  # (F, m, 4)
        best = np.full(F, -np.inf)
        for f in range(0, F, step):
            b = coef[f:f + step]
            for k in range(0, K, width):
                cols = slice(k, k + width)
                proj = np.matmul(b, net[:, cols])  # (F, m, K)
                np.square(proj, out=proj)
                dist = proj[:, 0]
                for j in range(1, m):
                    dist += proj[:, j]
                np.subtract(sq[cols], dist, out=dist)
                np.maximum(dist, 0.0, out=dist)
                np.sqrt(dist, out=dist)
                np.divide(dist, norm_p[cols], out=dist)
                if margin is not None:
                    np.subtract(dist, margin[cols], out=dist)
                top = best[f:f + step]
                np.maximum(top, dist.max(axis=1), out=top)
        return best

    def _euclid_lower(self, B: np.ndarray) -> np.ndarray:
        """Exact lower bound on each ``q = 2`` net-sup value of a
        (F, 4, m) stack of orthonormal frames: the sup over every
        ``_STRIDE``-th net point, each point's ratio lowered by
        ``_STRIDE_MARGIN * ||X||_2 / ||X||_p``.

        The sub-net's projections are products of another shape than the
        full net's, so they may round differently; every other operation
        is the same.  A length-4 dot product, in any order, with or
        without fused multiply-adds, lies within ``4.5e-16 ||X||_2`` of
        the exact one when ``||b|| = 1``, so the two projections of a
        point differ by at most ``9e-16 ||X||_2`` per column.  Through the
        squares, their sum, the subtraction from ``||X||_2^2``, the clip,
        the root and the division (each a rounded, monotone step), that
        moves the point's ratio by less than ``1e-7 ||X||_2 / ||X||_p``
        for ``m <= 3``: the root turns an error of about ``7e-15
        ||X||_2^2`` in the squared distance into ``9e-8 ||X||_2``.  The
        margin is ten times that.
        """
        return self._euclid_max(B, *self.sub)

    def _dist_nuclear_m1(self, bu, bv, ru, rv) -> np.ndarray:
        gu = float(bu[:, 0] @ bu[:, 0])
        gv = float(bv[:, 0] @ bv[:, 0])
        ru, rv = ru[0], rv[0]
        tu = ru / gu if gu > 1e-15 else np.zeros_like(ru)
        tv = rv / gv if gv > 1e-15 else np.zeros_like(rv)
        cands = [tu, tv]
        a = gu - gv
        b = -2.0 * (ru - rv)
        c = self.cu - self.cv
        if abs(a) > 1e-15:
            disc = b * b - 4.0 * a * c
            ok = disc > 0.0
            sd = np.sqrt(np.maximum(disc, 0.0))
            cands.append(np.where(ok, (-b + sd) / (2.0 * a), tu))
            cands.append(np.where(ok, (-b - sd) / (2.0 * a), tu))
        else:
            safe = np.abs(b) > 1e-15
            cands.append(np.where(safe, -c / np.where(safe, b, 1.0), tu))
        best = None
        for w in cands:
            fu = np.maximum(self.cu - 2.0 * ru * w + gu * w * w, 0.0)
            fv = np.maximum(self.cv - 2.0 * rv * w + gv * w * w, 0.0)
            m = np.maximum(fu, fv)
            best = m if best is None else np.minimum(best, m)
        return 2.0 * np.sqrt(best)

    def _dist_spectral_m1(self, bu, bv, ru, rv) -> np.ndarray:
        gu = float(bu[:, 0] @ bu[:, 0])
        gv = float(bv[:, 0] @ bv[:, 0])
        ru, rv = ru[0], rv[0]

        def f(w):
            fu = np.sqrt(np.maximum(self.cu - 2.0 * ru * w + gu * w * w, 0.0))
            fv = np.sqrt(np.maximum(self.cv - 2.0 * rv * w + gv * w * w, 0.0))
            return fu + fv

        tu = ru / gu if gu > 1e-15 else None
        tv = rv / gv if gv > 1e-15 else None
        if tu is None and tv is None:
            return f(np.zeros_like(ru))
        if tu is None:
            tu = tv
        if tv is None:
            tv = tu
        # the minimum of a sum of two convex branches lies between the
        # branch minimizers; golden-section on that bracket
        lo = np.minimum(tu, tv)
        hi = np.maximum(tu, tv)
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(60):
            gap = hi - lo
            c = hi - invphi * gap
            d = lo + invphi * gap
            shrink_hi = f(c) < f(d)
            hi = np.where(shrink_hi, d, hi)
            lo = np.where(shrink_hi, lo, c)
        return np.minimum(np.minimum(f(0.5 * (lo + hi)), f(tu)), f(tv))

    def _gram(self, bu, bv):
        gu = bu.T @ bu
        gv = bv.T @ bv
        return (
            float(gu[0, 0]), float(gu[0, 1]), float(gu[1, 1]),
            float(gv[0, 0]), float(gv[0, 1]), float(gv[1, 1]),
        )

    def _solve_mix(self, g, t, ru, rv):
        """Cramer solve of ``((1-t) Gu + t Gv) w = (1-t) ru + t rv``."""
        gu11, gu12, gu22, gv11, gv12, gv22 = g
        s = 1.0 - t
        a11 = s * gu11 + t * gv11
        a12 = s * gu12 + t * gv12
        a22 = s * gu22 + t * gv22
        ridge = 1e-12 * (a11 + a22) + _TINY
        a11 = a11 + ridge
        a22 = a22 + ridge
        h1 = s * ru[0] + t * rv[0]
        h2 = s * ru[1] + t * rv[1]
        det = a11 * a22 - a12 * a12
        det = np.where(np.abs(det) > _TINY, det, _TINY)
        return (a22 * h1 - a12 * h2) / det, (a11 * h2 - a12 * h1) / det

    def _dist_nuclear_m2(self, bu, bv, ru, rv) -> np.ndarray:
        g = self._gram(bu, bv)
        gu11, gu12, gu22, gv11, gv12, gv22 = g

        def both(w1, w2):
            fu = self._phi(gu11, gu12, gu22, ru[0], ru[1], self.cu, w1, w2)
            fv = self._phi(gv11, gv12, gv22, rv[0], rv[1], self.cv, w1, w2)
            return fu, fv

        zeros = np.zeros(ru.shape[1])
        best = None
        for t_end in (zeros, zeros + 1.0):
            w1, w2 = self._solve_mix(g, t_end, ru, rv)
            fu, fv = both(w1, w2)
            m = np.maximum(fu, fv)
            best = m if best is None else np.minimum(best, m)
        # the weighted combination (1-t) phi_u + t phi_v has an inner
        # minimizer whose gap phi_u - phi_v increases in t: bisect for the
        # saddle where the two branches meet
        lo = zeros.copy()
        hi = zeros + 1.0
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            w1, w2 = self._solve_mix(g, mid, ru, rv)
            fu, fv = both(w1, w2)
            gap = fu - fv
            hi = np.where(gap > 0.0, mid, hi)
            lo = np.where(gap > 0.0, lo, mid)
        w1, w2 = self._solve_mix(g, 0.5 * (lo + hi), ru, rv)
        fu, fv = both(w1, w2)
        best = np.minimum(best, np.maximum(fu, fv))
        return 2.0 * np.sqrt(best)

    def _dist_spectral_m2(self, bu, bv, ru, rv) -> np.ndarray:
        g = self._gram(bu, bv)
        gu11, gu12, gu22, gv11, gv12, gv22 = g
        zeros = np.zeros(ru.shape[1])

        def branches(w1, w2):
            fu = self._phi(gu11, gu12, gu22, ru[0], ru[1], self.cu, w1, w2)
            fv = self._phi(gv11, gv12, gv22, rv[0], rv[1], self.cv, w1, w2)
            return np.sqrt(fu), np.sqrt(fv)

        # Frobenius coefficients start, then Weiszfeld on f_u + f_v
        w1, w2 = self._solve_mix(g, zeros + 0.5, ru, rv)
        for _ in range(60):
            fu, fv = branches(w1, w2)
            fu = np.maximum(fu, 1e-15)
            fv = np.maximum(fv, 1e-15)
            a11 = gu11 / fu + gv11 / fv
            a12 = gu12 / fu + gv12 / fv
            a22 = gu22 / fu + gv22 / fv
            ridge = 1e-12 * (a11 + a22) + _TINY
            a11 = a11 + ridge
            a22 = a22 + ridge
            h1 = ru[0] / fu + rv[0] / fv
            h2 = ru[1] / fu + rv[1] / fv
            det = a11 * a22 - a12 * a12
            det = np.where(np.abs(det) > _TINY, det, _TINY)
            w1 = (a22 * h1 - a12 * h2) / det
            w2 = (a11 * h2 - a12 * h1) / det
        fu, fv = branches(w1, w2)
        best = fu + fv
        # Weiszfeld can stall at a branch vertex: compare with each
        # branch's own least-squares minimizer
        for t_end in (zeros, zeros + 1.0):
            w1, w2 = self._solve_mix(g, t_end, ru, rv)
            fu, fv = branches(w1, w2)
            best = np.minimum(best, fu + fv)
        return best

    # -- public ---------------------------------------------------------------

    def __call__(self, B: np.ndarray) -> np.ndarray:
        """Net-sup value of each frame of a (F, 4, m) stack, shape (F,)."""
        self.scored += B.shape[0]
        if self.qf == 2.0:
            return self._euclid_max(B, self.net, self.sq, self.norm_p)
        m = B.shape[2]
        if m > 2:  # pragma: no cover - codim-1 handled by the exact path
            raise NotImplementedError("frame solver supports m <= 2")
        if self.qf == 1.0:
            solve = self._dist_nuclear_m1 if m == 1 else self._dist_nuclear_m2
        else:
            solve = self._dist_spectral_m1 if m == 1 else self._dist_spectral_m2
        # one frame at a time: each solve makes 48-60 passes over the
        # whole net per frame, which a stack would not cut
        return np.array(
            [np.max(solve(*self._frame_split(b)) / self.norm_p) for b in B], dtype=float
        )


class _RestrictionNet:
    """Net-sup evaluator ``B -> max ||X||_q / ||X||_p over X in span B``.

    The coefficient net is augmented with the subspace's exact rank-one
    members: quasi-norm ratios have cusp maxima on the rank-one variety
    that a finite smooth net systematically undershoots.  The ratio over
    those members alone is :meth:`lower`.  ``scored`` counts the frames
    scored in full.
    """

    def __init__(self, dim: int, pf: float, qf: float, h: float) -> None:
        self.pf, self.qf, self.dim = pf, qf, dim
        self.scored = 0
        if dim == 2:
            angles = np.arange(0.0, math.pi, h)
            self.W = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        elif dim == 3:
            self.W = _fibonacci_sphere(max(400, int(round(4.0 / (h * h)))))
        else:
            raise ValueError(f"restriction net expects dim in {{2, 3}}, got {dim}")
        self.thetas = np.arange(0.0, math.pi, h)

    def _rank_ones_3(self, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rank-one members of hyperplanes given by their (F, 4) unit
        normals: (F, R, 4) rows and an (F, R) mask of the rows that exist."""
        z = normals[:, :, None]
        a1, a2 = np.cos(self.thetas), np.sin(self.thetas)
        # rows a with  a^T Z b = 0  pair with  b ⟂ Z^T a
        c1 = z[:, 0] * a1 + z[:, 2] * a2
        c2 = z[:, 1] * a1 + z[:, 3] * a2
        nc = np.hypot(c1, c2)
        keep = nc > 1e-12
        nc = np.where(keep, nc, 1.0)
        b1, b2 = -c2 / nc, c1 / nc
        return np.stack([a1 * b1, a1 * b2, a2 * b1, a2 * b2], axis=-1), keep

    def _rank_ones_2(self, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rank-one members of the planes spanned by a (F, 4, 2) stack:
        (F, 2, 4) rows and an (F, 2) mask of the rows that exist."""
        # solve det(w1 A + w2 C) = 0 for the coefficient ray
        A, C = B[:, :, 0], B[:, :, 1]
        det_a = A[:, 0] * A[:, 3] - A[:, 1] * A[:, 2]
        det_c = C[:, 0] * C[:, 3] - C[:, 1] * C[:, 2]
        mix = A[:, 0] * C[:, 3] + C[:, 0] * A[:, 3] - A[:, 1] * C[:, 2] - C[:, 1] * A[:, 2]
        # |det_c| small: the ray (0, 1), and (1, -det_a / mix) unless mix
        # vanishes too; otherwise the two real roots (1, w2), if any
        flat = np.abs(det_c) < 1e-14
        linear = np.abs(mix) > 1e-14
        disc = mix * mix - 4.0 * det_a * det_c
        sd = np.sqrt(np.maximum(disc, 0.0))
        den = np.where(flat, 1.0, 2.0 * det_c)
        w1 = np.stack([np.where(flat, 0.0, 1.0), np.ones_like(mix)], axis=1)
        w2 = np.stack(
            [
                np.where(flat, 1.0, (-mix + sd) / den),
                np.where(flat, -det_a / np.where(linear, mix, 1.0), (-mix - sd) / den),
            ],
            axis=1,
        )
        keep = np.stack([flat | (disc >= 0.0), np.where(flat, linear, disc >= 0.0)], axis=1)
        return w1[..., None] * A[:, None] + w2[..., None] * C[:, None], keep

    def lower(self, B: np.ndarray) -> np.ndarray:
        """Max ratio over the rank-one members of each frame of a
        (F, 4, dim) stack, shape (F,); ``-inf`` for a frame without any.

        This is the rank-one part of :meth:`__call__`, computed the same
        way, so it never exceeds a frame's value.
        """
        if self.dim == 3:
            normals = np.linalg.svd(B, full_matrices=True)[0][:, :, 3]
        best = np.empty(B.shape[0])
        step = max(1, _CHUNK // (4 * self.thetas.size))
        for f in range(0, B.shape[0], step):
            tile = slice(f, f + step)
            if self.dim == 3:
                extra, keep = self._rank_ones_3(normals[tile])
            else:
                extra, keep = self._rank_ones_2(B[tile])
            cusp = np.where(keep, _ratio_vec(extra, self.pf, self.qf), -np.inf)
            best[tile] = cusp.max(axis=1)
        return best

    def __call__(self, B: np.ndarray) -> np.ndarray:
        """Net-sup value of each frame of a (F, 4, dim) stack, shape (F,)."""
        self.scored += B.shape[0]
        best = self.lower(B)
        step = max(1, _CHUNK // (4 * self.W.shape[0]))
        for f in range(0, B.shape[0], step):
            tile = best[f:f + step]
            # ``W @ B^T`` as one product per frame, (F, K, 4)
            X = np.matmul(self.W, B[f:f + step].transpose(0, 2, 1))
            np.maximum(_ratio_vec(X, self.pf, self.qf).max(axis=1), tile, out=tile)
        return best


# ---------------------------------------------------------------------------
# outer searches
# ---------------------------------------------------------------------------


def _direction_search(
    value_fn: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    h: float,
) -> tuple[float, np.ndarray, int]:
    """Minimize an exactly evaluable function over unit vectors in R^4."""

    def normalize(Z: np.ndarray) -> np.ndarray:
        norms = np.sqrt(np.einsum("ij,ij->i", Z, Z))
        keep = norms > 1e-12
        return Z[keep] / norms[keep, None]

    n0 = max(4000, int(round(1.5 / h**3)))
    Z = np.vstack([_seed_directions(), normalize(rng.standard_normal((n0, 4)))])
    vals = value_fn(Z)
    evaluated = Z.shape[0]
    order = np.argsort(vals)
    best_val = float(vals[order[0]])
    best_z = Z[order[0]].copy()
    top = Z[order[:16]]
    for tau in (4.0 * h, 1.6 * h, 0.6 * h, 0.2 * h, 0.07 * h):
        cloud = top[:, None, :] + tau * rng.standard_normal((top.shape[0], 1024, 4))
        Z = normalize(np.vstack([cloud.reshape(-1, 4), top]))
        vals = value_fn(Z)
        evaluated += Z.shape[0]
        order = np.argsort(vals)
        if float(vals[order[0]]) < best_val:
            best_val = float(vals[order[0]])
            best_z = Z[order[0]].copy()
        top = Z[order[:16]]
    return best_val, best_z, evaluated


def _frame_search(
    evaluate: Callable[[np.ndarray], np.ndarray],
    m: int,
    rng: np.random.Generator,
    h: float,
) -> tuple[float, np.ndarray, int]:
    """Minimize a frame functional over the Grassmannian of m-planes.

    ``evaluate`` scores a (F, 4, m) stack of orthonormal frames, shape
    (F,).  The seed frames are scored as one stack, then the random start
    frames, then in each zoom round the perturbations of the three best
    frames so far; ties go to the frame seen first.

    Only the three best frames are kept.  If ``evaluate`` has a
    ``lower`` callable (a stack to lower bounds on its values; None means
    no screen), every batch after the seeds is screened with it, and only the frames whose bound
    lies below the largest value of the top three are scored in full.  A
    frame at or above that bar cannot enter the top three: the three
    frames in it were seen earlier and are no larger, and ties go to them.
    So the result is that of scoring every frame.  Returns the best
    value, its frame and the number of frames considered, screened ones
    included.
    """
    lower = getattr(evaluate, "lower", None)
    # the pool: the three best frames so far, their values and their
    # first-seen indices
    frames, values, seen = np.empty((0, 4, m)), np.empty(0), np.empty(0, dtype=int)
    n_frames = 0

    def absorb(fresh: np.ndarray) -> None:
        nonlocal frames, values, seen, n_frames
        ids = n_frames + np.arange(fresh.shape[0])
        n_frames += fresh.shape[0]
        if lower is not None and values.size == 3:
            live = ~(lower(fresh) >= values.max())  # a NaN bound is scored
            fresh, ids = fresh[live], ids[live]
        if fresh.shape[0]:
            frames = np.concatenate([frames, fresh])
            values = np.concatenate([values, evaluate(fresh)])
            seen = np.concatenate([seen, ids])
        top = np.lexsort((seen, values))[:3]
        frames, values, seen = frames[top], values[top], seen[top]

    absorb(_seed_frames(m))  # an empty pool has no bar: all scored
    need = max(96, int(round((10.0 if m == 1 else 16.0) / h)))
    starts = _orth(rng.standard_normal((need, 4, m)))
    while starts.shape[0] < need:
        more = _orth(rng.standard_normal((need - starts.shape[0], 4, m)))
        starts = np.concatenate([starts, more])
    absorb(starts)
    n_zoom = max(24, int(round(1.6 / h)))
    for tau in (0.6, 0.25, 0.1, 0.04, 0.016):
        noise = rng.standard_normal((frames.shape[0], n_zoom, 4, m))
        absorb(_orth((frames[:, None] + tau * noise).reshape(-1, 4, m)))
    return float(values[0]), frames[0], n_frames


# ---------------------------------------------------------------------------
# oracle paths
# ---------------------------------------------------------------------------


def _norm_path(pf: float, qf: float, h: float, rng) -> tuple[float, int, dict]:
    X = _matrix_net(h, rng)
    return float(np.max(_ratio_vec(X, pf, qf))), 0, {"net_points": int(X.shape[0])}


def _kolmogorov_path(pf: float, qf: float, n: int, h: float, rng):
    m = n - 1
    if m == 0:
        return _norm_path(pf, qf, h, rng)
    if m == 3:
        def value_fn(Z: np.ndarray) -> np.ndarray:
            s1, s2 = _sing_pair(Z)
            return _dual_pairing_vec(s1, s2, pf) / _dual_pairing_vec(s1, s2, qf)

        val, _, evaluated = _direction_search(value_fn, rng, h)
        return val, evaluated, {"net_points": evaluated, "exact_inner": True}
    evaluator = _DistanceNet(_matrix_net(h, rng), pf, qf)
    val, _, frames = _frame_search(evaluator, m, rng, h)
    detail = {"net_points": int(evaluator.norm_p.size), "frames_scored": evaluator.scored}
    return val, frames, detail


def _gelfand_path(pf: float, qf: float, n: int, h: float, rng):
    dim = 4 - (n - 1)
    if dim == 4:
        return _norm_path(pf, qf, h, rng)
    if dim == 1:
        val, _, evaluated = _direction_search(lambda Z: _ratio_vec(Z, pf, qf), rng, h)
        return val, evaluated, {"net_points": evaluated, "exact_inner": True}
    evaluator = _RestrictionNet(dim, pf, qf, h)
    val, _, frames = _frame_search(evaluator, dim, rng, h)
    detail = {"net_points": int(evaluator.W.shape[0]), "frames_scored": evaluator.scored}
    return val, frames, detail


def net_oracle(
    spec: EmbeddingSpec,
    snumber_kind: str = "kolmogorov",
    *,
    h: float = 0.05,
    seed: int = DEFAULT_ORACLE_SEED,
) -> Estimate:
    """Net-search reference value for an s-number at ``N = 2``.

    Parameters
    ----------
    spec:
        Embedding with ``N = 2`` and the index ``n`` set.
    snumber_kind:
        ``"kolmogorov"``, ``"gelfand"``, or ``"approximation"`` (also
        spelled ``"approx"``).  Approximation numbers are served through
        their exact coincidences with the width scales (Frobenius domain
        -> Gelfand, Frobenius codomain -> Kolmogorov) and refused
        otherwise.
    h:
        Net resolution in (0, 0.25]; grids step by ``h`` and the
        recorded error bar scales linearly with it.
    seed:
        Seed for the sampled portions of the nets; the default is fixed
        so reference values are reproducible.

    Returns
    -------
    Estimate
        ``method="net-oracle"`` with ``detail`` carrying ``h``, the
        heuristic ``error_bar = 2 * max(1, norm) * h``, the path that
        ran, and net sizes.  ``restarts`` counts the frames (or
        directions) the search considered, and ``detail["frames_scored"]``
        those it scored in full; the rest were screened out by a lower
        bound (see :func:`_frame_search`).
    """
    if spec.N != 2:
        raise ValueError("net oracle is restricted to N = 2 (cost guard)")
    n = spec.require_index()
    if not 0.0 < h <= 0.25:
        raise ValueError(f"net resolution h must lie in (0, 0.25], got {h}")
    if snumber_kind not in ("approx", "approximation", "gelfand", "kolmogorov"):
        raise ValueError(f"unknown s-number kind {snumber_kind!r}")
    pf = float(spec.p)
    qf = float(spec.q)
    path = snumber_kind
    if snumber_kind in ("approx", "approximation"):
        if pf == 2.0:
            path = "gelfand"
        elif qf == 2.0:
            path = "kolmogorov"
        else:
            raise NotImplementedError(
                "net oracle serves approximation numbers only when one side "
                "is the Frobenius class (p = 2 or q = 2)"
            )
    rng = np.random.default_rng(seed)
    if path == "kolmogorov":
        value, frames, extra = _kolmogorov_path(pf, qf, n, h, rng)
    else:
        value, frames, extra = _gelfand_path(pf, qf, n, h, rng)
    error_bar = 2.0 * max(1.0, embedding_norm(spec.p, spec.q, spec.N)) * h
    detail = {"h": h, "error_bar": error_bar, "path": path}
    detail.update(extra)
    detail.setdefault("frames_scored", frames)  # no screen on this path
    return Estimate(
        value=value,
        snumber_kind=snumber_kind,
        method="net-oracle",
        spec=spec,
        restarts=frames,
        seed=seed,
        converged=True,
        detail=detail,
    )

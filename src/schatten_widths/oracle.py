"""Brute-force net reference values for s-numbers at N = 2.

This is the calibration counterpart to :mod:`.estimators`: instead of
gradient ascent and adaptive subspace perturbation it evaluates large
deterministic nets and refines by zooming, so the systematic errors of
the two paths are unrelated.  Everything is expressed in the
rotation/reflection split coordinates of 2x2 matrices, so every ratio is
scalar algebra that vectorizes over the whole net.

Every s-number is served by one search, the Gelfand restriction net:
minimize over subspace frames the sup of ``||X||_b / ||X||_a`` over a net
inside the subspace.

* Gelfand numbers run it at ``(a, b) = (p, q)``.
* Kolmogorov numbers with ``q >= 1`` run it at the dual pair
  ``(q*, max(p, 1)*)`` of :func:`.estimators._width_pair`, where the
  estimators run their search: the quotient norm of ``S_q / F`` is dual
  to the ``S_{q*}`` norm on the annihilator of ``F`` (Hahn-Banach), and
  the ``S_p`` ball's convex hull is the ``S_1`` ball for ``p < 1``.  The
  first Kolmogorov number is the norm of ``S_p -> S_q``; the others are
  refused at ``q < 1``.
* Approximation numbers reduce to one of the above when either side is
  the Frobenius class; other exponent pairs are refused.

The whole space (``n = 1``) is the norm's matrix net; every subspace of
dimension 1, 2 or 3 is searched by the frame search.  The nets of planes
and hyperplanes are augmented with members known exactly: every rank-one
member (without them the net-sup misses the cusp maxima of quasi-norm
ratios), and, for a hyperplane, its two flat-spectrum members, where it
meets span{I, J} (multiples of rotations) and the plane of multiples of
reflections.  A hyperplane meets each of those planes, and a flat
spectrum's ratio is the norm for ``a > b``: the Hurwitz-Radon argument of
:func:`.estimators._closed_form`.  A line's only members are the multiples
of its direction, so its value is exact; the last index ``n = 4`` reads
``min(1, 2^(1/b - 1/a))`` (:func:`.core.last_snumber`) at a seed frame, a
matrix unit for ``a > b`` or a split axis (flat spectrum) for ``a <= b``.

The frame search considers the structured seed frames, the random start
frames, then in each of five zoom rounds the perturbations of the three
best frames so far.  Only the three best frames ever matter, and a
frame's net-sup is at least the ratio of any of its members, so most
frames are screened out by the exact members' ratios (the evaluator's
``lower`` bound) and never scored in full.  Values, frames and frame
counts are those of scoring one frame at a time; :func:`_frame_search`
gives the argument and the order in which the frames are screened.

A hyperplane's screen runs in two exact tiers.  The first rates three of
its exact members: the two flat-spectrum ones and the rank-one member at
the first grid angle.  Most frames already reach the bar there; only the
rest are swept over every rank-one member.  The first tier is a max over
some of the same members, computed with the same elementwise arithmetic,
and a max is exact, so a frame is screened out exactly when its full bound
reaches the bar.  A NaN bound is scored; a member's ratio is NaN only for
a frame with a non-finite entry, and then every flat member's ratio is
NaN too, so such a frame always reaches the sweep.  A hyperplane's normal
is the generalized cross product of its frame's three columns, in closed
form.

The restriction net, and its bound, work through a stack in tiles whose
temporaries hold at most ``_CHUNK`` = 2**15 float64 elements (256 KB,
a share of a core's L2 cache); larger tiles were slower and raised the
peak memory.  Each tile is computed with whole-tile array operations,
with the matrix products run frame by frame, so that a frame's value
does not depend on its stack.

Values carry an ``O(h)`` error bar and are deterministic given the seed.
The cost guard refuses ``N > 2``.

At ``N = 2`` the estimators answer every spec they accept from an exact
anchor of :func:`.estimators._closed_form` and never search, so the
frozen calibration battery cross-checks those anchors: two independent
derivations, the anchors' proofs and this net, of the same values.  The
width search itself is graded against the net by calling
``estimators._width_search``, past the anchors.
"""
from __future__ import annotations

import itertools
import json
import math
from importlib import resources

import numpy as np

from .core import EmbeddingSpec, embedding_norm, split_2x2
from .estimators import Estimate, _width_pair

__all__ = ["net_oracle", "load_frozen_battery", "DEFAULT_ORACLE_SEED"]

#: Default seed for the oracle's sampling; fixed so frozen reference
#: values can be reproduced bit-for-bit.
DEFAULT_ORACLE_SEED = 20240801

_TINY = 1e-300

#: Bound, in float64 elements (256 KB), on each temporary of a stacked
#: frame evaluation, so that a tile of work stays in a core's L2 cache.
_CHUNK = 1 << 15


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


def _qr_frames(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize a (..., 4, m) stack of frames with one stacked QR:
    the orthonormal factors, same shape, and the (...) mask of the frames
    kept, those not numerically rank-deficient (every ``|diag R| >= 1e-8``).
    """
    q, r = np.linalg.qr(columns)
    return q, np.abs(np.diagonal(r, axis1=-2, axis2=-1)).min(axis=-1) >= 1e-8


def _orth(columns: np.ndarray) -> np.ndarray:
    """Orthonormalize a (F, 4, m) stack of frames with one stacked QR.

    Numerically rank-deficient frames are dropped; the rest keep their
    order.
    """
    q, keep = _qr_frames(columns)
    return q[keep]


def _seed_frames(m: int) -> np.ndarray:
    """Structured starting frames, (S, 4, m) for m in {1, 2, 3}: coordinate
    and split-axis spans."""
    dirs = np.vstack([_COORD_DIRS, _SPLIT_DIRS])
    if m == 1:
        return _orth(dirs[:, :, None])
    if m == 2:
        pairs = [np.stack([a, b], axis=1) for a, b in itertools.combinations(dirs, 2)]
        return _orth(np.stack(pairs))
    # m == 3: the orthogonal complement of each direction
    u, _, _ = np.linalg.svd(dirs[:, :, None], full_matrices=True)
    return u[:, :, 1:4]


def _normals(B: np.ndarray) -> np.ndarray:
    """Unit normals, (F, 4), of the hyperplanes spanned by a (F, 4, 3)
    stack of orthonormal frames.

    The generalized cross product of the three columns: entry ``i`` is
    ``(-1)^i`` times the 3x3 minor without row ``i``, so its inner product
    with any column is a determinant with a repeated column, zero.  Its
    length is the frame's volume, 1 up to rounding, and it is divided out.
    """
    u, v, w = np.moveaxis(B, 2, 0)
    minor = {(j, k): v[:, j] * w[:, k] - v[:, k] * w[:, j]
             for j, k in itertools.combinations(range(4), 2)}
    n = np.stack([
        u[:, 1] * minor[2, 3] - u[:, 2] * minor[1, 3] + u[:, 3] * minor[1, 2],
        -(u[:, 0] * minor[2, 3] - u[:, 2] * minor[0, 3] + u[:, 3] * minor[0, 2]),
        u[:, 0] * minor[1, 3] - u[:, 1] * minor[0, 3] + u[:, 3] * minor[0, 1],
        -(u[:, 0] * minor[1, 2] - u[:, 1] * minor[0, 2] + u[:, 2] * minor[0, 1]),
    ], axis=1)
    return n / np.linalg.norm(n, axis=1, keepdims=True)


class _RestrictionNet:
    """Net-sup evaluator ``B -> max ||X||_q / ||X||_p over X in span B``.

    The coefficient net is augmented with members known exactly: the
    subspace's rank-one members, since quasi-norm ratios have cusp maxima
    on the rank-one variety that a finite smooth net systematically
    undershoots, and a hyperplane's two flat-spectrum members, whose ratio
    is the norm for ``p > q``.  The ratio over those members alone is
    :meth:`lower`.  A line's members are the multiples of its direction,
    so at ``dim = 1`` :meth:`lower` is the exact value and the coefficient
    net is the one point 1.  ``scored`` counts the frames scored in full.
    """

    def __init__(self, dim: int, pf: float, qf: float, h: float) -> None:
        self.pf, self.qf, self.dim = pf, qf, dim
        self.scored = 0
        if dim == 1:
            self.W = np.ones((1, 1))
        elif dim == 2:
            angles = np.arange(0.0, math.pi, h)
            self.W = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        elif dim == 3:
            self.W = _fibonacci_sphere(max(400, int(round(4.0 / (h * h)))))
        else:
            raise ValueError(f"restriction net expects dim in {{1, 2, 3}}, got {dim}")
        self.thetas = np.arange(0.0, math.pi, h)

    @staticmethod
    def _rank_ones_3(normals: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rank-one members of hyperplanes given by their (F, 4) unit
        normals, one per row direction at an angle of ``thetas``: (F, R, 4)
        rows and an (F, R) mask of the rows that exist."""
        z = normals[:, :, None]
        a1, a2 = np.cos(thetas), np.sin(thetas)
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
        # a NaN discriminant keeps its roots, so a frame with a NaN entry reads NaN
        real = ~(disc < 0.0)
        keep = np.stack([flat | real, np.where(flat, linear, real)], axis=1)
        return w1[..., None] * A[:, None] + w2[..., None] * C[:, None], keep

    def _flat_ratios_3(self, normals: np.ndarray) -> np.ndarray:
        """Max ratio over the flat-spectrum members of hyperplanes given by
        their (F, 4) unit normals, shape (F,).

        Each hyperplane meets span{I, J} (multiples of rotations) and the
        plane of multiples of reflections: with ``c`` the normal's
        coordinates in a plane's orthonormal axes ``e1, e2``, the member is
        ``c2 e1 - c1 e2``, or ``e1`` if the hyperplane holds the plane.
        """
        e1, e2 = _SPLIT_DIRS[0::2], _SPLIT_DIRS[1::2]  # (plane, 4) each
        # elementwise, so that a frame's value does not depend on its stack
        c1 = (normals[:, :, None] * e1.T).sum(axis=1)  # (F, plane)
        c2 = (normals[:, :, None] * e2.T).sum(axis=1)
        member = c2[..., None] * e1 - c1[..., None] * e2  # (F, plane, 4)
        held = (c1 == 0.0) & (c2 == 0.0)
        member[held] = np.broadcast_to(e1, member.shape)[held]
        return _ratio_vec(member, self.pf, self.qf).max(axis=1)

    def lower(self, B: np.ndarray, bar: float | None = None) -> np.ndarray:
        """Max ratio over the exactly known members of each frame of a
        (F, 4, dim) stack, shape (F,): the rank-one members, at ``dim = 3``
        also the flat-spectrum ones, and at ``dim = 1`` the direction;
        ``-inf`` for a plane without a rank-one member, and NaN for a frame
        with a NaN entry, as its value is.

        This is the exact part of :meth:`__call__`, computed the same way,
        so it never exceeds a frame's value.

        At ``dim = 3`` it runs in two tiers.  The first rates the two flat
        members and the rank-one member at the first grid angle; only the
        frames whose first-tier bound is below ``bar``, or NaN, go on to
        the sweep of every rank-one member.  A frame stopped early keeps
        its first-tier bound, which is at or above ``bar``.  That bound is
        the max over some of the same members, with the same elementwise
        arithmetic, so ``lower(B, bar) >= bar`` exactly where
        ``lower(B) >= bar``.  A member's ratio is NaN only if the frame
        has a non-finite entry, and then its normal has a NaN entry and so
        has each flat member: the first tier is NaN and sends the frame
        on.  Without ``bar`` every frame is swept.
        """
        if self.dim == 1:
            return _ratio_vec(B[:, :, 0], self.pf, self.qf)
        if self.dim == 2:
            return self._raise_to_cusps(np.full(B.shape[0], -np.inf), B)
        normals = _normals(B)
        best = self._raise_to_cusps(self._flat_ratios_3(normals), normals, self.thetas[:1])
        sweep = slice(None) if bar is None else ~(best >= bar)
        best[sweep] = self._raise_to_cusps(best[sweep], normals[sweep], self.thetas)
        return best

    def _raise_to_cusps(self, best: np.ndarray, frames: np.ndarray,
                        thetas: np.ndarray | None = None) -> np.ndarray:
        """Raise ``best`` in place to the max ratio over each frame's
        rank-one members, tile by tile, and return it.  ``frames`` is a
        (F, 4, 2) stack of planes, or with ``thetas`` the (F, 4) unit
        normals of hyperplanes, whose members are listed at the row
        directions of those angles."""
        step = max(1, _CHUNK // (4 * (2 if thetas is None else thetas.size)))
        for f in range(0, best.shape[0], step):
            tile = best[f:f + step]
            if thetas is None:
                extra, keep = self._rank_ones_2(frames[f:f + step])
            else:
                extra, keep = self._rank_ones_3(frames[f:f + step], thetas)
            cusp = np.where(keep, _ratio_vec(extra, self.pf, self.qf), -np.inf)
            np.maximum(cusp.max(axis=1), tile, out=tile)
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


class _TopThree:
    """The pool of :func:`_frame_search`: the three best frames considered
    so far, their values and their first-seen indices (ties go to the
    frame seen first), and the number of frames considered.  A full pool
    screens each stack at its bar; see :func:`_frame_search`."""

    def __init__(self, evaluate: _RestrictionNet, m: int) -> None:
        self.evaluate = evaluate
        self.frames, self.values = np.empty((0, 4, m)), np.empty(0)
        self.seen = np.empty(0, dtype=int)
        self.considered = 0

    def absorb(self, fresh: np.ndarray) -> bool:
        """:meth:`take` a (F, 4, m) stack of frames, through :meth:`screen`
        once the pool holds three frames."""
        return self.take(fresh, self.screen(fresh) if self.values.size == 3 else None)

    def screen(self, fresh: np.ndarray) -> np.ndarray:
        """The (F,) mask of the frames of a (F, 4, m) stack that a full
        pool must score: those whose bound lies below the bar, the largest
        value in the pool, or is NaN."""
        bar = self.values.max()
        return ~(self.evaluate.lower(fresh, bar) >= bar)

    def take(self, fresh: np.ndarray, live: np.ndarray | None = None) -> bool:
        """Consider a (F, 4, m) stack of frames, scoring in full those of
        the (F,) mask ``live`` (all of them without it), and keep the three
        best frames.  Returns whether any frame was scored."""
        ids = self.considered + np.arange(fresh.shape[0])
        self.considered += fresh.shape[0]
        if live is not None:
            fresh, ids = fresh[live], ids[live]
        frames, values, seen = self.frames, self.values, self.seen
        if fresh.shape[0]:
            frames = np.concatenate([frames, fresh])
            values = np.concatenate([values, self.evaluate(fresh)])
            seen = np.concatenate([seen, ids])
        top = np.lexsort((seen, values))[:3]
        self.frames, self.values, self.seen = frames[top], values[top], seen[top]
        return fresh.shape[0] > 0


#: Perturbation scales of the zoom rounds of :func:`_frame_search`.
_ZOOM_TAUS = np.array([0.6, 0.25, 0.1, 0.04, 0.016])


def _frame_search(
    evaluate: _RestrictionNet,
    m: int,
    rng: np.random.Generator,
    h: float,
) -> tuple[float, np.ndarray, int]:
    """Minimize a frame functional over the Grassmannian of m-planes,
    m in {1, 2, 3}.

    ``evaluate`` scores a (F, 4, m) stack of orthonormal frames, shape
    (F,).  The frames considered are the seed frames, the random start
    frames, then in each zoom round the perturbations of the three best
    frames so far; ties go to the frame seen first.

    Only the three best frames are kept.  ``evaluate.lower(B, bar)`` maps
    a stack to lower bounds on its values.  The first three seeds are
    scored in full; every later frame is screened with ``lower`` at the
    bar of the largest value of the top three, and only the frames whose
    bound lies below the bar, or is NaN, are scored in full.  A frame at
    or above the bar cannot enter the top three: the three frames in it
    were seen earlier and are no larger, and ties go to them.  The bar
    only falls, so a stack screened at the bar it meets scores every
    frame that could enter.  ``lower`` may stop at a partial bound once
    it reaches the bar (its first tier), and decides ``bound >= bar``
    exactly as the full bound does.  The other seeds are screened as one
    stack, then the starts.

    The noise of all five zoom rounds is drawn at once, the same stream
    as one draw per round.  While the last stack scored no frame, the
    remaining rounds are built around the current pool and screened as
    one stack at one bar: the rounds before the first that holds a frame
    below the bar change nothing, so they are only counted; that round's
    frames below the bar are scored, and the rounds after it are built
    again around the updated pool.  After a stack that scored, the next
    round is built and screened alone, since its successor is then
    likely to score too and would be built again.  So the result is that
    of scoring every frame, one round at a time.  Returns the best
    value, its frame and the number of frames considered, screened ones
    included.
    """
    pool = _TopThree(evaluate, m)
    seeds = _seed_frames(m)
    pool.absorb(seeds[:3])  # an empty pool has no bar: all scored
    pool.absorb(seeds[3:])
    need = max(96, int(round(16.0 / h)))
    starts = _orth(rng.standard_normal((need, 4, m)))
    while starts.shape[0] < need:
        more = _orth(rng.standard_normal((need - starts.shape[0], 4, m)))
        starts = np.concatenate([starts, more])
    scored = pool.absorb(starts)
    n_zoom = max(24, int(round(1.6 / h)))
    shape = (_ZOOM_TAUS.size, pool.frames.shape[0], n_zoom, 4, m)
    steps = _ZOOM_TAUS[:, None, None, None, None] * rng.standard_normal(shape)
    r = 0
    while r < _ZOOM_TAUS.size:
        stop = r + 1 if scored else _ZOOM_TAUS.size
        columns = (pool.frames[:, None] + steps[r:stop]).reshape(stop - r, -1, 4, m)
        q, keep = _qr_frames(columns)
        frames, rounds = q[keep], r + np.nonzero(keep)[0]
        live = pool.screen(frames)
        last = rounds[live.argmax()] if live.any() else stop - 1
        upto = rounds <= last
        scored = pool.take(frames[upto], live[upto])
        r = last + 1
    return float(pool.values[0]), pool.frames[0], pool.considered


# ---------------------------------------------------------------------------
# oracle paths
# ---------------------------------------------------------------------------


def _norm_path(pf: float, qf: float, h: float, rng) -> tuple[float, int, dict]:
    X = _matrix_net(h, rng)
    value = float(np.max(_ratio_vec(X, pf, qf)))
    return value, 0, {"net_points": int(X.shape[0]), "frames_scored": 0}


def _gelfand_path(pf: float, qf: float, n: int, h: float, rng):
    dim = 4 - (n - 1)
    if dim == 4:
        return _norm_path(pf, qf, h, rng)
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
        spelled ``"approx"``).  Kolmogorov numbers are searched as the
        Gelfand numbers of their dual pair, and refused at ``q < 1``
        beyond ``n = 1``.  Approximation numbers are served through their
        exact coincidences with the width scales (Frobenius domain ->
        Gelfand, Frobenius codomain -> Kolmogorov) and refused otherwise.
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
        ran, the ``pair`` whose ratio it searched, and net sizes.
        ``restarts`` counts the frames the search considered (none on
        the norm path, ``n = 1``), and ``detail["frames_scored"]`` those it scored in
        full; the rest were screened out by a lower bound (see
        :func:`_frame_search`).
    """
    if spec.N != 2:
        raise ValueError("net oracle is restricted to N = 2 (cost guard)")
    n = spec.require_index()
    if not 0.0 < h <= 0.25:
        raise ValueError(f"net resolution h must lie in (0, 0.25], got {h}")
    if snumber_kind not in ("approx", "approximation", "gelfand", "kolmogorov"):
        raise ValueError(f"unknown s-number kind {snumber_kind!r}")
    path = snumber_kind
    if snumber_kind in ("approx", "approximation"):
        if spec.p == 2:
            path = "gelfand"
        elif spec.q == 2:
            path = "kolmogorov"
        else:
            raise NotImplementedError(
                "net oracle serves approximation numbers only when one side "
                "is the Frobenius class (p = 2 or q = 2)"
            )
    pair = (spec.p, spec.q)
    if path == "kolmogorov" and n > 1:
        if spec.q < 1:
            raise NotImplementedError(
                "net oracle serves Kolmogorov numbers with q < 1 only at n = 1")
        pair = _width_pair(spec, "kolmogorov")
    rng = np.random.default_rng(seed)
    value, frames, extra = _gelfand_path(*map(float, pair), n, h, rng)
    error_bar = 2.0 * max(1.0, embedding_norm(spec.p, spec.q, spec.N)) * h
    detail = {"h": h, "error_bar": error_bar, "path": path, "pair": tuple(map(str, pair))}
    detail.update(extra)
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

"""Foreground-masked similarity objective and its analytic gradient.

The loss is  L(u) = -NCC_w(fixed, moving warped by u) + lambda * S(u)
where NCC_w is a single global weighted normalized cross-correlation over
foreground voxels and S is the mean squared forward-difference energy of
the field. All sums run in float64 with a fixed order, so results are
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .volgrid import DisplacementField, Volume, _Sampler, same_grid

VAR_EPS = 1e-12


@dataclass(frozen=True)
class LossBreakdown:
    ncc: float
    smoothness: float
    lambda_smooth: float
    total: float
    masked_voxels: int
    degenerate: bool = False


def _weights(mask: Volume, prior: Volume | None) -> np.ndarray:
    """NCC weights mask * (1 + prior), each >= 0 and at least 2 of them
    > 0, so the weight sum is positive; the callers have checked the grids."""
    w = mask.data.astype(np.float64)
    if prior is not None:
        w = w * (1.0 + prior.data.astype(np.float64))
    if np.any(w < 0):
        raise ValidationError("NCC weights mask * (1 + prior) must be >= 0")
    if int((w > 0).sum()) < 2:
        raise ValidationError("mask must contain at least 2 voxels")
    return w


def _fixed_side(a: np.ndarray, w: np.ndarray):
    """The fixed image's share of the weighted NCC: the weight sum, the
    centred image A and its weighted square sum s_aa."""
    wsum = w.sum()
    A = a - (w * a).sum() / wsum
    return wsum, A, (w * A * A).sum()


def _ncc_core(fixed_side, b: np.ndarray, w: np.ndarray):
    """Weighted global NCC of b against the fixed side, plus the
    intermediates its gradient needs."""
    wsum, A, s_aa = fixed_side
    B = b - (w * b).sum() / wsum
    s_ab = (w * A * B).sum()
    s_bb = (w * B * B).sum()
    if s_aa < VAR_EPS or s_bb < VAR_EPS:
        return 0.0, True, (A, B, s_aa, s_bb, 0.0)
    ncc = s_ab / np.sqrt(s_aa * s_bb)
    return float(ncc), False, (A, B, s_aa, s_bb, s_ab)


def masked_ncc(fixed: Volume, warped: Volume, mask: Volume,
               weights: Volume | None = None) -> float:
    """Global NCC over foreground voxels; 0 when a masked variance
    degenerates (flag available through total_loss)."""
    if not same_grid(fixed, warped, mask, weights):
        raise ValidationError("fixed, warped, mask and weights grids differ")
    w = _weights(mask, weights)
    ncc, _, _ = _ncc_core(_fixed_side(fixed.data.astype(np.float64), w),
                          warped.data.astype(np.float64), w)
    return ncc


def _smoothness(u: np.ndarray, want_grad: bool = False):
    """S(u) and, when asked, its adjoint 2/N * (D^T D) u (else None), from
    one pass over the nine forward differences."""
    n = float(np.prod(u.shape[1:]))
    total = 0.0
    grad = np.zeros_like(u) if want_grad else None
    for c in range(3):
        for ax in range(3):
            d = np.diff(u[c], axis=ax)
            total += float((d * d).sum())
            if want_grad:
                lead = (slice(None),) * ax
                grad[c][lead + (slice(0, -1),)] -= d
                grad[c][lead + (slice(1, None),)] += d
    return total / n, None if grad is None else (2.0 / n) * grad


def smoothness(fld: DisplacementField) -> float:
    """Mean over voxels of the summed squared forward differences of all
    three components along all three axes (voxel units)."""
    if min(fld.dims) < 2:
        raise ValidationError("smoothness needs at least 2 voxels per axis")
    return _smoothness(fld.data.astype(np.float64))[0]


def _cut(coords: np.ndarray, support) -> np.ndarray:
    """(3, nx, ny, nz) coordinates cut to support's k voxels, a (3, k)
    array, contiguous when coords is: a view when support is a slice (every
    voxel), else a gather along the voxel axis, which np.take does faster
    than 2-D fancy indexing."""
    flat = coords.reshape(3, -1)
    if isinstance(support, slice):
        return flat[:, support]
    return np.take(flat, support, axis=1)


class Objective:
    """L(u) = -NCC_w(fixed, moving warped by u) + lambda * S(u) on one grid.

    Built once per grid: the constructor checks the inputs and keeps the
    weights, the fixed image's share of the NCC, the support's identity
    coordinates and one sampler of the moving image, so each trial pays
    only for its sampling and the moving-side sums, and every trial samples
    through the same chunk buffers. A trial field u, a (3, nx, ny, nz)
    array in voxel units, is scored at x + u after rounding to float32, the
    precision a DisplacementField stores; the coordinates, the sampling and
    every sum run in float64.

    Moving is sampled only on the support, the voxels whose NCC weight is
    > 0; support holds their flat indices (slice(None) when that is every
    voxel), and on_support cuts any (3, nx, ny, nz) coordinates to theirs:
    a trial adds u's support entries to the support's x. Off the support
    the sampled value and its gradient are 0, where they would only meet a
    weight of 0, and every sum still runs over the whole grid in the same
    order, so the loss and the fields it steps keep the bits of sampling
    every voxel. (At lambda 0 a gradient entry off the support may be -0.0
    where the whole grid gave +0.0, or the reverse.)
    """

    def __init__(self, fixed: Volume, moving: Volume, mask: Volume,
                 lambda_smooth: float = 0.2, weights: Volume | None = None):
        if not same_grid(fixed, moving, mask, weights):
            raise ValidationError("fixed, moving, mask and weights grids differ")
        self._w = _weights(mask, weights)
        if min(fixed.dims) < 2:
            raise ValidationError("smoothness needs at least 2 voxels per axis")
        self.fixed, self.moving = fixed, moving
        self.lambda_smooth = float(lambda_smooth)
        self._fixed = _fixed_side(fixed.data.astype(np.float64), self._w)
        self._sample = _Sampler(moving.data)
        self._masked_voxels = int((mask.data > 0).sum())
        # every voxel as a slice when every weight is > 0 (no body mask): the
        # cut is then a view and the scatter a plain copy, where indices
        # would gather and scatter the whole grid
        self.support = slice(None) if np.all(self._w > 0) else np.flatnonzero(self._w)
        # the support's voxel centers x, (3, k)
        self._ident = self.on_support(np.indices(fixed.dims, dtype=np.float64))
        # moving's value and d/dx, d/dy, d/dz, written on the support
        # alone, so 0 everywhere else
        self._sampled = np.zeros((4,) + fixed.dims)

    def on_support(self, coords: np.ndarray) -> np.ndarray:
        """(3, nx, ny, nz) coordinates cut to the support's, a (3, k) array
        in support's order (see _cut)."""
        return _cut(coords, self.support)

    def _sampled_at(self, points: np.ndarray, want_grad: bool = False):
        """moving sampled at points, the support's coordinates, on fixed's
        grid and 0 off the support: the value, or it and its three
        derivatives."""
        got = self._sample(points, want_grad)
        out = self._sampled[:4 if want_grad else 1]
        for o, v in zip(out, got if want_grad else (got,)):
            o.reshape(-1)[self.support] = v.reshape(-1)
        return tuple(out) if want_grad else out[0]

    def ncc_at(self, points: np.ndarray, grad: np.ndarray) -> float:
        """-NCC_w of moving sampled at points, a (3, k, ...) array of the
        voxel coordinates in moving of the support's k voxels in support's
        order (on_support cuts them from the whole grid's); adds its gradient
        with respect to each voxel's coordinates into grad, a
        (3, nx, ny, nz) array, where it is 0 off the support. Sampling is
        float64, so the finite-difference gradient check is not drowned by
        float32 rounding of the sampled intensities."""
        b, gx, gy, gz = self._sampled_at(points, want_grad=True)
        ncc, degenerate, (A, B, s_aa, s_bb, s_ab) = _ncc_core(self._fixed, b, self._w)
        if not degenerate:
            # d(NCC)/d b_j = w_j * (A_j - NCC * sqrt(Saa/Sbb) * B_j) / sqrt(Saa*Sbb)
            dncc_db = self._w * (A - (s_ab / s_bb) * B) / np.sqrt(s_aa * s_bb)
            grad[0] -= dncc_db * gx
            grad[1] -= dncc_db * gy
            grad[2] -= dncc_db * gz
        return -ncc

    def loss(self, u: np.ndarray) -> LossBreakdown:
        """The loss of trial field u; smoothness is S(u) even at lambda 0."""
        u = np.asarray(u, dtype=np.float32).astype(np.float64)
        smooth, _ = _smoothness(u)
        b = self._sampled_at(self._coords(u))
        ncc, degenerate, _ = _ncc_core(self._fixed, b, self._w)
        return LossBreakdown(ncc=ncc, smoothness=smooth,
                             lambda_smooth=self.lambda_smooth,
                             total=-ncc + self.lambda_smooth * smooth,
                             masked_voxels=self._masked_voxels,
                             degenerate=degenerate)

    def _coords(self, u: np.ndarray) -> np.ndarray:
        """The support's coordinates x + u, (3, k), for u the caller's own
        float64 copy, which it may overwrite: with every voxel in the
        support they are written into u in place."""
        pts = self.on_support(u)
        return np.add(pts, self._ident, out=pts)

    def evaluate(self, u: np.ndarray):
        """(loss(u).total, dL/du) from one warp: ncc_at at x + u plus the
        exact adjoint of the forward-difference energy, so the
        finite-difference check holds by construction. Both terms are
        summed in float64; the gradient is returned as float32, the
        precision of the field it steps."""
        u = np.asarray(u, dtype=np.float32).astype(np.float64)
        smooth, grad = _smoothness(u, True)
        grad = self.lambda_smooth * grad
        neg_ncc = self.ncc_at(self._coords(u), grad)
        return neg_ncc + self.lambda_smooth * smooth, grad.astype(np.float32)


def _objective(fixed, moving, fld, mask, lambda_smooth, weights):
    if not same_grid(fixed, fld):
        raise ValidationError("image/field grids differ")
    return Objective(fixed, moving, mask, lambda_smooth, weights)


def total_loss(fixed: Volume, moving: Volume, fld: DisplacementField,
               mask: Volume, lambda_smooth: float = 0.2,
               weights: Volume | None = None) -> LossBreakdown:
    """Evaluate -NCC + lambda * smoothness for the warped moving image."""
    return _objective(fixed, moving, fld, mask, lambda_smooth,
                      weights).loss(fld.data)


def loss_gradient(fixed: Volume, moving: Volume, fld: DisplacementField,
                  mask: Volume, lambda_smooth: float = 0.2,
                  weights: Volume | None = None) -> DisplacementField:
    """Analytic dL/du (see Objective.evaluate) as a field on fld's grid."""
    g = _objective(fixed, moving, fld, mask, lambda_smooth,
                   weights).evaluate(fld.data)[1]
    return DisplacementField(g, spacing=fld.spacing, origin=fld.origin)

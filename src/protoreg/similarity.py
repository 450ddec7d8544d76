"""Foreground-masked similarity objective and its analytic gradient.

The loss is  L(u) = -NCC_w(fixed, moving warped by u) + lambda * S(u)
where NCC_w is a single global weighted normalized cross-correlation over
foreground voxels and S is the mean squared forward-difference energy of
the field. All sums run in float64 with a fixed order, so results are
reproducible.
"""
from __future__ import annotations

import math
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


def _support(w: np.ndarray):
    """The voxels whose weight in w is > 0: slice(None) when that is every
    voxel (no body mask), so that a cut is a view and nothing gathers, else
    their flat indices."""
    return slice(None) if np.all(w > 0) else np.flatnonzero(w)


def _cut(arr: np.ndarray, support, out=None) -> np.ndarray:
    """arr, a grid (nx, ny, nz) or a (3, nx, ny, nz) array over one, cut
    to support's k voxels: a (k,) or (3, k) array, contiguous when arr is.
    A view when support is a slice (every voxel), else a gather along the
    voxel axis, which np.take does faster than fancy indexing, into out
    when it is given."""
    flat = arr.reshape(arr.shape[:-3] + (-1,))
    if isinstance(support, slice):
        return flat[..., support]
    return np.take(flat, support, axis=-1, out=out)


def _fixed_side(a: np.ndarray, w: np.ndarray):
    """The fixed image's share of the weighted NCC, from its values a and
    the weights w on the support: the weight sum, the centred image A,
    w * A and the weighted square sum s_aa."""
    wsum = w.sum()
    A = a - (w * a).sum() / wsum
    wA = w * A
    return wsum, A, wA, (wA * A).sum()


def _ncc_core(fixed_side, b: np.ndarray, w: np.ndarray, t: np.ndarray):
    """Weighted global NCC of moving's values b on the support against the
    fixed side: (ncc, degenerate, s_ab, s_bb), with ncc 0 when a variance
    degenerates. b is centred in place, into the B its gradient needs, and
    t, shaped as b, is scratch. Each sum is the one of the whole grid's
    formula (w * A * B).sum() and so on, taken over the k support voxels
    alone."""
    wsum, _, wA, s_aa = fixed_side
    b -= np.multiply(w, b, out=t).sum() / wsum
    s_ab = np.multiply(wA, b, out=t).sum()
    s_bb = np.multiply(np.multiply(w, b, out=t), b, out=t).sum()
    if s_aa < VAR_EPS or s_bb < VAR_EPS:
        return 0.0, True, s_ab, s_bb
    return float(s_ab / np.sqrt(s_aa * s_bb)), False, s_ab, s_bb


def masked_ncc(fixed: Volume, warped: Volume, mask: Volume,
               weights: Volume | None = None) -> float:
    """Global NCC over foreground voxels; 0 when a masked variance
    degenerates (flag available through total_loss)."""
    if not same_grid(fixed, warped, mask, weights):
        raise ValidationError("fixed, warped, mask and weights grids differ")
    w = _weights(mask, weights)
    support = _support(w)
    w = _cut(w, support)
    b = _cut(warped.data, support).astype(np.float64)
    fixed_side = _fixed_side(_cut(fixed.data, support).astype(np.float64), w)
    return _ncc_core(fixed_side, b, w, np.empty_like(b))[0]


class _Smoothness:
    """S(u) and its adjoint on the fields of one grid, through buffers kept
    between calls: one axis's differences and the float64 adjoint."""

    def __init__(self, dims):
        self._n = float(math.prod(dims))
        self._d = np.empty(math.prod(dims))
        self._grad = np.empty((3,) + tuple(dims))

    def __call__(self, u: np.ndarray, want_grad: bool = False):
        """S(u) of a (3, nx, ny, nz) field u of any float dtype and, when
        asked, its adjoint 2/N * (D^T D) u (else None), from one pass over
        the nine forward differences, each taken and summed in float64.
        The adjoint is the kept buffer, which the next call overwrites."""
        total = 0.0
        grad = self._grad if want_grad else None
        if want_grad:
            grad.fill(0.0)
        for c in range(3):
            for ax in range(3):
                lead = (slice(None),) * ax
                lo, hi = lead + (slice(0, -1),), lead + (slice(1, None),)
                shape = u[c][lo].shape
                d = self._d[:math.prod(shape)].reshape(shape)
                # np.diff's subtraction, in float64 even for a float32 u
                np.subtract(u[c][hi], u[c][lo], out=d, dtype=np.float64)
                if want_grad:
                    grad[c][lo] -= d
                    grad[c][hi] += d
                total += float(np.multiply(d, d, out=d).sum())
        if want_grad:
            grad *= 2.0 / self._n
        return total / self._n, grad


def _smoothness(u: np.ndarray, want_grad: bool = False):
    """S(u) and, when asked, its adjoint (see _Smoothness), in new buffers."""
    return _Smoothness(u.shape[1:])(u, want_grad)


def smoothness(fld: DisplacementField) -> float:
    """Mean over voxels of the summed squared forward differences of all
    three components along all three axes (voxel units)."""
    if min(fld.dims) < 2:
        raise ValidationError("smoothness needs at least 2 voxels per axis")
    return _smoothness(fld.data)[0]


class Objective:
    """L(u) = -NCC_w(fixed, moving warped by u) + lambda * S(u) on one grid.

    Built once per grid: the constructor checks the inputs and keeps the
    weights, the fixed image's share of the NCC and the support's identity
    coordinates, one sampler of the moving image and the buffers every
    trial writes into, so each trial pays only for its sampling, the
    moving-side sums and the smoothness pass. A trial field u, a
    (3, nx, ny, nz) array in voxel units, is scored at x + u after rounding
    to float32, the precision a DisplacementField stores; the coordinates,
    the sampling and every sum run in float64.

    The NCC lives on the support alone, the k voxels whose weight is > 0:
    support holds their flat indices (slice(None) when that is every voxel,
    so nothing gathers), and on_support cuts any (3, nx, ny, nz)
    coordinates to theirs. The weights, the fixed side and moving's sampled
    values are k-vectors, every NCC sum runs over them, and the NCC
    gradient is scattered into the grid's once per component; off the
    support the gradient is the smoothness term's alone. Sums over the
    whole grid, where the other weights are 0, may differ in the last bits
    (on 200 random 10^3 cases: the loss not at all, the NCC gradient by at
    most 5.9e-16 of its largest entry; BENCH_level_workspace.json).

    Buffers: the k-vectors and a float64 adjoint the size of the field are
    reused by every call, so a warm evaluate allocates only the float32
    gradient it returns, which no later call writes. The objective is not
    safe for two calls at once.
    """

    def __init__(self, fixed: Volume, moving: Volume, mask: Volume,
                 lambda_smooth: float = 0.2, weights: Volume | None = None):
        if not same_grid(fixed, moving, mask, weights):
            raise ValidationError("fixed, moving, mask and weights grids differ")
        w = _weights(mask, weights)
        if min(fixed.dims) < 2:
            raise ValidationError("smoothness needs at least 2 voxels per axis")
        self.fixed, self.moving = fixed, moving
        self.lambda_smooth = float(lambda_smooth)
        self.support = _support(w)
        self._w = _cut(w, self.support)
        self._fixed = _fixed_side(_cut(fixed.data, self.support).astype(np.float64), self._w)
        self._sample = _Sampler(moving.data)
        self._masked_voxels = int((mask.data > 0).sum())
        # the support's voxel centers x, (3, k)
        self._ident = self.on_support(np.indices(fixed.dims, dtype=np.float64))
        k = self._w.size
        # moving's value and d/dx, d/dy, d/dz on the support, then scratch
        self._ncc = np.empty((5, k))
        # a trial's x + u on the support, and u's support entries gathered
        self._pts = np.empty((3, k))
        self._u_cut = np.empty((3, k), dtype=np.float32)
        self._smooth = _Smoothness(fixed.dims)

    def on_support(self, coords: np.ndarray) -> np.ndarray:
        """(3, nx, ny, nz) coordinates cut to the support's, a (3, k) array
        in support's order (see _cut)."""
        return _cut(coords, self.support)

    def ncc_at(self, points: np.ndarray, grad: np.ndarray) -> float:
        """-NCC_w of moving sampled at points, a (3, k, ...) array of the
        voxel coordinates in moving of the support's k voxels in support's
        order (on_support cuts them from the whole grid's); adds its gradient
        with respect to each voxel's coordinates into grad, either a (3, k)
        array on the support or a C-contiguous (3, nx, ny, nz) one on fixed's
        grid, which is left as it is off the support. Sampling is float64,
        so the finite-difference gradient check is not drowned by float32
        rounding of the sampled intensities."""
        b, gx, gy, gz, t = self._ncc
        self._sample(points, True, out=self._ncc)
        ncc, degenerate, s_ab, s_bb = _ncc_core(self._fixed, b, self._w, t)
        if not degenerate:
            _, A, _, s_aa = self._fixed
            # d(NCC)/d b_j = w_j * (A_j - (s_ab / s_bb) * B_j) / sqrt(s_aa * s_bb)
            np.subtract(A, np.multiply(b, s_ab / s_bb, out=t), out=t)
            t *= self._w
            t /= np.sqrt(s_aa * s_bb)
            flat = grad.reshape(3, -1)
            for row, d in zip(flat, (gx, gy, gz)):
                d *= t
                if flat.shape[1] == d.size:
                    row -= d
                else:       # scatter through b, which is free now
                    row[self.support] = np.subtract(
                        np.take(row, self.support, out=b), d, out=b)
        return -ncc

    def loss(self, u: np.ndarray) -> LossBreakdown:
        """The loss of trial field u; smoothness is S(u) even at lambda 0."""
        u = np.asarray(u, dtype=np.float32)
        smooth, _ = self._smooth(u)
        b, t = self._ncc[0], self._ncc[4]
        self._sample(self._coords(u), out=self._ncc)
        ncc, degenerate, _, _ = _ncc_core(self._fixed, b, self._w, t)
        return LossBreakdown(ncc=ncc, smoothness=smooth,
                             lambda_smooth=self.lambda_smooth,
                             total=-ncc + self.lambda_smooth * smooth,
                             masked_voxels=self._masked_voxels,
                             degenerate=degenerate)

    def _coords(self, u: np.ndarray) -> np.ndarray:
        """The support's coordinates x + u, (3, k), for a float32 u, in the
        buffer the next call overwrites."""
        return np.add(_cut(u, self.support, self._u_cut), self._ident, out=self._pts)

    def evaluate(self, u: np.ndarray):
        """(loss(u).total, dL/du) from one warp: ncc_at at x + u plus the
        exact adjoint of the forward-difference energy, so the
        finite-difference check holds by construction. Both terms are
        summed in float64; the gradient is returned as a new float32 array,
        the precision of the field it steps."""
        u = np.asarray(u, dtype=np.float32)
        smooth, grad = self._smooth(u, True)
        grad *= self.lambda_smooth
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

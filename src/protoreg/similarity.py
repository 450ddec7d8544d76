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
from .volgrid import DisplacementField, Volume, _Sampler, _slabs, same_grid

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


def _cut(arr: np.ndarray, support: np.ndarray, out=None) -> np.ndarray:
    """arr, a grid (nx, ny, nz) or a (3, nx, ny, nz) array over one, cut
    to support's k voxels (sorted flat indices): a (k,) or (3, k) array,
    contiguous, gathered along the voxel axis by np.take, which is faster
    than fancy indexing, into out when it is given (in mode "clip", for
    indices in range, np.take writes straight into out rather than through
    a copy of it)."""
    flat = arr.reshape(arr.shape[:-3] + (-1,))
    return np.take(flat, support, axis=-1, out=out, mode="clip")


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
    support = np.flatnonzero(w)
    w = _cut(w, support)
    b = _cut(warped.data, support).astype(np.float64)
    fixed_side = _fixed_side(_cut(fixed.data, support).astype(np.float64), w)
    return _ncc_core(fixed_side, b, w, np.empty_like(b))[0]


class _Smoothness:
    """S(u) and lambda times its adjoint on the fields of one grid, a
    component at a time over the x-slabs of volgrid._slabs(dims), so that
    a slab's differences and adjoint stay in cache while it is worked on.
    The scratch is one float64 copy of a slab and its neighbour planes, one
    slab's differences and one slab's adjoint; nothing the size of the
    grid is kept. Every difference is taken from the float64 copy, so no
    operation of the pass casts, and axis 2's are taken over the flattened
    slab, so its two adjoint updates are contiguous 1-D passes. Every pass
    forms each slab's adjoint there; out and rows only decide whether it is
    scaled and written, and whether its entries on support, the sorted flat
    indices of the k voxels an objective's NCC lives on, go into rows.

    Each element's adjoint takes its updates in the order of the whole
    grid's pass (-d0[i], +d0[i-1], -d1[j], +d1[j-1], -d2[k], +d2[k-1],
    starting from 0.0), then is scaled by 2/N and then by lambda, so its
    bits do not depend on the slabs. The energy adds up each slab's sums
    of squares, so on a grid of more than one slab it may differ from the
    one-pass sum in the last bits (< 2e-15 relative); on one slab it is
    that sum."""

    def __init__(self, dims, support=None):
        nx, ny, nz = dims
        self._plane = ny * nz
        self._n = float(nx * self._plane)
        self._slabs = _slabs(dims)
        planes = self._slabs[0].stop
        # the slab and a plane either side of it, widened to float64
        self._v = np.empty(min(planes + 2, nx) * self._plane)
        # axis 0's differences take one plane beyond the slab's
        self._d = np.empty(min(planes + 1, nx) * self._plane)
        self._adj = np.empty((planes, ny, nz))
        self._support = support
        if support is not None:
            self._local = np.empty(planes * self._plane, dtype=np.intp)
            # each slab's support voxels: a run of the sorted indices
            self._runs = np.searchsorted(
                support, [s.start * self._plane for s in self._slabs] + [nx * self._plane])

    def __call__(self, u: np.ndarray, out=None, rows=None, lam: float = 1.0) -> float:
        """S(u) of a (3, nx, ny, nz) field u of any float dtype, each
        difference taken and summed in float64. Given out, a C-contiguous
        (3, nx, ny, nz) array of any float dtype, also lam * 2/N * (D^T D) u,
        rounded once into out; given rows as well, a (3, k) float64 array
        over the support, its support entries unrounded into rows."""
        # numpy runs an operation on short strided rows, as the square of
        # axis 2's differences is, through buffers of bufsize elements per
        # operand, allocated by each call: 128 KiB for two float64 operands
        # at the default 8192. 2048 keeps them at 32 KiB, and measured no
        # slower at 32^3 to 128^3. errstate puts the default back on the way
        # out.
        with np.errstate():
            np.setbufsize(2048)
            return self._pass(u, out, rows, lam)

    def _pass(self, u, out, rows, lam):
        nx, ny, nz = u.shape[1:]
        parts = [0.0] * 9
        for c in range(3):
            uc = u[c]
            for i, planes in enumerate(self._slabs):
                a, b = planes.start, planes.stop
                adj = self._adj[:b - a]
                # axis 0: the differences d0[lo .. hi-2], one before the
                # slab's own d0[a .. e-1], which its energy sums
                lo, hi, e = max(a - 1, 0), min(b + 1, nx), min(b, nx - 1)
                v = self._v[:(hi - lo) * self._plane].reshape(hi - lo, ny, nz)
                # widened once: np.diff's subtraction in float64, with no cast
                np.copyto(v, uc[lo:hi])
                d = self._d[:(hi - lo - 1) * self._plane].reshape(hi - lo - 1, ny, nz)
                np.subtract(v[1:], v[:-1], out=d)
                np.subtract(0.0, d[a - lo:e - lo], out=adj[:e - a])
                adj[e - a:] = 0.0       # plane nx - 1 has no forward difference
                s = max(a, 1)
                adj[s - a:] += d[s - 1 - lo:b - 1 - lo]
                own = d[a - lo:e - lo]
                parts[3 * c] += float(np.multiply(own, own, out=own).sum())
                slab = v[a - lo:b - lo]
                d = self._d[:(b - a) * (ny - 1) * nz].reshape(b - a, ny - 1, nz)
                np.subtract(slab[:, 1:], slab[:, :-1], out=d)
                adj[:, :-1] -= d
                adj[:, 1:] += d
                parts[3 * c + 1] += float(np.multiply(d, d, out=d).sum())
                # axis 2 over the flattened slab: entry j is slab[j + 1] -
                # slab[j], and each row's last, which spans two rows, is
                # 0.0, whose subtraction or addition leaves an adjoint entry
                # as it was (no entry of it is ever -0.0)
                flat, d = slab.reshape(-1), self._d[:slab.size]
                np.subtract(flat[1:], flat[:-1], out=d[:-1])
                d2 = d.reshape(slab.shape)
                d2[..., -1] = 0.0
                g = adj.reshape(-1)
                g -= d
                g[1:] += d[:-1]
                # squared into the slab's copy, free now, in the contiguous
                # (planes, ny, nz - 1) layout whose sum the energy takes
                sq = self._v[:(b - a) * ny * (nz - 1)].reshape(b - a, ny, nz - 1)
                parts[3 * c + 2] += float(np.multiply(d2[..., :-1], d2[..., :-1], out=sq).sum())
                if out is None:
                    continue
                adj *= 2.0 / self._n
                adj *= lam
                out[c, a:b] = adj
                if rows is not None:
                    s0, s1 = self._runs[i], self._runs[i + 1]
                    local = np.subtract(self._support[s0:s1], a * self._plane,
                                        out=self._local[:s1 - s0])
                    # mode "clip" (the indices are in range) takes
                    # straight into out, not through a copy of it
                    np.take(adj.reshape(-1), local, out=rows[c, s0:s1], mode="clip")
        total = 0.0
        for p in parts:
            total += p
        return total / self._n


def smoothness(fld: DisplacementField) -> float:
    """Mean over voxels of the summed squared forward differences of all
    three components along all three axes (voxel units)."""
    if min(fld.dims) < 2:
        raise ValidationError("smoothness needs at least 2 voxels per axis")
    return _Smoothness(fld.dims)(fld.data)


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

    The NCC lives on the support alone, the k voxels whose weight is > 0
    (every voxel when nothing is masked): support holds their sorted flat
    indices, and _cut(coords, support) cuts any (3, nx, ny, nz) coordinates
    to theirs. The weights, the fixed side and moving's sampled values are
    k-vectors, every NCC sum runs over them, and the NCC gradient is
    subtracted from the gradient's support rows; off the support the
    gradient is the smoothness term's alone. Sums over the whole grid,
    where the other weights are 0, may differ in the last bits (on 200
    random 10^3 cases: the loss not at all, the NCC gradient by at most
    5.9e-16 of its largest entry; BENCH_level_workspace.json).

    Buffers: the k-vectors, the smoothness pass's slab scratch and a (3, k)
    float64 array of the gradient's support rows are reused by every call,
    so a warm evaluate allocates only the float32 gradient it returns,
    which no later call writes. The objective is not safe for two calls at
    once.
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
        self.support = np.flatnonzero(w)
        self._w = _cut(w, self.support)
        self._fixed = _fixed_side(_cut(fixed.data, self.support).astype(np.float64), self._w)
        self._sample = _Sampler(moving.data)
        self._masked_voxels = int((mask.data > 0).sum())
        # the support's voxel centers x, (3, k)
        self._ident = np.array(np.unravel_index(self.support, fixed.dims), dtype=np.float64)
        k = self._w.size
        # moving's value and d/dx, d/dy, d/dz on the support, then scratch
        self._ncc = np.empty((5, k))
        # a trial's x + u on the support, and u's support entries gathered
        self._pts = np.empty((3, k))
        self._u_cut = np.empty((3, k), dtype=np.float32)
        # the gradient's support entries, summed in float64 before rounding
        self._rows = np.empty((3, k))
        self._smooth = _Smoothness(fixed.dims, self.support)

    def ncc_at(self, points: np.ndarray, grad: np.ndarray) -> float:
        """-NCC_w of moving sampled at points, a (3, k, ...) array of the
        voxel coordinates in moving of the support's k voxels in support's
        order (_cut cuts them from the whole grid's); adds its gradient
        with respect to each voxel's coordinates into grad, a (3, k) float64
        array in the same order. Sampling is float64, so the
        finite-difference gradient check is not drowned by float32 rounding
        of the sampled intensities."""
        b, gx, gy, gz, t = self._ncc
        self._sample(points, True, out=self._ncc)
        ncc, degenerate, s_ab, s_bb = _ncc_core(self._fixed, b, self._w, t)
        if not degenerate:
            _, A, _, s_aa = self._fixed
            # d(NCC)/d b_j = w_j * (A_j - (s_ab / s_bb) * B_j) / sqrt(s_aa * s_bb)
            np.subtract(A, np.multiply(b, s_ab / s_bb, out=t), out=t)
            t *= self._w
            t /= np.sqrt(s_aa * s_bb)
            for row, d in zip(grad, (gx, gy, gz)):
                d *= t
                row -= d
        return -ncc

    def loss(self, u: np.ndarray) -> LossBreakdown:
        """The loss of trial field u; smoothness is S(u) even at lambda 0."""
        u = np.asarray(u, dtype=np.float32)
        smooth = self._smooth(u)
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
        # widened first, so that the add runs on one dtype and numpy takes
        # no buffer for it
        np.copyto(self._pts, _cut(u, self.support, self._u_cut))
        self._pts += self._ident
        return self._pts

    def evaluate(self, u: np.ndarray):
        """(loss(u).total, dL/du) from one warp: ncc_at at x + u plus the
        exact adjoint of the forward-difference energy, so the
        finite-difference check holds by construction. Both terms are
        summed in float64 and rounded once into the float32 gradient
        returned, a new array, the precision of the field it steps. The
        smoothness pass writes lambda times its adjoint into that gradient
        and its support entries into the kept support rows, ncc_at
        subtracts the NCC term from the rows, and they are written into
        the gradient last, over the smoothness term's entries there."""
        u = np.asarray(u, dtype=np.float32)
        grad = np.empty(u.shape, dtype=np.float32)
        smooth = self._smooth(u, grad, self._rows, self.lambda_smooth)
        neg_ncc = self.ncc_at(self._coords(u), self._rows)
        # rounded through the coordinates' float32 buffer, free now, and
        # scattered by index assignment, which is 2-3 times faster than put
        np.copyto(self._u_cut, self._rows, casting="same_kind")
        for row, r in zip(grad.reshape(3, -1), self._u_cut):
            row[self.support] = r
        return neg_ncc + self.lambda_smooth * smooth, grad


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

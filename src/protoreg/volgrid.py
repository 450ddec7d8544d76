"""Core 3D grid types: volumes, displacement fields, pyramids.

Conventions used throughout the package:
  * Volume data is float32, indexed [x, y, z] with shape (nx, ny, nz).
  * Displacement fields store (ux, uy, uz) in shape (3, nx, ny, nz);
    displacements are in voxel units of the field's own grid.
  * Sampling outside the grid returns 0 (inputs are zero-padded anyway).
  * Every trilinear sampling in the package goes through a _Sampler built
    on one image: it alone holds the zero-ringed copy and the chunk
    buffers, and takes its coordinates as one (3, ...) array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, _array, _integer, _values

Triple = tuple[float, float, float]


def _grid_dims(v) -> tuple:
    """v as a grid's voxel counts: 3 integers >= 1, few enough that numpy
    can index a float64 3-vector field over them (24 bytes per voxel)."""
    dims = tuple(int(d) for d in _values(v, "dims", 3, _integer))
    if min(dims) < 1:
        raise ValidationError(f"dims must be >= 1, got {dims}")
    if 24 * math.prod(dims) > np.iinfo(np.intp).max:
        raise ValidationError(f"dims {dims} hold more voxels than numpy can index")
    return dims


def _grid_spacing(v) -> tuple:
    """v as a grid's voxel size in mm: 3 finite numbers > 0, as floats."""
    spacing = tuple(float(s) for s in _values(v, "spacing", 3))
    if min(spacing) <= 0:
        raise ValidationError(f"spacing must be strictly positive, got {spacing}")
    return spacing


@dataclass(frozen=True)
class _Grid:
    """float32 data over a 3-D grid, after the subclass's leading axes, with
    the grid's spacing and origin in mm. The data must be finite and hold
    at least 1 voxel per axis."""

    data: np.ndarray
    spacing: Triple = (1.0, 1.0, 1.0)
    origin: Triple = (0.0, 0.0, 0.0)

    # a class attribute, not a field: the leading axes' shape
    _lead = ()

    def __post_init__(self):
        object.__setattr__(self, "data", _array(self.data, f"{type(self).__name__} data",
                                                np.float32, self._lead + (None,) * 3))
        object.__setattr__(self, "spacing", _grid_spacing(self.spacing))
        origin = _values(self.origin, "origin", 3)
        object.__setattr__(self, "origin", tuple(float(o) for o in origin))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[len(self._lead):]

    def with_data(self, data: np.ndarray):
        return replace(self, data=data)


@dataclass(frozen=True)
class Volume(_Grid):
    """Scalar 3D grid with physical spacing (mm)."""


@dataclass(frozen=True)
class DisplacementField(_Grid):
    """Per-voxel displacement vectors, voxel units of the owning grid."""

    _lead = (3,)


def same_grid(*grids) -> bool:
    """Whether all volumes or fields share dims, spacing and origin; None
    arguments (absent optional inputs) are skipped."""
    return len({(g.dims, g.spacing, g.origin) for g in grids if g is not None}) <= 1


def zero_field(like: Volume | DisplacementField) -> DisplacementField:
    return DisplacementField(
        np.zeros((3,) + tuple(like.dims), dtype=np.float32),
        spacing=like.spacing,
        origin=like.origin,
    )


# ---------------------------------------------------------------------------
# sampling / warping

def _corner_offsets(c: np.ndarray, n: int, stride: int, frac, low, o0, o1):
    """Along one axis of a zero-ringed array: the fractional part of
    coordinate c into frac, 1 - frac into low, and the flat offsets of its
    two corners floor(c) and floor(c) + 1 into o0 and o1. Each corner is
    clamped into [-1, n] on its own, so one outside the grid lands on the
    ring."""
    np.floor(c, out=low)          # floor(c) until low becomes 1 - frac
    np.subtract(c, low, out=frac)
    # below -2 or above n both corners already read the ring, so clipping
    # floor(c) into [-2, n] changes no read; it also sends a non-finite c
    # to the ring (fmax and fmin drop NaN) and keeps the int64 cast exact
    np.fmax(low, -2.0, out=low)
    np.fmin(low, n, out=low)
    np.copyto(o1, low, casting="unsafe")
    np.maximum(o1, -1, out=o0)    # corner floor(c), clamped below
    o0 += 1                       # ringed index
    o0 *= stride
    np.minimum(o1, n - 1, out=o1)  # corner floor(c) + 1, clamped above
    o1 += 2
    o1 *= stride
    np.subtract(1.0, frac, out=low)


# points per pass of a _Sampler, and the most its chunk buffers hold. A
# sampler's 17 float64/int64 buffers of min(_CHUNK, voxels) points are
# allocated once, with the sampler, and reused by every chunk of every call:
# they stay in cache, and their pages are not handed back to the OS and
# faulted in again on every call, as per-call temporaries were (about 1200
# minor faults per 32^3 call)
_CHUNK = 32768


class _Sampler:
    """Trilinear interpolation of one 3-D array with a zero border.

    The constructor keeps a float64 copy of arr with a one-voxel ring of
    zeros, so a corner outside the grid reads 0 from the ring, and the
    chunk buffers: the fractions and weights, each axis's corner offsets,
    the flat index, the gathered corner and the weighted product. One
    sampler serves any number of calls in turn (nothing carries over
    between them), but not two at once.
    """

    def __init__(self, arr: np.ndarray):
        self._ringed = np.pad(arr.astype(np.float64), 1)
        self._size = min(_CHUNK, arr.size)
        self._real = np.empty((9, self._size))
        self._index = np.empty((8, self._size), dtype=np.int64)

    def __call__(self, coords, want_grad: bool = False):
        """The array sampled at coords, a (3, ...) array of voxel
        coordinates: the value, or (value, dv/dx, dv/dy, dv/dz) when
        want_grad is set, each of shape coords.shape[1:]; derivatives are
        with respect to the continuous voxel coordinate. The points are
        sampled in chunks of the buffers' size; each point's arithmetic
        does not depend on the chunking, so neither do the output bits.
        """
        coords = np.asarray(coords, dtype=np.float64)
        flat = coords.reshape(3, -1)
        outs = [np.zeros(flat.shape[1]) for _ in range(4 if want_grad else 1)]
        for s in range(0, flat.shape[1], self._size):
            part = slice(s, s + self._size)
            val, *grad = (o[part] for o in outs)
            self._chunk(*flat[:, part], val, grad)
        outs = [o.reshape(coords.shape[1:]) for o in outs]
        return tuple(outs) if want_grad else outs[0]

    def _chunk(self, x, y, z, val, grad):
        """The sampler on 1-D float64 coordinates of at most the buffers'
        size, added into the zeroed array val and, when grad holds them,
        into dv/dx, dv/dy, dv/dz; every intermediate is written into the
        buffers.

        Corners are summed in the order (dx, dy, dz) as wx * wy * wz * c,
        and each derivative term as +-(product of the other two weights) *
        c with the sign applied exactly, so the bits equal those of
        gathering each corner of the unringed array through an
        inside-the-grid mask.
        """
        nx, ny, nz = (n - 2 for n in self._ringed.shape)
        flat = self._ringed.ravel()
        fx, fy, fz, wx0, wy0, wz0, wxy, c, t = self._real[:, :x.size]
        ox0, ox1, oy0, oy1, oz0, oz1, oxy, idx = self._index[:, :x.size]
        _corner_offsets(x, nx, (ny + 2) * (nz + 2), fx, wx0, ox0, ox1)
        _corner_offsets(y, ny, nz + 2, fy, wy0, oy0, oy1)
        _corner_offsets(z, nz, 1, fz, wz0, oz0, oz1)
        wxs, wys, wzs = (wx0, fx), (wy0, fy), (wz0, fz)
        ox, oy, oz = (ox0, ox1), (oy0, oy1), (oz0, oz1)

        if grad:
            gx, gy, gz = grad
        for dx in (0, 1):
            wx = wxs[dx]
            for dy in (0, 1):
                wy = wys[dy]
                np.multiply(wx, wy, out=wxy)
                np.add(ox[dx], oy[dy], out=oxy)
                for dz in (0, 1):
                    wz = wzs[dz]
                    np.add(oxy, oz[dz], out=idx)
                    flat.take(idx, mode="clip", out=c)   # always in range
                    val += np.multiply(np.multiply(wxy, wz, out=t), c, out=t)
                    if grad:
                        # a low corner's -1 scales exactly: subtracting
                        # wy * wz * c gives the bits of adding (-1 * wy) * wz * c
                        np.multiply(np.multiply(wy, wz, out=t), c, out=t)
                        (np.add if dx else np.subtract)(gx, t, out=gx)
                        np.multiply(np.multiply(wx, wz, out=t), c, out=t)
                        (np.add if dy else np.subtract)(gy, t, out=gy)
                        np.multiply(wxy, c, out=t)
                        (np.add if dz else np.subtract)(gz, t, out=gz)


def trilinear_sample(vol: Volume, p) -> float:
    """Interpolate vol at a continuous voxel coordinate; zero outside."""
    p = _array(p, "sample coordinate", np.float64, (3,))
    # sample the <= 2x2x2 block of voxels from floor(p), clamped into the
    # grid, with p shifted by the block's origin: the shift is exact
    # wherever a corner is inside the grid, and an axis whose corners are
    # both outside reads zeros either way, so the bits are those of
    # sampling the whole grid
    lo = np.clip(np.floor(p), 0, np.array(vol.dims) - 1).astype(np.int64)
    block = vol.data[lo[0]:lo[0] + 2, lo[1]:lo[1] + 2, lo[2]:lo[2] + 2]
    return float(_Sampler(block)((p - lo).reshape(3, 1))[0])


def warp(moving: Volume, fld: DisplacementField) -> Volume:
    """Resample moving at x + u(x); implements the warped-image operator."""
    # the field holds voxel displacements of its own grid
    if not same_grid(moving, fld):
        raise ValidationError("field grid differs from input grid")
    if np.all(fld.data == 0):
        return moving  # bit-exact identity
    out = _Sampler(moving.data)(np.indices(moving.dims, dtype=np.float64) + fld.data)
    return Volume(out.astype(np.float32), spacing=moving.spacing, origin=moving.origin)


# ---------------------------------------------------------------------------
# pyramid construction

def _pool_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Factor-2 average pooling along one axis; trailing odd slab averaged
    over its actual membership."""
    n = arr.shape[axis]
    starts = np.arange(0, n, 2)
    sums = np.add.reduceat(arr, starts, axis=axis)
    counts = np.minimum(starts + 2, n) - starts
    shape = [1] * arr.ndim
    shape[axis] = len(starts)
    return sums / counts.reshape(shape)


def downsample_avg(vol: Volume) -> Volume:
    """Factor-2 average pooling per axis; spacing doubles."""
    arr = vol.data.astype(np.float64)
    for ax in range(3):
        arr = _pool_axis(arr, ax)
    return Volume(arr.astype(np.float32),
                  spacing=tuple(2 * s for s in vol.spacing),
                  origin=vol.origin)


def build_pyramid(vol: Volume, levels: int) -> tuple:
    """Repeated average pooling, finest level first; the level count is
    clipped so every axis keeps at least 4 voxels at the coarsest level
    (a grid with an axis under 4 voxels is not pooled). The clip is not
    logged: register records it as a levels_reduced_to_N flag."""
    if levels < 1:
        raise ValidationError(f"level count must be >= 1, got {levels}")
    # ceil(n / 2**(L-1)) >= 4 holds for 2**(L-1) <= (n - 1) // 3
    max_levels = max(1, ((min(vol.dims) - 1) // 3).bit_length())
    out = [vol]
    for _ in range(min(levels, max_levels) - 1):
        out.append(downsample_avg(out[-1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# field algebra

def upsample_field(fld: DisplacementField, target_dims) -> DisplacementField:
    """Trilinear upsampling by 2 per axis with displacement magnitudes
    doubled (voxel units change with the grid).

    Corner-aligned: fine coordinate i maps to coarse coordinate i/2,
    clamped at the far edge.
    """
    target_dims = _grid_dims(target_dims)
    src = fld.dims
    for a in range(3):
        if math.ceil(target_dims[a] / 2) != src[a]:
            raise ValidationError(
                f"target dims {target_dims} not a factor-2 refinement of {src}")
    coords = np.minimum(np.indices(target_dims, dtype=np.float64) / 2.0,
                        np.subtract(src, 1.0).reshape(3, 1, 1, 1))
    out = [(2.0 * _Sampler(u)(coords)).astype(np.float32) for u in fld.data]
    return DisplacementField(np.stack(out),
                             spacing=tuple(s / 2 for s in fld.spacing),
                             origin=fld.origin)


def compose_additive(up: DisplacementField, residual: DisplacementField) -> DisplacementField:
    """Voxel-wise sum of the upsampled coarse field and the fine residual.

    Only dims are checked: the sum is voxel-wise algebra, and acceptance
    criterion 7 adds upsample_field's output (half the spacing) to a field
    on the default grid.
    """
    if up.dims != residual.dims:
        raise ValidationError(f"compose dims mismatch: {up.dims} vs {residual.dims}")
    return up.with_data(up.data + residual.data)


def jacobian_det(fld: DisplacementField) -> Volume:
    """det(I + grad u) per voxel; central differences in the interior,
    one-sided at the faces (voxel units)."""
    if min(fld.dims) < 2:
        raise ValidationError("jacobian needs at least 2 voxels per axis")
    u = fld.data.astype(np.float64)
    # J[i][j] = d u_i / d x_j
    J = [[np.gradient(u[i], axis=j) for j in range(3)] for i in range(3)]
    for i in range(3):
        J[i][i] = J[i][i] + 1.0
    det = (J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1])
           - J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0])
           + J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]))
    return Volume(det.astype(np.float32), spacing=fld.spacing, origin=fld.origin)


def pad_to_shape(vol: Volume, target_dims) -> Volume:
    """Zero-pad at the high-index side up to target dims."""
    target_dims = _grid_dims(target_dims)
    if any(t < c for t, c in zip(target_dims, vol.dims)):
        raise ValidationError(f"target {target_dims} smaller than {vol.dims}")
    if target_dims == vol.dims:
        return vol
    pad = [(0, t - c) for t, c in zip(target_dims, vol.dims)]
    return Volume(np.pad(vol.data, pad), spacing=vol.spacing, origin=vol.origin)

"""Core 3D grid types: volumes, displacement fields, pyramids.

Conventions used throughout the package:
  * Volume data is float32, indexed [x, y, z] with shape (nx, ny, nz).
  * Displacement fields store (ux, uy, uz) in shape (3, nx, ny, nz);
    displacements are in voxel units of the field's own grid.
  * Sampling outside the grid returns 0 (inputs are zero-padded anyway).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, _integer, _values

Triple = tuple[float, float, float]


def _grid_dims(v) -> tuple:
    """v as a grid's voxel counts: 3 integers >= 1."""
    dims = _values(v, "dims", 3, _integer)
    if min(dims) < 1:
        raise ValidationError(f"dims must be >= 1, got {dims}")
    return tuple(int(d) for d in dims)


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

    # class attributes, not fields: the leading axes' shape, and the whole
    # shape as error messages spell it
    _lead, _shape = (), "(nx, ny, nz)"

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        k = len(self._lead)
        if arr.ndim != k + 3 or arr.shape[:k] != self._lead or 0 in arr.shape:
            raise ValidationError(f"{type(self).__name__} data must have shape "
                                  f"{self._shape}, each axis >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{type(self).__name__} data contains non-finite values")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _grid_spacing(self.spacing))
        origin = _values(self.origin, "origin", 3)
        object.__setattr__(self, "origin", tuple(float(o) for o in origin))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[len(self._lead):]

    def with_data(self, data: np.ndarray):
        return replace(self, data=np.asarray(data, dtype=np.float32))


@dataclass(frozen=True)
class Volume(_Grid):
    """Scalar 3D grid with physical spacing (mm)."""


@dataclass(frozen=True)
class DisplacementField(_Grid):
    """Per-voxel displacement vectors, voxel units of the owning grid."""

    _lead, _shape = (3,), "(3, nx, ny, nz)"


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

def _zero_ring(arr: np.ndarray) -> np.ndarray:
    """float64 copy of a 3-D array with a one-voxel ring of zeros: the
    sampler's input, so a corner outside the grid reads 0 from the ring."""
    return np.pad(arr.astype(np.float64), 1)


def _corner_offsets(c: np.ndarray, n: int, stride: int):
    """Fractional part of coordinate c and the flat offsets, along one axis
    of a zero-ringed array, of its two corners floor(c) and floor(c) + 1.
    Each corner is clamped into [-1, n] on its own, so one outside the grid
    lands on the ring."""
    lo = np.floor(c)
    frac = c - lo
    # below -2 or above n both corners already read the ring, so clipping
    # floor(c) into [-2, n] changes no read; it also sends a non-finite c
    # to the ring (fmax and fmin drop NaN) and keeps the int64 cast exact
    np.fmax(lo, -2.0, out=lo)
    np.fmin(lo, n, out=lo)
    i = lo.astype(np.int64)
    del lo
    o0 = np.maximum(i, -1)        # corner floor(c), clamped below
    o0 += 1                       # ringed index
    o0 *= stride
    o1 = np.minimum(i, n - 1, out=i)  # corner floor(c) + 1, clamped above
    o1 += 2
    o1 *= stride
    return frac, (o0, o1)


# points per pass of the sampler: its ~20 float64 temporaries of this
# length stay in cache, where whole-grid ones at 64^3 do not
_CHUNK = 32768


def _trilinear_arrays(ringed: np.ndarray, x, y, z, want_grad: bool = False):
    """Vectorized trilinear interpolation with zero border, from an array
    built by _zero_ring, at coordinates x, y, z of one shape.

    Returns value, or (value, dv/dx, dv/dy, dv/dz) when want_grad is set;
    derivatives are with respect to the continuous voxel coordinate.
    The points are sampled in chunks of _CHUNK; each point's arithmetic
    does not depend on the chunking, so neither do the output bits.
    """
    shape = np.shape(x)
    x, y, z = (np.asarray(c).ravel() for c in (x, y, z))
    outs = [np.zeros(x.size) for _ in range(4 if want_grad else 1)]
    for s in range(0, x.size, _CHUNK):
        part = slice(s, s + _CHUNK)
        val, *grad = (o[part] for o in outs)
        _trilinear_chunk(ringed, x[part], y[part], z[part], val, grad)
    outs = [o.reshape(shape) for o in outs]
    return tuple(outs) if want_grad else outs[0]


def _trilinear_chunk(ringed: np.ndarray, x, y, z, val, grad):
    """_trilinear_arrays on 1-D coordinates, added into the zeroed array
    val and, when grad holds them, into dv/dx, dv/dy, dv/dz.

    Corners are summed in the order (dx, dy, dz) as wx * wy * wz * c, and
    each derivative term as +-(product of the other two weights) * c with
    the sign applied exactly, so the bits equal those of gathering each
    corner of the unringed array through an inside-the-grid mask.
    """
    nx, ny, nz = (n - 2 for n in ringed.shape)
    flat = ringed.ravel()
    fx, ox = _corner_offsets(np.asarray(x, dtype=np.float64), nx,
                             (ny + 2) * (nz + 2))
    fy, oy = _corner_offsets(np.asarray(y, dtype=np.float64), ny, nz + 2)
    fz, oz = _corner_offsets(np.asarray(z, dtype=np.float64), nz, 1)
    wxs, wys, wzs = (1.0 - fx, fx), (1.0 - fy, fy), (1.0 - fz, fz)

    if grad:
        gx, gy, gz = grad
    for dx in (0, 1):
        wx = wxs[dx]
        for dy in (0, 1):
            wy = wys[dy]
            wxy = wx * wy
            oxy = ox[dx] + oy[dy]
            for dz in (0, 1):
                wz = wzs[dz]
                c = flat.take(oxy + oz[dz], mode="clip")   # always in range
                val += wxy * wz * c
                if grad:
                    # a low corner's -1 scales exactly: subtracting
                    # wy * wz * c gives the bits of adding (-1 * wy) * wz * c
                    (np.add if dx else np.subtract)(gx, wy * wz * c, out=gx)
                    (np.add if dy else np.subtract)(gy, wx * wz * c, out=gy)
                    (np.add if dz else np.subtract)(gz, wxy * c, out=gz)


def trilinear_sample(vol: Volume, p) -> float:
    """Interpolate vol at a continuous voxel coordinate; zero outside."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise ValidationError(f"bad sample coordinate {p!r}")
    # sample the <= 2x2x2 block of voxels from floor(p), clamped into the
    # grid, with p shifted by the block's origin: the shift is exact
    # wherever a corner is inside the grid, and an axis whose corners are
    # both outside reads zeros either way, so the bits are those of
    # sampling the whole grid
    lo = np.clip(np.floor(p), 0, np.array(vol.dims) - 1).astype(np.int64)
    block = vol.data[lo[0]:lo[0] + 2, lo[1]:lo[1] + 2, lo[2]:lo[2] + 2]
    q = p - lo
    return float(_trilinear_arrays(_zero_ring(block), q[0:1], q[1:2], q[2:3])[0])


def warp(moving: Volume, fld: DisplacementField) -> Volume:
    """Resample moving at x + u(x); implements the warped-image operator."""
    # the field holds voxel displacements of its own grid
    if not same_grid(moving, fld):
        raise ValidationError("field grid differs from input grid")
    if np.all(fld.data == 0):
        return moving  # bit-exact identity
    xx, yy, zz = np.indices(moving.dims, dtype=np.float64)
    u = fld.data.astype(np.float64)
    out = _trilinear_arrays(_zero_ring(moving.data), xx + u[0], yy + u[1], zz + u[2])
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
    xx, yy, zz = np.indices(target_dims, dtype=np.float64)
    cx = np.minimum(xx / 2.0, src[0] - 1)
    cy = np.minimum(yy / 2.0, src[1] - 1)
    cz = np.minimum(zz / 2.0, src[2] - 1)
    out = np.empty((3,) + target_dims, dtype=np.float32)
    for c in range(3):
        out[c] = (2.0 * _trilinear_arrays(_zero_ring(fld.data[c]), cx, cy, cz)
                  ).astype(np.float32)
    return DisplacementField(out,
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

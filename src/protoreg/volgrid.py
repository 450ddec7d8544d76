"""Core 3D grid types: volumes, displacement fields, pyramids.

Conventions used throughout the package:
  * Volume data is float32, indexed [x, y, z] with shape (nx, ny, nz).
  * Displacement fields store (ux, uy, uz) in shape (3, nx, ny, nz);
    displacements are in voxel units of the field's own grid.
  * Sampling outside the grid returns 0 (inputs are zero-padded anyway).
  * Every trilinear sampling at arbitrary coordinates goes through a
    _Sampler built on one image: it alone holds the zero-ringed copy and
    the chunk buffers, and takes its coordinates as one (3, ...) array.
    The pyramid's transfers on the regular lattice, downsample_avg and
    upsample_field, are sums of strided views instead.
"""
from __future__ import annotations

import itertools
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

def _corner_offset(c: np.ndarray, n: int, stride: int, frac, low, o):
    """Along one axis of an array with a two-voxel ring of zeros: the
    fractional part of coordinate c into frac, 1 - frac into low, and the
    flat offset of its corner floor(c) into o; corner floor(c) + 1 lies one
    stride on."""
    np.floor(c, out=low)          # floor(c) until low becomes 1 - frac
    np.subtract(c, low, out=frac)
    # below -2 or above n both corners read the ring, so clipping floor(c)
    # into [-2, n] changes no read, and keeps both corners on the ringed
    # array; it also sends a non-finite c to the ring (fmax and fmin drop
    # NaN) and keeps the int64 cast exact
    np.fmax(low, -2.0, out=low)
    np.fmin(low, n, out=low)
    np.copyto(o, low, casting="unsafe")
    o += 2                        # ringed index
    o *= stride
    np.subtract(1.0, frac, out=low)


# voxels per x-slab of every pass that works through a whole grid (see
# _slabs): the smoothness pass, the descent's Adam step, resample_rigid, warp
# and jacobian_det
_CHUNK = 32768

# points per pass of a _Sampler, and the most its chunk buffers hold. A
# sampler's 13 float64/int64 buffers of min(_SAMPLER_CHUNK, voxels) points,
# 0.81 MiB at 8192, are allocated once, with the sampler, and reused by every
# chunk of every call: they stay in a core's L2 cache, and their pages are not
# handed back to the OS and faulted in again on every call, as per-call
# temporaries were (about 1200 minor faults per 32^3 call)
_SAMPLER_CHUNK = 8192


def _slabs(dims) -> list:
    """The x-plane slices that cut a grid of dims into slabs of about _CHUNK
    voxels, at least one plane each, the last possibly short: 8 planes at
    64^3, 2 at 128^3, and the whole grid at 32^3 and below."""
    step = max(1, _CHUNK // (dims[1] * dims[2]))
    return [slice(a, min(a + step, dims[0])) for a in range(0, dims[0], step)]


def _indices(dims, planes: slice) -> np.ndarray:
    """The float64 voxel indices (3, p, ny, nz) of the x-planes `planes`, a
    slice of _slabs(dims): np.indices(dims) over those planes."""
    index = np.indices((planes.stop - planes.start,) + tuple(dims[1:]), dtype=np.float64)
    index[0] += planes.start
    return index


class _Sampler:
    """Trilinear interpolation of one 3-D array with a zero border.

    The constructor keeps a float64 copy of arr with a two-voxel ring of
    zeros, so that a corner outside the grid reads 0 from the ring and each
    point's eight corners lie at fixed offsets from one base index, and the
    chunk buffers: the fractions and weights, the base index and two axes'
    offsets, the corner index, the gathered corner and the weighted
    product. One sampler serves any number of calls in turn (nothing
    carries over between them), but not two at once.
    """

    def __init__(self, arr: np.ndarray):
        self._ringed = np.zeros(tuple(n + 4 for n in arr.shape))
        self._ringed[2:-2, 2:-2, 2:-2] = arr
        self._size = min(_SAMPLER_CHUNK, arr.size)
        self._real = np.empty((9, self._size))
        self._index = np.empty((4, self._size), dtype=np.int64)

    def __call__(self, coords, want_grad: bool = False, out=None):
        """The array sampled at coords, a (3, ...) array of voxel
        coordinates: the value, or (value, dv/dx, dv/dy, dv/dz) when
        want_grad is set, each of shape coords.shape[1:]; derivatives are
        with respect to the continuous voxel coordinate. They are written
        into the rows of out when it is given, a float64 array of at least
        4 (1 without want_grad) rows of one entry per point, else into new
        arrays. The points are sampled in chunks of the buffers' size;
        each point's arithmetic does not depend on the chunking, so neither
        do the output bits.
        """
        coords = np.asarray(coords, dtype=np.float64)
        flat = coords.reshape(3, -1)
        rows = 4 if want_grad else 1
        outs = [np.empty(flat.shape[1]) for _ in range(rows)] if out is None else list(out[:rows])
        for o in outs:
            o.fill(0.0)
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
        nx, ny, nz = (n - 4 for n in self._ringed.shape)
        strides = ((ny + 4) * (nz + 4), nz + 4, 1)
        flat = self._ringed.ravel()
        fx, fy, fz, wx0, wy0, wz0, wxy, c, t = self._real[:, :x.size]
        base, oy, oz, idx = self._index[:, :x.size]
        _corner_offset(x, nx, strides[0], fx, wx0, base)
        _corner_offset(y, ny, strides[1], fy, wy0, oy)
        _corner_offset(z, nz, 1, fz, wz0, oz)
        base += oy                # the flat index of corner (0, 0, 0)
        base += oz
        wxs, wys, wzs = (wx0, fx), (wy0, fy), (wz0, fz)

        if grad:
            gx, gy, gz = grad
        for dx in (0, 1):
            wx = wxs[dx]
            for dy in (0, 1):
                wy = wys[dy]
                np.multiply(wx, wy, out=wxy)
                for dz in (0, 1):
                    wz = wzs[dz]
                    np.add(base, dx * strides[0] + dy * strides[1] + dz, out=idx)
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
    sample = _Sampler(moving.data)
    out = np.empty(moving.dims, dtype=np.float32)
    for planes in _slabs(moving.dims):
        out[planes] = sample(_indices(moving.dims, planes) + fld.data[:, planes])
    return Volume(out, spacing=moving.spacing, origin=moving.origin)


# ---------------------------------------------------------------------------
# pyramid construction

def _pool_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Factor-2 average pooling along one axis, in float64: each pair of
    planes summed, then halved; a trailing odd plane is its own average."""
    n = arr.shape[axis]
    h = n // 2
    shape = list(arr.shape)
    shape[axis] = n - h
    out = np.empty(shape)
    head = (slice(None),) * axis
    pooled = out[head + (slice(0, h),)]
    np.add(arr[head + (slice(0, 2 * h, 2),)], arr[head + (slice(1, 2 * h, 2),)],
           out=pooled, dtype=np.float64)
    pooled /= 2.0
    if n % 2:
        out[head + (h,)] = arr[head + (n - 1,)]
    return out


def downsample_avg(vol: Volume) -> Volume:
    """Factor-2 average pooling per axis, x, y then z, in float64 (x straight
    from the float32 data, which widens exactly); spacing doubles."""
    arr = vol.data
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

def _refine_axis(n: int, t: int) -> list:
    """The classes of fine index i along one axis of n coarse voxels
    refined to t = 2n or 2n - 1, as (fine slice, coarse slices) pairs whose
    coarse slices are the corners of i/2, each of weight 1 / their count:
    even i on coarse i/2; odd i between coarse (i-1)/2 and (i+1)/2; and,
    for t = 2n, the last i clamped to coarse n - 1."""
    pieces = [(slice(0, t, 2), (slice(0, n),))]
    if n > 1:
        pieces.append((slice(1, 2 * n - 2, 2), (slice(0, n - 1), slice(1, n))))
    if t == 2 * n:
        pieces.append((slice(t - 1, t), (slice(n - 1, n),)))
    return pieces


def upsample_field(fld: DisplacementField, target_dims) -> DisplacementField:
    """Trilinear upsampling by 2 per axis with displacement magnitudes
    doubled (voxel units change with the grid).

    Corner-aligned: fine coordinate i maps to coarse coordinate i/2,
    clamped at the far edge. Each axis's fine indices fall into the
    classes of _refine_axis; each of the (at most 27) products of classes
    is a float64 sum of shifted coarse views in the sampler's corner order
    (dx, dy, dz), scaled by 2 * wx * wy * wz and rounded to float32. The
    bits are those of trilinear sampling at the clamped i/2, doubled:
    every corner weight there is 1, 1/2 or 0, a power of two scales each
    partial sum exactly (float32 data keeps them far from float64's
    subnormals and overflow), and a corner of weight 0 adds a zero that
    changes nothing.
    """
    target_dims = _grid_dims(target_dims)
    src = fld.dims
    for a in range(3):
        if math.ceil(target_dims[a] / 2) != src[a]:
            raise ValidationError(
                f"target dims {target_dims} not a factor-2 refinement of {src}")
    out = np.empty((3,) + target_dims, dtype=np.float32)
    scratch = np.empty(fld.data.size)
    for (fx, xs), (fy, ys), (fz, zs) in itertools.product(
            *(_refine_axis(n, t) for n, t in zip(src, target_dims))):
        corners = [fld.data[:, cx, cy, cz] for cx in xs for cy in ys for cz in zs]
        acc = scratch[:corners[0].size].reshape(corners[0].shape)
        # from +0.0, as the sampler's zeroed sum: a -0.0 corner gives +0.0
        np.add(corners[0], 0.0, out=acc, dtype=np.float64)
        for c in corners[1:]:
            np.add(acc, c, out=acc)
        acc *= 2.0 / len(corners)
        out[:, fx, fy, fz] = acc
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
    one-sided at the faces (voxel units). Taken in x-slabs, each widened
    by a plane of u either side for axis 0's differences; np.gradient
    works per element, so the bits are the whole grid's."""
    if min(fld.dims) < 2:
        raise ValidationError("jacobian needs at least 2 voxels per axis")
    det = np.empty(fld.dims, dtype=np.float32)
    for planes in _slabs(fld.dims):
        lo = max(planes.start - 1, 0)
        u = fld.data[:, lo:planes.stop + 1].astype(np.float64)
        own = slice(planes.start - lo, planes.stop - lo)
        # J[i][j] = d u_i / d x_j over the slab
        J = [[np.gradient(u[i], axis=j)[own] for j in range(3)] for i in range(3)]
        for i in range(3):
            J[i][i] = J[i][i] + 1.0
        det[planes] = (J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1])
                       - J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0])
                       + J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]))
    return Volume(det, spacing=fld.spacing, origin=fld.origin)


def pad_to_shape(vol: Volume, target_dims) -> Volume:
    """Zero-pad at the high-index side up to target dims."""
    target_dims = _grid_dims(target_dims)
    if any(t < c for t, c in zip(target_dims, vol.dims)):
        raise ValidationError(f"target {target_dims} smaller than {vol.dims}")
    if target_dims == vol.dims:
        return vol
    pad = [(0, t - c) for t, c in zip(target_dims, vol.dims)]
    return Volume(np.pad(vol.data, pad), spacing=vol.spacing, origin=vol.origin)

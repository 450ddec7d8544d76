"""Deterministic synthetic phantoms and ground-truth deformation fields.

Randomness comes from a counter-based generator (splitmix64 finalizer over
seed + counter * golden-ratio increment), so fixtures reproduce bit-exactly
across platforms and processes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ValidationError, _array, _check_numbers, _finite_number, _values
from .priors import StructureSet
from .volgrid import DisplacementField, Volume, _grid_dims, _grid_spacing

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def counter_uniform(seed: int, start: int, count: int) -> np.ndarray:
    """count uniforms in [0, 1) at counter positions start..start+count-1."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    x = (np.uint64(seed & (2**64 - 1)) + (idx + np.uint64(1)) * _GOLDEN)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x.astype(np.float64) / 2.0**64


def counter_normal(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normals via Box-Muller on consecutive uniform pairs."""
    n_pairs = (count + 1) // 2
    u = counter_uniform(seed, start, 2 * n_pairs).reshape(n_pairs, 2)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]
    out = np.empty(2 * n_pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple = (64, 64, 64)
    spacing: tuple = (1.0, 1.0, 1.0)
    body_semi_axes_mm: tuple = (26.0, 24.0, 26.0)
    ctv_center_mm: tuple = (6.0, 2.0, -4.0)     # relative to volume center
    ctv_radius_mm: float = 8.0
    oars: tuple = (((-10.0, -6.0, 6.0), 6.0),)  # (center_mm, radius_mm)
    texture_amplitude: float = 0.25
    texture_corr_mm: float = 1.5
    dose_max: float = 60.0
    dose_tau_mm: float = 10.0
    seed: int = 7

    def __post_init__(self):
        _check_numbers(self)
        _grid_dims(self.dims)
        # the texture's Gaussian kernel has 2 * radius + 1 float64 taps per
        # axis, radius = int(4 sigma + 0.5) (scipy) with sigma the correlation
        # length in voxels; numpy must be able to index it
        for s in _grid_spacing(self.spacing):
            radius = 4.0 * (self.texture_corr_mm / s) + 0.5
            if not (math.isfinite(radius)
                    and 8 * (2 * int(radius) + 1) <= np.iinfo(np.intp).max):
                raise ValidationError(f"texture_corr_mm / spacing must give a Gaussian kernel "
                                      f"numpy can index, got {self.texture_corr_mm!r} / {s!r}")
        if min(_values(self.body_semi_axes_mm, "body_semi_axes_mm", 3)) <= 0:
            raise ValidationError(f"body_semi_axes_mm must be > 0, "
                                  f"got {self.body_semi_axes_mm}")
        _values(self.ctv_center_mm, "ctv_center_mm", 3)
        for oar in self.oars:
            if not (isinstance(oar, (list, tuple)) and len(oar) == 2
                    and _finite_number(oar[1])):
                raise ValidationError("each OAR must be a (center_mm, radius_mm) pair")
            _values(oar[0], "OAR center_mm", 3)
        if self.texture_corr_mm <= 0 or self.dose_max <= 0:
            raise ValidationError("texture_corr_mm and dose_max must be > 0")
        # make_phantom squares each radius and tau with **, which raises
        # where the square is beyond the float range; the dose divides by
        # tau^2, so that square must not underflow either
        for key, r, low in (("ctv_radius_mm", self.ctv_radius_mm, 0.0),
                            *(("oars radius_mm", r, 0.0) for (_, r) in self.oars),
                            ("dose_tau_mm", self.dose_tau_mm, sys.float_info.min)):
            if not (r > 0 and low <= float(r) * float(r) < math.inf):
                raise ValidationError(f"{key} must be > 0 with a square in [{low:g}, inf), "
                                      f"got {r!r}")


@dataclass(frozen=True)
class FieldSpec:
    max_displacement: float = 4.0     # voxels
    smoothing_width: float = 6.0      # voxels
    seed: int = 11

    def __post_init__(self):
        _check_numbers(self)
        if self.max_displacement < 0:
            raise ValidationError("max displacement must be >= 0")
        if self.smoothing_width <= 0:
            raise ValidationError("smoothing width must be > 0")


def _physical_coords(dims, spacing):
    """Coordinates in mm relative to the volume center."""
    axes = [(np.arange(n, dtype=np.float64) - (n - 1) / 2.0) * s
            for n, s in zip(dims, spacing)]
    return np.meshgrid(*axes, indexing="ij")


def _sphere(xx, yy, zz, center, radius):
    return ((xx - center[0]) ** 2 + (yy - center[1]) ** 2
            + (zz - center[2]) ** 2) <= radius ** 2


# a tiny semi-axis or tau can overflow a squared distance ratio to inf,
# which is the right limit (outside the body, zero dose)
@np.errstate(over="ignore")
def make_phantom(spec: PhantomSpec):
    """Build (image, structures, dose) on the spec's grid.

    The image is a smooth ellipsoidal base plus band-limited noise inside
    the body, with the CTV brightened and OARs darkened so every contour
    has image contrast. Dose falls off as a Gaussian of the distance to
    the CTV sphere surface.
    """
    xx, yy, zz = _physical_coords(spec.dims, spec.spacing)
    a, b, c = spec.body_semi_axes_mm
    r2 = (xx / a) ** 2 + (yy / b) ** 2 + (zz / c) ** 2
    body = r2 <= 1.0

    ctv = _sphere(xx, yy, zz, spec.ctv_center_mm, spec.ctv_radius_mm)
    if not ctv.any():
        raise ValidationError("CTV lies outside the grid")
    if np.any(ctv & ~body):
        raise ValidationError("CTV must lie inside the body")
    oar_masks = []
    for center, radius in spec.oars:
        m = _sphere(xx, yy, zz, center, radius)
        if np.any(m & ~body):
            raise ValidationError("OAR must lie inside the body")
        oar_masks.append(m)

    n = int(np.prod(spec.dims))
    noise = counter_normal(spec.seed, 0, n).reshape(spec.dims)
    sigma_vox = tuple(spec.texture_corr_mm / s for s in spec.spacing)
    texture = gaussian_filter(noise, sigma=sigma_vox, mode="reflect")
    t_std = texture.std()
    if t_std > 0:
        texture = texture / t_std

    img = np.zeros(spec.dims, dtype=np.float64)
    img[body] = 0.35 + 0.45 * (1.0 - r2[body])
    img += body * spec.texture_amplitude * texture
    img[ctv] += 0.25
    for m in oar_masks:
        img[m] -= 0.15

    dist_ctv = np.sqrt((xx - spec.ctv_center_mm[0]) ** 2
                       + (yy - spec.ctv_center_mm[1]) ** 2
                       + (zz - spec.ctv_center_mm[2]) ** 2)
    d_surface = np.maximum(dist_ctv - spec.ctv_radius_mm, 0.0)
    dose = spec.dose_max * np.exp(-(d_surface ** 2) / (2.0 * spec.dose_tau_mm ** 2))

    mk = lambda arr: Volume(arr.astype(np.float32), spacing=spec.spacing)
    structures = StructureSet(ctv=mk(ctv), body=mk(body),
                              oars=tuple(mk(m) for m in oar_masks))
    return mk(img), structures, mk(dose)


def make_smooth_field(dims, spec: FieldSpec, spacing=(1.0, 1.0, 1.0),
                      envelope: np.ndarray | None = None) -> DisplacementField:
    """Gaussian-smoothed white noise per component, rescaled so the maximum
    displacement norm equals spec.max_displacement.

    An optional envelope in [0, 1] of shape dims concentrates the
    deformation spatially (applied before the rescale).
    """
    dims = _grid_dims(dims)
    if envelope is not None:
        envelope = _array(envelope, "envelope", np.float64, dims)
    n = int(np.prod(dims))
    u = np.empty((3,) + dims, dtype=np.float64)
    for c in range(3):
        noise = counter_normal(spec.seed, c * n, n).reshape(dims)
        u[c] = gaussian_filter(noise, sigma=spec.smoothing_width, mode="reflect")
    if envelope is not None:
        u *= envelope[None]
    norms = np.sqrt((u * u).sum(axis=0))
    peak = norms.max()
    if spec.max_displacement == 0.0 or peak == 0.0:
        u[:] = 0.0
    else:
        u *= spec.max_displacement / peak
    return DisplacementField(u.astype(np.float32), spacing=spacing)

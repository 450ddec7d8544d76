"""Anatomy / risk prior maps, fusion, and gating.

The anatomy map combines a Gaussian proximity term around the target,
a boundary band, and organ-at-risk masks; the risk map combines dose
gradients, a high-dose isodose shell, and dose-weighted OAR regions.
Both are fused into one importance map which is turned into a soft
multiplicative update gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import ValidationError, _check_numbers
from .volgrid import Volume, same_grid

__all__ = [
    "StructureSet", "PriorParams", "signed_distance", "gaussian_proximity",
    "boundary_band", "anatomy_map", "risk_map", "fuse_priors", "gate",
]


def _check_binary(vol: Volume, name: str) -> None:
    if not np.all((vol.data == 0) | (vol.data == 1)):
        raise ValidationError(f"{name} mask must be 0/1 valued")


@dataclass(frozen=True)
class StructureSet:
    """CTV / OAR / body masks sharing one grid."""

    ctv: Volume
    body: Volume
    oars: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "oars", tuple(self.oars))
        _check_binary(self.ctv, "ctv")
        _check_binary(self.body, "body")
        for i, o in enumerate(self.oars):
            _check_binary(o, f"oar[{i}]")
        if not same_grid(self.ctv, self.body, *self.oars):
            raise ValidationError("structure grids differ")

    def oar_union(self) -> np.ndarray:
        out = np.zeros(self.ctv.dims, dtype=np.float64)
        for o in self.oars:
            out = np.maximum(out, o.data)
        return out


@dataclass(frozen=True)
class PriorParams:
    """Tunable constants for prior construction; defaults are documented
    in the README and overridable through the JSON config."""

    sigma_mm: float = 10.0
    band_mm: float = 3.0
    w_prox: float = 0.5
    w_band: float = 0.3
    w_oar: float = 0.2
    w_grad: float = 0.4
    w_iso: float = 0.3
    w_doseoar: float = 0.3
    isodose_fraction: float = 0.9
    fusion_alpha: float = 0.5
    gate_steepness: float = 6.0
    gate_center: float = 0.25
    gate_floor: float = 0.5

    def __post_init__(self):
        _check_numbers(self)
        if self.sigma_mm <= 0:
            raise ValidationError("sigma_mm must be > 0")
        if self.band_mm < 0:
            raise ValidationError("band_mm must be >= 0")
        for w in (self.w_prox, self.w_band, self.w_oar,
                  self.w_grad, self.w_iso, self.w_doseoar):
            if w < 0:
                raise ValidationError("prior weights must be nonnegative")
        if not 0.0 < self.isodose_fraction <= 1.0:
            raise ValidationError("isodose_fraction must lie in (0, 1]")
        if not 0.0 <= self.fusion_alpha <= 1.0:
            raise ValidationError("fusion_alpha must lie in [0, 1]")
        if not 0.0 <= self.gate_floor <= 1.0:
            raise ValidationError("gate_floor must lie in [0, 1]")


def _prior(data: np.ndarray, like: Volume) -> Volume:
    return Volume(np.clip(data, 0.0, 1.0).astype(np.float32),
                  spacing=like.spacing, origin=like.origin)


def _edt_in_box(fill: np.ndarray, spacing) -> np.ndarray:
    """distance_transform_edt(fill, sampling=spacing), computed on the
    bounding box of fill's True voxels grown by one voxel (within the grid).

    Every voxel of that margin is False, and any False voxel outside the box
    clamps onto one that is no farther from a voxel inside it, so the exact
    distances are the whole grid's; outside the box they are 0 as there.
    """
    box = []
    for k in range(3):
        hit = np.flatnonzero(fill.any(axis=tuple(a for a in range(3) if a != k)))
        box.append(slice(max(hit[0] - 1, 0), hit[-1] + 2))
    box = tuple(box)
    out = np.zeros(fill.shape)
    out[box] = distance_transform_edt(fill[box], sampling=spacing)
    return out


def signed_distance(mask: Volume) -> Volume:
    """Exact Euclidean signed distance in mm, negative inside the mask.

    Outside voxels get the distance to the nearest inside voxel center and
    vice versa, so signed_distance(mask) == -signed_distance(complement).
    Each side's distances are taken on the box of the voxels it fills
    (_edt_in_box), so a small target costs a small transform.
    """
    _check_binary(mask, "mask")
    inside = mask.data > 0.5
    if not inside.any():
        raise ValidationError("mask is empty; boundary undefined")
    if inside.all():
        raise ValidationError("mask covers the whole grid; boundary undefined")
    d_out = _edt_in_box(~inside, mask.spacing)
    d_in = _edt_in_box(inside, mask.spacing)
    return Volume((d_out - d_in).astype(np.float32),
                  spacing=mask.spacing, origin=mask.origin)


def gaussian_proximity(sdf: Volume, sigma_mm: float) -> Volume:
    """exp(-max(d,0)^2 / 2 sigma^2); saturates at 1 inside the target."""
    try:
        two_var = 2.0 * sigma_mm ** 2
    except OverflowError:       # sigma_mm past 1e154: exp(-0) = 1 everywhere
        two_var = math.inf
    if not (sigma_mm > 0 and two_var > 0):
        raise ValidationError(f"sigma_mm must be > 0 with a square > 0, got {sigma_mm}")
    d = np.maximum(sdf.data.astype(np.float64), 0.0)
    with np.errstate(over="ignore"):    # a tiny sigma_mm: exp(-inf) = 0
        return _prior(np.exp(-(d * d) / two_var), sdf)


def boundary_band(sdf: Volume, band_mm: float) -> Volume:
    """Indicator of |d| <= band_mm."""
    if band_mm < 0:
        raise ValidationError("band_mm must be >= 0")
    with np.errstate(over="ignore"):    # band_mm past float32: an inf band
        return _prior(np.abs(sdf.data) <= band_mm, sdf)


def anatomy_map(structures: StructureSet, params: PriorParams) -> Volume:
    """Weighted sum of CTV proximity, boundary band, and OAR union,
    clamped to [0, 1]."""
    sdf = signed_distance(structures.ctv)
    prox = gaussian_proximity(sdf, params.sigma_mm).data.astype(np.float64)
    band = boundary_band(sdf, params.band_mm).data.astype(np.float64)
    oar = structures.oar_union()
    return _prior(params.w_prox * prox + params.w_band * band + params.w_oar * oar,
                  structures.ctv)


def risk_map(dose: Volume, structures: StructureSet, params: PriorParams) -> Volume:
    """Dose-derived spatial prior: normalized dose gradient magnitude,
    high-dose isodose shell, and dose-weighted OAR union."""
    if not same_grid(dose, structures.ctv):
        raise ValidationError("dose grid differs from structure grid")
    d = dose.data.astype(np.float64)
    if np.any(d < 0):
        raise ValidationError("dose must be nonnegative")
    dmax = d.max()
    if dmax <= 0:
        raise ValidationError("dose is identically zero")
    dn = d / dmax
    gx, gy, gz = (np.gradient(dn, axis=a) / dose.spacing[a] for a in range(3))
    g = np.sqrt(gx * gx + gy * gy + gz * gz)
    gmax = g.max()
    if gmax > 0:
        g = g / gmax
    iso = (dn >= params.isodose_fraction).astype(np.float64)
    doar = dn * structures.oar_union()
    return _prior(params.w_grad * g + params.w_iso * iso + params.w_doseoar * doar,
                  dose)


def fuse_priors(anatomy: Volume, risk: Volume, alpha: float) -> Volume:
    """Convex blend alpha * anatomy + (1 - alpha) * risk."""
    if not same_grid(anatomy, risk):
        raise ValidationError("prior grids differ")
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError("alpha must lie in [0, 1]")
    return _prior(alpha * anatomy.data.astype(np.float64)
                  + (1.0 - alpha) * risk.data.astype(np.float64), anatomy)


def gate(prior: Volume, params: PriorParams) -> Volume:
    """Multiplicative update gate on the prior's own grid.

    The prior is squashed with sigmoid(s * (P - c)) and lifted onto
    [floor, 1), so updates are amplified in important regions but never
    suppressed below the floor. `register` gates each pyramid level with
    the fused prior pooled to that level.
    """
    # a steepness or center far out overflows to exp(+-inf), which gives
    # the sigmoid's limits 0 and 1 exactly
    with np.errstate(over="ignore"):
        g = 1.0 / (1.0 + np.exp(-params.gate_steepness
                                * (prior.data.astype(np.float64) - params.gate_center)))
    m = params.gate_floor + (1.0 - params.gate_floor) * g
    return prior.with_data(m)

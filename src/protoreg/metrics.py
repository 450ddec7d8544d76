"""Evaluation metrics: masked MSE, SSIM, relative volume difference,
endpoint error, and fold fraction."""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import ValidationError
from .similarity import masked_ncc
from .volgrid import DisplacementField, Volume, jacobian_det, same_grid

SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_WINDOW = 7


@dataclass(frozen=True)
class EndpointStats:
    mean: float
    median: float
    p95: float


@dataclass(frozen=True)
class MetricReport:
    ncc_pct: float
    mse: float
    ssim_pct: float
    fold_fraction_pct: float | None = None
    relvoldiff_pct: float | None = None
    endpoint_error: EndpointStats | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        return {k: v for k, v in d.items() if v is not None}


def mse(fixed: Volume, warped: Volume, mask: Volume) -> float:
    """Mean squared intensity difference over masked voxels."""
    if not same_grid(fixed, warped, mask):
        raise ValidationError("fixed, warped and mask grids differ")
    m = mask.data > 0
    if not m.any():
        raise ValidationError("mask is empty")
    diff = fixed.data.astype(np.float64)[m] - warped.data.astype(np.float64)[m]
    return float((diff * diff).mean())


def _window_sums(arr: np.ndarray) -> np.ndarray:
    # uniform_filter with constant padding, rescaled back to window sums;
    # dividing by the in-grid count afterwards realizes clipped windows
    return uniform_filter(arr, size=SSIM_WINDOW, mode="constant", cval=0.0) \
        * float(SSIM_WINDOW ** 3)


def ssim(fixed: Volume, warped: Volume, mask: Volume) -> float:
    """Mean local SSIM over masked voxel centers.

    Uniform 7^3 windows, clipped at the faces; dynamic range is the
    fixed image's masked max - min.
    """
    if not same_grid(fixed, warped, mask):
        raise ValidationError("fixed, warped and mask grids differ")
    m = mask.data > 0
    if not m.any():
        raise ValidationError("mask is empty")
    a = fixed.data.astype(np.float64)
    b = warped.data.astype(np.float64)
    dyn = float(a[m].max() - a[m].min())
    if dyn == 0.0:
        raise ValidationError("fixed image has zero dynamic range inside the mask")
    c1 = (SSIM_K1 * dyn) ** 2
    c2 = (SSIM_K2 * dyn) ** 2

    count = _window_sums(np.ones_like(a))
    mu_a = _window_sums(a) / count
    mu_b = _window_sums(b) / count
    var_a = _window_sums(a * a) / count - mu_a * mu_a
    var_b = _window_sums(b * b) / count - mu_b * mu_b
    cov = _window_sums(a * b) / count - mu_a * mu_b
    s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) \
        / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(s[m].mean())


def relvoldiff(ctv_fixed: Volume, ctv_propagated: Volume) -> float:
    """100 * |V_ref - V_prop| / V_ref using physical voxel volume."""
    if not same_grid(ctv_fixed, ctv_propagated):
        raise ValidationError("CTV grids differ")
    voxel = float(np.prod(ctv_fixed.spacing))
    v_ref = float((ctv_fixed.data > 0).sum()) * voxel
    v_prop = float((ctv_propagated.data > 0).sum()) * voxel
    if v_ref == 0.0:
        raise ValidationError("reference CTV is empty")
    return 100.0 * abs(v_ref - v_prop) / v_ref


def endpoint_error(fld: DisplacementField, truth: DisplacementField,
                   mask: Volume | None = None) -> EndpointStats:
    """Stats of the per-voxel Euclidean norm of (field - truth), voxels."""
    if not same_grid(fld, truth, mask):
        raise ValidationError("field, truth and mask grids differ")
    d = fld.data.astype(np.float64) - truth.data.astype(np.float64)
    err = np.sqrt((d * d).sum(axis=0))
    if mask is not None:
        err = err[mask.data > 0]
        if err.size == 0:
            raise ValidationError("mask is empty")
    return EndpointStats(mean=float(err.mean()),
                         median=float(np.median(err)),
                         p95=float(np.percentile(err, 95)))


def fold_fraction(fld: DisplacementField, det: Volume | None = None) -> float:
    """Percentage of interior voxels with non-positive Jacobian determinant;
    det is jacobian_det(fld) when the caller has it already."""
    det = (jacobian_det(fld) if det is None else det).data
    interior = det[1:-1, 1:-1, 1:-1]
    if interior.size == 0:
        interior = det
    return 100.0 * float((interior <= 0).sum()) / float(interior.size)


def metric_report(fixed: Volume, warped: Volume, mask: Volume,
                  fld: DisplacementField | None = None,
                  ctv_fixed: Volume | None = None,
                  ctv_propagated: Volume | None = None,
                  truth: DisplacementField | None = None,
                  epe_mask: Volume | None = None) -> MetricReport:
    """Image similarity inside mask; with a field, its fold fraction and,
    given the true field, the endpoint error inside epe_mask; with both
    CTVs, their relative volume difference. Every input given must lie on
    the fixed image's grid."""
    if not same_grid(fixed, warped, mask, fld, truth, epe_mask, ctv_fixed,
                     ctv_propagated):
        raise ValidationError("metric inputs lie on different grids")
    has_ctvs = ctv_fixed is not None and ctv_propagated is not None
    # keyword arguments are evaluated in order: NCC, MSE, SSIM, fold
    # fraction, EPE, relvoldiff, so the first failing check is always the same
    return MetricReport(
        ncc_pct=100.0 * masked_ncc(fixed, warped, mask),
        mse=mse(fixed, warped, mask),
        ssim_pct=100.0 * ssim(fixed, warped, mask),
        fold_fraction_pct=fold_fraction(fld) if fld is not None else None,
        endpoint_error=endpoint_error(fld, truth, mask=epe_mask)
        if fld is not None and truth is not None else None,
        relvoldiff_pct=relvoldiff(ctv_fixed, ctv_propagated) if has_ctvs else None,
    )

"""Rigid pre-alignment and the coarse-to-fine variational optimizer.

The deformable solver minimizes -maskedNCC + lambda * smoothness over a
pyramid, refining a residual field per level and composing additively
with the upsampled coarser field. Prior maps can reweight the similarity
term and gate the raw updates; a FiLM stage can modulate the fused prior.
Only loss-improving iterates are accepted, so the per-level loss sequence
is monotone by construction.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .condition import AdapterWeights, adapter, film, FeatureGrid, mean_embedding
from .errors import ValidationError, _known_keys
from .metrics import fold_fraction
from .priors import PriorParams, StructureSet, anatomy_map, fuse_priors, gate, risk_map
from .similarity import LossBreakdown, loss_gradient, total_loss
from .volgrid import (DisplacementField, Volume, _identity_coords,
                      _trilinear_arrays, build_pyramid, compose_additive,
                      downsample_avg, upsample_field, warp, zero_field)


def _wrap_angle(a: float) -> float:
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def _axis_rotations(rotation) -> tuple:
    """Rx, Ry, Rz of the Euler angles (rx, ry, rz); R = Rz @ Ry @ Rx."""
    rx, ry, rz = rotation
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return Rx, Ry, Rz


# generators of rotations about x, y, z: d/da Ra(a) = K_a @ Ra(a)
_KX = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
_KY = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
_KZ = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]])


@dataclass(frozen=True)
class RigidTransform:
    """Euler-angle (x, y, z order) rotation about a center plus translation,
    both in physical mm."""

    rotation: tuple = (0.0, 0.0, 0.0)
    translation: tuple = (0.0, 0.0, 0.0)
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for t in (self.rotation, self.translation, self.center):
            if len(t) != 3 or not all(math.isfinite(v) for v in t):
                raise ValidationError("rigid transform parameters must be 3 finite values")
        object.__setattr__(self, "rotation",
                           tuple(_wrap_angle(float(a)) for a in self.rotation))
        object.__setattr__(self, "translation", tuple(float(v) for v in self.translation))
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def matrix(self) -> np.ndarray:
        Rx, Ry, Rz = _axis_rotations(self.rotation)
        return Rz @ Ry @ Rx


@dataclass(frozen=True)
class RegConfig:
    levels: int = 5
    iterations: tuple = (40, 60, 80, 100, 100)   # coarse -> fine
    step_size: float = 0.5                       # voxels
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    lambda_smooth: float = 0.2
    prior_weight_kappa: float = 1.0
    use_anatomy: bool = False
    use_risk: bool = False
    use_gate: bool = False
    use_film: bool = False
    prior_params: PriorParams = field(default_factory=PriorParams)
    convergence_tol: float = 1e-5
    convergence_window: int = 5
    rigid_levels: int = 3
    rigid_iterations: tuple = (150, 75)
    seed: int = 0

    def __post_init__(self):
        if self.levels < 1:
            raise ValidationError("levels must be >= 1")
        if len(self.iterations) == 0 or len(self.rigid_iterations) == 0:
            raise ValidationError("iterations and rigid_iterations must be nonempty")
        if any(i < 0 for i in (*self.iterations, *self.rigid_iterations)):
            raise ValidationError("iteration counts must be >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if self.convergence_window < 1:
            raise ValidationError("convergence_window must be >= 1")
        if self.step_size <= 0:
            raise ValidationError("step size must be > 0")
        if self.lambda_smooth < 0:
            raise ValidationError("lambda_smooth must be >= 0")
        object.__setattr__(self, "iterations", tuple(int(i) for i in self.iterations))
        object.__setattr__(self, "rigid_iterations",
                           tuple(int(i) for i in self.rigid_iterations))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["iterations"] = list(self.iterations)
        d["rigid_iterations"] = list(self.rigid_iterations)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RegConfig":
        kwargs = _known_keys(cls, d, "config")
        pp = kwargs.pop("prior_params", None)
        if pp is not None:
            kwargs["prior_params"] = PriorParams(**_known_keys(PriorParams, pp,
                                                               "prior_params"))
        return cls(**kwargs)


@dataclass(frozen=True)
class LevelReport:
    level: int
    dims: tuple
    iterations_used: int
    initial_loss: float
    final_loss: float
    trajectory: tuple
    wall_time_s: float


@dataclass(frozen=True)
class RegReport:
    levels: tuple
    final: LossBreakdown
    fold_fraction_pct: float
    flags: tuple = ()

    def to_dict(self) -> dict:
        # wall-clock times are reported separately (CLI timing.json) so two
        # identical runs serialize to byte-identical report files
        levels = []
        for l in self.levels:
            d = asdict(l) | {"dims": list(l.dims), "trajectory": list(l.trajectory)}
            d.pop("wall_time_s")
            levels.append(d)
        return {
            "levels": levels,
            "final": asdict(self.final),
            "fold_fraction_pct": self.fold_fraction_pct,
            "flags": list(self.flags),
        }

    def timing(self) -> dict:
        return {f"level_{l.level}": l.wall_time_s for l in self.levels}


# ---------------------------------------------------------------------------
# rigid pre-alignment

def _physical_center(vol: Volume) -> tuple:
    return tuple(o + (n - 1) / 2.0 * s
                 for o, n, s in zip(vol.origin, vol.dims, vol.spacing))


def _rigid_voxels(moving: Volume, like: Volume, t: RigidTransform):
    """Continuous voxel coordinates in moving of the rigidly transformed
    physical positions of like's voxel centers, shape (3, nx, ny, nz), and
    those centers relative to the rotation center in mm."""
    xx, yy, zz = _identity_coords(like.dims)
    pts = np.stack([xx * like.spacing[0] + like.origin[0],
                    yy * like.spacing[1] + like.origin[1],
                    zz * like.spacing[2] + like.origin[2]])
    c = np.array(t.center).reshape(3, 1, 1, 1)
    tr = np.array(t.translation).reshape(3, 1, 1, 1)
    rel = pts - c
    moved = np.einsum("ij,jxyz->ixyz", t.matrix(), rel) + c + tr
    vox = np.stack([(moved[a] - moving.origin[a]) / moving.spacing[a]
                    for a in range(3)])
    return vox, rel


def resample_rigid(moving: Volume, like: Volume, t: RigidTransform) -> Volume:
    """Sample moving at the rigidly transformed physical positions of
    like's voxel centers."""
    vox, _ = _rigid_voxels(moving, like, t)
    out = _trilinear_arrays(moving.data, vox[0], vox[1], vox[2])
    return Volume(out.astype(np.float32), spacing=like.spacing, origin=like.origin)


def _rigid_field(fixed: Volume, moving: Volume, params: np.ndarray, center):
    """The rigid parameters (rx, ry, rz, tx, ty, tz) as the displacement
    field u(x) = voxel(T(x)) - x on fixed's grid, so the deformable
    objective scores them. Also returns the voxel centers relative to the
    rotation center."""
    t = RigidTransform(rotation=tuple(params[:3]), translation=tuple(params[3:]),
                       center=center)
    vox, rel = _rigid_voxels(moving, fixed, t)
    u = vox - np.stack(_identity_coords(fixed.dims))
    return rel, DisplacementField(u, spacing=fixed.spacing, origin=fixed.origin)


def _rigid_loss(fixed: Volume, moving: Volume, mask: Volume,
                params: np.ndarray, center) -> float:
    """-maskedNCC of the rigidly resampled moving image."""
    _, fld = _rigid_field(fixed, moving, params, center)
    return total_loss(fixed, moving, fld, mask, 0.0).total


def _rigid_gradient(fixed: Volume, moving: Volume, mask: Volume,
                    params: np.ndarray, center) -> np.ndarray:
    """Analytic d(_rigid_loss)/d(params): dL/du chained through
    T(x) = R (x - c) + c + t. Per mm, dL/dt is the voxel sum of dL/dT(x)
    and dL/dr_k = <dR/dr_k, sum_x dL/dT(x) (x - c)^T>."""
    rel, fld = _rigid_field(fixed, moving, params, center)
    g = loss_gradient(fixed, moving, fld, mask, 0.0).data.astype(np.float64)
    g /= np.array(moving.spacing).reshape(3, 1, 1, 1)
    moments = np.einsum("axyz,bxyz->ab", g, rel)
    Rx, Ry, Rz = _axis_rotations(params[:3])
    d_rot = [float((dR * moments).sum()) for dR in
             (Rz @ Ry @ _KX @ Rx, Rz @ _KY @ Ry @ Rx, _KZ @ Rz @ Ry @ Rx)]
    return np.array(d_rot + [float(v) for v in g.sum(axis=(1, 2, 3))])


def rigid_align(fixed: Volume, moving: Volume, mask: Volume,
                config: RegConfig | None = None):
    """Six-parameter gradient descent maximizing masked NCC at the
    coarsest rigid pyramid level, refined one level up.

    Each trial is scored with the deformable objective (lambda = 0) on the
    displacement field the rigid transform induces, and differentiated
    with its analytic gradient. Returns the transform and the moving image
    resampled at full resolution.
    """
    config = config or RegConfig()
    if fixed.dims != moving.dims or fixed.dims != mask.dims:
        raise ValidationError("rigid_align requires one shared grid")
    if int((mask.data > 0).sum()) < 8:
        raise ValidationError("mask too small for rigid alignment")
    center = _physical_center(fixed)
    fpyr = build_pyramid(fixed, config.rigid_levels)
    mpyr = build_pyramid(moving, config.rigid_levels)
    kpyr = build_pyramid(mask, config.rigid_levels)
    n_levels = len(fpyr)
    params = np.zeros(6)
    stages = [n_levels - 1]
    if n_levels > 1:
        stages.append(n_levels - 2)
    for stage_idx, li in enumerate(stages):
        f_l, m_l, k_l = fpyr[li], mpyr[li], kpyr[li]
        w = (k_l.data > 0.5).astype(np.float32)
        if w.sum() < 2:
            w = np.ones_like(w)
        w_l = k_l.with_data(w)
        iters = config.rigid_iterations[min(stage_idx, len(config.rigid_iterations) - 1)]
        lr = np.array([0.01] * 3 + [0.25 * min(f_l.spacing)] * 3) / (2.0 ** stage_idx)
        m1 = np.zeros(6)
        m2 = np.zeros(6)
        cur = _rigid_loss(f_l, m_l, w_l, params, center)
        damp = 1.0
        for it in range(iters):
            g = _rigid_gradient(f_l, m_l, w_l, params, center)
            m1 = 0.9 * m1 + 0.1 * g
            m2 = 0.999 * m2 + 0.001 * g * g
            mh = m1 / (1.0 - 0.9 ** (it + 1))
            vh = m2 / (1.0 - 0.999 ** (it + 1))
            step = damp * lr * mh / (np.sqrt(vh) + 1e-12)
            accepted = False
            for f in (1.0, 0.5, 0.25, 0.125):
                cand = params - f * step
                val = _rigid_loss(f_l, m_l, w_l, cand, center)
                if val <= cur:
                    params, cur = cand, val
                    accepted = True
                    # recover step size slowly after a run of rejections
                    damp = min(1.0, damp * 2.0)
                    break
            if not accepted:
                # all factors overshoot; shrink persistently so later
                # iterations probe a smaller trust region
                damp *= 0.25
                if damp * np.abs(step).max() < 1e-10:
                    break
    transform = RigidTransform(rotation=tuple(params[:3]),
                               translation=tuple(params[3:]), center=center)
    return transform, resample_rigid(moving, fixed, transform)


# ---------------------------------------------------------------------------
# deformable registration

def warp_contour(mask: Volume, fld: DisplacementField) -> Volume:
    """Warp a binary mask as a real image and re-binarize at 0.5."""
    if mask.dims != fld.dims:
        raise ValidationError("mask/field dims differ")
    warped = warp(mask, fld)
    return mask.with_data((warped.data >= 0.5).astype(np.float32))


def _build_fused_prior(fixed: Volume, config: RegConfig,
                       structures: StructureSet | None, dose: Volume | None,
                       embeddings, adapter_weights: AdapterWeights | None,
                       flags: list) -> Volume | None:
    amap = rmap = None
    if config.use_anatomy:
        if structures is None or not (structures.ctv.data > 0).any():
            raise ValidationError("use_anatomy requires a nonempty CTV")
        amap = anatomy_map(structures, config.prior_params)
    if config.use_risk:
        if dose is None:
            raise ValidationError("use_risk requires a dose volume")
        if structures is None:
            raise ValidationError("use_risk requires structures for OAR weighting")
        rmap = risk_map(dose, structures, config.prior_params)
    if amap is not None and rmap is not None:
        fused = fuse_priors(amap, rmap, config.prior_params.fusion_alpha)
    else:
        fused = amap or rmap
    if fused is None:
        return None
    if config.use_film:
        if not embeddings:
            raise ValidationError("use_film requires at least one embedding")
        weights = adapter_weights or AdapterWeights.identity(1)
        fp = adapter(mean_embedding(embeddings), weights, 1)
        modulated = film(FeatureGrid(fused.data[None].astype(np.float64)), fp)
        fused = fused.with_data(np.clip(modulated.data[0], 0.0, 1.0))
        flags.append("film_applied")
    return fused


def _binary_level(mask_level: Volume) -> Volume:
    return mask_level.with_data((mask_level.data >= 0.5).astype(np.float32))


def register(fixed: Volume, moving: Volume, config: RegConfig | None = None,
             structures: StructureSet | None = None, dose: Volume | None = None,
             embeddings=(), adapter_weights: AdapterWeights | None = None):
    """Coarse-to-fine minimization of the masked-NCC + smoothness loss.

    Returns (full-resolution DisplacementField, RegReport). Inputs are
    assumed padded to one grid and rigidly pre-aligned.
    """
    config = config or RegConfig()
    if fixed.dims != moving.dims:
        raise ValidationError("fixed/moving grids differ")
    flags: list = []

    mask = structures.body if structures is not None else \
        Volume(np.ones(fixed.dims, dtype=np.float32), spacing=fixed.spacing,
               origin=fixed.origin)
    fused = _build_fused_prior(fixed, config, structures, dose,
                               list(embeddings), adapter_weights, flags)

    fpyr = build_pyramid(fixed, config.levels)
    mpyr = build_pyramid(moving, config.levels)
    kpyr = build_pyramid(mask, config.levels)
    n_levels = len(fpyr)
    if n_levels < config.levels:
        flags.append(f"levels_reduced_to_{n_levels}")

    prior_levels = [None] * n_levels
    gate_levels = [None] * n_levels
    if fused is not None:
        p = fused
        for li in range(n_levels):
            if li > 0:
                p = downsample_avg(p)
            prior_levels[li] = p
            if config.use_gate:
                g = gate(p, config.prior_params, 1)
                gate_levels[li] = g.data.astype(np.float64)[None]

    iters = list(config.iterations)
    while len(iters) < n_levels:
        iters.append(iters[-1])
    # config lists iterations coarse -> fine; pyramid index 0 is finest
    iters_by_index = list(reversed(iters[:n_levels]))

    phi = None
    level_reports = []
    for li in range(n_levels - 1, -1, -1):
        t0 = time.perf_counter()
        f_l, m_l = fpyr[li], mpyr[li]
        k_l = _binary_level(kpyr[li])
        if int((k_l.data > 0).sum()) < 2:
            k_l = k_l.with_data(np.ones(f_l.dims, dtype=np.float32))
            flags.append(f"mask_degenerate_at_level_{li + 1}")
        w_l = prior_levels[li]
        g_l = gate_levels[li]
        up = upsample_field(phi, f_l.dims) if phi is not None else zero_field(f_l)

        delta = np.zeros((3,) + f_l.dims, dtype=np.float64)
        m1 = np.zeros_like(delta)
        m2 = np.zeros_like(delta)
        up_data = up.data.astype(np.float64)

        def loss_at(d):
            fld = DisplacementField((up_data + d).astype(np.float32),
                                    spacing=f_l.spacing, origin=f_l.origin)
            return total_loss(f_l, m_l, fld, k_l, config.lambda_smooth,
                              weights=w_l, kappa=config.prior_weight_kappa)

        cur = loss_at(delta)
        if not math.isfinite(cur.total):
            raise ValidationError(f"non-finite loss at level {li + 1}")
        initial_loss = cur.total
        trajectory = [cur.total]
        used = 0
        for it in range(iters_by_index[li]):
            fld = DisplacementField((up_data + delta).astype(np.float32),
                                    spacing=f_l.spacing, origin=f_l.origin)
            grad = loss_gradient(f_l, m_l, fld, k_l, config.lambda_smooth,
                                 weights=w_l, kappa=config.prior_weight_kappa) \
                .data.astype(np.float64)
            m1 = config.beta1 * m1 + (1.0 - config.beta1) * grad
            m2 = config.beta2 * m2 + (1.0 - config.beta2) * grad * grad
            mh = m1 / (1.0 - config.beta1 ** (it + 1))
            vh = m2 / (1.0 - config.beta2 ** (it + 1))
            step = config.step_size * mh / (np.sqrt(vh) + config.adam_eps)
            if g_l is not None:
                step = step * g_l
            for f in (1.0, 0.5, 0.25, 0.125):
                cand = delta - f * step
                val = loss_at(cand)
                if not math.isfinite(val.total):
                    continue
                if val.total <= cur.total:
                    delta, cur = cand, val
                    break
            used = it + 1
            trajectory.append(cur.total)
            if len(trajectory) > config.convergence_window:
                prev = trajectory[-1 - config.convergence_window]
                rel = abs(prev - cur.total) / max(abs(prev), 1e-12)
                if rel < config.convergence_tol:
                    break
        phi = compose_additive(up, DisplacementField(
            delta.astype(np.float32), spacing=f_l.spacing, origin=f_l.origin))
        level_reports.append(LevelReport(
            level=li + 1, dims=f_l.dims, iterations_used=used,
            initial_loss=initial_loss, final_loss=cur.total,
            trajectory=tuple(trajectory),
            wall_time_s=time.perf_counter() - t0))

    final = total_loss(fixed, moving, phi, _binary_level(kpyr[0]),
                       config.lambda_smooth, weights=prior_levels[0],
                       kappa=config.prior_weight_kappa)
    if final.degenerate:
        flags.append("degenerate_variance")
    report = RegReport(levels=tuple(level_reports), final=final,
                       fold_fraction_pct=fold_fraction(phi),
                       flags=tuple(flags))
    return phi, report

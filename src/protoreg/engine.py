"""Rigid pre-alignment and the coarse-to-fine variational optimizer.

The deformable solver minimizes -maskedNCC + lambda * smoothness over a
pyramid: each level descends on the whole field, starting from the
upsampled field of the coarser level, and returns the field it scored
last. Prior maps can reweight the similarity term and gate the raw
updates; a FiLM stage can modulate the fused prior. An iterate is
accepted only if it does not raise the loss, so the per-level loss
sequence never rises by construction.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .condition import AdapterWeights, adapter, film, FeatureGrid, mean_embedding
from .errors import ValidationError, _check_numbers, _integer, _known_keys, _values
from .metrics import fold_fraction
from .priors import (PriorParams, StructureSet, _check_binary, anatomy_map, fuse_priors,
                     gate, risk_map)
# the solver never calls total_loss or loss_gradient; they stay bound here only
# because bench/tracing.py looks them up, until the tracer wraps Objective's
# methods instead
from .similarity import LossBreakdown, Objective, loss_gradient, total_loss
from .volgrid import (DisplacementField, Volume, _trilinear_arrays, _zero_ring,
                      build_pyramid, same_grid, upsample_field, warp, zero_field)


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
        for name in ("rotation", "translation", "center"):
            values = tuple(float(v) for v in _values(getattr(self, name), name, 3))
            object.__setattr__(self, name, values)
        object.__setattr__(self, "rotation", tuple(map(_wrap_angle, self.rotation)))

    def matrix(self) -> np.ndarray:
        Rx, Ry, Rz = _axis_rotations(self.rotation)
        return Rz @ Ry @ Rx


@dataclass(frozen=True)
class RegConfig:
    levels: int = 5
    iterations: tuple = (40, 60, 80, 100, 100)   # coarse -> fine
    lambda_smooth: float = 0.2
    use_anatomy: bool = False
    use_risk: bool = False
    use_gate: bool = False
    use_film: bool = False
    prior_params: PriorParams = field(default_factory=PriorParams)
    convergence_tol: float = 1e-5
    rigid_iterations: tuple = (150, 75)

    def __post_init__(self):
        _check_numbers(self)
        if self.levels < 1:
            raise ValidationError("levels must be >= 1")
        iterations = _values(self.iterations, "iterations", ok=_integer)
        rigid_iterations = _values(self.rigid_iterations, "rigid_iterations", ok=_integer)
        if len(iterations) == 0 or not 1 <= len(rigid_iterations) <= 2:
            raise ValidationError("iterations must be nonempty and rigid_iterations must "
                                  "hold 1 or 2 budgets, one per rigid stage")
        if min(iterations + rigid_iterations) < 0:
            raise ValidationError("iteration counts must be >= 0")
        if self.lambda_smooth < 0:
            raise ValidationError("lambda_smooth must be >= 0")
        if (self.use_gate or self.use_film) and not (self.use_anatomy or self.use_risk):
            # both act on the fused prior, so without one they would do nothing
            raise ValidationError("use_gate and use_film require use_anatomy or use_risk")
        object.__setattr__(self, "iterations", tuple(int(i) for i in iterations))
        object.__setattr__(self, "rigid_iterations", tuple(int(i) for i in rigid_iterations))

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
    # the level's descent counters (see _descend)
    stop_reason: str
    evaluations: int
    accepted: dict
    rejected: int


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
# level inputs and descent shared by the rigid stages and the pyramid levels

# fixed optimizer settings, not RegConfig keys: each pyramid level's Adam
# step and epsilon, every descent's convergence window, the depth of the
# rigid pyramid, the line search's ladder of step factors and the number of
# consecutive first-trial accepts after which it moves one rung up
LEVEL_STEP = 0.125     # voxels; small enough that most first trials are taken
LEVEL_EPS = 1e-8
LEVEL_WINDOW = 5
RIGID_LEVELS = 3
STEP_FACTORS = (1.0, 0.5, 0.25, 0.125)
STEP_UP_AFTER = 3


def _descend(evaluate, x, lr, iterations, eps, tol, scale=1.0):
    """Adam (betas 0.9, 0.999) from x with backtracking down STEP_FACTORS:
    the first trial whose loss is finite and not higher is taken, so the
    trajectory (initial loss, then one per iteration) never rises.

    evaluate(x) returns (loss, gradient) from one warp, so the trial taken
    hands its gradient to the next iteration. Each iteration starts at the
    factor taken last, and one rung higher after STEP_UP_AFTER consecutive
    first-trial accepts. An iteration that takes no trial keeps x, the
    start factor and the gradient. scale multiplies each step per component.
    Stops after `iterations`, or once the loss changed by less than tol,
    relative, over LEVEL_WINDOW iterations (tol 0 never stops early).

    Returns (x, trajectory, counters). The counters are deterministic:
    stop_reason ("converged" by the window rule, or "iteration_cap"); the
    calls to evaluate (`evaluations`); the iterations that took each factor
    (`accepted`, keyed "1" to "0.125") and those that took none
    (`rejected`)."""
    cur, g = evaluate(x)
    if not math.isfinite(cur):
        raise ValidationError("non-finite loss at the start of a descent")
    trajectory = [cur]
    evaluations, rejected = 1, 0
    accepted = [0] * len(STEP_FACTORS)
    start, streak = 0, 0
    stop_reason = "iteration_cap"
    beta1, beta2 = 0.9, 0.999
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    for it in range(iterations):
        m1 = beta1 * m1 + (1.0 - beta1) * g
        m2 = beta2 * m2 + (1.0 - beta2) * g * g
        step = (lr * (m1 / (1.0 - beta1 ** (it + 1)))
                / (np.sqrt(m2 / (1.0 - beta2 ** (it + 1))) + eps) * scale)
        taken = None
        for k in range(start, len(STEP_FACTORS)):
            cand = x - STEP_FACTORS[k] * step
            val, cand_g = evaluate(cand)
            evaluations += 1
            if math.isfinite(val) and val <= cur:
                taken = k
                break
            cand_g = None      # free it before the next trial
        if taken is None:
            rejected += 1
            streak = 0
        else:
            x, cur, g = cand, val, cand_g
            accepted[taken] += 1
            if taken == start:
                streak += 1
                if streak == STEP_UP_AFTER:
                    start, streak = max(start - 1, 0), 0
            else:
                start, streak = taken, 0
        trajectory.append(cur)
        if len(trajectory) > LEVEL_WINDOW:
            prev = trajectory[-1 - LEVEL_WINDOW]
            if abs(prev - cur) / max(abs(prev), 1e-12) < tol:
                stop_reason = "converged"
                break
    counters = {
        "stop_reason": stop_reason,
        "evaluations": evaluations,
        "accepted": {format(f, "g"): n for f, n in zip(STEP_FACTORS, accepted)},
        "rejected": rejected,
    }
    return x, trajectory, counters


def foreground_mask(fixed: Volume, structures: StructureSet | None) -> Volume:
    """The body mask, or the whole grid of fixed without structures."""
    return structures.body if structures is not None else \
        fixed.with_data(np.ones(fixed.dims, dtype=np.float32))


def _level_inputs(fixed: Volume, moving: Volume, mask: Volume, levels: int) -> list:
    """(fixed, moving, mask, degenerate) per pyramid level, finest first. The
    mask is pooled, not thresholded, so it weighs the NCC as pooled; with
    fewer than 2 voxels > 0 it is the whole grid, and degenerate is True."""
    out = []
    for f_l, m_l, k_l in zip(*(build_pyramid(v, levels) for v in (fixed, moving, mask))):
        degenerate = int((k_l.data > 0).sum()) < 2
        weights = k_l.with_data(np.ones(k_l.dims, dtype=np.float32)) if degenerate else k_l
        out.append((f_l, m_l, weights, degenerate))
    return out


# ---------------------------------------------------------------------------
# rigid pre-alignment

def _physical_center(vol: Volume) -> tuple:
    return tuple(o + (n - 1) / 2.0 * s
                 for o, n, s in zip(vol.origin, vol.dims, vol.spacing))


def _rigid_mapping(moving: Volume, like: Volume | DisplacementField, center):
    """like's voxel centers x relative to the rotation center c in mm,
    (3, nx, ny, nz), and the map (R, t[, u]) -> continuous voxel
    coordinates in moving of T(x) = R (x - c) + c + t over like's voxel
    centers, each first displaced by u(x) (voxels of like's grid) when u
    is given. The grid is built once per (moving, like) pair."""
    def col(v):
        return np.asarray(v, dtype=np.float64).reshape(3, 1, 1, 1)
    c = col(center)
    rel = np.indices(like.dims, dtype=np.float64) * col(like.spacing) + col(like.origin) - c
    m_origin, m_spacing = col(moving.origin), col(moving.spacing)

    def voxels(R, t, u=None):
        r = rel if u is None else rel + u * col(like.spacing)
        moved = np.einsum("ij,jxyz->ixyz", R, r) + c + col(t)
        return (moved - m_origin) / m_spacing
    return rel, voxels


def resample_rigid(moving: Volume, like: Volume | DisplacementField,
                   t: RigidTransform) -> Volume:
    """Sample moving at T(x + u(x)) over like's voxel centers x. u is like
    itself when like is a DisplacementField, the whole mapping of a field
    that register found after rigid_align's T, and zero when like is a
    Volume. The mapping is physical, so moving may lie on another grid
    (say, unpadded)."""
    u = like.data.astype(np.float64) if isinstance(like, DisplacementField) else None
    _, voxels = _rigid_mapping(moving, like, t.center)
    out = _trilinear_arrays(_zero_ring(moving.data), *voxels(t.matrix(), t.translation, u))
    return Volume(out.astype(np.float32), spacing=like.spacing, origin=like.origin)


def _rigid_evaluator(obj: Objective, center):
    """evaluate(p) of the rigid parameters p = (rx, ry, rz, tx, ty, tz):
    the loss and its gradient from one sampling. The loss is obj.ncc_at
    at the voxel coordinates in moving that T(x) = R (x - c) + c + t maps
    each voxel center x of obj's fixed grid to, i.e. -maskedNCC of the
    rigidly resampled moving image; R is built from the angles wrapped to
    (-pi, pi], as RigidTransform stores them. The gradient chains
    dL/dT(x) through T: per mm, dL/dt is the voxel sum of dL/dT(x) and
    dL/dr_k = <dR/dr_k, sum_x dL/dT(x) (x - c)^T>."""
    rel, voxels = _rigid_mapping(obj.moving, obj.fixed, center)
    spacing = np.array(obj.moving.spacing).reshape(3, 1, 1, 1)

    def evaluate(p):
        Rx, Ry, Rz = _axis_rotations([_wrap_angle(float(a)) for a in p[:3]])
        g = np.zeros_like(rel)
        total = obj.ncc_at(voxels(Rz @ Ry @ Rx, p[3:]), g)
        g /= spacing
        moments = np.einsum("axyz,bxyz->ab", g, rel)
        d_rot = [float((dR * moments).sum()) for dR in
                 (Rz @ Ry @ _KX @ Rx, Rz @ _KY @ Ry @ Rx, _KZ @ Rz @ Ry @ Rx)]
        return total, np.array(d_rot + [float(v) for v in g.sum(axis=(1, 2, 3))])
    return evaluate


def rigid_align(fixed: Volume, moving: Volume, mask: Volume,
                config: RegConfig | None = None):
    """Six-parameter gradient descent maximizing masked NCC at the
    coarsest rigid pyramid level, refined one level up.

    Each trial is scored by the deformable objective's NCC core at the
    voxel coordinates the rigid transform maps each voxel to, and
    differentiated with its analytic gradient. Returns the transform and
    the moving image resampled at full resolution.
    """
    config = config or RegConfig()
    if not same_grid(fixed, moving, mask):
        raise ValidationError("rigid_align requires one shared grid")
    if int((mask.data > 0).sum()) < 8:
        raise ValidationError("mask too small for rigid alignment")
    center = _physical_center(fixed)
    levels = _level_inputs(fixed, moving, mask, RIGID_LEVELS)
    params = np.zeros(6)
    # the coarsest level, then one up; a whole-grid fallback is not flagged
    for stage_idx, (f_l, m_l, k_l, _) in enumerate(levels[::-1][:2]):
        evaluate = _rigid_evaluator(Objective(f_l, m_l, k_l), center)
        iters = config.rigid_iterations[min(stage_idx, len(config.rigid_iterations) - 1)]
        lr = np.array([0.01] * 3 + [0.25 * min(f_l.spacing)] * 3) / (2.0 ** stage_idx)
        # tol 0: a rigid stage always runs its full budget
        params, _, _ = _descend(evaluate, params, lr, iters, eps=1e-12, tol=0.0)
    transform = RigidTransform(rotation=tuple(params[:3]),
                               translation=tuple(params[3:]), center=center)
    return transform, resample_rigid(moving, fixed, transform)


# ---------------------------------------------------------------------------
# deformable registration

def warp_contour(mask: Volume, fld: DisplacementField,
                 t: RigidTransform | None = None) -> Volume:
    """Warp a 0/1 mask as a real image, through T(x + u(x)) when the rigid
    transform t is given (resample_rigid), and re-binarize at 0.5."""
    warped = warp(mask, fld) if t is None else resample_rigid(mask, fld, t)
    _check_binary(mask, "contour")
    return warped.with_data((warped.data >= 0.5).astype(np.float32))


def check_prior_inputs(fixed: Volume, config: RegConfig, structures: StructureSet | None,
                       dose: Volume | None, embeddings, adapter_weights: AdapterWeights | None):
    """Refuse the prior inputs config asks for and lacks; needs no registration."""
    if config.use_anatomy and (structures is None or not (structures.ctv.data > 0).any()):
        raise ValidationError("use_anatomy requires a nonempty CTV")
    if config.use_risk:
        if dose is None:
            raise ValidationError("use_risk requires a dose volume")
        if not same_grid(fixed, dose):
            raise ValidationError("dose grid differs from image grid")
        if structures is None:
            raise ValidationError("use_risk requires structures for OAR weighting")
    if config.use_film:
        if not embeddings:
            raise ValidationError("use_film requires at least one embedding")
        if adapter_weights is None:
            raise ValidationError("use_film requires adapter weights")
        if adapter_weights.channels != 1:     # FiLM modulates the one prior channel
            raise ValidationError(
                f"use_film requires 1-channel adapter weights, got {adapter_weights.channels}")


def _build_fused_prior(config: RegConfig, structures: StructureSet | None,
                       dose: Volume | None, embeddings, adapter_weights: AdapterWeights | None,
                       flags: list) -> Volume | None:
    """The fused prior of inputs check_prior_inputs has passed."""
    amap = anatomy_map(structures, config.prior_params) if config.use_anatomy else None
    rmap = risk_map(dose, structures, config.prior_params) if config.use_risk else None
    both = amap is not None and rmap is not None
    fused = fuse_priors(amap, rmap, config.prior_params.fusion_alpha) if both else amap or rmap
    if config.use_film:      # RegConfig ensures a prior to modulate
        fp = adapter(mean_embedding(embeddings), adapter_weights, 1)
        modulated = film(FeatureGrid(fused.data[None].astype(np.float64)), fp)
        fused = fused.with_data(np.clip(modulated.data[0], 0.0, 1.0))
        flags.append("film_applied")
    return fused


def register(fixed: Volume, moving: Volume, config: RegConfig | None = None,
             structures: StructureSet | None = None, dose: Volume | None = None,
             embeddings=(), adapter_weights: AdapterWeights | None = None):
    """Coarse-to-fine minimization of the masked-NCC + smoothness loss.

    Returns (full-resolution DisplacementField, RegReport). Inputs are
    assumed padded to one grid and rigidly pre-aligned.
    """
    config = config or RegConfig()
    check_prior_inputs(fixed, config, structures, dose, embeddings, adapter_weights)
    if not same_grid(fixed, moving):
        raise ValidationError("fixed/moving grids differ")
    flags: list = []

    mask = foreground_mask(fixed, structures)
    if not same_grid(fixed, mask):
        raise ValidationError("mask grid differs from image grid")
    fused = _build_fused_prior(config, structures, dose, embeddings, adapter_weights, flags)

    levels = _level_inputs(fixed, moving, mask, config.levels)
    n_levels = len(levels)
    if n_levels < config.levels:
        flags.append(f"levels_reduced_to_{n_levels}")

    prior_levels = build_pyramid(fused, n_levels) if fused is not None else (None,) * n_levels
    gate_levels = [gate(p, config.prior_params).data.astype(np.float64)[None]
                   if config.use_gate and p is not None else 1.0
                   for p in prior_levels]

    phi = None
    level_reports = []
    # pyramid index 0 is finest; config lists iterations coarse -> fine
    for step, li in enumerate(range(n_levels - 1, -1, -1)):
        t0 = time.perf_counter()
        f_l, m_l, k_l, degenerate = levels[li]
        if degenerate:
            flags.append(f"mask_degenerate_at_level_{li + 1}")
        up = upsample_field(phi, f_l.dims) if phi is not None else zero_field(f_l)
        obj = Objective(f_l, m_l, k_l, config.lambda_smooth, weights=prior_levels[li])
        x, trajectory, counters = _descend(
            obj.evaluate, up.data.astype(np.float64), LEVEL_STEP,
            config.iterations[min(step, len(config.iterations) - 1)],
            LEVEL_EPS, config.convergence_tol, scale=gate_levels[li])
        # the last accepted trial, which evaluate scored at float32 precision
        phi = up.with_data(x)
        level_reports.append(LevelReport(
            level=li + 1, dims=f_l.dims, iterations_used=len(trajectory) - 1,
            initial_loss=trajectory[0], final_loss=trajectory[-1],
            trajectory=tuple(trajectory),
            wall_time_s=time.perf_counter() - t0, **counters))

    # the finest level's objective, with the mask that level ran on
    final = obj.loss(phi.data)
    if final.degenerate:
        flags.append("degenerate_variance")
    return phi, RegReport(levels=tuple(level_reports), final=final,
                          fold_fraction_pct=fold_fraction(phi), flags=tuple(flags))

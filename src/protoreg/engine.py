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
from .volgrid import (DisplacementField, Volume, _indices, _Sampler, _slabs, build_pyramid,
                      jacobian_det, same_grid, upsample_field, warp, zero_field)


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


# the most iterations a level or rigid stage may be given, about 67 times the
# largest default budget (150). A level at convergence_tol 0 runs its whole
# budget, and a rigid stage whose loss keeps falling may, so a budget such as
# 2**62 need never end. Each iteration evaluates the objective at least once,
# whose measured warm median with a body mask on a 2-vCPU host is 12-17 ms at
# 64^3 and 0.12-0.13 s at 128^3 (BENCH_finest_kernels.json): 10000
# iterations of a 128^3 level take over 20 minutes
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class RegConfig:
    levels: int = 5
    iterations: tuple = (40, 60, 80, 100, 30)   # coarse -> fine
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
        if not isinstance(self.prior_params, PriorParams):
            raise ValidationError("prior_params must be a PriorParams, "
                                  f"got {type(self.prior_params).__name__}")
        if self.levels < 1:
            raise ValidationError("levels must be >= 1")
        iterations = _values(self.iterations, "iterations", ok=_integer)
        rigid_iterations = _values(self.rigid_iterations, "rigid_iterations", ok=_integer)
        if len(iterations) == 0 or not 1 <= len(rigid_iterations) <= 2:
            raise ValidationError("iterations must be nonempty and rigid_iterations must "
                                  "hold 1 or 2 budgets, one per rigid stage")
        if not 0 <= min(iterations + rigid_iterations) <= max(
                iterations + rigid_iterations) <= MAX_ITERATIONS:
            raise ValidationError(f"iteration counts must lie in [0, {MAX_ITERATIONS}]")
        if self.lambda_smooth < 0:
            raise ValidationError("lambda_smooth must be >= 0")
        if self.convergence_tol < 0:
            # the window rule's relative change is >= 0, so it could never
            # meet a negative tolerance and every level would run its budget
            raise ValidationError("convergence_tol must be >= 0")
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
        if "prior_params" in kwargs:
            kwargs["prior_params"] = PriorParams(**_known_keys(
                PriorParams, kwargs["prior_params"], "prior_params"))
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
    # the foreground voxels (the body, or every voxel without structures)
    # whose jacobian_det is <= 0, the border included
    folded_voxels: int
    flags: tuple = ()
    # wall seconds of the prior build (the fused prior, its pyramid and the
    # gates) and of the fold count
    prior_build_s: float = 0.0
    folds_s: float = 0.0

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
            "folded_voxels": self.folded_voxels,
            "flags": list(self.flags),
        }

    def timing(self) -> dict:
        """register's wall seconds per phase, in the order they ran:
        prior_build, level_N per level (coarse first), folds."""
        return {"prior_build": self.prior_build_s,
                **{f"level_{l.level}": l.wall_time_s for l in self.levels},
                "folds": self.folds_s}


# ---------------------------------------------------------------------------
# the descents, and the level inputs of the rigid stages and pyramid levels

# fixed optimizer settings, not RegConfig keys: each pyramid level's Adam
# step and epsilon, the binomial passes over the step at a middle level, its
# convergence window, the depth of the rigid pyramid, the line search's
# ladder of step factors and the number of consecutive first-trial accepts
# after which it moves one rung up
LEVEL_STEP = 0.125     # voxels; small enough that most first trials are taken
LEVEL_EPS = 1e-8
# every level but the two coarsest and the finest: 0, 0, 2, 2, 0 over five
# levels, 0, 0, 2, 0 over four, none over three or fewer (see register)
MIDDLE_STEP_PASSES = 2
LEVEL_WINDOW = 5
RIGID_LEVELS = 3
STEP_FACTORS = (1.0, 0.5, 0.25, 0.125)
STEP_UP_AFTER = 3


def _binomial(a, passes, scratch):
    """Smooth a, a C-contiguous (components, nx, ny, nz) array, in place:
    `passes` passes of the three-tap binomial [1/4, 1/2, 1/4] along x, y
    and z, the edges replicated (scipy.ndimage's mode "nearest"). scratch,
    shaped and typed as a, is overwritten.

    Each axis takes two shifted adds over the whole flat array, by that
    axis's stride: scratch[i] = a[i] + a[i + 1], then a[i] = scratch[i - 1]
    + scratch[i], four times the binomial. The shift carries each row's
    ends into the next row, so the last plane along the axis is then
    rewritten as scratch = a + a, and the first as 2 a + scratch, each
    edge counting its own value once more. The factor 1/4 per axis is
    taken once at the end, a power of two, so it rounds as it would per
    axis."""
    if not (a.flags.c_contiguous and scratch.flags.c_contiguous):
        raise ValueError("_binomial needs C-contiguous arrays")
    # so these are flat views (reshape's copy=False would say so, from numpy 2.1 on)
    flat, t = a.reshape(-1), scratch.reshape(-1)
    axes = [(a.strides[k] // a.itemsize, (slice(None),) * k + (0,), (slice(None),) * k + (-1,))
            for k in (1, 2, 3)]
    for _ in range(passes):
        for stride, first, last in axes:
            np.add(flat[:-stride], flat[stride:], out=t[:-stride])
            np.add(a[last], a[last], out=scratch[last])
            edge = a[first] * 2.0
            edge += scratch[first]
            np.add(t[:-stride], t[stride:], out=flat[stride:])
            a[first] = edge
    a *= 0.25 ** (3 * passes)


def _descend(evaluate, x, iterations, tol, gate=None, passes=0):
    """Adam (betas 0.9, 0.999, step LEVEL_STEP, epsilon LEVEL_EPS) from x
    with backtracking down STEP_FACTORS: the first trial whose loss is
    finite and not higher is taken, so the trajectory (initial loss, then
    one per iteration) never rises.

    evaluate(x) returns (loss, gradient) from one warp, so the trial taken
    hands its gradient to the next iteration. Each iteration starts at the
    factor taken last, and one rung higher after STEP_UP_AFTER consecutive
    first-trial accepts. An iteration that takes no trial keeps x, the
    start factor and the gradient. x is a (components, nx, ny, nz) field;
    gate, None or an (nx, ny, nz) array, multiplies each component's step
    per element. With passes > 0 the gated step is then smoothed by
    _binomial, `passes` passes per component, as diffeomorphic demons
    smooths its update (Vercauteren et al., NeuroImage 2009); register
    asks for MIDDLE_STEP_PASSES at the middle pyramid levels and for none
    at the two coarsest and the finest. Stops after `iterations`, or once
    the loss changed by less than tol, relative, over LEVEL_WINDOW
    iterations (tol 0 never stops early).

    The descent runs in x's dtype: with x, the gradients and the gate
    float32, so are the moments, the step and every trial. Every scalar in
    the step, LEVEL_STEP and LEVEL_EPS included, must be a Python float:
    under numpy 2's promotion rules (NEP 50) a numpy float64 scalar would
    promote the float32 arrays to float64.

    Buffers: the iterate, the trial and the two moments are four arrays
    shaped as x, allocated once per descent and updated in place, and with
    passes > 0 a fifth is _binomial's scratch. Every trial forms its step
    in the trial buffer, updating the moments first on an iteration's
    first trial, a component's x-slab of volgrid._slabs at a time through
    one slab-sized scratch array, so a slab's arithmetic stays in cache;
    with passes > 0 it smooths the step whole, and then forms x - factor *
    step in place. A retried trial forms and smooths its step again from
    the moments. Each element takes the same operations in the same order
    as the plain formulas, so the bits are theirs. x itself is copied,
    never written to. A taken trial swaps buffers with the iterate, so
    evaluate must keep no reference to the array it is given, and the
    gradient it returns, which is kept across rejected trials, must be an
    array no later call writes.

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
    x = x.copy()
    cand = np.empty_like(x)
    m1, m2 = np.zeros_like(x), np.zeros_like(x)
    smooth = np.empty_like(x) if passes else None
    blocks = [(c, planes) for c in range(x.shape[0]) for planes in _slabs(x.shape[1:])]
    scratch = np.empty((blocks[0][1].stop,) + x.shape[2:], dtype=x.dtype)

    def trial(it, factor, update):
        """cand = x - factor * step. The step is formed in cand block by
        block from the moments, each block's moments first updated by g when
        update is set, then smoothed whole when passes > 0."""
        c1, c2 = 1.0 - beta1 ** (it + 1), 1.0 - beta2 ** (it + 1)
        for c, planes in blocks:
            m1_b, m2_b, g_b, t = (v[c, planes] for v in (m1, m2, g, cand))
            q = scratch[:t.shape[0]]
            if update:
                # m1 = beta1 * m1 + (1 - beta1) * g;  m2 = beta2 * m2 + (1 - beta2) * g * g
                m1_b *= beta1
                m1_b += np.multiply(g_b, 1.0 - beta1, out=t)
                m2_b *= beta2
                # (in g's dtype, as the plain formula forms it, even when x's differs)
                m2_b += np.multiply(np.multiply(g_b, 1.0 - beta2, out=t), g_b, out=t,
                                    dtype=g.dtype)
            # step = LEVEL_STEP * (m1 / c1) / (sqrt(m2 / c2) + LEVEL_EPS) * gate
            np.divide(m1_b, c1, out=t)
            t *= LEVEL_STEP
            np.sqrt(np.divide(m2_b, c2, out=q), out=q)
            q += LEVEL_EPS
            t /= q
            if gate is not None:
                t *= gate[planes]
        if passes:
            _binomial(cand, passes, smooth)
        np.subtract(x, np.multiply(cand, factor, out=cand), out=cand)

    for it in range(iterations):
        taken = None
        for k in range(start, len(STEP_FACTORS)):
            trial(it, STEP_FACTORS[k], k == start)
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
            x, cand, cur, g = cand, x, val, cand_g
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


# fixed settings of the rigid stages' quasi-Newton descent, not RegConfig
# keys: the Armijo constant, the most halvings of a trial step, the smallest
# curvature s.y an update takes, and the stop rules' bounds on the largest
# gradient component and on the relative decrease of one step (L-BFGS-B's
# default factr times the float64 epsilon)
QN_ARMIJO = 1e-4
QN_HALVINGS = 20
QN_CURVATURE = 1e-12
QN_GRADIENT_TOL = 1e-5
QN_DECREASE_TOL = 2.2e-9


def _quasi_newton(evaluate, x, iterations):
    """Dense BFGS (Nocedal & Wright, Numerical Optimization, Alg. 6.1) from
    the float64 vector x, with evaluate(x) -> (loss, gradient) as for
    _descend; x should be scaled so that one unit is a sensible step in
    every component.

    The inverse Hessian starts as the identity and is rescaled by s.y / y.y
    before its first update (N&W eq. 6.20); an update with s.y <=
    QN_CURVATURE is skipped, and a direction that is not a descent direction
    starts again from the unscaled identity. A step from the unscaled
    identity is cut to at most unit length. Each step backtracks by halving
    from its full length until a finite trial meets the Armijo condition
    (QN_ARMIJO), at most QN_HALVINGS times, so the trajectory (initial
    loss, then one per iteration) never rises.

    Returns (x, trajectory, counters), counters as _descend's: stop_reason
    ("gradient" once no gradient component exceeds QN_GRADIENT_TOL,
    "relative_decrease" once a step lowered the loss by at most
    QN_DECREASE_TOL relative to max(|loss|, 1), "line_search_failed", or
    "iteration_cap") and the calls to evaluate (`evaluations`)."""
    cur, g = evaluate(x)
    if not math.isfinite(cur):
        raise ValidationError("non-finite loss at the start of a descent")
    x = np.array(x, dtype=np.float64)
    trajectory = [cur]
    evaluations = 1
    eye = np.eye(x.size)
    H = None        # the unscaled identity
    stop_reason = "iteration_cap"
    for _ in range(iterations):
        if np.abs(g).max() <= QN_GRADIENT_TOL:
            stop_reason = "gradient"
            break
        d = -g if H is None else -(H @ g)
        slope = float(d @ g)
        if not slope < 0.0:
            H, d, slope = None, -g, -float(g @ g)
        alpha = min(1.0, 1.0 / float(np.linalg.norm(d))) if H is None else 1.0
        for _ in range(QN_HALVINGS + 1):
            trial = x + alpha * d
            val, trial_g = evaluate(trial)
            evaluations += 1
            if math.isfinite(val) and val <= cur + QN_ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            stop_reason = "line_search_failed"
            break
        s, y = trial - x, trial_g - g
        sy = float(s @ y)
        if sy > QN_CURVATURE:
            if H is None:
                H = sy / float(y @ y) * eye
            v = eye - np.outer(s, y) / sy
            H = v @ H @ v.T + np.outer(s, s) / sy
        decrease = (cur - val) / max(abs(cur), abs(val), 1.0)
        x, cur, g = trial, val, trial_g
        trajectory.append(cur)
        if decrease <= QN_DECREASE_TOL:
            stop_reason = "relative_decrease"
            break
    return x, trajectory, {"stop_reason": stop_reason, "evaluations": evaluations}


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


def _rigid_mapping(moving: Volume, like: Volume | DisplacementField, center, index):
    """The voxel centers x of like's grid at the float64 voxel indices
    `index`, a (3, ...) array, relative to the rotation center c in mm, and
    the map (R, t[, u]) -> continuous voxel coordinates in moving of
    T(x) = R (x - c) + c + t over those centers, each first displaced by
    u(x) (voxels of like's grid, u shaped as the centers) when u is given.
    index is an x-slab's volgrid._indices or the unravelled indices of a
    support, kept 4-D and contiguous as (3, k, 1, 1): einsum then sums each
    point's three terms as it does over the whole grid, and each center is
    formed per element, so no bit depends on the indices asked for."""
    def col(v):
        return np.asarray(v, dtype=np.float64).reshape(3, 1, 1, 1)
    c = col(center)
    rel = index * col(like.spacing) + col(like.origin) - c
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
    (say, unpadded). It is mapped and sampled an x-slab of volgrid._slabs
    at a time, each through the one sampler, with the bits of mapping the
    whole grid at once. A mapping that leaves float64's range, as a
    transform of numbers near its ends can, is a ValidationError."""
    sample = _Sampler(moving.data)
    R = t.matrix()
    out = np.empty(like.dims, dtype=np.float32)
    for planes in _slabs(like.dims):
        u = like.data[:, planes].astype(np.float64) \
            if isinstance(like, DisplacementField) else None
        _, voxels = _rigid_mapping(moving, like, t.center, _indices(like.dims, planes))
        with np.errstate(over="ignore", invalid="ignore"):
            coords = voxels(R, t.translation, u)
        if not np.isfinite(coords).all():
            raise ValidationError(f"rigid transform {t} maps voxels beyond float64's range")
        out[planes] = sample(coords)
    return Volume(out, spacing=like.spacing, origin=like.origin)


def _rigid_evaluator(obj: Objective, center):
    """evaluate(p) of the rigid parameters p = (rx, ry, rz, tx, ty, tz):
    the loss and its gradient from one sampling. The loss is obj.ncc_at
    at the voxel coordinates in moving that T(x) = R (x - c) + c + t maps
    each voxel center x of obj's fixed grid to, i.e. -maskedNCC of the
    rigidly resampled moving image, with T(x) built for the objective's
    support alone; R is built from the angles wrapped to
    (-pi, pi], as RigidTransform stores them. The gradient chains
    dL/dT(x) through T: per mm, dL/dt is the voxel sum of dL/dT(x) and
    dL/dr_k = <dR/dr_k, sum_x dL/dT(x) (x - c)^T>, both over the support's
    k voxels, where dL/dT(x) lives in one kept (3, k) buffer."""
    rel, voxels = _rigid_mapping(obj.moving, obj.fixed, center, obj._ident[..., None, None])
    rel = rel[..., 0, 0]
    spacing = np.array(obj.moving.spacing).reshape(3, 1)
    g = np.empty_like(rel)

    def evaluate(p):
        Rx, Ry, Rz = _axis_rotations([_wrap_angle(float(a)) for a in p[:3]])
        g.fill(0.0)
        total = obj.ncc_at(voxels(Rz @ Ry @ Rx, p[3:]), g)
        np.divide(g, spacing, out=g)
        moments = np.einsum("ak,bk->ab", g, rel)
        d_rot = [float((dR * moments).sum()) for dR in
                 (Rz @ Ry @ _KX @ Rx, Rz @ _KY @ Ry @ Rx, _KZ @ Rz @ Ry @ Rx)]
        return total, np.array(d_rot + [float(v) for v in g.sum(axis=1)])
    return evaluate


def _rigid_align(fixed: Volume, moving: Volume, mask: Volume, config: RegConfig):
    """rigid_align's transform and resampled image, and one dict of
    deterministic counters per rigid stage, coarse first: the stage's dims,
    its iterations, evaluations and stop_reason (see _quasi_newton), its
    initial_loss and final_loss, and whether its pooled mask fell back to
    the whole grid (degenerate)."""
    if not same_grid(fixed, moving, mask):
        raise ValidationError("rigid_align requires one shared grid")
    if int((mask.data > 0).sum()) < 8:
        raise ValidationError("mask too small for rigid alignment")
    center = _physical_center(fixed)
    levels = _level_inputs(fixed, moving, mask, RIGID_LEVELS)
    params = np.zeros(6)
    stages = []
    # the coarsest level, then one up
    for stage_idx, (f_l, m_l, k_l, degenerate) in enumerate(levels[::-1][:2]):
        evaluate = _rigid_evaluator(Objective(f_l, m_l, k_l), center)
        iters = config.rigid_iterations[min(stage_idx, len(config.rigid_iterations) - 1)]
        # one unit of the descent: 0.01 rad and a quarter of the level's
        # smallest spacing, halved at the second stage
        unit = np.array([0.01] * 3 + [0.25 * min(f_l.spacing)] * 3) / (2.0 ** stage_idx)

        def in_units(z, evaluate=evaluate, unit=unit):
            loss, grad = evaluate(z * unit)
            return loss, grad * unit
        z, trajectory, counters = _quasi_newton(in_units, params / unit, iters)
        params = z * unit
        stages.append({"dims": list(f_l.dims), "iterations": len(trajectory) - 1,
                       **counters, "initial_loss": trajectory[0],
                       "final_loss": trajectory[-1], "degenerate": degenerate})
    transform = RigidTransform(rotation=tuple(params[:3]),
                               translation=tuple(params[3:]), center=center)
    return transform, resample_rigid(moving, fixed, transform), stages


def rigid_align(fixed: Volume, moving: Volume, mask: Volume,
                config: RegConfig | None = None):
    """Six-parameter quasi-Newton descent (_quasi_newton) maximizing masked
    NCC at the coarsest rigid pyramid level, refined one level up.

    Each trial is scored by the deformable objective's NCC core at the
    voxel coordinates the rigid transform maps each voxel to, and
    differentiated with its analytic gradient. Returns the transform and
    the moving image resampled at full resolution.
    """
    transform, aligned, _ = _rigid_align(fixed, moving, mask, config or RegConfig())
    return transform, aligned


# ---------------------------------------------------------------------------
# deformable registration

def warp_contour(mask: Volume, fld: DisplacementField,
                 t: RigidTransform | None = None) -> Volume:
    """Warp a 0/1 mask as a real image, through T(x + u(x)) when the rigid
    transform t is given (resample_rigid), and re-binarize at 0.5."""
    _check_binary(mask, "contour")
    warped = warp(mask, fld) if t is None else resample_rigid(mask, fld, t)
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


def _folds(phi: DisplacementField, mask: Volume):
    """(fold_fraction(phi), the voxels of mask > 0, border included, whose
    jacobian_det is <= 0), from one determinant."""
    det = jacobian_det(phi)
    return fold_fraction(phi, det), int((det.data[mask.data > 0] <= 0).sum())


def register(fixed: Volume, moving: Volume, config: RegConfig | None = None,
             structures: StructureSet | None = None, dose: Volume | None = None,
             embeddings=(), adapter_weights: AdapterWeights | None = None):
    """Coarse-to-fine minimization of the masked-NCC + smoothness loss.

    Returns (full-resolution DisplacementField, RegReport). Inputs are
    assumed padded to one grid and rigidly pre-aligned.

    Each level descends in float32, the precision its field is stored and
    scored in: the iterate, the Adam moments, the step, every trial and the
    gate. The objective computes the coordinates, the sampling, the NCC sums
    and the smoothness energy and its adjoint in float64.

    By pyramid position, coarse first: the two coarsest levels and the
    finest take the gated Adam step as it is, and every level between
    smooths it with MIDDLE_STEP_PASSES binomial passes (_descend), so five
    levels take 0, 0, 2, 2, 0 passes, four take 0, 0, 2, 0 and three or
    fewer none. The smoothed middle levels leave a field that the finest
    level needs only refine, hence its short default budget (30).
    """
    config = config or RegConfig()
    check_prior_inputs(fixed, config, structures, dose, embeddings, adapter_weights)
    if not same_grid(fixed, moving):
        raise ValidationError("fixed/moving grids differ")
    flags: list = []

    mask = foreground_mask(fixed, structures)
    if not same_grid(fixed, mask):
        raise ValidationError("mask grid differs from image grid")
    levels = _level_inputs(fixed, moving, mask, config.levels)
    n_levels = len(levels)

    t0 = time.perf_counter()
    fused = _build_fused_prior(config, structures, dose, embeddings, adapter_weights, flags)
    prior_levels = build_pyramid(fused, n_levels) if fused is not None else (None,) * n_levels
    # RegConfig refuses use_gate without a prior
    gate_levels = [gate(p, config.prior_params).data if config.use_gate else None
                   for p in prior_levels]
    prior_build_s = time.perf_counter() - t0
    if n_levels < config.levels:
        flags.append(f"levels_reduced_to_{n_levels}")

    phi = None
    level_reports = []
    # pyramid index 0 is finest; config lists iterations coarse -> fine
    for step, li in enumerate(range(n_levels - 1, -1, -1)):
        t0 = time.perf_counter()
        f_l, m_l, k_l, degenerate = levels[li]
        if degenerate:
            flags.append(f"mask_degenerate_at_level_{li + 1}")
        obj = Objective(f_l, m_l, k_l, config.lambda_smooth, weights=prior_levels[li])
        # the start is passed on unnamed, so that once _descend has copied
        # it, nothing holds it; the upsampled grid is f_l's
        x, trajectory, counters = _descend(
            obj.evaluate,
            (upsample_field(phi, f_l.dims) if phi is not None else zero_field(f_l)).data,
            config.iterations[min(step, len(config.iterations) - 1)],
            config.convergence_tol, gate=gate_levels[li],
            passes=MIDDLE_STEP_PASSES if 2 <= step < n_levels - 1 else 0)
        # the last accepted trial, the float32 field evaluate scored
        phi = DisplacementField(x, spacing=f_l.spacing, origin=f_l.origin)
        if li == 0:
            # the finest level's objective, with the mask that level ran on
            final = obj.loss(x)
        del obj         # and with it the level's buffers
        level_reports.append(LevelReport(
            level=li + 1, dims=f_l.dims, iterations_used=len(trajectory) - 1,
            initial_loss=trajectory[0], final_loss=trajectory[-1],
            trajectory=tuple(trajectory),
            wall_time_s=time.perf_counter() - t0, **counters))

    if final.degenerate:
        flags.append("degenerate_variance")
    t0 = time.perf_counter()
    fold_pct, folded = _folds(phi, mask)
    return phi, RegReport(levels=tuple(level_reports), final=final,
                          fold_fraction_pct=fold_pct, folded_voxels=folded,
                          flags=tuple(flags), prior_build_s=prior_build_s,
                          folds_s=time.perf_counter() - t0)

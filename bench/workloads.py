"""The benchmark's workloads.

Each workload has a `prepare(pr, seed, work_dir)` that builds its inputs from
the seed (the timed set-up) and a `run_round(pr, state, work_dir)` that runs
one round of operations and checks every output against `checks`. An
operation whose output check fails is returned with its failures listed.

Inputs use protoreg's phantom and smooth-field generators. Everything that
moves an image or a contour into the fixed frame is done by
`checks.warp` (scipy.ndimage), never by the program's own sampler.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt, gaussian_filter

import checks

# Operations per round: one guided pair, len(SETUP_AXES) rigid pairs,
# PREALIGNED_PAIRS prealigned pairs. A round's make-up never depends on the
# seed or on how long the run is, so the share of failed operations is the
# same in every run.
PREALIGNED_PAIRS = 4

# Each pair is a fixed base case perturbed by the seed. Recovery error varies
# far more between unrelated random cases than between seeds of one base
# case, so a few pairs per run give steady accuracy figures while every seed
# still gives different inputs.
GUIDED_BASE_FIELD_SEED = 11        # the field of acceptance criterion 3
PREALIGNED_BASE_FIELD_SEED = 100   # the fields of acceptance criterion 5
FIELD_JITTER = 0.15                # seeded field, as a share of the base peak
SETUP_TILT = 0.05                  # seeded tilt of axis / shift direction

# 32^3 phantom of acceptance criteria 5 and 6
SMALL_SPEC = dict(dims=(32, 32, 32), body_semi_axes_mm=(13.0, 12.0, 13.0),
                  ctv_center_mm=(3.0, 1.0, -2.0), ctv_radius_mm=4.0,
                  oars=(((-5.0, -3.0, 3.0), 3.0),), dose_tau_mm=5.0, seed=7)


@dataclass
class OpResult:
    seconds: float
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    levels: dict = field(default_factory=dict)
    iterations: int = 0


def _quality(fixed, moving, coords, truth, body, ctv):
    epe_mean, epe_p95 = checks.endpoint_error(coords, truth, body)
    ctv_mean, _ = checks.endpoint_error(coords, truth, ctv)
    return {"ncc_final": checks.ncc(fixed, checks.warp(moving, coords), body),
            "epe_mean_vox": epe_mean, "epe_p95_vox": epe_p95,
            "ctv_epe_mean_vox": ctv_mean}


def _to_fixed_frame(truth, img, structures):
    """Fixed image and binary contours: the moving phantom sampled at the
    ground-truth mapping x -> x + g(x)."""
    fixed = checks.warp(img.data, truth)
    masks = {name: checks.warp(vol.data, truth) >= 0.5
             for name, vol in (("body", structures.body), ("ctv", structures.ctv))}
    oars = [checks.warp(o.data, truth) >= 0.5 for o in structures.oars]
    return fixed, masks, oars


def _jittered_field(pr, dims, peak, width, base_seed, seed, k, envelope):
    """Base smooth field plus a seeded smooth field of FIELD_JITTER x peak."""
    base = pr.make_smooth_field(dims, pr.FieldSpec(peak, width, base_seed + k),
                                envelope=envelope)
    jitter = pr.make_smooth_field(
        dims, pr.FieldSpec(FIELD_JITTER * peak, width, 1_000_003 * (seed + 1) + k),
        envelope=envelope)
    return base.data.astype(np.float64) + jitter.data.astype(np.float64)


# ---------------------------------------------------------------------------
# guided-cli-64: the clinical path through `protoreg register`

def _repeat_key(pr, in_dir) -> str:
    """Digest of the program's sources and of every input file: two runs
    with equal keys ran one invocation of one program on the same bytes."""
    h = hashlib.sha256()
    src = Path(pr.__file__).resolve().parent
    for root, pattern in ((src, "*.py"), (Path(in_dir), "*")):
        for p in sorted(root.rglob(pattern)):
            if p.is_file():
                h.update(p.relative_to(root).as_posix().encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def _check_repeat(report: bytes, key: str, store: Path) -> str | None:
    """report.json must be byte-identical across runs of one invocation.
    The first run with a key stores the report's digest in the checkout;
    every later run with that key compares against it."""
    digest = hashlib.sha256(report).hexdigest()
    path = store / f"{key}.sha256"
    if path.is_file():
        want = path.read_text().strip()
        if want != digest:
            return f"report.json differs from an earlier run of this invocation ({path.name})"
        return None
    store.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)
    return None


def guided_prepare(pr, seed, work_dir):
    img, st, dose = pr.make_phantom(pr.PhantomSpec())
    env = gaussian_filter(st.body.data.astype(np.float64), 3.0)
    env /= env.max()
    truth = checks.voxel_grid(img.dims) + _jittered_field(
        pr, img.dims, 4.0, 6.0, GUIDED_BASE_FIELD_SEED, seed, 0, env)
    fixed, masks, oars = _to_fixed_frame(truth, img, st)
    dose_f = checks.warp(dose.data, truth)

    in_dir = os.path.join(work_dir, "in")

    def path(name):
        return os.path.join(in_dir, name)

    def write(name, arr, kind):
        pr.io.write_volume(path(name), pr.Volume(arr.astype(np.float32),
                                                 spacing=img.spacing), kind=kind)

    write("fixed", fixed, "image")
    write("moving", img.data, "image")
    write("body", masks["body"], "mask")
    write("ctv", masks["ctv"], "mask")
    for i, o in enumerate(oars):
        write(f"oar_{i}", o, "mask")
    write("dose", dose_f, "dose")
    pr.condition.save_embedding(path("embedding.json"), pr.pseudo_embedding(
        f"nasopharynx, bilateral nodes, case {seed}", source="diagnosis"))
    pr.condition.save_adapter(path("adapter.json"), pr.AdapterWeights.random(1, seed=seed))
    cfg = pr.RegConfig(use_anatomy=True, use_risk=True, use_gate=True, use_film=True)
    with open(path("config.json"), "w", encoding="utf-8") as f:
        json.dump(cfg.to_dict(), f)
    argv = ["register", "--fixed", path("fixed"), "--moving", path("moving"),
            "--body", path("body"), "--ctv", path("ctv"),
            "--oars", *[path(f"oar_{i}") for i in range(len(oars))],
            "--dose", path("dose"), "--embeddings", path("embedding.json"),
            "--adapter", path("adapter.json"), "--config", path("config.json")]
    return {"argv": argv, "repeat_key": _repeat_key(pr, in_dir),
            "repeat_store": Path(pr.__file__).resolve().parents[2] / ".bench_out" / "reports",
            "fixed": fixed, "moving": img.data.astype(np.float64),
            "truth": truth, "body": masks["body"], "ctv": masks["ctv"]}


def guided_round(pr, state, work_dir):
    out = os.path.join(work_dir, "out")
    t0 = time.perf_counter()
    code = pr.cli.cli(state["argv"] + ["--out", out])
    res = OpResult(time.perf_counter() - t0)
    if code != 0:
        res.failures.append(f"register exited with {code}")
        return [res]
    with open(os.path.join(out, "report.json"), "rb") as f:
        raw = f.read()
    report = json.loads(raw)
    with open(os.path.join(out, "timing.json"), "r", encoding="utf-8") as f:
        res.levels = json.load(f)
    res.iterations = sum(lv["iterations_used"] for lv in report["levels"])
    if "film_applied" not in report["flags"]:
        res.failures.append("film_applied missing from flags")
    if not all(checks.nonincreasing(lv["trajectory"]) for lv in report["levels"]):
        res.failures.append("a level's loss trajectory increases")
    mismatch = _check_repeat(raw, state["repeat_key"], state["repeat_store"])
    if mismatch:
        res.failures.append(mismatch)
    u, header = checks.read_raw_volume(os.path.join(out, "field"))
    rt = report["rigid_transform"]
    coords = checks.composed_coords(
        tuple(header["dims"]), header["spacing"], header["origin"], field=u,
        rigid=(rt["rotation"], rt["translation"], rt["center"]))
    q = res.quality = _quality(state["fixed"], state["moving"], coords,
                               state["truth"], state["body"], state["ctv"])
    ncc_before = checks.ncc(state["fixed"], state["moving"], state["body"])
    fold = checks.fold_fraction_pct(coords)
    if not (q["epe_mean_vox"] < 0.5 and q["epe_p95_vox"] < 1.0):
        res.failures.append(f"body EPE mean {q['epe_mean_vox']:.3f} "
                            f"p95 {q['epe_p95_vox']:.3f} vox")
    if not (q["ncc_final"] >= 0.98 and q["ncc_final"] > ncc_before):
        res.failures.append(f"NCC {q['ncc_final']:.4f} (before {ncc_before:.4f})")
    if not fold < 0.5:
        res.failures.append(f"fold fraction {fold:.3f}%")
    return [res]


# ---------------------------------------------------------------------------
# rigid-setup-64: rigid_align against a known patient set-up error

SETUP_ROTATION_DEG = 3.0
SETUP_TRANSLATION_MM = 3.0
# base rotation axis and shift direction of each pair
SETUP_AXES = ((0.3, -0.5, 0.8), (-0.7, 0.2, 0.4))
SETUP_SHIFTS = ((0.6, 0.7, -0.4), (0.2, -0.5, -0.8))


def _tilted(base, rng):
    v = np.asarray(base, dtype=np.float64)
    v = v / np.linalg.norm(v) + SETUP_TILT * rng.normal(size=3)
    return v / np.linalg.norm(v)


def rigid_prepare(pr, seed, work_dir):
    img, st, _ = pr.make_phantom(pr.PhantomSpec())
    center = tuple(o + (n - 1) / 2.0 * s
                   for o, n, s in zip(img.origin, img.dims, img.spacing))
    moving = img.data.astype(np.float64)
    pairs = []
    for k, (axis, shift) in enumerate(zip(SETUP_AXES, SETUP_SHIFTS)):
        rng = np.random.default_rng([seed, k])
        rotation = tuple(math.radians(SETUP_ROTATION_DEG) * _tilted(axis, rng))
        translation = tuple(SETUP_TRANSLATION_MM * _tilted(shift, rng))
        truth = checks.composed_coords(img.dims, img.spacing, img.origin,
                                       rigid=(rotation, translation, center))
        fixed, masks, _ = _to_fixed_frame(truth, img, st)
        pairs.append({
            "fixed_vol": pr.Volume(fixed.astype(np.float32), spacing=img.spacing,
                                   origin=img.origin),
            "mask_vol": pr.Volume(masks["body"].astype(np.float32),
                                  spacing=img.spacing, origin=img.origin),
            "fixed": fixed, "truth": truth, "body": masks["body"],
            "ctv": masks["ctv"], "rotation": rotation, "translation": translation,
            "center": center})
    return {"moving_vol": img, "moving": moving, "pairs": pairs}


def rigid_round(pr, state, work_dir):
    results = []
    img = state["moving_vol"]
    for p in state["pairs"]:
        t0 = time.perf_counter()
        t, aligned = pr.engine.rigid_align(p["fixed_vol"], img, p["mask_vol"])
        res = OpResult(time.perf_counter() - t0)
        results.append(res)
        rigid = (t.rotation, t.translation, t.center)
        coords = checks.composed_coords(img.dims, img.spacing, img.origin, rigid=rigid)
        res.quality = _quality(p["fixed"], state["moving"], coords, p["truth"],
                               p["body"], p["ctv"])
        rot_err = checks.rotation_angle(checks.rotation_matrix(t.rotation),
                                        checks.rotation_matrix(p["rotation"]))
        if not np.allclose(t.center, p["center"], rtol=0.0, atol=1e-9):
            res.failures.append(f"rotation center {t.center} != {p['center']}")
        tr_err = float(np.linalg.norm(np.subtract(t.translation, p["translation"])))
        if not (rot_err <= 5e-3 and tr_err <= 0.25):
            res.failures.append(f"set-up error off by {1e3 * rot_err:.2f} mrad, "
                                f"{tr_err:.3f} mm")
        if not res.quality["ncc_final"] >= 0.99:
            res.failures.append(f"NCC after alignment {res.quality['ncc_final']:.4f}")
        resampled = checks.warp(state["moving"], coords)
        if not np.allclose(aligned.data, resampled, rtol=0.0, atol=1e-5):
            res.failures.append("returned image is not moving under the returned transform")
    return results


# ---------------------------------------------------------------------------
# prealigned-32: the prior-free deformable solver alone

def _signed_distance(mask):
    inside = mask > 0.5
    return distance_transform_edt(~inside) - distance_transform_edt(inside)


def prealigned_prepare(pr, seed, work_dir):
    img, st, _ = pr.make_phantom(pr.PhantomSpec(**SMALL_SPEC))
    sigma = 5.0
    sdf = _signed_distance(st.ctv.data)
    env = np.exp(-np.maximum(sdf, 0.0) ** 2 / (2.0 * (2.0 * sigma) ** 2))
    env *= st.body.data
    pairs = []
    for k in range(PREALIGNED_PAIRS):
        truth = checks.voxel_grid(img.dims) + _jittered_field(
            pr, img.dims, 2.5, 4.0, PREALIGNED_BASE_FIELD_SEED, seed, k, env)
        fixed, masks, oars = _to_fixed_frame(truth, img, st)
        vol = lambda a: pr.Volume(a.astype(np.float32), spacing=img.spacing,
                                  origin=img.origin)
        structures = pr.StructureSet(ctv=vol(masks["ctv"]), body=vol(masks["body"]),
                                     oars=tuple(vol(o) for o in oars))
        pairs.append({"fixed_vol": vol(fixed), "structures": structures,
                      "fixed": fixed, "truth": truth, "body": masks["body"],
                      "ctv": masks["ctv"]})
    return {"moving_vol": img, "moving": img.data.astype(np.float64), "pairs": pairs}


def prealigned_round(pr, state, work_dir):
    results = []
    img = state["moving_vol"]
    cfg = pr.RegConfig()
    for p in state["pairs"]:
        t0 = time.perf_counter()
        fld, report = pr.engine.register(p["fixed_vol"], img, cfg,
                                         structures=p["structures"])
        res = OpResult(time.perf_counter() - t0)
        results.append(res)
        res.levels = report.timing()
        res.iterations = sum(lv.iterations_used for lv in report.levels)
        coords = checks.composed_coords(img.dims, img.spacing, img.origin,
                                        field=fld.data)
        res.quality = _quality(p["fixed"], state["moving"], coords, p["truth"],
                               p["body"], p["ctv"])
        ncc_before = checks.ncc(p["fixed"], state["moving"], p["body"])
        if not res.quality["epe_mean_vox"] < 0.5:
            res.failures.append(f"body EPE mean {res.quality['epe_mean_vox']:.3f} vox")
        if not res.quality["ncc_final"] > ncc_before:
            res.failures.append(f"NCC {res.quality['ncc_final']:.4f} "
                                f"not above {ncc_before:.4f}")
        if not all(checks.nonincreasing(lv.trajectory) for lv in report.levels):
            res.failures.append("a level's loss trajectory increases")
    return results


# name -> (prepare, run_round, operations per round)
WORKLOADS = {
    "guided-cli-64": (guided_prepare, guided_round, 1),
    "rigid-setup-64": (rigid_prepare, rigid_round, len(SETUP_AXES)),
    "prealigned-32": (prealigned_prepare, prealigned_round, PREALIGNED_PAIRS),
}

"""Command-line surface: phantom generation, prior construction,
registration, warping, and metrics.

Exit codes: 0 success, 1 usage error, 2 input/validation error,
3 runtime or numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import condition, engine, io, metrics, priors, synth
from .errors import ValidationError, _keys, _known_keys
from .volgrid import DisplacementField, pad_to_shape, warp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _path(s: str) -> str:
    """argparse type of every path option: an empty path is a usage error,
    not an absent option."""
    if not s:
        raise argparse.ArgumentTypeError("a path must not be empty")
    return s


def _read(path, field=False):
    """The scalar volume at path, or with field the displacement field;
    the other kind is a ValidationError."""
    obj = io.read_volume(path)
    if isinstance(obj, DisplacementField) != field:
        want = "a 3-component field" if field else "a scalar volume"
        raise ValidationError(f"{path} is not {want}")
    return obj


def _load_structures(args) -> priors.StructureSet | None:
    ctv = _read(args.ctv) if args.ctv else None
    body = _read(args.body) if args.body else None
    oars = tuple(_read(p) for p in args.oars)
    if ctv is None and body is None and not oars:
        return None
    ref = ctv or body or oars[0]
    if ctv is None:
        ctv = ref.with_data(np.zeros(ref.dims, dtype=np.float32))
    if body is None:
        body = ref.with_data(np.ones(ref.dims, dtype=np.float32))
    return priors.StructureSet(ctv=ctv, body=body, oars=oars)


def _cmd_phantom(args) -> int:
    doc = _known_keys(synth.PhantomSpec, io.read_json(args.spec, "phantom spec"),
                      "phantom spec")
    spec = synth.PhantomSpec(**{k: tuple(v) if isinstance(v, list) else v
                                for k, v in doc.items()})
    img, structures, dose = synth.make_phantom(spec)
    out = args.out
    os.makedirs(out, exist_ok=True)
    io.write_volume(os.path.join(out, "image"), img, kind="image")
    io.write_volume(os.path.join(out, "body"), structures.body, kind="mask")
    io.write_volume(os.path.join(out, "ctv"), structures.ctv, kind="mask")
    for i, oar in enumerate(structures.oars):
        io.write_volume(os.path.join(out, f"oar_{i}"), oar, kind="mask")
    io.write_volume(os.path.join(out, "dose"), dose, kind="dose")
    return EXIT_OK


def _cmd_priors(args) -> int:
    params = priors.PriorParams(**_known_keys(
        priors.PriorParams, io.read_json(args.params, "prior params"), "prior params")) \
        if args.params else priors.PriorParams()
    structures = _load_structures(args)
    if structures is None:
        raise ValidationError("priors needs at least a CTV")
    amap = priors.anatomy_map(structures, params)
    os.makedirs(args.out, exist_ok=True)
    io.write_volume(os.path.join(args.out, "anatomy"), amap, kind="prior")
    if args.dose:
        dose = _read(args.dose)
        rmap = priors.risk_map(dose, structures, params)
        fused = priors.fuse_priors(amap, rmap, params.fusion_alpha)
        io.write_volume(os.path.join(args.out, "risk"), rmap, kind="prior")
        io.write_volume(os.path.join(args.out, "fused"), fused, kind="prior")
    return EXIT_OK


def _cmd_register(args) -> int:
    t0 = time.perf_counter()
    fixed = _read(args.fixed)
    moving = _read(args.moving)
    config = engine.RegConfig.from_dict(io.read_json(args.config, "config")) if args.config \
        else engine.RegConfig()
    structures = _load_structures(args)
    dose = _read(args.dose) if args.dose else None
    # padding only extends the high-index side, so every input must
    # already share one voxel size and one origin
    others = [moving, dose]
    if structures is not None:
        others += [structures.ctv, structures.body, *structures.oars]
    if any((v.spacing, v.origin) != (fixed.spacing, fixed.origin)
           for v in others if v is not None):
        raise ValidationError("input volumes differ in spacing or origin")
    dims = tuple(max(f, m) for f, m in zip(fixed.dims, moving.dims))
    fixed = pad_to_shape(fixed, dims)
    moving = pad_to_shape(moving, dims)
    if structures is not None:
        structures = priors.StructureSet(
            ctv=pad_to_shape(structures.ctv, dims),
            body=pad_to_shape(structures.body, dims),
            oars=tuple(pad_to_shape(o, dims) for o in structures.oars))
    dose = pad_to_shape(dose, dims) if dose is not None else None
    embeddings = tuple(condition.load_embedding(p) for p in (args.embeddings or ()))
    adapter_w = condition.load_adapter(args.adapter) if args.adapter else None
    # refuse missing prior inputs before paying for the rigid stage
    engine.check_prior_inputs(fixed, config, structures, dose, embeddings, adapter_w)

    t1 = time.perf_counter()
    transform, moving_aligned, rigid_stages = engine._rigid_align(
        fixed, moving, engine.foreground_mask(fixed, structures), config)
    t2 = time.perf_counter()
    fld, report = engine.register(fixed, moving_aligned, config,
                                  structures=structures, dose=dose,
                                  embeddings=embeddings, adapter_weights=adapter_w)
    t3 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    io.write_volume(os.path.join(args.out, "field"), fld, kind="field")
    doc = report.to_dict()
    doc["rigid_transform"] = {
        "rotation": list(transform.rotation),
        "translation": list(transform.translation),
        "center": list(transform.center),
    }
    doc["rigid"] = rigid_stages
    io.write_json(os.path.join(args.out, "report.json"), doc)
    # wall seconds per phase; the prior build, levels and folds are register's
    io.write_json(os.path.join(args.out, "timing.json"),
                  {"read": t1 - t0, "rigid": t2 - t1, **report.timing(),
                   "write": time.perf_counter() - t3})
    return EXIT_OK


def _read_rigid(path) -> engine.RigidTransform:
    """The rigid_transform that register wrote to the report at path."""
    doc = _keys(io.read_json(path, "report").get("rigid_transform"),
                f"report {path} rigid_transform", ("rotation", "translation", "center"))
    return engine.RigidTransform(**_known_keys(engine.RigidTransform, doc, "rigid_transform"))


def _cmd_warp(args) -> int:
    fld = _read(args.field, field=True)
    vol = _read(args.image or args.mask)
    t = _read_rigid(args.rigid) if args.rigid else None
    if args.mask:
        out, kind = engine.warp_contour(vol, fld, t), "mask"
    elif t is None:
        out, kind = warp(vol, fld), "image"
    else:
        out, kind = engine.resample_rigid(vol, fld, t), "image"
    io.write_volume(args.out, out, kind=kind)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    if bool(args.ctv_fixed) != bool(args.ctv_prop):
        raise ValidationError("--ctv-fixed and --ctv-prop go together")
    if args.truth and not args.field:
        raise ValidationError("--truth needs --field")
    fixed = _read(args.fixed)
    warped = _read(args.warped)
    mask = _read(args.mask) if args.mask else \
        fixed.with_data(np.ones(fixed.dims, dtype=np.float32))
    fld = _read(args.field, field=True) if args.field else None
    truth = _read(args.truth, field=True) if args.truth else None
    ctv_fixed = _read(args.ctv_fixed) if args.ctv_fixed else None
    ctv_prop = _read(args.ctv_prop) if args.ctv_prop else None

    doc = metrics.metric_report(fixed, warped, mask, fld, ctv_fixed, ctv_prop,
                                truth, epe_mask=mask).to_dict()
    io.write_json(args.out, doc)
    if args.csv:
        line = ",".join(f"{k}={v}" for k, v in sorted(doc.items())
                        if not isinstance(v, dict))
        print(line)
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="protoreg",
                description="Prior-guided coarse-to-fine deformable CT registration")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantom", help="generate a synthetic phantom")
    sp.add_argument("--spec", type=_path, required=True)
    sp.add_argument("--out", type=_path, required=True)

    sp = sub.add_parser("priors", help="build anatomy/risk/fused prior maps")
    sp.add_argument("--ctv", type=_path, required=True)
    sp.add_argument("--oars", type=_path, nargs="*", default=[])
    sp.add_argument("--body", type=_path)
    sp.add_argument("--dose", type=_path)
    sp.add_argument("--params", type=_path)
    sp.add_argument("--out", type=_path, required=True)

    sp = sub.add_parser("register", help="run rigid + deformable registration")
    sp.add_argument("--fixed", type=_path, required=True)
    sp.add_argument("--moving", type=_path, required=True)
    sp.add_argument("--body", type=_path)
    sp.add_argument("--ctv", type=_path)
    sp.add_argument("--oars", type=_path, nargs="*", default=[])
    sp.add_argument("--dose", type=_path)
    sp.add_argument("--embeddings", type=_path, nargs="*", default=[])
    sp.add_argument("--adapter", type=_path)
    sp.add_argument("--config", type=_path)
    sp.add_argument("--out", type=_path, required=True)

    sp = sub.add_parser("warp", help="warp an image or propagate a contour")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--image", type=_path)
    g.add_argument("--mask", type=_path)
    sp.add_argument("--field", type=_path, required=True)
    sp.add_argument("--rigid", type=_path, help="register's report.json: apply its rigid "
                    "transform T too, sampling at T(x + u(x))")
    sp.add_argument("--out", type=_path, required=True)

    sp = sub.add_parser("metrics", help="evaluate alignment quality")
    sp.add_argument("--fixed", type=_path, required=True)
    sp.add_argument("--warped", type=_path, required=True)
    sp.add_argument("--mask", type=_path)
    sp.add_argument("--ctv-fixed", dest="ctv_fixed", type=_path)
    sp.add_argument("--ctv-prop", dest="ctv_prop", type=_path)
    sp.add_argument("--field", type=_path)
    sp.add_argument("--truth", type=_path)
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--out", type=_path, required=True)
    return p


_COMMANDS = {
    "phantom": _cmd_phantom,
    "priors": _cmd_priors,
    "register": _cmd_register,
    "warp": _cmd_warp,
    "metrics": _cmd_metrics,
}


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ArithmeticError, KeyError, TypeError, MemoryError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

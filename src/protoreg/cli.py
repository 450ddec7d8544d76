"""Command-line surface: phantom generation, prior construction,
registration, warping, and metrics.

Exit codes: 0 success, 1 usage error, 2 input/validation error,
3 runtime or numerical failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from . import condition, engine, io, metrics, priors, synth
from .errors import ValidationError, _known_keys
from .volgrid import pad_to_shape

logger = logging.getLogger("protoreg")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _write_json(path, doc):
    io._atomic_write(path, json.dumps(doc, sort_keys=True, indent=2).encode("utf-8"))


def _load_structures(args) -> priors.StructureSet | None:
    ctv = io.read_volume(args.ctv) if getattr(args, "ctv", None) else None
    body = io.read_volume(args.body) if getattr(args, "body", None) else None
    oars = tuple(io.read_volume(p) for p in (getattr(args, "oars", None) or ()))
    if ctv is None and body is None and not oars:
        return None
    ref = ctv or body or oars[0]
    if ctv is None:
        ctv = ref.with_data(np.zeros(ref.dims, dtype=np.float32))
    if body is None:
        body = ref.with_data(np.ones(ref.dims, dtype=np.float32))
    return priors.StructureSet(ctv=ctv, body=body, oars=oars)


def _cmd_phantom(args) -> int:
    doc = _known_keys(synth.PhantomSpec, _load_json(args.spec), "phantom spec")
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
        priors.PriorParams, _load_json(args.params), "prior params")) \
        if args.params else priors.PriorParams()
    structures = _load_structures(args)
    if structures is None:
        raise ValidationError("priors needs at least a CTV")
    amap = priors.anatomy_map(structures, params)
    os.makedirs(args.out, exist_ok=True)
    io.write_volume(os.path.join(args.out, "anatomy"), amap, kind="prior")
    if args.dose:
        dose = io.read_volume(args.dose)
        rmap = priors.risk_map(dose, structures, params)
        fused = priors.fuse_priors(amap, rmap, params.fusion_alpha)
        io.write_volume(os.path.join(args.out, "risk"), rmap, kind="prior")
        io.write_volume(os.path.join(args.out, "fused"), fused, kind="prior")
    return EXIT_OK


def _cmd_register(args) -> int:
    fixed = io.read_volume(args.fixed)
    moving = io.read_volume(args.moving)
    config = engine.RegConfig.from_dict(_load_json(args.config)) if args.config \
        else engine.RegConfig()
    dims = tuple(max(f, m) for f, m in zip(fixed.dims, moving.dims))
    fixed = pad_to_shape(fixed, dims)
    moving = pad_to_shape(moving, dims)
    structures = _load_structures(args)
    if structures is not None:
        structures = priors.StructureSet(
            ctv=pad_to_shape(structures.ctv, dims),
            body=pad_to_shape(structures.body, dims),
            oars=tuple(pad_to_shape(o, dims) for o in structures.oars))
    dose = pad_to_shape(io.read_volume(args.dose), dims) if args.dose else None
    embeddings = tuple(condition.load_embedding(p) for p in (args.embeddings or ()))
    adapter_w = condition.load_adapter(args.adapter) if args.adapter else None

    mask = structures.body if structures is not None else \
        fixed.with_data(np.ones(dims, dtype=np.float32))
    transform, moving_aligned = engine.rigid_align(fixed, moving, mask, config)
    fld, report = engine.register(fixed, moving_aligned, config,
                                  structures=structures, dose=dose,
                                  embeddings=embeddings, adapter_weights=adapter_w)
    os.makedirs(args.out, exist_ok=True)
    io.write_volume(os.path.join(args.out, "field"), fld, kind="field")
    doc = report.to_dict()
    doc["rigid_transform"] = {
        "rotation": list(transform.rotation),
        "translation": list(transform.translation),
        "center": list(transform.center),
    }
    _write_json(os.path.join(args.out, "report.json"), doc)
    _write_json(os.path.join(args.out, "timing.json"), report.timing())
    return EXIT_OK


def _cmd_warp(args) -> int:
    from .volgrid import warp as warp_image
    fld = io.read_volume(args.field)
    if args.image:
        vol = io.read_volume(args.image)
        out = warp_image(vol, fld)
        kind = "image"
    else:
        vol = io.read_volume(args.mask)
        out = engine.warp_contour(vol, fld)
        kind = "mask"
    io.write_volume(args.out, out, kind=kind)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    fixed = io.read_volume(args.fixed)
    warped = io.read_volume(args.warped)
    mask = io.read_volume(args.mask) if args.mask else \
        fixed.with_data(np.ones(fixed.dims, dtype=np.float32))
    fld = io.read_volume(args.field) if args.field else None
    truth = io.read_volume(args.truth) if args.truth else None
    ctv_fixed = io.read_volume(args.ctv_fixed) if args.ctv_fixed else None
    ctv_prop = io.read_volume(args.ctv_prop) if args.ctv_prop else None

    from .similarity import masked_ncc
    doc = {
        "ncc_pct": 100.0 * masked_ncc(fixed, warped, mask),
        "mse": metrics.mse(fixed, warped, mask),
        "ssim_pct": 100.0 * metrics.ssim(fixed, warped, mask),
    }
    if fld is not None:
        doc["fold_fraction_pct"] = metrics.fold_fraction(fld)
        if truth is not None:
            doc["endpoint_error"] = asdict(metrics.endpoint_error(fld, truth, mask))
    if ctv_fixed is not None and ctv_prop is not None:
        doc["relvoldiff_pct"] = metrics.relvoldiff(ctv_fixed, ctv_prop)
    _write_json(args.out, doc)
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
    sp.add_argument("--spec", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("priors", help="build anatomy/risk/fused prior maps")
    sp.add_argument("--ctv", required=True)
    sp.add_argument("--oars", nargs="*", default=[])
    sp.add_argument("--body")
    sp.add_argument("--dose")
    sp.add_argument("--params")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("register", help="run rigid + deformable registration")
    sp.add_argument("--fixed", required=True)
    sp.add_argument("--moving", required=True)
    sp.add_argument("--body")
    sp.add_argument("--ctv")
    sp.add_argument("--oars", nargs="*", default=[])
    sp.add_argument("--dose")
    sp.add_argument("--embeddings", nargs="*", default=[])
    sp.add_argument("--adapter")
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("warp", help="warp an image or propagate a contour")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--image")
    g.add_argument("--mask")
    sp.add_argument("--field", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("metrics", help="evaluate alignment quality")
    sp.add_argument("--fixed", required=True)
    sp.add_argument("--warped", required=True)
    sp.add_argument("--mask")
    sp.add_argument("--ctv-fixed", dest="ctv_fixed")
    sp.add_argument("--ctv-prop", dest="ctv_prop")
    sp.add_argument("--field")
    sp.add_argument("--truth")
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--out", required=True)
    return p


_COMMANDS = {
    "phantom": _cmd_phantom,
    "priors": _cmd_priors,
    "register": _cmd_register,
    "warp": _cmd_warp,
    "metrics": _cmd_metrics,
}


def cli(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    # PROTOREG_THREADS caps worker threads; all math here is single-threaded
    # numpy, so any positive value (or 0 = auto) is accepted as-is.
    threads = os.environ.get("PROTOREG_THREADS", "0")
    try:
        if int(threads) < 0:
            raise ValueError
    except ValueError:
        print(f"invalid PROTOREG_THREADS value {threads!r}", file=sys.stderr)
        return EXIT_USAGE
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
    except (OSError, FloatingPointError, ArithmeticError, KeyError, TypeError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

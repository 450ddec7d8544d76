"""Bit-exact volume / field serialization.

Each object is stored as two files: `<path>.json` (canonical header,
sorted keys) and `<path>.raw` (little-endian float32, x-fastest voxel
order, vector components interleaved per voxel for fields). Writes are
atomic (temp file + rename).
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import FormatError, ValidationError
from .volgrid import DisplacementField, Volume

DTYPE = "f32le"
ORDER = "x-fastest"
KINDS = ("image", "mask", "dose", "field", "prior")


def _atomic_write(path: str, payload: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(obj, kind: str) -> dict:
    components = 3 if isinstance(obj, DisplacementField) else 1
    return {
        "dims": list(obj.dims),
        "spacing": [float(s) for s in obj.spacing],
        "origin": [float(o) for o in obj.origin],
        "components": components,
        "dtype": DTYPE,
        "order": ORDER,
        "kind": kind,
    }


def _flat_bytes(obj) -> bytes:
    # x-fastest voxels; for a field (3, nx, ny, nz) F-order also puts the
    # components fastest, interleaved per voxel
    return np.ascontiguousarray(obj.data.ravel(order="F"), dtype="<f4").tobytes()


def write_volume(path: str, obj, kind: str = "image") -> None:
    """Write `<path>.json` + `<path>.raw` for a Volume or DisplacementField."""
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}")
    if isinstance(obj, DisplacementField) != (kind == "field"):
        raise ValidationError(f"kind {kind!r} does not match object type")
    try:
        header = json.dumps(_header(obj, kind), sort_keys=True).encode("utf-8")
        _atomic_write(path + ".json", header)
        _atomic_write(path + ".raw", _flat_bytes(obj))
    except OSError as e:
        raise OSError(f"failed writing {path!r}: {e}") from e


def read_volume(path: str):
    """Read a Volume or DisplacementField written by write_volume."""
    try:
        with open(path + ".json", "r", encoding="utf-8") as f:
            header = json.load(f)
    except OSError as e:
        raise OSError(f"failed reading {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}.json is not valid JSON: {e}") from e

    for key in ("dims", "spacing", "origin", "components", "dtype", "order"):
        if key not in header:
            raise FormatError(f"{path}.json missing field {key!r}")
    if header["dtype"] != DTYPE:
        raise FormatError(f"unsupported dtype {header['dtype']!r}")
    if header["order"] != ORDER:
        raise FormatError(f"unsupported order {header['order']!r}")
    components = header["components"]
    if components not in (1, 3):
        raise FormatError(f"components must be 1 or 3, got {components}")
    dims = tuple(int(d) for d in header["dims"])
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise FormatError(f"bad dims {dims}")

    try:
        with open(path + ".raw", "rb") as f:
            raw = f.read()
    except OSError as e:
        raise OSError(f"failed reading {path!r}: {e}") from e
    expected = 4 * components * dims[0] * dims[1] * dims[2]
    if len(raw) != expected:
        raise FormatError(
            f"{path}.raw has {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f4")
    spacing = tuple(header["spacing"])
    origin = tuple(header["origin"])
    if components == 3:
        data = flat.reshape((3,) + dims, order="F")
        return DisplacementField(data.copy(), spacing=spacing, origin=origin)
    data = flat.reshape(dims, order="F")
    return Volume(data.copy(), spacing=spacing, origin=origin)

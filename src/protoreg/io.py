"""Bit-exact volume / field serialization, and the package's JSON documents.

Each object is stored as two files: `<path>.json` (canonical header,
sorted keys) and `<path>.raw` (little-endian float32, x-fastest voxel
order, vector components interleaved per voxel for fields). Headers and
every other JSON document (spec, params, config, embedding, adapter,
report) are read through read_json; the other documents are written
through write_json. Writes are atomic (temp file + rename).
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import FormatError, ValidationError, _integer, _keys
from .volgrid import DisplacementField, Volume, _grid_dims

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


def read_json(path, what: str) -> dict:
    """The JSON object in file path; what names the document in errors.
    Bytes that are not UTF-8, text that is not JSON and JSON that is not
    an object raise FormatError."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise OSError(f"failed reading {what} {str(path)!r}: {e}") from e
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} {path} is not UTF-8: {e}") from e
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{what} {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError(f"{what} {path} must be a JSON object")
    return doc


def write_json(path, doc: dict) -> None:
    """Write doc as JSON with sorted keys, indented by 2, atomically."""
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2).encode("utf-8"))


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
    header = read_json(path + ".json", "volume header")
    try:
        # exactly the keys _header writes
        _keys(header, "volume header", ("components", "dims", "dtype", "kind",
                                        "order", "origin", "spacing"))
        dims = _grid_dims(header["dims"])
        if header["dtype"] != DTYPE:
            raise ValidationError(f"unsupported dtype {header['dtype']!r}")
        if header["order"] != ORDER:
            raise ValidationError(f"unsupported order {header['order']!r}")
        if header["kind"] not in KINDS:
            raise ValidationError(f"unknown kind {header['kind']!r}")
        components = header["components"]
        if not (_integer(components) and components in (1, 3)):
            raise ValidationError(f"components must be 1 or 3, got {components!r}")
        # as write_volume pairs them: a field has 3 components, all else 1
        if (header["kind"] == "field") != (components == 3):
            raise ValidationError(f"kind {header['kind']!r} does not match "
                                  f"{components} components")
    except ValidationError as e:
        raise FormatError(f"{path}.json: {e}") from e

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
    if components == 3:
        cls, shape = DisplacementField, (3,) + dims
    else:
        cls, shape = Volume, dims
    # the grid types check the data and the spacing and origin values
    try:
        return cls(flat.reshape(shape, order="F").copy(),
                   spacing=header["spacing"], origin=header["origin"])
    except ValidationError as e:
        raise FormatError(f"{path}: {e}") from e

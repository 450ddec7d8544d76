"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes: ValidationError -> 2,
everything else unexpected -> 3. One key rule covers every JSON document
the program reads (config, spec, params, embedding, adapter, volume header,
a report's rigid_transform): _keys alone refuses a document that is not an
object, lacks a required key or holds a key that is neither required nor
optional. Objects that become dataclasses pass through _known_keys, which
adds a check of each value's JSON type. This module alone decides what
counts as a number (_finite_number), an integer (_integer), a list of
them (_values) or an array (_array): every array a dataclass or sampler
takes is cast, shaped and checked by _array.
"""
import math
import numbers
import reprlib
from dataclasses import fields

import numpy as np


class ValidationError(ValueError):
    """Inputs violate a documented precondition or type invariant."""


class FormatError(ValidationError):
    """A serialized volume/field file is malformed or inconsistent."""


def _keys(doc, what: str, required, optional=()) -> dict:
    """doc, once it is a JSON object holding every required key and no key
    outside required and optional; what names it in errors."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = sorted(map(str, set(doc) - set(required) - set(optional)))
    if unknown:
        raise ValidationError(f"{what} has unknown keys: {', '.join(unknown)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValidationError(f"{what} lacks keys: {', '.join(missing)}")
    return doc


def _known_keys(cls, doc, what: str) -> dict:
    """doc as keyword arguments for the dataclass cls; unknown keys,
    non-objects and values whose JSON type differs from their field's
    default (bool, integer, number or list) are rejected where they enter."""
    known = {f.name: f for f in fields(cls)}
    for name, value in _keys(doc, what, (), known).items():
        want, got = _json_kind(known[name].default), _json_kind(value)
        # an integer is also a number
        if want not in (None, got) and (want, got) != ("number", "integer"):
            raise ValidationError(f"{what} key {name} must be a JSON {want}")
    return dict(doc)


def _json_kind(value):
    """The JSON type of a Python value: bool before int, since bool is an
    int; None for anything else, which _known_keys leaves to the class."""
    for kind, types in (("boolean", bool), ("integer", int), ("number", float),
                        ("list", (list, tuple))):
        if isinstance(value, types):
            return kind
    return None


def _finite_number(x) -> bool:
    """Whether x is a finite real number; a bool is not a number here."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:       # an integer beyond the float range
        return False


def _integer(x) -> bool:
    """Whether x is an integer that is also a finite number, so one that
    fits in a float; a bool is not an integer here."""
    return isinstance(x, numbers.Integral) and _finite_number(x)


def _values(v, name: str, n=None, ok=_finite_number) -> tuple:
    """v as a tuple of values that each pass ok, n of them if n is given;
    anything else is a ValidationError that names v."""
    try:
        t = None if isinstance(v, (str, dict)) else tuple(v)
    except TypeError:
        t = None
    if t is None or (n is not None and len(t) != n) or not all(map(ok, t)):
        what = "integers" if ok is _integer else "finite numbers"
        raise ValidationError(f"{name} must be {n or 'a list of'} {what}, got {reprlib.repr(v)}")
    return t


def _numeric(v, depth: int = 0) -> bool:
    """Whether v is a real number other than a bool, a numpy array of
    integers or floats, or lists, tuples and object arrays of these nested
    at most 64 deep, numpy's most dimensions: what _array reads as an
    array of numbers. Finite or not is _array's own check."""
    if isinstance(v, np.ndarray) and v.dtype != object:
        return v.dtype.kind in "iuf"
    if isinstance(v, (list, tuple, np.ndarray)):
        return depth < 64 and all(_numeric(x, depth + 1) for x in (
            v.flat if isinstance(v, np.ndarray) else v))
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _array(v, name: str, dtype, shape) -> np.ndarray:
    """v cast to a numpy array of dtype, of the given shape, in which None
    stands for any length >= 1, with finite entries only; anything else is
    a ValidationError that names v. Its numbers are those _values takes:
    no bool or string is read as one, whatever entries stand next to it
    (see _numeric)."""
    a = None
    if _numeric(v):
        try:
            with np.errstate(over="ignore"):    # an overflowing cast gives inf
                a = np.asarray(v, dtype=dtype)
        except (TypeError, ValueError, OverflowError):  # ragged, or an int past floats
            pass
    if a is None:
        raise ValidationError(f"{name} must be an array of numbers, "
                              f"got {reprlib.repr(v)}")
    if a.ndim != len(shape) or 0 in a.shape or any(
            d not in (None, n) for d, n in zip(shape, a.shape)):
        want = str(tuple("n" if d is None else d for d in shape)).replace("'", "")
        raise ValidationError(f"{name} shape must be {want}, no axis empty, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite values")
    return a


# _check_numbers' test and wording for each JSON kind of a field's default
_KINDS = {"boolean": (lambda v: isinstance(v, bool), "a bool"),
          "integer": (_integer, "an integer"), "number": (_finite_number, "a finite number")}


def _check_numbers(obj) -> None:
    """Check every field of the dataclass obj whose default is a bool or a
    number: a bool default takes a bool, an integer default an integer, a
    float default a finite number."""
    for f in fields(obj):
        ok, what = _KINDS.get(_json_kind(f.default), (None, None))
        value = getattr(obj, f.name)
        if ok is not None and not ok(value):
            raise ValidationError(f"{f.name} must be {what}, got {reprlib.repr(value)}")

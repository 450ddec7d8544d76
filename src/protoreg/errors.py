"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes: ValidationError -> 2,
everything else unexpected -> 3. JSON objects that become dataclasses
pass through _known_keys first, so a misspelt key or a value of the wrong
JSON type is a ValidationError.
"""
import math
import numbers
from dataclasses import fields


class ValidationError(ValueError):
    """Inputs violate a documented precondition or type invariant."""


class FormatError(ValidationError):
    """A serialized volume/field file is malformed or inconsistent."""


def _known_keys(cls, doc, what: str) -> dict:
    """doc as keyword arguments for the dataclass cls; unknown keys,
    non-objects and values whose JSON type differs from their field's
    default (bool, integer, number or list) are rejected where they enter."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValidationError(f"unknown {what} keys: {', '.join(map(str, unknown))}")
    for name, value in doc.items():
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

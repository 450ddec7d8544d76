"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes: ValidationError -> 2,
everything else unexpected -> 3. JSON objects that become dataclasses
pass through _known_keys first, so a misspelt key is a ValidationError.
"""
from dataclasses import fields


class ValidationError(ValueError):
    """Inputs violate a documented precondition or type invariant."""


class FormatError(ValidationError):
    """A serialized volume/field file is malformed or inconsistent."""


def _known_keys(cls, doc, what: str) -> dict:
    """doc as keyword arguments for the dataclass cls; unknown keys and
    non-objects are rejected where they enter."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {what} keys: {', '.join(map(str, unknown))}")
    return dict(doc)

"""Exception types shared across the package, and `config_value`, the one
conversion of a config or recipe entry that fails with a DomainError, with
the conversions `json_object`, `integer` and `finite` it shares between
modules."""

import numpy as np


class FuzzyRegError(Exception):
    """Base class for all errors raised by fuzzyreg."""


class DomainError(FuzzyRegError, ValueError):
    """An argument lies outside the declared q-interval or intervals mismatch."""


class CapabilityError(FuzzyRegError, TypeError):
    """An operation was requested that the object cannot provide.

    Typical cases: differentiating a profile that only supports evaluation,
    or serializing a profile backed by an opaque callable.
    """


class StructureError(FuzzyRegError, ValueError):
    """Matrix or operator structure does not match what the operation needs.

    Examples: dimension mismatch, a non-unitary matrix passed where a unitary
    is required, a non-diagonal matrix fed into an entrywise diagonal map.
    """


def json_object(value) -> dict:
    """value itself if it is a JSON object; a conversion for config_value."""
    if not isinstance(value, dict):
        raise TypeError("not a JSON object")
    return value


def integer(value) -> int:
    """int(value) for a value that is an integer already ("16", 16.5 and true are not)."""
    out = int(value)
    if out != value or isinstance(value, bool):
        raise ValueError("not an integer")
    return out


def finite(value, conv=float):
    """conv(value) with no NaN or infinite entry (JSON parsing accepts NaN and
    Infinity); conv may return a number or an array."""
    out = conv(value)
    if not np.isfinite(out).all():
        raise ValueError("not finite")
    return out


def config_value(conv, value, what):
    """conv(value) for one config or recipe entry; a value conv rejects
    (TypeError, ValueError or IndexError) raises DomainError."""
    try:
        return conv(value)
    except FuzzyRegError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise DomainError(f"config {what} = {value!r} is invalid: {exc}") from None

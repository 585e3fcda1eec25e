"""Exception types shared across the toolkit, and the one check for config fields."""

import math
import numbers


class InputError(ValueError):
    """Bad input data or configuration: malformed files, missing paths, invalid fields."""


class SolverError(RuntimeError):
    """An optimization stage failed: infeasible problem, iteration limit, failed certificate, or nothing bought."""


def check_field(name: str, value, kind, low=None, high=None, allow=()):
    """Check ``value`` against the rule of config field ``name``; raise InputError if it fails.

    ``kind`` is ``int`` (an integral number, never bool, at least ``low``),
    ``float`` (a finite real number, never bool, above ``low`` and at most
    ``high``), ``str``, or a tuple of the accepted strings. Values in
    ``allow`` (such as ``"auto"`` or None) pass as they are. Returns the
    value, as a Python int or float for those kinds.
    """
    if (value is None or isinstance(value, str)) and value in allow:
        return value
    numeric = not isinstance(value, bool)
    if isinstance(kind, tuple):
        ok, noun = isinstance(value, str) and value in kind, f"one of {kind}"
    elif kind is str:
        ok, noun = isinstance(value, str), "a string"
    elif kind is int:
        noun = "a non-negative integer" if low == 0 else "an integer" + (f" >= {low}" if low else "")
        ok = numeric and isinstance(value, numbers.Integral) and (low is None or value >= low)
    else:
        bounds = ([f"> {low}"] if low is not None else []) + ([f"<= {high}"] if high is not None else [])
        noun = ("a number " + " and ".join(bounds)).rstrip()
        ok = numeric and isinstance(value, numbers.Real)
        if ok and not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value!r}")
        ok = ok and (low is None or value > low) and (high is None or value <= high)
    if not ok:
        allowed = "".join(f" or {a!r}" for a in allow)
        raise InputError(f"{name} must be {noun}{allowed}, got {value!r}")
    return kind(value) if kind in (int, float) else value

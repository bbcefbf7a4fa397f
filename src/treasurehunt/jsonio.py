"""JSON encoding of exact fractions.

Probabilities and values travel as {"num": int, "den": int} objects (bare
integers are accepted on input). Floats are rejected everywhere: a decimal
cannot promise exactness.
"""

from __future__ import annotations

from fractions import Fraction


def fraction_to_json(value: Fraction) -> dict:
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator}


def int_from_json(obj, name: str) -> int:
    """An exact integer, as JSON holds it; floats, booleans and strings
    are rejected."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"{name} must be an integer, got {obj!r}")
    return obj


def fraction_from_json(obj) -> Fraction:
    if isinstance(obj, bool):
        raise ValueError("expected an exact fraction, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        raise ValueError(f"decimal probabilities are rejected, got {obj!r}; use num/den")
    if isinstance(obj, dict):
        extra = set(obj) - {"num", "den"}
        if extra or "num" not in obj or "den" not in obj:
            raise ValueError(f"fraction object must have exactly num and den, got {obj!r}")
        num, den = obj["num"], obj["den"]
        if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) or isinstance(den, bool):
            raise ValueError(f"num and den must be integers, got {obj!r}")
        if den <= 0:
            raise ValueError("den must be positive")
        return Fraction(num, den)
    raise ValueError(f"cannot read an exact fraction from {obj!r}")

"""Exact rational parsing and formatting for configs, CLI values and files.

At the API every coordinate, step bound and radius is a
``fractions.Fraction``, so geometry and verdicts are exact. Values entered
by a user are interpreted with decimal semantics: ``frac(0.02)`` and
``frac("0.02")`` both give 1/50. Code that needs a float's exact binary
value calls ``Fraction(x)`` directly instead. Inside, the exact kernel
works on integer numerators over a common denominator, its *scale*; it
takes each parameter's numerator and denominator once, before its loop,
and moves the parameter to a scale s as numerator * (s // denominator).
"""

from __future__ import annotations

import json
from fractions import Fraction


def frac(value) -> Fraction:
    """Convert a user-facing value to an exact Fraction.

    Accepts Fraction, int, decimal or 'a/b' strings, and floats (routed
    through their shortest decimal repr).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_point(text) -> tuple:
    """Parse a point given as 'x' or 'x,y' (parentheses tolerated)."""
    if isinstance(text, (tuple, list)):
        return tuple(frac(c) for c in text)
    s = str(text).strip().strip("()")
    return tuple(frac(part) for part in s.split(","))


def point_text(point) -> str:
    """A point's coordinates as 'a/b' strings, for messages: '(3/10, 0)'."""
    return "(" + ", ".join(str(frac(c)) for c in point) + ")"


def json_text(payload) -> str:
    """The JSON text of every output file and printed record: indented by
    2, keys sorted, ending in a newline. ``payload`` holds no Fraction
    (see ``jsonable``). One string, so a writer writes it in one call."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def jsonable(value):
    """Recursively convert Fractions to 'a/b' strings for JSON output."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value

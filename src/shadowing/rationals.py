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

from .errors import UsageError


def frac(value) -> Fraction:
    """Convert a user-facing value to an exact Fraction.

    Accepts Fraction, int, decimal or 'a/b' strings, and floats (routed
    through their shortest decimal repr). Any other value, or a string
    that ``Fraction`` rejects, is a ``UsageError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            return Fraction(str(value).strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"not a rational number: {value!r}") from exc
    raise UsageError(f"cannot interpret {value!r} as an exact rational")


def parse_point(text) -> tuple:
    """Parse a point given as 'x' or 'x,y' (parentheses tolerated); a
    coordinate ``frac`` cannot read is a ``UsageError``."""
    if isinstance(text, (tuple, list)):
        return tuple(frac(c) for c in text)
    s = str(text).strip().strip("()")
    return tuple(frac(part) for part in s.split(","))


def point_text(point) -> str:
    """A point's coordinates as 'a/b' strings, for messages: '(3/10, 0)'."""
    return "(" + ", ".join(str(frac(c)) for c in point) + ")"


def json_object(path, keys=()) -> dict:
    """The JSON object in the file at ``path``, holding ``keys``; any
    other content, bytes that are not UTF-8 too, is a ``UsageError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 text") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: not a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise UsageError(f"{path}: no {', '.join(missing)}")
    return data


def json_text(payload) -> str:
    """The JSON text of every output file and printed record: indented by
    2, keys sorted, ending in a newline. ``payload`` holds no Fraction
    (see ``jsonable``). One string, so a writer writes it in one call."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def json_join(texts: dict) -> str:
    """``json_text`` of an object of one member or more, byte for byte,
    from ``texts``, the ``json_text`` of each member by name: the members
    in sorted order, each text nested two spaces deeper, so no member is
    encoded again. A JSON string holds no raw newline, so every newline of
    a text starts one of its lines."""
    return "{\n" + ",\n".join(
        f"  {json.dumps(name)}: " + texts[name][:-1].replace("\n", "\n  ")
        for name in sorted(texts)) + "\n}\n"


def jsonable(value):
    """Recursively convert Fractions to 'a/b' strings for JSON output."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value

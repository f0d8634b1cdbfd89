"""The one writer of indented JSON: every JSON output of the package.

``json.dumps`` skips its C encoder whenever ``indent`` is set, so an
indented dump runs the pure-Python encoder.  ``to_json_text`` gives the
same text, built from json's own scalar encoders.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import inf


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


# Each scalar type, by exact type, and its encoder.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def to_json_text(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) for a tree of str-keyed
    dicts, lists, tuples, str, int, float, bool and None; any other type,
    a subclass of these included, raises TypeError.  `indent` is the newline
    and indentation that close the enclosing container."""
    kind = type(obj)
    encode = _SCALARS.get(kind)
    if encode is not None:
        return encode(obj)
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if kind is dict:
        items = [encode_basestring_ascii(k) + ": " + to_json_text(v, inner)
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    items = [to_json_text(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + indent + "]"

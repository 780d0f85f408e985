"""Typed field access for the JSON files the package reads: decoder specs,
scenes and transfer plans. A missing or mistyped field raises ValueError
naming the file kind and the field, never a bare KeyError or TypeError.
The type checks also guard the fit settings and the lists of an experiment
config.
"""

import sys


def typed(*kinds):
    """Identity on JSON values of the given Python types; TypeError otherwise."""

    def check(value):
        # JSON true/false arrive as bool, which Python also counts as an int
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            names = " or ".join(k.__name__ for k in kinds)
            raise TypeError(f"expected {names}, got {type(value).__name__}")
        return value

    return check


INT, NUMBER, BOOL, OBJECT = typed(int), typed(int, float), typed(bool), typed(dict)


def FINITE(value):
    """A JSON number that a float holds: not NaN or +-Infinity, which Python's
    json reads, nor an integer beyond the float range."""
    if not abs(NUMBER(value)) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value}")
    return value


def list_of(item, length=None):
    """Tuple of `item`-converted entries of a JSON list of `length` entries."""

    def convert(value):
        items = tuple(item(v) for v in typed(list)(value))
        if length is not None and len(items) != length:
            raise ValueError(f"expected {length} entries, got {len(items)}")
        return items

    return convert


_REQUIRED = object()


def read_field(kind: str, doc, name: str, convert, prefix: str = "", default=_REQUIRED):
    """`convert(doc[name])`, or `default` for an absent optional field, with
    every failure raised as ValueError naming `prefix + name` in a `kind` file."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must be a JSON object")
    if name not in doc:
        if default is not _REQUIRED:
            return default
        raise ValueError(f"{kind}: missing field {prefix + name!r}")
    try:
        return convert(doc[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind}: bad field {prefix + name!r}: {exc}") from None

"""Typed field access for the JSON the package reads: decoder specs (spec
files and report headers), scenes, transfer plans and experiment configs.
JSON nested too deep, a repeated or unknown key, a non-object where an
object belongs, or a missing or mistyped field raises ValueError naming the
file kind and the field, never a bare RecursionError, KeyError or TypeError.
"""

import json
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


def parse(kind: str, text: str):
    """The JSON value of `text`; ValueError naming `kind` for a key repeated
    in an object (Python's parser keeps the last) or JSON nested too deep."""

    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):  # name the first key seen twice
            keys = [key for key, _ in pairs]
            raise ValueError(f"{kind}: repeated field {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique)
    except RecursionError:
        raise ValueError(f"{kind}: JSON nested too deep") from None


def check_keys(kind: str, doc, names, prefix: str = ""):
    """`doc`; ValueError unless it is a JSON object (named by its path
    `prefix`, if any) whose keys are all in `names`, naming the first other
    key as `prefix + key`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind}: {prefix[:-1]} must be a JSON object" if prefix else f"{kind} must be a JSON object")
    unknown = sorted(doc.keys() - set(names))
    if unknown:
        raise ValueError(f"{kind}: unknown field {prefix + unknown[0]!r}")
    return doc


_REQUIRED = object()


def read_field(kind: str, doc, name: str, convert, prefix: str = "", default=_REQUIRED):
    """`convert(doc[name])`, or `default` for an absent optional field, with
    every failure raised as ValueError naming `prefix + name` in a `kind` file.
    `doc` is a dict, which :func:`check_keys` checks."""
    if name not in doc:
        if default is not _REQUIRED:
            return default
        raise ValueError(f"{kind}: missing field {prefix + name!r}")
    try:
        return convert(doc[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind}: bad field {prefix + name!r}: {exc}") from None

"""One decoder for every JSON input file.

``load_json`` parses a file and checks its top-level type; ``decode`` builds
a dataclass from a JSON object, typing each field by its annotation.
A key repeated in any object is an error, unknown keys are ignored, values
are type-checked, and every error is a ValueError naming the file and the
key.  Standard library only.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing


def load_json(path, expected: type = dict):
    """Parse a JSON file whose top level must be ``expected`` (dict or list)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, expected):
        kind = "object" if expected is dict else "array"
        raise ValueError(f"{path}: expected a JSON {kind}")
    return obj


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; ``json`` alone would keep a repeated key's
    last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def decode(cls, obj, where: str):
    """Dataclass ``cls`` from JSON object ``obj``.

    Handles float (finite, not bool), int (a whole number), str, fixed-size
    ``tuple[...]``, ``tuple[T, ...]`` and ``frozenset[T]`` (JSON lists),
    ``X | None`` and nested dataclasses.  A missing key takes the field's
    default or, without one, is checked as None.  Errors read
    "<where>: '<key>' must be ..., got <value>"; a ValueError from the
    dataclass's own checks gets the <where> prefix.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {obj!r}")
    hints = _hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        missing = (f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING)
        if f.name in obj or missing:
            kwargs[f.name] = _value(hints[f.name], obj.get(f.name), where,
                                    f.name)
    return construct(cls, where, **kwargs)


def construct(cls, where: str, **kwargs):
    """``cls(**kwargs)``, a ValueError from its own checks prefixed by where;
    ``cls`` may be any callable that checks the values it is given."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _value(tp, value, where: str, key: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType or origin is typing.Union:  # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _value(inner, value, where, key)
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is float and numeric and abs(value) <= sys.float_info.max:
        return float(value)
    if tp is int and numeric and (isinstance(value, int)
                                  or value.is_integer()):
        return int(value)
    if tp is str and isinstance(value, str):
        return value
    variadic = origin is frozenset or args[-1:] == (Ellipsis,)
    if origin in (tuple, frozenset) and isinstance(value, list):
        item_types = args[:1] * len(value) if variadic else args
        if len(item_types) == len(value):
            items = tuple(_value(t, v, where, f"{key}[{i}]")
                          for i, (t, v) in enumerate(zip(item_types, value)))
            return items if origin is tuple else frozenset(items)
    if dataclasses.is_dataclass(tp) and isinstance(value, dict):
        return decode(tp, value, f"{where}: {key}")
    what = {float: "a finite number", int: "a whole number", str: "a string",
            tuple: "a list" if variadic else f"a list of {len(args)} values",
            frozenset: "a list"}.get(origin or tp, "a JSON object")
    raise ValueError(f"{where}: {key!r} must be {what}, got {value!r}")

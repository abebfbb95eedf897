"""Every file format's fields, checked, encoded and decoded from its dataclass.

A record's file form is a JSON object, or a CSV row, of its init fields in
declaration order, after `format_version` when the class sets FORMAT_VERSION.
A field declared with `metadata=INLINE` spreads its dataclass's fields in its
place (the scenario's channel, a network's config); any other dataclass, or
class with `to_dict`/`from_dict` (a Network), nests.  Each field's type hint
picks its JSON type check (see _value) and its decoder, and an array takes
the shape its class's SHAPES or a caller's `shapes` give it.  A value of
another JSON type, or CSV text its type cannot parse, fails naming its field.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np
from numpy.typing import NDArray

# field(metadata=INLINE): the field's dataclass spreads its own fields in the field's place
INLINE = {"inline": True}

_ARRAYS = tuple[NDArray[np.float64], ...]
_SCALARS = {int: "a JSON integer", float: "a JSON number", str: "a JSON string"}
_CELLS = {int: "an integer", float: "a number"}
_as_array = functools.partial(np.asarray, dtype=np.float64)
_FLOAT_LIMIT = 2**1024 - 2**970  # the least integer that float() overflows on


def encode(obj) -> dict:
    """The file form of dataclass obj, its arrays as (nested) lists of floats."""
    data = {"format_version": obj.FORMAT_VERSION} if hasattr(obj, "FORMAT_VERSION") else {}
    for name, hint, inline in _layout(type(obj)):
        value = getattr(obj, name)
        if inline:
            data.update(encode(value))
        elif value is None or hint in _SCALARS:
            data[name] = value if value is None else hint(value)
        elif is_dataclass(hint):
            data[name] = encode(value)
        elif hasattr(hint, "to_dict"):
            data[name] = value.to_dict()
        elif hint == tuple[int, ...]:
            data[name] = list(value)
        elif hint == _ARRAYS:
            data[name] = [_as_array(v).tolist() for v in value]
        else:
            data[name] = _as_array(value).tolist()
    return data


def decode(cls, data, what: str, shapes: dict | None = None, cells: bool = False):
    """The cls record of a loaded JSON object, `what` naming it in every error.  `shapes` adds
    array shapes known only at run time; with `cells`, data is a CSV row, whose text each field's
    hint parses with no JSON type check."""
    version = getattr(cls, "FORMAT_VERSION", None)
    found = data.get("format_version") if isinstance(data, dict) else version
    if version is not None and (type(found) is not int or found != version):
        raise ValueError(f"{what} format_version {found!r} is not supported (expected {version})")
    check_keys(data, _keys(cls) if version is None else ("format_version", *_keys(cls)), what)
    return _build(cls, data, what, {**getattr(cls, "SHAPES", {}), **(shapes or {})}, cells)


def check_keys(data, names, what: str) -> None:
    """Reject a loaded record that is no JSON object or whose keys are not exactly `names`,
    naming each odd key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(data.keys() - set(names))
    missing = [name for name in names if name not in data]
    if unknown or missing:
        raise ValueError(f"{what} keys: unknown {unknown}, missing {missing}")


@functools.cache
def _layout(cls) -> tuple:
    """cls's init fields as (name, type hint, inline) in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], "inline" in f.metadata) for f in fields(cls) if f.init)


@functools.cache
def _keys(cls) -> tuple:
    """cls's file keys, an INLINE field's own in its place."""
    layout = _layout(cls)
    return tuple(k for name, hint, inline in layout for k in (_keys(hint) if inline else [name]))


def _build(cls, data: dict, what: str, shapes: dict, cells: bool):
    values = {}
    for name, hint, inline in _layout(cls):
        where = f"{what} {name}"
        if inline:
            values[name] = _build(hint, data, what, shapes, cells)
        elif is_dataclass(hint):
            values[name] = decode(hint, data[name], where)
        elif hasattr(hint, "from_dict"):
            try:
                values[name] = hint.from_dict(data[name])
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from err
        else:
            values[name] = _value(hint, data[name], shapes.get(name, (None,)), where, cells)
    return cls(**values)


def _value(hint, value, shape: tuple, what: str, cells: bool):
    """value decoded by its type hint, after the hint's JSON type check, or CSV text it parses:
    int takes a JSON integer, float a JSON number, str a JSON string, tuple[int, ...] a list
    of JSON integers, tuple[NDArray, ...] a list of arrays, and any other hint a list of JSON
    numbers of the given shape (rows for two entries; None takes any length), and `X | None`
    also takes null.  A bool is no number, nor is an integer past the float range."""
    if hint in _SCALARS:
        ok = _is_number(value) if hint is float else type(value) is hint
        kind, make = _SCALARS[hint], hint
    elif hint == tuple[int, ...]:
        ok = isinstance(value, list) and all(type(v) is int for v in value)
        kind, make = "a list of JSON integers", tuple
    elif hint == _ARRAYS:
        ok = isinstance(value, list) and all(_shape(v) is not None for v in value)
        kind, make = "a list of arrays", lambda arrays: tuple(map(_as_array, arrays))
    else:
        found = _shape(value)
        ok = found is not None and len(found) == len(shape)
        ok = ok and all(s in (None, n) for n, s in zip(found, shape))
        *rows, n = shape
        kind = "a list of " + "rows of " * len(rows) + (f"{n} " if n else "") + "JSON numbers"
        # a NamedTuple such as RotationAngles makes itself
        make = getattr(hint, "_make", None)
        make = make or {np.ndarray: _as_array, tuple: tuple}.get(get_origin(hint), list)
    if type(None) in get_args(hint):
        ok, kind = ok or value is None, f"{kind} or null"
    if cells:
        try:
            return make(value)
        except ValueError:
            kind = _CELLS[hint]
    elif ok:
        return None if value is None else make(value)
    raise ValueError(f"{what} must be {kind}, got {reprlib.repr(value)}")


def _shape(value) -> tuple | None:
    """The shape of a JSON array of numbers nested in equal-length lists, else None."""
    if not isinstance(value, list):
        return () if _is_number(value) else None
    shapes = set(map(_shape, value)) or {()}
    return (len(value), *shapes.pop()) if len(shapes) == 1 and None not in shapes else None


def _is_number(value) -> bool:
    """A bool is no number, nor is an integer that float() overflows on."""
    return type(value) is float or type(value) is int and abs(value) < _FLOAT_LIMIT

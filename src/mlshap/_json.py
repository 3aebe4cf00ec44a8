"""Canonical JSON for every document mlshap writes (:func:`dumps`: sorted
keys, fixed separators, full-precision floats, no NaN or infinity), and one
typed reader, :func:`parse`, for every document it loads. A schema is ``int``
(64-bit), ``float`` (finite), ``str``, ``bool``, an :class:`Array`, ``[s]``
(a list of ``s``), a dict (an object of exactly its keys, all required, read
in order; a value may be a function of the keys read before it that gives the
schema), a tuple (the first of its schemas that takes the value's JSON type),
or any other JSON value, which matches only itself.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write(path, doc) -> None:
    Path(path).write_text(dumps(doc), encoding="utf-8")


def read(path, where: str):
    """The JSON value in the file at ``path``, or ValueError naming ``where``
    and the path if the file is not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{where} file {path} is not valid JSON: {err}") from None


# An int from json.loads is never a bool. Python compares an int with a float
# exactly, so an integer too large for a float is not a finite number.
_LEAVES = {
    int: ("an integer", lambda v: type(v) is int and -2**63 <= v < 2**63),
    float: ("a finite number", lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}


class Array:
    """A list of ``item`` (int or float), or with ``ndim`` 2 a list of equally
    long such lists, as one array: numpy converts a well-formed list at once,
    and any other is read entry by entry."""

    def __init__(self, item: type, ndim: int = 1):
        self.item, self.ndim = item, ndim

    def read(self, value: list, path: tuple) -> np.ndarray:
        kinds, dtype = ("i", np.int64) if self.item is int else ("if", np.float64)
        try:
            array = np.array(value)
        except ValueError:  # ragged nesting
            array = np.array(None)
        # numpy reads a boolean among numbers as 0 or 1. A sum of finite
        # numbers is finite unless it overflows, and then each entry is read.
        flat = chain.from_iterable(value) if array.ndim == 2 else value
        if (array.ndim == self.ndim and array.dtype.kind in kinds
                and bool not in map(type, flat) and (self.item is int or abs(
                    sum(value) if self.ndim == 1 else array.sum()) <= sys.float_info.max)):
            return array.astype(dtype, copy=False)
        rows = _read([[self.item]] if self.ndim == 2 else [self.item], value, path)
        if self.ndim == 2 and len(set(map(len, rows))) > 1:
            raise _Invalid(path, "has rows of different lengths")
        return np.array(rows, dtype=dtype) if rows else np.empty((0,) * self.ndim, dtype)


class _Invalid(Exception):
    """The node at path ``args[0]``, its keys and indices, breaks its schema."""


def _mismatch(schema, value) -> str | None:
    """What ``schema`` takes, in words, unless it takes ``value``."""
    if isinstance(schema, tuple):
        words = [_mismatch(s, value) for s in schema]
        return None if None in words else " or ".join(words)
    if isinstance(schema, (dict, list, Array)):
        kind = dict if isinstance(schema, dict) else list
        return None if isinstance(value, kind) else "an object" if kind is dict else "a list"
    if isinstance(schema, type):
        return None if _LEAVES[schema][1](value) else _LEAVES[schema][0]
    return None if type(value) is type(schema) and value == schema else json.dumps(schema)


def _read(schema, value, path: tuple):
    """``value`` as ``schema`` reads it at ``path``, or _Invalid."""
    if isinstance(schema, tuple):
        schema = next((s for s in schema if _mismatch(s, value) is None), schema)
    if isinstance(schema, Array):
        return schema.read(value, path)
    expected = _mismatch(schema, value)
    if expected:
        text = json.dumps(value, default=repr)
        raise _Invalid(path, f"is {text if len(text) <= 40 else text[:37] + '...'}, "
                             f"must be {expected}")
    if isinstance(schema, list):
        return [_read(schema[0], v, path + (i,)) for i, v in enumerate(value)]
    if not isinstance(schema, dict):
        return value
    out = {}
    for key, item in schema.items():
        if key not in value:
            raise _Invalid(path + (key,), "is missing")
        item = item(out) if callable(item) and not isinstance(item, type) else item
        out[key] = _read(item, value[key], path + (key,))
    if len(value) > len(out):
        raise _Invalid(path + (next(k for k in value if k not in schema),),
                       "is not a known key")
    return out


def parse(doc, schema, where: str):
    """``doc`` as ``schema`` reads it, or ValueError naming ``where`` and the
    JSON path of the first node that breaks the schema, such as ``model:
    payload.forests[3].trees[2].left[7] is true, must be an integer``."""
    try:
        return _read(schema, doc, ())
    except _Invalid as err:
        path, fault = err.args
        at = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" if i else str(k)
                     for i, k in enumerate(path))
        raise ValueError(f"{where}: {at} {fault}" if at else f"{where} {fault}") from None

"""Canonical JSON emission shared by every serializer in the package.

All documents written by mlshap go through :func:`dumps` so that identical
inputs always produce identical bytes (sorted keys, fixed separators, floats
rendered at full round-trip precision). NaN and infinities are refused, since
JSON has no spelling for them.
"""

from __future__ import annotations

import json
from pathlib import Path


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def loads(text: str):
    return json.loads(text)


def write(path, doc) -> None:
    Path(path).write_text(dumps(doc), encoding="utf-8")


def read(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def field(doc, key: str, where: str):
    """``doc[key]``; a missing or null value, or a ``doc`` that is not an
    object, raises ValueError naming ``where`` and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    value = doc.get(key)
    if value is None:
        raise ValueError(f"{where}: {key} is {'null' if key in doc else 'missing'}")
    return value


def check_version(doc: dict, version: int, where: str) -> None:
    """Raise ValueError unless ``doc["version"]`` is the integer ``version``;
    JSON ``true`` is not 1."""
    found = doc.get("version")
    if isinstance(found, bool) or not isinstance(found, int) or found != version:
        raise ValueError(f"unsupported {where} version {json.dumps(found)}")

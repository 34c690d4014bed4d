"""The JSON input boundary shared by the p-vector and system readers.

A reader walks a decoded document with plain indexing; whatever a malformed
document makes that walk raise, nesting too deep included, leaves this
module as ``ValueError``, which the command line reports with exit code 2.
"""

from __future__ import annotations

import json
from typing import Any, Callable, TextIO, TypeVar

T = TypeVar("T")

__all__ = ["json_int", "read_document", "load_document"]


def json_int(value, name: str) -> int:
    """Return ``value`` if it is a JSON integer; ``6.0``, ``"6"`` and ``true`` are not."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def read_document(build: Callable[[Any], T], data, what: str) -> T:
    """``build(data)`` for a decoded ``what`` document; malformed input raises ``ValueError``."""
    try:
        return build(data)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None
    except (KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed {what} JSON: {type(exc).__name__}: {exc}") from exc


def load_document(
    build: Callable[[Any], T], source: str | TextIO, what: str, object_hook=None
) -> T:
    """Decode JSON ``source``, a string or an open text file; read it with :func:`read_document`.

    ``object_hook`` is passed to the decoder as ``json.loads`` takes it.
    """
    try:
        if isinstance(source, str):
            data = json.loads(source, object_hook=object_hook)
        else:
            data = json.load(source, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None
    return read_document(build, data, what)

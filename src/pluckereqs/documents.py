"""The JSON input boundary shared by the p-vector and system readers.

Both readers decode their input with a :class:`JsonText`, which reads a
file in chunks and decodes one value at a time, and place a syntax error
as ``json.loads`` does.  A p-vector document is small and decoded as one
value; a system document can be tens of megabytes, so its reader walks the
top-level object and the equations array itself.  Whatever a malformed
document makes a reader raise, nesting too deep included, leaves
:func:`read_document` as ``ValueError``, which the command line reports
with exit code 2.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator
from io import TextIOBase

__all__ = ["json_int", "read_document", "JsonText"]

# Characters per read of a JSON file.
_CHUNK = 1 << 20

_SPACE = re.compile(r"[ \t\n\r]*")

_DECODER = json.JSONDecoder()


def json_int(value, name: str) -> int:
    """Return ``value`` if it is a JSON integer; ``6.0``, ``"6"`` and ``true`` are not."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def read_document(build: Callable[[object], object], data, what: str) -> object:
    """``build(data)`` for a ``what`` document; malformed input raises ``ValueError``.

    ``data`` is the decoded document, or a :class:`JsonText` that ``build``
    decodes as it goes.
    """
    try:
        return build(data)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None
    except (KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed {what} JSON: {type(exc).__name__}: {exc}") from exc


class JsonText:
    """A JSON text, whole or read from a file in chunks, for a reader that walks it.

    The buffer holds the unread rest of the text read so far.  A value is
    decoded with ``JSONDecoder.raw_decode``, the C scanner, from the buffer;
    one that does not fit in it is decoded again after a read of at least
    as much as the buffer holds, so a long value costs linear time.  A
    syntax error raises ``ValueError`` placed in the whole document, as
    ``json.loads`` places it; one found away from the buffer's end raises
    without reading the rest of the input.
    """

    def __init__(self, source: str | TextIOBase) -> None:
        # ``source`` is None once the input is exhausted.
        self.buf, self.source = (source, None) if isinstance(source, str) else ("", source)
        self.pos = 0  # the next unread character of buf
        self.base = 0  # the document offset of buf[0]
        self.lines = 0  # newlines before buf[0]
        self.newline = -1  # the document offset of the last of them

    def _read(self) -> bool:
        """Append more text to the unread rest of the buffer; False at the end of the input."""
        if self.source is None:
            return False
        buf, pos = self.buf, self.pos
        text = self.source.read(max(_CHUNK, len(buf) - pos))
        if not text:
            self.source = None
            return False
        dropped = buf.count("\n", 0, pos)
        if dropped:
            self.lines += dropped
            self.newline = self.base + buf.rindex("\n", 0, pos)
        self.buf, self.pos, self.base = buf[pos:] + text, 0, self.base + pos
        return True

    def error(self, msg: str) -> ValueError:
        """The error ``msg`` at the next unread character."""
        buf, pos = self.buf, self.pos
        newline = buf.rfind("\n", 0, pos)
        column = pos - newline if newline >= 0 else self.base + pos - self.newline
        line = self.lines + buf.count("\n", 0, pos) + 1
        return ValueError(f"invalid JSON: {msg}: line {line} column {column} (char {self.base + pos})")

    def peek(self) -> str:
        """Skip whitespace and return the next character, or ``""`` at the end of the input."""
        while True:
            self.pos = _SPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self._read():
                return ""

    def expect(self, chars: str, msg: str) -> str:
        """Consume and return the next character, which must be one of ``chars``."""
        char = self.peek()
        if not char or char not in chars:
            raise self.error(msg)
        self.pos += 1
        return char

    def elements(self, closer: str) -> Iterator[None]:
        """Walk the array or object that opens at the next character.

        Yields once before each element, which the caller then reads, and
        consumes the brackets and the commas; ``closer`` is ``"]"`` or ``"}"``.
        """
        self.pos += 1
        if self.peek() == closer:
            self.pos += 1
            return
        while True:
            yield
            if self.expect("," + closer, "Expecting ',' delimiter") == closer:
                return
            self.pos -= 1  # back onto the comma, which a read then keeps in the buffer
            end = _SPACE.match(self.buf, self.pos + 1).end()
            while end == len(self.buf) and self._read():
                end = _SPACE.match(self.buf, self.pos + 1).end()
            if self.buf.startswith(closer, end):
                # Say what the running scanner says: Python 3.13 names a trailing comma.
                prefix = "[0" if closer == "]" else '{"": 0'
                try:
                    _DECODER.raw_decode(prefix + self.buf[self.pos : end + 1])
                except json.JSONDecodeError as exc:
                    self.pos += exc.pos - len(prefix)
                    raise self.error(exc.msg) from None
            self.pos = end

    def members(self) -> Iterator[str]:
        """Walk the object that opens at the next character, refusing a repeated key.

        Yields each key with the text at its value, which the caller then
        reads.
        """
        keys = set()
        for _ in self.elements("}"):
            if self.peek() != '"':
                raise self.error("Expecting property name enclosed in double quotes")
            key = self.decode()
            if key in keys:
                raise self.error(f"Repeated key {key!r}")
            keys.add(key)
            self.expect(":", "Expecting ':' delimiter")
            yield key

    def decode(self) -> object:
        """Decode the next value."""
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                # When the buffer cuts a value short, the scanner fails inside
                # a string it opened or within a token of the buffer's end (the
                # longest failing token prefix, "-Infinit", has 8 characters;
                # 16 leaves room).  Any other failure is final and needs no
                # more of the input.
                cut = exc.pos > len(self.buf) - 16 or exc.msg.startswith("Unterminated string")
                if cut and self._read():
                    continue
                self.pos, msg = exc.pos, exc.msg
                if self.base + exc.pos == 0 and self.buf[:1] == "\ufeff":
                    msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)"  # as json.loads says
                raise self.error(msg) from None
            # A number that ends the buffer may run on past it.
            if end < len(self.buf) or not self._read():
                self.pos = end
                return value

    def end(self) -> None:
        """Check that only whitespace is left."""
        if self.peek():
            raise self.error("Extra data")

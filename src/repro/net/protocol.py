"""RESP2/RESP3 wire codec for the live frontend.

Extends the engine-side RESP2 codec (:mod:`repro.kvs.resp`) with the
RESP3 types a ``HELLO 3`` client expects — nulls (``_``), booleans
(``#``), doubles (``,``), big numbers (``(``), maps (``%``), sets
(``~``) and push frames (``>``) — and hardens the parser for a public
socket: torn reads at arbitrary byte boundaries, hostile framing, depth
bombs and length bombs all either yield values or raise
:class:`WireProtocolError`; no input may crash the parser with anything
else.

The encoder is protocol-aware: one reply value renders as RESP3 for a
``HELLO 3`` connection and degrades to RESP2 (maps flatten to arrays,
booleans to integers, doubles to bulk strings) for everyone else, the
way Redis itself does.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.kvs.resp import ProtocolError, RespError, SimpleString

CRLF = b"\r\n"

#: Redis's proto-max-bulk-len default: a longer bulk header is hostile.
MAX_BULK_LEN = 512 * 1024 * 1024
#: Redis's multibulk element cap.
MAX_MULTIBULK = 1024 * 1024
#: Aggregate nesting beyond this is a depth bomb, not a real client.
MAX_DEPTH = 128


class WireProtocolError(ProtocolError):
    """The byte stream violates RESP framing (wire-layer variant)."""


class Push(list):
    """A RESP3 push frame (``>``): out-of-band server-initiated data."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _format_double(value: float) -> bytes:
    if value != value:
        return b"nan"
    if value == float("inf"):
        return b"inf"
    if value == float("-inf"):
        return b"-inf"
    text = repr(value)
    return text.encode()


def encode(value, proto: int = 2) -> bytes:
    """Serialize one reply value for a proto-2 or proto-3 connection."""
    if isinstance(value, SimpleString):
        return b"+" + bytes(value) + CRLF
    if isinstance(value, RespError):
        message = value.message.replace("\r", " ").replace("\n", " ")
        return b"-" + message.encode() + CRLF
    if isinstance(value, bool):
        if proto >= 3:
            return b"#t" + CRLF if value else b"#f" + CRLF
        return b":1" + CRLF if value else b":0" + CRLF
    if isinstance(value, int):
        return b":" + str(value).encode() + CRLF
    if isinstance(value, float):
        if proto >= 3:
            return b"," + _format_double(value) + CRLF
        return encode(_format_double(value), proto)
    if value is None:
        if proto >= 3:
            return b"_" + CRLF
        return b"$-1" + CRLF
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
        return b"$" + str(len(data)).encode() + CRLF + data + CRLF
    if isinstance(value, str):
        return encode(value.encode(), proto)
    if isinstance(value, dict):
        if proto >= 3:
            parts = [b"%" + str(len(value)).encode() + CRLF]
            for key, item in value.items():
                parts.append(encode(key, proto))
                parts.append(encode(item, proto))
            return b"".join(parts)
        flat = []
        for key, item in value.items():
            flat.append(key)
            flat.append(item)
        return encode(flat, proto)
    if isinstance(value, Push):
        marker = b">" if proto >= 3 else b"*"
        parts = [marker + str(len(value)).encode() + CRLF]
        parts.extend(encode(item, proto) for item in value)
        return b"".join(parts)
    if isinstance(value, (list, tuple)):
        parts = [b"*" + str(len(value)).encode() + CRLF]
        parts.extend(encode(item, proto) for item in value)
        return b"".join(parts)
    if isinstance(value, (set, frozenset)):
        raise TypeError(
            "refusing to encode a set: iteration order is not "
            "deterministic; encode a sorted list instead"
        )
    raise TypeError(f"cannot encode {type(value).__name__} as RESP")


def encode_command(*args) -> bytes:
    """Serialize a client command as an array of bulk strings."""
    normalized = [
        a if isinstance(a, (bytes, bytearray)) else str(a).encode()
        for a in args
    ]
    return encode(list(normalized))


# ---------------------------------------------------------------------------
# incremental parsing
# ---------------------------------------------------------------------------

class _Incomplete:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<incomplete>"


_INCOMPLETE = _Incomplete()

#: Public sentinel returned by :meth:`StreamParser.parse_one` when the
#: buffered bytes do not yet form a complete value.
INCOMPLETE = _INCOMPLETE


class StreamParser:
    """Incremental RESP2/RESP3 parser for one connection.

    Feed it arbitrary chunks (``feed``) and iterate complete values::

        parser = StreamParser()
        parser.feed(chunk)
        for value in parser:
            ...

    Bytes stay in one ``bytearray`` and are parsed in place at a read
    offset; ``feed`` drops the consumed prefix once per call.  A request
    array (``*`` of ``$`` bulks, what every client sends) is read by one
    flat loop that resumes where the previous call ran out of bytes, so
    a pipeline or a request torn across reads is scanned once: parse
    cost is linear in the bytes received.

    Framing violations raise :class:`WireProtocolError`; anything else
    escaping the parser is a bug (the fuzz tests enforce this).  After a
    protocol error the connection is unsalvageable — the server closes
    it, as Redis does.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Start of the first unconsumed byte in ``_buffer``.
        self._pos = 0
        #: ``(items, count, offset)`` of a request array that ran out of
        #: bytes: its elements so far, its length, and where its next
        #: element starts relative to ``_pos``.
        self._partial: Optional[tuple[list, int, int]] = None
        self.values_parsed = 0
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> None:
        """Append raw bytes from the wire."""
        if self._pos:
            del self._buffer[: self._pos]
            self._pos = 0
        self._buffer += data

    def __iter__(self) -> Iterator:
        while True:
            value = self.parse_one()
            if value is _INCOMPLETE:
                return
            yield value

    def parse_one(self):
        """One complete value, or the ``INCOMPLETE`` sentinel."""
        buf = self._buffer
        start = self._pos
        if self._partial is not None or (
            start < len(buf) and buf[start] == _ARRAY
        ):
            result, end = self._parse_request(buf, start)
        else:
            result, end = _parse(buf, start, 0)
        if result is _INCOMPLETE:
            return _INCOMPLETE
        self._pos = end
        self.values_parsed += 1
        self.bytes_consumed += end - start
        return result

    def _parse_request(self, buf: bytearray, start: int):
        """A top-level ``*`` frame; ``$`` elements inline, others recurse.

        Elements sit at depth 1, so the flat loop never reaches
        ``MAX_DEPTH``; nested elements go through :func:`_parse` and
        keep its depth accounting.
        """
        partial = self._partial
        if partial is None:
            line_end = buf.find(CRLF, start + 1)
            if line_end < 0:
                _check_unterminated(buf, start + 1, b"*")
                return _INCOMPLETE, start
            count = _parse_count(buf[start + 1 : line_end], "array length")
            if count is None:
                return None, line_end + 2
            items: list = []
            pos = line_end + 2
        else:
            self._partial = None
            items, count, offset = partial
            pos = start + offset
        size = len(buf)
        find = buf.find
        append = items.append
        for _ in range(count - len(items)):
            if pos >= size:
                break
            if buf[pos] != _BULK:
                item, after = _parse(buf, pos, 1)
                if item is _INCOMPLETE:
                    break
                append(item)
                pos = after
                continue
            line_end = find(CRLF, pos + 1)
            if line_end < 0:
                _check_unterminated(buf, pos + 1, b"$")
                break
            header = buf[pos + 1 : line_end]
            try:
                length = int(header)
            except ValueError:
                raise WireProtocolError(
                    f"bad bulk length {bytes(header)!r}"
                ) from None
            body = line_end + 2
            if length == -1:
                append(None)
                pos = body
                continue
            if length < 0 or length > MAX_BULK_LEN:
                raise WireProtocolError(f"bad bulk length {length}")
            end = body + length
            if size < end + 2:
                break
            if buf[end] != _CR or buf[end + 1] != _LF:
                raise WireProtocolError("bulk string missing terminator")
            append(bytes(buf[body:end]))
            pos = end + 2
        else:
            return items, pos
        self._partial = (items, count, pos - start)
        return _INCOMPLETE, start

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete value."""
        return len(self._buffer) - self._pos


_ARRAY, _BULK, _CR, _LF = b"*$\r\n"

#: Redis's ``PROTO_INLINE_MAX_SIZE``: a line still unterminated past
#: this many bytes is hostile, whatever its kind.  Bulk *bodies* are
#: framed by their length and stay under ``MAX_BULK_LEN``.
MAX_LINE_LEN = 64 * 1024

#: Redis's message for an over-long unterminated line, by line kind
#: (``None`` is an inline command).
_LINE_TOO_BIG = {
    None: "too big inline request",
    b"*": "too big mbulk count string",
    b"%": "too big mbulk count string",
    b"~": "too big mbulk count string",
    b">": "too big mbulk count string",
    b"$": "too big bulk count string",
}


def _check_unterminated(data: bytearray, pos: int,
                        kind: Optional[bytes]) -> None:
    if len(data) - pos > MAX_LINE_LEN:
        raise WireProtocolError(_LINE_TOO_BIG.get(kind, "too big line"))


def _find_line(data: bytearray, pos: int,
               kind: Optional[bytes]) -> Optional[tuple[bytes, int]]:
    end = data.find(CRLF, pos)
    if end < 0:
        _check_unterminated(data, pos, kind)
        return None
    return bytes(data[pos:end]), end + 2


def _parse_int(line, what: str) -> int:
    try:
        return int(line)
    except ValueError:
        raise WireProtocolError(f"bad {what} {bytes(line)!r}") from None


def _parse(data: bytearray, pos: int, depth: int):
    if depth > MAX_DEPTH:
        raise WireProtocolError("aggregate nesting too deep")
    if pos >= len(data):
        return _INCOMPLETE, pos
    kind = bytes(data[pos : pos + 1])
    if kind in b"+-:$*_#,(%~>":
        found = _find_line(data, pos + 1, kind)
        if found is None:
            return _INCOMPLETE, pos
        line, after = found
        if kind == b"+":
            return SimpleString(line), after
        if kind == b"-":
            return RespError(line.decode("utf-8", "replace")), after
        if kind == b":" or kind == b"(":
            return _parse_int(line, "integer"), after
        if kind == b"_":
            if line:
                raise WireProtocolError("null frame carries payload")
            return None, after
        if kind == b"#":
            if line == b"t":
                return True, after
            if line == b"f":
                return False, after
            raise WireProtocolError(f"bad boolean {line!r}")
        if kind == b",":
            return _parse_double(line), after
        if kind == b"$":
            return _parse_bulk(data, line, after)
        if kind == b"%":
            return _parse_map(data, line, after, depth)
        if kind == b"~":
            return _parse_set(data, line, after, depth)
        # * and > share array framing.
        return _parse_array(data, line, after, depth, push=kind == b">")
    # Inline command: a bare line of space-separated words.
    found = _find_line(data, pos, None)
    if found is None:
        return _INCOMPLETE, pos
    line, after = found
    if not line.strip():
        raise WireProtocolError("empty inline command")
    return line.split(), after


def _parse_double(line: bytes) -> float:
    text = line.decode("ascii", "replace").strip()
    if not text:
        raise WireProtocolError("empty double")
    try:
        return float(text)
    except ValueError:
        raise WireProtocolError(f"bad double {line!r}") from None


def _parse_bulk(data: bytearray, header: bytes, pos: int):
    length = _parse_int(header, "bulk length")
    if length == -1:
        return None, pos
    if length < 0 or length > MAX_BULK_LEN:
        raise WireProtocolError(f"bad bulk length {length}")
    end = pos + length
    if len(data) < end + 2:
        return _INCOMPLETE, pos
    if data[end : end + 2] != CRLF:
        raise WireProtocolError("bulk string missing terminator")
    return bytes(data[pos:end]), end + 2


def _parse_count(header: bytes, what: str) -> Optional[int]:
    count = _parse_int(header, what)
    if count == -1:
        return None
    if count < 0 or count > MAX_MULTIBULK:
        raise WireProtocolError(f"bad {what} {count}")
    return count


def _parse_array(data: bytearray, header: bytes, pos: int, depth: int,
                 push: bool = False):
    count = _parse_count(header, "array length")
    if count is None:
        if push:
            raise WireProtocolError("null push frame")
        return None, pos
    items = Push() if push else []
    for _ in range(count):
        item, pos = _parse(data, pos, depth + 1)
        if item is _INCOMPLETE:
            return _INCOMPLETE, pos
        items.append(item)
    return items, pos


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        raise WireProtocolError(
            f"unhashable {type(value).__name__} as map/set member"
        ) from None
    return value


def _parse_map(data: bytearray, header: bytes, pos: int, depth: int):
    count = _parse_count(header, "map length")
    if count is None:
        raise WireProtocolError("null map frame")
    items: dict = {}
    for _ in range(count):
        key, pos = _parse(data, pos, depth + 1)
        if key is _INCOMPLETE:
            return _INCOMPLETE, pos
        value, pos = _parse(data, pos, depth + 1)
        if value is _INCOMPLETE:
            return _INCOMPLETE, pos
        items[_hashable(key)] = value
    return items, pos


def _parse_set(data: bytearray, header: bytes, pos: int, depth: int):
    count = _parse_count(header, "set length")
    if count is None:
        raise WireProtocolError("null set frame")
    items = set()
    for _ in range(count):
        item, pos = _parse(data, pos, depth + 1)
        if item is _INCOMPLETE:
            return _INCOMPLETE, pos
        items.add(_hashable(item))
    return items, pos

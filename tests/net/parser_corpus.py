"""Inputs and recorder for the committed parser parity corpus.

``fixtures/parser_corpus.json`` holds what the recursive parser that
predates the in-place rewrite returned for every input built here: the
``(repr(value), consumed)`` of each value it produced and how the
stream ended (still incomplete, or the :class:`WireProtocolError`
message).  ``test_parser_corpus.py`` replays the inputs through the
current parser and requires the same record.

Regenerate against a given checkout of the parser with::

    PYTHONPATH=<checkout>/src python -m tests.net.parser_corpus OUT.json

Only the names every revision of ``repro.net.protocol`` exports are
used (``StreamParser``, ``INCOMPLETE``, ``WireProtocolError``,
``MAX_DEPTH``, the byte counters).
"""

from __future__ import annotations

import json
import sys

from repro.net.protocol import (
    INCOMPLETE,
    MAX_DEPTH,
    StreamParser,
    WireProtocolError,
)

#: Chunk size of the second feeding mode: small enough to tear every
#: header, bulk body and terminator in the corpus.
CHUNK = 7

#: Unterminated lines around the 64 KiB cap: ``(head, fill, count)``
#: builds ``head + fill * count``.  The parent parser buffered every one
#: of these; the cap turns the longer ones into protocol errors.
LINE_CAP_CASES = [
    ("", "a", 65536),
    ("", "a", 65537),
    ("*", "1", 65536),
    ("*", "1", 65537),
    ("$", "1", 65536),
    ("$", "1", 65537),
    ("*1\r\n$", "1", 65537),
    ("+", "x", 65537),
]


def bulk(data: bytes) -> bytes:
    return b"$%d\r\n%s\r\n" % (len(data), data)


def request(*args: bytes) -> bytes:
    return b"*%d\r\n" % len(args) + b"".join(bulk(a) for a in args)


#: Valid streams: every prefix of each is a corpus input.
VALID = [
    request(b"PING"),
    request(b"SET", b"key:000000000042", b"v" * 16),
    request(b"GET", b"k"),
    request(b"SET", b"", b"a\r\nb"),
    request(b"MSET", b"a", b"1", b"b", b"2"),
    request(b"SET", b"k", b"v") + request(b"GET", b"k"),
    b"*2\r\n$3\r\nGET\r\n$-1\r\n",
    b"*0\r\n",
    b"*-1\r\n",
    b"*3\r\n$3\r\nSET\r\n:7\r\n+OK\r\n",
    b"*2\r\n$4\r\nECHO\r\n*2\r\n$1\r\na\r\n_\r\n",
    b"%1\r\n$1\r\nk\r\n*1\r\n#t\r\n",
    b"~2\r\n:1\r\n:2\r\n",
    b">2\r\n$7\r\nmessage\r\n,1.5\r\n",
    b"PING\r\n",
    b"SET  k   v\r\n",
]

#: Whole inputs (no prefixes): malformed framing and edge shapes.
EDGES = [
    # $-1 elements and nulls
    b"*1\r\n$-1\r\n",
    b"*3\r\n$-1\r\n$-1\r\n$1\r\nx\r\n",
    b"$-1\r\n",
    # negative, oversized and non-numeric lengths
    b"$-2\r\n",
    b"*1\r\n$-2\r\n",
    b"*-2\r\n",
    b"*2\r\n$3\r\nGET\r\n$-7\r\n",
    b"$536870912\r\n",
    b"$536870913\r\n",
    b"*1\r\n$536870913\r\n",
    b"*1048576\r\n",
    b"*1048577\r\n",
    b"*2\r\n*1048577\r\n",
    b"$abc\r\n",
    b"*1\r\n$abc\r\n",
    b"*x\r\n",
    b"*\r\n",
    b"$\r\n",
    b"*1\r\n$\r\n",
    b"* 1\r\n$ 1\r\nx\r\n",
    b"*1 \r\n$1 \r\nx\r\n",
    b"*+1\r\n$+1\r\nx\r\n",
    b"*1_0\r\n",
    b"*1\r\n$1_0\r\n0123456789\r\n",
    b"*1\r\n$-0\r\n\r\n",
    b"*1\r\n$0\r\n\r\n",
    b"*1\r\n$3\r\r\nabc\r\n",
    b"*1\r\n$\xd9\xa3\r\nabc\r\n",
    b"*1\r\n$1.0\r\nx\r\n",
    # bad bulk terminators
    b"$3\r\nabcd\r\n",
    b"*1\r\n$3\r\nabcXY",
    b"*1\r\n$3\r\nabc\n\r",
    b"*1\r\n$3\r\nabc\r",
    b"*1\r\n$3\r\nabc\rX",
    b"*2\r\n$1\r\nab\r\n$1\r\nc\r\n",
    # nesting at MAX_DEPTH and at MAX_DEPTH + 1
    b"*1\r\n" * MAX_DEPTH + b":1\r\n",
    b"*1\r\n" * (MAX_DEPTH + 1) + b":1\r\n",
    b"*1\r\n" * MAX_DEPTH + b"$1\r\nx\r\n",
    b"*1\r\n" * (MAX_DEPTH + 1) + b"$1\r\nx\r\n",
    b"*1\r\n" * (MAX_DEPTH + 2),
    b"*2\r\n$1\r\na\r\n" + b"*1\r\n" * MAX_DEPTH + b":1\r\n",
    # non-bulk elements inside a request array
    b"*2\r\n:1\r\n$1\r\nx\r\n",
    b"*2\r\n$3\r\nGET\r\n+k\r\n",
    b"*2\r\n$3\r\nGET\r\n-ERR k\r\n",
    b"*2\r\n$3\r\nGET\r\n:abc\r\n",
    b"*1\r\n_\r\n",
    b"*1\r\n_x\r\n",
    b"*2\r\n#t\r\n#x\r\n",
    b"*1\r\n,2.5\r\n",
    b"*1\r\n,\r\n",
    b"*1\r\n(123456789012345678901234567890\r\n",
    b"*1\r\n%1\r\n$1\r\nk\r\n:1\r\n",
    b"*1\r\n%1\r\n*1\r\n:1\r\n:2\r\n",
    b"*1\r\n~1\r\n:1\r\n",
    b"*1\r\n>1\r\n:1\r\n",
    b"*1\r\n>-1\r\n",
    b"*1\r\n*-1\r\n",
    b"*1\r\nPING\r\n",
    b"*1\r\n\r\n",
    # RESP3 frames
    b"_\r\n",
    b"_oops\r\n",
    b"#t\r\n#f\r\n",
    b"#x\r\n",
    b",1.5\r\n,inf\r\n,-inf\r\n,nan\r\n",
    b",xyz\r\n",
    b",\r\n",
    b"(12345678901234567890\r\n",
    b"%-1\r\n",
    b"%-2\r\n",
    b"~-1\r\n",
    b">-1\r\n",
    b"%1\r\n*1\r\n:1\r\n:2\r\n",
    b"~1\r\n*1\r\n:1\r\n",
    b"%2\r\n$1\r\na\r\n:1\r\n$1\r\na\r\n:2\r\n",
    b"+OK\r\n-ERR boom\r\n:42\r\n",
    b"-\xff\xfe\r\n",
    # inline commands
    b"\r\n",
    b"   \r\n",
    b"PING\n",
    b"SET\tk\tv\r\n",
    b"GET k\r\nGET",
    b"\x00\x01\r\n",
    # pipelines mixing shapes
    b"PING\r\n*1\r\n$4\r\nPING\r\n+OK\r\n",
    b"*1\r\n$4\r\nPING\r\n$3\r\nabcd\r\n",
]


def inputs() -> list[bytes]:
    """Every corpus input, in a fixed order without duplicates."""
    seen: set[bytes] = set()
    out: list[bytes] = []
    for stream in VALID:
        for end in range(len(stream) + 1):
            data = stream[:end]
            if data not in seen:
                seen.add(data)
                out.append(data)
    for data in EDGES:
        if data not in seen:
            seen.add(data)
            out.append(data)
    return out


def describe(value) -> str:
    """``repr`` with set members sorted (set order varies per process)."""
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(describe(v) for v in value)) + "}"
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{describe(k)}: {describe(v)}" for k, v in value.items()
        ) + "}"
    if isinstance(value, list):
        inner = ", ".join(describe(v) for v in value)
        return f"{type(value).__name__}[{inner}]"
    if isinstance(value, bytes) and type(value) is not bytes:
        return f"{type(value).__name__}({bytes(value)!r})"
    return repr(value)


def record(data: bytes, chunk: int = 0) -> dict:
    """What one parser makes of ``data`` fed whole, or ``chunk`` at a time."""
    parser = StreamParser()
    values: list = []
    pieces = ([data] if not chunk else
              [data[i:i + chunk] for i in range(0, len(data), chunk)])
    end = ""
    try:
        for piece in pieces:
            parser.feed(piece)
            while True:
                before = parser.bytes_consumed
                value = parser.parse_one()
                if value is INCOMPLETE:
                    break
                values.append([describe(value),
                               parser.bytes_consumed - before])
        end = f"incomplete:{parser.pending_bytes}"
    except WireProtocolError as exc:
        end = f"error:{exc}"
    return {"values": values, "end": end}


def build() -> dict:
    entries = []
    for data in inputs():
        entries.append({
            "input": data.decode("latin-1"),
            "whole": record(data),
            "chunked": record(data, CHUNK),
        })
    caps = []
    for head, fill, count in LINE_CAP_CASES:
        data = (head + fill * count).encode("latin-1")
        caps.append({"head": head, "fill": fill, "count": count,
                     "whole": record(data)})
    return {"chunk": CHUNK, "entries": entries, "line_cap": caps}


def main(argv: list[str]) -> int:
    with open(argv[0], "w") as handle:
        json.dump(build(), handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Parity with the parser that predates the in-place rewrite.

Every input of :mod:`tests.net.parser_corpus` — each prefix of a set of
valid requests, malformed lengths and terminators, nesting at and past
``MAX_DEPTH``, non-bulk elements inside a request array, RESP3 frames
and inline commands — must produce the recorded values, consumed byte
counts and ending (incomplete with N pending bytes, or the same
:class:`WireProtocolError` message), fed whole and in 7-byte chunks.

The only inputs allowed to differ are the unterminated lines past the
64 KiB cap, listed separately in the fixture's ``line_cap`` section.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.net.protocol import MAX_LINE_LEN
from tests.net import parser_corpus

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "parser_corpus.json").read_text()
)


def test_corpus_covers_the_current_inputs():
    recorded = [entry["input"] for entry in FIXTURE["entries"]]
    current = [data.decode("latin-1") for data in parser_corpus.inputs()]
    assert recorded == current
    assert FIXTURE["chunk"] == parser_corpus.CHUNK


@pytest.mark.parametrize("mode", ["whole", "chunked"])
def test_matches_recorded_parser(mode):
    chunk = FIXTURE["chunk"] if mode == "chunked" else 0
    mismatches = []
    for entry in FIXTURE["entries"]:
        data = entry["input"].encode("latin-1")
        got = parser_corpus.record(data, chunk)
        if got != entry[mode]:
            mismatches.append((data, got, entry[mode]))
    assert not mismatches, mismatches[:5]


#: What the cap changes: (head, count) -> the error now raised.  Every
#: other line-cap case must still match the recorded parser.
CAPPED = {
    ("", 65537): "too big inline request",
    ("*", 65537): "too big mbulk count string",
    ("$", 65537): "too big bulk count string",
    ("*1\r\n$", 65537): "too big bulk count string",
    ("+", 65537): "too big line",
}


@pytest.mark.parametrize(
    "case", FIXTURE["line_cap"],
    ids=lambda c: f"{c['head']!r}+{c['count']}",
)
def test_line_cap_exceptions(case):
    data = (case["head"] + case["fill"] * case["count"]).encode("latin-1")
    got = parser_corpus.record(data)
    # The recorded parser buffered every one of these lines.
    assert case["whole"]["end"].startswith("incomplete:")
    message = CAPPED.get((case["head"], case["count"]))
    if message is None:
        assert case["count"] <= MAX_LINE_LEN
        assert got == case["whole"]
    else:
        assert got == {"values": [], "end": f"error:{message}"}

"""Property-style streaming tests for the RESP2 codec.

The connection layer feeds the parser arbitrary fragments — a frame
can be split at *any* byte boundary, including inside a CRLF, inside a
bulk-length header, or between array items.  These tests take a corpus
of frames covering every type (plus the nasty shapes: binary payloads
containing CRLF, null bulk/array, nesting, inline commands, blank
lines) and push every encoded frame through the parser split at every
possible boundary, asserting the reassembled value round-trips.
"""

import pytest

from repro.imdb import ClientOp
from repro.imdb.resp import (
    ProtocolError,
    RespError,
    RespParser,
    decode,
    decode_command,
    encode,
    encode_command,
    op_from_command,
)

# every RESP2 type, with the edge shapes a real byte stream produces
CORPUS = [
    "OK",
    "",
    RespError("ERR unknown command"),
    RespError("BUSY server overloaded"),
    0,
    -1,
    12345678901234567890,
    b"",
    b"x",
    b"hello world",
    b"\r\n",                       # binary payload that *is* a CRLF
    b"a\r\nb\rc\nd",               # CRLF/CR/LF embedded in a bulk body
    b"\x00\xff" * 33,              # arbitrary binary, crosses len 10
    None,                          # null bulk
    [],
    [b"PING"],
    [b"SET", b"k", b"v"],
    [1, "two", b"three", None],
    [[b"a", 1], [], [None, [b"deep", RespError("e")]]],
    [b"lens", b"9", b"10", b"11"],  # numeric-looking bulk strings
]


def _pairwise_splits(data: bytes):
    """Yield (head, tail) for every split point, plus whole-buffer."""
    for cut in range(len(data) + 1):
        yield data[:cut], data[cut:]


@pytest.mark.parametrize("value", CORPUS, ids=repr)
def test_every_split_boundary_reassembles(value):
    data = encode(value)
    for head, tail in _pairwise_splits(data):
        p = RespParser()
        got = []
        for chunk in (head, tail):
            p.feed(chunk)
            while True:
                ok, v = p.parse()
                if not ok:
                    break
                got.append(v)
            if got and chunk is head:
                # a prefix may only complete if it is the whole frame
                assert head == data
        assert got == [value]
        assert p.pending_bytes == 0


@pytest.mark.parametrize("value", CORPUS, ids=repr)
def test_byte_at_a_time(value):
    data = encode(value)
    p = RespParser()
    completions = []
    for i in range(len(data)):
        p.feed(data[i:i + 1])
        ok, got = p.parse()
        if ok:
            completions.append((i, got))
    assert completions == [(len(data) - 1, value)]


@pytest.mark.parametrize("value", CORPUS, ids=repr)
def test_round_trip(value):
    assert decode(encode(value)) == value


def test_back_to_back_frames_split_everywhere():
    """Two frames in one stream: every split must produce exactly the
    two values, in order, with nothing left over."""
    pairs = [
        (CORPUS[i], CORPUS[(i * 7 + 3) % len(CORPUS)])
        for i in range(len(CORPUS))
    ]
    for a, b in pairs:
        data = encode(a) + encode(b)
        for head, tail in _pairwise_splits(data):
            p = RespParser()
            got = []
            for chunk in (head, tail):
                p.feed(chunk)
                while True:
                    ok, v = p.parse()
                    if not ok:
                        break
                    got.append(v)
            assert got == [a, b]
            assert p.pending_bytes == 0


# -- inline commands and blank-line tolerance ------------------------------

INLINE_CASES = [
    (b"PING\r\n", [b"PING"]),
    (b"P\r\n", [b"P"]),                       # single-char command
    (b"SET k v\r\n", [b"SET", b"k", b"v"]),
    (b"  GET   key  \r\n", [b"GET", b"key"]),  # extra whitespace
    (b"GET key\n", [b"GET", b"key"]),          # bare-LF line ending
]


@pytest.mark.parametrize("raw,words", INLINE_CASES, ids=lambda x: repr(x))
def test_inline_commands_parse(raw, words):
    p = RespParser()
    p.feed(raw)
    ok, got = p.parse()
    assert ok and got == words
    assert p.pending_bytes == 0


@pytest.mark.parametrize("prefix", [b"\r\n", b"\n", b"\r\n\r\n", b"   \r\n"],
                         ids=repr)
def test_blank_lines_before_frames_are_skipped(prefix):
    """Redis tolerates blank lines between inline commands; they must
    not be folded into the next frame's header."""
    for value in (CORPUS[16], b"payload", [b"PING"]):
        data = prefix + encode(value)
        for head, tail in _pairwise_splits(data):
            p = RespParser()
            got = []
            for chunk in (head, tail):
                p.feed(chunk)
                while True:
                    ok, v = p.parse()
                    if not ok:
                        break
                    got.append(v)
            assert got == [value]
            assert p.pending_bytes == 0


@pytest.mark.parametrize("raw,value", [
    (b"*2\r\n$3\r\nGET\r\n\r\n$1\r\nk\r\n", [b"GET", b"k"]),
    (b"*2\r\n$3\r\nGET\r\n\n\r\n  \r\n$1\r\nk\r\n", [b"GET", b"k"]),
    (b"*3\r\n\r\n:1\r\n\n+two\r\n\r\n$-1\r\n", [1, "two", None]),
    (b"*2\r\n*1\r\n\n$1\r\na\r\n\r\n*0\r\n", [[b"a"], []]),
], ids=repr)
def test_blank_lines_between_array_items_are_skipped(raw, value):
    """Stray blank lines *inside* an array, between its items, are
    consumed without becoming items — whole and at every split."""
    for head, tail in _pairwise_splits(raw):
        p = RespParser()
        got = []
        for chunk in (head, tail):
            p.feed(chunk)
            while True:
                ok, v = p.parse()
                if not ok:
                    break
                got.append(v)
        assert got == [value]
        assert p.pending_bytes == 0


def test_blank_line_then_inline():
    p = RespParser()
    p.feed(b"\r\nPING\r\n")
    ok, got = p.parse()
    assert ok and got == [b"PING"]


def test_bare_cr_inside_inline_is_an_error():
    p = RespParser()
    p.feed(b"\rX")
    with pytest.raises(ProtocolError):
        p.parse()


def test_half_crlf_waits_for_more():
    p = RespParser()
    p.feed(b"\r")
    ok, _ = p.parse()
    assert not ok                # could be the first half of a CRLF
    p.feed(b"\n+OK\r\n")
    ok, got = p.parse()
    assert ok and got == "OK"


# -- malformed input -------------------------------------------------------

@pytest.mark.parametrize("raw", [
    b":notanint\r\n",
    b"$x\r\n",
    b"$-2\r\n",
    b"*-2\r\n",
    b"*x\r\n",
    b"$3\r\nabcXY",               # bulk body not CRLF-terminated
], ids=repr)
def test_malformed_frames_raise(raw):
    p = RespParser()
    p.feed(raw)
    with pytest.raises(ProtocolError):
        p.parse()


def test_trailing_bytes_rejected_by_decode():
    with pytest.raises(ProtocolError):
        decode(encode(1) + b"x")


# -- command mapping -------------------------------------------------------

OPS = [
    ClientOp("SET", b"k", b"v"),
    ClientOp("SET", b"k", b"\r\n" * 8),
    ClientOp("SET", b"k", b"v", ttl=0.25),
    ClientOp("GET", b"key"),
    ClientOp("DEL", b"key"),
]


@pytest.mark.parametrize("op", OPS, ids=lambda o: o.op)
def test_command_round_trip(op):
    got = decode_command(encode_command(op))
    assert got.op == op.op and got.key == op.key
    assert got.value == op.value
    if op.ttl is None:
        assert got.ttl is None
    else:
        assert got.ttl == pytest.approx(op.ttl, abs=1e-3)


@pytest.mark.parametrize("op", OPS, ids=lambda o: o.op)
def test_command_streams_at_every_split(op):
    data = encode_command(op)
    for head, tail in _pairwise_splits(data):
        p = RespParser()
        p.feed(head)
        p.feed(tail)
        ok, frame = p.parse()
        assert ok
        assert op_from_command(frame).key == op.key


def test_inline_maps_to_op():
    p = RespParser()
    p.feed(b"SET k v\r\n")
    ok, frame = p.parse()
    assert ok
    op = op_from_command(frame)
    assert (op.op, op.key, op.value) == ("SET", b"k", b"v")


def test_ex_flag_seconds():
    op = op_from_command([b"SET", b"k", b"v", b"EX", b"2"])
    assert op.ttl == 2.0


@pytest.mark.parametrize("bad", [
    [],
    [b"GET"],
    [b"GET", b"a", b"b"],
    [b"SET", b"k"],
    [b"SET", b"k", b"v", b"XX"],
    [b"FLUSHALL"],
    b"not-a-list",
], ids=repr)
def test_unsupported_commands_raise(bad):
    with pytest.raises(ProtocolError):
        op_from_command(bad)

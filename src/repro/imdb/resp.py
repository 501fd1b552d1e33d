"""RESP2 — the REdis Serialization Protocol.

The wire format real clients speak. The simulator's clients call the
server API directly, but the codec makes the IMDB a complete Redis
substitute: traces captured from real deployments can be decoded into
:class:`~repro.imdb.server.ClientOp`s, and responses re-encoded for
byte-exact comparison with a reference server.

Implemented: simple strings (``+``), errors (``-``), integers (``:``),
bulk strings (``$``, including null), arrays (``*``, including null),
and the inline-command form. Streaming-safe: the parser reports "need
more bytes" instead of failing on a partial buffer.
"""

from __future__ import annotations


from repro.imdb.server import ClientOp

__all__ = [
    "RespError",
    "ProtocolError",
    "encode",
    "decode",
    "encode_command",
    "decode_command",
    "op_from_command",
    "RespParser",
]

CRLF = b"\r\n"

#: internal sentinel: a consumed-but-empty inline line (blank line
#: between commands); never surfaced by :meth:`RespParser.parse`
_SKIP = object()


class ProtocolError(Exception):
    """Malformed RESP input."""


class RespError:
    """A RESP error reply (``-ERR ...``)."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def __eq__(self, other) -> bool:
        return isinstance(other, RespError) and other.message == self.message

    def __hash__(self) -> int:
        return hash(("RespError", self.message))

    def __repr__(self) -> str:
        return f"RespError({self.message!r})"


RespValue = None | int | bytes | str | list | RespError


def encode(value: RespValue) -> bytes:
    """Serialize one RESP value.

    Python mapping: ``str`` → simple string, ``bytes`` → bulk string,
    ``int`` → integer, ``None`` → null bulk, ``list`` → array,
    :class:`RespError` → error.  Arrays are walked with an explicit
    stack, so nesting depth costs no recursion.
    """
    if not isinstance(value, list):
        return _encode_scalar(value)
    out = [b"*%d\r\n" % len(value)]
    stack = [iter(value)]
    while stack:
        for item in stack[-1]:
            if type(item) is bytes:
                out.append(_bulk(item))
            elif isinstance(item, list):
                out.append(b"*%d\r\n" % len(item))
                stack.append(iter(item))
                break
            else:
                out.append(_encode_scalar(item))
        else:
            stack.pop()
    return b"".join(out)


def _bulk(payload: bytes | bytearray) -> bytes:
    return b"$%d\r\n%s\r\n" % (len(payload), payload)


def _encode_scalar(value: RespValue) -> bytes:
    if value is None:
        return b"$-1\r\n"
    if isinstance(value, RespError):
        if "\r" in value.message or "\n" in value.message:
            raise ProtocolError("error messages cannot contain CR/LF")
        return b"-" + value.message.encode() + CRLF
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise ProtocolError("booleans are not a RESP2 type")
    if isinstance(value, int):
        return b":" + str(value).encode() + CRLF
    if isinstance(value, str):
        if "\r" in value or "\n" in value:
            raise ProtocolError("simple strings cannot contain CR/LF")
        return b"+" + value.encode() + CRLF
    if isinstance(value, (bytes, bytearray)):
        return _bulk(value)
    raise ProtocolError(f"cannot encode {type(value).__name__}")


def _int(field: bytearray, what: str) -> int:
    try:
        return int(field)
    except ValueError as exc:
        raise ProtocolError(f"bad {what} {bytes(field)!r}") from exc


_CR, _LF = 13, 10
_PLUS, _MINUS, _COLON, _DOLLAR, _STAR = b"+-:$*"


class RespParser:
    """Incremental parser: feed bytes, pop complete values."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def parse(self) -> tuple[bool, RespValue]:
        """Try to pop one value; returns (complete, value)."""
        while True:
            got = self._parse_at(0)
            if got is None:
                return False, None
            value, end = got
            del self._buf[:end]
            if value is _SKIP:
                continue  # blank inline line: consumed, try again
            return True, value

    # -- internals ---------------------------------------------------------
    def _parse_at(self, pos: int) -> tuple[RespValue, int] | None:
        """One value starting at ``pos`` as ``(value, end)``, or None
        if the buffer ends first.  Arrays are filled in this one loop:
        ``stack`` holds each open array's items so far and its length,
        and every finished value is appended to the innermost one."""
        buf = self._buf
        stack: list[tuple[list, int]] = []
        while True:
            if pos >= len(buf):
                return None
            kind = buf[pos]
            if kind == _DOLLAR:
                got = self._bulk_at(pos)
                if got is None:
                    return None
                value, pos = got
            elif kind in (_PLUS, _MINUS, _COLON, _STAR):
                eol = buf.find(CRLF, pos + 1)
                if eol < 0:
                    return None
                header = buf[pos + 1:eol]
                pos = eol + 2
                if kind == _PLUS:
                    value = header.decode("latin-1")
                elif kind == _MINUS:
                    value = RespError(header.decode("latin-1"))
                elif kind == _COLON:
                    value = _int(header, "integer")
                else:
                    n = _int(header, "array length")
                    if n < -1:
                        raise ProtocolError("negative array length")
                    if n > 0:
                        stack.append(([], n))
                        continue
                    value = [] if n == 0 else None  # -1: null array
            else:
                got = self._line_at(pos)
                if got is None:
                    return None
                value, pos = got
                if value is _SKIP:
                    if not stack:
                        return value, pos
                    continue  # stray blank line between array items
            while stack:
                items, n = stack[-1]
                items.append(value)
                if len(items) < n:
                    break
                stack.pop()
                value = items
            if not stack:
                return value, pos

    def _bulk_at(self, pos: int) -> tuple[bytes | None, int] | None:
        """A ``$`` bulk string (or null bulk) starting at ``pos``."""
        buf = self._buf
        eol = buf.find(CRLF, pos + 1)
        if eol < 0:
            return None
        n = _int(buf[pos + 1:eol], "bulk length")
        start = eol + 2
        if n == -1:
            return None, start  # null bulk
        if n < 0:
            raise ProtocolError("negative bulk length")
        end = start + n + 2
        if len(buf) < end:
            return None
        if buf[end - 2] != _CR or buf[end - 1] != _LF:
            raise ProtocolError("bulk string not CRLF-terminated")
        return bytes(buf[start:end - 2]), end

    def _line_at(self, pos: int) -> tuple[object, int] | None:
        """A blank line or an inline command starting at ``pos``; a
        blank (or whitespace-only) line comes back as ``_SKIP``."""
        buf = self._buf
        kind = buf[pos]
        if kind == _LF:
            return _SKIP, pos + 1
        if kind == _CR:
            # A blank line between commands (Redis tolerates these in
            # inline mode). It must be consumed *before* any header
            # scan: otherwise the leading CRLF would be folded into the
            # next frame's header and a typed frame following it
            # ("\r\n*1\r\n...") would be mis-framed as a bogus
            # inline command.
            if pos + 1 >= len(buf):
                return None  # may be the first half of a CRLF
            if buf[pos + 1] != _LF:
                raise ProtocolError("bare CR in inline command")
            return _SKIP, pos + 2
        # inline command: a bare line of space-separated words.
        # Inline mode is line-oriented, and real clients may send
        # bare-LF line endings, so the terminator is the first LF
        # (with an optional CR stripped) — unlike typed frames, which
        # require a strict CRLF.
        nl = buf.find(b"\n", pos)
        if nl < 0:
            return None
        line = bytes(buf[pos:nl])
        if line.endswith(b"\r"):
            line = line[:-1]
        words = line.split()
        if not words:
            return _SKIP, nl + 1  # whitespace-only line
        return words, nl + 1


def decode(data: bytes) -> RespValue:
    """Parse exactly one complete value (convenience for tests)."""
    p = RespParser()
    p.feed(data)
    ok, value = p.parse()
    if not ok:
        raise ProtocolError("incomplete RESP value")
    if p.pending_bytes:
        raise ProtocolError(f"{p.pending_bytes} trailing bytes")
    return value


# ---------------------------------------------------------------------------
# command <-> ClientOp
# ---------------------------------------------------------------------------

def encode_command(op: ClientOp) -> bytes:
    """A ClientOp as the RESP array a client would send."""
    if op.op == "SET":
        parts: list[RespValue] = [b"SET", op.key, op.value]
        if op.ttl is not None:
            parts += [b"PX", str(int(round(op.ttl * 1000))).encode()]
        return encode(parts)
    if op.op == "GET":
        return encode([b"GET", op.key])
    return encode([b"DEL", op.key])


def decode_command(data: bytes) -> ClientOp:
    """One RESP command array → ClientOp (SET/GET/DEL subset)."""
    return op_from_command(decode(data))


def op_from_command(value: RespValue) -> ClientOp:
    """An already-parsed command (array or inline word list) → ClientOp.

    The connection layer parses frames incrementally with
    :class:`RespParser` and maps each one through here.
    """
    if not isinstance(value, list) or not value:
        raise ProtocolError("command must be a non-empty array")
    words = [v if isinstance(v, bytes) else str(v).encode() for v in value]
    name = words[0].upper()
    if name == b"GET" and len(words) == 2:
        return ClientOp("GET", words[1])
    if name == b"DEL" and len(words) == 2:
        return ClientOp("DEL", words[1])
    if name == b"SET" and len(words) >= 3:
        ttl = None
        i = 3
        while i < len(words):
            flag = words[i].upper()
            if flag == b"PX" and i + 1 < len(words):
                ttl = int(words[i + 1]) / 1000.0
                i += 2
            elif flag == b"EX" and i + 1 < len(words):
                ttl = float(int(words[i + 1]))
                i += 2
            else:
                raise ProtocolError(f"unsupported SET flag {flag!r}")
        return ClientOp("SET", words[1], words[2], ttl=ttl)
    raise ProtocolError(f"unsupported command {name!r}/{len(words)}")

"""The cache service wire format: small, length-prefixed, binary.

Every message is one *frame*::

    u32  payload length (big-endian, excludes these 4 bytes)
    u8   opcode  (request) / opcode|0x80 (success response) / 0xFF (error)
    u64  request id (echoed verbatim in the response)
    ...  opcode-specific body

Request ids let a client pipeline many requests over one connection and
match responses arriving in any order.  Errors are first-class frames
(:class:`ErrorCode` + UTF-8 message) rather than closed sockets, so a
client can distinguish "page not found" from "server going away".

The codec and :class:`FrameDecoder` are pure bytes-in/bytes-out -- no
sockets, no event loop -- so the server, the client, and the protocol tests
share one implementation and the doctest below can show a full round trip:

>>> frame = encode_request(GetRequest("f", 0, 4096), request_id=7)
>>> rid, req = decode_request(frame[4:])
>>> rid, req.file_id, req.length
(7, 'f', 4096)
"""

from __future__ import annotations

import enum
import mmap
import struct
from dataclasses import dataclass

MAX_FRAME = 16 * 1024 * 1024  # refuse absurd frames before allocating
_RECEIVE_BUFFER = 256 * 1024  # what a FrameDecoder starts with
_HEADER = struct.Struct(">BQ")   # opcode, request id
_PREFIX = struct.Struct(">IBQ")  # payload length + header, packed in one go
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_LEN = _U32                      # the frame length prefix
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_GET_REQUEST = struct.Struct(">QI")    # offset, length
_PUT_REQUEST = struct.Struct(">II")    # page index, data length
_GET_RESPONSE = struct.Struct(">BIII")  # fully cached, hits, misses, data length

_RESPONSE_BIT = 0x80
_ERROR_OPCODE = 0xFF


class ProtocolError(Exception):
    """A frame that cannot be decoded (truncated, bad opcode, oversized)."""


class Opcode(enum.IntEnum):
    GET = 0x01
    PUT = 0x02
    EVICT = 0x03
    STATS = 0x04
    HEALTH = 0x05
    LENGTH = 0x06


class ErrorCode(enum.IntEnum):
    BAD_REQUEST = 1
    NOT_FOUND = 2
    SERVER_ERROR = 3
    DRAINING = 4
    TOO_LARGE = 5


# ---------------------------------------------------------------- requests


@dataclass(frozen=True, slots=True)
class GetRequest:
    file_id: str
    offset: int
    length: int


@dataclass(frozen=True, slots=True)
class PutRequest:
    file_id: str
    page_index: int
    data: bytes


@dataclass(frozen=True, slots=True)
class EvictRequest:
    file_id: str
    page_index: int | None  # None -> evict the whole file


@dataclass(frozen=True, slots=True)
class StatsRequest:
    #: 0 = JSON, 1 = Prometheus exposition text
    fmt: int = 0


@dataclass(frozen=True, slots=True)
class HealthRequest:
    pass


@dataclass(frozen=True, slots=True)
class LengthRequest:
    file_id: str


Request = (
    GetRequest | PutRequest | EvictRequest | StatsRequest | HealthRequest
    | LengthRequest
)


# --------------------------------------------------------------- responses


@dataclass(frozen=True, slots=True)
class GetResponse:
    #: a decoded reply's bytes; the server passes a read's chunks as a
    #: ``list``, which :func:`encode_response` frames without joining
    data: bytes | list[bytes]
    fully_cached: bool
    page_hits: int
    page_misses: int


@dataclass(frozen=True, slots=True)
class PutResponse:
    admitted: bool


@dataclass(frozen=True, slots=True)
class EvictResponse:
    removed: int


@dataclass(frozen=True, slots=True)
class StatsResponse:
    payload: bytes  # JSON or Prometheus text, per the request's fmt


@dataclass(frozen=True, slots=True)
class HealthResponse:
    payload: bytes  # JSON health summary


@dataclass(frozen=True, slots=True)
class LengthResponse:
    length: int


@dataclass(frozen=True, slots=True)
class ErrorResponse:
    code: ErrorCode
    message: str


Response = (
    GetResponse | PutResponse | EvictResponse | StatsResponse
    | HealthResponse | LengthResponse | ErrorResponse
)


# ----------------------------------------------------------------- helpers


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"string field too long ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


class _Cursor:
    """Sequential reader over one frame payload (``bytes`` or a view
    borrowed from a receive buffer) with bounds checking; what a field
    returns is a copy that outlives the payload."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes | memoryview, pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos

    def _advance(self, count: int) -> int:
        start, end = self.pos, self.pos + count
        if end > len(self.buf):
            raise ProtocolError(
                f"truncated frame: wanted {count} bytes at {start}, "
                f"have {len(self.buf)}"
            )
        self.pos = end
        return start

    def take(self, count: int) -> bytes:
        start = self._advance(count)
        return bytes(self.buf[start:self.pos])  # the one copy out of a view

    def unpack(self, fields: struct.Struct) -> tuple:
        """Fixed-width fields, read in place (no intermediate slice)."""
        return fields.unpack_from(self.buf, self._advance(fields.size))

    def u8(self) -> int:
        return self.unpack(_U8)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def i64(self) -> int:
        return self.unpack(_I64)[0]

    def string(self) -> str:
        start = self._advance(self.unpack(_U16)[0])
        try:
            return str(self.buf[start:self.pos], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"string field is not UTF-8: {exc}") from None

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise ProtocolError(
                f"{len(self.buf) - self.pos} trailing bytes in frame"
            )


def _bulk_len(bulk: bytes | list[bytes]) -> int:
    return sum(map(len, bulk)) if type(bulk) is list else len(bulk)


def _frame(
    opcode: int, request_id: int, head: bytes = b"", bulk: bytes | list[bytes] = b"",
) -> bytes | list[bytes]:
    """One frame: the small fixed fields in ``head``, a page or a read's
    data in ``bulk``.  Bytes are copied once, by the join, into one frame.
    A list of chunks is not joined: the frame is ``[prefix + head, *bulk]``,
    for a gather write, and its join is the same bytes."""
    payload_len = _HEADER.size + len(head) + _bulk_len(bulk)
    if payload_len > MAX_FRAME:
        raise ProtocolError(f"frame too large ({payload_len} bytes)")
    prefix = _PREFIX.pack(payload_len, opcode, request_id)
    if type(bulk) is list:
        return [prefix + head, *bulk]
    return b"".join((prefix, head, bulk)) if bulk else prefix + head


# ----------------------------------------------------------------- encode


def encode_request(request: Request, *, request_id: int) -> bytes:
    """Serialize one request into a full frame (length prefix included)."""
    if isinstance(request, GetRequest):
        head = _pack_str(request.file_id) + _GET_REQUEST.pack(
            request.offset, request.length
        )
        return _frame(Opcode.GET, request_id, head)
    if isinstance(request, PutRequest):
        head = _pack_str(request.file_id) + _PUT_REQUEST.pack(
            request.page_index, len(request.data)
        )
        return _frame(Opcode.PUT, request_id, head, request.data)
    if isinstance(request, EvictRequest):
        index = -1 if request.page_index is None else request.page_index
        head = _pack_str(request.file_id) + _I64.pack(index)
        return _frame(Opcode.EVICT, request_id, head)
    if isinstance(request, StatsRequest):
        return _frame(Opcode.STATS, request_id, _U8.pack(request.fmt))
    if isinstance(request, HealthRequest):
        return _frame(Opcode.HEALTH, request_id)
    if isinstance(request, LengthRequest):
        return _frame(Opcode.LENGTH, request_id, _pack_str(request.file_id))
    raise ProtocolError(f"unknown request type {type(request).__name__}")


def encode_response(
    response: Response, *, request_id: int, opcode: Opcode | None = None,
) -> bytes | list[bytes]:
    """Serialize one response into a full frame.

    A :class:`GetResponse` whose ``data`` is a list of chunks comes back
    as the list ``[prefix + head, *chunks]``, whose join is the frame;
    every other response is the frame's ``bytes``.  ``opcode`` is required
    only for success responses whose type does not determine it (it
    always does today); errors ignore it.
    """
    if isinstance(response, GetResponse):
        head = _GET_RESPONSE.pack(
            bool(response.fully_cached), response.page_hits,
            response.page_misses, _bulk_len(response.data),
        )
        return _frame(Opcode.GET | _RESPONSE_BIT, request_id, head, response.data)
    if isinstance(response, ErrorResponse):
        head = _U16.pack(int(response.code)) + _pack_str(response.message)
        return _frame(_ERROR_OPCODE, request_id, head)
    if isinstance(response, PutResponse):
        head = _U8.pack(bool(response.admitted))
        return _frame(Opcode.PUT | _RESPONSE_BIT, request_id, head)
    if isinstance(response, EvictResponse):
        head = _U32.pack(response.removed)
        return _frame(Opcode.EVICT | _RESPONSE_BIT, request_id, head)
    if isinstance(response, (StatsResponse, HealthResponse)):
        op = Opcode.STATS if isinstance(response, StatsResponse) else Opcode.HEALTH
        head = _U32.pack(len(response.payload))
        return _frame(op | _RESPONSE_BIT, request_id, head, response.payload)
    if isinstance(response, LengthResponse):
        head = _U64.pack(response.length)
        return _frame(Opcode.LENGTH | _RESPONSE_BIT, request_id, head)
    raise ProtocolError(f"unknown response type {type(response).__name__}")


# ----------------------------------------------------------------- decode


def decode_request(payload: bytes | memoryview) -> tuple[int, Request]:
    """Parse one request payload (frame minus length prefix); the result
    owns its bytes (a PUT's page is copied out of ``payload``)."""
    cur = _Cursor(payload)
    opcode, request_id = cur.unpack(_HEADER)
    try:
        op = Opcode(opcode)
    except ValueError:
        raise ProtocolError(f"unknown request opcode 0x{opcode:02x}") from None
    if op is Opcode.GET:
        file_id = cur.string()
        request: Request = GetRequest(file_id, *cur.unpack(_GET_REQUEST))
    elif op is Opcode.PUT:
        file_id = cur.string()
        page_index, data_len = cur.unpack(_PUT_REQUEST)
        request = PutRequest(file_id, page_index, cur.take(data_len))
    elif op is Opcode.EVICT:
        file_id = cur.string()
        index = cur.i64()
        request = EvictRequest(file_id, None if index < 0 else index)
    elif op is Opcode.STATS:
        request = StatsRequest(cur.u8())
    elif op is Opcode.HEALTH:
        request = HealthRequest()
    else:  # Opcode.LENGTH
        request = LengthRequest(cur.string())
    cur.done()
    return request_id, request


def decode_response(payload: bytes | memoryview) -> tuple[int, Response]:
    """Parse one response payload (frame minus length prefix); the result
    owns its bytes (a GET's data is copied out of ``payload``)."""
    cur = _Cursor(payload)
    opcode, request_id = cur.unpack(_HEADER)
    if opcode == _ERROR_OPCODE:
        (code,) = cur.unpack(_U16)
        message = cur.string()
        cur.done()
        try:
            return request_id, ErrorResponse(ErrorCode(code), message)
        except ValueError:
            raise ProtocolError(f"unknown error code {code}") from None
    if not opcode & _RESPONSE_BIT:
        raise ProtocolError(f"response frame without response bit: 0x{opcode:02x}")
    try:
        op = Opcode(opcode & ~_RESPONSE_BIT)
    except ValueError:
        raise ProtocolError(f"unknown response opcode 0x{opcode:02x}") from None
    if op is Opcode.GET:
        fully_cached, hits, misses, data_len = cur.unpack(_GET_RESPONSE)
        response: Response = GetResponse(
            cur.take(data_len), bool(fully_cached), hits, misses
        )
    elif op is Opcode.PUT:
        response = PutResponse(bool(cur.u8()))
    elif op is Opcode.EVICT:
        response = EvictResponse(cur.u32())
    elif op is Opcode.STATS:
        response = StatsResponse(cur.blob())
    elif op is Opcode.HEALTH:
        response = HealthResponse(cur.blob())
    else:  # Opcode.LENGTH
        response = LengthResponse(cur.u64())
    cur.done()
    return request_id, response


# ------------------------------------------------------------ frame stream


def read_frame_length(prefix: bytes | memoryview) -> int:
    """Validate a 4-byte length prefix; returns the payload length."""
    if len(prefix) != _LEN.size:
        raise ProtocolError(f"length prefix is {len(prefix)} bytes, want 4")
    (payload_len,) = _LEN.unpack(prefix)
    if payload_len < _HEADER.size:
        raise ProtocolError(f"frame payload too short ({payload_len} bytes)")
    if payload_len > MAX_FRAME:
        raise ProtocolError(f"frame too large ({payload_len} bytes)")
    return payload_len


class FrameDecoder:
    """Sans-IO frame splitter, shaped as the buffer half of
    ``asyncio.BufferedProtocol``: the transport receives straight into
    :meth:`get_buffer`, reports the count to :meth:`buffer_updated`, and
    payloads come out of :meth:`next_frame` until it returns ``None``.

    One buffer per connection, reused for every frame: 256 KiB to start;
    when a length prefix announces a frame that does not fit, it grows once
    to exactly that frame (``MAX_FRAME`` plus the prefix at most) and stays
    grown.  It is an anonymous mapping: a size a peer merely announces is
    address space, not memory, until the bytes arrive.

    **A payload is borrowed**: a view into the buffer, valid until the next
    :meth:`get_buffer`, which may move pending bytes over it.  Decode it
    (the codec copies out what it keeps) or copy it before receiving again.
    """

    __slots__ = ("_view", "_pos", "_fill")

    def __init__(self) -> None:
        self._view = memoryview(mmap.mmap(-1, _RECEIVE_BUFFER))
        self._pos = 0   # start of what next_frame has not returned yet
        self._fill = 0  # end of what was received

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        """Where the next bytes go: room for the frame in progress, at least."""
        view, pos = self._view, self._pos
        pending = self._fill - pos
        need = _LEN.size
        if pending >= need:
            # a bad prefix is next_frame's to report; here it sizes nothing
            need += min(_LEN.unpack_from(view, pos)[0], MAX_FRAME)
        if need > len(view) or pos and (not pending or pos + need > len(view)):
            if need > len(view):
                self._view = memoryview(mmap.mmap(-1, need))
            self._view[:pending] = view[pos:self._fill]  # a memmove
            self._pos, self._fill = 0, pending
        return self._view[self._fill:]

    def buffer_updated(self, nbytes: int) -> None:
        self._fill += nbytes

    @property
    def pending(self) -> int:
        """Buffered bytes not yet returned: non-zero at EOF is a torn frame."""
        return self._fill - self._pos

    def next_frame(self) -> memoryview | None:
        """The next complete payload (borrowed, see above), or ``None`` until
        more bytes arrive.  A bad length prefix raises :class:`ProtocolError`;
        the stream cannot be resynchronised, so every later call raises too.
        """
        start = self._pos + _LEN.size
        if self._fill < start:
            return None
        end = start + read_frame_length(self._view[self._pos:start])
        if self._fill < end:
            return None
        self._pos = end
        return self._view[start:end]

"""Codec tests for the cache service wire format.

The protocol module is pure bytes-in/bytes-out, so these tests cover the
full request/response matrix plus the malformed-frame edges (truncation,
unknown opcodes, trailing bytes, oversized frames) without any sockets.
"""

import asyncio
import struct
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ports.clock import WallClock
from repro.service import protocol as wire
from repro.service.protocol import (
    MAX_FRAME,
    FrameDecoder,
    ErrorCode,
    ErrorResponse,
    EvictRequest,
    EvictResponse,
    GetRequest,
    GetResponse,
    HealthRequest,
    HealthResponse,
    LengthRequest,
    LengthResponse,
    Opcode,
    ProtocolError,
    PutRequest,
    PutResponse,
    StatsRequest,
    StatsResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    read_frame_length,
)
from tests.service.rawpeer import FrameReader

REQUESTS = [
    GetRequest("bench/file-00001", 4096, 65536),
    GetRequest("", 0, 0),
    PutRequest("f", 3, b"\xde\xad" * 100),
    PutRequest("f", 0, b""),
    EvictRequest("f", 7),
    EvictRequest("whole/file", None),
    StatsRequest(0),
    StatsRequest(1),
    HealthRequest(),
    LengthRequest("some file with spaces and unicode é"),
]

RESPONSES = [
    GetResponse(b"payload" * 9, True, 4, 0),
    GetResponse(b"", False, 0, 3),
    PutResponse(True),
    PutResponse(False),
    EvictResponse(12),
    StatsResponse(b'{"counters": {}}'),
    HealthResponse(b'{"status": "ok"}'),
    LengthResponse(8 * 1024 * 1024),
    ErrorResponse(ErrorCode.NOT_FOUND, "no such file"),
    ErrorResponse(ErrorCode.DRAINING, ""),
]


class TestRoundTrips:
    @pytest.mark.parametrize("request_obj", REQUESTS, ids=lambda r: type(r).__name__)
    def test_request_round_trip(self, request_obj):
        frame = encode_request(request_obj, request_id=42)
        assert read_frame_length(frame[:4]) == len(frame) - 4
        request_id, decoded = decode_request(frame[4:])
        assert request_id == 42
        assert decoded == request_obj

    @pytest.mark.parametrize("response_obj", RESPONSES, ids=lambda r: type(r).__name__)
    def test_response_round_trip(self, response_obj):
        frame = encode_response(response_obj, request_id=2**63)
        request_id, decoded = decode_response(frame[4:])
        assert request_id == 2**63
        assert decoded == response_obj

    def test_request_ids_are_echoed_verbatim(self):
        for request_id in (0, 1, 2**64 - 1):
            frame = encode_request(HealthRequest(), request_id=request_id)
            assert decode_request(frame[4:])[0] == request_id


class TestMalformedFrames:
    def test_truncated_request_body(self):
        frame = encode_request(GetRequest("file", 0, 4096), request_id=1)
        with pytest.raises(ProtocolError, match="truncated"):
            decode_request(frame[4:-3])

    def test_trailing_bytes_rejected(self):
        frame = encode_request(EvictRequest("f", 1), request_id=1)
        with pytest.raises(ProtocolError, match="trailing"):
            decode_request(frame[4:] + b"\x00")

    def test_unknown_request_opcode(self):
        frame = bytearray(encode_request(HealthRequest(), request_id=1))
        frame[4] = 0x7E
        with pytest.raises(ProtocolError, match="unknown request opcode"):
            decode_request(bytes(frame[4:]))

    def test_response_without_response_bit(self):
        frame = bytearray(encode_response(PutResponse(True), request_id=1))
        frame[4] = Opcode.PUT  # strip the response bit
        with pytest.raises(ProtocolError, match="response bit"):
            decode_response(bytes(frame[4:]))

    def test_a_string_that_is_not_utf8_is_a_protocol_error(self):
        frame = bytearray(encode_request(GetRequest("abcd", 0, 1), request_id=1))
        frame[4 + 9 + 2] = 0xFF  # first byte of the file id
        for payload in (bytes(frame[4:]), memoryview(frame)[4:]):
            with pytest.raises(ProtocolError, match="not UTF-8"):
                decode_request(payload)
        reply = bytearray(
            encode_response(ErrorResponse(ErrorCode.NOT_FOUND, "gone"), request_id=1)
        )
        reply[-1] = 0xFF
        with pytest.raises(ProtocolError, match="not UTF-8"):
            decode_response(bytes(reply[4:]))

    def test_an_unknown_error_code_is_a_protocol_error(self):
        reply = bytearray(
            encode_response(ErrorResponse(ErrorCode.NOT_FOUND, ""), request_id=1)
        )
        reply[4 + 9:4 + 11] = (99).to_bytes(2, "big")
        with pytest.raises(ProtocolError, match="unknown error code 99"):
            decode_response(bytes(reply[4:]))

    def test_oversized_frame_refused_before_allocation(self):
        with pytest.raises(ProtocolError, match="too large"):
            read_frame_length((MAX_FRAME + 1).to_bytes(4, "big"))

    def test_undersized_payload_length_refused(self):
        with pytest.raises(ProtocolError, match="too short"):
            read_frame_length((4).to_bytes(4, "big"))

    def test_overlong_string_field_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="too long"):
            encode_request(LengthRequest("x" * 70000), request_id=1)


class TestFrameStream:
    """A byte stream that ends: what came out, and how the end is judged
    (``pending`` bytes at EOF are a torn frame) -- through the raw-socket
    reader the other service tests use."""

    @staticmethod
    def _read_from(data: bytes, count: int = 1):
        # StreamReader must be built inside a running loop
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            frames = FrameReader(reader)
            return [await frames.next_payload() for _ in range(count)]

        return asyncio.run(scenario())

    def test_read_frame_returns_payload(self):
        frame = encode_request(GetRequest("f", 0, 100), request_id=9)
        (payload,) = self._read_from(frame)
        assert payload == frame[4:]
        assert decode_request(payload)[1] == GetRequest("f", 0, 100)

    def test_clean_eof_returns_none(self):
        assert self._read_from(b"") == [None]

    def test_eof_mid_prefix_raises(self):
        with pytest.raises(ProtocolError, match="mid frame"):
            self._read_from(b"\x00\x00")

    def test_eof_mid_frame_raises(self):
        frame = encode_request(HealthRequest(), request_id=1)
        with pytest.raises(ProtocolError, match="mid frame"):
            self._read_from(frame[:-2])

    def test_two_frames_back_to_back(self):
        a = encode_request(HealthRequest(), request_id=1)
        b = encode_request(LengthRequest("f"), request_id=2)
        first, second, tail = self._read_from(a + b, count=3)
        assert decode_request(first) == (1, HealthRequest())
        assert decode_request(second) == (2, LengthRequest("f"))
        assert tail is None


# ------------------------------------------------ the encoding, pinned


def _reference_frame(opcode: int, request_id: int, body: bytes) -> bytes:
    return (
        struct.pack(">I", 9 + len(body)) + struct.pack(">BQ", opcode, request_id) + body
    )


def _reference_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def reference_encode(message, request_id: int) -> bytes:
    """The wire format spelled out field by field (the pre-single-join
    encoder): what every frame must keep looking like, byte for byte."""
    if isinstance(message, GetRequest):
        body = _reference_str(message.file_id) + struct.pack(
            ">QI", message.offset, message.length
        )
        return _reference_frame(0x01, request_id, body)
    if isinstance(message, PutRequest):
        body = (
            _reference_str(message.file_id)
            + struct.pack(">II", message.page_index, len(message.data))
            + message.data
        )
        return _reference_frame(0x02, request_id, body)
    if isinstance(message, EvictRequest):
        index = -1 if message.page_index is None else message.page_index
        body = _reference_str(message.file_id) + struct.pack(">q", index)
        return _reference_frame(0x03, request_id, body)
    if isinstance(message, StatsRequest):
        return _reference_frame(0x04, request_id, struct.pack(">B", message.fmt))
    if isinstance(message, HealthRequest):
        return _reference_frame(0x05, request_id, b"")
    if isinstance(message, LengthRequest):
        return _reference_frame(0x06, request_id, _reference_str(message.file_id))
    if isinstance(message, ErrorResponse):
        body = struct.pack(">H", int(message.code)) + _reference_str(message.message)
        return _reference_frame(0xFF, request_id, body)
    if isinstance(message, GetResponse):
        body = (
            struct.pack(
                ">BII", 1 if message.fully_cached else 0,
                message.page_hits, message.page_misses,
            )
            + struct.pack(">I", len(message.data))
            + message.data
        )
        return _reference_frame(0x81, request_id, body)
    if isinstance(message, PutResponse):
        body = struct.pack(">B", 1 if message.admitted else 0)
        return _reference_frame(0x82, request_id, body)
    if isinstance(message, EvictResponse):
        return _reference_frame(0x83, request_id, struct.pack(">I", message.removed))
    if isinstance(message, (StatsResponse, HealthResponse)):
        opcode = 0x84 if isinstance(message, StatsResponse) else 0x85
        body = struct.pack(">I", len(message.payload)) + message.payload
        return _reference_frame(opcode, request_id, body)
    assert isinstance(message, LengthResponse)
    return _reference_frame(0x86, request_id, struct.pack(">Q", message.length))


class TestWireBytesArePinned:
    @pytest.mark.parametrize("request_obj", REQUESTS, ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize("request_id", [0, 42, 2**64 - 1])
    def test_request_bytes(self, request_obj, request_id):
        assert encode_request(request_obj, request_id=request_id) == \
            reference_encode(request_obj, request_id)

    @pytest.mark.parametrize("response_obj", RESPONSES, ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize("request_id", [0, 42, 2**64 - 1])
    def test_response_bytes(self, response_obj, request_id):
        assert encode_response(response_obj, request_id=request_id) == \
            reference_encode(response_obj, request_id)

    def test_bulk_payloads(self):
        page = bytes(range(256)) * 256
        for message in (PutRequest("bench/file", 7, page),
                        GetResponse(page * 16, True, 16, 0)):
            encode = encode_request if isinstance(message, PutRequest) \
                else encode_response
            frame = encode(message, request_id=3)
            assert type(frame) is bytes
            assert frame == reference_encode(message, 3)

    def test_frame_limit_still_enforced(self):
        with pytest.raises(ProtocolError, match="too large"):
            encode_response(GetResponse(b"x" * MAX_FRAME, True, 1, 0), request_id=1)
        with pytest.raises(ProtocolError, match="too large"):
            encode_request(PutRequest("f", 0, b"x" * MAX_FRAME), request_id=1)


# ---------------------------------------------------------- FrameDecoder

PREFIX = 4
INITIAL = 256 * 1024  # what a decoder starts with
MIB = 1024 * 1024


def _drain(decoder: FrameDecoder) -> list[bytes]:
    """Copy out every complete payload (the views are borrowed)."""
    out = []
    while (payload := decoder.next_frame()) is not None:
        assert type(payload) is memoryview
        out.append(bytes(payload))
    return out


def capacity(decoder: FrameDecoder) -> int:
    """The size of the receive buffer behind the room on offer."""
    return len(decoder.get_buffer(-1).obj)


def deliver(decoder: FrameDecoder, stream: bytes, sizes=()) -> list[bytes]:
    """Push ``stream`` through ``get_buffer``/``buffer_updated`` the way a
    transport's ``recv_into`` does -- never more than the room offered, at
    most ``sizes[k]`` bytes on the k-th read (``None``, and every read past
    the end of ``sizes``: all the room there is) -- draining after each."""
    payloads: list[bytes] = []
    sizes = iter(sizes)
    sent = 0
    while sent < len(stream):
        room = decoder.get_buffer(-1)
        assert len(room) > 0
        want = next(sizes, None)
        count = min(len(room) if want is None else want, len(room), len(stream) - sent)
        room[:count] = stream[sent:sent + count]
        decoder.buffer_updated(count)
        sent += count
        payloads.extend(_drain(decoder))
    return payloads


message_lists = st.lists(
    st.one_of(
        st.builds(GetRequest, st.text(max_size=12), st.integers(0, 2**40),
                  st.integers(0, 2**32 - 1)),
        st.builds(PutRequest, st.text(max_size=12), st.integers(0, 2**20),
                  st.binary(max_size=300)),
        st.builds(EvictRequest, st.text(max_size=12),
                  st.one_of(st.none(), st.integers(0, 2**20))),
        st.just(HealthRequest()),
    ),
    min_size=1, max_size=12,
)


class TestFrameDecoder:
    @settings(max_examples=150, deadline=None)
    @given(
        messages=message_lists,
        # a small buffer makes the drawn frames straddle, compact and grow it
        initial=st.sampled_from([16, 64, 4096, INITIAL]),
        sizes=st.lists(st.one_of(st.none(), st.integers(1, 400)), max_size=40),
    )
    def test_any_chunking_yields_the_same_payloads(self, messages, initial, sizes):
        frames = [encode_request(m, request_id=i) for i, m in enumerate(messages)]
        with patch.object(wire, "_RECEIVE_BUFFER", initial):
            decoder = FrameDecoder()
        payloads = deliver(decoder, b"".join(frames), sizes)
        assert payloads == [frame[4:] for frame in frames]
        assert decoder.pending == 0
        assert capacity(decoder) <= max(initial, max(map(len, frames)))
        assert [decode_request(p) for p in payloads] == list(enumerate(messages))

    def test_byte_at_a_time(self):
        frames = [encode_request(r, request_id=i) for i, r in enumerate(REQUESTS)]
        stream = b"".join(frames)
        payloads = deliver(FrameDecoder(), stream, [1] * len(stream))
        assert payloads == [frame[4:] for frame in frames]

    def test_reads_that_fill_the_buffer_exactly(self):
        page = bytes(range(256)) * 256
        frames = [
            encode_request(PutRequest("f", i, page), request_id=i) for i in range(16)
        ]
        decoder = FrameDecoder()
        # every read takes all the room: 256 KiB at a time, frames straddling
        assert deliver(decoder, b"".join(frames)) == [f[4:] for f in frames]
        assert capacity(decoder) == INITIAL

    def test_partial_frame_is_pending(self):
        frame = encode_request(GetRequest("f", 0, 1), request_id=1)
        decoder = FrameDecoder()
        assert deliver(decoder, frame[:-1]) == []
        assert decoder.pending == len(frame) - 1
        assert deliver(decoder, frame[-1:]) == [frame[4:]]
        assert decoder.pending == 0

    def test_a_large_frame_behind_a_small_one_in_the_same_read(self):
        small = encode_request(HealthRequest(), request_id=1)
        large = encode_request(PutRequest("f", 0, b"\x5a" * MIB), request_id=2)
        decoder = FrameDecoder()
        payloads = deliver(decoder, small + large + small)
        assert payloads == [small[4:], large[4:], small[4:]]
        # grown once, to exactly the frame that did not fit
        assert capacity(decoder) == len(large)

    def test_the_buffer_is_bounded_and_reused(self):
        frame = encode_response(GetResponse(b"\xc3" * MIB, True, 16, 0), request_id=1)
        decoder = FrameDecoder()
        assert deliver(decoder, frame) == [frame[4:]]
        buffer = decoder.get_buffer(-1).obj
        assert len(buffer) == len(frame)
        for _ in range(100):
            assert deliver(decoder, frame) == [frame[4:]]
            assert decoder.get_buffer(-1).obj is buffer
        # the largest frame there is: the prefix on top of MAX_FRAME, no more
        largest = encode_request(
            PutRequest("", 0, b"\x00" * (MAX_FRAME - 19)), request_id=1
        )
        assert len(largest) == MAX_FRAME + PREFIX
        assert deliver(decoder, largest) == [largest[4:]]
        assert capacity(decoder) == MAX_FRAME + PREFIX <= MAX_FRAME + PREFIX + INITIAL

    @pytest.mark.parametrize("length", [0, 8, MAX_FRAME + 1, 2**32 - 1])
    def test_bad_length_prefix_raises_and_keeps_raising(self, length):
        decoder = FrameDecoder()
        good = encode_request(HealthRequest(), request_id=1)
        with pytest.raises(ProtocolError):
            deliver(decoder, good + length.to_bytes(4, "big") + b"garbage")
        assert decoder.pending == 4 + len(b"garbage")  # the good frame came out
        for _ in range(2):
            with pytest.raises(ProtocolError):
                decoder.next_frame()
            # a bad prefix sizes nothing: receiving goes on in the same buffer
            assert len(decoder.get_buffer(-1)) > 0
            assert capacity(decoder) <= MAX_FRAME + PREFIX

    def test_a_trickling_16_mib_frame_is_not_recopied(self):
        chunk = 16 * 1024
        frame = encode_request(
            PutRequest("big", 0, b"\xa5" * (MAX_FRAME - 64)), request_id=1
        )

        def trickle(data: bytes) -> float:
            decoder = FrameDecoder()
            now = WallClock().now
            began = now()
            (payload,) = deliver(decoder, data, [chunk] * (len(data) // chunk + 1))
            elapsed = now() - began
            assert payload == data[4:]
            return elapsed

        # 1 024 reads.  Moving the buffer per read would move 8 GiB
        # (seconds); receiving in place moves 16 MiB.  Compare with a
        # frame a quarter the size: linear cost is ~4x, quadratic ~16x.
        quarter = encode_request(
            PutRequest("big", 0, b"\xa5" * (MAX_FRAME // 4)), request_id=1
        )
        small = min(trickle(quarter) for _ in range(3))
        large = min(trickle(frame) for _ in range(3))
        assert large < 10 * small + 0.05
        assert large < 1.0


def receive(decoder: FrameDecoder, data: bytes) -> memoryview | None:
    """One read of ``data``; the first payload it completes, still borrowed."""
    room = decoder.get_buffer(-1)
    room[:len(data)] = data
    decoder.buffer_updated(len(data))
    return decoder.next_frame()


class TestBorrowedPayloads:
    """``next_frame`` lends a view of the receive buffer; the codec copies
    out what a message keeps."""

    def test_a_view_is_good_until_the_next_get_buffer_even_across_growth(self):
        small = encode_request(GetRequest("held", 7, 9), request_id=1)
        large = encode_request(PutRequest("f", 0, b"\x77" * MIB), request_id=2)
        decoder = FrameDecoder()
        # the large frame's prefix rides along with the small frame
        held = receive(decoder, small + large[:1000])
        assert decoder.next_frame() is None
        # the next get_buffer replaces the buffer; the view keeps the old one
        # alive and unchanged (this is as far as the guarantee goes)
        assert capacity(decoder) == len(large)
        assert held == small[4:]
        assert decode_request(held) == (1, GetRequest("held", 7, 9))
        # and views taken after the growth read the new buffer
        assert receive(decoder, large[1000:]) == large[4:]

    def test_compaction_is_why_the_view_is_only_borrowed(self):
        page = bytes(range(256)) * 200  # 50 KiB: five fit, the sixth straddles
        frames = [
            encode_request(PutRequest("f", i, page), request_id=i) for i in range(6)
        ]
        stream = b"".join(frames)
        decoder = FrameDecoder()
        first = receive(decoder, stream[:INITIAL])
        assert first == frames[0][4:]
        assert len(_drain(decoder)) == 4 and decoder.pending
        decoder.get_buffer(-1)  # moves the torn sixth frame to the front
        assert first != frames[0][4:]

    def test_a_decoded_put_owns_its_page(self):
        frame = encode_request(PutRequest("f", 3, b"\x11" * 4096), request_id=5)
        decoder = FrameDecoder()
        payload = receive(decoder, frame)
        request_id, request = decode_request(payload)
        payload[:] = bytes(len(payload))  # the receive buffer is overwritten
        assert (request_id, request) == (5, PutRequest("f", 3, b"\x11" * 4096))
        assert type(request.data) is bytes and type(request.file_id) is str

    def test_a_decoded_get_reply_owns_its_data(self):
        frame = encode_response(GetResponse(b"\x22" * 4096, True, 1, 0), request_id=6)
        decoder = FrameDecoder()
        payload = receive(decoder, frame)
        _, response = decode_response(payload)
        payload[:] = bytes(len(payload))
        assert response == GetResponse(b"\x22" * 4096, True, 1, 0)
        assert type(response.data) is bytes

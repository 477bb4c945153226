"""Codec tests for the cache service wire format.

The protocol module is pure bytes-in/bytes-out, so these tests cover the
full request/response matrix plus the malformed-frame edges (truncation,
unknown opcodes, trailing bytes, oversized frames) without any sockets.
"""

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ports.clock import WallClock
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
    read_frame,
    read_frame_length,
)

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
    @staticmethod
    def _read_from(data: bytes):
        # StreamReader must be built inside a running loop
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader)

        return asyncio.run(scenario())

    def test_read_frame_returns_payload(self):
        frame = encode_request(GetRequest("f", 0, 100), request_id=9)
        payload = self._read_from(frame)
        assert payload == frame[4:]
        assert decode_request(payload)[1] == GetRequest("f", 0, 100)

    def test_clean_eof_returns_none(self):
        assert self._read_from(b"") is None

    def test_eof_mid_prefix_raises(self):
        with pytest.raises(ProtocolError, match="mid length prefix"):
            self._read_from(b"\x00\x00")

    def test_eof_mid_frame_raises(self):
        frame = encode_request(HealthRequest(), request_id=1)
        with pytest.raises(ProtocolError, match="mid frame"):
            self._read_from(frame[:-2])

    def test_two_frames_back_to_back(self):
        async def scenario():
            a = encode_request(HealthRequest(), request_id=1)
            b = encode_request(LengthRequest("f"), request_id=2)
            reader = asyncio.StreamReader()
            reader.feed_data(a + b)
            reader.feed_eof()
            first = decode_request(await read_frame(reader))
            second = decode_request(await read_frame(reader))
            return first, second, await read_frame(reader)

        first, second, tail = asyncio.run(scenario())
        assert first == (1, HealthRequest())
        assert second == (2, LengthRequest("f"))
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


def _drain(decoder: FrameDecoder) -> list[bytes]:
    out = []
    while (payload := decoder.next_frame()) is not None:
        out.append(payload)
    return out


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
    @given(messages=message_lists, data=st.data())
    def test_any_chunking_yields_the_same_payloads(self, messages, data):
        frames = [encode_request(m, request_id=i) for i, m in enumerate(messages)]
        stream = b"".join(frames)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=20)))
        decoder = FrameDecoder()
        payloads: list[bytes] = []
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            decoder.feed(stream[start:end])
            payloads.extend(_drain(decoder))
        assert payloads == [frame[4:] for frame in frames]
        assert all(type(payload) is bytes for payload in payloads)
        assert decoder.pending == 0
        assert [decode_request(p) for p in payloads] == list(enumerate(messages))

    def test_byte_at_a_time(self):
        frames = [encode_request(r, request_id=i) for i, r in enumerate(REQUESTS)]
        decoder = FrameDecoder()
        payloads = []
        for byte in b"".join(frames):
            decoder.feed(bytes([byte]))
            payloads.extend(_drain(decoder))
        assert payloads == [frame[4:] for frame in frames]

    def test_partial_frame_is_pending(self):
        frame = encode_request(GetRequest("f", 0, 1), request_id=1)
        decoder = FrameDecoder()
        decoder.feed(frame[:-1])
        assert decoder.next_frame() is None
        assert decoder.pending == len(frame) - 1
        decoder.feed(frame[-1:])
        assert decoder.next_frame() == frame[4:]
        assert decoder.pending == 0

    @pytest.mark.parametrize("length", [0, 8, MAX_FRAME + 1, 2**32 - 1])
    def test_bad_length_prefix_raises_and_keeps_raising(self, length):
        decoder = FrameDecoder()
        decoder.feed(encode_request(HealthRequest(), request_id=1))
        decoder.feed(length.to_bytes(4, "big") + b"garbage")
        assert decoder.next_frame() is not None  # the good frame before it
        for _ in range(2):
            with pytest.raises(ProtocolError):
                decoder.next_frame()

    def test_a_trickling_16_mib_frame_is_not_recopied(self):
        chunk = 16 * 1024
        frame = encode_request(
            PutRequest("big", 0, b"\xa5" * (MAX_FRAME - 64)), request_id=1
        )

        def trickle(data: bytes) -> float:
            decoder = FrameDecoder()
            now = WallClock().now
            began = now()
            for start in range(0, len(data), chunk):
                decoder.feed(data[start:start + chunk])
                payload = decoder.next_frame()
            elapsed = now() - began
            assert payload == data[4:]
            return elapsed

        # 1 024 chunks.  Re-copying the buffer per chunk would move 8 GiB
        # (seconds); one append per chunk moves 16 MiB.  Compare with a
        # frame a quarter the size: linear cost is ~4x, quadratic ~16x.
        quarter = encode_request(
            PutRequest("big", 0, b"\xa5" * (MAX_FRAME // 4)), request_id=1
        )
        small = min(trickle(quarter) for _ in range(3))
        large = min(trickle(frame) for _ in range(3))
        assert large < 10 * small + 0.05
        assert large < 1.0

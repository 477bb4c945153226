"""A raw-socket peer for the service tests.

asyncio streams carry the bytes; the framing is the service's own
``FrameDecoder``, driven here the way a transport drives it.
"""

import asyncio

from repro.service import protocol as wire


class FrameReader:
    """Reply frames off a ``StreamReader``, one at a time."""

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self.reader = reader
        self.decoder = wire.FrameDecoder()

    async def next_payload(self) -> bytes | None:
        """``None`` on EOF at a frame boundary; a torn frame raises."""
        while (payload := self.decoder.next_frame()) is None:
            room = self.decoder.get_buffer()
            data = await self.reader.read(len(room))
            if not data:
                if self.decoder.pending:
                    raise wire.ProtocolError("connection closed mid frame")
                return None
            room[:len(data)] = data  # streams have no readinto
            self.decoder.buffer_updated(len(data))
        return bytes(payload)  # the view is only good until the next get_buffer

    async def next_reply(self, timeout: float = 5.0):
        payload = await asyncio.wait_for(self.next_payload(), timeout)
        return None if payload is None else wire.decode_response(payload)


async def open_raw(host: str, port: int) -> tuple[FrameReader, asyncio.StreamWriter]:
    reader, writer = await asyncio.open_connection(host, port)
    return FrameReader(reader), writer

"""A raw-socket peer for the service tests.

asyncio streams carry the bytes; the framing is the service's own
``FrameDecoder``, driven here the way a transport drives it.  For tests
that count the server's allocations, ``connect_raw`` and
``recv_frame_into`` receive a frame into a buffer the caller allocated
once, with no stream and no copy of their own.
"""

import asyncio
import socket

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


async def connect_raw(host: str, port: int, *, rcvbuf: int = 0) -> socket.socket:
    """A non-blocking socket connected on the running loop; ``rcvbuf``, if
    given, is its ``SO_RCVBUF``, set before the connection's window is."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setblocking(False)
    if rcvbuf:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    try:
        await asyncio.get_running_loop().sock_connect(sock, (host, port))
    except BaseException:
        sock.close()
        raise
    return sock


async def open_raw(
    host: str, port: int, *, rcvbuf: int = 0
) -> tuple[FrameReader, asyncio.StreamWriter]:
    sock = await connect_raw(host, port, rcvbuf=rcvbuf)
    reader, writer = await asyncio.open_connection(sock=sock)
    return FrameReader(reader), writer


async def recv_frame_into(sock: socket.socket, buffer: memoryview) -> int:
    """Receive exactly one frame (prefix included) into ``buffer``, never a
    byte of the next; returns its length."""
    loop = asyncio.get_running_loop()
    got, size = 0, 4
    while got < size:
        count = await loop.sock_recv_into(sock, buffer[got:size])
        if not count:
            raise ConnectionError("connection closed mid frame")
        got += count
        if size == 4 and got == 4:
            size += wire.read_frame_length(buffer[:4])
    return size

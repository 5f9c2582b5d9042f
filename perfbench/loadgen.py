"""Closed-loop HTTP/1.1 load generator on asyncio streams (stdlib only).

Each connection is a keep-alive socket that sends its next request only
after the previous reply's last body byte arrived.  The generator never
retries: a non-2xx reply or a transport failure is recorded as a failed
sample and the connection is reopened for the next item.

Items come from one iterator of ``(tag, body, copies)`` and go out one at
a time on one connection, so the generator is idle while the service
works and the two never compete for a core.  An item with ``copies == 2``
is also sent on a second connection at the same moment: that is how a
caller that fires the same scenario twice concurrently looks on the wire.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


@dataclass
class Sample:
    tag: str
    status: int  # 0 on a transport failure
    seconds: float
    body: bytes
    end: float  # perf_counter() when the reply completed


class Connection:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, method: str, path: str, body: bytes = b"", tag: str = "") -> Sample:
        """One request; latency runs from the send to the last body byte."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"x-bench-id: {tag}\r\n\r\n"
        ).encode("latin-1")
        start = time.perf_counter()
        try:
            if self._writer is None:
                await self._open()
            self._writer.write(head + body)
            await self._writer.drain()
            raw = await self._reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            length = 0
            close = False
            for line in lines[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    close = value.strip().lower() == "close"
            payload = await self._reader.readexactly(length)
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
            await self.close()
            end = time.perf_counter()
            return Sample(tag, 0, end - start, b"", end)
        end = time.perf_counter()
        if close:
            await self.close()
        return Sample(tag, status, end - start, payload, end)

    async def close(self) -> None:
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def closed_loop(host, port, items, *, seconds: float | None = None):
    """Drive ``items`` through one closed-loop connection.

    An item with ``copies == 2`` goes out on a second connection too, at
    the same moment, and the loop waits for both replies.  Stops drawing
    new items once ``seconds`` have passed (``None``: run the iterator
    dry).  Returns ``(samples, start, wall_seconds)``: the
    ``perf_counter()`` of the first send and the time from it to the last
    completion.
    """
    main, partner = Connection(host, port), Connection(host, port)
    samples: list[Sample] = []
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    try:
        for tag, body, copies in items:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if copies == 2:
                samples.extend(
                    await asyncio.gather(
                        main.request("POST", "/v1/simulate", body, tag),
                        partner.request("POST", "/v1/simulate", body, tag + "+"),
                    )
                )
            else:
                samples.append(await main.request("POST", "/v1/simulate", body, tag))
    finally:
        await main.close()
        await partner.close()
    return samples, start, time.perf_counter() - start


async def one_request(host, port, method, path, body=b"", tag=""):
    conn = Connection(host, port)
    try:
        return await conn.request(method, path, body, tag)
    finally:
        await conn.close()

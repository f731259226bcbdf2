"""The one HTTP/1.1 client of the serving tests, over asyncio streams.

``request`` makes one ``Connection: close`` exchange.  Tests that drive
a connection by hand (keep-alive, pipelining, half-close) build the
request bytes with ``http_payload`` and parse each answer with
``read_response``.
"""

from __future__ import annotations

import asyncio
import json


def http_payload(method, path, body=b"", headers=(), connection=None) -> bytes:
    """The bytes of one request; no ``Connection`` header unless given."""
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if connection is not None:
        head += f"Connection: {connection}\r\n"
    for name, value in headers:
        head += f"{name}: {value}\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


async def read_response(reader):
    """One response: ``(status, headers, body)``, header names lower-cased."""
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    data = await reader.readexactly(length) if length else b""
    return status, headers, data


async def request(port, method, path, body=None, headers=()):
    """One ``Connection: close`` exchange; returns ``(status, headers, body)``.

    ``body`` is sent as it is when it is ``bytes``, else JSON-encoded;
    ``None`` sends no body.
    """
    if body is None:
        payload = b""
    elif isinstance(body, bytes):
        payload = body
    else:
        payload = json.dumps(body).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(http_payload(method, path, payload, headers, connection="close"))
    await writer.drain()
    try:
        return await read_response(reader)
    finally:
        writer.close()

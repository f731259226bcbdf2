"""Closed-loop HTTP/1.1 load for a running ``repro serve``.

One asyncio client holds ``CONNECTIONS`` keep-alive connections; each
sends its next request only after the previous answer arrived.  The
request bytes are built before the run, and answers are kept raw and
checked only after the timed window, so the client does little work
on the shared cores while it is timed.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from layout import CONNECTIONS, PROBE_EVERY_S, request_order, speed_probe


def build_payloads(fmt: str, arrays, generators) -> list[bytes]:
    """Complete request bytes (head + body) for every pool entry."""
    from repro.serve import RAW_CONTENT_TYPE, pack_raw_request

    payloads = []
    for x, gen in zip(arrays, generators):
        head = ["POST /v1/predict HTTP/1.1", "Host: bench"]
        if fmt == "raw":
            body = pack_raw_request(x)
            head += [f"Content-Type: {RAW_CONTENT_TYPE}", "x-return: logits"]
            if gen is not None:
                head.append(f"x-generator: {gen}")
        else:
            doc = {"images": x.tolist(), "return": "logits"}
            if gen is not None:
                doc["generator"] = gen
            body = json.dumps(doc).encode()
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
        payloads.append(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    return payloads


async def _exchange(reader, writer, payload: bytes) -> tuple[int, bytes]:
    writer.write(payload)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def get(port: int, path: str) -> bytes:
    """One ``GET`` on a fresh connection; returns the body."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, body = await _exchange(
            reader, writer,
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode(),
        )
    finally:
        writer.close()
        await writer.wait_closed()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body


async def answer_each(port: int, payloads, indices) -> list[tuple]:
    """Send ``payloads[i]`` for each ``i`` in turn on one connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    records = []
    try:
        for i in indices:
            t0 = time.perf_counter()
            status, body = await _exchange(reader, writer, payloads[i])
            records.append((t0, time.perf_counter(), i, status, body))
    finally:
        writer.close()
        await writer.wait_closed()
    return records


async def closed_loop(port: int, payloads, warmup_s: float, seconds: float,
                      on_window=None):
    """Run the loop; returns ``(records, (w0, w1), errors, probes)``.

    ``records`` holds ``(t_send, t_done, pool_index, status, body)`` for
    every request answered; ``on_window(phase)`` (a coroutine function)
    is awaited as the window opens (``"open"``) and closes
    (``"close"``), for scrapes that must bracket it.

    Every ``PROBE_EVERY_S`` of the window the connections hold their
    next request until none is in flight, the host-speed probe runs in
    this process while the server is idle, and the load resumes.
    ``probes`` holds each probe's ``(start, seconds)``; the window is
    extended by them, so the server is loaded for ``seconds``.
    """
    loop_start = time.perf_counter()
    w0 = loop_start + warmup_s
    end = [w0 + seconds]
    records: list[tuple] = []
    errors: list[str] = []
    probes: list[tuple[float, float]] = []
    probe = speed_probe()
    open_gate = asyncio.Event()
    open_gate.set()
    idle = asyncio.Event()
    in_flight = [0]

    async def connection(conn: int) -> None:
        order = request_order(len(payloads), conn)
        reader = writer = None
        try:
            while True:
                await open_gate.wait()
                if time.perf_counter() >= end[0]:
                    break
                in_flight[0] += 1
                idle.clear()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    i = next(order)
                    t0 = time.perf_counter()
                    status, body = await _exchange(reader, writer, payloads[i])
                except (ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
                    errors.append(f"{type(exc).__name__}: {exc}")
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                    continue
                else:
                    records.append((t0, time.perf_counter(), i, status, body))
                finally:
                    in_flight[0] -= 1
                    if not in_flight[0]:
                        idle.set()
        finally:
            if writer is not None:
                writer.close()
                await writer.wait_closed()

    async def marks() -> None:
        await asyncio.sleep(max(0.0, w0 - time.perf_counter()))
        if on_window is not None:
            await on_window("open")
        while (now := time.perf_counter()) < end[0]:
            await asyncio.sleep(min(PROBE_EVERY_S, end[0] - now))
            if time.perf_counter() >= end[0]:
                break
            open_gate.clear()
            if in_flight[0]:
                await idle.wait()
            p0 = time.perf_counter()
            probe()
            p1 = time.perf_counter()
            probes.append((p0, p1 - p0))
            end[0] += p1 - p0
            open_gate.set()
        if on_window is not None:
            await on_window("close")

    await asyncio.gather(marks(), *(connection(c) for c in range(CONNECTIONS)))
    return records, (w0, end[0]), errors, probes


def check_answers(records, references) -> int:
    """Number of records that are not a 200 carrying the reference logits."""
    failed = 0
    for _, _, i, status, body in records:
        if status != 200:
            failed += 1
            continue
        try:
            logits = np.asarray(json.loads(body)["logits"], dtype=np.float64)
        except (ValueError, KeyError, TypeError):
            failed += 1
            continue
        if logits.shape != references[i].shape or not np.array_equal(logits, references[i]):
            failed += 1
    return failed

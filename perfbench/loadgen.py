"""The benchmark's own load generator for ``repro serve``.

It speaks the line-JSON wire protocol directly over asyncio streams,
not through the program's client, so a change to the client cannot
change the load.  One process, at most ``nproc`` connections, requests
pipelined and matched by ``id``.  Every latency and span is on
``time.monotonic``, the clock the server stamps ``exec_span`` with.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: the server accepts request and response lines up to 8 MiB
STREAM_LIMIT = 64 * 1024 * 1024


def peek_id(line: bytes) -> Any:
    """The ``id`` of a response line, without decoding its rows when the
    line starts with it (the server writes ``id`` first)."""
    if line.startswith(b'{"id":'):
        end = line.find(b",", 6)
        if end > 0:
            try:
                return int(line[6:end])
            except ValueError:
                pass
    return json.loads(line).get("id")


def decode(line: bytes) -> Tuple[Dict[str, Any], Optional[bytes]]:
    """``(payload, raw rows)``: the response with its ``rows`` array cut
    out as raw JSON text, so a result already verified can be recognised
    by a byte comparison instead of a decode.  Lines of another layout
    decode whole, with ``None`` for the raw rows."""
    start = line.find(b'"rows":')
    end = line.rfind(b',"truncated":')
    if 0 < start < end:
        payload = json.loads(line[:start] + b'"rows":null' + line[end:])
        return payload, line[start + 7:end]
    return json.loads(line), None


class Reply:
    """One answered request, timed by the generator."""

    def __init__(self, index: int, line: bytes, due: float, sent: float, received: float):
        self.index = index  # position in the request sequence
        self.due = due  # when the request was scheduled to go out
        self.sent = sent
        self.received = received
        self.nbytes = len(line)
        self.payload, self.rows_raw = decode(line)

    def rows(self) -> List[List[int]]:
        if self.rows_raw is not None:
            return json.loads(self.rows_raw)
        return self.payload["rows"]

    @property
    def latency_ms(self) -> float:
        """From the scheduled send time, so a stall counts against every
        request it delays."""
        return (self.received - self.due) * 1000.0


class Connection:
    """One TCP connection with pipelined requests."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._pump = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=STREAM_LIMIT)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                received = time.monotonic()
                future = self.pending.pop(peek_id(line), None)
                if future is not None and not future.done():
                    future.set_result((line, received))
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("server closed the connection"))
            self.pending.clear()

    async def call(self, request: Dict[str, Any]) -> Tuple[bytes, float, float]:
        """Send one request; returns ``(response line, sent, received)``."""
        rid = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = future
        self.writer.write(json.dumps({**request, "id": rid}).encode() + b"\n")
        sent = time.monotonic()
        await self.writer.drain()
        line, received = await future
        return line, sent, received

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._pump.cancel()
        try:
            await self._pump
        except (asyncio.CancelledError, ConnectionError):
            pass


@dataclass
class LoadResult:
    replies: List[Reply] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    elapsed: float = 0.0


def zipf_weights(n: int, s: float = 1.0) -> List[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def stratified(weights: Sequence[float], count: int, rng: random.Random) -> List[int]:
    """*count* indexes into *weights*, each as often as its share says
    (largest remainder), in a seeded random order: the seed moves the
    order, never the mix."""
    total = sum(weights)
    exact = [w * count / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    out = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def arrivals(rate: float, seconds: float, rng: random.Random) -> List[float]:
    """Arrival offsets of a Poisson process at *rate*/s over *seconds*,
    conditioned on its expected count: that many uniform points, sorted.
    The count is fixed, so every seed measures the same number of
    requests."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


async def open_loop(
    conns: Sequence[Connection],
    requests: Sequence[Dict[str, Any]],
    offsets: Sequence[float],
    on_reply: Callable[[Reply], None],
) -> LoadResult:
    """Send ``requests[i]`` at ``start + offsets[i]`` whatever the server
    is doing; connections take turns."""
    result = LoadResult()
    loop = asyncio.get_running_loop()
    tasks: List[asyncio.Task] = []

    async def one(index: int, due: float) -> None:
        conn = conns[index % len(conns)]
        try:
            line, sent, received = await conn.call(requests[index])
        except ConnectionError as err:
            result.errors.append(f"request {index}: {err}")
            return
        result.late_ms.append((sent - due) * 1000.0)
        reply = Reply(index, line, due, sent, received)
        result.replies.append(reply)
        on_reply(reply)

    start = time.monotonic() + 0.05
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(index, due)))
    await asyncio.gather(*tasks)
    result.elapsed = time.monotonic() - start
    return result


async def closed_loop(
    conns: Sequence[Connection],
    next_request: Callable[[int], Dict[str, Any]],
    outstanding: int,
    seconds: float,
    on_reply: Callable[[Reply], None],
) -> LoadResult:
    """Keep *outstanding* requests in flight for *seconds*; each reply
    releases the next request.  ``elapsed`` runs to the last reply."""
    result = LoadResult()
    counter = itertools.count()
    start = time.monotonic()
    stop_at = start + seconds

    async def lane(lane_index: int) -> None:
        conn = conns[lane_index % len(conns)]
        while time.monotonic() < stop_at:
            index = next(counter)
            due = time.monotonic()
            try:
                line, sent, received = await conn.call(next_request(index))
            except ConnectionError as err:
                result.errors.append(f"request {index}: {err}")
                return
            reply = Reply(index, line, due, sent, received)
            result.replies.append(reply)
            on_reply(reply)

    await asyncio.gather(*(lane(i) for i in range(outstanding)))
    result.elapsed = time.monotonic() - start
    return result


async def ping(host: str, port: int, deadline: float) -> float:
    """Retry connect + ``ping`` until answered; returns the answer time."""
    while True:
        try:
            conn = await Connection.open(host, port)
        except OSError:
            if time.monotonic() > deadline:
                raise
            await asyncio.sleep(0.005)
            continue
        try:
            line, _, received = await conn.call({"op": "ping"})
        finally:
            await conn.close()
        payload = json.loads(line)
        if payload.get("pong"):
            return received
        raise RuntimeError(f"unexpected ping answer {payload!r}")


async def server_stats(conn: Connection) -> Dict[str, Any]:
    line, _, _ = await conn.call({"op": "stats"})
    return json.loads(line)


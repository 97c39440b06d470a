"""The benchmark's own load generator for ``repro serve``.

It speaks JSON-lines itself, so that nothing the program changes in its
client code can speed up the measuring side.  A link may offer the
``binary1`` wire; it then frames queries as documented in
``repro.serve.wire`` (with that module's tag codec for the payloads) and
falls back to JSON-lines when the server, or the program, declines.

Two load patterns:

* :func:`closed_loop` keeps a fixed number of requests in flight on each
  link, sending the next only when one completes, and times each
  request from its send to its reply.
* :func:`open_loop` sends on a fixed-rate schedule whatever the replies
  do, and times each request from when it was due, so a stall is
  charged to every request it delays.  How late the sender ran against
  its schedule is reported too.

Both report the generator's CPU share of one core.  A run whose
generator is CPU-bound, or whose open loop ran later than the latency
limit, is flagged ``client_bound``: its numbers describe the generator,
not the server.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Generator CPU share of one core at which a run counts as client-bound.
CPU_BOUND_FRACTION = 0.9
#: How long a phase waits for its outstanding replies after it ends.
DRAIN_TIMEOUT_S = 20.0

# binary1 framing, as documented in repro.serve.wire.
_HEADER = struct.Struct(">BBI")   # magic, frame type, payload length
_QREQ = struct.Struct(">QBB")     # id, flags, kind code
_QRESP = struct.Struct(">QdB")    # id, latency_s, served code


def _binary_codec():
    """``repro.serve.wire`` when the program still has the binary wire."""
    try:
        from repro.serve import wire
    except ImportError:
        return None
    needed = ("MAGIC", "FRAME_DOC", "FRAME_QREQ", "FRAME_QRESP",
              "KIND_CODES", "encode_value", "decode_value")
    return wire if all(hasattr(wire, n) for n in needed) else None


class Keys:
    """The distinct query keys of a workload, each encoded once."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.params: list[dict[str, Any]] = []
        self._json_tail: list[bytes] = []
        self._frame: list[tuple[bytes, bytes] | None] = []

    def add(self, kind: str, params: dict[str, Any]) -> int:
        self.kinds.append(kind)
        self.params.append(params)
        body = json.dumps(
            {"kind": kind, "op": "query", "params": params}, sort_keys=True
        )
        self._json_tail.append((", " + body[1:] + "\n").encode())
        self._frame.append(None)
        return len(self.kinds) - 1

    def __len__(self) -> int:
        return len(self.kinds)

    def json_request(self, rid: int, k: int) -> bytes:
        return b'{"id": ' + str(rid).encode() + self._json_tail[k]

    def binary_request(self, codec, rid: int, k: int) -> bytes:
        frame = self._frame[k]
        if frame is None:
            blob = codec.encode_value(self.params[k])
            frame = self._frame[k] = (
                _HEADER.pack(codec.MAGIC, codec.FRAME_QREQ, _QREQ.size + len(blob)),
                # _QREQ after its u64 id: flags, kind code; then the params.
                _QREQ.pack(0, 0, codec.KIND_CODES[self.kinds[k]])[8:] + blob,
            )
        head, tail = frame
        return head + rid.to_bytes(8, "big") + tail


class Reply:
    """One response as the link received it: a JSON line, a binary
    QRESP value blob, or a decoded binary DOC frame.  Decoding is lazy,
    so a check that can compare raw bytes never pays for it."""

    __slots__ = ("line", "blob", "_doc", "codec")

    def __init__(self, line=None, blob=None, doc=None, codec=None) -> None:
        self.line = line
        self.blob = blob
        self._doc = doc
        self.codec = codec

    @property
    def doc(self) -> dict[str, Any]:
        """The reply document (JSON line or DOC frame)."""
        if self._doc is None:
            self._doc = json.loads(self.line)
        return self._doc

    @property
    def ok(self) -> bool:
        if self.blob is not None:
            return True  # a QRESP frame is a success by construction
        if self.line is not None and b'"ok": true' in self.line:
            return True
        return self.doc.get("ok") is True and "value" in self.doc

    @property
    def value(self) -> Any:
        if self.blob is not None:
            return self.codec.decode_value(self.blob)
        return self.doc.get("value")


def _line_id(line: bytes) -> Any:
    """The id of a JSON-lines reply; the server writes it first."""
    if line.startswith(b'{"id": '):
        end = line.find(b",", 7)
        if end > 0:
            try:
                return int(line[7:end])
            except ValueError:
                pass
    return json.loads(line).get("id")


class Link:
    """One client connection with id-matched, pipelined requests."""

    def __init__(self, reader, writer, keys: Keys) -> None:
        self.reader = reader
        self.writer = writer
        self.keys = keys
        self.codec = None  # set when binary1 was negotiated
        self._next_id = 1
        self._buf = b""

    @classmethod
    async def open(
        cls, host: str, port: int, keys: Keys, offer_binary: bool = False
    ) -> "Link":
        reader, writer = await asyncio.open_connection(host, port)
        link = cls(reader, writer, keys)
        codec = _binary_codec() if offer_binary else None
        if codec is not None:
            writer.write(b'{"id": 0, "op": "hello", "wire": "binary1"}\n')
            ack = json.loads(await reader.readline())
            if ack.get("ok") and ack.get("wire") == "binary1":
                link.codec = codec
        return link

    @property
    def wire(self) -> str:
        return "binary1" if self.codec is not None else "json"

    def request(self, k: int) -> tuple[int, bytes]:
        rid = self._next_id
        self._next_id += 1
        if self.codec is not None:
            return rid, self.keys.binary_request(self.codec, rid, k)
        return rid, self.keys.json_request(rid, k)

    async def read_replies(self) -> list[tuple[int, Reply]]:
        """Every complete reply that has arrived; ``[]`` at EOF."""
        while True:
            chunk = await self.reader.read(65536)
            if not chunk:
                return []
            self._buf += chunk
            out = self._parse()
            if out:
                return out

    def _parse(self) -> list[tuple[int, Reply]]:
        buf = self._buf
        if self.codec is None:
            *lines, self._buf = buf.split(b"\n")
            return [(_line_id(line), Reply(line=line)) for line in lines]
        codec = self.codec
        out = []
        off = 0
        while len(buf) - off >= _HEADER.size:
            magic, ftype, n = _HEADER.unpack_from(buf, off)
            if magic != codec.MAGIC:
                raise ConnectionError("binary1 stream lost its framing")
            end = off + _HEADER.size + n
            if end > len(buf):
                break
            payload = buf[off + _HEADER.size:end]
            off = end
            if ftype == codec.FRAME_QRESP:
                rid = _QRESP.unpack_from(payload)[0]
                out.append((rid, Reply(blob=payload[_QRESP.size:], codec=codec)))
            else:
                doc = codec.decode_value(payload)
                out.append((doc.get("id"), Reply(doc=doc, codec=codec)))
        self._buf = buf[off:]
        return out

    async def call(self, doc: dict[str, Any]) -> dict[str, Any]:
        """One non-query request on a JSON-lines link (``stats``,
        ``shutdown``); nothing else may be in flight."""
        self.writer.write(json.dumps(doc).encode() + b"\n")
        return json.loads(await self.reader.readline())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class PhaseResult:
    """What one load phase measured."""

    wire: str
    seconds: float
    sent: int = 0
    completed_in_window: int = 0
    completed: int = 0
    failed: int = 0             # error replies and wrong values
    missing: int = 0            # never answered within the drain timeout
    cpu_fraction: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.completed_in_window / self.seconds


#: ``check(key index, reply) -> bool``: is this reply's value right?
Check = Callable[[int, Reply], bool]


async def _drain(links, pending, on_reply) -> int:
    """Read until every link's outstanding requests are answered, or the
    drain timeout passes; returns how many never came back."""

    async def one(link):
        while pending[link]:
            replies = await link.read_replies()
            if not replies:
                return
            now = time.perf_counter()
            for rid, reply in replies:
                on_reply(link, rid, reply, now)

    try:
        await asyncio.wait_for(
            asyncio.gather(*(one(link) for link in links)), DRAIN_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        pass
    return sum(len(p) for p in pending.values())


async def closed_loop(
    links: list[Link],
    next_key: Callable[[], int],
    depth: int,
    seconds: float,
    check: Check,
    total: int | None = None,
) -> PhaseResult:
    """Keep ``depth`` requests in flight per link for ``seconds``, or,
    given ``total``, until that many requests have been answered; the
    phase's ``seconds`` is then the time that took."""
    with collector_paused():
        return await _closed_loop(links, next_key, depth, seconds, check, total)


async def _closed_loop(links, next_key, depth, seconds, check, total) -> PhaseResult:
    result = PhaseResult(links[0].wire, seconds)
    pending: dict[Link, dict[int, tuple[int, float]]] = {
        link: {} for link in links
    }
    cpu0, t0 = time.process_time(), time.perf_counter()
    deadline = t0 + seconds if total is None else float("inf")
    budget = total if total is not None else float("inf")

    def on_reply(link, rid, reply, now):
        entry = pending[link].pop(rid, None)
        if entry is None:
            result.failed += 1
            return
        k, sent = entry
        result.completed += 1
        if now <= deadline:
            result.completed_in_window += 1
            result.latencies_s.append(now - sent)
        if not (reply.ok and check(k, reply)):
            result.failed += 1

    def send(link, n):
        n = int(min(n, budget - result.sent))
        out = []
        now = time.perf_counter()
        for _ in range(n):
            k = next_key()
            rid, data = link.request(k)
            pending[link][rid] = (k, now)
            out.append(data)
        result.sent += n
        link.writer.write(b"".join(out))

    async def drive(link):
        send(link, depth)
        while True:
            replies = await link.read_replies()
            if not replies:
                return
            now = time.perf_counter()
            for rid, reply in replies:
                on_reply(link, rid, reply, now)
            if now >= deadline or (result.sent >= budget and not pending[link]):
                return
            send(link, depth - len(pending[link]))

    await asyncio.gather(*(drive(link) for link in links))
    elapsed = time.perf_counter() - t0
    result.cpu_fraction = (time.process_time() - cpu0) / elapsed
    if total is not None:
        result.seconds = elapsed
    result.missing = await _drain(links, pending, on_reply)
    return result


async def open_loop(
    links: list[Link],
    next_key: Callable[[], int],
    rate: float,
    seconds: float,
    check: Check,
) -> PhaseResult:
    """Send ``rate`` requests per second, round-robin over ``links``, on
    a fixed schedule for ``seconds``; latency runs from the due time."""
    with collector_paused():
        return await _open_loop(links, next_key, rate, seconds, check)


async def _open_loop(links, next_key, rate, seconds, check) -> PhaseResult:
    result = PhaseResult(links[0].wire, seconds)
    n_total = int(rate * seconds)
    pending: dict[Link, dict[int, tuple[int, float]]] = {
        link: {} for link in links
    }
    cpu0, t0 = time.process_time(), time.perf_counter()

    def on_reply(link, rid, reply, now):
        entry = pending[link].pop(rid, None)
        if entry is None:
            result.failed += 1
            return
        k, due = entry
        result.completed += 1
        result.latencies_s.append(now - due)
        if now <= t0 + seconds:
            result.completed_in_window += 1
        if not (reply.ok and check(k, reply)):
            result.failed += 1

    async def read(link):
        while True:
            replies = await link.read_replies()
            if not replies:
                return
            now = time.perf_counter()
            for rid, reply in replies:
                on_reply(link, rid, reply, now)

    readers = [asyncio.ensure_future(read(link)) for link in links]
    i = 0
    try:
        while i < n_total:
            now = time.perf_counter()
            out: dict[Link, list[bytes]] = {}
            while i < n_total and t0 + i / rate <= now:
                due = t0 + i / rate
                link = links[i % len(links)]
                k = next_key()
                rid, data = link.request(k)
                pending[link][rid] = (k, due)
                out.setdefault(link, []).append(data)
                result.lateness_s.append(now - due)
                i += 1
            for link, chunks in out.items():
                link.writer.write(b"".join(chunks))
            result.sent = i
            if i < n_total:
                await asyncio.sleep(
                    max(0.0, t0 + i / rate - time.perf_counter())
                )
        result.cpu_fraction = (time.process_time() - cpu0) / (
            time.perf_counter() - t0
        )
        waited = time.perf_counter()
        while any(pending.values()) and (
            time.perf_counter() - waited < DRAIN_TIMEOUT_S
        ):
            await asyncio.sleep(0.005)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    result.missing = sum(len(p) for p in pending.values())
    return result


def client_bound(phases: list[PhaseResult], limit_ms: float) -> tuple[bool, float, float]:
    """``(client_bound, cpu share, open-loop lag p99 ms)`` over a run's
    phases: the generator was CPU-bound in some phase, or its open loops
    ran later than the latency limit."""
    cpu = max(p.cpu_fraction for p in phases)
    lags = [x for p in phases for x in p.lateness_s]
    lag_p99_ms = quantile(lags, 0.99) * 1e3 if lags else 0.0
    return cpu >= CPU_BOUND_FRACTION or lag_p99_ms > limit_ms, cpu, lag_p99_ms


@contextlib.contextmanager
def collector_paused():
    """Keep the cyclic garbage collector off the generator's timeline
    for one phase; the phase's own garbage has no cycles and is freed
    by reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def windowed(values: list[float], q: float, size: int = 1000) -> float:
    """Median over consecutive windows of ``size`` samples of each
    window's ``q`` quantile (the whole list when it is shorter).  A
    window of 1000 keeps ten samples beyond its p99."""
    n = max(1, len(values) // size)
    bounds = [i * len(values) // n for i in range(n + 1)]
    return statistics.median(
        quantile(values[lo:hi], q) for lo, hi in zip(bounds, bounds[1:])
    )


def quantile(values: list[float], q: float) -> float:
    """Quantile ``q`` in [0, 1], interpolated between order statistics
    (``statistics.quantiles``' inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

"""The connection endpoint shared by ``repro serve`` and ``cluster-serve``.

:class:`WireEndpoint` owns the listener, the per-connection read loop
and the straggler teardown; :class:`~repro.serve.server.ServeServer`
and :class:`~repro.serve.router.ServeRouter` supply their drain order
and two op tables.  ``task_ops`` handlers ``(conn, rid, req)`` run as
per-request tasks and write their own response, so requests on one
connection run concurrently; ``inline_ops`` handlers ``(rid, req)``
are awaited in arrival order and return the response document.  The
loop itself answers ``ping``, ``hello`` and ``shutdown``; any other op
is ``bad_request`` with the id echoed.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from collections.abc import Awaitable, Callable
from typing import Any

from repro.serve.wire import (
    BadFrame,
    DecodeMemo,
    EncodeMemo,
    WIRE_BINARY1,
    WIRE_JSON,
    WireConnection,
    WireError,
)

#: The job-tier ops; both endpoints answer them inline.
JOB_OPS = ("submit", "status", "result", "cancel")

InlineHandler = Callable[[Any, dict[str, Any]], Awaitable[dict[str, Any]]]
TaskHandler = Callable[[WireConnection, Any, dict[str, Any]], Awaitable[None]]


def bad_request(rid: Any, detail: str) -> dict[str, Any]:
    return {"id": rid, "ok": False, "error": "bad_request", "detail": detail}


def locate_doc(
    rid: Any,
    req: dict[str, Any],
    epoch: str,
    addresses: dict[str, tuple[str, int]],
    home: Callable[[str, dict[str, Any]], str],
) -> dict[str, Any]:
    """The ``locate`` answer: the topology (``addresses``, name ->
    connectable ``(host, port)``) and its ``epoch``, plus — when the
    request names a key — the name and address of ``home(kind,
    params)``.  One shape on server and router, so a ring-aware client
    pointed at a bare server degenerates cleanly to a plain one."""
    kind = req.get("kind")
    params = req.get("params")
    doc: dict[str, Any] = {
        "id": rid, "ok": True, "epoch": epoch,
        "backends": {name: [host, port] for name, (host, port) in addresses.items()},
    }
    if kind is not None or params is not None:
        if not isinstance(kind, str) or not isinstance(params, dict):
            return bad_request(
                rid,
                "locate needs a string 'kind' and object 'params' (or neither)",
            )
        name = home(kind, params)
        host, port = addresses[name]
        doc.update(backend=name, host=host, port=port)
    return doc


class WireEndpoint:
    """One listening socket and its connection loop.  ``encode_memo``
    is shared by every connection; ``decode_memo=None`` gives each
    connection its own."""

    def __init__(
        self,
        host: str,
        port: int,
        binary_wire: bool,
        encode_memo: EncodeMemo,
        decode_memo: DecodeMemo | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.binary_wire = binary_wire
        self._encode_memo = encode_memo
        self._decode_memo = decode_memo
        self.task_ops: dict[str, TaskHandler] = {}
        self.inline_ops: dict[str, InlineHandler] = {}
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Open the listener; ``port=0`` binds an ephemeral port, the
        actual one is on ``self.port`` afterwards."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        self._shutdown.set()

    def shutdown_on_signals(self) -> None:
        """SIGINT/SIGTERM trigger the same graceful drain as the
        ``shutdown`` op."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, self.request_shutdown)

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op arrives, run the service's
        :meth:`_drain`, then cancel the straggler connections (each
        flushes its already-resolved answers first)."""
        assert self._server is not None, "start() first"
        await self._shutdown.wait()
        await self._drain()
        for task in list(self._conn_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    async def _drain(self) -> None:
        """The service's drain order; must call :meth:`_close_listener`."""
        await self._close_listener()

    async def _close_listener(self) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    # -- the connection loop -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        conn = WireConnection(
            reader, writer,
            allow_binary=self.binary_wire,
            encode_memo=self._encode_memo,
            decode_memo=self._decode_memo,
        )
        loop = asyncio.get_running_loop()
        task_ops, inline_ops = self.task_ops, self.inline_ops
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    req = await conn.recv()
                except BadFrame as exc:
                    # One bad frame, a still-framed stream: answer and
                    # keep reading — a wedged read loop would be worse
                    # than the malformed request.
                    await self._send(conn, bad_request(None, str(exc)))
                    continue
                except WireError:
                    break  # framing broken beyond resync: drop the link
                if req is None:
                    break
                op = req.get("op")
                rid = req.get("id")
                if not isinstance(op, str):
                    op = None  # unhashable ops must not reach the tables
                handler = task_ops.get(op)
                if handler is not None:
                    sub = loop.create_task(handler(conn, rid, req))
                    pending.add(sub)
                    sub.add_done_callback(pending.discard)
                elif op in inline_ops:
                    await self._send(conn, await inline_ops[op](rid, req))
                elif op == "ping":
                    await self._send(conn, {"id": rid, "ok": True})
                elif op == "hello" and self.binary_wire:
                    # Offers we cannot speak (unknown versions) are
                    # acked with "wire": "json" — negotiate down, never
                    # error: the client keeps the compatibility skin.
                    binary = req.get("wire") == WIRE_BINARY1
                    ack = {"id": rid, "ok": True,
                           "wire": WIRE_BINARY1 if binary else WIRE_JSON}
                    try:
                        await conn.send_hello_ack(ack, binary and not conn.binary)
                    except (ConnectionResetError, BrokenPipeError):
                        break
                elif op == "shutdown":
                    await self._send(conn, {"id": rid, "ok": True})
                    self.request_shutdown()
                else:
                    # With binary_wire off, "hello" lands here: that
                    # bad_request IS the client's downgrade signal.
                    await self._send(
                        conn, bad_request(rid, f"unknown op {req.get('op')!r}")
                    )
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels straggler connections after the drain.
            # Every accepted request is resolved by then, but its answer
            # task may not have written yet — flush those before closing
            # so "drained" means none dropped at the transport either.
            # (Finishing normally also keeps asyncio's streams helper
            # from logging the cancellation as a connection error.)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            for sub in pending:
                sub.cancel()
            self._conn_tasks.discard(task)
            writer.close()
            # CancelledError here is the close-waiter future dying when
            # a peer link drops mid-teardown, not task cancellation —
            # and this handler finishes normally on cancellation anyway
            # (see the except clause above).
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError, OSError,
                asyncio.CancelledError,
            ):
                await writer.wait_closed()

    @staticmethod
    async def _send(conn: WireConnection, doc: dict[str, Any]) -> None:
        try:
            await conn.send(doc)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the service still counted the work

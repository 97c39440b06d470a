"""Event-free evaluation of model rank programs.

The Figure 6 application models (PEPC, GROMACS, HYDRO, SPECFEM3D) are
deterministic message-passing programs: every receive names its source
and tag, and messages on one ``(src, dst, tag)`` channel are matched in
FIFO order.  Such a program is a Kahn process network — which message
each receive gets does not depend on the order the ranks run in — so
each rank can run on its own clock, with no event heap:

* ``compute`` and ``isend`` return their completion time (a float);
* ``irecv`` returns a :class:`_Recv` handle, matched FIFO per channel;
* yielding a float, a handle or a list of them moves the rank's clock
  to ``max(clock, t)``;
* a rank runs until it yields a receive whose message has not been
  sent yet; the send that fills it puts the rank back on a ready deque.

**Bit-identity with** :meth:`MPIWorld.run`: every float is produced by
the same operation, in the same per-rank order, as in
:class:`~repro.mpi.api.RankContext` — ``now + seconds`` for compute,
``sent_at + transfer`` for arrival, ``resume - t0`` for a wait — and
the makespan is the maximum over every timestamp created, which is the
engine's last popped heap entry.

:func:`run_model` re-runs the program from scratch on ``world.run``
whenever it leaves that subset (see the function's docstring), so the
result is always exactly the engine's.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Callable, Generator

from repro.cluster.cluster import ClusterNetwork
from repro.mpi.api import (
    ANY_SOURCE,
    ANY_TAG,
    Message,
    MPIRunResult,
    MPIWorld,
    RankStats,
    SyntheticPayload,
    UniformNetwork,
    payload_nbytes,
)
from repro.obs.recorder import current as _obs_current

_new = object.__new__
_setattr = object.__setattr__
_NEG_INF = float("-inf")
#: Networks that price a message by ``(src, dst, nbytes)`` alone, so one
#: lookup per key serves a whole run.  Others (a ``FaultyNetwork`` reads
#: the engine clock) run on the engine.
_PURE_NETWORKS = (UniformNetwork, ClusterNetwork)


class _Fallback(BaseException):
    """The program left what the runner evaluates; rerun it on the
    engine.  A ``BaseException`` so a rank's ``except Exception``
    cannot swallow it."""


class _Recv:
    """A posted receive; ``msg`` is set once the matching send ran."""

    __slots__ = ("msg", "waiter")

    def __init__(self) -> None:
        self.msg: Message | None = None
        self.waiter = -1  # rank blocked on this handle, or -1


class _Channel:
    """One ``(src, dst, tag)`` channel: sent-but-unreceived messages or
    posted-but-unfilled receives (never both), and the last arrival."""

    __slots__ = ("msgs", "recvs", "last")

    def __init__(self) -> None:
        self.msgs: list[Message] = []
        self.recvs: list[_Recv] = []
        self.last = _NEG_INF


def _message(src, dst, tag, payload, nbytes, sent_at, received_at) -> Message:
    """A :class:`Message` equal to ``Message(...)``, without the frozen
    dataclass ``__init__`` (one ``object.__setattr__`` per field, the
    largest per-message cost of this runner otherwise)."""
    msg = _new(Message)
    _setattr(msg, "__dict__", {
        "src": src, "dst": dst, "tag": tag, "payload": payload,
        "nbytes": nbytes, "sent_at": sent_at, "received_at": received_at,
    })
    return msg


class _ModelContext:
    """The rank handle of :func:`run_model`: the model-program subset of
    :class:`~repro.mpi.api.RankContext`.  Any other attribute (``world``
    included) raises :class:`_Fallback`."""

    __slots__ = (
        "rank", "size", "clock", "horizon", "stats",
        "_flop_rate", "_costs", "_network", "_boxes", "_ready",
    )

    def __init__(self, rank: int, size: int, flop_rate: float, costs: dict,
                 network: Any, boxes: list[dict], ready: deque) -> None:
        self.rank = rank
        self.size = size
        self.clock = 0.0
        self.horizon = 0.0  # latest timestamp this rank created
        self.stats = RankStats()
        self._flop_rate = flop_rate  # GFLOPS * 1e9, as compute_flops forms it
        self._costs = costs
        self._network = network
        self._boxes = boxes
        self._ready = ready

    def __getattr__(self, name: str) -> Any:
        raise _Fallback(f"context attribute {name!r}")

    @property
    def now(self) -> float:
        return self.clock

    def compute(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self.stats.compute_s += seconds
        t = self.clock + seconds
        if t > self.horizon:
            self.horizon = t
        return t

    def compute_flops(self, flops: float) -> float:
        return self.compute(flops / self._flop_rate)

    def isend(self, dst: int, payload: Any, tag: int = 0) -> float:
        if not (0 <= dst < self.size):
            raise ValueError(f"destination {dst} out of range")
        cls = payload.__class__
        if cls is SyntheticPayload:
            nbytes = payload.nbytes
        elif (
            cls is tuple and len(payload) == 2
            and payload[0].__class__ is int
            and payload[1].__class__ is SyntheticPayload
        ):
            # The allgather carry (index, block): payload_nbytes' value
            # (8 + nbytes + 8) without its recursion.
            nbytes = payload[1].nbytes + 16
        else:
            nbytes = payload_nbytes(payload)
        rank = self.rank
        key = (rank, dst, nbytes)
        cost = self._costs.get(key)
        if cost is None:
            net = self._network
            cost = self._costs[key] = (
                net.sender_occupancy_s(rank, dst, nbytes),
                net.transfer_time_s(rank, dst, nbytes),
            )
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += nbytes
        sent_at = self.clock
        done = sent_at + cost[0]
        arrival = sent_at + cost[1]
        horizon = self.horizon
        if done > horizon:
            horizon = done
        if arrival > horizon:
            horizon = arrival
        self.horizon = horizon
        box = self._boxes[dst]
        chan = box.get((rank, tag))
        if chan is None:
            chan = box[(rank, tag)] = _Channel()
        if arrival < chan.last:
            # Overtaking: the engine would match this message before the
            # earlier one on the channel, breaking FIFO-by-send-order.
            raise _Fallback("message overtakes its channel predecessor")
        chan.last = arrival
        msg = _message(rank, dst, tag, payload, nbytes, sent_at, arrival)
        if chan.recvs:
            handle = chan.recvs.pop(0)
            handle.msg = msg
            if handle.waiter >= 0:
                self._ready.append(handle.waiter)
        else:
            chan.msgs.append(msg)
        return done

    def send(self, dst: int, payload: Any, tag: int = 0) -> Generator:
        yield self.isend(dst, payload, tag)
        return None

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> _Recv:
        if src < 0 or tag < 0:
            raise _Fallback("wildcard receive")
        handle = _Recv()
        box = self._boxes[self.rank]
        chan = box.get((src, tag))
        if chan is None:
            chan = box[(src, tag)] = _Channel()
        if chan.msgs:
            handle.msg = chan.msgs.pop(0)
        else:
            chan.recvs.append(handle)
        return handle

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Generator:
        if timeout is not None:
            raise _Fallback("timed receive")
        handle = self.irecv(src, tag)
        t0 = self.clock
        msg = yield handle
        self.stats.comm_wait_s += self.clock - t0
        return msg

    def exchange(
        self,
        sends: list[tuple[int, Any, int]],
        recvs: list[tuple[int, int]],
    ) -> Generator:
        waits: list[Any] = [self.isend(d, pl, t) for d, pl, t in sends]
        handles = [self.irecv(s, t) for s, t in recvs]
        t0 = self.clock
        yield waits + handles
        self.stats.comm_wait_s += self.clock - t0
        return [h.msg for h in handles]

    def sendrecv(
        self,
        dst: int,
        payload: Any,
        src: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ) -> Generator:
        done = self.isend(dst, payload, send_tag)
        handle = self.irecv(src, recv_tag)
        t0 = self.clock
        yield [done, handle]
        self.stats.comm_wait_s += self.clock - t0
        return handle.msg


_START = object()  # a rank's first resumption: send None, check nothing


def _evaluate(
    world: MPIWorld, rank_fn: Callable[..., Generator], args: tuple
) -> MPIRunResult:
    """Run every rank to completion; raises :class:`_Fallback`."""
    size = world.size
    network = world.network
    costs: dict[tuple[int, int, int], tuple[float, float]] = {}
    boxes: list[dict] = [{} for _ in range(size)]
    ready: deque[int] = deque(range(size))
    ctxs = [
        _ModelContext(r, size, world.rank_gflops(r) * 1e9, costs, network,
                      boxes, ready)
        for r in range(size)
    ]
    sends = [rank_fn(ctx, *args).send for ctx in ctxs]
    waits: list[Any] = [_START] * size
    results: list[Any] = [None] * size
    finished = 0
    popleft = ready.popleft
    while ready:
        r = popleft()
        ctx = ctxs[r]
        send = sends[r]
        y = waits[r]
        while True:
            if y is _START:
                value = None
            else:
                cls = y.__class__
                if cls is float:
                    if y > ctx.clock:
                        ctx.clock = y
                    value = None
                elif cls is _Recv:
                    msg = y.msg
                    if msg is None:
                        y.waiter = r
                        waits[r] = y
                        break
                    if msg.received_at > ctx.clock:
                        ctx.clock = msg.received_at
                    value = msg
                elif cls is list:
                    # All-of: resume at the latest constituent, once
                    # every receive in it has been filled.
                    resume = ctx.clock
                    blocked = None
                    for item in y:
                        cls = item.__class__
                        if cls is float:
                            t = item
                        elif cls is _Recv:
                            if item.msg is None:
                                blocked = item
                                break
                            t = item.msg.received_at
                        else:
                            raise _Fallback(f"yielded {cls.__name__}")
                        if t > resume:
                            resume = t
                    if blocked is not None:
                        blocked.waiter = r
                        waits[r] = y
                        break
                    ctx.clock = resume
                    value = None
                else:
                    raise _Fallback(f"yielded {cls.__name__}")
            try:
                y = send(value)
            except StopIteration as stop:
                results[r] = stop.value
                finished += 1
                break
            except Exception as exc:
                # Failures and their propagation are the engine's to
                # model; rerun there for the exact outcome.
                raise _Fallback(f"rank {r} raised {exc!r}") from exc
    if finished < size:
        raise _Fallback("ranks still blocked (deadlock)")
    return MPIRunResult(
        makespan_s=max(ctx.horizon for ctx in ctxs),
        results=results,
        stats=[ctx.stats for ctx in ctxs],
    )


def run_model(
    world: MPIWorld, rank_fn: Callable[..., Generator], *args: Any
) -> MPIRunResult:
    """``world.run(rank_fn, *args)``'s exact result, evaluated without
    the event heap when the program allows.

    Falls back to a from-scratch ``world.run`` when tracing is on,
    ``REPRO_SCALAR_SWEEP`` is set, the network is not one that prices a
    message by ``(src, dst, nbytes)`` alone, the world has run or
    carries daemons or dead ranks, or the program: posts a wildcard receive; calls
    ``recv(timeout=...)``; touches a context attribute the runner does
    not implement (``ctx.world``); yields anything but a float, a
    receive handle or a list of them; raises; sends a message that
    arrives before its predecessor on the same channel; or leaves a
    rank blocked at the end (the engine then raises its structured
    :class:`~repro.mpi.api.DeadlockError`).
    """
    engine = world.engine
    if not (
        _obs_current() is not None
        or os.environ.get("REPRO_SCALAR_SWEEP")
        or type(world.network) not in _PURE_NETWORKS
        or engine.now
        or engine._heap
        or world._daemons
        or world._any_failed
    ):
        try:
            return _evaluate(world, rank_fn, args)
        except _Fallback:
            pass
    return world.run(rank_fn, *args)

"""``repro loadtest`` — seeded open-loop load generator for ``repro serve``.

Open-loop means arrivals are scheduled by a Poisson process at the
requested rate regardless of how fast responses come back — the
arrival schedule never adapts to server latency, so the generator
measures the server rather than its own politeness (closed-loop
clients understate tail latency under load).

The workload is deliberately duplicate-heavy, because that is the shape
of real traffic against a reproduction service: ``hot_fraction`` of
requests (default 0.9) draw from a small hot set of operating points,
the rest from the full quick-campaign sweep grid.  Everything is
derived from the seed, so a loadtest run is reproducible
request-for-request.

Each connection drives its share of the workload with id-matched
responses — the server handles queries concurrently per connection, so
duplicates in flight genuinely exercise single-flight coalescing.

A fixed-rate open-loop run can only tell you the server *kept up*, not
where its ceiling is: :func:`run_saturation` (``repro loadtest
--max-rate``) ramps the offered rate until the tail degrades and
reports ``max_sustainable_ops_per_s`` — the number BENCH_serve.json's
scaling entries are built from.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from collections.abc import Awaitable, Callable
from typing import Any

from repro.serve.frontend import percentile
from repro.serve.wire import (
    BadFrame,
    DecodeMemo,
    EncodeMemo,
    WireConnection,
    WireError,
)

#: How long the generator keeps retrying the initial connect (CI boots
#: the server as a sibling process and races it to the port).
CONNECT_RETRIES = 100
CONNECT_DELAY_S = 0.1


def build_workload(
    n_requests: int,
    seed: int = 0,
    hot_fraction: float = 0.9,
    hot_set_size: int = 5,
) -> list[tuple[str, dict[str, Any]]]:
    """A seeded, duplicate-heavy request sequence over the sweep
    operating points (sweep_base + every (mode, platform, freq) cell)."""
    from repro.core.study import MobileSoCStudy

    study = MobileSoCStudy()
    distinct: list[tuple[str, dict[str, Any]]] = [("sweep_base", {})]
    for mode in ("single", "multi"):
        for name, platform in study.platforms.items():
            for freq in platform.soc.dvfs.frequencies():
                distinct.append(
                    ("sweep_point",
                     {"mode": mode, "platform": name, "freq": freq})
                )
    rng = random.Random(seed)
    hot = distinct[: max(1, min(hot_set_size, len(distinct)))]
    workload = []
    for _ in range(n_requests):
        pool = hot if rng.random() < hot_fraction else distinct
        workload.append(rng.choice(pool))
    return workload


async def _retry(connect: Callable[[], Awaitable[Any]], what: str) -> Any:
    last: Exception | None = None
    for _ in range(CONNECT_RETRIES):
        try:
            return await connect()
        except OSError as exc:
            last = exc
            await asyncio.sleep(CONNECT_DELAY_S)
    raise ConnectionError(
        f"could not {what} after {CONNECT_RETRIES * CONNECT_DELAY_S:.0f} s"
    ) from last


async def _connect(
    host: str, port: int
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await _retry(
        lambda: asyncio.open_connection(host, port),
        f"connect to {host}:{port}",
    )


async def request_shutdown(host: str, port: int) -> None:
    """Ask a running server to drain gracefully and exit."""
    reader, writer = await _connect(host, port)
    writer.write(b'{"op": "shutdown", "id": 0}\n')
    await writer.drain()
    await reader.readline()  # the ack
    writer.close()
    with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
        await writer.wait_closed()


class _ConnectionTarget:
    """One connection to ``host:port``: each request is written with
    its index as the id, and a reader task resolves the matching
    future.  A connection lost mid-run is never re-opened — every
    outstanding request fails as an error instead."""

    def __init__(self, conn: WireConnection, n_requests: int) -> None:
        loop = asyncio.get_running_loop()
        self.conn = conn
        self._waiting = {rid: loop.create_future() for rid in range(n_requests)}
        self.outcomes = list(self._waiting.values())
        self._reader = loop.create_task(self._read_responses())

    async def issue(self, rid: int, kind: str, params: dict[str, Any]) -> None:
        try:
            self.conn.write_request(
                {"op": "query", "id": rid, "kind": kind, "params": params}
            )
            await self.conn.drain()
        except OSError as exc:
            # The never-sent requests (and any sent-but-unanswered
            # ones) fail as errors in the report instead of hanging
            # the gather; re-raised so the arrival loop stops.
            self._fail(exc)
            raise

    def _fail(self, exc: Exception) -> None:
        """Resolve every unanswered request as a connection error.

        Pre-fix, a connection dropped mid-run left these futures
        unresolved forever: ``writer.drain()`` raising aborted the
        arrival loop before the gather, and a readline *exception* (an
        RST is ``ConnectionResetError``, not a clean EOF) killed the
        reader without failing anything — so the gather waited on
        futures nobody would ever resolve.
        """
        for fut in self._waiting.values():
            if not fut.done():
                fut.set_exception(
                    ConnectionError(f"connection lost mid-run: {exc}")
                )
        self._waiting.clear()

    async def _read_responses(self) -> None:
        try:
            while self._waiting:
                doc = await self.conn.recv()
                if doc is None:
                    self._fail(ConnectionError("server hung up"))
                    return
                fut = self._waiting.pop(doc.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(doc)
        except (OSError, WireError, BadFrame) as exc:
            self._fail(exc)

    async def close(self) -> dict[str, Any]:
        self._reader.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reader
        self.conn.writer.close()
        with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
            await self.conn.writer.wait_closed()
        # What the connection actually spoke after negotiation — "json"
        # even under wire="binary" when the server declined.
        return {"wire": self.conn.wire}


class _RingTarget:
    """A :class:`~repro.serve.client.RingClient`: each request is a
    query task straight to its key's home shard (router fallback on
    trouble)."""

    def __init__(self, client: Any) -> None:
        self.client = client
        self.outcomes: list[asyncio.Task] = []

    async def issue(self, rid: int, kind: str, params: dict[str, Any]) -> None:
        self.outcomes.append(asyncio.get_running_loop().create_task(
            self.client.query(kind, params)
        ))

    async def close(self) -> dict[str, Any]:
        await self.client.close()
        return {"direct_queries": self.client.direct_queries,
                "router_fallbacks": self.client.router_fallbacks}


async def _drive(
    host: str,
    port: int,
    workload: list[tuple[str, dict[str, Any]]],
    rate: float,
    arrival_seed: int,
    wire: str,
    memos: tuple[EncodeMemo, DecodeMemo] | None,
    direct: bool,
) -> tuple[list[Any], float, float, dict[str, Any]]:
    """Issue ``workload`` to one target at Poisson ``rate`` and collect
    every outcome; returns ``(raw outcomes, send_wall_s, wall_s, the
    target's counters)``."""
    target: _ConnectionTarget | _RingTarget
    if direct:
        from repro.serve.client import RingClient

        client = RingClient(host, port, wire=wire)
        await _retry(client.connect, f"learn the topology from {host}:{port}")
        target = _RingTarget(client)
    else:
        reader, writer = await _connect(host, port)
        encode_memo, decode_memo = memos if memos is not None else (None, None)
        conn = WireConnection(
            reader, writer, allow_binary=False,
            encode_memo=encode_memo, decode_memo=decode_memo,
        )
        if wire == "binary":
            await conn.negotiate()
        target = _ConnectionTarget(conn, len(workload))
    loop = asyncio.get_running_loop()
    rng = random.Random(arrival_seed)  # arrival process, own stream
    t_start = loop.time()
    t_next = t_start
    try:
        for rid, (kind, params) in enumerate(workload):
            delay = t_next - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # Fire-and-collect: the schedule never waits on a response.
            await target.issue(rid, kind, params)
            t_next += rng.expovariate(rate)
    except OSError:
        pass  # the connection target has failed what was outstanding
    # The arrival process's realized duration: a Poisson schedule's
    # gap sum deviates noticeably from n/rate at small n, so capacity
    # judgements (run_saturation) compare against the rate actually
    # offered, not the nominal one.
    send_wall_s = loop.time() - t_start
    outcomes = await asyncio.gather(*target.outcomes, return_exceptions=True)
    wall_s = loop.time() - t_start
    counters = await target.close()
    return list(outcomes), send_wall_s, wall_s, counters


def _tally(
    responses: list[Any], wall_s: float, send_wall_s: float
) -> dict[str, Any]:
    """Fold raw per-request outcomes into one report dict."""
    completed = rejected = errors = 0
    served: dict[str, int] = {
        "cache": 0, "coalesced": 0, "computed": 0, "peer": 0,
    }
    latencies: list[float] = []
    for doc in responses:
        if isinstance(doc, Exception):
            errors += 1
        elif doc.get("ok"):
            completed += 1
            served[doc["served"]] = served.get(doc["served"], 0) + 1
            latencies.append(doc["latency_s"])
        elif doc.get("error") == "overloaded":
            rejected += 1
        else:
            errors += 1
    return {
        "requests": len(responses),
        "completed": completed,
        "rejected": rejected,
        "errors": errors,
        "served": served,
        "wall_s": wall_s,
        "send_wall_s": send_wall_s,
        "latencies_s": latencies,
    }


async def run_loadtest(
    host: str,
    port: int,
    workload: list[tuple[str, dict[str, Any]]],
    rate: float,
    arrival_seed: int = 1,
) -> dict[str, Any]:
    """Drive one JSON-lines connection through ``workload`` at Poisson
    ``rate``; returns a report dict (raw latencies under
    ``latencies_s``).  :func:`run_loadtest_fleet` is the general form
    (several connections, ``wire=``, ``direct=``)."""
    outcomes, send_wall_s, wall_s, counters = await _drive(
        host, port, workload, rate, arrival_seed, "json", None, False
    )
    report = _tally(outcomes, wall_s, send_wall_s)
    report.update(counters)
    return report


async def run_loadtest_fleet(
    host: str,
    port: int,
    n_requests: int,
    rate: float,
    seed: int = 0,
    hot_fraction: float = 0.9,
    connections: int = 1,
    shutdown_after: bool = False,
    direct: bool = False,
    wire: str = "json",
) -> dict[str, Any]:
    """Split one seeded workload round-robin across ``connections``
    concurrent clients (sharing the offered rate) and report on all of
    their outcomes together.

    ``wire="binary"`` has each connection negotiate ``binary1`` first
    (a server that declines leaves it on JSON-lines, reported under
    ``wire``), the fleet sharing one codec-cache pair.  ``direct=True``
    swaps each client for a :class:`~repro.serve.client.RingClient`:
    ``host:port`` is then normally the *router*, which serves only
    topology discovery and fallback while the queries flow straight to
    the home shards; the report then carries ``direct_queries`` and
    ``router_fallbacks``.
    """
    workload = build_workload(n_requests, seed=seed, hot_fraction=hot_fraction)
    connections = max(1, min(connections, len(workload) or 1))
    shards = [workload[i::connections] for i in range(connections)]
    per_conn_rate = rate / connections
    memos = (
        (EncodeMemo(), DecodeMemo())
        if wire == "binary" and not direct else None
    )
    runs = await asyncio.gather(
        *(
            _drive(
                host, port, shard, per_conn_rate, seed + 1 + i,
                wire, memos, direct,
            )
            for i, shard in enumerate(shards)
        )
    )
    if shutdown_after:
        await request_shutdown(host, port)

    outcomes, send_walls, walls, counters = zip(*runs)
    report = _tally(
        [doc for run in outcomes for doc in run], max(walls), max(send_walls)
    )
    latencies = report.pop("latencies_s")
    if direct:
        for key in ("direct_queries", "router_fallbacks"):
            report[key] = sum(c[key] for c in counters)
    served, completed = report["served"], report["completed"]
    wall_s = report["wall_s"]
    report.update(
        connections=connections,
        wire=counters[0].get("wire", wire),
        offered_rate_rps=rate,
        throughput_rps=completed / wall_s if wall_s > 0 else 0.0,
        hit_ratio=(
            (served["cache"] + served["coalesced"] + served["peer"])
            / completed
            if completed else 0.0
        ),
        answered_ratio=(
            (completed + report["rejected"]) / report["requests"]
            if report["requests"] else 0.0
        ),
    )
    if latencies:
        report["p50_latency_s"] = percentile(latencies, 0.50)
        report["p99_latency_s"] = percentile(latencies, 0.99)
    return report


async def run_saturation(
    host: str,
    port: int,
    seed: int = 0,
    hot_fraction: float = 0.9,
    connections: int = 4,
    start_rate: float = 500.0,
    growth: float = 2.0,
    step_seconds: float = 0.5,
    max_steps: int = 10,
    p99_limit_s: float = 0.05,
    min_step_requests: int = 200,
    max_step_requests: int = 20_000,
    direct: bool = False,
    wire: str = "json",
) -> dict[str, Any]:
    """Closed-loop saturation probe: find the real throughput ceiling.

    The plain open-loop loadtest reports ~offered rate whenever the
    server keeps up — cold and warm alike — so it measures the *load
    generator*, not capacity (BENCH_serve's pre-fix numbers were ~1000
    ops/s for both passes while the warm p99 was 0.22 ms).  This mode
    closes the loop on the *rate* axis: ramp the offered rate
    geometrically and at each step require the server to actually
    sustain it — delivered throughput within 90% of offered, p99 under
    ``p99_limit_s``, no errors.  The last sustained step's delivered
    throughput is ``max_sustainable_ops_per_s``; the first degraded
    step is reported alongside so the ceiling is bracketed.

    Each step reuses the same seeded duplicate-heavy workload (sized to
    ~``step_seconds`` of offered load), so successive steps measure the
    same traffic shape at increasing pressure.
    """
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    steps: list[dict[str, Any]] = []
    rate = start_rate
    best_rate = 0.0
    best_p99: float | None = None
    saturated = False
    for _ in range(max_steps):
        n_requests = max(
            min_step_requests,
            min(max_step_requests, int(rate * step_seconds)),
        )
        report = await run_loadtest_fleet(
            host, port, n_requests=n_requests, rate=rate, seed=seed,
            hot_fraction=hot_fraction, connections=connections,
            direct=direct, wire=wire,
        )
        p99 = report.get("p99_latency_s")
        achieved = report["throughput_rps"]
        # Judge against the rate the Poisson process actually offered:
        # the realized gap sum deviates from n/rate at step-sized n, so
        # holding the server to the nominal rate failed steps it had in
        # fact kept up with (arrival noise, not capacity).
        realized = (
            report["requests"] / report["send_wall_s"]
            if report["send_wall_s"] > 0 else rate
        )
        sustained = (
            report["errors"] == 0
            and report["rejected"] == 0
            and achieved >= 0.9 * min(rate, realized)
            and (p99 is None or p99 <= p99_limit_s)
        )
        step: dict[str, Any] = {
            "offered_rate_rps": rate,
            "realized_offered_rps": realized,
            "achieved_rps": achieved,
            "completed": report["completed"],
            "rejected": report["rejected"],
            "errors": report["errors"],
            "p99_latency_s": p99,
            "hit_ratio": report["hit_ratio"],
            "sustained": sustained,
        }
        if direct:
            step["direct_queries"] = report.get("direct_queries", 0)
            step["router_fallbacks"] = report.get("router_fallbacks", 0)
        steps.append(step)
        if not sustained:
            saturated = True
            break
        best_rate = achieved
        best_p99 = p99
        rate *= growth
    return {
        "mode": "saturation",
        "connections": connections,
        "direct": direct,
        "wire": wire,
        "p99_limit_s": p99_limit_s,
        "steps": steps,
        "max_sustainable_ops_per_s": best_rate,
        "sustained_p99_s": best_p99,
        "saturated": saturated,  # False: the ramp ran out before the server did
    }


def format_saturation_report(report: dict[str, Any]) -> str:
    lines = [
        f"saturation: {len(report['steps'])} step(s) over "
        f"{report['connections']} connection(s)"
        + (" [direct data path]" if report.get("direct") else "")
        + f", p99 limit {report['p99_limit_s'] * 1e3:.0f} ms"
    ]
    for step in report["steps"]:
        p99 = step["p99_latency_s"]
        p99_text = "   n/a" if p99 is None else f"{p99 * 1e3:7.2f} ms"
        lines.append(
            f"  offered {step['offered_rate_rps']:8.0f} rps -> "
            f"achieved {step['achieved_rps']:8.0f} rps, "
            f"p99 {p99_text}, "
            + ("sustained" if step["sustained"] else
               f"DEGRADED (rejected {step['rejected']}, "
               f"errors {step['errors']})")
        )
    lines.append(
        f"  max sustainable: {report['max_sustainable_ops_per_s']:.0f} ops/s"
        + ("" if report["saturated"]
           else "  (ramp exhausted before saturation)")
    )
    return "\n".join(lines)


def format_report(report: dict[str, Any]) -> str:
    lines = [
        f"loadtest: {report['requests']} requests in "
        f"{report['wall_s']:.2f} s over {report['connections']} "
        f"connection(s) (offered {report['offered_rate_rps']:.0f} rps, "
        f"completed {report['throughput_rps']:.0f} rps)",
        f"  completed {report['completed']}, "
        f"rejected {report['rejected']}, errors {report['errors']}",
        "  served: "
        + ", ".join(
            f"{k} {v}" for k, v in sorted(report["served"].items())
        )
        + f"  (hit ratio {report['hit_ratio']:.1%})",
    ]
    if "direct_queries" in report:
        lines.append(
            f"  routing: {report['direct_queries']} direct to home "
            f"shards, {report['router_fallbacks']} router fallback(s)"
        )
    if "p50_latency_s" in report:
        lines.append(
            f"  latency: p50 {report['p50_latency_s'] * 1e3:.2f} ms, "
            f"p99 {report['p99_latency_s'] * 1e3:.2f} ms"
        )
    return "\n".join(lines)

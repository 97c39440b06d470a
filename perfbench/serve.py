"""The ``serve-hot`` and ``serve-cold`` workloads.

Both drive one ``repro serve --jobs 1`` subprocess over loopback from
this process, with at most two connections:

* ``serve-hot``: a seeded, duplicate-heavy mix over the 45 Figure 3/4
  keys, 90% of it on 5 hot keys.  The working set fits the front end's
  hot-value LRU, so a request costs wire codec, connection loop and
  funnel only.
* ``serve-cold``: every query is a ``sweep_point`` never asked before,
  at a seeded off-grid frequency, so each one is admitted, batched,
  computed and written to the cache.

Each runs closed-loop rounds, alternating a JSON-lines client with one
that offers ``binary1``, then an open loop at a fixed rate.  The
server's ``stats`` op is read before and after the timed phases, never
inside them.  On two or more cores the server and this process are
pinned to one core each, and CPU-bound figures are scaled by the speed
of the server's core (``speed.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import loadgen
from loadgen import Keys, Link, Reply
from speed import Speed


class Spec:
    """The fixed shape of one serve workload."""

    def __init__(self, name, jobs, depth, open_rate, p99_limit_ms, rounds,
                 closed_share, closed_rates, open_share) -> None:
        self.name = name
        self.jobs = jobs                    # repro serve --jobs
        self.depth = depth                  # requests in flight per link
        self.open_rate = open_rate          # open-loop req/s
        self.p99_limit_ms = p99_limit_ms    # open-loop p99 limit
        self.rounds = rounds                # closed-loop JSON/binary rounds
        self.closed_share = closed_share    # of the run, for closed loops
        # Reference-speed closed-loop req/s (JSON, binary1).  A round is
        # a fixed count of requests, as many as these rates serve in its
        # share of the run, so every run does the same work and leaves
        # the server in the same state, whatever the machine's speed.
        self.closed_rates = closed_rates
        self.open_share = open_share        # of the run, for the open loop

    def round_requests(self, seconds: float) -> tuple[int, int]:
        """Requests per JSON and per binary1 round of a run."""
        round_s = seconds * self.closed_share / self.rounds / 2
        return tuple(max(100, round(rate * round_s)) for rate in self.closed_rates)


SPECS = {
    "serve-hot": Spec("serve-hot", jobs=1, depth=16, open_rate=4000.0,
                      p99_limit_ms=25.0, rounds=16, closed_share=0.6,
                      closed_rates=(24_000.0, 36_000.0), open_share=0.2),
    "serve-cold": Spec("serve-cold", jobs=1, depth=8, open_rate=150.0,
                       p99_limit_ms=250.0, rounds=8, closed_share=0.5,
                       closed_rates=(400.0, 420.0), open_share=0.3),
}
LINKS = 2            # connections: one per core on the 2-core reference box
SETUPS = 5           # server set-ups per run; setup_s is their median
CLOSED_WINDOW = 250  # requests per window of a closed-loop latency quantile
#: (this process's core, the server's core), or None on one core.
CORES = (tuple(sorted(os.sched_getaffinity(0))[:2])
         if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
         else None)
STATS_KEYS = ("hot_hits", "cache_hits", "coalesced", "computed",
              "rejected", "batches", "accepted")


# -- inputs ------------------------------------------------------------------

def sweep_keys() -> list[tuple[str, dict[str, Any]]]:
    """The 45 distinct Figure 3/4 keys: the baseline energy plus every
    (mode, platform, DVFS frequency) operating point."""
    from repro.core.study import MobileSoCStudy

    keys: list[tuple[str, dict[str, Any]]] = [("sweep_base", {})]
    for mode in ("single", "multi"):
        for name, platform in MobileSoCStudy().platforms.items():
            for freq in platform.soc.dvfs.frequencies():
                keys.append(
                    ("sweep_point", {"mode": mode, "platform": name, "freq": freq})
                )
    return keys


class HotStream:
    """Seeded duplicate-heavy mix: 90% of draws from the first 5 keys,
    the rest from all 45 (the shape of ``repro loadtest``'s mix)."""

    def __init__(self, keys: Keys, seed: int, tag: str) -> None:
        self.rng = random.Random(f"{seed}:{tag}")
        self.n = len(keys)

    def __call__(self) -> int:
        pool = 5 if self.rng.random() < 0.9 else self.n
        return int(self.rng.random() * pool)


class ColdStream:
    """Never-repeating ``sweep_point`` keys at seeded off-grid
    frequencies inside each platform's DVFS range.  Streams of one run
    share ``seen``, so no key repeats across them either."""

    def __init__(self, keys: Keys, seed: int, tag: str,
                 seen: set[tuple[str, str, float]] | None = None) -> None:
        from repro.core.study import MobileSoCStudy

        self.keys = keys
        self.rng = random.Random(f"{seed}:{tag}")
        self.grid = [
            (mode, name, min(p.soc.dvfs.frequencies()),
             max(p.soc.dvfs.frequencies()), set(p.soc.dvfs.frequencies()))
            for mode in ("single", "multi")
            for name, p in MobileSoCStudy().platforms.items()
        ]
        self.seen = set() if seen is None else seen

    def __call__(self) -> int:
        while True:
            mode, name, lo, hi, grid = self.rng.choice(self.grid)
            freq = round(self.rng.uniform(lo, hi), 9)
            if freq in grid or (mode, name, freq) in self.seen:
                continue
            self.seen.add((mode, name, freq))
            return self.keys.add(
                "sweep_point", {"mode": mode, "platform": name, "freq": freq}
            )


# -- checking ------------------------------------------------------------------

class Oracle:
    """Expected values from ``repro.parallel.units.execute_unit``."""

    def __init__(self, keys: Keys, seed: int) -> None:
        self.keys = keys
        self.seed = seed
        self._value: dict[int, Any] = {}
        self._blob: dict[int, bytes] = {}
        self._tail: dict[int, bytes] = {}
        self.wrong: list[str] = []

    def value(self, k: int) -> Any:
        if k not in self._value:
            from repro.parallel.units import execute_unit

            self._value[k] = execute_unit(
                self.keys.kinds[k], self.keys.params[k], self.seed
            )
        return self._value[k]

    def blob(self, k: int, codec) -> bytes:
        if k not in self._blob:
            self._blob[k] = codec.encode_value(self.value(k))
        return self._blob[k]

    def exact(self, k: int, reply: Reply, codec) -> bool:
        """Exact equality; binary blobs compare as canonical bytes, JSON
        lines first by their value's serialisation, then decoded."""
        if reply.blob is not None:
            ok = reply.blob == self.blob(k, codec)
        else:
            tail = self._tail.get(k)
            if tail is None:
                tail = self._tail[k] = (
                    b', "value": '
                    + json.dumps(self.value(k), sort_keys=True).encode() + b"}"
                )
            ok = reply.line.endswith(tail) or reply.value == self.value(k)
        if not ok:
            self.wrong.append(f"{self.keys.kinds[k]}{self.keys.params[k]}")
        return ok


class ColdCheck:
    """Checks every cold reply's shape and frequency, and keeps a seeded
    sample (one key in 25) for an exact comparison after the phase."""

    SAMPLE_EVERY = 25

    def __init__(self, oracle: Oracle, codec) -> None:
        self.oracle = oracle
        self.codec = codec
        self.sampled: list[tuple[int, Reply]] = []

    def __call__(self, k: int, reply: Reply) -> bool:
        value = reply.value
        params = self.oracle.keys.params[k]
        ok = isinstance(value, dict) and value.get("freq_ghz") == params["freq"]
        if k % self.SAMPLE_EVERY == 0:
            self.sampled.append((k, reply))
        if not ok:
            self.oracle.wrong.append(f"sweep_point{params}")
        return ok

    def verify_sample(self) -> int:
        """Exact oracle comparison of the sample; returns wrong count."""
        return sum(
            not self.oracle.exact(k, reply, self.codec)
            for k, reply in self.sampled
        )


# -- the server process ----------------------------------------------------------

class ServerProc:
    """One ``repro serve`` subprocess with its own cache and journal."""

    def __init__(self, root: Path, workdir: Path, seed: int, extra=(),
                 cpu: int | None = None) -> None:
        workdir.mkdir(parents=True)
        (workdir / "tmp").mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(workdir / "tmp")
        self.argv = [
            sys.executable, "-m", "repro", *extra, "--port", "0",
            "--cache-dir", str(workdir / "cache"), "--seed", str(seed),
        ]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=workdir, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        if cpu is not None:
            # Before the interpreter has started a thread or a child,
            # so all of them inherit the core.
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.output: list[str] = []
        self.address: tuple[str, int] | None = None
        self.t_ready: float | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            if self.address is None and "listening on " in line:
                addr = line.split("listening on ", 1)[1].split()[0]
                host, _, port = addr.rpartition(":")
                self.address = (host, int(port))
                self.t_ready = time.perf_counter()
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout_s: float = 60.0) -> tuple[str, int]:
        self._ready.wait(timeout_s)
        if self.address is None:
            self.kill()
            raise RuntimeError(
                "server did not come up: " + "".join(self.output[-20:])
            )
        return self.address

    def vmhwm_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def shutdown(self) -> None:
        if self.address is not None and self.proc.poll() is None:
            try:
                link = await Link.open(*self.address, Keys())
                await link.call({"op": "shutdown", "id": 0})
                await link.close()
            except (ConnectionError, OSError, json.JSONDecodeError):
                pass
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.kill()
        self._reader.join(10)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(30)
        self._reader.join(10)


async def server_stats(address) -> dict[str, Any]:
    link = await Link.open(*address, Keys())
    try:
        doc = await link.call({"op": "stats", "id": 0})
    finally:
        await link.close()
    return doc["stats"]


def stats_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """The server's counters over an interval.  The stats op reports a
    mean batch size, not the unit total, so the interval's mean is
    rebuilt from the two means."""
    d = {k: after[k] - before[k] for k in STATS_KEYS}
    units = (after["mean_batch_size"] * after["batches"]
             - before["mean_batch_size"] * before["batches"])
    d["mean_batch_size"] = units / d["batches"] if d["batches"] else 0.0
    served = d["accepted"]
    d["hit_ratio"] = (
        (d["cache_hits"] + d["coalesced"]) / served if served else 0.0
    )
    return d


# -- a run -------------------------------------------------------------------------

class Run:
    """State shared by the phases of one serve workload run."""

    def __init__(self, spec: Spec, root: Path, work: Path, seed: int) -> None:
        self.spec = spec
        self.root = root
        self.work = work
        self.seed = seed
        self.keys = Keys()
        self.oracle = Oracle(self.keys, seed)
        self.codec = loadgen._binary_codec()
        self.hot = spec.name == "serve-hot"
        if self.hot:
            for kind, params in sweep_keys():
                self.keys.add(kind, params)
            self.check = lambda k, reply: self.oracle.exact(k, reply, self.codec)
            self.cold_check = None
        else:
            self.cold_check = ColdCheck(self.oracle, self.codec)
            self.check = self.cold_check
        self.cold_seen: set[tuple[str, str, float]] = set()
        self.servers: list[ServerProc] = []
        self.notes: list[str] = []
        self.server_cpu = None
        if CORES is not None:
            os.sched_setaffinity(0, {CORES[0]})
            self.server_cpu = CORES[1]

    def stream(self, tag: str):
        if self.hot:
            return HotStream(self.keys, self.seed, tag)
        return ColdStream(self.keys, self.seed, tag, self.cold_seen)

    async def start_server(self, i: int) -> tuple[ServerProc, float]:
        """Spawn, wait for readiness, warm up; returns the set-up time."""
        server = ServerProc(
            self.root, self.work / f"server{i}", self.seed,
            extra=("serve", "--jobs", str(self.spec.jobs), "--journal-dir",
                   str(self.work / f"server{i}" / "journal")),
            cpu=self.server_cpu,
        )
        self.servers.append(server)
        address = server.wait_ready()
        t_warm = time.perf_counter()
        await self.warm_up(address, i)
        return server, (server.t_ready - server.t_spawn) + (
            time.perf_counter() - t_warm
        )

    async def warm_up(self, address, i: int) -> None:
        """A fixed amount of work: hot, every distinct key then 2000
        requests of the mix; cold, 64 cold keys no timed phase reuses."""
        link = await Link.open(*address, self.keys)
        try:
            if self.hot:
                await loadgen.closed_loop(
                    [link], iter(range(len(self.keys))).__next__,
                    self.spec.depth, 0, self.check, total=len(self.keys),
                )
            phase = await loadgen.closed_loop(
                [link], self.stream(f"warm{i}"), self.spec.depth, 0,
                self.check, total=2000 if self.hot else 64,
            )
        finally:
            await link.close()
        if phase.failed or phase.missing:
            raise RuntimeError(f"warm-up failed: {phase.failed} failed, "
                               f"{phase.missing} missing")

    async def stop_all(self) -> None:
        for server in self.servers:
            await server.shutdown()

    async def links(self, address, offer_binary: bool) -> list[Link]:
        return [
            await Link.open(*address, self.keys, offer_binary=offer_binary)
            for _ in range(LINKS)
        ]


async def measure(spec: Spec, root: Path, work: Path, seed: int, seconds: float) -> dict[str, Any]:
    """The untraced run: end-to-end metrics and the checks."""
    run = Run(spec, root, work, seed)
    try:
        return await _measure(run, seconds)
    finally:
        await run.stop_all()


async def _measure(run: Run, seconds: float) -> dict[str, Any]:
    spec = run.spec
    if run.hot:
        for k in range(len(run.keys)):
            run.oracle.value(k)   # the oracle, before anything is timed
    setups = []
    speed = Speed(run.server_cpu)
    for i in range(SETUPS):
        server, setup_s = await run.start_server(i)
        setups.append(setup_s * speed.factor())
        if i < SETUPS - 1:
            await server.shutdown()
    address = server.address
    if not run.hot:
        # Settle the cold path (cache shard directories, pool workers'
        # memos) before anything is timed; not part of set-up time.
        link = await Link.open(*address, run.keys)
        await loadgen.closed_loop([link], run.stream("settle"), spec.depth, 0,
                                  run.check, total=600)
        await link.close()
    before = await server_stats(address)
    speed = Speed(run.server_cpu)

    requests = spec.round_requests(seconds)
    open_s = seconds * spec.open_share
    json_links = await run.links(address, offer_binary=False)
    bin_links = await run.links(address, offer_binary=True)
    phases, factors = [], []
    for r in range(spec.rounds):
        for links, n in zip((json_links, bin_links), requests):
            phase = await loadgen.closed_loop(
                links, run.stream(f"closed{r}{links[0].wire}"),
                spec.depth, 0, run.check, total=n,
            )
            phases.append(phase)
            factors.append(speed.factor())
    for link in bin_links:
        await link.close()
    opened = await loadgen.open_loop(
        json_links, run.stream("open"), spec.open_rate, open_s, run.check
    )
    for link in json_links:
        await link.close()
    after = await server_stats(address)
    peak_rss_mb = server.vmhwm_mb()

    delta = stats_delta(before, after)
    return _result(run, setups, phases, factors, opened, delta, peak_rss_mb)


def _result(run, setups, phases, factors, opened, delta, peak_rss_mb) -> dict[str, Any]:
    spec = run.spec
    json_phases, alt_phases = phases[0::2], phases[1::2]
    # Throughput and closed-loop latency are CPU-bound (the server is
    # saturated, so a request waits for the ones queued before it) and
    # scaled to reference speed.  Open-loop latency is not: at these
    # loads it is mostly wake-ups and the 10 ms batch window, which move
    # with the host's load, not the program's speed.
    json_ops = [p.ops_per_s / f for p, f in zip(json_phases, factors[0::2])]
    alt_ops = [p.ops_per_s / f for p, f in zip(alt_phases, factors[1::2])]
    # Each round's quantile is the median over its windows of
    # CLOSED_WINDOW requests (~10 ms hot), so a descheduling stall moves
    # only the few windows it hits.
    json_p50 = [loadgen.windowed(p.latencies_s, 0.50, CLOSED_WINDOW) * 1e3 * f
                for p, f in zip(json_phases, factors[0::2])]
    json_p90 = [loadgen.windowed(p.latencies_s, 0.90, CLOSED_WINDOW) * 1e3 * f
                for p, f in zip(json_phases, factors[0::2])]
    if alt_phases[0].wire != "binary1":
        run.notes.append("binary1 declined; alt_ops_per_s ran on JSON-lines")
    failed = sum(p.failed + p.missing for p in phases)
    attempted = sum(p.sent for p in phases) + opened.sent

    # The open loop, per window of 1000 requests: its limit, and whether
    # it delivered the offered rate.
    open_p50 = loadgen.windowed(opened.latencies_s, 0.50) * 1e3
    open_p90 = loadgen.windowed(opened.latencies_s, 0.90) * 1e3
    p99 = loadgen.windowed(opened.latencies_s, 0.99) * 1e3
    failed += opened.failed + opened.missing
    if p99 > spec.p99_limit_ms:
        over = sum(1 for x in opened.latencies_s if x * 1e3 > spec.p99_limit_ms)
        failed += over
        run.notes.append(f"open loop broke its p99 limit: {p99:.2f} ms > {spec.p99_limit_ms} ms")
    delivered = opened.completed_in_window / (spec.open_rate * opened.seconds)
    if delivered < 0.95:
        failed += opened.sent - opened.completed_in_window
        run.notes.append(f"open loop delivered {delivered:.1%} of the offered rate")

    # Is the generator, not the server, what these numbers describe?
    client_bound, cpu, lag_p99_ms = loadgen.client_bound(
        phases + [opened], spec.p99_limit_ms
    )
    if client_bound:
        failed = attempted
        run.notes.append(
            f"client_bound: generator cpu {cpu:.2f} of a core, "
            f"open-loop lag p99 {lag_p99_ms:.2f} ms — numbers unusable"
        )

    # Served-class sanity over the timed phases.
    if run.hot and delta["computed"] != 0:
        failed += delta["computed"]
        run.notes.append(f"serve-hot computed {delta['computed']} units in timed phases")
    if not run.hot:
        if delta["hot_hits"] != 0:
            failed += delta["hot_hits"]
            run.notes.append(f"serve-cold had {delta['hot_hits']} hot hits")
        failed += run.cold_check.verify_sample()
    if run.oracle.wrong:
        run.notes.append(f"wrong values: {run.oracle.wrong[:5]}")

    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(json_ops),
        "alt_ops_per_s": statistics.median(alt_ops),
        "p50_ms": statistics.median(json_p50),
        "p90_ms": statistics.median(json_p90),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "samples": {"setup_s": len(setups), "ops_per_s": len(json_phases),
                    "alt_ops_per_s": len(alt_phases),
                    "p50_ms": len(json_phases), "p90_ms": len(json_phases)},
        "raw": {"ops_per_s": statistics.median(p.ops_per_s for p in json_phases),
                "alt_ops_per_s": statistics.median(p.ops_per_s for p in alt_phases),
                "p50_ms": statistics.median(
                    loadgen.windowed(p.latencies_s, 0.50, CLOSED_WINDOW) * 1e3
                    for p in json_phases),
                "p90_ms": statistics.median(
                    loadgen.windowed(p.latencies_s, 0.90, CLOSED_WINDOW) * 1e3
                    for p in json_phases)},
        "open_loop": {"rate": spec.open_rate, "requests": len(opened.latencies_s),
                      "p50_ms": open_p50, "p90_ms": open_p90, "p99_ms": p99,
                      "p99_limit_ms": spec.p99_limit_ms},
        "speed_factor": statistics.median(factors),
        "alt_wire": alt_phases[0].wire,
        "loadgen_cpu_fraction": cpu,
        "loadgen_lag_p99_ms": lag_p99_ms,
        "client_bound": client_bound,
        "stats_delta": delta,
        "notes": run.notes,
    }
    return {"attempted": attempted, "failed": failed,
            "correct": not run.oracle.wrong, "metrics": metrics, "info": info}

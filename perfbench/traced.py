"""Traced runs: the per-layer breakdown of each workload.

A traced run first repeats the workload untraced for a quarter of its
time, then installs wrappers around the public functions of each layer
(see ``spans.py``) and repeats it for the rest.  Per-layer figures come
from the traced part; ``trace.overhead_ratio`` is the traced pass wall
over the untraced one.  Wrapping must not change a single output byte,
so every traced output is checked against the untraced one.

A per-layer metric that the workload does not exercise reads 0.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import campaign as campaign_mod
import loadgen
import serve as serve_mod
from loadgen import Link
from spans import Tracer

#: Collective entry points counted by name; the rest count as "other".
NAMED_COLLECTIVES = ("allgather", "allreduce", "bcast")
#: Study methods whose spans partition ``run_all``.
STUDY_PARTS = ("figure3", "figure4", "figure6", "headline_hpl", "figure7")

NOTE_ROUTER = (
    "serve.router.hop_us and serve.client.direct_us move no end-to-end "
    "metric on a 2-core machine: router and cluster-scaling claims wait "
    "for a machine with more cores than processes"
)
NOTE_ENGINE = (
    "sim.engine.run_self_s is Engine.run minus its wrapped children, so it "
    "includes MPI matching and the application generator bodies"
)


# -- campaign layers ----------------------------------------------------------

def install_campaign(tracer: Tracer) -> None:
    from repro.apps import APPLICATIONS
    from repro.cluster.cluster import ClusterNetwork
    from repro.core.study import MobileSoCStudy
    from repro.mpi import api, collectives
    from repro.sim.engine import Engine
    from repro.timing.executor import SimulatedExecutor
    from repro.timing.measurement import PowerMeter

    for part in STUDY_PARTS + ("run_all",):
        tracer.wrap(MobileSoCStudy, part, f"core.study.{part}")
    for app in APPLICATIONS.values():
        cls = type(app)
        if "simulate" in cls.__dict__:
            tracer.wrap(cls, "simulate", f"apps.{app.name.lower()}.simulate",
                        tag=lambda a, kw, r: a[2] if len(a) > 2 else kw.get("n_nodes"))
    tracer.wrap(api.MPIWorld, "run", "mpi.world.run",
                tag=lambda a, kw, r: (r.total_messages, r.total_bytes) if r else None)
    tracer.wrap(api.RankContext, "isend", "mpi.isend")
    tracer.wrap(api, "payload_nbytes", "mpi.payload_nbytes")
    tracer.wrap(ClusterNetwork, "transfer_time_s", "cluster.network.transfer_time")
    tracer.wrap(ClusterNetwork, "sender_occupancy_s", "cluster.network.sender_occupancy")
    tracer.wrap(Engine, "run", "sim.engine.run")
    tracer.wrap(Engine, "process", "sim.engine.process", count_only=True)
    tracer.wrap(Engine, "timeout", "sim.engine.timeout", count_only=True)
    tracer.wrap(SimulatedExecutor, "time_kernel_batch", "timing.executor.time_kernel_batch")
    tracer.wrap(PowerMeter, "integrate_batch", "timing.measurement.integrate_batch")
    # Collectives are generator functions imported by name into the
    # application modules: count calls wherever a module holds one.
    originals = {
        getattr(collectives, n): n for n in dir(collectives)
        if not n.startswith("_") and callable(getattr(collectives, n))
        and getattr(getattr(collectives, n), "__module__", "") == collectives.__name__
    }
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro.") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            name = originals.get(value) if callable(value) else None
            if name is not None:
                label = name if name in NAMED_COLLECTIVES else "other"
                tracer.wrap(module, attr, f"mpi.collectives.{label}", count_only=True)


def campaign_layers(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-campaign figures from a tracer that watched ``passes``."""
    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s
    per = lambda d, k: d.get(k, 0) / passes  # noqa: E731
    out: dict[str, float] = {}
    for part in STUDY_PARTS:
        out[f"core.study.{part}_s"] = per(total, f"core.study.{part}")
    out["core.study.other_s"] = per(self_s, "core.study.run_all")
    sims = [k for k in calls if k.startswith("apps.")]
    for k in sims:
        out[f"{k}_s"] = per(total, k)
    out["apps.simulate_calls"] = sum(calls[k] for k in sims) / passes
    pepc96 = [s.end - s.start for s in tracer.spans
              if s.name == "apps.pepc.simulate" and s.tag == 96]
    if pepc96:
        out["apps.pepc.simulate_n96_s"] = statistics.median(pepc96)
    world = [s.tag for s in tracer.spans if s.name == "mpi.world.run" and s.tag]
    out["mpi.world.runs"] = per(calls, "mpi.world.run")
    out["mpi.world.run_s"] = per(total, "mpi.world.run")
    out["mpi.messages"] = sum(m for m, _ in world) / passes
    out["mpi.bytes"] = sum(b for _, b in world) / passes
    for short, name in (("isend", "mpi.isend"), ("payload_nbytes", "mpi.payload_nbytes")):
        out[f"mpi.{short}_calls"] = per(calls, name)
        out[f"mpi.{short}_s"] = per(total, name)
    for label in NAMED_COLLECTIVES + ("other",):
        out[f"mpi.collectives.{label}_calls"] = per(calls, f"mpi.collectives.{label}")
    for short in ("transfer_time", "sender_occupancy"):
        out[f"cluster.network.{short}_calls"] = per(calls, f"cluster.network.{short}")
        out[f"cluster.network.{short}_s"] = per(total, f"cluster.network.{short}")
    out["sim.engine.runs"] = per(calls, "sim.engine.run")
    out["sim.engine.processes"] = per(calls, "sim.engine.process")
    out["sim.engine.timeouts"] = per(calls, "sim.engine.timeout")
    out["sim.engine.run_self_s"] = per(self_s, "sim.engine.run")
    out["timing.executor.time_kernel_batch_calls"] = per(calls, "timing.executor.time_kernel_batch")
    out["timing.executor.time_kernel_batch_s"] = per(total, "timing.executor.time_kernel_batch")
    out["timing.measurement.integrate_batch_s"] = per(total, "timing.measurement.integrate_batch")
    return out


def install_parallel(tracer: Tracer) -> None:
    from repro.parallel import runner
    from repro.parallel.cache import ResultCache

    tracer.wrap(runner, "run_units", "parallel.runner.run_units")
    if hasattr(runner, "_merge_campaign"):
        tracer.wrap(runner, "_merge_campaign", "parallel.runner.merge")
    tracer.wrap(ResultCache, "put", "parallel.cache.put")
    tracer.wrap(ResultCache, "get_many", "parallel.cache.get_many")
    tracer.wrap(ResultCache, "get", "parallel.cache.get")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def unit_times(seed: int) -> list[tuple[str, float]]:
    """Each campaign unit's serial time, run in this process."""
    from repro.cluster.cluster import tibidabo
    from repro.core.study import FIG6_QUICK_COUNTS, MobileSoCStudy
    from repro.parallel.units import campaign_units, execute_unit

    units = campaign_units(True, tibidabo(max(FIG6_QUICK_COUNTS)), MobileSoCStudy(seed))
    out = []
    for unit in units:
        t0 = time.perf_counter()
        execute_unit(unit.kind, unit.params, seed)
        out.append((unit.label(), time.perf_counter() - t0))
    return out


def campaign(workload: str, root: Path, work: Path, seed: int, seconds: float,
             out_root: Path) -> dict[str, Any]:
    """Traced run of a campaign workload."""
    expected = campaign_mod.reference(root, seed)
    untraced = campaign_mod.Passes()
    untraced.run(seconds * 0.25, campaign_mod.pair_fn(workload, seed, work), min_passes=2)
    values: dict[str, float] = {}
    notes: list[str] = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    if workload == "campaign-serial":
        tracer = Tracer(keep={"apps.pepc.simulate", "mpi.world.run",
                              "core.study.run_all"})
        from repro.core.study import MobileSoCStudy

        def one():
            study = MobileSoCStudy(seed)
            t0 = time.perf_counter()
            out = study.run_all(quick=True)
            return time.perf_counter() - t0, 0.0, [campaign_mod.artefacts(out)]

        install_campaign(tracer)
        try:
            traced = campaign_mod.Passes()
            traced.run(seconds * 0.75, one, min_passes=2)
        finally:
            tracer.unwrap_all()
        n = len(traced.cold_s)
        values.update(campaign_layers(tracer, n))
        study_s = tracer.total_s.get("core.study.run_all", 0.0)
        values["core.study.coverage"] = study_s / sum(traced.cold_s)
        notes.append(NOTE_ENGINE)
    else:
        cold_tracer, warm_tracer = Tracer(), Tracer()
        written: list[int] = []
        hit_ratios: list[float] = []
        counter = iter(range(1 << 30))
        from repro.parallel.runner import run_campaign

        def one():
            cache_dir = work / f"traced{next(counter)}"
            install_parallel(cold_tracer)
            try:
                t0 = time.perf_counter()
                cold = run_campaign(quick=True, jobs=2, cache_dir=cache_dir, seed=seed)
                t1 = time.perf_counter()
            finally:
                cold_tracer.unwrap_all()
            written.append(_dir_bytes(cache_dir))
            install_parallel(warm_tracer)
            try:
                t2 = time.perf_counter()
                warm = run_campaign(quick=True, jobs=2, cache_dir=cache_dir, seed=seed)
                t3 = time.perf_counter()
            finally:
                warm_tracer.unwrap_all()
            hit_ratios.append(warm.cache_stats.hit_rate)
            values["parallel.units.count"] = cold.n_units
            return t1 - t0, t3 - t2, [campaign_mod.artefacts(cold.results),
                                      campaign_mod.artefacts(warm.results)]

        traced = campaign_mod.Passes()
        traced.run(seconds * 0.6, one, min_passes=2)
        n = len(traced.cold_s)
        values["parallel.runner.run_units_s"] = cold_tracer.total_s["parallel.runner.run_units"] / n
        values["parallel.cache.put_calls"] = cold_tracer.calls["parallel.cache.put"] / n
        values["parallel.cache.put_s"] = cold_tracer.total_s["parallel.cache.put"] / n
        values["parallel.cache.bytes_written"] = statistics.median(written)
        values["parallel.cache.get_many_s"] = warm_tracer.total_s["parallel.cache.get_many"] / n
        values["parallel.cache.hit_ratio"] = statistics.median(hit_ratios)
        values["parallel.runner.merge_s"] = warm_tracer.total_s.get("parallel.runner.merge", 0.0) / n
        # Unit times last: running units here warms memos that a later
        # forked pool would inherit.
        times = unit_times(seed)
        values["parallel.units.critical_s"] = max(t for _, t in times)
        values["parallel.pool.busy_fraction"] = (
            sum(t for _, t in times) / (2 * statistics.median(untraced.cold_s))
        )
        values["apps.pepc.simulate_n96_s"] = dict(times)[
            "fig6_point(app=PEPC,max_nodes=96,n=96)"
        ]
        tracer = cold_tracer
    values["trace.overhead_ratio"] = (
        statistics.median(traced.cold_s) / statistics.median(untraced.cold_s)
    )
    # No load generator here: the share of a core this process used.
    values["loadgen.cpu_fraction"] = (
        (time.process_time() - cpu0) / (time.perf_counter() - t0)
    )
    wrong = sum(out != expected for out in untraced.outputs + traced.outputs)
    if wrong:
        notes.append(f"{wrong} campaign output(s) differ from the reference")
    tracer.write(out_root / f"trace-{workload}-seed{seed}.json")
    return {
        "attempted": len(untraced.outputs) + len(traced.outputs),
        "failed": wrong, "correct": wrong == 0,
        "metrics": values,
        "info": {"traced_passes": len(traced.cold_s),
                 "untraced_passes": len(untraced.cold_s), "notes": notes},
    }


# -- serve layers ---------------------------------------------------------------

def _p50_us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6


async def _frontend(run, cache_dir: Path):
    from repro.serve.frontend import CampaignFrontEnd, ServeConfig

    fe = CampaignFrontEnd(ServeConfig(jobs=run.spec.jobs, cache_dir=cache_dir, seed=run.seed))
    await fe.start()
    return fe


async def _submit_loop(fe, run, stream, n: int) -> tuple[list[float], int]:
    """Sequential in-process submits; per-call seconds and wrong count."""
    times, wrong = [], 0
    for _ in range(n):
        k = stream()
        t0 = time.perf_counter()
        value, _served = await fe.submit(run.keys.kinds[k], run.keys.params[k])
        times.append(time.perf_counter() - t0)
        wrong += value != run.oracle.value(k)
    return times, wrong


def codec_times(run, stream, n: int) -> tuple[list[float], list[float]]:
    """JSON and binary1 encode+decode of the request and response docs."""
    codec = run.codec
    json_t, bin_t = [], []
    for i in range(n):
        k = stream()
        req = {"id": i, "op": "query", "kind": run.keys.kinds[k],
               "params": run.keys.params[k]}
        resp = {"id": i, "ok": True, "value": run.oracle.value(k),
                "served": "cache", "latency_s": 1e-4}
        t0 = time.perf_counter()
        json.loads(json.dumps(req, sort_keys=True))
        json.loads(json.dumps(resp, sort_keys=True))
        t1 = time.perf_counter()
        if codec is not None:
            codec.decode_value(codec.encode_value(req))
            codec.decode_value(codec.encode_value(resp))
        t2 = time.perf_counter()
        json_t.append(t1 - t0)
        bin_t.append(t2 - t1)
    return json_t, bin_t


#: The "low fixed rate" of the round-trip ladder steps, req/s.
RTT_RATE = 200.0


async def rtt_us(run, address, offer_binary: bool, seconds: float) -> float:
    """p50 round trip at a low fixed rate on one link.  Error replies
    and missing ones are recorded as wrong values."""
    link = await Link.open(*address, run.keys, offer_binary=offer_binary)
    try:
        phase = await loadgen.open_loop([link], run.stream(f"rtt{offer_binary}"),
                                        RTT_RATE, seconds, run.check)
    finally:
        await link.close()
    if phase.failed or phase.missing:
        run.oracle.wrong.append(
            f"rtt: {phase.failed} failed, {phase.missing} missing")
    return _p50_us(phase.latencies_s)


async def _cluster_rtts(run, seconds: float) -> tuple[float, float]:
    """p50 RTT through ``cluster-serve --backends 1`` and through a
    ``RingClient`` that goes straight to the backend."""
    from repro.serve.client import RingClient

    cluster = serve_mod.ServerProc(
        run.root, run.work / "cluster", run.seed,
        extra=("cluster-serve", "--backends", "1", "--jobs", "1"),
    )
    run.servers.append(cluster)
    address = cluster.wait_ready()
    link = await Link.open(*address, run.keys)
    try:
        await loadgen.closed_loop([link], itertools.cycle(range(len(run.keys))).__next__,
                                  4, 0.3, run.check)
    finally:
        await link.close()
    router_us = await rtt_us(run, address, False, seconds)
    client = RingClient(*address)
    await client.connect()
    stream = run.stream("direct")
    times = []
    try:
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            k = stream()
            t0 = time.perf_counter()
            doc = await client.query(run.keys.kinds[k], run.keys.params[k])
            times.append(time.perf_counter() - t0)
            if not doc.get("ok") or doc.get("value") != run.oracle.value(k):
                run.oracle.wrong.append(f"direct {run.keys.params[k]}")
            await asyncio.sleep(1 / RTT_RATE)
    finally:
        await client.close()
    return router_us, _p50_us(times)


async def _server_phases(run, seconds: float) -> tuple[dict, dict, list]:
    """One set-up, then one closed-loop round per wire and an open loop,
    with the server's stats read around them."""
    spec = run.spec
    server, _setup = await run.start_server(0)
    address = server.address
    before = await serve_mod.server_stats(address)
    phases = []
    for offer in (False, True):
        links = await run.links(address, offer)
        phases.append(await loadgen.closed_loop(
            links, run.stream(f"closed{offer}"), spec.depth, seconds * 0.2, run.check))
        if offer:
            for link in links:
                await link.close()
        else:
            json_links = links
    opened = await loadgen.open_loop(json_links, run.stream("open"), spec.open_rate,
                                     seconds * 0.6, run.check)
    for link in json_links:
        await link.close()
    after = await serve_mod.server_stats(address)
    return serve_mod.stats_delta(before, after), address, phases + [opened]


async def serve(spec, root: Path, work: Path, seed: int, seconds: float,
                out_root: Path) -> dict[str, Any]:
    """Traced run of a serve workload."""
    run = serve_mod.Run(spec, root, work, seed)
    try:
        return await _serve(run, seconds, out_root)
    finally:
        await run.stop_all()


async def _serve(run, seconds: float, out_root: Path) -> dict[str, Any]:
    values: dict[str, float] = {}
    notes: list[str] = []
    if run.hot:
        for k in range(len(run.keys)):
            run.oracle.value(k)
    delta, address, phases = await _server_phases(run, seconds * 0.5)
    for name in ("hot_hits", "cache_hits", "coalesced", "computed", "rejected",
                 "batches", "mean_batch_size", "hit_ratio"):
        values[f"serve.stats.{name}"] = delta[name]
    values["loadgen.cpu_fraction"] = max(p.cpu_fraction for p in phases)
    values["loadgen.lag_p99_ms"] = loadgen.quantile(phases[-1].lateness_s, 0.99) * 1e3
    failed = sum(p.failed + p.missing for p in phases)
    attempted = sum(p.sent for p in phases)

    tracer = Tracer(keep={"serve.frontend.submit", "parallel.runner.run_units",
                          "parallel.cache.get", "parallel.cache.put"})
    fe = await _frontend(run, run.work / "inproc-cache")
    try:
        if run.hot:
            warm, wrong = await _submit_loop(fe, run, iter(range(len(run.keys))).__next__,
                                             len(run.keys))
            n = 2000
            plain, wrong_u = await _submit_loop(fe, run, run.stream("inproc"), n)
            from repro.serve.frontend import CampaignFrontEnd

            tracer.wrap(CampaignFrontEnd, "submit", "serve.frontend.submit")
            try:
                traced_t, wrong_t = await _submit_loop(fe, run, run.stream("inproc"), n)
            finally:
                tracer.unwrap_all()
            failed += wrong + wrong_u + wrong_t
            attempted += len(run.keys) + 2 * n
            values["serve.frontend.submit_us"] = _p50_us(plain)
            values["trace.overhead_ratio"] = sum(traced_t) / sum(plain)
            json_t, bin_t = codec_times(run, run.stream("codec"), n)
            values["serve.wire.json_codec_us"] = _p50_us(json_t)
            values["serve.wire.binary_codec_us"] = _p50_us(bin_t)
            rtt_s = seconds * 0.08
            values["serve.server.json_rtt_us"] = await rtt_us(run, address, False, rtt_s)
            values["serve.server.binary_rtt_us"] = await rtt_us(run, address, True, rtt_s)
            values["serve.server.loop_us"] = (
                values["serve.server.json_rtt_us"]
                - values["serve.wire.json_codec_us"] - values["serve.frontend.submit_us"]
            )
            router_us, direct_us = await _cluster_rtts(run, rtt_s)
            values["serve.router.hop_us"] = router_us - values["serve.server.json_rtt_us"]
            values["serve.client.direct_us"] = direct_us
            notes.append(NOTE_ROUTER)
        else:
            values.update(await _cold_frontend(run, fe, tracer, seconds * 0.4))
    finally:
        await fe.drain()
    if run.oracle.wrong:
        notes.append(f"wrong values: {run.oracle.wrong[:5]}")
        failed += len(run.oracle.wrong)
    tracer.write(out_root / f"trace-{run.spec.name}-seed{run.seed}.json")
    return {"attempted": attempted, "failed": failed, "correct": not run.oracle.wrong,
            "metrics": values, "info": {"notes": notes}}


async def _cold_frontend(run, fe, tracer: Tracer, seconds: float) -> dict[str, float]:
    """Cold keys into an in-process front end, with the unit runner and
    the cache wrapped; half the time untraced, half traced."""
    from repro.parallel import runner
    from repro.parallel.cache import ResultCache
    from repro.serve.frontend import CampaignFrontEnd

    concurrency = run.spec.depth * serve_mod.LINKS
    sampled: list[tuple[int, Any]] = []

    async def drive(stream, budget_s):
        latencies: list[tuple[int, float]] = []
        t_end = time.perf_counter() + budget_s

        async def worker():
            while time.perf_counter() < t_end:
                k = stream()
                t0 = time.perf_counter()
                value, _ = await fe.submit(run.keys.kinds[k], run.keys.params[k])
                latencies.append((k, time.perf_counter() - t0))
                if value.get("freq_ghz") != run.keys.params[k]["freq"]:
                    run.oracle.wrong.append(f"inproc {run.keys.params[k]}")
                if k % serve_mod.ColdCheck.SAMPLE_EVERY == 0:
                    sampled.append((k, value))

        t0 = time.perf_counter()
        await asyncio.gather(*(worker() for _ in range(concurrency)))
        return latencies, time.perf_counter() - t0

    plain, wall_u = await drive(run.stream("inproc-u"), seconds / 2)

    def batch_tag(args, kwargs, result):
        return [json.dumps([u.kind, u.params], sort_keys=True) for u in args[0]]

    tracer.wrap(runner, "run_units", "parallel.runner.run_units", tag=batch_tag)
    tracer.wrap(ResultCache, "get", "parallel.cache.get")
    tracer.wrap(ResultCache, "put", "parallel.cache.put")
    tracer.wrap(CampaignFrontEnd, "submit", "serve.frontend.submit")
    try:
        traced, wall_t = await drive(run.stream("inproc-t"), seconds / 2)
    finally:
        tracer.unwrap_all()
    batches = [s for s in tracer.spans if s.name == "parallel.runner.run_units"]
    batch_of = {}
    for s in batches:
        for key in s.tag:
            batch_of[key] = s.end - s.start
    waits = []
    for k, latency in traced:
        key = json.dumps([run.keys.kinds[k], run.keys.params[k]], sort_keys=True)
        if key in batch_of:
            waits.append(latency - batch_of[key])
    for k, value in sampled:
        if value != run.oracle.value(k):
            run.oracle.wrong.append(f"inproc {run.keys.params[k]}")
    return {
        "serve.frontend.queue_wait_ms": statistics.median(waits) * 1e3,
        "serve.frontend.batch_ms": statistics.median(s.end - s.start for s in batches) * 1e3,
        "serve.frontend.batch_size": sum(len(s.tag) for s in batches) / len(batches),
        "serve.cache.get_us": _p50_us(tracer.durations("parallel.cache.get")),
        "serve.cache.put_us": _p50_us(tracer.durations("parallel.cache.put")),
        "trace.overhead_ratio": (wall_t / len(traced)) / (wall_u / len(plain)),
    }

"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import pytest

import campaign
import loadgen
import serve
import traced
from loadgen import Keys, Link, Reply
from spans import Tracer


# -- self time ---------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Tree:
    """root(10) -> a(4) -> c(1);  root -> b(3);  root self 3, a self 3."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def root(self):
        self.clock.now += 1
        self.a()
        self.clock.now += 1
        self.b()
        self.clock.now += 1

    def a(self):
        self.clock.now += 2
        self.c()
        self.clock.now += 1

    def b(self):
        self.clock.now += 3

    def c(self):
        self.clock.now += 1


def test_self_time_on_a_synthetic_tree():
    clock = FakeClock()
    tracer = Tracer(keep={"root", "a", "b", "c"}, clock=clock)
    for name in ("root", "a", "b", "c"):
        tracer.wrap(Tree, name, name)
    try:
        Tree(clock).root()
        Tree(clock).root()
    finally:
        tracer.unwrap_all()
    assert tracer.total_s == {"root": 20.0, "a": 8.0, "b": 6.0, "c": 2.0}
    assert tracer.self_s == {"root": 6.0, "a": 6.0, "b": 6.0, "c": 2.0}
    assert tracer.calls == {"root": 2, "a": 2, "b": 2, "c": 2}
    spans = {s.span_id: s for s in tracer.spans}
    for s in tracer.spans:
        parent = spans.get(s.parent)
        expected = {"root": None, "a": "root", "b": "root", "c": "a"}[s.name]
        assert (parent.name if parent else None) == expected
    assert not hasattr(Tree.root, "__wrapped__")  # unwrapped again


# -- wrappers are transparent ---------------------------------------------------

def test_traced_campaign_is_byte_identical():
    from repro.core.study import MobileSoCStudy

    plain = campaign.artefacts(MobileSoCStudy(0).run_all(quick=True))
    tracer = Tracer()
    traced.install_campaign(tracer)
    try:
        wrapped = campaign.artefacts(MobileSoCStudy(0).run_all(quick=True))
    finally:
        tracer.unwrap_all()
    assert wrapped == plain
    assert tracer.calls["core.study.run_all"] == 1
    assert tracer.calls["sim.engine.run"] > 0
    assert tracer.calls["mpi.collectives.allreduce"] > 0


def test_traced_serve_values_equal_untraced(tmp_path):
    from repro.parallel import runner
    from repro.parallel.cache import ResultCache
    from repro.serve.frontend import CampaignFrontEnd, ServeConfig

    keys = Keys()
    stream = serve.ColdStream(keys, 7, "t")
    picks = [stream() for _ in range(6)]
    picks.append(picks[0])  # a duplicate in flight coalesces

    async def values(cache_dir, tracer=None):
        fe = CampaignFrontEnd(ServeConfig(jobs=1, cache_dir=cache_dir, seed=0))
        await fe.start()
        if tracer is not None:
            tracer.wrap(runner, "run_units", "run_units")
            tracer.wrap(ResultCache, "get", "get")
            tracer.wrap(ResultCache, "put", "put")
            tracer.wrap(CampaignFrontEnd, "submit", "submit")
        try:
            return await asyncio.gather(
                *(fe.submit(keys.kinds[k], keys.params[k]) for k in picks)
            )
        finally:
            if tracer is not None:
                tracer.unwrap_all()
            await fe.drain()

    tracer = Tracer()
    plain = asyncio.run(values(tmp_path / "plain"))
    wrapped = asyncio.run(values(tmp_path / "traced", tracer))
    assert [v for v, _ in wrapped] == [v for v, _ in plain]
    assert tracer.calls["submit"] == len(picks)
    assert tracer.calls["run_units"] >= 1


# -- client_bound -----------------------------------------------------------------

async def _echo_server():
    async def handle(reader, writer):
        while line := await reader.readline():
            rid = json.loads(line)["id"]
            writer.write(
                json.dumps({"id": rid, "ok": True, "value": 1}, sort_keys=True).encode()
                + b"\n"
            )
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _open_loop(check) -> loadgen.PhaseResult:
    async def main():
        server = await _echo_server()
        keys = Keys()
        keys.add("sweep_base", {})
        link = await Link.open("127.0.0.1", server.sockets[0].getsockname()[1], keys)
        try:
            return await loadgen.open_loop([link], lambda: 0, 400.0, 1.0, check)
        finally:
            await link.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_client_bound_trips_when_the_generator_is_throttled():
    limit_ms = 100.0
    easy = _open_loop(lambda k, reply: True)
    assert easy.failed == 0 and easy.missing == 0
    assert not loadgen.client_bound([easy], limit_ms)[0]

    def throttled(k, reply):
        t_end = time.perf_counter() + 0.005   # 5 ms of CPU per reply
        while time.perf_counter() < t_end:
            pass
        return True

    slow = _open_loop(throttled)
    bound, cpu, lag_ms = loadgen.client_bound([slow], limit_ms)
    assert bound
    assert cpu >= loadgen.CPU_BOUND_FRACTION or lag_ms > limit_ms


def test_fixed_count_closed_loop_times_its_requests():
    async def main():
        server = await _echo_server()
        keys = Keys()
        keys.add("sweep_base", {})
        link = await Link.open("127.0.0.1", server.sockets[0].getsockname()[1], keys)
        try:
            t0 = time.perf_counter()
            phase = await loadgen.closed_loop([link], lambda: 0, 4, 0,
                                              lambda k, reply: True, total=300)
            return phase, time.perf_counter() - t0
        finally:
            await link.close()
            server.close()
            await server.wait_closed()

    phase, wall = asyncio.run(main())
    assert phase.sent == phase.completed_in_window == 300
    assert phase.failed == 0 and phase.missing == 0
    assert len(phase.latencies_s) == 300
    assert 0 < phase.seconds <= wall
    assert phase.ops_per_s == 300 / phase.seconds


# -- the correctness checks -----------------------------------------------------------

def test_one_corrupted_value_fails_the_check():
    keys = Keys()
    for kind, params in serve.sweep_keys():
        keys.add(kind, params)
    oracle = serve.Oracle(keys, 0)
    k = 7
    value = oracle.value(k)
    doc = {"id": 1, "latency_s": 1e-4, "ok": True, "served": "cache", "value": value}
    good = json.dumps(doc, sort_keys=True).encode()
    assert oracle.exact(k, Reply(line=good), None)
    bad_value = dict(value, speedup=value["speedup"] * (1 + 1e-12))
    bad = json.dumps(dict(doc, value=bad_value), sort_keys=True).encode()
    assert not oracle.exact(k, Reply(line=bad), None)
    assert len(oracle.wrong) == 1

    codec = loadgen._binary_codec()
    if codec is not None:
        assert oracle.exact(k, Reply(blob=codec.encode_value(value), codec=codec), codec)
        assert not oracle.exact(
            k, Reply(blob=codec.encode_value(bad_value), codec=codec), codec
        )


def test_one_corrupted_campaign_value_differs_from_the_goldens():
    root = Path(traced.__file__).resolve().parent.parent
    goldens = campaign.golden_artefacts(root)
    results = {key: json.loads(text) for key, text in goldens.items()}
    results["figure6"] = {  # node counts are int keys in the campaign
        app: {int(n): v for n, v in points.items()}
        for app, points in results["figure6"].items()
    }
    assert campaign.artefacts(results) == goldens
    results["figure6"]["PEPC"][96] *= 1 + 1e-12
    assert campaign.artefacts(results) != goldens


@pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.9, 0.99])
def test_quantile_matches_statistics(q):
    import statistics

    values = [((i * 37) % 101) / 7 for i in range(101)]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert loadgen.quantile(values, q) == pytest.approx(cuts[round(q * 100) - 1])

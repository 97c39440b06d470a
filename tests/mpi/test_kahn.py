"""The event-free runner: ``run_model(world, prog)`` == ``world.run(prog)``.

Every test compares against the discrete-event engine on a fresh world
with the same program: the makespan, every rank's result and every
rank's stats must be equal (``MPIRunResult`` equality, never approx),
or both paths must raise the same error.  The fallback cases also check
that the engine really ran, so each trigger is exercised.
"""

from __future__ import annotations

import operator
import random

import pytest

from repro.apps import APPLICATIONS
from repro.apps.hpl import (
    HPLConfig,
    _model_rank,
    _model_rank_lookahead,
    _model_schedule,
)
from repro.cluster.cluster import tibidabo
from repro.mpi.api import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    MPIWorld,
    RecvTimeout,
    SyntheticPayload,
    UniformNetwork,
)
from repro.mpi.collectives import (
    allgather,
    allreduce,
    alltoall,
    barrier,
    bcast,
    reduce,
    scan,
)
from repro.mpi.kahn import run_model
from repro.net.protocol import OPEN_MX, TCP_IP, ProtocolStack
from repro.obs.messages import traced_world


def uniform(n, proto=TCP_IP):
    stack = ProtocolStack(proto, core_name="Cortex-A9", freq_ghz=1.0)
    return MPIWorld(n, UniformNetwork(stack))


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts ``MPIWorld.run`` calls made after the fixture is set up."""
    calls = []
    original = MPIWorld.run

    def counting(self, *args, **kwargs):
        calls.append(self.size)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MPIWorld, "run", counting)
    return calls


def _keep(a, _b):
    return a


COLLECTIVE_MIX = (
    lambda ctx, size, root: bcast(ctx, SyntheticPayload(size), root=root),
    lambda ctx, size, root: reduce(
        ctx, SyntheticPayload(size), op=_keep, root=root
    ),
    lambda ctx, size, root: allreduce(ctx, float(ctx.rank), op=operator.add),
    lambda ctx, size, root: allgather(ctx, SyntheticPayload(size)),
    lambda ctx, size, root: barrier(ctx),
    lambda ctx, size, root: alltoall(
        ctx, [SyntheticPayload(size + d) for d in range(ctx.size)]
    ),
    lambda ctx, size, root: scan(ctx, float(ctx.rank + 1), op=operator.add),
)


def _mix_program(ops, skew):
    def prog(ctx):
        yield ctx.compute(skew[ctx.rank])
        out = []
        for which, size, root in ops:
            out.append((yield from COLLECTIVE_MIX[which](ctx, size, root)))
        return out, ctx.now

    return prog


class TestFastPath:
    def test_point_to_point_ring(self, engine_runs):
        def prog(ctx):
            right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
            for step in range(3):
                yield ctx.compute_flops(1e6 * (ctx.rank + 1))
                got = yield from ctx.sendrecv(
                    right, SyntheticPayload(100 * step), src=left,
                    send_tag=step, recv_tag=step,
                )
                msgs = yield from ctx.exchange(
                    [(left, float(step), 9)], [(right, 9)]
                )
            return got.payload, msgs[0], ctx.now

        want = uniform(5).run(prog)
        engine_runs.clear()
        assert run_model(uniform(5), prog) == want
        assert engine_runs == []

    def test_unreceived_message_sets_the_makespan(self, engine_runs):
        """The engine drains every delivery, received or not."""

        def prog(ctx):
            if ctx.rank == 0:
                ctx.isend(1, SyntheticPayload(1 << 16))
            yield ctx.compute(1e-6)
            return ctx.now

        want = uniform(2).run(prog)
        assert want.makespan_s > max(want.results)
        engine_runs.clear()
        assert run_model(uniform(2), prog) == want
        assert engine_runs == []

    def test_every_collective_without_engine(self, engine_runs):
        ops = [(which, 4096, 2) for which in range(len(COLLECTIVE_MIX))]
        prog = _mix_program(ops, [0.0, 1e-4, 0.0, 3e-3, 0.0, 1e-6, 0.0])
        want = uniform(7, OPEN_MX).run(prog)
        engine_runs.clear()
        assert run_model(uniform(7, OPEN_MX), prog) == want
        assert engine_runs == []

    def test_figure6_apps_never_touch_the_engine(self, monkeypatch):
        def no_engine(self, *args, **kwargs):
            raise AssertionError("fell back to MPIWorld.run")

        monkeypatch.setattr(MPIWorld, "run", no_engine)
        for name in ("PEPC", "GROMACS", "HYDRO", "SPECFEM3D"):
            app = APPLICATIONS[name]
            n = max(4, app.min_nodes(tibidabo(24)))
            assert app.simulate(tibidabo(n), n).time_s > 0


class TestFallbackContract:
    """Each trigger reruns on the engine: same result, or same error."""

    def _same(self, make_world, prog, engine_runs, *args):
        want = make_world().run(prog, *args)
        engine_runs.clear()
        assert run_model(make_world(), prog, *args) == want
        assert engine_runs, "expected the program to fall back"
        return want

    def test_wildcard_source(self, engine_runs):
        def prog(ctx):
            if ctx.rank:
                yield ctx.compute(ctx.rank * 1e-3)
                yield from ctx.send(0, SyntheticPayload(64), tag=4)
                return None
            first = yield from ctx.recv(ANY_SOURCE, 4)
            second = yield from ctx.recv(ANY_SOURCE, 4)
            return first.src, second.src

        want = self._same(lambda: uniform(3), prog, engine_runs)
        assert want.results[0] == (1, 2)

    def test_wildcard_tag(self, engine_runs):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 1.0, tag=5)
                return None
            msg = yield from ctx.recv(0, ANY_TAG)
            return msg.tag

        self._same(lambda: uniform(2), prog, engine_runs)

    def test_timed_receive(self, engine_runs):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.compute(2e-3)
                yield from ctx.send(1, 1.0)
                yield from ctx.send(1, 2.0)
                return None
            timed_out = False
            try:
                yield from ctx.recv(0, 0, timeout=1e-3)
            except RecvTimeout:
                timed_out = True
            msg = yield from ctx.recv(0, 0)
            return timed_out, msg.payload, ctx.now

        want = self._same(lambda: uniform(2), prog, engine_runs)
        assert want.results[1][:2] == (True, 1.0)

    def test_overtaking_on_one_channel(self, engine_runs):
        """A large message then a small one on the same (src, dst, tag):
        the small one arrives first and the engine matches it first."""
        big, small = 1 << 20, 8

        def prog(ctx):
            if ctx.rank == 0:
                first = ctx.isend(1, SyntheticPayload(big), tag=3)
                second = ctx.isend(1, SyntheticPayload(small), tag=3)
                yield first
                yield second
                return None
            a = yield from ctx.recv(0, 3)
            b = yield from ctx.recv(0, 3)
            return a.nbytes, b.nbytes

        want = self._same(lambda: uniform(2), prog, engine_runs)
        assert want.results[1] == (small, big)

    def test_hpl_lookahead_uses_the_engine(self, engine_runs):
        cfg = HPLConfig(n=2048, nb=128)
        self._same(
            lambda: tibidabo(6).make_world(workload="dgemm"),
            _model_rank_lookahead, engine_runs, cfg,
        )

    def test_network_priced_by_the_clock(self, engine_runs):
        """A network whose cost reads the engine clock (as a
        ``FaultyNetwork`` does) is not priced by size alone."""

        class ClockedNetwork(UniformNetwork):
            engine = None

            def transfer_time_s(self, src, dst, nbytes):
                base = super().transfer_time_s(src, dst, nbytes)
                return base + 0.5 * self.engine.now

        def make():
            net = ClockedNetwork(ProtocolStack(TCP_IP, core_name="Cortex-A9",
                                               freq_ghz=1.0))
            world = MPIWorld(2, net)
            net.engine = world.engine
            return world

        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.compute(1e-3)
                yield from ctx.send(1, SyntheticPayload(64))
                return None
            msg = yield from ctx.recv(0, 0)
            return msg.received_at

        want = self._same(make, prog, engine_runs)
        assert want.results[1] > 1e-3 * 1.5

    def test_message_tracer_sees_every_delivery(self, engine_runs):
        """``traced_world`` hooks the engine's delivery path."""
        stack = ProtocolStack(TCP_IP, core_name="Cortex-A9", freq_ghz=1.0)

        def prog(ctx):
            return (yield from allreduce(ctx, 1.0))

        want = uniform(8).run(prog)
        engine_runs.clear()
        world, tracer = traced_world(8, UniformNetwork(stack))
        assert run_model(world, prog) == want
        assert engine_runs
        assert len(tracer.records) == want.total_messages

    def test_deadlock_raises_the_engines_error(self, engine_runs):
        def prog(ctx):
            yield from ctx.send(1 - ctx.rank, SyntheticPayload(8), tag=1)
            yield from ctx.recv(1 - ctx.rank, 2)
            return None

        with pytest.raises(DeadlockError) as want:
            uniform(2).run(prog)
        engine_runs.clear()
        with pytest.raises(DeadlockError) as got:
            run_model(uniform(2), prog)
        assert engine_runs
        assert str(got.value) == str(want.value)
        assert got.value.pending == want.value.pending
        assert got.value.mailboxes == want.value.mailboxes

    def test_program_error_is_the_engines(self, engine_runs):
        def prog(ctx):
            yield ctx.compute(1e-3)
            yield ctx.compute(-1.0)

        with pytest.raises(ValueError, match="non-negative"):
            run_model(uniform(2), prog)
        assert engine_runs


@pytest.mark.parametrize("seed", range(24))
def test_random_collective_mixes_match_the_engine(seed):
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3, 4, 5, 7, 8, 12, 50))
    ops = [
        (rng.randrange(len(COLLECTIVE_MIX)),
         rng.choice((0, 8, 1000, 40_000, 300_000)),
         rng.randrange(n))
        for _ in range(rng.randint(2, 6))
    ]
    skew = [rng.choice((0.0, 1e-6, 1e-3)) for _ in range(n)]
    make = rng.choice((
        lambda: uniform(n, TCP_IP),
        lambda: uniform(n, OPEN_MX),
        lambda: tibidabo(n, open_mx=True).make_world(workload="particle"),
    ))
    prog = _mix_program(ops, skew)
    assert run_model(make(), prog) == make().run(prog)


def test_hpl_schedule_runner_and_engine_agree_across_leaves():
    """64 nodes span two leaves: the schedule walker, the runner and the
    engine give the same makespan and per-rank stats."""
    cfg = HPLConfig(n=4096, nb=128)
    cluster = tibidabo(64)
    gflops = [float(node.achieved_gflops("dgemm")) for node in cluster.nodes]
    makespan, stats = _model_schedule(cfg, 64, cluster.network(), gflops)
    engine = cluster.make_world(workload="dgemm").run(_model_rank, cfg)
    runner = run_model(cluster.make_world(workload="dgemm"), _model_rank, cfg)
    assert runner == engine
    assert (makespan, stats) == (engine.makespan_s, engine.stats)

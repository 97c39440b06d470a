"""Point-to-point MPI simulator tests."""

import numpy as np
import pytest

from repro.mpi.api import (
    ANY_SOURCE,
    MPIWorld,
    SyntheticPayload,
    UniformNetwork,
    payload_nbytes,
)
from repro.net.nic import PCIE
from repro.net.protocol import OPEN_MX, TCP_IP, ProtocolStack


def world(n=2, proto=TCP_IP):
    stack = ProtocolStack(proto, PCIE, core_name="Cortex-A9", freq_ghz=1.0)
    return MPIWorld(n, UniformNetwork(stack))


class TestPayloadSizes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(100)) == 800

    def test_bytes(self):
        assert payload_nbytes(b"x" * 33) == 33

    def test_synthetic(self):
        assert payload_nbytes(SyntheticPayload(12345)) == 12345

    def test_scalar_and_none(self):
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(None) == 0

    def test_sequence(self):
        assert payload_nbytes([np.zeros(2), 1.0]) == 16 + 8 + 8

    def test_dict_sized_by_values(self):
        """Functional HPL gathers ``{panel: block}`` dicts: they cost
        their values plus an 8-byte key each, in a list's envelope."""
        block = np.zeros((64, 32))
        assert payload_nbytes([block]) == 16392
        assert payload_nbytes({0: block}) == 16384 + 8 + 8
        assert payload_nbytes({0: block, 3: 1.0}) == 16384 + 8 + 8 + 8 + 8
        assert payload_nbytes({}) == 8

    def test_negative_synthetic_rejected(self):
        with pytest.raises(ValueError):
            SyntheticPayload(-1)


class TestSendRecv:
    def test_array_payload_delivered_intact(self):
        w = world()
        data = np.arange(64.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, data)
                return None
            msg = yield from ctx.recv(0)
            return msg.payload

        res = w.run(prog)
        np.testing.assert_array_equal(res.results[1], data)

    def test_message_metadata(self):
        w = world()

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, b"abc", tag=7)
                return None
            msg = yield from ctx.recv(0, tag=7)
            return (msg.src, msg.tag, msg.nbytes, msg.received_at > msg.sent_at)

        res = w.run(prog)
        assert res.results[1] == (0, 7, 3, True)

    def test_fifo_ordering_same_pair(self):
        w = world()

        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield from ctx.send(1, float(i))
                return None
            got = []
            for _ in range(5):
                msg = yield from ctx.recv(0)
                got.append(msg.payload)
            return got

        res = w.run(prog)
        assert res.results[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_any_source(self):
        w = world(3)

        def prog(ctx):
            if ctx.rank in (1, 2):
                yield ctx.compute(ctx.rank * 1e-3)
                yield from ctx.send(0, ctx.rank)
                return None
            first = yield from ctx.recv(ANY_SOURCE)
            second = yield from ctx.recv(ANY_SOURCE)
            return [first.payload, second.payload]

        res = w.run(prog)
        assert res.results[0] == [1, 2]  # rank 1 sent earlier

    def test_tag_selectivity(self):
        w = world()

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, "wrong", tag=1)
                yield from ctx.send(1, "right", tag=2)
                return None
            msg = yield from ctx.recv(0, tag=2)
            other = yield from ctx.recv(0, tag=1)
            return (msg.payload, other.payload)

        res = w.run(prog)
        assert res.results[1] == ("right", "wrong")

    def test_recv_posted_before_send(self):
        w = world()

        def prog(ctx):
            if ctx.rank == 1:
                msg = yield from ctx.recv(0)
                return msg.payload
            yield ctx.compute(0.01)  # rank 1 is already waiting
            yield from ctx.send(1, "late")
            return None

        res = w.run(prog)
        assert res.results[1] == "late"

    def test_self_send(self):
        w = world()

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(0, "loop")
                msg = yield from ctx.recv(0)
                return msg.payload
            return None

        assert w.run(prog).results[0] == "loop"

    def test_exchange_runs_concurrently(self):
        """Both directions of an exchange overlap: total time ~ one
        transfer, not two."""
        stack = ProtocolStack(TCP_IP, PCIE, core_name="Cortex-A9")
        one_way = stack.transfer_time_s(8)

        def prog(ctx):
            peer = 1 - ctx.rank
            yield from ctx.exchange([(peer, 1.0, 5)], [(peer, 5)])
            return ctx.now

        res = world().run(prog)
        assert res.makespan_s < 1.7 * one_way

    def test_destination_validated(self):
        w = world()

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(5, "x")
            return None

        with pytest.raises(ValueError):
            w.run(prog)

    def test_deadlock_detected(self):
        w = world()

        def prog(ctx):
            yield from ctx.recv()  # nobody sends
            return None

        with pytest.raises(RuntimeError, match="deadlock"):
            w.run(prog)


class TestTiming:
    def test_transfer_time_matches_stack(self):
        stack = ProtocolStack(TCP_IP, PCIE, core_name="Cortex-A9")
        w = MPIWorld(2, UniformNetwork(stack))

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, b"")
                return None
            yield from ctx.recv(0)
            return ctx.now

        res = w.run(prog)
        assert res.results[1] == pytest.approx(
            stack.transfer_time_s(0), rel=1e-6
        )

    def test_openmx_faster_than_tcp(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, b"x" * 64)
                return None
            yield from ctx.recv(0)
            return ctx.now

        t_tcp = world(proto=TCP_IP).run(prog).results[1]
        t_omx = world(proto=OPEN_MX).run(prog).results[1]
        assert t_omx < t_tcp

    def test_compute_flops_uses_rank_speed(self):
        stack = ProtocolStack(TCP_IP, PCIE, core_name="Cortex-A9")
        w = MPIWorld(1, UniformNetwork(stack), rank_gflops=2.0)

        def prog(ctx):
            yield ctx.compute_flops(4e9)
            return ctx.now

        assert w.run(prog).results[0] == pytest.approx(2.0)

    def test_stats_accounting(self):
        w = world()

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.zeros(128))
                return None
            yield from ctx.recv(0)
            return None

        res = w.run(prog)
        assert res.total_messages == 1
        assert res.total_bytes == 1024
        assert res.stats[1].comm_wait_s > 0

    def test_world_validation(self):
        with pytest.raises(ValueError):
            MPIWorld(0, None)
        with pytest.raises(ValueError):
            world().contexts[0].compute(-1)

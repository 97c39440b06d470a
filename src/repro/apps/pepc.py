"""PEPC — a parallel tree code for the N-body problem (DEISA suite).

The Pretty Efficient Parallel Coulomb solver computes long-range forces
with a Barnes-Hut-style hashed oct-tree.  Its strong-scaling weakness at
small inputs (Section 4: "PEPC also shows relatively poor strong
scalability partly because the input set that we can fit on our cluster
is too small") comes from the global branch-node exchange: every rank
allgathers its tree branches each step, a cost that *grows* with rank
count while the per-rank force work shrinks.

The reference input needs at least 24 Tibidabo nodes (the paper plots
PEPC assuming linear scaling at 24).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.apps.base import Application, AppRunResult
from repro.cluster.cluster import Cluster
from repro.mpi.api import RankContext, SyntheticPayload
from repro.mpi.kahn import run_model
from repro.mpi.collectives import allgather, allreduce


@dataclass(frozen=True)
class PEPCConfig:
    """Reference problem: 90M charged particles.

    :param n_particles: particle count.
    :param bytes_per_particle: state + tree overhead per particle.
    :param flops_per_particle: force-evaluation work per particle per
        step (the tree walk visits O(log n) multipoles, each a multipole
        expansion evaluation).
    :param branch_bytes: per-rank branch-node payload of the global
        tree exchange.
    :param steps: simulated timesteps.
    """

    n_particles: float = 9.0e7
    bytes_per_particle: float = 211.0
    flops_per_particle: float = 6500.0
    branch_bytes: int = 3_000_000
    steps: int = 3

    def __post_init__(self) -> None:
        if self.n_particles <= 0 or self.steps <= 0:
            raise ValueError("particles and steps must be positive")

    @property
    def memory_bytes(self) -> float:
        return self.n_particles * self.bytes_per_particle

    @property
    def flops_per_step(self) -> float:
        return self.n_particles * self.flops_per_particle


def _pepc_rank(ctx: RankContext, cfg: PEPCConfig) -> Generator:
    p = ctx.size
    for _ in range(cfg.steps):
        # Local tree construction (~6% of the force work).
        yield ctx.compute_flops(0.06 * cfg.flops_per_step / p)
        # Global branch exchange: every rank learns every other domain's
        # top-level tree — the scaling bottleneck.
        yield from allgather(ctx, SyntheticPayload(cfg.branch_bytes))
        # Tree walk + force evaluation.
        yield ctx.compute_flops(cfg.flops_per_step / p)
        # Energy / load-balance diagnostics.
        yield from allreduce(ctx, 1.0)
    return ctx.now


class PEPC(Application):
    name = "PEPC"
    description = "Tree code for N-body problem"
    scaling = "strong"

    def __init__(self, config: PEPCConfig | None = None) -> None:
        self.config = config or PEPCConfig()

    def min_nodes(self, cluster: Cluster) -> int:
        per_node = cluster.nodes[0].usable_memory_bytes()
        return max(1, -(-int(self.config.memory_bytes) // per_node))

    def simulate(
        self, cluster: Cluster, n_nodes: int, **overrides: Any
    ) -> AppRunResult:
        cfg = (
            PEPCConfig(**{**self.config.__dict__, **overrides})
            if overrides
            else self.config
        )
        world = cluster.subcluster(n_nodes).make_world(workload="particle")
        result = run_model(world, _pepc_rank, cfg)
        wait = sum(s.comm_wait_s for s in result.stats)
        busy = sum(s.compute_s for s in result.stats)
        return AppRunResult(
            app=self.name,
            n_nodes=n_nodes,
            time_s=result.makespan_s,
            flops=cfg.flops_per_step * cfg.steps * 1.06,
            steps=cfg.steps,
            comm_fraction=wait / (wait + busy) if wait + busy else 0.0,
        )

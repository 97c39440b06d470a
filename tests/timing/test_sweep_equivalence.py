"""Sweep-equivalence suite: the vectorized sweep == the scalar oracle.

The Figure 3/4 frequency sweep evaluates as NumPy array ops over the
operating-point axis (``SimulatedExecutor.time_kernel_batch``,
``PowerMeter.integrate_batch``, ``MobileSoCStudy.sweep_points``); the
original one-point-at-a-time walk is preserved verbatim as the reference
oracle (``_sweep_point_scalar`` / ``_sweep_base_energy_scalar``, or
``REPRO_SCALAR_SWEEP=1`` process-wide).  This suite drives both paths
over randomized platform/frequency/seed grids plus the full golden
figure set and asserts **float-for-float identical** results — ``==``,
never ``approx`` — and unchanged ``.repro-cache`` keys and object
bytes.  Any drift between the two paths fails here before it can
perturb a golden figure.
"""

from __future__ import annotations

import json
import pathlib
import random

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.arch.catalog import PLATFORMS
from repro.cluster.cluster import tibidabo
from repro.core.study import FIG6_QUICK_COUNTS, MobileSoCStudy
from repro.net.nic import PCIE, USB3
from repro.net.protocol import OPEN_MX, TCP_IP, ProtocolStack
from repro.parallel import units as punits
from repro.parallel.cache import ResultCache, unit_key
from repro.timing.executor import SimulatedExecutor
from repro.timing.measurement import (
    PowerMeter,
    measure_kernel,
    measure_kernel_batch,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
GOLDENS = DATA / "goldens"

#: Fingerprint pin for key-shape tests: the real fingerprint hashes the
#: package source (any code change rotates it by design), so key
#: *stability* is asserted against a constant.
PINNED_FP = "0" * 64


def _random_freq_grid(rng: random.Random, platform) -> list[float]:
    """A randomized frequency grid: DVFS points, off-grid frequencies,
    shuffled order, and duplicates (the memo-interop case)."""
    freqs = list(platform.soc.dvfs.frequencies())
    freqs += [round(rng.uniform(0.3, 3.0), 3) for _ in range(4)]
    freqs.append(freqs[0])  # duplicate
    rng.shuffle(freqs)
    return freqs


# ---------------------------------------------------------------------------
# Executor level: time_kernel_batch == time_kernel, bit for bit.
# ---------------------------------------------------------------------------
class TestExecutorBatch:
    @pytest.mark.parametrize("case", range(6))
    def test_time_kernel_batch_matches_scalar(self, case, kernels):
        rng = random.Random(1000 + case)
        platform = rng.choice(list(PLATFORMS.values()))
        cores = rng.choice([1, platform.soc.n_cores])
        freqs = _random_freq_grid(rng, platform)
        scalar_ex = SimulatedExecutor(platform)
        batch_ex = SimulatedExecutor(platform)
        for k in kernels:
            want = [scalar_ex.time_kernel(k, f, cores=cores) for f in freqs]
            got = batch_ex.time_kernel_batch(k, freqs, cores=cores)
            assert got == want  # frozen dataclasses: all fields, exact

    def test_batch_seeds_the_scalar_memo(self, t2, kernels):
        ex = SimulatedExecutor(t2)
        k = kernels[0]
        runs = ex.time_kernel_batch(k, [0.456, 1.0], cores=1)
        # A later scalar call must return the very same frozen object.
        assert ex.time_kernel(k, 1.0, cores=1) is runs[1]

    def test_batch_serves_existing_memo_entries(self, t2, kernels):
        ex = SimulatedExecutor(t2)
        k = kernels[0]
        scalar_run = ex.time_kernel(k, 1.0, cores=2)
        runs = ex.time_kernel_batch(k, [1.0, 0.76], cores=2)
        assert runs[0] is scalar_run

    def test_batch_validates_like_scalar(self, t2, kernels):
        ex = SimulatedExecutor(t2)
        with pytest.raises(ValueError):
            ex.time_kernel_batch(kernels[0], [1.0, -0.5])
        with pytest.raises(ValueError):
            ex.time_kernel_batch(kernels[0], [1.0], cores=99)

    @pytest.mark.parametrize("case", range(4))
    def test_roofline_batch_matches_scalar(self, case, kernels):
        rng = random.Random(2000 + case)
        platform = rng.choice(list(PLATFORMS.values()))
        cores = rng.choice([1, platform.soc.n_cores])
        freqs = _random_freq_grid(rng, platform)
        ex = SimulatedExecutor(platform)
        for k in kernels:
            profile = k.profile(k.default_size())
            batch = ex.roofline_batch(freqs, cores, profile)
            assert len(batch) == len(freqs)
            for i, f in enumerate(freqs):
                scalar = ex.roofline(f, cores, profile)
                assert batch.at(i) == scalar
                assert float(batch.peak_gflops[i]) == scalar.peak_gflops
                assert (
                    float(batch.bandwidth_gbs[i]) == scalar.bandwidth_gbs
                )
                assert float(
                    batch.time_seconds(profile.flops, profile.cache_traffic)[i]
                ) == scalar.time_seconds(profile.flops, profile.cache_traffic)
                assert float(
                    batch.attainable_gflops(1.7)[i]
                ) == scalar.attainable_gflops(1.7)

    def test_effective_bandwidth_batch_matches_scalar(self, kernels):
        for platform in PLATFORMS.values():
            ex = SimulatedExecutor(platform)
            freqs = list(platform.soc.dvfs.frequencies())
            for k in kernels:
                profile = k.profile(k.default_size())
                for cores in (1, platform.soc.n_cores):
                    bw = ex.effective_bandwidth_gbs_batch(
                        freqs, cores, profile
                    )
                    for i, f in enumerate(freqs):
                        assert float(bw[i]) == ex.effective_bandwidth_gbs(
                            f, cores, profile
                        )

    def test_efficiency_table_matches_scalar_lookup(self, kernels):
        from repro.timing import calibration

        for platform in PLATFORMS.values():
            ex = SimulatedExecutor(platform)
            table = ex.efficiency_table(kernels)
            assert table is ex.efficiency_table(kernels)  # cached
            for i, k in enumerate(kernels):
                want = calibration.fp_efficiency(
                    platform.soc.core.name,
                    k.profile(k.default_size()).characteristics,
                )
                assert float(table[i]) == want


# ---------------------------------------------------------------------------
# Meter level: one batched draw == the sequential per-kernel draws.
# ---------------------------------------------------------------------------
class TestMeterBatch:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_integrate_batch_matches_sequential(self, seed):
        rng = random.Random(seed)
        powers = [rng.uniform(0.5, 40.0) for _ in range(9)]
        durations = [rng.uniform(0.01, 8.0) for _ in range(9)]
        scalar_meter = PowerMeter(seed=seed)
        batch_meter = PowerMeter(seed=seed)
        want = [
            scalar_meter.integrate(p, d) for p, d in zip(powers, durations)
        ]
        got = batch_meter.integrate_batch(powers, durations)
        assert got == want
        # The RNG streams must also end in the same state.
        assert scalar_meter._rng.normal() == batch_meter._rng.normal()

    def test_integrate_batch_validates(self):
        meter = PowerMeter(seed=0)
        with pytest.raises(ValueError):
            meter.integrate_batch([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            meter.integrate_batch([1.0], [0.0])

    def test_measure_kernel_batch_matches_scalar(self, t2, kernels):
        ex = SimulatedExecutor(t2)
        scalar_meter = PowerMeter(seed=99)
        batch_meter = PowerMeter(seed=99)
        want = [
            measure_kernel(
                t2, k, 1.0, cores=2, meter=scalar_meter, executor=ex
            )
            for k in kernels
        ]
        got = measure_kernel_batch(
            t2, kernels, 1.0, cores=2, meter=batch_meter, executor=ex
        )
        assert got == want  # (run, EnergyMeasurement) pairs, exact


# ---------------------------------------------------------------------------
# Study level: sweep_points == the scalar sweep_point loop, any grid.
# ---------------------------------------------------------------------------
class TestSweepEquivalence:
    @pytest.mark.parametrize("study_seed", [0, 7])
    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_sweep_points_matches_scalar_loop(self, mode, study_seed):
        rng = random.Random(31 * study_seed + (mode == "multi"))
        vec = MobileSoCStudy(seed=study_seed)
        oracle = MobileSoCStudy(seed=study_seed)
        plan = vec.sweep_plan()
        points = rng.sample(plan, k=9)
        points.append(points[0])  # duplicate operating point
        rng.shuffle(points)
        got = vec.sweep_points(mode, points)
        want = [
            oracle._sweep_point_scalar(mode, name, freq)
            for name, freq in points
        ]
        assert got == want

    def test_sweep_points_full_plan_default(self):
        vec = MobileSoCStudy()
        oracle = MobileSoCStudy()
        got = vec.sweep_points("single")
        plan = vec.sweep_plan()
        assert len(got) == len(plan)
        want = [
            oracle._sweep_point_scalar("single", name, freq)
            for name, freq in plan
        ]
        assert got == want

    @pytest.mark.parametrize("study_seed", [0, 3])
    def test_sweep_base_energy_matches_scalar(self, study_seed):
        vec = MobileSoCStudy(seed=study_seed)
        oracle = MobileSoCStudy(seed=study_seed)
        assert vec.sweep_base_energy() == oracle._sweep_base_energy_scalar()

    def test_sweep_point_env_escape_hatch(self, monkeypatch):
        """REPRO_SCALAR_SWEEP=1 must route the public entry points to
        the oracle — and the oracle must agree with the default path."""
        vec = MobileSoCStudy()
        default = vec.sweep_point("single", "Tegra2", 0.456)
        monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
        forced = MobileSoCStudy().sweep_point("single", "Tegra2", 0.456)
        assert forced == default

    def test_sweep_points_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            MobileSoCStudy().sweep_points("turbo")


# ---------------------------------------------------------------------------
# Figure 6 app points: analytic fast paths == the discrete-event oracle.
# ---------------------------------------------------------------------------
class TestFigure6Equivalence:
    #: (cluster size, node counts) per app: PEPC's input needs 24 nodes.
    POINTS = {"PEPC": (48, (24, 48))}

    @staticmethod
    def _both_paths(app, n_cluster, counts, monkeypatch):
        fast = [app.simulate(tibidabo(n_cluster), n) for n in counts]
        monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
        slow = [app.simulate(tibidabo(n_cluster), n) for n in counts]
        return fast, slow

    @pytest.mark.parametrize("app_name", sorted(APPLICATIONS))
    def test_app_points_match_des_oracle(self, app_name, monkeypatch):
        app = APPLICATIONS[app_name]
        n_cluster, counts = self.POINTS.get(app_name, (16, (4, 16)))
        counts = [
            n for n in counts if n >= app.min_nodes(tibidabo(n_cluster))
        ]
        assert counts, f"{app_name} runs at no tested node count"
        fast, slow = self._both_paths(app, n_cluster, counts, monkeypatch)
        assert fast == slow  # AppRunResult dataclasses, exact

    def test_cross_leaf_point_matches_des_oracle(self, monkeypatch):
        """64 nodes span two 48-port leaves: the 3-hop cost path."""
        app = APPLICATIONS["SPECFEM3D"]
        fast, slow = self._both_paths(app, 64, (64,), monkeypatch)
        assert fast == slow


# ---------------------------------------------------------------------------
# Protocol curves: the array pass == the per-size scalar walk.
# ---------------------------------------------------------------------------
class TestLatencyCurveBatch:
    STACKS = [
        (TCP_IP, PCIE, "Cortex-A9", 1.0),
        (OPEN_MX, PCIE, "Cortex-A9", 1.0),
        (OPEN_MX, USB3, "Cortex-A15", 1.4),
    ]

    #: Sizes straddling the Open-MX rendezvous threshold, plus 0.
    SIZES = (0, 1, 64, 4096, 32767, 32768, 32769, 1 << 20)

    @pytest.mark.parametrize("config", range(len(STACKS)))
    def test_latency_curve_matches_scalar(self, config):
        proto, attach, core, freq = self.STACKS[config]
        batch_stack = ProtocolStack(proto, attach, core_name=core, freq_ghz=freq)
        scalar_stack = ProtocolStack(proto, attach, core_name=core, freq_ghz=freq)
        curve = batch_stack.latency_curve_us(self.SIZES)
        for i, s in enumerate(self.SIZES):
            assert float(curve[i]) == scalar_stack.one_way_latency_us(s)
        # The array pass seeds the same per-size memo the scalar reads.
        assert batch_stack._lat_memo == scalar_stack._lat_memo

    def test_latency_curve_validates(self):
        stack = ProtocolStack(TCP_IP)
        with pytest.raises(ValueError):
            stack.latency_curve_us([-1])


# ---------------------------------------------------------------------------
# Cache keys and object bytes: a cache warmed pre-vectorization still
# hits post-vectorization (keys are functions of coordinates + code
# fingerprint only, and unit values are bit-identical either way).
# ---------------------------------------------------------------------------
class TestCacheStability:
    def test_unit_key_shape_is_pinned(self):
        """The key material (schema/kind/params/seed/fingerprint JSON)
        must not change shape: golden hashes under a pinned
        fingerprint.  A failure here means every deployed cache is
        silently invalidated — bump SCHEMA_VERSION instead."""
        assert (
            unit_key("sweep_base", {}, 0, fingerprint=PINNED_FP)
            == "4493313a54387c3629e7b343e3dd9b92a27dbc3475c1db759ffdddf30406250b"
        )
        assert (
            unit_key(
                "sweep_point",
                {"mode": "single", "platform": "Tegra2", "freq": 0.456},
                0,
                fingerprint=PINNED_FP,
            )
            == "6992386bedfd56a83151a40292ed74354d4b9eaae1a0fc487c9be95ef62ce71d"
        )

    def test_object_bytes_scalar_vs_vectorized(self, tmp_path, monkeypatch):
        """Execute representative units under both paths and compare the
        stored object files byte for byte."""
        probe = MobileSoCStudy()
        plan = probe.sweep_plan()
        units = [
            ("sweep_base", {}),
            ("sweep_point", {"mode": "single", "platform": plan[0][0],
                             "freq": plan[0][1]}),
            ("sweep_point", {"mode": "multi", "platform": plan[-1][0],
                             "freq": plan[-1][1]}),
            ("fig6_point", {"app": "HPL", "n": 4, "max_nodes": 4}),
            ("headline", {"n_nodes": 16}),
        ]
        roots = {}
        for label, scalar in (("vec", False), ("scalar", True)):
            if scalar:
                monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
            else:
                monkeypatch.delenv("REPRO_SCALAR_SWEEP", raising=False)
            # Fresh worker-side memos so each pass recomputes from cold.
            monkeypatch.setattr(punits, "_studies", {})
            monkeypatch.setattr(punits, "_clusters", {})
            root = tmp_path / label
            cache = ResultCache(root, max_bytes=0)
            for kind, params in units:
                key = unit_key(kind, params, 0, fingerprint=PINNED_FP)
                cache.put(key, punits.execute_unit(kind, params, 0), kind=kind)
            roots[label] = root
        vec_files = sorted(
            p.relative_to(roots["vec"]) for p in roots["vec"].rglob("*.json")
        )
        scalar_files = sorted(
            p.relative_to(roots["scalar"])
            for p in roots["scalar"].rglob("*.json")
        )
        assert vec_files == scalar_files  # identical keys -> identical paths
        assert vec_files  # sanity: something was stored
        for rel in vec_files:
            assert (roots["vec"] / rel).read_bytes() == (
                roots["scalar"] / rel
            ).read_bytes()


# ---------------------------------------------------------------------------
# Golden figures: the vectorized campaign reproduces the committed JSON
# byte for byte (regenerate with --update-goldens after an *intended*
# model change).
# ---------------------------------------------------------------------------
class TestGoldenFigures:
    def _produced(self):
        study = MobileSoCStudy()
        return {
            "figure3.json": study.figure3(),
            "figure4.json": study.figure4(),
            "figure6.json": study.figure6(FIG6_QUICK_COUNTS),
            "headline.json": study.headline_hpl(),
        }

    def test_campaign_matches_committed_goldens(self, update_goldens):
        produced = self._produced()
        GOLDENS.mkdir(parents=True, exist_ok=True)
        diverged = []
        for fname, obj in sorted(produced.items()):
            # Same serialisation as `repro all --json-dir` (cli.py).
            text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
            path = GOLDENS / fname
            if update_goldens:
                path.write_text(text)
                continue
            assert path.exists(), (
                f"golden {fname} missing — rerun with --update-goldens"
            )
            if text != path.read_text():
                diverged.append(fname)
        if update_goldens:
            pytest.skip("campaign goldens updated")
        assert not diverged, (
            f"campaign JSON diverged from committed goldens: {diverged}; "
            "if the model change is intentional, rerun with "
            "--update-goldens"
        )

    def test_goldens_are_nontrivial(self):
        for fname in (
            "figure3.json", "figure4.json", "figure6.json", "headline.json"
        ):
            doc = json.loads((GOLDENS / fname).read_text())
            assert doc  # non-empty
        headline = json.loads((GOLDENS / "headline.json").read_text())
        assert set(headline) >= {"gflops", "efficiency", "mflops_per_watt"}

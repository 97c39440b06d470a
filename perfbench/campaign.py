"""The ``campaign-serial`` and ``campaign-jobs2`` workloads.

``campaign-serial`` runs ``MobileSoCStudy(seed).run_all(quick=True)`` in
this process, again and again, with no cache and no pool; after each
cold pass it runs the campaign once more on the same, now warm, study
(its in-process memos).

``campaign-jobs2`` runs ``run_campaign(quick=True, jobs=2, cache_dir=d)``
on a fresh cache directory ``d`` (cold: pool dispatch and cache writes),
then the same call again on the cache that pass filled (warm: cache
reads and the plan-order merge, no simulation).

An operation is one campaign.  Its output must equal the committed
goldens byte for byte for seed 0; for other seeds every pass must equal
the serial output of the same seed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import loadgen
from speed import Speed

#: The campaign artefacts compared byte for byte, as ``repro all
#: --json-dir`` writes them.
GOLDEN_FILES = {
    "figure3": "figure3.json",
    "figure4": "figure4.json",
    "figure6": "figure6.json",
    "headline_hpl": "headline.json",
}
SETUPS = 5  # set-up probes per run; setup_s is their median

_READY_PROBE = (
    "import sys\n"
    "from repro.core.study import MobileSoCStudy\n"
    "{extra}"
    "MobileSoCStudy(int(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)


def artefacts(results: dict[str, Any]) -> dict[str, str]:
    return {
        key: json.dumps(results[key], indent=2, sort_keys=True) + "\n"
        for key in GOLDEN_FILES
    }


def golden_artefacts(root: Path) -> dict[str, str]:
    goldens = root / "tests" / "data" / "goldens"
    return {
        key: (goldens / fname).read_text()
        for key, fname in GOLDEN_FILES.items()
    }


def reference(root: Path, seed: int) -> dict[str, str]:
    """What a quick campaign of ``seed`` must produce."""
    if seed == 0:
        return golden_artefacts(root)
    from repro.core.study import MobileSoCStudy

    return artefacts(MobileSoCStudy(seed).run_all(quick=True))


def setup_times(root: Path, work: Path, seed: int, jobs2: bool) -> list[float]:
    """Process start to first study ready, in fresh interpreters, each at
    reference speed."""
    extra = "import repro.parallel.runner\n" if jobs2 else ""
    code = _READY_PROBE.format(extra=extra)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work))
    times = []
    speed = Speed()
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(seed)], cwd=work, env=env,
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        times.append(elapsed * speed.factor())
    return times


def peak_rss_mb(with_children: bool) -> float:
    """This process's peak RSS, plus the largest child's when the
    workload ran a pool (forked children share pages, so this is the
    pair that was resident together, not a sum over all workers)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class Passes:
    """Repeats a (cold, warm) pass pair until the time budget is spent;
    keeps raw seconds and each pair's speed factor."""

    def __init__(self) -> None:
        self.cold_s: list[float] = []
        self.warm_s: list[float] = []
        self.factors: list[float] = []
        self.outputs: list[dict[str, str]] = []

    def run(self, budget_s: float, one: Callable[[], tuple[float, float, list]],
            min_passes: int = 3) -> None:
        speed = Speed()
        t_end = time.perf_counter() + budget_s
        while len(self.cold_s) < min_passes or time.perf_counter() < t_end:
            cold_s, warm_s, outputs = one()
            self.cold_s.append(cold_s)
            self.warm_s.append(warm_s)
            self.factors.append(speed.factor())
            self.outputs.extend(outputs)

    def scaled(self, raw: list[float]) -> list[float]:
        return [s * f for s, f in zip(raw, self.factors)]


def serial_pair(seed: int) -> tuple[float, float, list]:
    from repro.core.study import MobileSoCStudy

    study = MobileSoCStudy(seed)
    t0 = time.perf_counter()
    cold = study.run_all(quick=True)
    t1 = time.perf_counter()
    warm = study.run_all(quick=True)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, [artefacts(cold), artefacts(warm)]


def jobs2_pair(seed: int, cache_dir: Path) -> tuple[float, float, list]:
    from repro.parallel.runner import run_campaign

    t0 = time.perf_counter()
    cold = run_campaign(quick=True, jobs=2, cache_dir=cache_dir, seed=seed)
    t1 = time.perf_counter()
    warm = run_campaign(quick=True, jobs=2, cache_dir=cache_dir, seed=seed)
    t2 = time.perf_counter()
    if warm.cache_stats.misses:
        raise RuntimeError(f"warm pass missed the cache {warm.cache_stats.misses} times")
    shutil.rmtree(cache_dir)
    return t1 - t0, t2 - t1, [artefacts(cold.results), artefacts(warm.results)]


def pair_fn(workload: str, seed: int, work: Path) -> Callable[[], tuple[float, float, list]]:
    if workload == "campaign-serial":
        return lambda: serial_pair(seed)
    counter = iter(range(1 << 30))
    return lambda: jobs2_pair(seed, work / f"cache{next(counter)}")


def measure(workload: str, root: Path, work: Path, seed: int, seconds: float) -> dict[str, Any]:
    """The untraced run: end-to-end metrics and the checks."""
    jobs2 = workload == "campaign-jobs2"
    setups = setup_times(root, work, seed, jobs2)
    passes = Passes()
    passes.run(seconds, pair_fn(workload, seed, work))
    rss = peak_rss_mb(with_children=jobs2)
    expected = reference(root, seed)
    wrong = sum(out != expected for out in passes.outputs)
    cold_s, warm_s = passes.scaled(passes.cold_s), passes.scaled(passes.warm_s)
    latencies_ms = [s * 1e3 for s in cold_s]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1.0 / statistics.median(cold_s),
        "alt_ops_per_s": 1.0 / statistics.median(warm_s),
        "p50_ms": statistics.median(latencies_ms),
        "p90_ms": loadgen.quantile(latencies_ms, 0.90),
        "peak_rss_mb": rss,
    }
    info = {
        "samples": {"setup_s": len(setups), "ops_per_s": len(passes.cold_s),
                    "alt_ops_per_s": len(passes.warm_s),
                    "p50_ms": len(latencies_ms), "p90_ms": len(latencies_ms)},
        "raw": {"campaign_s": statistics.median(passes.cold_s),
                "campaign_warm_s": statistics.median(passes.warm_s)},
        "speed_factor": statistics.median(passes.factors),
        "notes": [f"{wrong} campaign output(s) differ from the reference"] if wrong else [],
    }
    return {"attempted": len(passes.outputs), "failed": wrong,
            "correct": wrong == 0, "metrics": metrics, "info": info}

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-hot --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, taken by wrapping the
program's public functions from this process (see ``spans.py``).  Lines
before it are a human-readable account of the run: sample counts, the
load generator's own figures and any failed check.

The run is hermetic: servers and caches live in a work directory
inside the checkout that is removed at the end, and the run fails if any
other file of the checkout changed.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
TRACE_ROOT = ROOT / ".perfbench-out"
WORKLOADS = ("campaign-serial", "campaign-jobs2", "serve-hot", "serve-cold")
#: Directories the run may create or change inside the checkout.
_UNWATCHED = {".perfbench-work", ".perfbench-out", ".bench_build",
              "__pycache__", ".git"}


def checkout_state(root: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file the run must leave alone, and which
    directories exist (a stray ``.repro-cache/`` shows up even empty)."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _UNWATCHED]
        state[str(Path(dirpath).relative_to(root)) + "/"] = (0, 0)
        for name in filenames:
            path = Path(dirpath) / name
            st = path.stat()
            state[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return state


def changed_files(before: dict, after: dict) -> list[str]:
    return sorted(
        path for path in before.keys() | after.keys()
        if before.get(path) != after.get(path)
    )


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    if workload.startswith("campaign"):
        if trace:
            import traced
            return traced.campaign(workload, ROOT, work, seed, seconds, TRACE_ROOT)
        import campaign
        return campaign.measure(workload, ROOT, work, seed, seconds)
    import serve
    spec = serve.SPECS[workload]
    if trace:
        import traced
        return asyncio.run(traced.serve(spec, ROOT, work, seed, seconds, TRACE_ROOT))
    return asyncio.run(serve.measure(spec, ROOT, work, seed, seconds))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # One hash layout for every run, and for the servers it starts:
        # string hashing otherwise differs per process and shifts
        # timings from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    # Bytecode first, so every set-up probe starts from the same state.
    compileall.compile_dir(ROOT / "src", quiet=1)

    # A terminated run still stops its servers (the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    before = checkout_state(ROOT)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    touched = changed_files(before, checkout_state(ROOT))
    info = result["info"]
    if touched:
        info["notes"].append(f"run changed files in the checkout: {touched[:10]}")
        result["failed"] += len(touched)
        result["correct"] = False

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if not args.trace and units.keys() - result["metrics"].keys():
        raise RuntimeError(f"unmeasured: {units.keys() - result['metrics'].keys()}")
    # A per-layer metric the workload does not exercise reads 0.
    metrics = {
        name: {"value": result["metrics"].get(name, 0), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info},
                     default=str))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write a checkout's BENCH file: gated benchmark metrics plus desk and paper runs.

Usage, from the repository root:

    python3 scripts/bench.py [--checkout DIR] [--rev REV] [--out DIR]

For each workload of ``BENCHMARK.json`` it runs the checkout's
``perfbench/run.py --seed 1 --seconds 3 --trace 0`` five times, each a
subprocess of at least 3 iterations, and reads its result line and the
result document before it.  It reports each gated end-to-end metric's median
and quartiles over those runs (each run's figure is a median over its
iterations, the figure the benchmark gate compares), and the pooled
per-iteration samples of ``run_s`` and ``setup_s``.  It then times
``omegarl train --env grid9 --spec gfa_gfb_gnc --config desk`` and
``--config paper`` once for each method, each run a fresh process from start
to exit, after one untimed import that builds the training kernel.  From
each run's ``report.json`` it records the sat-1 session count, the report's
median first-sat1 episode, and the censored median, which counts a session
that never reached sat 1 as later than every episode.

The result goes to ``BENCH_<rev>.json`` in ``--out`` (default: the
checkout).  ``--rev`` defaults to the checkout's short git revision; a
checkout without ``.git`` (a ``git archive`` copy) needs it.  The file
records the interpreter, numpy and cffi versions, the core count,
``PYTHONDONTWRITEBYTECODE`` and whether the checkout held compiled bytecode
of the package when the measurement began.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("augmented", "degeneralized", "frontier")
PRESETS = ("desk", "paper")
RUNS, SECONDS = 5, 3  # perfbench runs per workload, and each run's --seconds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--rev")
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def revision(checkout: Path) -> str | None:
    """The checkout's own short HEAD; GIT_DIR keeps git from finding a
    repository above a checkout that has no ``.git``."""
    env = {**os.environ, "GIT_DIR": str(checkout / ".git")}
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def spread(values: list[float]) -> dict:
    """Median and quartiles; with one value, all three are that value."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def perfbench(checkout: Path, workload: str) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run: its result line and its result document."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    *_, doc, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(doc)


def measure_workload(checkout: Path, workload: str) -> dict:
    figures: dict[str, list[float]] = {}
    samples: dict[str, list[float]] = {"run_s": [], "setup_s": []}
    attempted = failed = 0
    for _ in range(RUNS):
        result, doc = perfbench(checkout, workload)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, fig in result["metrics"].items():
            figures.setdefault(name, []).append(fig["value"])
        for name in samples:
            samples[name] += doc[f"{name}_samples"]
    return {
        "iterations": len(samples["run_s"]),
        "operations": {"attempted": attempted, "failed": failed},
        "metrics": {name: spread(values) for name, values in figures.items()},
        "iteration_samples": {name: spread(values) for name, values in samples.items()},
    }


def censored_median(episodes: list[int | None]) -> float | None:
    """Median first-sat1 episode with a missed session later than every
    episode; None when the median falls among the missed sessions."""
    ranked = sorted(episodes, key=lambda e: float("inf") if e is None else e)
    mid = (len(ranked) - 1) / 2
    lo, hi = ranked[int(mid)], ranked[int(mid + 0.5)]
    return None if lo is None or hi is None else (lo + hi) / 2


def train_run(checkout: Path, preset: str, method: str, env: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "omegarl.cli", "train", "--env", "grid9", "--spec",
             "gfa_gfb_gnc", "--method", method, "--config", preset, "--out", tmp],
            cwd=checkout, env=env, stdout=subprocess.DEVNULL, check=True,
        )
        wall = time.perf_counter() - start
        report = json.loads((Path(tmp) / "report.json").read_text(encoding="utf-8"))
    firsts = [s["first_sat1_episode"] for s in report["sessions"]]
    return {
        "wall_s": wall,
        "sessions": report["summary"]["sessions"],
        "sat1_sessions": report["summary"]["sat1_sessions"],
        "median_first_sat1_episode": report["summary"]["median_first_sat1_episode"],
        "censored_median_first_sat1_episode": censored_median(firsts),
    }


def measure_presets(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    subprocess.run([sys.executable, "-c", "import omegarl.learn"], cwd=checkout, env=env,
                   check=True)  # builds the kernel outside the timed runs
    out = {}
    for preset in PRESETS:
        runs = {method: train_run(checkout, preset, method, env) for method in METHODS}
        out[preset] = {**runs, "total_wall_s": sum(r["wall_s"] for r in runs.values())}
    return out


def environment(checkout: Path) -> dict:
    import cffi
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "package_bytecode_cached": any((checkout / "src" / "omegarl").glob("**/*.pyc")),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    rev = args.rev or revision(checkout)
    if rev is None:
        print(f"error: {checkout} has no git revision; pass --rev", file=sys.stderr)
        return 2
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = {
        "rev": rev,
        "perfbench": {"runs": RUNS, "seconds": SECONDS, "seed": 1, "trace": 0},
        "environment": environment(checkout),
        "workloads": {},
    }
    for w in spec["workloads"]:
        doc["workloads"][w["name"]] = measure_workload(checkout, w["name"])
    doc["presets"] = measure_presets(checkout)
    path = (args.out or checkout).resolve() / f"BENCH_{rev}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

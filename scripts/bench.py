"""Write BENCH files: gated benchmark metrics plus desk and paper runs, for
one checkout or several measured side by side.

Usage, from the repository root:

    python3 scripts/bench.py [--checkout DIR [--rev REV]]... [--out DIR]

For each workload of ``BENCHMARK.json`` it runs each checkout's
``perfbench/run.py --seed 1 --seconds 3 --trace 0`` ten times, each a
subprocess of at least 3 iterations, and reads its result line and the
result document before it.  With several checkouts the runs take turns,
round by round, the order reversed every other round (A B, B A, A B, ...),
so that drift of the machine falls on every checkout alike.  It reports
each gated end-to-end metric's median and quartiles over those runs (each
run's figure is a median over its iterations, the figure the benchmark gate
compares), and the pooled per-iteration samples of ``run_s`` and
``setup_s``.  With several checkouts, each checkout after the first also
gets, per workload and metric, its figure over the first checkout's in the
same round, for every round, with the median of these ratios and the
number of rounds in which it read lower; ``ratio_to`` names the first
checkout's revision.  It then times ``omegarl train --env grid9 --spec
gfa_gfb_gnc --config desk`` and ``--config paper`` once for each method
and checkout, the checkouts taking turns in the same way, each run a fresh
process from start to exit, after one untimed import per checkout that
builds the training kernel.  From each run's ``report.json`` it records the sat-1
session count, the report's median first-sat1 episode, and the censored
median, which counts a session that never reached sat 1 as later than
every episode.

Each checkout's result goes to its own ``BENCH_<rev>.json`` in ``--out``
(default: the checkout).  ``--checkout`` defaults to this repository.  A
checkout's ``--rev`` defaults to its short git revision; a checkout
without ``.git`` (a ``git archive`` copy) needs one, and ``--rev`` is then
given once per checkout, in the same order.  The file records the
interpreter, numpy and cffi versions, the core count,
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
RUNS, SECONDS = 10, 3  # perfbench runs per workload, and each run's --seconds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, action="append")
    parser.add_argument("--rev", action="append")
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def turns(count: int, rounds: int) -> list[list[int]]:
    """The order of ``count`` checkouts in each of ``rounds`` rounds: in
    order, then reversed, and so on."""
    return [list(range(count))[::1 if r % 2 == 0 else -1] for r in range(rounds)]


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


def measure_workloads(checkouts: list[Path], workloads: list[str]) -> list[dict]:
    """Per checkout, each workload's figures from ``RUNS`` perfbench runs,
    the checkouts taking :func:`turns`, one round per run, and for each
    checkout after the first its :func:`ratios` to the first."""
    out = [{} for _ in checkouts]
    for workload in workloads:
        runs = [[] for _ in checkouts]
        for order in turns(len(checkouts), RUNS):
            for i in order:
                runs[i].append(perfbench(checkouts[i], workload))
        for doc, results in zip(out, runs):
            doc[workload] = summarize(results)
        for doc, results in zip(out[1:], runs[1:]):
            doc[workload]["ratio_to_first"] = ratios(results, runs[0])
    return out


def ratios(runs: list[tuple[dict, dict]], first: list[tuple[dict, dict]]) -> dict:
    """Per metric, each round's figure over the first checkout's in that
    round, their median, and the rounds in which the figure read lower."""
    out = {}
    for name in runs[0][0]["metrics"]:
        per_round = [result["metrics"][name]["value"] / base["metrics"][name]["value"]
                     for (result, _), (base, _) in zip(runs, first, strict=True)]
        out[name] = {"per_round": per_round, "median": median(per_round),
                     "lower": sum(r < 1.0 for r in per_round), "rounds": len(per_round)}
    return out


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    figures: dict[str, list[float]] = {}
    samples: dict[str, list[float]] = {"run_s": [], "setup_s": []}
    attempted = failed = 0
    for result, doc in runs:
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


def measure_presets(checkouts: list[Path]) -> list[dict]:
    """Per checkout, each preset's train runs, the checkouts taking
    :func:`turns`, one round per method."""
    envs = [{**os.environ, "PYTHONPATH": str(checkout / "src")} for checkout in checkouts]
    for checkout, env in zip(checkouts, envs):
        subprocess.run([sys.executable, "-c", "import omegarl.learn"], cwd=checkout, env=env,
                       check=True)  # builds the kernel outside the timed runs
    out = [{} for _ in checkouts]
    for preset in PRESETS:
        runs = [{} for _ in checkouts]
        for method, order in zip(METHODS, turns(len(checkouts), len(METHODS))):
            for i in order:
                runs[i][method] = train_run(checkouts[i], preset, method, envs[i])
        for doc, by_method in zip(out, runs):
            doc[preset] = {**by_method, "total_wall_s": sum(r["wall_s"] for r in by_method.values())}
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
    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    revs = args.rev or [revision(c) for c in checkouts]
    if len(revs) != len(checkouts):
        print(f"error: {len(revs)} --rev for {len(checkouts)} checkouts", file=sys.stderr)
        return 2
    for checkout, rev in zip(checkouts, revs):
        if rev is None:
            print(f"error: {checkout} has no git revision; pass --rev", file=sys.stderr)
            return 2
    docs = [{
        "rev": rev,
        "perfbench": {"runs": RUNS, "seconds": SECONDS, "seed": 1, "trace": 0},
        "environment": environment(checkout),
    } for checkout, rev in zip(checkouts, revs)]
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = measure_workloads(checkouts, [w["name"] for w in spec["workloads"]])
    presets = measure_presets(checkouts)
    for doc in docs[1:]:
        doc["ratio_to"] = revs[0]
    for doc, checkout, figures, runs in zip(docs, checkouts, workloads, presets):
        doc["workloads"], doc["presets"] = figures, runs
        path = (args.out or checkout).resolve() / f"BENCH_{doc['rev']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

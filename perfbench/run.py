"""Benchmark of the omegarl pipeline, one workload per invocation.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid9-long --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's iteration, each in a fresh process
with tracing off, for ``--seconds``; ``setup_s`` is the time from starting
such a process to the end of its set-up.  ``--trace 1`` spends half that
time on untraced iterations and half on traced ones, then runs the
per-layer probes.  Every CLI invocation and every output check is one
operation.

The last line of stdout is the result that BENCHMARK.json's metric lists
describe.  The line before it is the full result document: environment,
workload figures, artifact hashes and derived figures.  It is also written
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# repeated from workloads.WORKLOADS: that module imports omegarl, which may be absent
WORKLOAD_NAMES = ("grid9-long", "scaled-short", "verify-battery")
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def git_revision() -> str:
    """HEAD of the checkout's own ``.git``.  GIT_DIR stops git searching the
    directories above it, and the two config settings keep it from reading
    the system's and the user's git configuration."""
    env = {**os.environ, "GIT_DIR": str(ROOT / ".git"),
           "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_revision": git_revision(),
        "workload_seed": seed,
    }


def run_iteration(*args) -> int | None:
    """Run ``iteration.py`` to completion; its exit code, or None when it
    overran CHILD_TIMEOUT_S and was killed."""
    argv = [sys.executable, str(HERE / "iteration.py"), *map(str, args)]
    try:
        return subprocess.run(argv, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


class Runner:
    """Repeats a workload's iteration in child processes and pools their
    operation counts.  Each result gains ``setup_s``: from just before the
    process was started to the end of its set-up."""

    def __init__(self, name: str, seed: int, work: Path, ops):
        self.name, self.seed, self.work, self.ops = name, seed, work, ops
        self.reference: Path | None = None
        self.count = 0
        self.crashed = 0

    def iterate(self, seconds: float, min_iterations: int, trace: int) -> list[dict]:
        results = []
        start = time.perf_counter()
        while True:
            self.count += 1
            out = self.work / f"iter{self.count}"
            result_file = self.work / f"iter{self.count}.json"
            extra = [] if self.reference is None else [self.reference]
            launched = time.perf_counter()
            rc = run_iteration(self.name, self.seed, self.work, out, trace, result_file, *extra)
            if not self.ops.check(f"iteration {self.count} process exits 0", lambda: rc == 0):
                self.crashed += 1
                if self.crashed >= 3:
                    raise RuntimeError(f"{self.crashed} iteration processes failed")
            else:
                result = json.loads(result_file.read_text(encoding="utf-8"))
                result["setup_s"] = result.pop("setup_done") - launched
                self.ops.attempted += result["attempted"]
                self.ops.failures += result["failures"]
                results.append(result)
                if self.reference is None:
                    self.reference = self.work / "reference.json"
                    self.reference.write_text(json.dumps(result["hashes"]), encoding="utf-8")
            shutil.rmtree(out, ignore_errors=True)
            used = time.perf_counter() - start
            last = results[-1]["seconds"] if results else 0.0
            if len(results) >= min_iterations and used + last > seconds:
                return results


def traced_figures(w, untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer figures from the traced iterations' spans, and derived ones."""
    import spans
    from workloads import METHODS, figure, median

    shares = {layer: [] for layer in spans.LAYERS}
    cli_self = []
    for it in traced:
        selfs = it["self_times"]
        total = selfs["bench.iteration"][1]
        by_layer = dict.fromkeys(shares, 0.0)
        for name, (_, _, own) in selfs.items():
            layer = spans.layer_of(name)
            if layer in by_layer:  # skips the root span, bench.iteration
                by_layer[layer] += own
        for layer in shares:
            shares[layer].append(by_layer[layer] / total)
        cli_self.append(by_layer["cli"])
    metrics = {"cli.self_s": figure(median(cli_self), "s")}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_share"] = figure(median(shares[layer]), "fraction")
    for m in METHODS:
        # each session evaluates after every episode until its first sat-1 episode
        first = untraced[0]["first_sat1"].get(m, [])
        count = sum(e or w.cfg.episodes for e in first)
        metrics[f"learn.evaluations.{m}"] = figure(count, "count")
    run_s = median([it["seconds"] for it in untraced])
    traced_s = median([it["seconds"] for it in traced])
    derived = {
        "traced_run_s": traced_s,
        "tracing_overhead_s": traced_s - run_s,
        # cmd_train's second exact evaluation of every final policy
        "cli_evaluate_policy_s": median([
            it["edge_totals"].get("cli.main>product.evaluate_policy", (0, 0.0))[1]
            for it in traced
        ]),
    }
    return metrics, derived


def run(args) -> int:
    if not (SRC / "omegarl" / "__init__.py").is_file():
        print(f"error: no omegarl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import layers
    from workloads import WORKLOADS, Ops, figure, median

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        w = WORKLOADS[args.workload](args.seed, work)
        w.prepare()
        w.load()
        ops = Ops()
        w.once(ops)
        runner = Runner(args.workload, args.seed, work, ops)
        doc: dict[str, object] = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(args.seed),
        }
        metrics: dict[str, dict] = {}
        if args.trace == 0:
            its = runner.iterate(args.seconds, 3, 0)
        else:
            its = runner.iterate(args.seconds / 2, 2, 0)
        doc["setup_s_samples"] = [it["setup_s"] for it in its]
        doc["run_s_samples"] = [it["seconds"] for it in its]
        metrics["setup_s"] = figure(median(doc["setup_s_samples"]), "s")
        metrics["run_s"] = figure(median(doc["run_s_samples"]), "s")
        metrics["peak_rss_mb"] = figure(median([it["peak_rss_mb"] for it in its]), "MB")
        figures, derived = w.figures(its)

        if args.trace == 1:
            traced = runner.iterate(args.seconds / 2, 1, 1)
            layer_metrics, traced_derived = traced_figures(w, its, traced)
            derived.update(traced_derived)
            for name, (value, unit) in layers.measure(w).items():
                layer_metrics[name] = figure(value, unit)
            doc["end_to_end"] = metrics
            metrics = layer_metrics

        figures["ops_failed_frac"] = figure(ops.failed / ops.attempted, "fraction")
        result = {}
        for entry in spec["per_layer" if args.trace else "end_to_end"]:
            got = metrics.get(entry["name"])
            if got is None or got["value"] is None or got["unit"] != entry["unit"]:
                raise RuntimeError(f"metric {entry['name']} was not measured in {entry['unit']}")
            result[entry["name"]] = got
        doc.update(metrics=result, workload_figures=figures, derived=derived,
                   attempted=ops.attempted, failures=ops.failures)
        (OUT / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(doc))
        print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": result}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(run(parse_args()))

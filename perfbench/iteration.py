"""One timed workload iteration in a fresh process.

Usage: python3 perfbench/iteration.py WORKLOAD SEED WORK_DIR OUT_DIR TRACE RESULT_FILE
                                      [REFERENCE_FILE]

Every iteration runs in its own process, as every ``omegarl`` invocation
does: the package keeps caches across calls (an ``lru_cache`` of automaton
indexes among them), and each further full battery in one process took
1.4-1.9 times as long as the first.  The process imports the package and
does the workload's set-up, then records ``perf_counter`` as
``setup_done``; on Linux that is CLOCK_MONOTONIC, the clock the parent
read before starting the process, so the parent takes ``setup_s`` as the
difference.  It then runs the iteration (timed; inside span
``bench.iteration`` and with every module boundary traced when TRACE is 1),
checks its outputs against the artifact hashes in REFERENCE_FILE when
given, and writes the ``Iteration`` fields plus ``setup_done``, its
operation counts, peak RSS, per-span self times and caller-callee totals
to RESULT_FILE as JSON.
"""

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, Ops, direct  # noqa: E402


def main(argv) -> None:
    name, seed, work, out, trace, result_file, *rest = argv
    w = WORKLOADS[name](int(seed), Path(work))
    if w.setup_loads:
        w.load()
    setup_done = time.perf_counter()
    reference = json.loads(Path(rest[0]).read_text(encoding="utf-8")) if rest else None
    tracer = spans.Tracer()
    call = tracer.call if trace == "1" else direct
    bindings = spans.boundary_bindings(tracer) if trace == "1" else []
    with spans.patched(bindings):
        start = time.perf_counter()
        it = call("bench.iteration", w.timed, Path(out), call)
        it.seconds = time.perf_counter() - start
    ops = Ops()
    w.check(it, Path(out), ops, reference)
    result = {
        **dataclasses.asdict(it),
        "setup_done": setup_done,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "self_times": tracer.self_times(),
        "edge_totals": tracer.edge_totals(),
    }
    Path(result_file).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])

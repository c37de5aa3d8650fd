"""The benchmark's three workloads.

Each workload writes its inputs, loads them the way the command line does,
runs one timed iteration through ``omegarl.cli.main`` (plus, on
``scaled-short``, the exact oracle through the library), and checks the
outputs.  Every CLI invocation and every output check is one operation;
a failed one is counted, never raised.

``call(name, fn, *args)`` runs each entry call: directly when tracing is
off, inside a span when it is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from omegarl import cli
from omegarl.automata import load_automaton, named_fixture
from omegarl.learn import TrainConfig, value_iteration
from omegarl.mdp import ENVIRONMENTS, load_mdp
from omegarl.product import check_positional_impossibility, evaluate_policy
from omegarl.verify import SPEC_FORMULA

import instances
from spans import patched

METHODS = cli.METHODS
ORACLE_GAMMA = 0.99
ARTIFACTS = ("curves.csv", "aggregate.csv", "policies.json", "report.json", "manifest.json")
HASHED = ("curves.csv", "policies.json", "report.json")
VERIFY_CHECKS = (
    "language-preservation",
    "formula-agreement",
    "degeneralization",
    "recurrence-dichotomy",
    "stochasticity",
    "impossibility-certificate",
)

# Long episodes: 1000 steps against products of 14-28 states, as in the desk
# preset, so the Q-learning step loop is nearly all of the time.
GRID9_CONFIG = {"episodes": 80, "steps_per_episode": 1000, "sessions": 2}
# Many short episodes on products of 66-251 states.  In traced iterations
# (seeds 1 and 101) value iteration took about two thirds of the time and
# train the other third, a fifth of it in the per-episode exact evaluations.
SCALED_CONFIG = {"episodes": 500, "steps_per_episode": 30, "sessions": 2}
SCALED_GRID = {"n": 6, "k": 3, "n_unsafe": 4}
PAPER_STEPS = 1e9  # Q-learning steps per method in the paper preset


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def median(values):
    """Median of the values that are not None; None when there are none."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def figure(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Ops:
    """Operations attempted, and a description of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, what: str, test) -> bool:
        """Count one operation; ``test()`` returning falsy or raising on a
        missing or malformed output marks it failed."""
        self.attempted += 1
        detail = ""
        try:
            ok = bool(test())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            ok, detail = False, f" ({type(exc).__name__}: {exc})"
        if not ok:
            self.failures.append(what + detail)
        return ok


@dataclass
class Iteration:
    """What one timed pass produced, in JSON-ready form; ``seconds`` is set
    by the caller."""

    seconds: float = 0.0
    exit_codes: dict[str, int | None] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    train_s: dict[str, float] = field(default_factory=dict)
    first_sat1: dict[str, list[int | None]] = field(default_factory=dict)
    sat1_sessions: dict[str, int] = field(default_factory=dict)
    hashes: dict[str, dict[str, str]] = field(default_factory=dict)
    oracle_s: float | None = None
    oracle_sat: dict[str, float] = field(default_factory=dict)
    battery_s: dict[str, float] = field(default_factory=dict)


def run_cli(argv: list[str], call, patches=()) -> tuple[int | None, str]:
    """One ``omegarl`` invocation in this process; returns (exit code, stdout).

    An exception escaping the CLI is a failed invocation: its traceback goes
    to stderr and the exit code is None."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), patched(patches):
        try:
            rc = call("cli.main", cli.main, argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, buf.getvalue()


class Workload:
    name = ""
    train_config: dict = GRID9_CONFIG
    formula = SPEC_FORMULA
    # whether the CLI loads the inputs and builds the products before its
    # first train or battery call, so that ``load`` is part of set-up
    setup_loads = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config_path = work / "config.json"
        self.cfg = TrainConfig.from_dict({**self.train_config, "rng_seed": seed})

    def prepare(self) -> None:
        """Write the input files (benchmark set-up, not timed)."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.train_config), encoding="utf-8")

    def load(self) -> None:
        """Load the inputs as the CLI does and build every method's product."""
        self.mdp, self.automaton = self._inputs()
        self.products = {
            m: cli.method_product_and_scheme(self.mdp, self.automaton, m, self.cfg.r_p)
            for m in METHODS
        }

    def _inputs(self):
        return ENVIRONMENTS["grid9"](), named_fixture("gfa_gfb_gnc")

    def once(self, ops: Ops) -> None:
        """Output checks made once per run, outside the timed iterations."""

    def timed(self, out: Path, call) -> Iteration:
        raise NotImplementedError

    def figures(self, its: list[dict]) -> tuple[dict, dict]:
        """Workload figures and derived values from untraced iteration results."""
        return {}, {}

    def check(self, it: Iteration, out: Path, ops: Ops, reference: dict | None) -> None:
        """Count the iteration's output checks; ``reference`` holds the first
        iteration's artifact hashes, which every later one must reproduce."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """``omegarl train`` for every method, then the artifact checks."""

    def cli_inputs(self) -> list[str]:
        raise NotImplementedError

    def timed(self, out: Path, call) -> Iteration:
        it = Iteration()
        real_train = cli.train

        def timed_train(*args, **kwargs):
            start = time.perf_counter()
            try:
                return real_train(*args, **kwargs)
            finally:
                it.train_s[method] = time.perf_counter() - start

        for method in METHODS:
            argv = [
                "train", *self.cli_inputs(), "--method", method,
                "--config", str(self.config_path), "--seed", str(self.seed),
                "--out", str(out / method),
            ]
            it.exit_codes[method], _ = run_cli(argv, call, [(cli, "train", timed_train)])
        return it

    def figures(self, its: list[dict]) -> tuple[dict, dict]:
        cfg = self.cfg
        steps = cfg.episodes * cfg.steps_per_episode * cfg.sessions
        figures = {}
        for m in METHODS:
            train_s = median([it["train_s"].get(m) for it in its])
            if train_s:
                figures[f"steps_per_s.{m}"] = figure(steps / train_s, "steps/s")
            if m in its[0]["sat1_sessions"]:
                figures[f"sat1_frac.{m}"] = figure(
                    its[0]["sat1_sessions"][m] / cfg.sessions, "fraction"
                )
        reached = [e for e in its[0]["first_sat1"].get("augmented", []) if e is not None]
        figures["first_sat1_ep.augmented"] = figure(median(reached), "episodes")
        hashes = {
            m: {f: h for f, h in its[0]["hashes"].get(m, {}).items() if f in HASHED}
            for m in METHODS
        }
        return figures, {"artifacts_sha256": hashes}

    def check(self, it: Iteration, out: Path, ops: Ops, reference: dict | None) -> None:
        cfg = self.cfg
        for method in METHODS:
            d = out / method
            product = self.products[method][0]
            ops.check(f"{method}: train exits 0", lambda: it.exit_codes[method] == 0)

            def policies_enabled():
                enabled = {
                    product.name_of(s): product.mdp.enabled[s] for s in range(product.num_states)
                }
                policies = json.loads((d / "policies.json").read_text(encoding="utf-8"))
                return len(policies) == cfg.sessions and all(
                    a in enabled[s] for entry in policies for s, a in entry["policy"].items()
                )

            def curves_in_range():
                values = [
                    float(line.rsplit(",", 1)[1])
                    for line in (d / "curves.csv").read_text(encoding="utf-8").splitlines()
                    if line and not line.startswith(("#", "episode"))
                ]
                return len(values) == cfg.sessions * cfg.episodes and all(
                    0.0 <= v <= cfg.r_p for v in values
                )

            def summary_matches():
                report = json.loads((d / "report.json").read_text(encoding="utf-8"))
                it.first_sat1[method] = [s["first_sat1_episode"] for s in report["sessions"]]
                it.sat1_sessions[method] = report["summary"]["sat1_sessions"]
                sats = [s["sat_probability"] for s in report["sessions"]]
                summary = report["summary"]
                return (
                    summary["sessions"] == len(sats) == cfg.sessions
                    and summary["satisfying_sessions"] == sum(v > 0.0 for v in sats)
                    and summary["sat1_sessions"] == sum(v == 1.0 for v in sats)
                )

            ops.check(f"{method}: policies.json uses only enabled actions", policies_enabled)
            ops.check(f"{method}: curves.csv values lie in [0, r_p]", curves_in_range)
            ops.check(f"{method}: report.json summary matches its sessions", summary_matches)
            with contextlib.suppress(OSError):
                it.hashes[method] = {f: sha256(d / f) for f in ARTIFACTS}
            if reference is not None:
                ops.check(
                    f"{method}: same-seed runs write byte-identical artifacts",
                    lambda: len(it.hashes[method]) == len(ARTIFACTS)
                    and it.hashes[method] == reference[method],
                )


class Grid9Long(TrainWorkload):
    """The paper's experiment: grid9 with ``GF a & GF b & G !c``."""

    name = "grid9-long"

    def cli_inputs(self) -> list[str]:
        return ["--env", "grid9", "--spec", "gfa_gfb_gnc"]

    def figures(self, its: list[dict]) -> tuple[dict, dict]:
        figures, derived = super().figures(its)
        for m in METHODS:
            if f"steps_per_s.{m}" in figures:
                rate = figures[f"steps_per_s.{m}"]["value"]
                derived[f"paper_hours.{m}"] = figure(PAPER_STEPS / rate / 3600, "h")
        return figures, derived

    def once(self, ops: Ops) -> None:
        def vi_sat(method):
            product = self.products[method][0]
            _, policy = value_iteration(product, ORACLE_GAMMA, self.cfg.r_p)
            return evaluate_policy(product, policy).sat_probability

        for method, want in (("augmented", 1.0), ("degeneralized", 1.0), ("frontier", 0.0)):
            ops.check(
                f"grid9: value iteration at gamma {ORACLE_GAMMA} gives sat {want} on the "
                f"{method} product",
                lambda: vi_sat(method) == want,
            )
        ops.check(
            "grid9: the raw product certifies positional impossibility",
            lambda: check_positional_impossibility(self.products["frontier"][0]),
        )


class ScaledShort(TrainWorkload):
    """A seeded n x n slip grid with k goals, many short episodes, then the
    exact oracle on every method's product."""

    name = "scaled-short"
    train_config = SCALED_CONFIG

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.mdp_path = work / "scaled.mdp"
        self.tgba_path = work / "scaled.tgba"
        k = SCALED_GRID["k"]
        self.formula = " & ".join([f"G F a{j + 1}" for j in range(k)] + ["G !c"])

    def prepare(self) -> None:
        super().prepare()
        self.instance = instances.generate(self.seed, **SCALED_GRID)
        self.mdp_path.write_text(self.instance.mdp_text(), encoding="utf-8")
        self.tgba_path.write_text(self.instance.tgba_text(), encoding="utf-8")

    def _inputs(self):
        return load_mdp(self.mdp_path), load_automaton(self.tgba_path)

    def cli_inputs(self) -> list[str]:
        return ["--mdp", str(self.mdp_path), "--spec", str(self.tgba_path)]

    def figures(self, its: list[dict]) -> tuple[dict, dict]:
        figures, derived = super().figures(its)
        figures["oracle_s"] = figure(median([it["oracle_s"] for it in its]), "s")
        inst = self.instance
        derived["instance"] = {
            "n": inst.n, "initial": inst.initial, "goals": list(inst.goals),
            "unsafe": sorted(inst.unsafe), "rejected_layouts": inst.rejected,
        }
        derived[f"oracle_sat_at_gamma_{ORACLE_GAMMA}"] = its[0]["oracle_sat"]
        return figures, derived

    def timed(self, out: Path, call) -> Iteration:
        it = super().timed(out, call)
        start = time.perf_counter()
        for method in METHODS:
            product = self.products[method][0]
            _, policy = call(
                "learn.value_iteration", value_iteration, product, ORACLE_GAMMA, self.cfg.r_p
            )
            it.oracle_sat[method] = call(
                "product.evaluate_policy", evaluate_policy, product, policy
            ).sat_probability
        it.oracle_s = time.perf_counter() - start
        return it


class VerifyBattery(Workload):
    """``omegarl verify``: the full property battery, no learning."""

    name = "verify-battery"
    # The battery builds its own inputs, so set-up ends at import; the inputs
    # ``load`` builds (grid9 and the fixture, as in the battery) feed only
    # the per-layer probes.
    setup_loads = False

    def timed(self, out: Path, call) -> Iteration:
        it = Iteration()
        ns = cli.verify_mod
        real_battery = ns.run_battery

        def capture(*args, **kwargs):
            results = real_battery(*args, **kwargs)
            it.battery_s = {r.name: r.seconds for r in results}
            return results

        it.exit_codes["verify"], it.stdout["verify"] = run_cli(
            ["verify"], call, [(ns, "run_battery", capture)]
        )
        return it

    def figures(self, its: list[dict]) -> tuple[dict, dict]:
        checks = its[0]["battery_s"]
        return {}, {"battery_check_s": {c: median([it["battery_s"].get(c) for it in its])
                                        for c in checks}}

    def check(self, it: Iteration, out: Path, ops: Ops, reference: dict | None) -> None:
        ops.check("verify exits 0", lambda: it.exit_codes["verify"] == 0)

        def passed(name):
            checks = json.loads(it.stdout["verify"])["checks"]
            return [c["passed"] for c in checks if c["name"] == name] == [True]

        for name in VERIFY_CHECKS:
            ops.check(f"verify: {name} passed", lambda: passed(name))


WORKLOADS = {w.name: w for w in (Grid9Long, ScaledShort, VerifyBattery)}

"""Command-line front end for reproducible experiments.

Subcommands: ``automaton`` (transformations and stats), ``train`` (run one
method and write its artifacts), ``compare`` (align finished runs), and
``verify`` (property battery).  Exit codes: 0 success, 1 validation error,
2 property failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .augment import augment, merge_unaccepting
from .automata import (
    AutomatonError,
    NotLimitDeterministic,
    check_limit_deterministic,
    degeneralize,
    load_automaton,
    named_fixture,
    serialize_automaton,
)
from .learn import TrainConfig, train
from .mdp import ENVIRONMENTS, MdpError, load_mdp, serialize_mdp
from .product import (
    METHODS,
    ProductError,
    check_positional_impossibility,
    method_product_and_scheme,
)

CONFIG_PRESETS = {
    # desk scale finishes in minutes; paper scale reproduces the full run
    "desk": TrainConfig(episodes=200, steps_per_episode=1000, sessions=10, rng_seed=1),
    "paper": TrainConfig(episodes=1000, steps_per_episode=10000, sessions=100, rng_seed=1),
}


class CliError(ValueError):
    pass


def _load_spec_automaton(spec: str):
    path = Path(spec)
    if path.exists():
        return load_automaton(path), spec
    return named_fixture(spec), spec


def _load_environment(env: str | None, mdp_file: str | None):
    if (env is None) == (mdp_file is None):
        raise CliError("exactly one of --env and --mdp is required")
    if env is not None:
        try:
            return ENVIRONMENTS[env](), env
        except KeyError:
            raise CliError(
                f"unknown environment {env!r}; available: {', '.join(sorted(ENVIRONMENTS))}"
            ) from None
    return load_mdp(mdp_file), mdp_file


def _load_config(spec: str | None) -> TrainConfig:
    if spec is None:
        return CONFIG_PRESETS["desk"]
    if spec in CONFIG_PRESETS:
        return CONFIG_PRESETS[spec]
    return TrainConfig.from_json(spec)


# --- automaton subcommand ---------------------------------------------------

def cmd_automaton(args) -> int:
    if args.merge and not args.do_augment:
        raise CliError("--merge requires --augment")
    b, _ = _load_spec_automaton(args.input)
    print(
        f"input: {b.num_states} states, {len(b.masks)} transitions, "
        f"{b.n_sets} accepting sets"
    )
    if args.check_ld:
        try:
            part = check_limit_deterministic(b)
        except NotLimitDeterministic as exc:
            print(f"limit-deterministic: no ({exc})")
        else:
            if not part.x_initial:
                print("limit-deterministic: yes (X_final = all)")
            else:
                print(
                    f"limit-deterministic: yes (|X_initial| = {len(part.x_initial)}, "
                    f"|X_final| = {len(part.x_final)})"
                )
    if args.degeneralize:
        b = degeneralize(b)
        print(
            f"degeneralized: {b.num_states} states, {len(b.masks)} transitions, "
            f"{b.n_sets} accepting set"
        )
    if args.do_augment:
        b = augment(b)
        print(f"augmented: {b.num_states} reachable states, {b.n_sets} accepting sets")
        if args.merge:
            b = merge_unaccepting(b)
            print(f"merged: {b.num_states} states, {b.n_sets} accepting sets")
    print(
        f"result: {b.num_states} states, {len(b.masks)} transitions, "
        f"{b.n_sets} accepting sets"
    )
    if args.out:
        Path(args.out).write_text(serialize_automaton(b), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


# --- train subcommand ---------------------------------------------------------

def _curve_csv(curve) -> str:
    lines = [
        "# avg_reward = total episode reward / steps_per_episode (per-step normalization)",
        "episode,session,avg_reward",
    ]
    for si, row in enumerate(curve.per_session.tolist(), 1):
        for ep, value in enumerate(row, 1):
            lines.append(f"{ep},{si},{value!r}")
    return "\n".join(lines) + "\n"


def _aggregate_csv(curve) -> str:
    lines = [
        "# mean/std of per-step average reward across sessions (population std)",
        "episode,mean,std",
    ]
    for ep, (mean, std) in enumerate(zip(curve.mean.tolist(), curve.std.tolist()), 1):
        lines.append(f"{ep},{mean!r},{std!r}")
    return "\n".join(lines) + "\n"


def _median_or_none(values):
    if any(v is None for v in values):
        return None
    return float(np.median(np.asarray(values, dtype=float)))


def cmd_train(args) -> int:
    m, env_name = _load_environment(args.env, args.mdp)
    b_raw, spec_name = _load_spec_automaton(args.spec)
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = TrainConfig.from_dict({**cfg.to_dict(), "rng_seed": args.seed})

    product, scheme = method_product_and_scheme(m, b_raw, args.method, cfg.r_p)
    result = train(product, scheme, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    (out / "curves.csv").write_text(_curve_csv(result.curve), encoding="utf-8")
    (out / "aggregate.csv").write_text(_aggregate_csv(result.curve), encoding="utf-8")

    policies = []
    session_reports = []
    for si, (pol, ev) in enumerate(zip(result.policies, result.evaluations)):
        report = ev.to_dict(product, pol)
        if ev.positively_satisfies and not any(
            c["accepting"] and c["witnesses"] for c in report["classes"]
        ):
            raise AssertionError("satisfaction claimed without an accepting-class certificate")
        report["session"] = si + 1
        report["first_positive_episode"] = result.first_positive_episode[si]
        report["first_sat1_episode"] = result.first_sat1_episode[si]
        session_reports.append(report)
        policies.append({"session": si + 1, "policy": report["policy"]})

    (out / "policies.json").write_text(
        json.dumps(policies, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    sat_values = [r["sat_probability"] for r in session_reports]
    report_doc = {
        "method": args.method,
        "frontier_reset_on_empty": args.method == "frontier",
        "epsilon_actions": "enabled alongside ordinary actions",
        "positional_impossibility": check_positional_impossibility(product),
        "sessions": session_reports,
        "summary": {
            "sessions": cfg.sessions,
            "satisfying_sessions": sum(1 for v in sat_values if v > 0.0),
            "sat1_sessions": sum(1 for v in sat_values if v == 1.0),
            "median_first_positive_episode": _median_or_none(
                list(result.first_positive_episode)
            ),
            "median_first_sat1_episode": _median_or_none(list(result.first_sat1_episode)),
        },
    }
    (out / "report.json").write_text(
        json.dumps(report_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    import hashlib  # here, so that importing the CLI does not map OpenSSL

    digest = hashlib.sha256()
    digest.update(serialize_automaton(b_raw).encode())
    digest.update(serialize_mdp(m).encode())
    digest.update(json.dumps(cfg.to_dict(), sort_keys=True).encode())
    digest.update(args.method.encode())
    manifest = {
        "method": args.method,
        "env": env_name,
        "spec": spec_name,
        "config": cfg.to_dict(),
        "seed": cfg.rng_seed,
        "input_hash": digest.hexdigest(),
        "artifacts": ["curves.csv", "aggregate.csv", "policies.json", "report.json"],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(
        f"method={args.method} sessions={cfg.sessions} "
        f"sat1_sessions={report_doc['summary']['sat1_sessions']} "
        f"median_first_sat1={report_doc['summary']['median_first_sat1_episode']}"
    )
    print(f"artifacts in {out}")
    return 0


# --- compare subcommand -------------------------------------------------------

def _field(path: Path, doc, *keys):
    """``doc[keys[0]][keys[1]]...`` of the JSON file ``path``."""
    try:
        for key in keys:
            doc = doc[key]
    except (KeyError, IndexError, TypeError):
        raise CliError(f"{path}: missing field {'.'.join(map(str, keys))}") from None
    return doc


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno})") from None


def _read_run(run_dir: Path):
    """A train run's method, compare summary and aggregate curve."""
    mpath, rpath, apath = (run_dir / f for f in ("manifest.json", "report.json", "aggregate.csv"))
    manifest, report = _read_json(mpath), _read_json(rpath)
    if not isinstance(sessions := _field(rpath, report, "sessions"), list):
        raise CliError(f"{rpath}: field sessions is not a list")
    summary = {key: _field(rpath, report, "summary", key)
               for key in ("median_first_sat1_episode", "satisfying_sessions", "sat1_sessions")}
    summary["first_sat1_episodes"] = [_field(rpath, report, "sessions", i, "first_sat1_episode")
                                      for i in range(len(sessions))]
    episodes, means, stds = [], [], []
    for n, line in enumerate(apath.read_text(encoding="utf-8").splitlines(), 1):
        if not line or line.startswith("#") or line.startswith("episode"):
            continue
        try:
            ep, mean, std = line.split(",")
            episodes.append(int(ep))
            means.append(float(mean))
            stds.append(float(std))
        except ValueError:
            raise CliError(f"{apath}:{n}: expected episode,mean,std, not {line!r}") from None
    return str(_field(mpath, manifest, "method")), summary, episodes, means, stds


def cmd_compare(args) -> int:
    runs = [_read_run(Path(d)) for d in args.runs]
    lengths = {len(r[2]) for r in runs}
    if len(lengths) != 1:
        raise CliError(f"mismatched episode counts across runs: {sorted(lengths)}")
    n_episodes = lengths.pop()
    run_of = {}  # method -> its run directory; rows and summaries are keyed by method
    for run_dir, (method, *_) in zip(args.runs, runs):
        if method in run_of:
            raise CliError(f"{run_of[method]} and {run_dir} are both {method} runs; "
                           "compare takes one run per method")
        run_of[method] = run_dir

    block = 50
    rows = []
    summary = {}
    for method, run_summary, episodes, means, stds in runs:
        for start in range(0, n_episodes, block):
            chunk = slice(start, min(start + block, n_episodes))
            rows.append(
                {
                    "episode": episodes[chunk][-1],
                    "method": method,
                    "mean": float(np.mean(means[chunk])),
                    "std": float(np.mean(stds[chunk])),
                }
            )
        summary[method] = run_summary

    doc = {"per_50_episodes": rows, "episodes_to_first_satisfaction": summary}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        csv_lines = ["episode,method,mean,std"]
        csv_lines += [
            f"{r['episode']},{r['method']},{r['mean']!r},{r['std']!r}" for r in rows
        ]
        (out / "compare.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
        (out / "compare.json").write_text(text + "\n", encoding="utf-8")
        print(f"comparison in {out}")
    else:
        print(text)
    return 0


# --- verify subcommand ----------------------------------------------------------

def cmd_verify(args) -> int:
    results = verify_mod.run_battery(quick=args.quick)
    doc = {
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if doc["passed"] else 2


# --- entry point -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omegarl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_aut = sub.add_parser("automaton", help="inspect or transform an automaton")
    p_aut.add_argument("input", help="fixture name or automaton file")
    p_aut.add_argument("--augment", dest="do_augment", action="store_true")
    p_aut.add_argument("--merge", action="store_true")
    p_aut.add_argument("--degeneralize", action="store_true")
    p_aut.add_argument("--check-ld", dest="check_ld", action="store_true")
    p_aut.add_argument("--out", help="write the resulting automaton here")
    p_aut.set_defaults(func=cmd_automaton)

    p_train = sub.add_parser("train", help="train one method and write artifacts")
    p_train.add_argument("--env", help="built-in environment name (grid9)")
    p_train.add_argument("--mdp", help="MDP file")
    p_train.add_argument("--spec", required=True, help="automaton fixture name or file")
    p_train.add_argument("--method", required=True, choices=METHODS)
    p_train.add_argument("--config", help="preset name (desk, paper) or JSON file")
    p_train.add_argument("--seed", type=int, help="override the config's rng seed")
    p_train.add_argument("--out", required=True, help="run directory")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", help="align finished runs")
    p_cmp.add_argument("runs", nargs="+", help="run directories, one per method")
    p_cmp.add_argument("--out", help="write compare.csv / compare.json here")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run the property battery")
    p_ver.add_argument("--quick", action="store_true", help="reduced word bounds")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            return 0
        return 1
    try:
        return args.func(args)
    except (CliError, AutomatonError, MdpError, ProductError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

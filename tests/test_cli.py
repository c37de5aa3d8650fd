import json
import shutil
from pathlib import Path

import pytest

import omegarl
from omegarl import LassoWord, Transition, named_fixture
from omegarl.cli import main
from omegarl.verify import CHECKS, Battery, check_formula_agreement
from omegarl.automata import TGba
from test_automata import ACCEPTING_EPSILON
from test_mdp import GOOD_MDP


def write_config(path, **overrides):
    cfg = {
        "gamma": 0.95,
        "r_p": 2.0,
        "episodes": 8,
        "steps_per_episode": 60,
        "sessions": 2,
        "rng_seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_automaton_augment_merge_counts(capsys):
    assert main(["automaton", "gfa_gfb_gnc", "--augment", "--merge"]) == 0
    out = capsys.readouterr().out
    assert "augmented: 6 reachable states, 2 accepting sets" in out
    assert "merged: 4 states, 2 accepting sets" in out


def test_automaton_check_ld(capsys):
    assert main(["automaton", "gfa_gfb_gnc", "--check-ld"]) == 0
    assert "limit-deterministic: yes (X_final = all)" in capsys.readouterr().out
    assert main(["automaton", "fg_a", "--check-ld"]) == 0
    out = capsys.readouterr().out
    assert "limit-deterministic: yes (|X_initial| = 1, |X_final| = 2)" in out


def test_automaton_degeneralize(capsys):
    assert main(["automaton", "gfa_gfb_gnc", "--degeneralize"]) == 0
    assert "degeneralized: 4 states, 32 transitions, 1 accepting set" in capsys.readouterr().out


def test_automaton_out_round_trips(tmp_path, capsys):
    out_file = tmp_path / "merged.tgba"
    assert main(["automaton", "gfa_gfb_gnc", "--augment", "--merge", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["automaton", str(out_file), "--check-ld"]) == 0
    assert "limit-deterministic: yes" in capsys.readouterr().out


def test_automaton_accepting_epsilon_names_line(tmp_path, capsys):
    path = tmp_path / "accepting_eps.tgba"
    path.write_text(ACCEPTING_EPSILON)
    assert main(["automaton", str(path)]) == 1
    assert "line 6: an epsilon move cannot be accepting" in capsys.readouterr().err


def test_automaton_merge_requires_augment(capsys):
    assert main(["automaton", "gfa_gfb_gnc", "--merge", "--check-ld"]) == 1
    captured = capsys.readouterr()
    assert "merge requires" in captured.err
    assert captured.out == ""


def test_unknown_fixture_is_validation_error(capsys):
    assert main(["automaton", "no_such_fixture"]) == 1
    assert "unknown fixture" in capsys.readouterr().err


def test_unknown_environment_lists_the_packaged_mdps(tmp_path, capsys):
    stems = sorted(p.stem for p in Path(omegarl.__file__).with_name("fixtures").glob("*.mdp"))
    assert stems
    out = tmp_path / "run"
    assert main(["train", "--env", "nope", "--spec", "gfa_gfb_gnc", "--method", "augmented",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: unknown environment 'nope'; available: {', '.join(stems)}\n"
    assert not out.exists()


def test_bad_arguments_exit_code():
    assert main(["train", "--method", "augmented"]) == 1  # missing --spec/--out
    assert main(["no-such-command"]) == 1


def test_train_writes_artifacts_and_manifest(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    code = main(
        [
            "train", "--env", "grid9", "--spec", "gfa_gfb_gnc",
            "--method", "augmented", "--config", str(config), "--out", str(out),
        ]
    )
    assert code == 0
    for name in ("curves.csv", "aggregate.csv", "policies.json", "report.json", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "augmented"
    assert manifest["seed"] == 7
    # pinned: the digest covers the inputs, config and method, not the code
    assert manifest["input_hash"] == "12fb87a5877abe6aeeed9ee6666536e4c85bdddb4fa20d5d5cc4a864ab4c915f"
    report = json.loads((out / "report.json").read_text())
    assert report["epsilon_actions"] == "enabled alongside ordinary actions"
    assert len(report["sessions"]) == 2
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0].startswith("#")
    assert curves[1] == "episode,session,avg_reward"
    assert len(curves) == 2 + 2 * 8


def test_train_satisfying_run_carries_certificate(tmp_path):
    # seed 2: one of the 4 sessions reaches sat 1, and the other 3 miss it
    config = write_config(
        tmp_path / "cfg.json", episodes=40, steps_per_episode=1000, sessions=4, rng_seed=2
    )
    out = tmp_path / "run"
    assert main(
        [
            "train", "--env", "grid9", "--spec", "gfa_gfb_gnc",
            "--method", "augmented", "--config", str(config), "--out", str(out),
        ]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    satisfied = [s for s in report["sessions"] if s["sat_probability"] > 0]
    assert satisfied, "expected at least one satisfying session"
    for session in satisfied:
        witnesses = [
            c["witnesses"] for c in session["classes"] if c["accepting"]
        ]
        assert witnesses and all(set(w) == {"1", "2"} for w in witnesses)
    assert report["summary"]["median_first_sat1_episode"] is None  # some sessions never


def test_train_frontier_reports_impossibility(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(
        [
            "train", "--env", "grid9", "--spec", "gfa_gfb_gnc",
            "--method", "frontier", "--config", str(config), "--out", str(out),
        ]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["positional_impossibility"] is True
    assert report["frontier_reset_on_empty"] is True
    assert all(s["sat_probability"] == 0.0 for s in report["sessions"])


def test_train_rerun_is_byte_identical(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(
            [
                "train", "--env", "grid9", "--spec", "gfa_gfb_gnc",
                "--method", "degeneralized", "--config", str(config), "--out", str(out),
            ]
        ) == 0
        outs.append(out)
    for name in ("curves.csv", "aggregate.csv", "policies.json", "report.json", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_mdp_file_input(tmp_path):
    from importlib import resources

    mdp_file = tmp_path / "grid.mdp"
    mdp_file.write_text((resources.files("omegarl") / "fixtures" / "grid9.mdp").read_text())
    config = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(
        [
            "train", "--mdp", str(mdp_file), "--spec", "gfa_gfb_gnc",
            "--method", "augmented", "--config", str(config), "--out", str(out),
        ]
    ) == 0
    assert json.loads((out / "manifest.json").read_text())["env"] == str(mdp_file)


@pytest.mark.parametrize(
    "flag,name,text,message",
    [
        ("--mdp", "zero.mdp", GOOD_MDP.replace("prob 0 go 1 1.0", "prob 0 go 1 0"),
         "line 4: (0, go, 1) has nonpositive probability"),
        ("--mdp", "short.mdp", GOOD_MDP.replace("prob 0 go 1 1.0", "prob 0 go 1 0.5"),
         "line 4: (0, go) probabilities sum to 0.5, not 1"),
        ("--spec", "bad.tgba", "ap: a\nstates: 1\ninitial: 0\nacceptance-sets: 1\nx a 0 acc: 1\n",
         "line 5: bad state id 'x'"),
    ],
    ids=["mdp-zero-probability", "mdp-short-row", "tgba-state-id"],
)
def test_train_malformed_input_file_names_path_and_line(tmp_path, capsys, flag, name, text,
                                                        message):
    bad = tmp_path / name
    bad.write_text(text)
    inputs = ["--mdp", str(bad), "--spec", "gfa_gfb_gnc"] if flag == "--mdp" else [
        "--env", "grid9", "--spec", str(bad)]
    rc = main(["train", *inputs, "--method", "augmented", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "config,message",
    [
        ({"bogus": 1}, "unknown config field 'bogus'"),
        ({"epsilon_scope": "episode"}, "unknown config field 'epsilon_scope'"),
        ({"episodes": "2"}, "config field 'episodes' must be an integer, not '2'"),
        ([1, 2], "config must be a JSON object, not list"),
        ({"episodes": 1.5}, "config field 'episodes' must be an integer, not 1.5"),
        ({"r_p": float("nan")}, "r_p must be positive and finite, not nan"),
        ({"r_p": float("inf")}, "r_p must be positive and finite, not inf"),
        ({"epsilon_numerator": float("nan")},
         "epsilon_numerator must be positive and finite, not nan"),
        ({"rng_seed": -1}, "rng_seed must be non-negative"),
        ({"steps_per_episode": 2**63}, "steps_per_episode must be below 2**63"),
        ({"episodes": 10**13, "sessions": 1},
         "episodes * sessions must be at most 2**24, not 10000000000000"),
        ({"episodes": 10**7, "sessions": 10**7},
         "episodes * sessions must be at most 2**24, not 100000000000000"),
    ],
    ids=["unknown-key", "retired-epsilon_scope", "string-count", "list", "float-count",
         "nan-r_p", "inf-r_p", "nan-epsilon", "negative-seed", "int64-steps", "huge-curve",
         "huge-curve-sessions"],
)
def test_train_malformed_config_is_validation_error(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["train", "--env", "grid9", "--spec", "gfa_gfb_gnc", "--method", "augmented",
               "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_compare_runs(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json")
    runs = []
    for method in ("augmented", "frontier"):
        out = tmp_path / method
        assert main(
            [
                "train", "--env", "grid9", "--spec", "gfa_gfb_gnc",
                "--method", method, "--config", str(config), "--out", str(out),
            ]
        ) == 0
        runs.append(str(out))
    capsys.readouterr()
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", *runs, "--out", str(cmp_dir)]) == 0
    doc = json.loads((cmp_dir / "compare.json").read_text())
    assert set(doc["episodes_to_first_satisfaction"]) == {"augmented", "frontier"}
    csv_lines = (cmp_dir / "compare.csv").read_text().splitlines()
    assert csv_lines[0] == "episode,method,mean,std"
    assert len(csv_lines) == 3  # eight episodes fold into one block per method


def test_compare_single_run_is_identity(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(
        [
            "train", "--env", "grid9", "--spec", "gfa_gfb_gnc",
            "--method", "augmented", "--config", str(config), "--out", str(out),
        ]
    ) == 0
    capsys.readouterr()
    assert main(["compare", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["episodes_to_first_satisfaction"]) == ["augmented"]


def test_compare_mismatched_episode_counts(tmp_path, capsys):
    c1 = write_config(tmp_path / "c1.json")
    c2 = write_config(tmp_path / "c2.json", episodes=5)
    runs = []
    for name, cfg in (("r1", c1), ("r2", c2)):
        out = tmp_path / name
        assert main(
            [
                "train", "--env", "grid9", "--spec", "gfa_gfb_gnc",
                "--method", "augmented", "--config", str(cfg), "--out", str(out),
            ]
        ) == 0
        runs.append(str(out))
    assert main(["compare", *runs]) == 1
    assert "mismatched" in capsys.readouterr().err


def test_compare_rejects_two_runs_of_one_method(tmp_path, capsys):
    """Rows and summaries are keyed by method, so two runs of one method
    would merge; compare names both run directories instead."""
    config = write_config(tmp_path / "cfg.json")
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert main(
            [
                "train", "--env", "grid9", "--spec", "gfa_gfb_gnc", "--method", "augmented",
                "--config", str(config), "--seed", seed, "--out", str(out),
            ]
        ) == 0
        runs.append(str(out))
    capsys.readouterr()
    assert main(["compare", *runs, "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == (
        f"error: {runs[0]} and {runs[1]} are both augmented runs; "
        "compare takes one run per method\n"
    )
    assert not (tmp_path / "cmp").exists()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    out = tmp / "run"
    assert main(
        [
            "train", "--env", "grid9", "--spec", "gfa_gfb_gnc", "--method", "augmented",
            "--config", str(write_config(tmp / "cfg.json")), "--out", str(out),
        ]
    ) == 0
    return out


def _without_first_sat1(text):
    report = json.loads(text)
    del report["sessions"][0]["first_sat1_episode"]
    return json.dumps(report)


@pytest.mark.parametrize(
    "name,edit,suffix",
    [
        ("manifest.json", lambda text: "{}", ": missing field method"),
        ("manifest.json", lambda text: "[1]", ": missing field method"),
        ("report.json", _without_first_sat1, ": missing field sessions.0.first_sat1_episode"),
        ("report.json", lambda text: '{"sessions": 2}', ": field sessions is not a list"),
        ("aggregate.csv", lambda text: text + "9,0.5,0.1,0.2\n",
         ":11: expected episode,mean,std, not '9,0.5,0.1,0.2'"),
        ("manifest.json", lambda text: '{\n  "method":', ": not valid JSON (line 2, column 12)"),
        ("report.json", lambda text: text[:2], ": not valid JSON (line 2, column 1)"),
    ],
    ids=["empty-manifest", "list-manifest", "session-field", "sessions-type", "csv-row",
         "truncated-manifest", "truncated-report"],
)
def test_compare_malformed_run_names_file_and_field(
    trained_run, tmp_path, capsys, name, edit, suffix
):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    path = run / name
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert main(["compare", str(run)]) == 1
    assert capsys.readouterr().err == f"error: {path}{suffix}\n"


def test_verify_quick(capsys):
    assert main(["verify", "--quick"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {
        "language-preservation",
        "formula-agreement",
        "degeneralization",
        "recurrence-dichotomy",
        "stochasticity",
        "impossibility-certificate",
    } <= names


LASSO_CHECKS = ("language-preservation", "formula-agreement", "degeneralization")


def test_verify_full_battery(capsys):
    assert main(["verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert [(c["name"], c["passed"], c["detail"]) for c in doc["checks"]] == [
        *((name, True, "42632 lasso words agree") for name in LASSO_CHECKS),
        ("recurrence-dichotomy", True, "every end component covers all 2 sets or none"),
        ("stochasticity", True, "max row-sum error 0.00e+00"),
        ("impossibility-certificate", True, "raw product impossible, augmented product possible"),
    ]


def test_verify_finds_disagreement_that_needs_a_prefix():
    """Redirecting the trap's {a,b} self-loop to x0 lets a run leave the
    trap; the first bounded word that tells the automaton from the formula
    must first enter the trap with c."""
    good = named_fixture("gfa_gfb_gnc")
    ab = frozenset(("a", "b"))
    escaped = TGba(
        num_states=good.num_states,
        initial=good.initial,
        ap=good.ap,
        masks={
            **{t: mask for t, mask in good.masks.items() if t != Transition(1, ab, 1)},
            Transition(1, ab, 0): 0,
        },
        n_sets=good.n_sets,
        names=good.names,
    )
    passed, detail = check_formula_agreement(Battery(escaped, max_prefix=1, max_cycle=2))
    assert passed is False
    witness = LassoWord((frozenset(("c",)),), (ab,))
    assert detail == f"automaton and formula disagree on {witness}"


def test_verify_names_failing_check_for_corrupted_automaton():
    good = named_fixture("gfa_gfb_gnc")
    corrupted = TGba(
        num_states=good.num_states,
        initial=good.initial,
        ap=good.ap,
        masks={t: mask & 1 for t, mask in good.masks.items()},  # second set emptied
        n_sets=good.n_sets,
        names=good.names,
    )
    passed, detail = check_formula_agreement(Battery(corrupted, max_prefix=1, max_cycle=2))
    assert passed is False
    assert CHECKS["formula-agreement"] is check_formula_agreement
    assert "disagree" in detail

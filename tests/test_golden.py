"""Golden runs: fixed configurations whose artifacts are pinned by sha256.

A change that keeps these hashes is behaviour-preserving; a deliberate
behaviour change re-pins them and says why in CHANGES.md.  The slip MDP
has three-successor rows, so successor sampling goes past the two-way
split of the grid9 rooms.
"""

import hashlib
import json

import pytest

from omegarl import TrainConfig, build_gridworld, fixture_gfa_gfb_gnc, train
from omegarl.cli import METHODS, main, method_product_and_scheme

GRID9_CONFIG = {"episodes": 100, "steps_per_episode": 1000, "sessions": 2, "rng_seed": 2}
SLIP_CONFIG = {"episodes": 25, "steps_per_episode": 200, "sessions": 2, "rng_seed": 5}
HASHED = ("curves.csv", "policies.json", "report.json")

GOLDEN = {
    ("grid9", "augmented"): {
        "curves.csv": "2dd6db8e48b4836907e97fae65260f41c2d0b82c1e6562b883bb0d943937c3a3",
        "policies.json": "077f0f3b707e4605234c73097e41a952999f0932884d58bddb8737bd20b20310",
        "report.json": "a38d2166f63bf785245294782634b1cf54b0b617a626c853125df71556140d57",
    },
    ("grid9", "degeneralized"): {
        "curves.csv": "dab102147906f89499f1eb7bc82dbab7921a58e92bbe6aa6bf4bc416bb565a65",
        "policies.json": "77c2e0dc4ab8749aa74b50d1bba2bbc12067accc013ed90cf109e63a341c4a6f",
        "report.json": "b320499d02e594f9fd224c3ff2990094249732a6868a54079ed71d580feab3df",
    },
    ("grid9", "frontier"): {
        "curves.csv": "72d9f78454b58332267853b3b77da15f584d8606681c768cb2bc1762e5f34fa0",
        "policies.json": "1947f66820d1550cd5a58c2fc463bb085873138288ab928448cc18c1abf7f63f",
        "report.json": "e0b1c2118b24b155847f110e2eebd08bda70ce5484632d0c7569e9e0ae1660e6",
    },
    ("slip", "augmented"): {
        "curves.csv": "0a0c4a5b255058d74e296100770381c44303ca24d3758c2ca69c1970588a8044",
        "policies.json": "6d00c2a25be39935cd58cea9978b4e17aec4ebb5456dff74a36a0dd68c8c82c0",
        "report.json": "b162b12e635bdbb74dcde42beaee39ac8334aa4b9e78dd160072ad88f4e18a22",
    },
    ("slip", "degeneralized"): {
        "curves.csv": "4245fbc76f838ec2551e428c3045927b7ed63be556c2dc97ea6f5b9e9c4af8f5",
        "policies.json": "28e1290b55d05e9e62f2fa6012c4c52e307166aa956f99c5edf1c4e75c30e840",
        "report.json": "66891c37441108009dbdd13c3c7c97a5c706a0e0438913ad7982438de99b5640",
    },
    ("slip", "frontier"): {
        "curves.csv": "e73db7cb61d50b67aeb65fe6a69d6a1c9a096ac2e9afa966ae9357e1fee12b0f",
        "policies.json": "e2e708a2facba600d02cd4fa77e4f159dffa4368e997f56971a8865e9d88c5e2",
        "report.json": "de3c0f3e8dc47b8f69cc0272f842cca0311eb5a5585237f30973910e590068d5",
    },
}

GOLDEN_LIBRARY = {
    "augmented": "4ad47c308feaf886c1f9d02edbb8e72fdf862d18ab6f193abfda8caa8b08ba62",
    "degeneralized": "3d129ee1f5753950295a3a232fc421fd47d679bbf835e4d141bf106fb50cdf85",
    "frontier": "0cd28d189e4182cfd9415ddce2ce39d3cba9dc7f12b9992bcea80ecc5179269d",
}


def slip_mdp_text() -> str:
    """A 3x3 grid whose moves reach the intended cell with 0.8 and slip to
    either side with 0.1 each (staying put off the grid); entering cell 0
    is labeled {a}, cell 8 {b} and cell 2 {c}."""
    moves = {"right": (0, 1), "left": (0, -1), "up": (-1, 0), "down": (1, 0)}
    sides = {"right": ("up", "down"), "left": ("down", "up"),
             "up": ("left", "right"), "down": ("right", "left")}

    def step(s, a):
        r, c = divmod(s, 3)
        r2, c2 = r + moves[a][0], c + moves[a][1]
        return r2 * 3 + c2 if 0 <= r2 < 3 and 0 <= c2 < 3 else s

    names = {0: "a", 8: "b", 2: "c"}
    lines = ["states: 9", "initial: 4", "ap: a b c"]
    labels = []
    for s in range(9):
        for a in moves:
            dist = {}
            for target, p in ((step(s, a), 0.8), (step(s, sides[a][0]), 0.1),
                              (step(s, sides[a][1]), 0.1)):
                dist[target] = dist.get(target, 0.0) + p
            for dst, p in sorted(dist.items()):
                lines.append(f"prob {s} {a} {dst} {p!r}")
                if dst in names:
                    labels.append(f"label {s} {a} {dst} {{{names[dst]}}}")
    return "\n".join(lines + labels) + "\n"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("env,method", sorted(GOLDEN))
def test_golden_cli_run(tmp_path, capsys, env, method):
    if env == "grid9":
        inputs, config = ["--env", "grid9"], GRID9_CONFIG
    else:
        mdp = tmp_path / "slip.mdp"
        mdp.write_text(slip_mdp_text(), encoding="utf-8")
        inputs, config = ["--mdp", str(mdp)], SLIP_CONFIG
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", *inputs, "--spec", "gfa_gfb_gnc", "--method", method,
                 "--config", str(cfg_file), "--out", str(out)]) == 0
    capsys.readouterr()
    assert {name: sha256(out / name) for name in HASHED} == GOLDEN[(env, method)]


@pytest.mark.parametrize("method", METHODS)
def test_golden_library_session_scope(method):
    product, scheme = method_product_and_scheme(
        build_gridworld(), fixture_gfa_gfb_gnc(), method, 2.0
    )
    cfg = TrainConfig(episodes=15, steps_per_episode=250, sessions=2, rng_seed=23,
                      epsilon_scope="session")
    result = train(product, scheme, cfg, track_satisfaction=False)
    digest = hashlib.sha256(result.curve.per_session.tobytes())
    for q in result.qtables:
        digest.update(repr(sorted(q.values.items())).encode())
    assert digest.hexdigest() == GOLDEN_LIBRARY[method]

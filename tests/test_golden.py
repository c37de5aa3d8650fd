"""Golden runs: fixed configurations whose artifacts are pinned by sha256.

A change that keeps these hashes is behaviour-preserving; a deliberate
behaviour change re-pins them and says why in CHANGES.md.  The slip MDP
has three-successor rows, so successor sampling goes past the two-way
split of the grid9 rooms.  Besides the training runs, the automaton
transforms, the method products and the value-iteration oracle are pinned
directly, so a change to their numbering or their floats shows here even
where the run artifacts would not see it.
"""

import hashlib
import json

import pytest

from helpers import product_acceptance, product_aut_edge
from omegarl import (
    TrainConfig,
    augment,
    degeneralize,
    merge_unaccepting,
    named_fixture,
    parse_mdp,
    serialize_automaton,
    train,
    value_iteration,
)
from omegarl.cli import METHODS, main, method_product_and_scheme
from omegarl.mdp import ENVIRONMENTS

GRID9_CONFIG = {"episodes": 100, "steps_per_episode": 1000, "sessions": 2, "rng_seed": 2}
SLIP_CONFIG = {"episodes": 25, "steps_per_episode": 200, "sessions": 2, "rng_seed": 5}
HASHED = ("curves.csv", "policies.json", "report.json")

GOLDEN = {
    ("grid9", "augmented"): {
        "curves.csv": "fa8b526b4a405a47a089b752e2bcba940c5d8039546717436cecb04289295f03",
        "policies.json": "264504707850157c0d163c4674b3781c7c29d04fcca425fb773b8e154d3ba987",
        "report.json": "d4019a16c86ef8b368ec48badfec1365707d0f03d02fde59cedaca8a1dda0517",
    },
    ("grid9", "degeneralized"): {
        "curves.csv": "dab102147906f89499f1eb7bc82dbab7921a58e92bbe6aa6bf4bc416bb565a65",
        "policies.json": "77c2e0dc4ab8749aa74b50d1bba2bbc12067accc013ed90cf109e63a341c4a6f",
        "report.json": "b320499d02e594f9fd224c3ff2990094249732a6868a54079ed71d580feab3df",
    },
    ("grid9", "frontier"): {
        "curves.csv": "23dbb37c4e1fa8a3e1a02910cf2dede420f9e43f45e6abaccf9d7aefc8192e9c",
        "policies.json": "0748ac5454120fbb8e417d65c48055e9115aa11f95e3731925b5140b03c74313",
        "report.json": "14f7f5c5532fc36c4d29e029a186344f38a98841ab036b661d6f21c252f4eeb0",
    },
    ("slip", "augmented"): {
        "curves.csv": "372ab4fbca43755d929fd4b138b0ea4278ce192787c4017ef1448d0f1d1c1338",
        "policies.json": "b80905a9cad30cd6bcbb15f286ea42814d64fd9ea8f7c9a6908b7453ff95b64f",
        "report.json": "f60b61c387850340f7122e871b8a549cb7baa20de16f2e2f8a21e6b8db0644c0",
    },
    ("slip", "degeneralized"): {
        "curves.csv": "3bd044b6180612ca8874abb821c522d5ff53eea31028296f14f2256b0f3b5395",
        "policies.json": "6e36df5298669fc303c225a2cecc38bffb84fd3196d173438855f3dc72889ba7",
        "report.json": "2b94a83824b547cc6d0742d626402bd56e6dde1a3722c019f7abf38765806fde",
    },
    ("slip", "frontier"): {
        "curves.csv": "0904fb98dd87f08344b086abe2fdee6f27135457ba86dad1221c1871fd39d60f",
        "policies.json": "2c166502b6ab842ac76ad9c542fc070635fcc6b7b637e78e98272e0d194a1875",
        "report.json": "889f6b64edba87b18adfc4d223256fde820448fe4547d23ec609a1577122da23",
    },
}

GOLDEN_LIBRARY = {
    "augmented": "59558754d8d6a32f8470212ba1a1236647eb8fc02a42987abd2afadc4408ab0d",
    "degeneralized": "4f0d3daaf47374d69ec949dd97120b02c54c47c5e3d515fea3d82086a626cb7e",
    "frontier": "709e3c8488cbff8390659bd543d614abda408587951700364a274f79e9dcf9aa",
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
def test_golden_library_run(method):
    """A library run long enough that every method earns reward, so that its
    pin covers learned Q-values and not only zeros."""
    product, scheme = method_product_and_scheme(
        ENVIRONMENTS["grid9"](), named_fixture("gfa_gfb_gnc"), method, 2.0
    )
    cfg = TrainConfig(episodes=200, steps_per_episode=250, sessions=2, rng_seed=25)
    result = train(product, scheme, cfg, track_satisfaction=False)
    assert any(v for q in result.qtables for v in q.values)
    digest = hashlib.sha256(result.curve.per_session.tobytes())
    for q in result.qtables:
        digest.update(repr(sorted(zip(product.keys, q.values))).encode())
    assert digest.hexdigest() == GOLDEN_LIBRARY[method]


TRANSFORMS = {
    "augment": augment,
    "merge_augment": lambda b: merge_unaccepting(augment(b)),
    "degeneralize": degeneralize,
    "augment_degeneralize": lambda b: augment(degeneralize(b)),
}
GAMMAS = (0.0, 0.5, 0.95, 0.99)

GOLDEN_TRANSFORMS = {
    ("fg_a", "augment"):
        "452ee7f8b7733acffa90a6ae6da43e022d2028d8dc671a87d46f447d97fb34d7",
    ("fg_a", "augment_degeneralize"):
        "07d295971c3b33ce55a59c20e9af2fb1dc0f7c779998f3f720a42c305fe76c0c",
    ("fg_a", "degeneralize"):
        "e8b73157115494f87074d6e846e96bacdf7c657d8769e462d9662d3775ee2f8c",
    ("fg_a", "merge_augment"):
        "83c9bba71ec4dc9d9c303aa7bdb8d11767ecabed386a70f7446cb36ec76839fa",
    ("gfa_gfb_gnc", "augment"):
        "d01f7550701bd0689a02c17333e62558a434c85c472fd4834b42a4c0c5e16c08",
    ("gfa_gfb_gnc", "augment_degeneralize"):
        "ac3afb68b70623d61b4e8f6e0d36cb1d4ea2391798e0b83c97da71cb43fb8630",
    ("gfa_gfb_gnc", "degeneralize"):
        "7983221950febe6aea60754d9e1afe154487331ae23a15d14d4ecdee87282197",
    ("gfa_gfb_gnc", "merge_augment"):
        "cff27547b646883869e20df931f21354a4b6956b5891e7e8b870ac60d13e1054",
}

GOLDEN_PRODUCTS = {
    ("grid9", "augmented"):
        "f239a6cd4fa994bdca5252e3d2370422f22dee8e39b8d5c474b4e8ac9cbc160a",
    ("grid9", "degeneralized"):
        "25908ea85c9c26ffb9e5edc497070ff37ad68e2f08688401f283f53cbd2de8d8",
    ("grid9", "frontier"):
        "383543228c338a6cda9b0449b7b6e67729676c4d571ecd540f87cbc18ae7a56c",
    ("slip", "augmented"):
        "675aff8f9c30a6c6201317aaf2516f7b46643fd660426090049fdeb182cd4987",
    ("slip", "degeneralized"):
        "b25e000de36690f6cd04d86e48c553476659115857256663e4aeaa21c83eed7e",
    ("slip", "frontier"):
        "378e22bb66374c76abfe0bf7d0429fc58e2d0202b870b6723e95da7bdba5d19b",
}

GOLDEN_ORACLE = {
    ("grid9", "augmented"):
        "e8e7eaba0101de89537e3a409bed5e7eb1e2cd1354e2e54786712fd97c25afff",
    ("grid9", "degeneralized"):
        "8b741f4eebe28694038fa17a0af324c1555e8b6b51a6b327b69db71ca4c2be75",
    ("grid9", "frontier"):
        "39846db2cb6f1a7ade3b6a5968d5f88b06d18c627d840ed1de5883a228a5dbf8",
    ("slip", "augmented"):
        "2c85ce89a6025f63b9b5fdb216af613b641a68cdfc5cb1986424e50a1dafa690",
    ("slip", "degeneralized"):
        "764d6e929279e3b2b89365904f5ca91fc6688ad8d0af41c6e2eaa57a1a5df1df",
    ("slip", "frontier"):
        "2eb1ed57b754fc07953ec97f0d3c3fd7a66bee447d97866f75f1c8f5e6d4e0bc",
}


def environment(env: str):
    return ENVIRONMENTS["grid9"]() if env == "grid9" else parse_mdp(slip_mdp_text())


def text_sha256(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("fixture,transform", sorted(GOLDEN_TRANSFORMS))
def test_golden_transform(fixture, transform):
    b = TRANSFORMS[transform](named_fixture(fixture))
    assert text_sha256(serialize_automaton(b), b.names) == GOLDEN_TRANSFORMS[(fixture, transform)]


@pytest.mark.parametrize("env,method", sorted(GOLDEN))
def test_golden_product(env, method):
    base = environment(env)
    product, _ = method_product_and_scheme(base, named_fixture("gfa_gfb_gnc"), method, 2.0)
    m = product.mdp
    aut_edge = [
        (t, e.src, "eps" if e.is_epsilon() else sorted(e.letter), e.dst)
        for t, e in product_aut_edge(base, product).items()
    ]
    digest = text_sha256(
        m.state_names,
        product.pairs,
        m.enabled,
        list(m.prob.items()),
        sorted((t, sorted(letter)) for t, letter in m.label.items()),
        [sorted(acc) for acc in product_acceptance(base, product)],
        aut_edge,
    )
    assert digest == GOLDEN_PRODUCTS[(env, method)]


@pytest.mark.parametrize("env,method", sorted(GOLDEN))
def test_golden_value_iteration(env, method):
    product, _ = method_product_and_scheme(
        environment(env), named_fixture("gfa_gfb_gnc"), method, 2.0
    )
    runs = []
    for gamma in GAMMAS:
        values, policy = value_iteration(product, gamma, 2.0)
        runs.append((sorted(values.items()), sorted(policy.choice.items())))
    assert text_sha256(*runs) == GOLDEN_ORACLE[(env, method)]

"""Policy synthesis for labeled MDPs under LTL specifications.

The pipeline: an LTL specification is recognized by a limit-deterministic
generalized Buchi automaton; the automaton is augmented with a memory
bitmask recording visited accepting sets; the product with the controlled
MDP yields a reward function whose optimal discounted policies positively
satisfy the specification, learnable by tabular Q-learning.
"""

from .augment import augment, merge_unaccepting
from .automata import (
    EPSILON,
    AutomatonError,
    LimitDetPartition,
    NotLimitDeterministic,
    TGba,
    Transition,
    accepts_lasso,
    check_limit_deterministic,
    degeneralize,
    lasso_acceptor,
    load_automaton,
    named_fixture,
    parse_automaton,
    serialize_automaton,
)
from .learn import (
    LearningCurve,
    QTable,
    TrainConfig,
    TrainResult,
    greedy_policy,
    train,
    value_iteration,
)
from .ltl import (
    CycleTable,
    Formula,
    LassoWord,
    ParseError,
    atoms,
    eval_lasso,
    format_ltl,
    formula_evaluator,
    lasso,
    load_formula,
    parse_ltl,
)
from .mdp import (
    LabeledMdp,
    MarkovChain,
    MdpError,
    PositionalPolicy,
    RecurrenceDecomposition,
    UndefinedChoice,
    decompose,
    induce_chain,
    load_mdp,
    parse_mdp,
    reach_probability,
    serialize_mdp,
)
from .product import (
    AcceptingReward,
    AlphabetMismatch,
    FrontierReward,
    MissingAutomatonMove,
    NondeterministicMove,
    PolicyEvaluation,
    ProductMdp,
    RewardScheme,
    build_product,
    check_positional_impossibility,
    evaluate_policy,
)

__version__ = "0.1.0"

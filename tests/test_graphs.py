import networkx as nx
import numpy as np
import pytest

from helpers import random_dichotomy_instance
from omegarl.graphs import close_rows, end_components, explore, reaching
from omegarl.product import method_product

# "b" loops on itself, "a" lists "b" twice, and a depth-first walk would
# number "d" before "c"
GRAPH = {"a": ["b", "c", "b"], "b": ["b", "d"], "c": ["a", "e"], "d": [], "e": ["d"]}


def edges(node):
    for k, nxt in enumerate(GRAPH[node]):
        yield nxt, f"{node}{nxt}{k}"


def rows_of(start, edges):
    """``explore`` from ``start`` with each node's ``(edge, id)`` row, as
    ``number`` gave the ids, and the nodes in the order they were expanded."""
    rows, expanded = [], []

    def expand(node, number):
        expanded.append(node)
        rows.append([(edge, number(nxt)) for nxt, edge in edges(node)])

    return explore(start, expand), rows, expanded


def test_explore_numbers_nodes_breadth_first_in_discovery_order():
    order, rows, expanded = rows_of("a", edges)
    assert order == ["a", "b", "c", "d", "e"]
    assert expanded == order  # each node is expanded once, in numbering order
    assert rows == [
        [("ab0", 1), ("ac1", 2), ("ab2", 1)],
        [("bb0", 1), ("bd1", 3)],
        [("ca0", 0), ("ce1", 4)],
        [],
        [("ed0", 3)],
    ]


def test_explore_numbers_a_node_it_is_expanding_by_its_own_id():
    ids = []
    explore("a", lambda node, number: ids.append(number(node)))
    assert ids == [0]


def test_explore_from_a_sink():
    assert rows_of("d", edges)[:2] == (["d"], [[]])


def test_explore_lets_a_successor_error_through():
    class Boom(Exception):
        pass

    error = Boom("no move from c")

    def failing(node):
        if node == "c":
            raise error
        return edges(node)

    with pytest.raises(Boom) as caught:
        rows_of("a", failing)
    assert caught.value is error


def test_reaching_gives_the_targets_and_their_networkx_ancestors():
    """On random digraphs with self-loops, parallel edges and nodes without
    edges: the targets themselves, whether or not an edge touches them, and
    every node with a path to one of them."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 20, 60):
        for _ in range(10):
            count = int(rng.integers(0, 2 * n + 1))
            edges = [tuple(e) for e in rng.integers(0, n, (count, 2)).tolist()]
            targets = set(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
            g = nx.MultiDiGraph(edges)
            g.add_nodes_from(range(n))
            expect = targets.union(*(nx.ancestors(g, t) for t in targets))
            assert reaching(targets, iter(edges)) == expect


def test_close_rows_closes_each_bit_slice_as_networkx_does():
    """A batch of 70 relations, wider than one 64-bit word, bit-sliced into
    ints, over up to 130 states and with extra columns that are reached but
    lead nowhere: each relation checked, the lowest two and highest one and
    those on either side of bit 64, closes to networkx's transitive
    closure, so a state reaches itself only around a cycle."""
    rng = np.random.default_rng(5)
    width = 70
    for n, extra in ((1, 0), (7, 2), (64, 0), (65, 3), (130, 1)):
        adj = rng.random((width, n, n + extra)) < 2 / n
        packed = np.packbits(adj, axis=0, bitorder="little")
        rows = [[int.from_bytes(packed[:, x, y].tobytes(), "little") for y in range(n + extra)]
                for x in range(n)]
        got = close_rows(rows)
        assert len(got) == n and {len(row) for row in got} == {n + extra}
        for j in (0, 1, 63, 64, width - 1):
            g = nx.DiGraph(zip(*np.nonzero(adj[j])))
            g.add_nodes_from(range(n + extra))
            expect = nx.transitive_closure(g, reflexive=False)
            closed = {(x, y) for x, row in enumerate(got)
                      for y, bits in enumerate(row) if bits >> j & 1}
            assert closed == set(expect.edges)


def networkx_end_components(allowed, succ):
    """``end_components`` by the same fixpoint on networkx's SCCs: drop each
    pair with a successor outside its state's SCC until nothing drops."""
    kept = [set(pairs) for pairs in allowed]
    while True:
        g = nx.DiGraph((x, y) for x, pairs in enumerate(kept) for q in pairs for y in succ[q])
        g.add_nodes_from(range(len(kept)))
        comps = list(nx.strongly_connected_components(g))
        scc = {x: i for i, comp in enumerate(comps) for x in comp}
        inside = [{q for q in pairs if all(scc[y] == scc[x] for y in succ[q])}
                  for x, pairs in enumerate(kept)]
        if inside == kept:
            break
        kept = inside
    return sorted((tuple(sorted(comp)), tuple(sorted(q for x in comp for q in kept[x])))
                  for comp in comps if any(kept[x] for x in comp))


def test_end_components_match_a_networkx_fixpoint():
    """On the augmented products of the recurrence-dichotomy generator, with
    every pair allowed and with only the pairs that avoid one accepting set:
    the components equal networkx's fixpoint, lowest state first, and each
    is closed and strongly connected under its pairs."""
    # pair 1 leads from state 0 to the end component {1}, so no component keeps it
    assert end_components([[0, 1], [2]], [(0,), (1,), (1,)]) == [((0,), (0,)), ((1,), (2,))]
    sizes = []
    for seed in range(80):
        p = method_product(*random_dichotomy_instance(seed), "augmented")
        spans = list(zip(p.first, p.first[1:]))
        for avoid in (0, *(1 << j for j in range(p.automaton.n_sets))):
            allowed = [[q for q in range(lo, hi) if not any(m & avoid for m in p.masks[q])]
                       for lo, hi in spans]
            got = end_components(allowed, p.succ)
            assert got == networkx_end_components(allowed, p.succ), (seed, avoid)
            for states, pairs in got:
                assert {p.keys[q][0] for q in pairs} == set(states)
                assert all(q in allowed[p.keys[q][0]] for q in pairs)
                g = nx.DiGraph((p.keys[q][0], y) for q in pairs for y in p.succ[q])
                assert set(g) == set(states) and nx.is_strongly_connected(g)
            sizes += [len(states) for states, _ in got]
    assert len(sizes) > 100 and max(sizes) > 1

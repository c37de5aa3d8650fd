import networkx as nx
import numpy as np
import pytest

from omegarl.graphs import close_rows, explore, pack_rows, unpack_rows

# "b" loops on itself, "a" lists "b" twice, and a depth-first walk would
# number "d" before "c"
GRAPH = {"a": ["b", "c", "b"], "b": ["b", "d"], "c": ["a", "e"], "d": [], "e": ["d"]}


def edges(node):
    for k, nxt in enumerate(GRAPH[node]):
        yield nxt, f"{node}{nxt}{k}"


def test_explore_numbers_nodes_breadth_first_in_discovery_order():
    visited = []

    def successors(node):
        visited.append(node)
        return edges(node)

    order, rows = explore("a", successors)
    assert order == ["a", "b", "c", "d", "e"]
    assert visited == order  # each node is expanded once, in numbering order
    assert rows == [
        [("ab0", 1), ("ac1", 2), ("ab2", 1)],
        [("bb0", 1), ("bd1", 3)],
        [("ca0", 0), ("ce1", 4)],
        [],
        [("ed0", 3)],
    ]


def test_explore_from_a_sink():
    assert explore("d", edges) == (["d"], [[]])


def test_explore_lets_a_successor_error_through():
    class Boom(Exception):
        pass

    error = Boom("no move from c")

    def successors(node):
        if node == "c":
            raise error
        return edges(node)

    with pytest.raises(Boom) as caught:
        explore("a", successors)
    assert caught.value is error


def test_bitset_rows_round_trip_and_close_as_networkx_does():
    """Across one and several 64-bit words, and with extra columns that are
    reached but lead nowhere: a state reaches itself only around a cycle."""
    rng = np.random.default_rng(5)
    for n, extra in ((1, 0), (7, 2), (64, 0), (65, 3), (130, 1)):
        adj = rng.random((n, n + extra)) < 2 / n
        words = pack_rows(adj)
        assert words.shape == (n, (n + extra + 63) // 64)
        assert np.array_equal(unpack_rows(words, n + extra), adj)
        g = nx.DiGraph(zip(*np.nonzero(adj)))
        g.add_nodes_from(range(n + extra))
        expect = nx.transitive_closure(g, reflexive=False)
        got = unpack_rows(close_rows(words), n + extra)
        assert {(int(x), int(y)) for x, y in zip(*np.nonzero(got))} == set(expect.edges)

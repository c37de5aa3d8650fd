import networkx as nx
import numpy as np
import pytest

from omegarl.graphs import close_rows, explore

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

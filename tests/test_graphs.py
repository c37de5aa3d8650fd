import pytest

from omegarl.graphs import explore

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

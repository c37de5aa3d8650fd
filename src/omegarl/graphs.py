"""Small graph utilities shared by the automata and Markov-chain analyses,
and batches of relations stored as numpy bitset rows."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

import numpy as np

Node = Hashable


def explore(
    start: Node, successors: Callable[[Node], Iterable[tuple[Node, object]]]
) -> tuple[list[Node], list[list[tuple[object, int]]]]:
    """Breadth-first numbering of the nodes reachable from ``start``.

    ``successors(node)`` yields ``(next_node, edge)`` pairs.  Nodes are
    numbered in discovery order, ``start`` as 0.  Returns the nodes in that
    order and, per node, its ``(edge, id)`` row in the order yielded.
    """
    index = {start: 0}
    order = [start]
    rows: list[list[tuple[object, int]]] = []
    for node in order:  # order grows as it is walked, which makes it the FIFO queue
        row = []
        for nxt, edge in successors(node):
            i = index.get(nxt)
            if i is None:
                i = index[nxt] = len(order)
                order.append(nxt)
            row.append((edge, i))
        rows.append(row)
    return order, rows


def strongly_connected_components(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> list[list[Node]]:
    """Tarjan's algorithm, iterative to avoid recursion limits.

    Components are returned in reverse topological order (every edge leaving
    a component points to a component that appears earlier in the list).
    """
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    comps: list[list[Node]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[Node, Iterable[Node]]] = [(root, iter(successors(root)))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    pushed = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if pushed:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps


def closure(seeds: Iterable[Node], neighbours: Callable[[Node], Iterable[Node]]) -> set[Node]:
    """All nodes reachable from some seed along ``neighbours`` (seeds included);
    given predecessors, all nodes from which some seed is reachable."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for w in neighbours(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Boolean rows ``(..., n)`` as bitsets ``(..., ceil(n / 64))`` of uint64
    words, column ``i`` at bit ``i % 64`` of word ``i // 64``."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = np.zeros(packed.shape[:-1] + (-packed.shape[-1] % 8,), dtype=np.uint8)
    return np.concatenate((packed, pad), axis=-1).view("<u8")


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` columns of :func:`pack_rows` bitsets, as booleans."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def holding(words: np.ndarray, m: int) -> np.ndarray:
    """Per bitset row, a word of ones if it holds column ``m``, else zero."""
    return 0 - (words[..., m >> 6] >> np.uint64(m & 63) & np.uint64(1))


def close_rows(words: np.ndarray) -> np.ndarray:
    """Warshall's algorithm, in place, on ``(..., n, W)`` bitset rows: row
    ``x`` comes to hold every column reachable from ``x`` in one or more
    steps; columns past ``n`` lead nowhere.  Returns ``words``."""
    for m in range(words.shape[-2]):
        words |= holding(words, m)[..., None] & words[..., m : m + 1, :]
    return words

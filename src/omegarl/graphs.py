"""Small graph utilities shared by the automata and Markov-chain analyses."""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable

Node = Hashable


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


def backward_closure(targets: Iterable[Node], predecessors: Callable[[Node], Iterable[Node]]) -> set[Node]:
    """All nodes from which some target is reachable (targets included)."""
    seen = set(targets)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in predecessors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen

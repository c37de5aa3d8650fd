"""Small graph utilities shared by the automata and Markov-chain analyses,
and the transitive closure of relations bit-sliced into Python ints."""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Iterable, Sequence

Node = Hashable


def explore(start: Node, expand: Callable[[Node, Callable[[Node], int]], None]) -> list[Node]:
    """Breadth-first numbering of the nodes reachable from ``start``.

    ``expand(node, number)`` is called once per node, in numbering order;
    ``number(next_node)`` returns a node's id, giving the next free id to a
    node on first sight, and the nodes it numbers are the ones expanded
    later.  ``start`` is 0.  Returns the nodes in numbering order.
    """
    order = [start]
    ids = _Ids(order)
    ids[start] = 0
    for node in order:  # order grows as it is walked, which makes it the FIFO queue
        expand(node, ids.__getitem__)
    return order


class _Ids(dict):
    """Node -> id; a missing node gets the next id and joins ``order``."""

    def __init__(self, order: list[Node]):
        self.order = order

    def __missing__(self, node: Node) -> int:
        self[node] = i = len(self.order)
        self.order.append(node)
        return i


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


def end_components(
    allowed: list[list[int]], succ: Sequence[Sequence[int]]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Maximal end components when state ``x`` may take only the pairs
    ``allowed[x]`` and pair ``q`` moves to the states ``succ[q]``.  Find the
    SCCs of the allowed pairs' graph, drop every pair with a successor
    outside its state's SCC, and repeat until nothing drops.  Returns each
    component that keeps a pair, as its ascending states and pairs, by
    ascending lowest state."""
    kept = allowed
    while True:
        edges = [[y for q in pairs for y in succ[q]] for pairs in kept]
        comps = strongly_connected_components(range(len(kept)), edges.__getitem__)
        scc = {x: i for i, comp in enumerate(comps) for x in comp}
        inside = [[q for q in pairs if all(scc[y] == scc[x] for y in succ[q])]
                  for x, pairs in enumerate(kept)]
        if inside == kept:
            break
        kept = inside
    return sorted((tuple(sorted(comp)), tuple(sorted(q for x in comp for q in kept[x])))
                  for comp in comps if kept[comp[0]])


def closure(seeds: Iterable[Node], neighbours: Callable[[Node], Iterable[Node]]) -> set[Node]:
    """All nodes reachable from some seed along ``neighbours``, seeds
    included."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for w in neighbours(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reaching(targets: Iterable[Node], edges: Iterable[tuple[Node, Node]]) -> set[Node]:
    """All nodes from which some target is reachable along the ``(src,
    dst)`` edges, the targets included."""
    preds: defaultdict[Node, list[Node]] = defaultdict(list)
    for src, dst in edges:
        preds[dst].append(src)
    return closure(targets, preds.__getitem__)


def close_rows(rows: list[list[int]]) -> list[list[int]]:
    """Warshall's algorithm, in place, on relations bit-sliced into ints: bit
    ``j`` of ``rows[x][y]`` says that relation ``j`` relates ``x`` to ``y``.
    Row ``x`` comes to hold, per relation, every column reachable from ``x``
    in one or more steps; columns past ``len(rows)`` lead nowhere.  Returns ``rows``."""
    for m, through in enumerate(rows):
        leads = [(y, bits) for y, bits in enumerate(through) if bits]
        for row in rows:
            if via := row[m]:
                for y, bits in leads:
                    row[y] |= via & bits
    return rows

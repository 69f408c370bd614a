"""Residue components by breadth-first search: a reference for the test suite.

The library computes each residue partition with a union-find and keeps it
on the graph, so later calls read the stored partition.  This module
recomputes the components of G_I from the matchings alone on every call,
with nothing stored, so tests can compare the two.
"""

from collections import deque
from typing import Iterable, Tuple


def residue_components(G, I: Iterable[int]) -> Tuple[Tuple[int, ...], ...]:
    """Components of G_I, ordered by minimum vertex, each sorted ascending."""
    neighbours = {v: [] for v in range(1, G.n + 1)}
    for c in set(I):
        for w, b in enumerate(G.matchings[c - 1], start=1):
            neighbours[w].append(b)
            neighbours[b].append(w)
    seen = set()
    components = []
    for start in range(1, G.n + 1):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in neighbours[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        components.append(tuple(sorted(comp)))
    return tuple(components)

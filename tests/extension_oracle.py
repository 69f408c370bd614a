"""The extension bound by testing every third matching: a reference for the tests.

The library builds the third matching edge by edge, follows its 2-colouring
in one union-find with undo and counts the cycles of m1 u m3 and m2 u m3 as
they close, by the far ends of their paths.  This loop materialises all
(n-1)!! perfect matchings of [1..n] and, for each, runs a 2-colouring search
over the three matchings and two union-finds from scratch, so the tests can
compare every report field of the two.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from gemkit import ExtensionBoundReport, all_perfect_matchings


def union_components(ms: Sequence[Sequence[int]], n: int) -> int:
    """Components of the union of the matchings ms on [1..n].

    Every m must be a fixed-point-free involution (as
    all_perfect_matchings guarantees): each edge is then read once, at
    its smaller end, and the count falls by one per merge.
    """
    parent = list(range(n + 1))
    components = n
    for m in ms:
        for v, u in enumerate(m, start=1):
            if v > u:
                continue  # an involution lists each edge twice
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            if v != u:
                parent[v] = u
                components -= 1
    return components


def two_colouring(ms: Sequence[Sequence[int]], n: int) -> Optional[Tuple[int, List[int]]]:
    """(components, side) of the union of the matchings ms on [1..n], where
    side[v] is 0 (white) or 1 (black), or None if the union has an odd cycle.

    One search runs from the smallest vertex of each component, which takes
    the white side.
    """
    side = [-1] * (n + 1)
    components = 0
    for start in range(1, n + 1):
        if side[start] >= 0:
            continue
        components += 1
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            other = side[v] ^ 1
            for m in ms:
                u = m[v - 1]
                if side[u] < 0:
                    side[u] = other
                    stack.append(u)
                elif side[u] != other:
                    return None
    return components, side


def extension_bound(m1: Sequence[int], m2: Sequence[int]) -> ExtensionBoundReport:
    """verify_extension_bound's report for valid involutions m1, m2."""
    n = len(m1)
    c = union_components((m1, m2), n)
    buckets: Dict[int, int] = {}
    tried = planar = 0
    for m3 in all_perfect_matchings(n):
        tried += 1
        coloured = two_colouring((m1, m2, m3), n)
        if coloured is None:
            continue
        k = coloured[0]
        # the (m1, m2) cycles are the base's components
        cycles = c + union_components((m1, m3), n) + union_components((m2, m3), n)
        if cycles == 2 * k + n // 2:
            planar += 1
            buckets[k] = buckets.get(k, 0) + 1
    bounds = {k: 2 ** (5 * n) * n ** (c - k) for k in buckets}
    violations = [k for k, cnt in buckets.items() if cnt > bounds[k]]
    return ExtensionBoundReport(n, c, buckets, bounds, violations, tried, planar)

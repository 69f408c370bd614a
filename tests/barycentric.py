"""Barycentric order complex of G_I: a reference builder for the test suite.

The library computes homology on the coloured Δ-complex of residues.  This
module builds the barycentric subdivision of the same space independently:
its vertices are the cells (S, C), ordered by (S1, C1) <= (S2, C2) iff S1
is a subset of S2 and C2's vertex set lies inside C1's, and its simplices
are the strict chains of that order.  Along a strict chain |S| strictly
increases, so the complex has dimension |I| - 1.  Equal Betti vectors from
the two builders are the cross-check; the rank computation is shared.
"""

import itertools
from typing import List, Tuple

from gemkit import OrderComplex, residues
from gemkit.graph import _check_colours


def barycentric_complex(G, I) -> OrderComplex:
    colours = _check_colours(G, I)
    # cells as (level, colour subset, component index, minimum vertex)
    partitions = {}
    cells: List[Tuple[int, Tuple[int, ...], int, int]] = []
    for r in range(1, len(colours) + 1):
        level = []
        for S in itertools.combinations(colours, r):
            part = residues(G, [c for c in colours if c not in S])
            partitions[S] = part
            for idx, comp in enumerate(part.components):
                level.append((r, S, idx, comp[0]))
        level.sort(key=lambda e: (e[3], e[1]))
        cells.extend(level)

    # successors[i] = cells j with cell i strictly below cell j
    successors: List[List[int]] = [[] for _ in cells]
    for j, (level_j, S_j, _, rep) in enumerate(cells):
        for i, (level_i, S_i, idx_i, _) in enumerate(cells):
            if level_i < level_j and set(S_i) <= set(S_j):
                if partitions[S_i].component_of[rep] == idx_i:
                    successors[i].append(j)

    simplices = [[(i,) for i in range(len(cells))]]
    while True:
        extended = sorted(
            chain + (j,) for chain in simplices[-1] for j in successors[chain[-1]]
        )
        if not extended:
            break
        simplices.append(extended)
    assert len(simplices) == len(colours), "maximal chains use every level once"

    boundaries = []
    for k in range(1, len(simplices)):
        face_index = {chain: i for i, chain in enumerate(simplices[k - 1])}
        boundaries.append([
            [(face_index[chain[:p] + chain[p + 1:]], (-1) ** p) for p in range(len(chain))]
            for chain in simplices[k]
        ])
    return OrderComplex([len(s) for s in simplices], boundaries)

"""Exact Betti numbers, and a graph the quick tests cannot settle.

The residues of a graph are the cells of a Δ-complex (one (|S|-1)-cell per
colour set S and component of the residue on the other colours), so its
homology is computable by exact column reduction with no floating point
anywhere.  The second half shows the honest limit of the method: a
4-colour graph with no dipoles whose Betti numbers match the 3-sphere, where
the verdict machinery reports Unknown rather than guessing.
"""

from gemkit import (
    ColourfulGraph,
    betti_numbers,
    find_dipoles,
    is_rational_homology_sphere,
    is_sphere,
    order_complex,
)

torus = ColourfulGraph(2, ((4, 5, 6), (5, 6, 4), (6, 4, 5)))
K = order_complex(torus, (1, 2, 3))
print(f"torus complex: {K.f_counts()} cells, chi={K.euler_characteristic()}")
print(f"  betti={betti_numbers(K).betti}")

print()
ident, swap = (3, 4), (4, 3)
G = ColourfulGraph(3, (ident, ident, swap, swap))
print(f"split-pair graph: n={G.n}, dipoles available: {find_dipoles(G)}")

rhs = is_rational_homology_sphere(G, (1, 2, 3, 4), tuple(range(1, G.n + 1)))
print(f"rational homology sphere: {rhs.status.value}  [{rhs.certificate}]")

verdict = is_sphere(G)
print(f"sphere: {verdict.status.value}  [{verdict.certificate}]")

"""A guided tour of one small 3-sphere.

The graph: four vertices, four colours.  Three matchings are parallel and
the fourth crosses, which glues two stacks of tetrahedra along their common
boundary sphere.  Every analysis the library offers agrees that the encoded
space is S^3, and each answer comes with a checkable certificate.
"""

from gemkit import (
    ColourfulGraph,
    betti_numbers,
    genus_of_residue,
    is_manifold,
    is_sphere,
    kappa_table,
    melonic_reduce,
    order_complex,
    residues,
    write_cgf,
)

G = ColourfulGraph(3, ((3, 4), (3, 4), (3, 4), (4, 3)))

print("The graph, in CGF:")
print(write_cgf(G, comment="two glued tetrahedra stacks"))

print("Component counts per colour subset (size;colours;kappa):")
for I, value in kappa_table(G).items():
    print(f"  {len(I)};{','.join(map(str, I)) or '-'};{value}")

print()
print("Genus of every 3-coloured residue component:")
for I in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
    for comp in residues(G, I).components:
        emb = genus_of_residue(G, I, comp)
        print(f"  I={I} component of {comp[0]}: V={emb.V} E={emb.E} "
              f"F={emb.F} genus={emb.genus}")

print()
trace = melonic_reduce(G)
print(f"Greedy dipole reduction: {len(trace.moves)} move(s) "
      f"{trace.moves_text()}, terminal n={trace.terminal.n}")

K = order_complex(G, (1, 2, 3, 4))
print(f"Residue complex: {K.f_counts()} cells per dimension, "
      f"chi={K.euler_characteristic()}")
print(f"Rational Betti numbers: {betti_numbers(K).betti}")

print()
for name, verdict in (("manifold", is_manifold(G)), ("sphere", is_sphere(G))):
    print(f"{name}: {verdict.status.value}   [{verdict.certificate}]")

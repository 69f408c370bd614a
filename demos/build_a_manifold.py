"""Assemble manifold graphs from two permutations and count how many exist.

Build a glued graph from a pair of permutations and read back the base
gadget's open/full degree pattern from its gluing edges, then confirm the
result has every guarantee the family promises: connectedness, a single
residue per proper colour subset, the vertex count formula, and a manifold
verdict.  At the end, grow the instance into higher dimension while keeping
every colour pair planar, and watch the manifold question become genuinely
harder.
"""

from gemkit import (
    ConstructionParams,
    build_manifold,
    build_planar_family,
    complex_vertex_count,
    compose_inverse,
    count_cycles,
    family_size_lower_bound,
    has_property_P,
    is_connected,
    is_manifold,
    kappa_table,
    random_construction_params,
)

# for odd d the gluing permutations must preserve index parity, so the
# smallest non-trivial choice at d=3 is a swap across positions 1 and 3
d, k = 3, 3
params = ConstructionParams(d, k, (3, 2, 1), (1, 2, 3))
G = build_manifold(params)

# build_manifold first lays out the base gadget, which leaves the
# colour-(d+1) slot open at the 4k positions divisible by d, and then glues
# those slots in pairs along sigma and tau.  Every other colour-(d+1) edge
# joins the two ends of one column (white w, black n/2 + w), so the gluing
# edges are the ones that leave their column.
glued = [w for w, b in enumerate(G.matchings[d], start=1) if b != G.half + w]
open_cols = 2 * len(glued)
print(f"base graph for d={d}, k={k}: n={G.n},"
      f" open columns (degree {d}): {open_cols},"
      f" full columns: {G.n - open_cols}")
print(f"gluing edges along sigma and tau: {len(glued)} (2k = {2 * k})")
print(f"glued graph: n={G.n}, connected={is_connected(G)}")

kt = kappa_table(G)
print(f"  residue on colours 1..{d} is a single component:"
      f" kappa={kt[tuple(range(1, d + 1))]}")

c = count_cycles(compose_inverse(params.sigma, params.tau))
print(f"  vertex count: V={complex_vertex_count(G)} and 3*cycles+3={3 * c + 3}")

print(f"  property (P): {has_property_P(G)}")
verdict = is_manifold(G)
print(f"  manifold: {verdict.status.value}  [{verdict.certificate}]")

print()
print(f"labelled graphs of this glued shape, (admissible sigma)^2 * n!/4:"
      f" {family_size_lower_bound(d, k)}")

# random members of the family are manifolds too
rng_params = random_construction_params(d, k, seed=7)
print(f"random member (seed 7): sigma={rng_params.sigma}"
      f" tau={rng_params.tau} ->"
      f" {is_manifold(build_manifold(rng_params)).status.value}")

print()
print("planar extension to d=4 and d=5:")
for target in (4, 5):
    H = build_planar_family(G, target)
    v = is_manifold(H)
    print(f"  d={target}: n={H.n}, property (P) {has_property_P(H)},"
          f" manifold {v.status.value}  [{v.certificate}]")

"""How big does the encoded triangulation get as the graph grows?

Sampling gluing permutations uniformly, the cycle count of sigma tau^{-1}
concentrates near the harmonic number H_k, so the triangulation's vertex
count grows like 3 log k while the graph grows linearly.  The table makes
the drop in V/n visible at modest sizes.
"""

from gemkit import harmonic_number, mean_cycles_uniform, vn_experiment

for k in (10, 100, 1000):
    est = mean_cycles_uniform(k, samples=1000, seed=1)
    print(f"k={k:>5}: mean cycles {est:.3f}   H_k={harmonic_number(k):.3f}")

print()
report = vn_experiment((5, 10, 20, 40, 80), samples=200, seed=3)
for line in report.table_rows():
    print(line)

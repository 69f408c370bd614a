"""Check the counting inequalities against every small graph.

Two audits.  The first sweeps all 4-colour graphs on up to six vertices and
confirms the 3-subset component bound with its exact worst-case slack, plus
the alternating identity that separates sphere components from the rest.
The second fixes two matchings on six vertices and counts planar
completions by a third, comparing against the coarse exponential bound,
then runs that check on every pair of matchings with n <= 8.
"""

import itertools

from gemkit import all_perfect_matchings, verify_extension_bound, verify_lemma_bounds


def cycle_type(m1, m2):
    """Sorted lengths of the alternating cycles of m1 u m2."""
    seen, lengths = set(), []
    for start in range(1, len(m1) + 1):
        v, length = start, 0
        while v not in seen:
            u = m1[v - 1]
            seen.update((v, u))
            length += 2
            v = m2[u - 1]
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


for n in (2, 4, 6):
    rep = verify_lemma_bounds(3, n, check_5=False)
    print(f"n={n}: {rep.graphs} graphs, {rep.checked_3} subset checks,"
          f" violations={rep.violations_3},"
          f" min slack={rep.min_slack_3},"
          f" identity mismatches={rep.identity_mismatches}")

rep5 = verify_lemma_bounds(4, 2, check_5=True)
print(f"d=4 n=2 with 5-subsets: checked_5={rep5.checked_5},"
      f" violations={rep5.violations_5}, min slack={rep5.min_slack_5}")

print()

# base: a single 6-cycle from two interleaved matchings
m1 = (2, 1, 4, 3, 6, 5)
m2 = (6, 3, 2, 5, 4, 1)
ext = verify_extension_bound(m1, m2)
print(f"extension base on n={ext.n}: {ext.base_components} component(s),"
      f" {ext.extensions_tried} third matchings tried,"
      f" {ext.planar_extensions} planar")
for k in sorted(ext.buckets):
    print(f"  k={k}: {ext.buckets[k]} extensions, bound {ext.bounds[k]}")
print(f"bound violations: {ext.violations or 'none'}")

# the n <= 8 battery: every base pair of perfect matchings of [1..n]; a
# report depends only on the pair's cycle type, so each type is searched once
pairs, types, violations = 0, set(), 0
for n in (0, 2, 4, 6, 8):
    for m1, m2 in itertools.product(all_perfect_matchings(n), repeat=2):
        pairs += 1
        types.add(cycle_type(m1, m2))
        violations += len(verify_extension_bound(m1, m2).violations)
print(f"n<=8 battery: {pairs} base pairs, {len(types)} cycle types,"
      f" bound violations: {violations}")

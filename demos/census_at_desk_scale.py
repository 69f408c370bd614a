"""Exhaustive census of 4-colour graphs on four vertices.

The census walks canonical matching tuples and converts each count to a
labelled count with the orbit formula.  The test suite cross-checks that
labelled column against a walk over every labelled tuple of perfect
matchings (tests/census_oracle.py, run by test_04_census_cross_validation
in tests/test_acceptance.py).
"""

from gemkit import CLASSES, enumerate_census

d, n = 3, 4

report = enumerate_census(d, n)

labelled = report.labelled_counts
print(f"{'class':<15}{'canonical':>10}{'labelled':>10}")
for cls in CLASSES:
    print(f"{cls:<15}{report.counts[cls]:>10}{labelled[cls]:>10}")

print()
print("canonical count by number of components:")
for cls in CLASSES:
    split = ", ".join(f"{c}: {k}" for c, k in sorted(report.by_components[cls].items()))
    print(f"{cls:<15}{split}")

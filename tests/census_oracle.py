"""The census and lemma sweeps over every matching tuple: references for the tests.

The library visits one matching tuple per white-relabelling orbit and
weights it by the orbit size.  full_census and full_lemma_bounds visit all
(n/2)!^(d+1) tuples over the canonical white set with no symmetry
argument, counting each once, so the tests can compare the two.  They
reuse the library's classifier and witnesses: what they check is the
orbit argument, not the classes themselves.

labelled_census checks the labelled column: it tallies every tuple of
perfect matchings of [1..n] directly, with no canonical white set and no
orbit formula, and must agree with CensusReport.labelled_counts.
"""

import itertools

from gemkit import (
    CLASSES,
    CensusReport,
    ColourfulGraph,
    LemmaBoundsReport,
    all_perfect_matchings,
    classify,
    euler_poincare_check,
    lemma1_witness,
    lemma2_witness,
    residues,
)
from extension_oracle import two_colouring


def _tuples(d, n):
    perms = sorted(itertools.permutations(range(n // 2 + 1, n + 1)))
    return itertools.product(perms, repeat=d + 1)


def full_census(d, n, classifier=classify):
    by_components = {cls: {} for cls in CLASSES}
    for tup in _tuples(d, n):
        G = ColourfulGraph(d, tup)
        comps = len(residues(G, G.colours).components)
        for cls in classifier(G):
            bc = by_components[cls]
            bc[comps] = bc.get(comps, 0) + 1
    return CensusReport(d, n, by_components)


def full_lemma_bounds(d, n, check_5=False):
    report = LemmaBoundsReport(d, n, 0, 0, 0, None, None, 0)
    for tup in _tuples(d, n):
        G = ColourfulGraph(d, tup)
        report.graphs += 1
        for I in itertools.combinations(range(1, d + 2), 3):
            w = lemma1_witness(G, I)
            if euler_poincare_check(G, I) != w.hypothesis_met:
                report.identity_mismatches += 1
            if not w.hypothesis_met:
                continue
            report.checked_3 += 1
            if w.slack < 0:
                report.violations_3 += 1
            if report.min_slack_3 is None or w.slack < report.min_slack_3:
                report.min_slack_3 = w.slack
                report.extremal_3 = (G, I)
        if check_5 and d >= 4:
            for I in itertools.combinations(range(1, d + 2), 5):
                w = lemma2_witness(G, I)
                if not w.hypothesis_met:
                    continue
                report.checked_5 += 1
                if w.slack < 0:
                    report.violations_5 += 1
                if report.min_slack_5 is None or w.slack < report.min_slack_5:
                    report.min_slack_5 = w.slack
                    report.extremal_5 = (G, I)
    return report


def labelled_census(d, n):
    """(class counts, bipartite tuples, all tuples) over every tuple of
    perfect matchings of [1..n].

    Each tuple is 2-coloured, and one whose union has an odd cycle is
    skipped.  A kept tuple is relabelled only to evaluate the
    label-invariant classify: whites become 1..n/2 and blacks n/2+1..n,
    each in ascending label order.  Counts are raw tallies of labelled
    tuples.
    """
    pms = all_perfect_matchings(n)
    counts = {cls: 0 for cls in CLASSES}
    cache = {}
    bipartite = 0
    new_id = [0] * (n + 1)
    for tup in itertools.product(pms, repeat=d + 1):
        coloured = two_colouring(tup, n)
        if coloured is None:
            continue
        bipartite += 1
        side = coloured[1]
        whites = [v for v in range(1, n + 1) if side[v] == 0]
        blacks = [v for v in range(1, n + 1) if side[v] == 1]
        for i, b in enumerate(blacks, start=n // 2 + 1):
            new_id[b] = i
        G = ColourfulGraph(d, [[new_id[m[w - 1]] for w in whites] for m in tup])
        names = cache.get(G)
        if names is None:
            names = cache[G] = classify(G)
        for cls in names:
            counts[cls] += 1
    return counts, bipartite, len(pms) ** (d + 1)

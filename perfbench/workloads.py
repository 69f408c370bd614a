"""The benchmark's three workloads: inputs, one timed repetition, output checks.

Each workload builds its inputs from a seed in ``__init__`` (set-up), runs
one repetition of its job in ``run`` (every op timed on a
``calibrate.RefClock``, in seconds and in ref units), and checks that
repetition's outputs in ``check`` (untimed).  ``run`` looks gemkit functions up on their
modules at call time, so wrappers installed by ``tracing.install`` are the
ones called.

Reference values were produced by the seed implementation and are frozen
here; a change that alters them changes the program's outputs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import math
import random
import re
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import gemkit.census as census_mod
import gemkit.cli as cli_mod
import gemkit.constructions as constructions_mod
import gemkit.dipoles as dipoles_mod
import gemkit.formats as formats_mod
import gemkit.graph as graph_mod

# census rows (class -> canonical, labelled) that later work must keep;
# sphere_yes / sphere_unknown are free to move as verdicts get stronger
CENSUS_ROWS = {
    (3, 6): {"all": (1296, 12285), "propertyP": (1080, 10125),
             "manifold": (1080, 10125), "melonic": (264, 2640)},
    (3, 4): {"all": (16, 45), "propertyP": (16, 45),
             "manifold": (16, 45), "melonic": (8, 24)},
}

# verify_lemma_bounds(d, n) -> (checked_3, min_slack_3)
LEMMA_SWEEPS = {
    (3, 6): (4896, Fraction(1)),
    (4, 6): (73440, Fraction(1)),
    (3, 4): (64, Fraction(2, 3)),
    (4, 4): (320, Fraction(2, 3)),
}

# verify_extension_bound depends on (m1, m2) only through the cycle type of
# their union: sorted alternating-cycle lengths -> (tried, planar, buckets)
EXTENSIONS = {
    (2,): (1, 1, {1: 1}),
    (2, 2): (3, 3, {1: 2, 2: 1}),
    (4,): (3, 2, {1: 2}),
    (2, 2, 2): (15, 15, {1: 8, 2: 6, 3: 1}),
    (4, 2): (15, 10, {1: 8, 2: 2}),
    (6,): (15, 5, {1: 5}),
    (2, 2, 2, 2): (105, 105, {1: 48, 2: 44, 3: 12, 4: 1}),
    (4, 2, 2): (105, 70, {1: 48, 2: 20, 3: 2}),
    (6, 2): (105, 35, {1: 30, 2: 5}),
    (4, 4): (105, 40, {1: 36, 2: 4}),
    (8,): (105, 14, {1: 14}),
}

EX_USAGE = 64


@dataclass
class Tally:
    """Ops attempted and failed, verdicts issued and undecided, failure notes."""

    attempted: int = 0
    failed: int = 0
    issued: int = 0
    unknown: int = 0
    notes: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


@dataclass(frozen=True)
class Raised:
    """The exception an op raised, kept as its output so the op counts as failed."""

    text: str


@dataclass
class Rep:
    """One repetition: per-op latencies in seconds and in ref, plus outputs."""

    op_s: List[float] = field(default_factory=list)
    op_ref: List[float] = field(default_factory=list)
    outputs: object = None

    def timed(self, clock, fn, *args):
        """Call fn(*args), recording its latency; return its result or a Raised."""
        t, r = clock.raw_now(), clock.now()
        try:
            result = fn(*args)
        except Exception:  # a failed op is counted and the run goes on
            result = Raised(traceback.format_exc(limit=3))
        self.op_s.append(clock.raw_now() - t)
        self.op_ref.append(clock.now() - r)
        return result


# ---------------------------------------------------------------- census

class Census:
    """enumerate_census(3, 6) through the library's classifier hook.

    Exhaustive, so the seed changes nothing.  An op is one classify call.
    """

    def __init__(self, seed: int, d: int = 3, n: int = 6):
        self.d, self.n = d, n

    def run(self, clock) -> Rep:
        classify = census_mod.classify
        rep = Rep()
        names: List[object] = []

        def timed_classify(G):
            result = rep.timed(clock, classify, G)
            names.append(result)
            return frozenset({"all"}) if isinstance(result, Raised) else result

        report = census_mod.enumerate_census(self.d, self.n, classifier=timed_classify)
        rep.outputs = (report, names)
        return rep

    def check(self, rep: Rep, tally: Tally) -> None:
        report, names = rep.outputs
        for i, got in enumerate(names):
            if not tally.expect(isinstance(got, frozenset), f"classify #{i}: {got}"):
                continue
            ok = ("sphere_yes" not in got or "manifold" in got) and (
                "melonic" not in got or "sphere_yes" in got)
            tally.expect(ok, f"classify #{i}: inconsistent classes {sorted(got)}")
            tally.issued += 1
            tally.unknown += "sphere_unknown" in got
        rows = dict(
            (cls, (int(canon), int(lab)))
            for cls, canon, lab in (row.split(",") for row in report.rows())
        )
        want = CENSUS_ROWS[(self.d, self.n)]
        for cls, value in want.items():
            tally.expect(rows.get(cls) == value, f"census row {cls}: {rows.get(cls)} != {value}")
        tally.expect(rows["sphere_yes"][0] >= rows["melonic"][0],
                     f"sphere_yes {rows['sphere_yes']} below melonic {rows['melonic']}")


# ---------------------------------------------------------------- audit

def cycle_type(m1: Sequence[int], m2: Sequence[int]) -> Tuple[int, ...]:
    """Sorted lengths of the alternating cycles of two perfect matchings."""
    n = len(m1)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length, v, first = 0, start, True
        while not seen[v]:
            seen[v] = True
            length += 1
            v = m1[v - 1] if first else m2[v - 1]
            first = not first
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# Seeded n = 8 sample, drawn per cycle type.  Pairs of one type do the same
# work, and the slowest type sampled, (4, 2, 2), is 10% of the audit's ops,
# so op_p95 falls in the middle of one type instead of between two.  The
# degenerate type m1 = m2 is slower still and left out of the sample.
N8_QUOTAS = {(8,): 800, (6, 2): 600, (4, 4): 376, (4, 2, 2): 224}


class Audit:
    """Counting-bound audits: two exhaustive lemma sweeps and the extension battery.

    The battery covers every base pair for n <= 6 and a seeded sample of
    2,000 of the 11,025 pairs at n = 8.  An op is one library call: a sweep
    or one pair.  The battery runs in slices between the sweeps, so its
    per-pair latencies are sampled across the whole repetition.
    """

    def __init__(self, seed: int, sweeps=((3, 6), (4, 6)), n8_share: float = 1.0):
        pairs = []
        for n in (2, 4, 6):
            ms = census_mod.all_perfect_matchings(n)
            pairs.extend(itertools.product(ms, ms))
        ms8 = census_mod.all_perfect_matchings(8)
        by_type: Dict[Tuple[int, ...], list] = {}
        for pair in itertools.product(ms8, ms8):
            by_type.setdefault(cycle_type(*pair), []).append(pair)
        rng = random.Random(seed)
        sample = []
        for ctype, quota in N8_QUOTAS.items():
            sample.extend(rng.sample(by_type[ctype], max(1, round(quota * n8_share))))
        rng.shuffle(sample)
        pairs.extend(sample)
        slices = len(sweeps) + 1
        self.plan: List[Tuple[str, tuple]] = []
        for i in range(slices):
            self.plan.extend(("pair", pair) for pair in pairs[i::slices])
            if i < len(sweeps):
                self.plan.append(("sweep", sweeps[i]))

    def run(self, clock) -> Rep:
        rep = Rep(outputs=[])
        sweep = census_mod.verify_lemma_bounds
        pair = census_mod.verify_extension_bound
        for kind, args in self.plan:
            rep.outputs.append(rep.timed(clock, sweep if kind == "sweep" else pair, *args))
        return rep

    def check(self, rep: Rep, tally: Tally) -> None:
        for (kind, args), r in zip(self.plan, rep.outputs):
            if isinstance(r, Raised):
                tally.expect(False, f"{kind} {args} raised: {r.text}")
                continue
            if kind == "sweep":
                d, n = args
                checked, slack = LEMMA_SWEEPS[args]
                tally.expect(
                    r.graphs == math.factorial(n // 2) ** (d + 1)
                    and r.violations_3 == 0 and r.identity_mismatches == 0
                    and r.checked_3 == checked and r.min_slack_3 == slack,
                    f"lemma sweep d={d} n={n}: graphs={r.graphs} violations={r.violations_3} "
                    f"mismatches={r.identity_mismatches} checked={r.checked_3} "
                    f"min_slack={r.min_slack_3}")
                continue
            tried, planar, buckets = EXTENSIONS[cycle_type(*args)]
            tally.expect(
                r.violations == [] and r.extensions_tried == tried
                and r.planar_extensions == planar and r.buckets == buckets,
                f"extension bound {args}: tried={r.extensions_tried} "
                f"planar={r.planar_extensions} buckets={r.buckets} violations={r.violations}")


# ---------------------------------------------------------------- verdicts

# Per block of 20 ops; the benchmark stream is 20 blocks (400 ops).  The
# homology family is 10% of ops and the slowest, so op_p95 falls in its
# middle; the fast families are 70%, so op_p50 falls well inside them.
BLOCK = (("random", 8), ("sphere_residue", 6), ("manifold", 4), ("homology", 2))


@dataclass(frozen=True)
class VerdictOp:
    family: str
    command: str
    text: str
    graph: object


def _params(d: int, k: int, rng: random.Random):
    return constructions_mod.random_construction_params(d, k, rng.randrange(2**32))


def make_verdict_ops(seed: int, blocks: int) -> List[VerdictOp]:
    """A seeded, shuffled stream with exact family quotas in every block."""
    rng = random.Random(seed)
    write = formats_mod.write_cgf
    build = constructions_mod.build_manifold
    ops: List[VerdictOp] = []
    for b in range(blocks):
        block = []
        for family, count in BLOCK:
            for i in range(count):
                j = b * count + i
                if family == "random":
                    # d in {3,4}, n in 8..40: mostly an early genus-witness exit
                    d, n = 3 + j % 2, 2 * rng.randint(4, 20)
                    G = constructions_mod.random_graph(d, n, rng.randrange(2**32))
                    command = "check-manifold"
                elif family == "sphere_residue":
                    # a colour-deleted component of a d=4/5 manifold: melonic
                    d, k = 4 + j % 2, 1 + (j // 2) % 4
                    M = build(_params(d, k, rng))
                    comps = graph_mod.colour_deleted_components(M, rng.randint(1, d + 1))
                    G = comps[rng.randrange(len(comps))]
                    command = "check-sphere"
                elif family == "manifold":
                    # the residue reduction sweep; k capped so it stays below
                    # the homology family (d=5 k=3 already overlaps it)
                    d = 4 + j % 2
                    k = 1 + (j // 2) % (4 if d == 4 else 2)
                    G = build(_params(d, k, rng))
                    command = "check-manifold"
                else:
                    # d=3 manifold through check-sphere: reaches the Betti vector
                    G = build(_params(3, 3, rng))
                    command = "check-sphere"
                block.append(VerdictOp(family, command, write(G), G))
        rng.shuffle(block)
        ops.extend(block)
    return ops


def run_cli(command: str, text: str) -> Tuple[int, str]:
    """One in-process `gemkit <command> - --certificate`, text on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_mod.run([command, "-", "--certificate"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _connected(G) -> bool:
    """Connectivity by a plain search, independent of gemkit's residues."""
    half = G.half
    adj: Dict[int, List[int]] = {v: [] for v in range(1, 2 * half + 1)}
    for m in G.matchings:
        for w, b in enumerate(m, start=1):
            adj[w].append(b)
            adj[b].append(w)
    seen = {1}
    stack = [1]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == 2 * half


_MOVE = re.compile(r"\((\d+),(\d+),(\d+)\)")


def check_melonic_trace(G, certificate: str) -> Optional[str]:
    """Replay a 'melonic trace' certificate; None if it ends at the 2-vertex graph."""
    body = certificate[len("melonic trace "):]
    if body == "(already terminal)":
        return None if G.n == 2 else f"n={G.n} graph claimed terminal"
    moves = [dipoles_mod.DipoleMove(*map(int, m)) for m in _MOVE.findall(body)]
    if " ".join(f"({m.white_vertex},{m.black_vertex},{m.free_colour})" for m in moves) != body:
        return f"unparsable trace {body!r}"
    try:
        end = dipoles_mod.replay(G, moves)
    except Exception as e:  # a bad move is a failed check, not a crash
        return f"replay failed: {e}"
    return None if end.n == 2 else f"replay ends at n={end.n}"


def check_genus_witness(G, certificate: str) -> Optional[str]:
    """Recompute a 'genus witness (I, v, g)' and require g > 0."""
    try:
        I, v, g = ast.literal_eval(certificate[len("genus witness "):])
        part = graph_mod.residues(G, I)
        comp = part.component_containing(v)
        genus = graph_mod.genus_of_residue(G, I, comp).genus
    except Exception as e:  # a malformed witness is a failed check, not a crash
        return f"witness {certificate!r} not checkable: {e}"
    if comp[0] != v or genus != g or g <= 0:
        return f"witness {certificate!r}: recomputed genus {genus}"
    return None


def _all_planar(G) -> bool:
    for I in itertools.combinations(range(1, G.d + 2), 3):
        for comp in graph_mod.residues(G, I).components:
            if graph_mod.genus_of_residue(G, I, comp).genus != 0:
                return False
    return True


class Verdicts:
    """A shuffled stream of in-process check-manifold / check-sphere calls."""

    def __init__(self, seed: int, blocks: int = 20):
        self.ops = make_verdict_ops(seed, blocks)

    def run(self, clock) -> Rep:
        rep = Rep(outputs=[])
        for op in self.ops:
            rep.outputs.append(rep.timed(clock, run_cli, op.command, op.text))
        return rep

    def check(self, rep: Rep, tally: Tally) -> None:
        for i, (op, result) in enumerate(zip(self.ops, rep.outputs)):
            if isinstance(result, Raised):
                tally.expect(False, f"op #{i} {op.family} {op.command} raised: {result.text}")
                continue
            code, out = result
            problem = self._problem(op, code, out)
            tally.expect(problem is None, f"op #{i} {op.family} {op.command}: {problem}")
            if code in (0, 1, 2):
                tally.issued += 1
                tally.unknown += code == 2

    @staticmethod
    def _problem(op: VerdictOp, code: int, out: str) -> Optional[str]:
        G = op.graph
        if code == EX_USAGE:
            return None if not _connected(G) else "exit 64 on a connected graph"
        if code not in (0, 1, 2):
            return f"exit {code}"
        lines = out.splitlines()
        label = "manifold" if op.command == "check-manifold" else "sphere"
        status = {0: "yes", 1: "no", 2: "unknown"}[code]
        if len(lines) != 2 or not lines[0].startswith(f"{label}: {status} ("):
            return f"unexpected output {out!r}"
        if not lines[1].startswith("certificate: "):
            return f"no certificate in {out!r}"
        cert = lines[1][len("certificate: "):]
        if op.family == "manifold" and code != 0:
            return f"constructed manifold got exit {code}"
        if op.family == "sphere_residue" and code != 0:
            return f"melonic residue got exit {code}"
        if cert.startswith("melonic trace "):
            return check_melonic_trace(G, cert)
        if cert.startswith("genus witness ") and code == 1:
            return check_genus_witness(G, cert)
        if code == 0 and op.command == "check-manifold" and G.d == 3:
            return None if _all_planar(G) else "manifold yes with a positive-genus residue"
        return None


WORKLOADS = {"census": Census, "audit": Audit, "verdicts": Verdicts}

"""Command-line interface.

Exit codes: verdict commands map Yes to 0, No to 1, Unknown to 2; usage,
parameter, and budget problems exit 64; unreadable or unparseable input
exits 65.  When the reader closes stdout early (`gemkit kappa F | head -n 1`)
the process ends quietly by SIGPIPE, like other Unix filters.  All
randomness flows through --seed (default 0).  Graph files use the CGF
format; `-` reads the graph from stdin, so generator commands pipe straight
into analysis commands.
"""

from __future__ import annotations

import argparse
import itertools
import os
import signal
import sys
from typing import Optional, Sequence, Tuple

from . import census as census_mod
from .constructions import (
    ConstructionParams,
    build_manifold,
    build_planar_family,
    random_construction_params,
    random_graph,
)
from .dipoles import melonic_reduce
from .errors import BudgetExceeded, FormatError, GemkitError
from .formats import parse_cgf, to_dot, write_cgf
from .graph import (
    ColourfulGraph,
    f_vector,
    genus_of_residue,
    is_connected,
    kappa_table,
    residues,
)
from .homology import betti_numbers, order_complex
from .verdicts import is_manifold, is_sphere

EX_USAGE = 64
EX_DATA = 65


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the Unknown
    # verdict; remap to 64
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _read_graph(path: str) -> ColourfulGraph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(EX_DATA)
    try:
        return parse_cgf(text)
    except FormatError as e:
        print(f"{path}: {e}", file=sys.stderr)
        raise SystemExit(EX_DATA)


def _parse_colours(text: str, G: ColourfulGraph) -> Tuple[int, ...]:
    try:
        cols = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        print(f"bad colour list {text!r}", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    if not cols or len(set(cols)) != len(cols) or any(
        c < 1 or c > G.d + 1 for c in cols
    ):
        print(
            f"colours must be distinct and within [1..{G.d + 1}]: {text!r}",
            file=sys.stderr,
        )
        raise SystemExit(EX_USAGE)
    return tuple(sorted(cols))


def _parse_perm(text: str, k: int, name: str) -> Tuple[int, ...]:
    try:
        images = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        print(f"bad {name} {text!r}", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    if sorted(images) != list(range(1, k + 1)):
        print(f"{name} must be a permutation of [1..{k}] in image notation", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    return images


def build_parser() -> _Parser:
    p = _Parser(prog="gemkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_)

    c = cmd("validate", "parse a CGF file, report d, n, connectivity")
    c.add_argument("file")

    c = cmd("residues", "components and kappa of one colour set")
    c.add_argument("file")
    c.add_argument("--colours", required=True, help="comma-separated, e.g. 1,2,3")

    c = cmd("kappa", "component counts of every colour subset")
    c.add_argument("file")

    c = cmd("genus", "canonical-embedding genus of every 3-residue")
    c.add_argument("file")

    for name, label in (("check-manifold", "manifold"), ("check-sphere", "sphere")):
        c = cmd(name, f"{label} verdict; exit 0 yes / 1 no / 2 unknown")
        c.add_argument("file")
        c.add_argument("--certificate", action="store_true")

    c = cmd("betti", "rational Betti numbers of the complex of G_I")
    c.add_argument("file")
    c.add_argument("--colours", help="defaults to all colours")

    c = cmd("reduce", "greedy melonic reduction trace")
    c.add_argument("file")

    c = cmd("gen", "build a glued double-path graph, CGF to stdout")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--sigma", help="image notation, e.g. 2,1,3")
    c.add_argument("--tau")
    c.add_argument("--random-perms", action="store_true")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--planar-extend", type=int, metavar="D2",
                   help="extend the d=3 result to this dimension by identity colours")

    c = cmd("random", "uniform random colourful graph, CGF to stdout")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)

    c = cmd("census", "exhaustive classification of all canonical graphs")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--emit-graphs", metavar="DIR")
    c.add_argument("--budget", type=int, default=census_mod.DEFAULT_BUDGET)

    c = cmd("verify-lemmas", "slack audit of the component-count bounds")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--check-5", action="store_true", help="also audit 5-subsets (d >= 4)")
    c.add_argument("--budget", type=int, default=census_mod.DEFAULT_BUDGET)

    c = cmd("bound-check", "planar-extension count bound for a 2-matching base")
    c.add_argument("--cgf2", required=True, metavar="FILE",
                   help="CGF file with d=1 (two matchings)")

    c = cmd("stats-vn", "vertex counts of random glued constructions, not uniform manifolds")
    c.add_argument("--kmax", type=int, required=True)
    c.add_argument("--samples", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)

    c = cmd("export-dot", "Graphviz DOT to stdout")
    c.add_argument("file")
    return p


def _run_validate(args) -> int:
    G = _read_graph(args.file)
    conn = "yes" if is_connected(G) else "no"
    print(f"d: {G.d}")
    print(f"n: {G.n}")
    print(f"colours: {G.d + 1}")
    print(f"connected: {conn}")
    return 0


def _run_residues(args) -> int:
    G = _read_graph(args.file)
    cols = _parse_colours(args.colours, G)
    part = residues(G, cols)
    print(f"colours: {','.join(map(str, cols))}")
    print(f"kappa: {len(part.components)}")
    if 1 <= len(cols) <= G.d:
        print(f"f-vector: {','.join(map(str, f_vector(G, cols)))}")
    for i, comp in enumerate(part.components):
        print(f"component {i}: {' '.join(map(str, comp))}")
    return 0


def _run_kappa(args) -> int:
    G = _read_graph(args.file)
    for I, value in kappa_table(G).items():
        print(f"{len(I)};{','.join(map(str, I)) or '-'};{value}")
    return 0


def _run_genus(args) -> int:
    G = _read_graph(args.file)
    for I in itertools.combinations(range(1, G.d + 2), 3):
        part = residues(G, I)
        for comp in part.components:
            emb = genus_of_residue(G, I, comp)
            print(
                f"I={','.join(map(str, I))} min_vertex={comp[0]} "
                f"V={emb.V} F={emb.F} genus={emb.genus}"
            )
    return 0


def _run_verdict(args, which: str) -> int:
    G = _read_graph(args.file)
    if which == "manifold":
        v = is_manifold(G)
        note = "d<=3 exact" if G.d <= 3 else "criterion-based"
        print(f"manifold: {v.status.value.lower()} ({note})")
    else:
        v = is_sphere(G)
        note = "exact" if G.d <= 2 else "semi-decision"
        print(f"sphere: {v.status.value.lower()} ({note})")
    if args.certificate:
        print(f"certificate: {v.certificate}")
    return v.exit_code


def _run_betti(args) -> int:
    G = _read_graph(args.file)
    cols = (
        _parse_colours(args.colours, G)
        if args.colours
        else tuple(range(1, G.d + 2))
    )
    K = order_complex(G, cols)
    b = betti_numbers(K)
    print(f"colours: {','.join(map(str, cols))}")
    print(f"betti: {','.join(map(str, b.betti))}")
    return 0


def _run_reduce(args) -> int:
    G = _read_graph(args.file)
    trace = melonic_reduce(G)
    for mv in trace.moves:
        print(f"remove ({mv.white_vertex},{mv.black_vertex},{mv.free_colour})")
    print(f"moves: {len(trace.moves)}")
    print(f"terminal n: {trace.terminal.n}")
    print(f"reached dipole: {'true' if trace.reached_dipole else 'false'}")
    return 0


def _run_gen(args) -> int:
    if args.random_perms:
        params = random_construction_params(args.d, args.k, args.seed)
    elif args.sigma is not None and args.tau is not None:
        sigma = _parse_perm(args.sigma, args.k, "sigma")
        tau = _parse_perm(args.tau, args.k, "tau")
        params = ConstructionParams(args.d, args.k, sigma, tau)
    else:
        print("gen needs either --sigma and --tau or --random-perms", file=sys.stderr)
        return EX_USAGE
    G = build_manifold(params)
    if args.planar_extend is not None:
        G = build_planar_family(G, args.planar_extend)
    comment = (
        f"glued double path d={params.d} k={params.k} "
        f"sigma={','.join(map(str, params.sigma))} tau={','.join(map(str, params.tau))}"
    )
    if args.planar_extend is not None:
        comment += f" extended to d={args.planar_extend}"
    sys.stdout.write(write_cgf(G, comment=comment))
    return 0


def _run_random(args) -> int:
    G = random_graph(args.d, args.n, args.seed)
    sys.stdout.write(write_cgf(G, comment=f"uniform d={args.d} n={args.n} seed={args.seed}"))
    return 0


def _run_census(args) -> int:
    emit = None
    if args.emit_graphs:
        os.makedirs(args.emit_graphs, exist_ok=True)
        counter = [0]

        def emit(G, names):
            counter[0] += 1
            tag = "_".join(sorted(names - {"all"})) or "plain"
            path = os.path.join(args.emit_graphs, f"{counter[0]:06d}_{tag}.cgf")
            with open(path, "w") as fh:
                fh.write(write_cgf(G, comment=f"census d={args.d} n={args.n} classes={tag}"))

    report = census_mod.enumerate_census(args.d, args.n, budget=args.budget, emit=emit)
    print(f"tuples: {census_mod.tuple_count(args.d, args.n)}")
    print("class,canonical,labelled")
    for row in report.rows():
        print(row)
    return 0


def _run_verify_lemmas(args) -> int:
    rep = census_mod.verify_lemma_bounds(
        args.d, args.n, budget=args.budget, check_5=args.check_5
    )
    print(f"graphs: {rep.graphs}")
    print(f"pair bound: checked={rep.checked_3} violations={rep.violations_3} "
          f"min_slack={rep.min_slack_3}")
    print(f"identity mismatches: {rep.identity_mismatches}")
    if args.check_5:
        print(f"triple bound: checked={rep.checked_5} violations={rep.violations_5} "
              f"min_slack={rep.min_slack_5}")
    ok = rep.violations_3 == 0 and rep.identity_mismatches == 0 and rep.violations_5 == 0
    return 0 if ok else 1


def _run_bound_check(args) -> int:
    G = _read_graph(args.cgf2)
    if G.d != 1:
        print(f"--cgf2 file must have d=1 (two matchings), got d={G.d}", file=sys.stderr)
        return EX_USAGE
    n = G.n
    m = [[0] * n for _ in range(2)]
    for c in (1, 2):
        for w in range(1, G.half + 1):
            b = G.partner(w, c)
            m[c - 1][w - 1] = b
            m[c - 1][b - 1] = w
    rep = census_mod.verify_extension_bound(tuple(m[0]), tuple(m[1]))
    print(f"n: {rep.n}")
    print(f"base components: {rep.base_components}")
    print(f"planar extensions: {rep.planar_extensions} of {rep.extensions_tried}")
    print("k,count,bound")
    for k in sorted(rep.buckets):
        print(f"{k},{rep.buckets[k]},{rep.bounds[k]}")
    print(f"violations: {len(rep.violations)}")
    return 0 if not rep.violations else 1


def _run_stats_vn(args) -> int:
    ks = tuple(range(1, args.kmax + 1))
    report = census_mod.vn_experiment(ks, args.samples, seed=args.seed)
    for row in report.table_rows():
        print(row)
    return 0


def _run_export_dot(args) -> int:
    G = _read_graph(args.file)
    sys.stdout.write(to_dot(G))
    return 0


_HANDLERS = {
    "validate": _run_validate,
    "residues": _run_residues,
    "kappa": _run_kappa,
    "genus": _run_genus,
    "check-manifold": lambda a: _run_verdict(a, "manifold"),
    "check-sphere": lambda a: _run_verdict(a, "sphere"),
    "betti": _run_betti,
    "reduce": _run_reduce,
    "gen": _run_gen,
    "random": _run_random,
    "census": _run_census,
    "verify-lemmas": _run_verify_lemmas,
    "bound-check": _run_bound_check,
    "stats-vn": _run_stats_vn,
    "export-dot": _run_export_dot,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceeded as e:
        print(f"budget: {e}", file=sys.stderr)
        return EX_USAGE
    except GemkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE


def main() -> None:
    # end quietly on a closed stdout, not with a BrokenPipeError traceback;
    # only here, since run() is also called in-process
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run())


if __name__ == "__main__":
    main()

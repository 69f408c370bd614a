"""CGF text format and DOT export.

CGF stores one graph per file:

    cgf <d> <n>
    <matching line for colour 1>
    ...
    <matching line for colour d+1>

Each matching line lists, for white vertex w = 1..n/2 in order, the black
vertex (in n/2+1..n) joined to w by that colour.  Lines starting with `#`
are comments and blank lines are ignored.  Parse errors cite line and token.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import FormatError
from .graph import ColourfulGraph

# Fixed DOT palette; colour c maps to PALETTE[(c - 1) % 8], bit-exact.
PALETTE = ("red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta")


def parse_cgf(text: str) -> ColourfulGraph:
    """Parse CGF text into a ColourfulGraph."""
    lines = [
        (no, line.strip())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty input, expected a 'cgf <d> <n>' header")
    header_no, header = lines[0]
    tokens = header.split()
    if tokens[0] != "cgf":
        raise FormatError("expected literal 'cgf'", line=header_no, token=tokens[0])
    if len(tokens) != 3:
        raise FormatError(
            f"header needs 'cgf <d> <n>', got {len(tokens)} tokens", line=header_no
        )
    d = _int_token(tokens[1], header_no)
    n = _int_token(tokens[2], header_no)
    if d < 1:
        raise FormatError("d must be >= 1", line=header_no, token=tokens[1])
    if n < 2 or n % 2:
        raise FormatError("n must be even and >= 2", line=header_no, token=tokens[2])
    half = n // 2
    if len(lines) - 1 != d + 1:
        raise FormatError(
            f"expected {d + 1} matching lines for d={d}, found {len(lines) - 1}",
            line=lines[-1][0] if len(lines) > 1 else header_no,
        )
    matchings: List[List[int]] = []
    for colour, (no, line) in enumerate(lines[1:], start=1):
        toks = line.split()
        if len(toks) != half:
            raise FormatError(
                f"matching for colour {colour} needs {half} entries, got {len(toks)}",
                line=no,
            )
        seen = set()
        row = []
        for tok in toks:
            b = _int_token(tok, no)
            if not half + 1 <= b <= n:
                raise FormatError(
                    f"black vertex outside [{half + 1}..{n}]", line=no, token=tok
                )
            if b in seen:
                raise FormatError("repeated black vertex", line=no, token=tok)
            seen.add(b)
            row.append(b)
        matchings.append(row)
    return ColourfulGraph(d, matchings)


def _int_token(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError("expected an integer", line=line, token=tok) from None


def write_cgf(G: ColourfulGraph, comment: Optional[str] = None) -> str:
    """Serialize a graph to CGF text (round-trips through parse_cgf)."""
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"cgf {G.d} {G.n}")
    for m in G.matchings:
        out.append(" ".join(map(str, m)))
    return "\n".join(out) + "\n"


def to_dot(G: ColourfulGraph) -> str:
    """DOT export of graph G: whites w1.., blacks b1.., edge colours from PALETTE."""
    out = ["graph G {"]
    for w in range(1, G.half + 1):
        out.append(f'  w{w} [shape=circle, fillcolor=white, style=filled];')
    for b in range(1, G.half + 1):
        out.append(f'  b{b} [shape=circle, fillcolor=black, style=filled, fontcolor=white];')
    for c, m in enumerate(G.matchings, start=1):
        colour = PALETTE[(c - 1) % len(PALETTE)]
        for w, b in enumerate(m, start=1):
            out.append(f'  w{w} -- b{b - G.half} [color={colour}, label={c}];')
    out.append("}")
    return "\n".join(out) + "\n"

"""Reading and writing the line-oriented algebra file format.

The format is UTF-8 text; ``#`` starts a comment.  A file holds one algebra:

    algebra
    name: fig1                  # optional
    elements: a b c d 1
    order:                      # optional; "x < y" lines, closure taken
      a < b
    op join:                    # optional when an order block is present
      a b 1 1 1
      ...
    op meet partial:            # "-" marks an undefined entry
      ...
    op imp:
      ...
    op prod partial:
      ...
    op r:                       # n blocks of n rows; block k fixes the third
      ...                       # argument to element k
    op q:
      ...
    end

The ``op`` headers and their order come from the slot table `core.OPS`:
``op <name>:`` for a total slot, ``op <name> partial:`` for a partial one.
Row i, column j of a binary block is op(e_i, e_j); a ternary block is n
blocks of n such rows, block k fixing the third argument.
`serialize_algebra` reproduces this layout canonically (single spaces,
two-space indent, rows in element order, blocks apart by a blank line), and
`parse_algebra(serialize_algebra(a))` returns an algebra equal to ``a``
field by field.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .core import (OPS, Algebra, ParseError, StructureError, UNDEF_TOKEN,
                   build_algebra, entry)

_TOKEN = re.compile(r"\S+")

_HEADERS = {name: f"op {name}{'' if total else ' partial'}:"
            for name, (_, total) in OPS.items()}
_SLOT_OF_HEADER = {header: name for name, header in _HEADERS.items()}


def _values(rows: list[list[int | None]], n: int, arity: int):
    """Nested table values from the rows of an ``op`` block: a binary table
    is its rows, a ternary one n blocks of n rows, block k fixing z = e_k,
    the order in which `serialize_algebra` writes them."""
    if arity == 2:
        return rows
    return tuple(tuple(tuple(rows[k * n + i][j] for k in range(n)) for j in range(n))
                 for i in range(n))


@dataclass
class _Line:
    no: int
    toks: list[tuple[str, int]]  # (token, 1-based column)

    @property
    def words(self) -> list[str]:
        return [t for t, _ in self.toks]


def _significant_lines(text: str) -> list[_Line]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        content = raw if cut < 0 else raw[:cut]
        toks = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(content)]
        if toks:
            out.append(_Line(no, toks))
    return out


class _Parser:
    def __init__(self, text: str):
        self.lines = _significant_lines(text)
        self.pos = 0

    def peek(self) -> _Line | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> _Line:
        line = self.peek()
        if line is None:
            raise ParseError("unexpected end of file")
        self.pos += 1
        return line


def parse_algebra(text: str) -> Algebra:
    """Parse one algebra file; raises `ParseError` with line/column info."""
    p = _Parser(text)

    first = p.take()
    if first.words != ["algebra"]:
        raise ParseError("expected 'algebra' header", first.no, first.toks[0][1])

    name = ""
    labels: list[str] | None = None
    index: dict[str, int] = {}
    order_pairs: list[tuple[int, int]] = []
    have_order = False
    blocks: dict[str, list[list[int | None]]] = {}

    def element(tok: str, line: _Line, col: int) -> int:
        if tok not in index:
            raise ParseError(f"unknown element '{tok}'", line.no, col)
        return index[tok]

    def need_elements(line: _Line) -> None:
        if labels is None:
            raise ParseError("'elements:' must come first", line.no, line.toks[0][1])

    def read_row(kind: str, total: bool, n: int) -> list[int | None]:
        line = p.take()
        if len(line.toks) != n:
            raise ParseError(f"row of '{kind}' needs {n} entries, got {len(line.toks)}",
                             line.no, line.toks[0][1])
        row: list[int | None] = []
        for tok, col in line.toks:
            if tok == UNDEF_TOKEN:
                if total:
                    raise ParseError(f"'{UNDEF_TOKEN}' not allowed in total table "
                                     f"'{kind}'", line.no, col)
                row.append(None)
            else:
                row.append(element(tok, line, col))
        return row

    while True:
        line = p.take()
        head = line.words[0]
        if head == "end":
            break
        if head == "name:":
            if len(line.words) != 2:
                raise ParseError("name: takes exactly one token", line.no, line.toks[0][1])
            name = line.words[1]
        elif head == "elements:":
            if labels is not None:
                raise ParseError("duplicate elements: line", line.no, line.toks[0][1])
            if len(line.toks) < 2:
                raise ParseError("elements: needs at least one label",
                                 line.no, line.toks[0][1])
            labels = []
            for tok, col in line.toks[1:]:
                if tok == UNDEF_TOKEN:
                    raise ParseError(f"label may not be '{UNDEF_TOKEN}'", line.no, col)
                if tok in index:
                    raise ParseError(f"duplicate label '{tok}'", line.no, col)
                index[tok] = len(labels)
                labels.append(tok)
        elif head == "order:":
            need_elements(line)
            have_order = True
            while True:
                nxt = p.peek()
                if nxt is None or len(nxt.words) != 3 or nxt.words[1] != "<":
                    break
                rel = p.take()
                a = element(rel.words[0], rel, rel.toks[0][1])
                b = element(rel.words[2], rel, rel.toks[2][1])
                order_pairs.append((a, b))
        elif head == "op":
            need_elements(line)
            n = len(labels)  # type: ignore[arg-type]
            header = " ".join(line.words)
            if header not in _SLOT_OF_HEADER:
                raise ParseError(f"unknown op header '{header}'", line.no, line.toks[0][1])
            kind = _SLOT_OF_HEADER[header]
            if kind in blocks:
                raise ParseError(f"duplicate 'op {kind}' block", line.no, line.toks[0][1])
            arity, total = OPS[kind]
            blocks[kind] = [read_row(kind, total, n) for _ in range(n ** (arity - 1))]
        else:
            raise ParseError(f"unexpected '{head}'", line.no, line.toks[0][1])

    trailing = p.peek()
    if trailing is not None:
        raise ParseError("text after 'end'", trailing.no, trailing.toks[0][1])
    if labels is None:
        raise ParseError("missing 'elements:' line")

    tables = {f"{kind}_values": _values(rows, len(labels), OPS[kind][0])
              for kind, rows in blocks.items()}
    try:
        return build_algebra(labels, order_pairs=order_pairs if have_order else None,
                             name=name, **tables)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def serialize_algebra(alg: Algebra) -> str:
    """Canonical file text for an algebra (bit-exact round-trip)."""
    n = alg.n
    out = ["algebra"]
    if alg.name:
        out.append(f"name: {alg.name}")
    out.append("elements: " + " ".join(alg.labels))

    for name, table in alg.tables():
        out.append(_HEADERS[name])
        blocks = itertools.product(range(n), repeat=OPS[name][0] - 2)
        for b, rest in enumerate(blocks):
            if b:
                out.append("")
            out += ["  " + " ".join([alg.token(entry(v, rest)) for v in row])
                    for row in table.values]

    out.append("end")
    return "\n".join(out) + "\n"

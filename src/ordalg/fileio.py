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
blocks of n such rows, block k fixing the third argument.  The ``name:``
and ``elements:`` lines, the ``order:`` block and each ``op`` block come at
most once, and ``end`` stands alone, with nothing after it.
Lines are those of `str.splitlines` and tokens are runs of non-whitespace,
so a label or name may contain neither whitespace nor ``#``.  A malformed
file raises `ParseError`, reading ``line L, column C: message`` where the
error has a place; the column counts characters from 1, a tab as one.
`serialize_algebra` reproduces this layout canonically (single spaces,
two-space indent, rows in element order, blocks apart by a blank line), and
`parse_algebra(serialize_algebra(a))` returns an algebra equal to ``a``
field by field.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator

from .core import (OPS, Algebra, ParseError, StructureError, UNDEF_TOKEN,
                   build_algebra, entry)

_TOKEN = re.compile(r"\S+")

_HEADERS = {name: f"op {name}{'' if total else ' partial'}:"
            for name, (_, total) in OPS.items()}
_SLOT_OF_HEADER = {header: name for name, header in _HEADERS.items()}
# the heads that may come once, and what a second one is called
_ONCE = {"name:": "line", "elements:": "line", "order:": "block"}


def _values(rows: list[tuple[int | None, ...]], n: int, arity: int):
    """Nested table values from the rows of an ``op`` block: a binary table
    is its rows, a ternary one n blocks of n rows, block k fixing z = e_k,
    the order in which `serialize_algebra` writes them."""
    if arity == 2:
        return rows
    planes = [rows[k * n:(k + 1) * n] for k in range(n)]
    # row i of every plane, then entry j of each of those rows
    return tuple([tuple(zip(*rows_i)) for rows_i in zip(*planes)])


_Line = tuple[int, str, list[str]]  # line number, text before '#', its tokens


def _error(message: str, line: _Line, k: int = 0) -> ParseError:
    """The error at token k of a line, its column worked out from the text."""
    no, content, _ = line
    return ParseError(message, no, [m.start() + 1 for m in _TOKEN.finditer(content)][k])


def _lines(text: str) -> Iterator[_Line]:
    """The lines of a file that hold a token, in order.  `parse_algebra` and
    `element_count` both read a file through it, so they split lines, strip
    comments and split tokens alike."""
    for no, raw in enumerate(text.splitlines(), start=1):
        content = raw.partition("#")[0] if "#" in raw else raw
        toks = content.split()
        if toks:
            yield no, content, toks


def parse_algebra(text: str) -> Algebra:
    """Parse one algebra file; raises `ParseError` with line/column info."""
    lines = list(_lines(text))
    if not lines:
        raise ParseError("unexpected end of file")
    if lines[0][2] != ["algebra"]:
        raise _error("expected 'algebra' header", lines[0])

    name = ""
    labels: list[str] | None = None
    index: dict[str, int] = {}
    order_pairs: list[tuple[int, int]] = []
    seen: set[str] = set()  # the heads of `_ONCE` read so far
    blocks: dict[str, list[tuple[int | None, ...]]] = {}

    pos = 1
    while pos < len(lines):
        line = lines[pos]
        pos += 1
        toks = line[2]
        head = toks[0]
        if head == "end":
            if len(toks) > 1:
                raise _error("text after 'end'", line, 1)
            break
        if labels is None and head in ("order:", "op"):
            raise _error("'elements:' must come first", line)
        if head in _ONCE:
            if head in seen:
                raise _error(f"duplicate {head} {_ONCE[head]}", line)
            seen.add(head)
        if head == "name:":
            if len(toks) != 2:
                raise _error("name: takes exactly one token", line)
            name = toks[1]
        elif head == "elements:":
            if len(toks) < 2:
                raise _error("elements: needs at least one label", line)
            labels = []
            for k, tok in enumerate(toks[1:], start=1):
                if tok == UNDEF_TOKEN:
                    raise _error(f"label may not be '{UNDEF_TOKEN}'", line, k)
                if tok in index:
                    raise _error(f"duplicate label '{tok}'", line, k)
                index[tok] = len(labels)
                labels.append(tok)
        elif head == "order:":
            while pos < len(lines) and len(lines[pos][2]) == 3 and lines[pos][2][1] == "<":
                rel = lines[pos]
                pos += 1
                a, _, b = rel[2]
                for k, tok in ((0, a), (2, b)):
                    if tok not in index:
                        raise _error(f"unknown element '{tok}'", rel, k)
                order_pairs.append((index[a], index[b]))
        elif head == "op":
            header = " ".join(toks)
            if header not in _SLOT_OF_HEADER:
                raise _error(f"unknown op header '{header}'", line)
            kind = _SLOT_OF_HEADER[header]
            if kind in blocks:
                raise _error(f"duplicate 'op {kind}' block", line)
            arity, total = OPS[kind]
            n = len(labels)  # type: ignore[arg-type]
            cell = index if total else {**index, UNDEF_TOKEN: None}
            count = n ** (arity - 1)
            rows = []
            for row in lines[pos:pos + count]:
                if len(row[2]) != n:
                    raise _error(f"row of '{kind}' needs {n} entries, got {len(row[2])}", row)
                try:
                    rows.append(tuple(map(cell.__getitem__, row[2])))
                except KeyError as exc:
                    tok = exc.args[0]
                    message = (f"'{UNDEF_TOKEN}' not allowed in total table '{kind}'"
                               if tok == UNDEF_TOKEN else f"unknown element '{tok}'")
                    raise _error(message, row, row[2].index(tok)) from None
            if len(rows) < count:
                raise ParseError("unexpected end of file")
            pos += count
            blocks[kind] = rows
        else:
            raise _error(f"unexpected '{head}'", line)
    else:
        raise ParseError("unexpected end of file")

    if pos < len(lines):
        raise _error("text after 'end'", lines[pos])
    if labels is None:
        raise ParseError("missing 'elements:' line")

    tables = {kind: _values(rows, len(labels), OPS[kind][0]) for kind, rows in blocks.items()}
    try:
        return build_algebra(labels, order_pairs=order_pairs if "order:" in seen else None,
                             tables=tables, name=name)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def element_count(text: str) -> int:
    """The number of labels on the first ``elements:`` line of a file, 0
    without one, read without parsing the rest of the file.  It is the line
    `parse_algebra` reads its labels from, so on a file that parses the count
    is the algebra's size."""
    for _, _, toks in _lines(text):
        if toks[0] == "elements:":
            return len(toks) - 1
    return 0


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

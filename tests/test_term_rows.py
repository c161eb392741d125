"""Every term row's compiled scan yields what a flat reading of its text
yields.

`oracles.interpret_term_law` reads a row's ``terms`` and nothing else of
`laws`: it parses the text itself and evaluates it one tuple at a time, in
lexicographic order, checks in order.  For every `term_law` row of every
row tuple of the law table, on every corpus model up to size 4 that carries
the tables the row reads, and on every single-cell edit of each of those
tables, the compiled scan yields the same violations as the interpreter:
all of them, in the same order, each with its witness, sides and note.

Size 5 is checked on its own with
``PYTHONPATH=src python tests/test_term_rows.py --check 5``.

Rows of random text, with premises and partial operations nested at any
depth, are compared with the interpreter the same way, on models that carry
every table.
"""

from __future__ import annotations

import argparse
from itertools import product

from hypothesis import given, settings, strategies as st

from oracles import interpret_term_law, term_law_tables
from ordalg import BinTable, ClassTag, SearchSpec, TernTable, enumerate_models, laws
from test_law_table import ROW_TUPLES, compiled_violations, full_models

TIER1_MAX_SIZE = 4
TERM_ROWS = tuple(dict.fromkeys(law for rows in ROW_TUPLES.values() for law in rows
                                if law.terms))
# (row, model) pairs compared up to size 4, edits included, and the
# violations the interpreter yields on them: most edits break a row on
# several tuples, so the whole sequence is compared, not its first item
COMPARED, VIOLATIONS = 55633, 80676


def _slots_read(law, alg) -> set[str]:
    """The slots of the algebra whose tables the row reads; the join stands
    for the order and the glb, which are read off it."""
    return {"join" if table in ("glb", "leq") else table
            for table in term_law_tables(law, alg)}


def _edits(alg, slot: str):
    """A copy of the algebra for every change of one cell of the slot's
    table to another element, or to undefined in a partial table."""
    table = getattr(alg, slot)
    ternary = isinstance(table, TernTable)
    values = [[list(row) for row in plane] for plane in table.values] if ternary \
        else [list(row) for row in table.values]
    choices = [*range(alg.n), *([] if ternary or table.total else [None])]
    for cell in product(range(alg.n), repeat=3 if ternary else 2):
        *path, last = cell
        row = values
        for i in path:
            row = row[i]
        old = row[last]
        for v in choices:
            if v != old:
                row[last] = v
                edited = TernTable(tuple(tuple(map(tuple, plane)) for plane in values)) \
                    if ternary else BinTable.from_rows(values, table.total)
                yield alg.replace(**{slot: edited})
        row[last] = old


def mismatches(sizes) -> tuple[list[str], int, int]:
    """The (row, model) pairs where the compiled scan and the interpreter
    disagree, named; how many pairs were compared; and how many violations
    the interpreter yielded on them."""
    faults, compared, violations, seen = [], 0, 0, set()
    corpus = (alg for n in sizes for tag in ClassTag
              for alg in enumerate_models(SearchSpec(tag, n)))
    for alg in corpus:
        for law in TERM_ROWS:
            slots = sorted(_slots_read(law, alg))
            read = tuple((slot, getattr(alg, slot)) for slot in slots)
            # a row reads the same tables on models of several classes
            if any(table is None for _, table in read) or (law, read) in seen:
                continue
            seen.add((law, read))
            cases = [("", alg)] + [(f" {slot} edit {k}", edited) for slot in slots
                                   for k, edited in enumerate(_edits(alg, slot))]
            for what, model in cases:
                want = list(interpret_term_law(law, model))
                compared += 1
                violations += len(want)
                if compiled_violations(law, model) != want:
                    faults.append(f"{law.label} {law.terms[0]!r} on {alg.name}{what}")
    return faults, compared, violations


def test_every_term_row_yields_the_interpreted_violations_up_to_size_4():
    faults, compared, violations = mismatches(range(1, TIER1_MAX_SIZE + 1))
    assert faults == []
    assert (compared, violations) == (COMPARED, VIOLATIONS)


def _terms(depth: int):
    if depth == 0:
        return st.sampled_from(["x", "y", "z", "1"])
    inner = _terms(depth - 1)
    return st.one_of(
        inner,
        st.builds("({} {} {})".format, inner, st.sampled_from(["->", "v", "^", "."]), inner),
        st.builds("{}({}, {}, {})".format, st.sampled_from("rqt"), inner, inner, inner))


@st.composite
def _rows(draw):
    """Term text of depth at most 3 over every operation: 1-3 checks, each
    with 0-2 premises.  The sides are drawn from a small pool of terms and
    their combinations, so that subterms repeat across sides, premises and
    checks."""
    pool = draw(st.lists(_terms(2), min_size=1, max_size=4))
    side = st.one_of(st.sampled_from(pool), st.builds(
        "({} {} {})".format, st.sampled_from(pool), st.sampled_from(["->", "v", "^", "."]),
        st.sampled_from(pool)))
    comparison = st.builds("{} {} {}".format, side, st.sampled_from(["=", "<="]), side)
    check = st.builds(lambda premises, last: f"{', '.join(premises)} => {last}"
                      if premises else last,
                      st.lists(comparison, max_size=2), comparison)
    return draw(st.lists(check, min_size=1, max_size=3))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_rows(), st.integers(min_value=0, max_value=15))
def test_random_term_text_yields_the_interpreted_violations(checks, gap):
    law = laws.term_law("random", "x y z", *checks)
    for alg, gaps in full_models():
        for model in (alg, gaps[gap % len(gaps)]):
            assert compiled_violations(law, model) == list(interpret_term_law(law, model)), \
                (checks, model.name)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", type=int, nargs="+", metavar="SIZE", required=True,
                        help="compare every term row on the models of these sizes and "
                             "their single-cell edits")
    args = parser.parse_args()
    failed = False
    for n in args.check:
        faults, compared, violations = mismatches([n])
        failed |= bool(faults)
        print(f"size {n} {'FAILS' if faults else 'ok'} compared={compared} "
              f"violations={violations}",
              *faults[:5], sep="\n  ")
    raise SystemExit(1 if failed else 0)

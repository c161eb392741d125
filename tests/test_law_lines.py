"""Golden verdicts of the join laws, the sectioned check and the term schemes.

Three checkers sit outside the ``check --class`` chains that
``test_fail_lines.py`` pins, or reach them only through the parser:

* ``validate_join_semilattice`` on every single-cell mutation of the join
  table, every symmetric two-cell one (which keeps the table commutative)
  and every other choice of the top of every jsl model, built with the raw
  constructor (groups ``jsl/join``, ``jsl/join pair`` and ``jsl/top``);
* ``build_algebra`` on the join table of each join mutant: the path a file
  with a broken join table takes through the parser (``... build``);
* ``parse_algebra`` on a file holding a model's ``op join:`` block and an
  ``order:`` block of its strict pairs with one pair added or removed
  (``jsl/order build``), the one way an order arrives beside a join table;
* ``validate_sectioned`` on every jsl model (``sectioned/jsl``);
* ``parse_algebra`` on the file of every single-cell meet mutation of the
  sectioned models, the one way a meet table arrives and the one place it
  is checked (``sectioned/meet build``);
* ``term_witness_check`` on every single-cell imp mutation of the ialg and
  ralg models and on every r and q mutation (``terms/...``).

Each case gives one line ``<model> <table>(<cell>)=<value>: <outcome>``,
where the outcome is the report's fail line (or ``PASS``) and its note, or
the exception a call raised.  The fixture stores, per group, the line count
and the sha256 of the lines.

Regenerate the fixture, after checking that a change of witness is meant,
with ``PYTHONPATH=src python tests/test_law_lines.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ordalg import (BinTable, ClassTag, SearchSpec, Universe, build_algebra,
                    enumerate_models, parse_algebra, serialize_algebra,
                    term_witness_check, validate_join_semilattice,
                    validate_sectioned)

from test_fail_lines import _digest, _mutations

FIXTURE = Path(__file__).parent / "fixtures" / "law_lines.json"

# largest model size per group; the ternary tables have n^3 cells
MAX_SIZE = {"jsl": 5, "sectioned": 7, "meet": 5, "imp": 5, "r": 4, "q": 4}


def _outcome(check, *args) -> str:
    try:
        rep = check(*args)
    except Exception as exc:  # a crash is part of the recorded behaviour
        return f"ERROR {type(exc).__name__}: {exc}"
    return f"{rep.fail_line() if not rep.ok else 'PASS'} # {rep.note}"


def _built(alg) -> str:
    """Outcome of building the join table through the validated constructor."""
    try:
        build_algebra(alg.labels, tables={"join": alg.join.values})
    except Exception as exc:
        return f"ERROR {type(exc).__name__}: {exc}"
    return "OK"


def _order_edits(alg):
    """(cell labels, new value, file text) for every file that gives the
    model's join table beside its strict pairs with the pair of the cell
    added (``true``) or removed (``false``)."""
    lab = alg.labels
    head, join = serialize_algebra(alg).split("op join:\n")
    for i in range(alg.n):
        for j in range(alg.n):
            if i == j:
                continue
            pairs = [f"  {lab[x]} < {lab[y]}\n" for x in range(alg.n) for y in range(alg.n)
                     if x != y and alg.leq[x][y] != (x == i and y == j)]
            yield ((lab[i], lab[j]), str(not alg.leq[i][j]).lower(),
                   f"{head}order:\n{''.join(pairs)}op join:\n{join}")


def _parsed(text: str) -> str:
    try:
        parse_algebra(text)
    except Exception as exc:
        return f"ERROR {type(exc).__name__}: {exc}"
    return "OK"


def _join_pairs(alg):
    """(cell labels, value, mutant) for every change of a pair of mirrored
    join cells to one new value."""
    lab, jv = alg.labels, alg.join.values
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            for v in range(alg.n):
                if v == jv[i][j] and v == jv[j][i]:
                    continue
                rows = [list(row) for row in jv]
                rows[i][j] = rows[j][i] = v
                yield ((lab[i], lab[j]), lab[v],
                       alg.replace(join=BinTable.from_rows(rows, True)))


def _models(tag: ClassTag, top_size: int):
    for n in range(1, top_size + 1):
        yield from enumerate_models(SearchSpec(tag, n))


def law_lines() -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}

    def add(group: str, alg, table: str, cell, value, outcome: str) -> None:
        groups.setdefault(group, []).append(
            f"{alg.name} {table}({','.join(cell)})={value}: {outcome}")

    for alg in _models(ClassTag.JSL, MAX_SIZE["jsl"]):
        for cell, value, mutant in _mutations(alg, "join"):
            add("jsl/join", alg, "join", cell, value,
                _outcome(validate_join_semilattice, mutant))
            add("jsl/join build", alg, "join", cell, value,
                _built(mutant))
        for cell, value, mutant in _join_pairs(alg):
            add("jsl/join pair", alg, "join", cell, value,
                _outcome(validate_join_semilattice, mutant))
            add("jsl/join pair build", alg, "join", cell, value,
                _built(mutant))
        for t in range(alg.n):
            if t != alg.top:
                add("jsl/top", alg, "top", (), alg.labels[t],
                    _outcome(validate_join_semilattice,
                             alg.replace(universe=Universe(alg.labels, t))))
        for cell, value, text in _order_edits(alg):
            add("jsl/order build", alg, "order", cell, value, _parsed(text))
    for alg in _models(ClassTag.JSL, MAX_SIZE["sectioned"]):
        add("sectioned/jsl", alg, "model", (), "", _outcome(validate_sectioned, alg))
    for alg in _models(ClassTag.SECTIONED, MAX_SIZE["meet"]):
        for cell, value, mutant in _mutations(alg, "meet"):
            add("sectioned/meet build", alg, "meet", cell, value,
                _parsed(serialize_algebra(mutant)))
    for tag, tern in ((ClassTag.IALG, "r"), (ClassTag.RALG, "q")):
        for name in ("imp", tern):
            for alg in _models(tag, MAX_SIZE[name]):
                for cell, value, mutant in _mutations(alg, name):
                    add(f"terms/{tag.value}/{name}", alg, name, cell, value,
                        _outcome(term_witness_check, mutant))
    return groups


def test_law_lines_match_fixture():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["max_size"] == MAX_SIZE
    groups = law_lines()
    assert sorted(groups) == sorted(want["groups"])
    for key, lines in groups.items():
        if _digest(lines) != want["groups"][key]:
            print(f"first differing group {key}: new lines follow")
            print("\n".join(lines))
            raise AssertionError(f"law lines of {key} differ from {FIXTURE.name}: "
                                 f"{_digest(lines)} != {want['groups'][key]}")


if __name__ == "__main__":
    groups = law_lines()
    FIXTURE.write_text(json.dumps(
        {"max_size": MAX_SIZE,
         "groups": {key: _digest(lines) for key, lines in sorted(groups.items())}},
        indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: {sum(len(v) for v in groups.values())} lines")

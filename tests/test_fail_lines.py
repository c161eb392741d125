"""Golden witnesses: the check verdict of every single-cell table mutation.

Every enumerated model of every class is mutated in one cell of one of its
imp, prod, r and q tables at a time, and the mutant runs through the
validator chain of ``check --class <class> --props --subvariety``.  (A meet
table is checked once, when it is built, so its mutants are pinned through
the parser, in ``test_law_lines.py``.)  Each mutation gives one line

    <model> <table>(<cell>)=<value>: <fail_line> # <note>

where ``<fail_line>`` is the first failing report's line (``PASS <what>``
when the whole chain passes).  Few mutants get past the class validator, so
the ncis and rrs mutants also run each validator the chain would not reach
on its own, one line per validator, in groups ``<class>/<table> direct``.
The fixture stores, per group, the line count and the sha256 of the lines,
so any change to a verdict, a law label, a witness, a printed side or a note
shows up here.

Regenerate the fixture, after checking that a change of witness is meant,
with ``PYTHONPATH=src python tests/test_fail_lines.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ordalg import (BinTable, ClassTag, SearchSpec, TernTable, check_divisible,
                    check_ncis_properties, check_rrs_properties, enumerate_models,
                    validate_rrs_identities)
from ordalg.cli import _validator_chain
from ordalg.laws import PROD_ARROW_BOUND, PROD_IDEMPOTENT, evaluate

FIXTURE = Path(__file__).parent / "fixtures" / "fail_lines.json"

# largest model size mutated per table; the ternary tables have n^3 cells
MAX_SIZE = {"imp": 5, "prod": 5, "r": 4, "q": 4}


# the bridge rows (i) and (ii) on their own, under the names the fixture
# records them by
def _check_prod_idempotent(alg):
    return evaluate(alg, PROD_IDEMPOTENT)


def _check_prod_arrow_bound(alg):
    return evaluate(alg, PROD_ARROW_BOUND)


DIRECT = {
    ClassTag.NCIS: (check_ncis_properties,),
    ClassTag.RRS: (check_rrs_properties, check_divisible, validate_rrs_identities,
                   _check_prod_idempotent, _check_prod_arrow_bound),
}


def _line(rep, what: str) -> str:
    return f"{rep.fail_line() if not rep.ok else 'PASS ' + what} # {rep.note}"


def _outcome(alg, tag: ClassTag) -> str:
    try:
        reps = _validator_chain(alg, tag, props=True, subvariety=True)
    except Exception as exc:  # a crash is part of the recorded behaviour
        return f"ERROR {type(exc).__name__}: {exc}"
    for rep, what in reps:
        if not rep.ok:
            return _line(rep, what)
    return _line(*reps[-1])


def _mutations(alg, name: str):
    """(cell labels, value token, mutant) for every single-cell change."""
    n, lab = alg.n, alg.labels
    table = getattr(alg, name)
    if isinstance(table, BinTable):
        choices = list(range(n)) + ([] if table.total else [None])
        for i in range(n):
            for j in range(n):
                for v in choices:
                    if v == table.values[i][j]:
                        continue
                    rows = [list(row) for row in table.values]
                    rows[i][j] = v
                    yield ((lab[i], lab[j]), "-" if v is None else lab[v],
                           alg.replace(**{name: BinTable.from_rows(rows, table.total)}))
    else:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for v in range(n):
                        if v == table.values[i][j][k]:
                            continue
                        vals = [[list(row) for row in plane] for plane in table.values]
                        vals[i][j][k] = v
                        mutant = TernTable(tuple(tuple(tuple(row) for row in plane)
                                                 for plane in vals))
                        yield ((lab[i], lab[j], lab[k]), lab[v],
                               alg.replace(**{name: mutant}))


def fail_lines() -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for tag in ClassTag:
        for n in range(1, max(MAX_SIZE.values()) + 1):
            for alg in enumerate_models(SearchSpec(tag, n)):
                for name, top_size in MAX_SIZE.items():
                    if getattr(alg, name) is None or n > top_size:
                        continue
                    lines = groups.setdefault(f"{tag.value}/{name}", [])
                    direct = groups.setdefault(f"{tag.value}/{name} direct", []) \
                        if tag in DIRECT else None
                    for cell, value, mutant in _mutations(alg, name):
                        head = f"{alg.name} {name}({','.join(cell)})={value}"
                        lines.append(f"{head}: {_outcome(mutant, tag)}")
                        for check in DIRECT.get(tag, ()):
                            direct.append(f"{head} {check.__name__}: "
                                          f"{_line(check(mutant), 'direct')}")
    return groups


def _digest(lines: list[str]) -> dict:
    text = "\n".join(lines) + "\n"
    return {"lines": len(lines), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_fail_lines_match_fixture():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["max_size"] == MAX_SIZE
    groups = fail_lines()
    assert sorted(groups) == sorted(want["groups"])
    for key, lines in groups.items():
        if _digest(lines) != want["groups"][key]:
            print(f"first differing group {key}: new lines follow")
            print("\n".join(lines))
            raise AssertionError(f"fail lines of {key} differ from {FIXTURE.name}: "
                                 f"{_digest(lines)} != {want['groups'][key]}")


if __name__ == "__main__":
    groups = fail_lines()
    FIXTURE.write_text(json.dumps(
        {"max_size": MAX_SIZE,
         "groups": {key: _digest(lines) for key, lines in sorted(groups.items())}},
        indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: {sum(len(v) for v in groups.values())} lines")

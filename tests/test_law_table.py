"""The law table is the one place that turns a violation into a `Report`,
and its term compiler reads law text by the grammar of the `laws` module."""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ordalg
from ordalg import (ClassTag, SearchSpec, StructureError, enumerate_models,
                    ialgebra_from_ncis, laws, ralgebra_from_rrs, serialize_algebra)
from ordalg.laws import IALG_IDENTITIES, JOIN_LAWS

SRC = Path(ordalg.__file__).parent
REPORT_CALL = re.compile(r"Report\.(failing|passing)\(")
# every tuple of rows in the law table, JOIN_LAWS through WEAK_REGULARITY_CHAIN
ROW_TUPLES = {name: value for name, value in vars(laws).items()
              if isinstance(value, tuple) and value and isinstance(value[0], laws.Law)}


def _evaluate_lines() -> range:
    tree = ast.parse((SRC / "laws.py").read_text(encoding="utf-8"))
    node = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "evaluate")
    return range(node.lineno, node.end_lineno + 1)


def test_reports_are_built_only_by_evaluate():
    inside = _evaluate_lines()
    stray = [f"{path.name}:{no}: {line.strip()}"
             for path in sorted(SRC.glob("*.py"))
             for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if REPORT_CALL.search(line)
             and not (path.name == "laws.py" and no in inside)]
    assert stray == []


NAMES = ("x", "y", "z", "u")


def _side(text: str):
    return laws._parse(f"{text} = x", NAMES)[0]


def test_arrow_is_loosest_and_groups_to_the_right():
    assert _side("x v y -> z") == _side("(x v y) -> z") != _side("x v (y -> z)")
    assert _side("x -> y -> z") == _side("x -> (y -> z)") != _side("(x -> y) -> z")


def test_product_binds_tighter_than_meet_and_meet_tighter_than_join():
    assert _side("x v y ^ z . u") == _side("x v (y ^ (z . u))")
    assert _side("x . y ^ z v u") == _side("((x . y) ^ z) v u")
    assert _side("x v y v z") == _side("(x v y) v z")
    assert _side("r(x, 1, y -> z)") == ("rv", "x", "top", ("iv", "y", "z"))


@pytest.mark.parametrize("text", [
    "x + y = z",            # unknown token
    "x v w = x",            # a variable the row does not bind
    "(x v y = x",           # unbalanced parenthesis
    "x v y) = x",
    "x v y",                # no relation
    "x = y z",              # trailing text
    "x = y = z",
    "r(x, y) = x",          # a ternary table with two arguments
    "q(x, y, z, u) = x",    # ... or four
    "t x = x",
])
def test_malformed_text_raises_and_names_the_text(text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        laws._parse(text, NAMES)


@pytest.mark.parametrize("text", [
    "(x . y) v z = x",      # under another operation
    "x -> (x ^ y) = x",
    "r(x . y, y, z) = z",
    "x . y . z = x",
    "x ^ (y . z) = x",
    "x . y <= x",           # under <=
    "x <= y ^ z",
])
def test_a_partial_operation_only_at_the_top_of_an_equation(text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        laws._row(laws.term_law("bad", "x y z", text))


@pytest.mark.parametrize("variables", ["x x", "v", "xy", "x  y", ""])
def test_bad_variable_lists_raise(variables):
    with pytest.raises(ValueError, match=re.escape(repr(variables))):
        laws._row(laws.term_law("bad", variables, "x = x"))


def test_a_failing_check_reports_its_tuple_sides_and_note(fig1_rrs):
    def run(*checks, **note):
        return laws.evaluate(fig1_rrs, (laws.term_law("row", "x y", *checks, **note),))

    eq, le = run("x v y = x"), run(("x <= x", "never"), "x v y <= x")
    assert eq.fail_line() == le.fail_line() == "FAIL axiom=row witness=(a,b) lhs=b rhs=a"
    assert (eq.note, le.note) == ("", laws.LE)
    assert run("x v y = x", note="own").note == "own"
    # an undefined product differs from every element, and from nothing undefined
    assert run("x . y = x").fail_line() == "FAIL axiom=row witness=(a,c) lhs=- rhs=a"
    assert run("x . y = y . x").ok


def test_import_compiles_no_law_text_and_a_row_compiles_once():
    script = textwrap.dedent("""
        import ordalg, ordalg.cli
        from ordalg import laws, parse_algebra, validate_ialgebra
        print(laws._row.cache_info().misses)
        text = open(0).read()
        alg = parse_algebra(text)
        print(laws._row.cache_info().misses)
        validate_ialgebra(alg)
        first = laws._row.cache_info()
        validate_ialgebra(alg)
        validate_ialgebra(alg)
        again = laws._row.cache_info()
        print(first.misses, again.misses, again.hits - first.hits)
        try:  # a v b := 1 keeps the order and breaks commutativity
            parse_algebra(text.replace("op join:\\n  a a 1", "op join:\\n  a 1 1", 1))
        except ordalg.ParseError as exc:
            print(laws._row.cache_info().misses)
            print(exc)
    """)
    text = serialize_algebra(next(enumerate_models(SearchSpec(ClassTag.IALG, 3))))
    assert "op join:\n  a a 1\n  a b 1\n" in text
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", script], input=text, env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    at_import, parsed = map(int, out[:2])
    first, again, hits = map(int, out[2].split())
    broken = int(out[3])
    assert at_import == parsed == 0
    # a valid join table is accepted by its up-set masks, so parsing
    # compiles no row; validating compiles the ialg rows, none twice
    assert first == len(set(IALG_IDENTITIES)) == again
    assert hits == 2 * len(IALG_IDENTITIES)
    # a broken join compiles the join rows, to name the row it fails
    assert broken == first + len(set(JOIN_LAWS))
    assert out[4] == "not a join-semilattice: join-commutative at (a,b)"


def test_evaluate_supplies_every_table_a_row_names(fig1_rrs):
    # the tables `evaluate` hands to every scan, read off a probe row
    always: set[str] = set()
    probe = laws.Law("probe", 0, "", lambda ix, **tables: always.update(tables) or iter(()))
    assert laws.evaluate(fig1_rrs, (probe,)).ok
    known = always | set(laws._DERIVED)
    rows = [law for value in ROW_TUPLES.values() for law in value]
    assert len(rows) >= 70  # the table has 70 rows: each is found
    for law in rows:
        scan, names = laws._row(law)
        assert next(iter(inspect.signature(scan).parameters)) == "ix", law.label
        assert set(names) <= known, (law.label, set(names) - known)


# the optional table behind each name a row may read, and the phrase the
# refusal names it by; t is r, or q where r is absent
_OPTIONAL = {"iv": ("imp", "an imp"), "pv": ("prod", "a prod"), "rv": ("r", "an r"),
             "qv": ("q", "a q"), "tv": ("r or q", "an r or q")}


def _missing_table_cases():
    for name, rows in ROW_TUPLES.items():
        read = {table for law in rows for table in laws._row(law)[1]}
        for param in sorted(read & _OPTIONAL.keys()):
            yield pytest.param(rows, *_OPTIONAL[param], id=f"{name}-{param}")


def test_the_missing_table_cases_cover_the_row_tuples():
    assert set(ROW_TUPLES) >= {"JOIN_LAWS", "NCIS_AXIOMS", "RRS_BASE", "SRS_LAWS",
                               "PROD_MEET", "RALG_SUBVARIETY", "TERM_Q_DIVISIBLE",
                               "TERM_SCHEMES", "WEAK_REGULARITY_CHAIN"}
    assert len(list(_missing_table_cases())) > 20


@pytest.mark.parametrize("rows, slots, phrase", _missing_table_cases())
def test_a_row_tuple_refuses_a_model_without_a_table_it_reads(rows, slots, phrase):
    """The model has every table but the one named: a missing table is the
    one message of `require_tables`, before any row runs."""
    ncis = next(enumerate_models(SearchSpec(ClassTag.NCIS, 3)))
    full = ialgebra_from_ncis(ncis).replace(prod=ncis.glb)
    full = full.replace(q=ralgebra_from_rrs(full).q)
    bare = full.replace(**{slot: None for slot in slots.split(" or ")})
    with pytest.raises(StructureError, match=f"^this operation requires {phrase} table$"):
        laws.evaluate(bare, rows)

"""The package's records are immutable values: built by keyword with their
defaults, shown as ``Name(field=value, ...)``, equal and hashed field by
field, and they refuse assignment.  None of them needs the `dataclasses`
module, so importing the CLI loads neither it nor `inspect`."""

from __future__ import annotations

import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ordalg
from ordalg import (Algebra, BinTable, ClassTag, ConLattice, MaltsevReport, Partition,
                    Report, SearchSpec, SectionShape, StructureError, TernTable,
                    Universe, congruence_lattice, enumerate_models)

SRC = Path(ordalg.__file__).parent

ONE = Universe(labels=("1",), top=0)
JOIN = BinTable(values=((0,),), total=True)

# (record built by keyword from its required fields, every field's value in
# field order, the repr)
RECORDS = {
    "Report": (lambda: Report(ok=False, axiom="(1)"),
               {"ok": False, "axiom": "(1)", "witness": (), "lhs": "", "rhs": "",
                "note": ""},
               "Report(ok=False, axiom='(1)', witness=(), lhs='', rhs='', note='')"),
    "Universe": (lambda: Universe(labels=("a", "1"), top=1),
                 {"labels": ("a", "1"), "top": 1},
                 "Universe(labels=('a', '1'), top=1)"),
    "BinTable": (lambda: BinTable(values=((0,),), total=True),
                 {"values": ((0,),), "total": True},
                 "BinTable(values=((0,),), total=True)"),
    "TernTable": (lambda: TernTable(values=(((0,),),)),
                  {"values": (((0,),),)},
                  "TernTable(values=(((0,),),))"),
    "Algebra": (lambda: Algebra(universe=ONE, join=JOIN),
                {"universe": ONE, "join": JOIN, "meet": None, "imp": None, "prod": None,
                 "r": None, "q": None, "name": ""},
                "Algebra(universe=Universe(labels=('1',), top=0), "
                "join=BinTable(values=((0,),), total=True), meet=None, imp=None, "
                "prod=None, r=None, q=None, name='')"),
    "Partition": (lambda: Partition(classes=(3, 3, 4)),
                  {"classes": (3, 3, 4)},
                  "Partition(classes=(3, 3, 4))"),
    "ConLattice": (lambda: ConLattice(congruences=(Partition((1,)),)),
                   {"congruences": (Partition((1,)),)},
                   "ConLattice(congruences=(Partition(classes=(1,)),))"),
    "MaltsevReport": (lambda: MaltsevReport(three_permutable=True, con_distributive=False,
                                            weakly_regular=True),
                      {"three_permutable": True, "con_distributive": False,
                       "weakly_regular": True, "witness": ""},
                      "MaltsevReport(three_permutable=True, con_distributive=False, "
                      "weakly_regular=True, witness='')"),
    "SectionShape": (lambda: SectionShape(base=0, distributive=False, modular=False,
                                          witness_kind="N5", witness=(0, 1, 2, 3, 4)),
                     {"base": 0, "distributive": False, "modular": False,
                      "witness_kind": "N5", "witness": (0, 1, 2, 3, 4)},
                     "SectionShape(base=0, distributive=False, modular=False, "
                     "witness_kind='N5', witness=(0, 1, 2, 3, 4))"),
    "SearchSpec": (lambda: SearchSpec(class_tag=ClassTag.JSL, size=3),
                   {"class_tag": ClassTag.JSL, "size": 3, "upto": False, "violate": None,
                    "limit": None},
                   "SearchSpec(class_tag=<ClassTag.JSL: 'jsl'>, size=3, upto=False, "
                   "violate=None, limit=None)"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    make, fields, text = RECORDS[name]
    rec = make()
    assert type(rec).__name__ == name
    assert {f: getattr(rec, f) for f in fields} == fields
    assert repr(rec) == text
    twin = make()
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    for f, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, f, value)
    assert repr(rec) == text


def test_a_replaced_universe_is_checked_as_a_new_one_is():
    with pytest.raises(StructureError, match="duplicate label 'a'"):
        Universe(("a", "1"), 1)._replace(labels=("a", "a"))
    with pytest.raises(StructureError, match="top index out of range"):
        Universe(("a", "1"), 1)._replace(top=2)


def test_partitions_sort_by_class_of_in_every_comparison():
    lats = [congruence_lattice(alg) for alg in enumerate_models(SearchSpec(ClassTag.IALG, 5))]
    cons = [p for lat in lats for p in lat.congruences]
    rng = random.Random(0)
    for lat in lats:
        shuffled = list(lat.congruences)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == sorted(shuffled, key=lambda p: p.class_of) \
            == list(lat.congruences)
    ops = (operator.lt, operator.le, operator.gt, operator.ge)
    for p in cons:
        for q in cons:
            for op in ops:
                assert op(p, q) == op(p.class_of, q.class_of)
    # the bitmasks order some pairs the other way, so the test can tell
    assert any((p.classes < q.classes) != (p < q) for p in cons for q in cons)


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: the interpreter's site hooks may import either module themselves
    script = ("import sys, ordalg, ordalg.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"

"""Golden section shapes of every join-semilattice model.

``section_shape_report`` gives, per base b, whether the section [b, 1] is
modular and distributive, and a pentagon (N5) or diamond (M3) sublattice
witness when it is not.  One line ``<model> <repr of the shape>`` per base
of every jsl model up to ``MAX_SIZE``; the fixture stores the line count
and the sha256 of the lines.  The verdicts are also checked against a
brute-force scan of the two laws in `oracles.py`.

Regenerate the fixture, after checking that a change of witness is meant,
with ``PYTHONPATH=src python tests/test_section_shapes.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from oracles import oracle_section_laws
from ordalg import ClassTag, SearchSpec, enumerate_models, section_shape_report

from test_fail_lines import _digest

FIXTURE = Path(__file__).parent / "fixtures" / "section_shapes.json"

MAX_SIZE = 7
ORACLE_SIZE = 6


def _models(top_size: int):
    for n in range(1, top_size + 1):
        yield from enumerate_models(SearchSpec(ClassTag.JSL, n))


def shape_lines() -> list[str]:
    return [f"{alg.name} {section_shape_report(alg, b)!r}"
            for alg in _models(MAX_SIZE) for b in range(alg.n)]


def test_section_shapes_match_fixture():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["max_size"] == MAX_SIZE
    lines = shape_lines()
    if _digest(lines) != want["shapes"]:
        print("\n".join(lines))
        raise AssertionError(f"section shapes differ from {FIXTURE.name}: "
                             f"{_digest(lines)} != {want['shapes']}")


def test_section_shapes_agree_with_the_law_scans():
    kinds = set()
    for alg in _models(ORACLE_SIZE):
        for b in range(alg.n):
            shape = section_shape_report(alg, b)
            assert (shape.modular, shape.distributive) == \
                oracle_section_laws(alg.leq, b), (alg.name, b)
            kinds.add(shape.witness_kind)
    # every verdict occurs: distributive, pentagon and diamond sections
    assert kinds == {None, "N5", "M3"}


if __name__ == "__main__":
    lines = shape_lines()
    FIXTURE.write_text(json.dumps({"max_size": MAX_SIZE, "shapes": _digest(lines)},
                                  indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: {len(lines)} lines")

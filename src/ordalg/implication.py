"""Implication semilattices with a total arrow and a partial meet.

`derive_implication` equips a semilattice whose sections are all
pseudocomplemented with the arrow ``x -> y :=`` pseudocomplement of
``x v y`` inside [y, 1]; `derive_sections` goes back by reading the
sectional pseudocomplement of ``y`` in [x, 1] off the arrow as ``y -> x``.
The two maps are mutually inverse, which the test-suite verifies
exhaustively over the enumerated model corpus.
"""

from __future__ import annotations

from .core import Algebra, BinTable, Report, StructureError, require_tables
from .laws import NCIS_AXIOMS, NCIS_PROPERTIES, evaluate


def derive_implication(alg: Algebra) -> Algebra:
    """The arrow table from sectional pseudocomplements (requires a
    sectioned input; raises if some pseudocomplement does not exist), with
    the glb as the meet."""
    base = alg.replace(meet=alg.glb)
    n = base.n
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            pc = base.pc[y][base.join.values[x][y]]
            if pc is None:
                raise StructureError(
                    f"not sectioned: no pseudocomplement for "
                    f"({base.label(x)},{base.label(y)})")
            row.append(pc)
        rows.append(row)
    return base.replace(imp=BinTable.from_rows(rows, total=True))


def derive_sections(alg: Algebra) -> Algebra:
    """Forget the arrow, keeping the partial meet, the glb; the sectional
    pseudocomplement of y in [x, 1] is recoverable as imp[y][x]."""
    require_tables(alg, "imp")
    return alg.replace(meet=alg.glb, imp=None)


def validate_ncis(alg: Algebra) -> Report:
    """Check the four arrow axioms against the partial meet of the order.

    (1) y <= x->y
    (2) (x v y) ^ (x->y) = y
    (3) (x v y)->y = x->y
    (4) y <= (x v z) -> ((x v z) ^ (y v z))

    The meet is the order's glb, which a stored meet table equals by
    construction.  Both meets above are defined: (2)'s is bounded by y
    once (1) holds, and (4)'s by z.
    """
    return evaluate(alg, NCIS_AXIOMS, "arrow axioms (1)-(4) hold")


def check_ncis_properties(alg: Algebra) -> Report:
    """Derived arrow properties (5)-(9); assumes `validate_ncis` passed.

    (5) x <= y iff x->y = 1
    (6) x <= y implies y->z <= x->z
    (7) x <= (x->y)->y
    (8) ((x->y)->y)->y = x->y
    (9) 1->x = x
    """
    return evaluate(alg, NCIS_PROPERTIES, "arrow properties (5)-(9) hold")

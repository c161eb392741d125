"""Total-operation presentations of the partial structures.

The partial meet is replaced by the total ternary ``r(x,y,z) = (x v z) ^
(y v z)`` (always defined: z bounds both arguments), the partial product by
``q(x,y,z) = (x v z) . (y v z)``.  Both presentations are equational, and
the conversions to and from the partial form are mutually inverse.
"""

from __future__ import annotations

from itertools import product

from .core import (Algebra, BinTable, Report, StructureError, TernTable,
                   _check_meet, entry, require_tables)
from .laws import IALG_IDENTITIES, RALG_IDENTITIES, RALG_SUBVARIETY, evaluate


def ialgebra_from_ncis(alg: Algebra) -> Algebra:
    """Total ternary meet-of-joins table from the partial meet, the glb."""
    require_tables(alg, "imp")
    return alg.replace(meet=None, r=_lift(alg, alg.glb))


def _lift(alg: Algebra, table: BinTable) -> TernTable:
    """The total ternary table ``(x v z) op (y v z)`` of a partial binary
    table, the inverse of `_readback`: z bounds both arguments, so op must
    be defined there.  The glb is; a product read from a file that no
    validator has passed may not be."""
    tv, jv, span = table.values, alg.join.values, range(alg.n)
    vals = tuple(tuple(tuple([tv[jx[z]][jy[z]] for z in span]) for jy in jv) for jx in jv)
    if any(None in row for plane in vals for row in plane):
        cell = next(c for c in product(span, repeat=3) if entry(vals, c) is None)
        raise StructureError("product undefined on a bounded pair at "
                             f"({','.join(map(alg.label, cell))})")
    return TernTable(vals)


def _readback(alg: Algebra, name: str) -> BinTable:
    """The partial binary table read off the ternary table ``name`` at any
    common lower bound z of each pair; every z must give the same value,
    otherwise the table is not well-defined and the input violates the
    ternary identities."""
    tv, dn, lab = getattr(alg, name).values, alg.downsets, alg.label
    rows: list[list[int | None]] = []
    for x in range(alg.n):
        row: list[int | None] = []
        for y in range(alg.n):
            vals = {tv[x][y][z]: z for z in sorted(dn[x] & dn[y])}
            if len(vals) > 1:
                v0, v1 = sorted(vals)[:2]
                raise StructureError(
                    f"{name} not well-defined at ({lab(x)},{lab(y)}): "
                    f"z={lab(vals[v0])} gives {lab(v0)}, "
                    f"z'={lab(vals[v1])} gives {lab(v1)}")
            row.append(next(iter(vals), None))
        rows.append(row)
    return BinTable.from_rows(rows, total=False)


def ncis_from_ialgebra(alg: Algebra) -> Algebra:
    """Partial meet recovered from r (see `_readback`), checked against the
    glb like every stored meet."""
    require_tables(alg, "imp", "r")
    meet = _readback(alg, "r")
    _check_meet(alg, meet)
    return alg.replace(meet=meet, r=None)


def validate_ialgebra(alg: Algebra) -> Report:
    """The ten ternary-meet identities; first violated identity in scan
    order is reported with its tuple.  The join laws are not run again: a
    given join table is accepted when it is built (`core.build_algebra`),
    in one pass over its up-set masks, with the law rows run only to name
    a failure, and a generated one is the least-upper-bound table of its
    order.

    (1')  y <= x->y
    (2')  r(x, x->y, y) = y
    (3')  (x v y)->y = x->y
    (4')  y <= (x v z) -> r(x,y,z)
    (5')  r(x,y,z) <= x v z
    (6')  r(x,y,z) <= y v z
    (7')  r(x, x v y, z) = x v z
    (8')  r(x,y,z) = r(x v z, y v z, z)
    (9')  z <= r(x,y,z)
    (10') r(u, r(x,y,z), z) = r(r(u,x,z), r(u,y,z), z)
    """
    return evaluate(alg, IALG_IDENTITIES, "ternary-meet identities (1')-(10') hold")


def ralgebra_from_rrs(alg: Algebra) -> Algebra:
    """Total ternary product-of-joins table from the partial product."""
    require_tables(alg, "imp", "prod")
    return alg.replace(prod=None, q=_lift(alg, alg.prod))


def rrs_from_ralgebra(alg: Algebra) -> Algebra:
    """Partial product recovered from q (see `_readback`)."""
    require_tables(alg, "imp", "q")
    return alg.replace(prod=_readback(alg, "q"), q=None)


def validate_ralgebra(alg: Algebra, subvariety: bool = False) -> Report:
    """The eleven ternary-product identities (20)-(30); with ``subvariety``
    also the identity q(x, x->y, y) = y.  Like `validate_ialgebra`, it
    assumes the join laws, which were checked where the join entered.

    (20) z <= q(x,y,z)
    (21) q(z v u v x, z v u v y, z) = q(z v u v x, z v u v y, z v u)
    (22) q(x,1,x) = q(1,x,x) = x
    (23) q(x,y,z) = q(y,x,z)
    (24) q(q(x,y,u), z, u) = q(x, q(y,z,u), u)
    (25) q(x,z,u) <= q(x v y, z, u)
    (26) x v z <= y -> (q(x,y,z) v z)
    (27) x <= y -> x
    (28) q(x, x->y, y) <= y
    (29) q(x,y,z) = q(x v z, y v z, z)
    (30) (x v y)->y = x->y
    """
    return evaluate(alg, RALG_IDENTITIES + (RALG_SUBVARIETY if subvariety else ()),
                    "ternary-product identities (20)-(30) hold")

"""The law table: every law the validators check, one row each.

A `Law` row holds the label a failure reports, the arity of the tuples it
ranges over, the note a failure carries, and a scan.  The scan is called
with the row's index tuples (every tuple over the carrier of that arity, in
lexicographic order) and the algebra's integer tables as keywords, and
returns an iterator over the violations, in the order it visits them:

    (witness, lhs, rhs)               the row's label and note
    (witness, lhs, rhs, note)         the row's label, another note
    (witness, lhs, rhs, note, label)  a sub-check with its own label

``witness`` holds element indices; a side is an element index, ``None``
for undefined, or a word (``true``, ``defined``, ...).  `evaluate` runs the
rows in order and turns the first violation into a `Report`; no other code
builds a validator's failing report.  The scan order of a row is the
witness contract: the first violated law, and its first tuple, are what
``check`` prints.

The tables a scan may name:

    n, top   carrier size and the top's index
    ix       the row's index tuples
    le       le[x][y] is x <= y, read off the join table
    lq       the stored order ``leq``, which the raw constructor may pass
             out of step with the join table
    dn, up   downsets and upsets of the stored order
    jv       join values; iv imp; mv stored meet; pv prod; rv r; qv q
             (``None`` when the algebra has no such table)

and, passed by the validators that need them:

    gv       the partial glb of the stored order
    pc       the sectional pseudocomplements, ``Algebra.pc``
    unmet    the bounded pairs without a glb (sectioned (a))
    tv       the ternary table the term schemes read: r, else q
    secs     the sections [b, 1], sorted (srs only)

``le``, ``dn`` and ``up`` are the algebra's cached order tables; `evaluate`
builds them only when a row names them among its parameters.

To add a law, append a row to its validator's tuple at the place where it
is to be checked.  The scan is one generator expression that reads both
sides from the tables and applies the relation inside the generator, so
that no tuple costs a Python call; ``for v in [expr]`` binds a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

if TYPE_CHECKING:
    from .core import Algebra


@dataclass(frozen=True)
class Report:
    """Pass/fail verdict of a validator, with a witness for failures.

    ``witness`` holds element labels; ``lhs``/``rhs`` are the evaluated
    sides of the violated law (labels, ``-`` for undefined, or
    ``true``/``false`` for boolean sides).
    """

    ok: bool
    axiom: str = ""
    witness: tuple[str, ...] = ()
    lhs: str = ""
    rhs: str = ""
    note: str = ""

    @staticmethod
    def passing(note: str = "") -> "Report":
        return Report(True, note=note)

    @staticmethod
    def failing(axiom: str, witness: tuple[str, ...], lhs: str, rhs: str,
                note: str = "") -> "Report":
        return Report(False, axiom=axiom, witness=witness, lhs=lhs, rhs=rhs, note=note)

    def fail_line(self) -> str:
        """Stable machine-readable failure line (one line, key=value)."""
        w = ",".join(self.witness)
        return f"FAIL axiom={self.axiom} witness=({w}) lhs={self.lhs} rhs={self.rhs}"


class Law(NamedTuple):
    label: str
    arity: int
    note: str
    scan: Callable[..., Iterator[tuple]]


@lru_cache(maxsize=None)
def index_tuples(n: int, arity: int) -> tuple[tuple[int, ...], ...]:
    return tuple(product(range(n), repeat=arity))


def _values(table):
    return None if table is None else table.values


def _side(v, labels: tuple[str, ...]) -> str:
    return "-" if v is None else v if isinstance(v, str) else labels[v]


# tables read off the order, built on first use by a row that names them
_ORDER_TABLES = {"le": "join_order", "dn": "downsets", "up": "upsets"}


def evaluate(alg: Algebra, laws: tuple[Law, ...], passing_note: str = "",
             **extra) -> Report:
    """First violation of the rows in order, as a failing `Report`."""
    tables = dict(n=alg.n, top=alg.top, lq=alg.leq, jv=alg.join.values,
                  mv=_values(alg.meet), iv=_values(alg.imp), pv=_values(alg.prod),
                  rv=_values(alg.r), qv=_values(alg.q), **extra)
    for law in laws:
        code = law.scan.__code__
        for name in code.co_varnames[1:code.co_argcount]:
            if name not in tables:
                tables[name] = getattr(alg, _ORDER_TABLES[name])
        hit = next(iter(law.scan(index_tuples(alg.n, law.arity), **tables)), None)
        if hit is not None:
            witness, lhs, rhs, note, label = hit + (law.note, law.label)[len(hit) - 3:]
            lab = alg.labels
            return Report.failing(label, tuple(lab[i] for i in witness),
                                  _side(lhs, lab), _side(rhs, lab), note)
    return Report.passing(passing_note)


LE = "expected lhs <= rhs"
UNDEF_MEET = "meet undefined where the axiom needs it"

# ---------------------------------------------------------------------------
# join-semilattices with top (`validate_join_semilattice`, and the first
# rows of the total presentations)

JOIN_LAWS = (
    Law("join-idempotent", 1, "",
        lambda ix, jv, **_: (((x,), jv[x][x], x) for (x,) in ix if jv[x][x] != x)),
    Law("join-commutative", 2, "",
        lambda ix, jv, **_: (((x, y), jv[x][y], jv[y][x])
                             for x, y in ix if jv[x][y] != jv[y][x])),
    # x v (y v z) = (x v y) v z
    Law("join-associative", 3, "",
        lambda ix, jv, **_: (((x, y, z), l, r) for x, y, z in ix
                             for l in [jv[x][jv[y][z]]] for r in [jv[jv[x][y]][z]]
                             if l != r)),
    # x v y is the least upper bound of x and y in the stored order, and
    # x <= y there exactly when x v y = y; per pair, the first check failing
    Law("join-order", 2, "",
        lambda ix, lq, up, jv, **_: (
            ((x, y), j, "upper bound") if not (lq[x][j] and lq[y][j]) else
            ((x, y), j, min(lower), "join is not the least upper bound") if lower else
            ((x, y), j, y, "order and join table disagree")
            for x, y in ix for j in [jv[x][y]] for lower in [(up[x] & up[y]) - up[j]]
            if not (lq[x][j] and lq[y][j]) or lower or lq[x][y] != (j == y))),
    Law("top-absorbing", 1, "",
        lambda ix, top, jv, **_: (((x,), jv[x][top], top)
                                  for (x,) in ix if jv[x][top] != top)),
)

# ---------------------------------------------------------------------------
# sections as pseudocomplemented lattices (`validate_sectioned`)

SECTIONED_LAWS = (
    # (a) every bounded pair has a greatest lower bound ...
    Law("(a)", 2, "bounded pair without greatest common lower bound",
        lambda ix, unmet, **_: ((pair, "-", "-") for pair in unmet)),
    # ... which a stored meet table agrees with
    Law("(a)", 2, "meet table disagrees with greatest lower bound",
        lambda ix, mv, gv, **_: iter(()) if mv is None else (
            ((x, y), mv[x][y], gv[x][y]) for x, y in ix
            if gv[x][y] is not None and mv[x][y] != gv[x][y])),
    # (b) every y in [b, 1] has a pseudocomplement there
    Law("(b)", 2, "no pseudocomplement in section",
        lambda ix, lq, pc, **_: (((b, y), "-", "-") for b, y in ix
                                 if lq[b][y] and pc[b][y] is None)),
)

# ---------------------------------------------------------------------------
# scans shared by several validators


def _below_arrow(ix, le, iv, **_):  # y <= x->y
    return (((x, y), y, iv[x][y]) for x, y in ix if not le[y][iv[x][y]])


def _arrow_absorbs(ix, jv, iv, **_):  # (x v y)->y = x->y
    return (((x, y), iv[jv[x][y]][y], iv[x][y])
            for x, y in ix if iv[jv[x][y]][y] != iv[x][y])


def _arrow_is_order(ix, top, le, iv, **_):  # x <= y iff x->y = 1
    return (((x, y), iv[x][y], "true" if le[x][y] else "false")
            for x, y in ix if (iv[x][y] == top) != le[x][y])


def _arrow_antitone(ix, le, iv, **_):  # x <= y implies y->z <= x->z
    return (((x, y, z), iv[y][z], iv[x][z])
            for x, y, z in ix if le[x][y] and not le[iv[y][z]][iv[x][z]])


def _below_double_arrow(ix, le, iv, **_):  # x <= (x->y)->y
    return (((x, y), x, iv[iv[x][y]][y])
            for x, y in ix if not le[x][iv[iv[x][y]][y]])


def _triple_arrow(ix, iv, **_):  # ((x->y)->y)->y = x->y
    return (((x, y), v, iv[x][y])
            for x, y in ix for v in [iv[iv[iv[x][y]][y]][y]] if v != iv[x][y])


def _below_arrow_back(ix, le, iv, **_):  # x <= y->x
    return (((x, y), x, iv[y][x]) for x, y in ix if not le[x][iv[y][x]])


# ---------------------------------------------------------------------------
# implication semilattices (`validate_ncis`, `check_ncis_properties`)

NCIS_AXIOMS = (
    # stored meet = greatest lower bound, defined exactly on bounded pairs
    Law("domain", 2, "meet table must equal the greatest lower bound "
                     "exactly on bounded pairs",
        lambda ix, mv, gv, **_: iter(()) if mv is None else (
            ((x, y), mv[x][y], gv[x][y]) for x, y in ix if mv[x][y] != gv[x][y])),
    Law("(1)", 2, LE, _below_arrow),
    # (x v y) ^ (x->y) = y
    Law("(2)", 2, "",
        lambda ix, jv, iv, gv, **_: (
            ((x, y), m, y, "" if m is not None else UNDEF_MEET)
            for x, y in ix for m in [gv[jv[x][y]][iv[x][y]]] if m != y)),
    Law("(3)", 2, "", _arrow_absorbs),
    # y <= (x v z) -> ((x v z) ^ (y v z))
    Law("(4)", 3, LE,
        lambda ix, le, jv, iv, gv, **_: (
            ((x, y, z), "-", y, UNDEF_MEET) if m is None else ((x, y, z), y, iv[u][m])
            for x, y, z in ix for u in [jv[x][z]] for m in [gv[u][jv[y][z]]]
            if m is None or not le[y][iv[u][m]])),
)

NCIS_PROPERTIES = (
    Law("(5)", 2, "", _arrow_is_order),
    Law("(6)", 3, LE, _arrow_antitone),
    Law("(7)", 2, LE, _below_double_arrow),
    Law("(8)", 2, "", _triple_arrow),
    # 1->x = x
    Law("(9)", 1, "",
        lambda ix, top, iv, **_: (((x,), iv[top][x], x)
                                  for (x,) in ix if iv[top][x] != x)),
)

# ---------------------------------------------------------------------------
# relatively residuated semilattices (`residuated`)

RRS_BASE = (
    # x.y defined iff x and y have a common lower bound
    Law("domain", 2, "product defined exactly on bounded pairs",
        lambda ix, pv, dn, **_: (
            ((x, y), pv[x][y], "defined" if dn[x] & dn[y] else "-")
            for x, y in ix if (pv[x][y] is not None) != bool(dn[x] & dn[y]))),
    # every common lower bound of x, y lies below x.y
    Law("preamble", 2, "common lower bound not below product",
        lambda ix, le, pv, dn, **_: (
            ((x, y), z, p) for x, y in ix for p in [pv[x][y]] if p is not None
            for z in dn[x] & dn[y] if not le[z][p])),
    # x.y <= x and x.y <= y is forced by (11),(12),(14); checking it up
    # front gives the sharpest witness for corrupted tables.
    Law("(14)/(11)", 2, "",
        lambda ix, le, pv, **_: (
            ((x, y), p, x, "product not below left argument") if not le[p][x]
            else ((x, y), p, y, "product not below right argument")
            for x, y in ix for p in [pv[x][y]]
            if p is not None and not (le[p][x] and le[p][y]))),
    # x.1 = 1.x = x
    Law("(11)", 1, "",
        lambda ix, top, pv, **_: (
            ((x,), pv[x][top] if pv[x][top] != x else pv[top][x], x)
            for (x,) in ix if pv[x][top] != x or pv[top][x] != x)),
    # x.y = y.x
    Law("(12)", 2, "",
        lambda ix, pv, **_: (((x, y), pv[x][y], pv[y][x]) for x, y in ix
                             if pv[x][y] is not None and pv[x][y] != pv[y][x])),
    # (x.y).z = x.(y.z) on bounded triples
    Law("(13)", 3, "",
        lambda ix, pv, dn, **_: (
            ((x, y, z), l, r) for x, y, z in ix if dn[x] & dn[y] & dn[z]
            for l in [pv[pv[x][y]][z]] for r in [pv[x][pv[y][z]]] if l != r)),
    # x <= y implies x.z <= y.z
    Law("(14)", 3, LE,
        lambda ix, le, pv, **_: (
            ((x, y, z), pv[x][z], pv[y][z]) for x, y, z in ix
            if le[x][y] and pv[x][z] is not None
            and (pv[y][z] is None or not le[pv[x][z]][pv[y][z]]))),
    Law("(16)", 2, "", _arrow_absorbs),
)

# (x v z).(y v z) <= z  iff  x v z <= y->z, one label per failing direction
ADJOINTNESS = (
    Law("(15)", 3, "",
        lambda ix, le, jv, iv, pv, **_: (
            ((x, y, z), "true", "false", "product below z but join not below arrow",
             "(15a)") if left else
            ((x, y, z), "false", "true", "join below arrow but product not below z",
             "(15b)")
            for x, y, z in ix for p in [pv[jv[x][z]][jv[y][z]]]
            for left in [p is not None and le[p][z]]
            if left != le[jv[x][z]][iv[y][z]])),
)

RRS_IDENTITIES = (
    # x v z <= y -> (((x v z).(y v z)) v z)
    Law("(17)", 3, LE,
        lambda ix, le, jv, iv, pv, **_: (
            ((x, y, z), u, w) for x, y, z in ix for u in [jv[x][z]]
            for w in [iv[y][jv[pv[u][jv[y][z]]][z]]] if not le[u][w])),
    Law("(18)", 2, LE, _below_arrow_back),
    # (x v y).(x->y) <= y
    Law("(19)", 2, LE,
        lambda ix, le, jv, iv, pv, **_: (
            ((x, y), p, y) for x, y in ix for p in [pv[jv[x][y]][iv[x][y]]]
            if p is None or not le[p][y])),
)

DIVISIBLE = (
    # (x v y).(x->y) = y
    Law("divisible", 2, "",
        lambda ix, jv, iv, pv, **_: (
            ((x, y), p, y) for x, y in ix for p in [pv[jv[x][y]][iv[x][y]]] if p != y)),
)

RRS_PROPERTIES = (
    Law("(i)", 2, "", _arrow_is_order),
    # x.y <= x
    Law("(ii)", 2, LE,
        lambda ix, le, pv, **_: (((x, y), p, x) for x, y in ix for p in [pv[x][y]]
                                 if p is not None and not le[p][x])),
    # x.y <= x ^ y on bounded pairs
    Law("(iii)", 2, LE,
        lambda ix, le, pv, gv, **_: (
            ((x, y), p, m) for x, y in ix for p in [pv[x][y]] for m in [gv[x][y]]
            if m is not None and (p is None or not le[p][m]))),
    Law("(iv)", 2, LE, _below_arrow_back),
    # x.(x->y) <= (x v y).(x->y) <= y; the first only where x.(x->y) is defined
    Law("(v)", 2, LE,
        lambda ix, le, jv, iv, pv, **_: (
            ((x, y), outer, y) if outer is None or not le[outer][y]
            else ((x, y), inner, outer)
            for x, y in ix for w in [iv[x][y]]
            for outer in [pv[jv[x][y]][w]] for inner in [pv[x][w]]
            if outer is None or not le[outer][y]
            or (inner is not None and not le[inner][outer]))),
    Law("(vi)", 2, LE, _below_double_arrow),
    Law("(vii)", 3, LE, _arrow_antitone),
    Law("(viii)", 2, "", _triple_arrow),
)

# ---------------------------------------------------------------------------
# sectionally residuated semilattices (`validate_srs`)


def _section_monoids(ix, top, up, secs, pv, **_):
    """Per base b: the product is defined on every pair of [b, 1], closed
    and commutative there, with unit top, and associative."""
    return (hit for b, s in enumerate(secs) for s_set in [up[b]] for hit in chain(
                (((b, x, y), "-", "section", "", "monoid-domain")
                 for x in s for y in s if pv[x][y] is None),
                (((b, x, y), pv[x][y], b, "", "monoid-closure")
                 if pv[x][y] not in s_set else
                 ((b, x, y), pv[x][y], pv[y][x], "", "monoid-commutative")
                 for x in s for y in s
                 if pv[x][y] not in s_set or pv[x][y] != pv[y][x]),
                (((b, x), pv[x][top], x, "", "monoid-unit") for x in s if pv[x][top] != x),
                (((b, x, y, z), l, r, "", "monoid-associative")
                 for x in s for y in s for z in s
                 for l in [pv[pv[x][y]][z]] for r in [pv[x][pv[y][z]]] if l != r)))


SRS_LAWS = (
    # the section products are the restrictions of the one product, read
    # only inside sections, so a value stored for a pair with no common
    # lower bound is checked here or never
    Law("domain", 2, "product defined on a pair that lies in no common section",
        lambda ix, pv, dn, **_: (
            ((x, y), pv[x][y], "-") for x, y in ix
            if pv[x][y] is not None and not dn[x] & dn[y])),
    # [b, 1] is a commutative monoid with unit 1 under its product
    Law("monoid", 2, "", _section_monoids),
    # x <= y in [u, 1] implies x.z <= y.z there
    Law("(ii)", 4, LE,
        lambda ix, le, secs, pv, **_: (
            ((u, x, y, z), pv[x][z], pv[y][z])
            for u, s in enumerate(secs)
            for x in s for y in s if le[x][y]
            for z in s if not le[pv[x][z]][pv[y][z]])),
    # (x v z) ._z (y v z) <= z  iff  x v z <= y->z
    Law("(iii)", 3, "sectional adjointness",
        lambda ix, le, jv, iv, pv, **_: (
            ((x, y, z), "true" if left else "false", "false" if left else "true")
            for x, y, z in ix for p in [pv[jv[x][z]][jv[y][z]]]
            for left in [p is not None and le[p][z]]
            if left != le[jv[x][z]][iv[y][z]])),
    Law("(iv)", 2, "", _arrow_absorbs),
)

# ---------------------------------------------------------------------------
# bridge between implication semilattices and divisible residuation

PROD_IDEMPOTENT = (
    # x.x = x
    Law("(i)", 1, "",
        lambda ix, pv, **_: (((x,), p, x) for (x,) in ix for p in [pv[x][x]] if p != x)),
)

PROD_ARROW_BOUND = (
    # y <= (x v z) -> ((x v z) . (y v z))
    Law("(ii)", 3, LE,
        lambda ix, le, jv, iv, pv, **_: (
            ((x, y, z), y, None if p is None else iv[u][p])
            for x, y, z in ix for u in [jv[x][z]] for p in [pv[u][jv[y][z]]]
            if p is None or not le[y][iv[u][p]])),
)

PROD_MEET = (
    # x.y = x ^ y, both undefined exactly on unbounded pairs
    Law("prod-meet", 2, "product must coincide with the greatest lower bound",
        lambda ix, pv, gv, **_: (
            ((x, y), pv[x][y], gv[x][y]) for x, y in ix if pv[x][y] != gv[x][y])),
)

# ---------------------------------------------------------------------------
# total presentations (`validate_ialgebra`, `validate_ralgebra`)

IALG_IDENTITIES = (
    Law("(1')", 2, LE, _below_arrow),
    # r(x, x->y, y) = y
    Law("(2')", 2, "",
        lambda ix, iv, rv, **_: (((x, y), v, y) for x, y in ix
                                 for v in [rv[x][iv[x][y]][y]] if v != y)),
    Law("(3')", 2, "", _arrow_absorbs),
    # y <= (x v z) -> r(x,y,z)
    Law("(4')", 3, LE,
        lambda ix, le, jv, iv, rv, **_: (
            ((x, y, z), y, w) for x, y, z in ix
            for w in [iv[jv[x][z]][rv[x][y][z]]] if not le[y][w])),
    # r(x,y,z) <= x v z
    Law("(5')", 3, LE,
        lambda ix, le, jv, rv, **_: (((x, y, z), rv[x][y][z], jv[x][z])
                                     for x, y, z in ix if not le[rv[x][y][z]][jv[x][z]])),
    # r(x,y,z) <= y v z
    Law("(6')", 3, LE,
        lambda ix, le, jv, rv, **_: (((x, y, z), rv[x][y][z], jv[y][z])
                                     for x, y, z in ix if not le[rv[x][y][z]][jv[y][z]])),
    # r(x, x v y, z) = x v z
    Law("(7')", 3, "",
        lambda ix, jv, rv, **_: (((x, y, z), rv[x][jv[x][y]][z], jv[x][z])
                                 for x, y, z in ix if rv[x][jv[x][y]][z] != jv[x][z])),
    # r(x,y,z) = r(x v z, y v z, z)
    Law("(8')", 3, "",
        lambda ix, jv, rv, **_: (
            ((x, y, z), rv[x][y][z], v) for x, y, z in ix
            for v in [rv[jv[x][z]][jv[y][z]][z]] if rv[x][y][z] != v)),
    # z <= r(x,y,z)
    Law("(9')", 3, LE,
        lambda ix, le, rv, **_: (((x, y, z), z, rv[x][y][z])
                                 for x, y, z in ix if not le[z][rv[x][y][z]])),
    # r(u, r(x,y,z), z) = r(r(u,x,z), r(u,y,z), z)
    Law("(10')", 4, "",
        lambda ix, rv, **_: (
            ((u, x, y, z), l, r) for u, x, y, z in ix for l in [rv[u][rv[x][y][z]][z]]
            for r in [rv[rv[u][x][z]][rv[u][y][z]][z]] if l != r)),
)

RALG_IDENTITIES = (
    # z <= q(x,y,z)
    Law("(20)", 3, LE,
        lambda ix, le, qv, **_: (((x, y, z), z, qv[x][y][z])
                                 for x, y, z in ix if not le[z][qv[x][y][z]])),
    # q(z v u v x, z v u v y, z) = q(z v u v x, z v u v y, z v u)
    Law("(21)", 4, "",
        lambda ix, jv, qv, **_: (
            ((z, u, x, y), qv[a][b][z], qv[a][b][zu]) for z, u, x, y in ix
            for zu in [jv[z][u]] for a in [jv[zu][x]] for b in [jv[zu][y]]
            if qv[a][b][z] != qv[a][b][zu])),
    # q(x,1,x) = q(1,x,x) = x
    Law("(22)", 1, "",
        lambda ix, top, qv, **_: (
            ((x,), qv[x][top][x] if qv[x][top][x] != x else qv[top][x][x], x)
            for (x,) in ix if qv[x][top][x] != x or qv[top][x][x] != x)),
    # q(x,y,z) = q(y,x,z)
    Law("(23)", 3, "",
        lambda ix, qv, **_: (((x, y, z), qv[x][y][z], qv[y][x][z])
                             for x, y, z in ix if qv[x][y][z] != qv[y][x][z])),
    # q(q(x,y,u), z, u) = q(x, q(y,z,u), u)
    Law("(24)", 4, "",
        lambda ix, qv, **_: (
            ((x, y, z, u), l, r) for x, y, z, u in ix for l in [qv[qv[x][y][u]][z][u]]
            for r in [qv[x][qv[y][z][u]][u]] if l != r)),
    # q(x,z,u) <= q(x v y, z, u)
    Law("(25)", 4, LE,
        lambda ix, le, jv, qv, **_: (
            ((x, y, z, u), qv[x][z][u], qv[jv[x][y]][z][u])
            for x, y, z, u in ix if not le[qv[x][z][u]][qv[jv[x][y]][z][u]])),
    # x v z <= y -> (q(x,y,z) v z)
    Law("(26)", 3, LE,
        lambda ix, le, jv, iv, qv, **_: (
            ((x, y, z), jv[x][z], w) for x, y, z in ix
            for w in [iv[y][jv[qv[x][y][z]][z]]] if not le[jv[x][z]][w])),
    Law("(27)", 2, LE, _below_arrow_back),
    # q(x, x->y, y) <= y
    Law("(28)", 2, LE,
        lambda ix, le, iv, qv, **_: (((x, y), v, y) for x, y in ix
                                     for v in [qv[x][iv[x][y]][y]] if not le[v][y])),
    # q(x,y,z) = q(x v z, y v z, z)
    Law("(29)", 3, "",
        lambda ix, jv, qv, **_: (
            ((x, y, z), qv[x][y][z], v) for x, y, z in ix
            for v in [qv[jv[x][z]][jv[y][z]][z]] if qv[x][y][z] != v)),
    Law("(30)", 2, "", _arrow_absorbs),
)

def _q_divisible(ix, iv, qv, **_):  # q(x, x->y, y) = y
    return (((x, y), v, y) for x, y in ix for v in [qv[x][iv[x][y]][y]] if v != y)


RALG_SUBVARIETY = (Law("subvariety", 2, "", _q_divisible),)

# ---------------------------------------------------------------------------
# term schemes behind the congruence verdicts (`term_witness_check`); ``tv``
# is r, or q on a ternary-product algebra, whose rows start with
# `TERM_Q_DIVISIBLE`

TERM_Q_DIVISIBLE = (
    Law("(a)", 2, "scheme (a) requires the subvariety identity q(x,x->y,y)=y",
        _q_divisible),
)

TERM_SCHEMES = (
    # (a) 3-permutability: t1(x,y,z) = r(z, y->x, x), t2(x,y,z) = r(x, y->z, z)
    Law("(a)", 2, "",
        lambda ix, iv, tv, **_: (
            ((x, y), a, x, "t1(x,y,y) = x fails") if a != x else
            ((x, y), b, c, "t1(x,x,y) = t2(x,y,y) fails") if b != c else
            ((x, y), d, y, "t2(x,x,y) = y fails")
            for x, y in ix for a in [tv[y][iv[y][x]][x]] for b in [tv[y][iv[x][x]][x]]
            for c in [tv[x][iv[y][y]][y]] for d in [tv[x][iv[x][y]][y]]
            if a != x or b != c or d != y)),
    # (b) distributivity, a chain t0 = x, t1(x,y,z) = r(z,y,x),
    #     t2(x,y,z) = r(x, y->z, z), t3 = z
    Law("(b)", 2, "",
        lambda ix, iv, tv, **_: (
            ((x, y), a, x, "t1(x,x,y) = x fails") if a != x else
            ((x, y), b, c, "t1(x,y,y) = t2(x,y,y) fails") if b != c else
            ((x, y), d, y, "t2(x,x,y) = y fails") if d != y else
            ((x, y), e, x, "t1(x,y,x) = x fails") if e != x else
            ((x, y), f, x, "t2(x,y,x) = x fails")
            for x, y in ix for a in [tv[y][x][x]] for b in [tv[y][y][x]]
            for c in [tv[x][iv[y][y]][y]] for d in [tv[x][iv[x][y]][y]]
            for e in [tv[x][y][x]] for f in [tv[x][iv[y][x]][x]]
            if a != x or b != c or d != y or e != x or f != x)),
    # (c) weak regularity: x->y = y->x = 1 exactly when x = y
    Law("(c)", 2, "x->y = y->x = 1 must hold exactly when x = y",
        lambda ix, top, iv, **_: (
            ((x, y), "true" if both else "false", "true" if x == y else "false")
            for x, y in ix for both in [iv[x][y] == top and iv[y][x] == top]
            if both != (x == y))),
)

# ---------------------------------------------------------------------------
# the weak-regularity chain `congruence_lattice` reads; not a row of
# `TERM_SCHEMES`, so `term_witness_check` reports schemes (a)-(c) only:
# s1(x,y,u,v) = t(y,v,x), s2(x,y,u,v) = t(x,u->y,y) with x = s1(x,y,x->y,y->x),
# s1(x,y,1,1) = s2(x,y,x->y,y->x), s2(x,y,1,1) = y; ``tv`` as above

WEAK_REGULARITY_CHAIN = (
    Law("(d)", 2, "",
        lambda ix, top, iv, tv, **_: (
            ((x, y), a, x, "t(y,y->x,x) = x fails") if a != x else
            ((x, y), b, c, "t(y,1,x) = t(x,(x->y)->y,y) fails") if b != c else
            ((x, y), d, y, "t(x,1->y,y) = y fails") if d != y else
            ((x, y), e, top, "x->x = 1 fails")
            for x, y in ix for a in [tv[y][iv[y][x]][x]] for b in [tv[y][top][x]]
            for c in [tv[x][iv[iv[x][y]][y]][y]] for d in [tv[x][iv[top][y]][y]]
            for e in [iv[x][x]]
            if a != x or b != c or d != y or e != top)),
)

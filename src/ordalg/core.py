"""Finite join-semilattices with a top element: carriers, orders, tables.

Everything in this package is exact, discrete arithmetic on small finite
structures; there is no floating point anywhere.  All values are immutable
after construction and every operation is a pure function, so algebras can
be shared freely across threads or worker processes without synchronization.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property
from operator import eq
from typing import Iterable, Mapping, NamedTuple, Sequence

from .laws import JOIN_LAWS, Report, evaluate, require_tables

UNDEF_TOKEN = "-"


def _splits(text: str) -> bool:
    """Whether the file format would split `text` into tokens or cut it at
    its comment mark: a label or name that does cannot be read back."""
    return "#" in text or any(c.isspace() for c in text)

# The operation slots of an `Algebra`, in file and table order: name ->
# (arity, total).  The join is always present, the others are optional: the
# partial meet of the sections, the arrow, the partial product of the
# residuated forms, and the total ternary r or q of the I-algebras.
OPS = {"join": (2, True), "meet": (2, False), "imp": (2, True),
       "prod": (2, False), "r": (3, True), "q": (3, True)}


class OrdalgError(Exception):
    """Base class for every error raised by this package."""


class StructureError(OrdalgError):
    """A value violates a structural invariant (bad order, bad table, ...)."""


class ParseError(OrdalgError):
    """An algebra file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(message)

    def __str__(self) -> str:
        if self.line is not None and self.col is not None:
            return f"line {self.line}, column {self.col}: {self.message}"
        if self.line is not None:
            return f"line {self.line}: {self.message}"
        return self.message


class ClassTag(str, Enum):
    """One of the seven axiom systems, as ``--class`` names it.

    An algebra's own class is read off its tables (`Algebra.class_tag`);
    srs and rrs share a signature, so only a caller that checks or searches
    for ``SRS`` names that class.
    """

    JSL = "jsl"
    SECTIONED = "sectioned"
    NCIS = "ncis"
    SRS = "srs"
    RRS = "rrs"
    IALG = "ialg"
    RALG = "ralg"


class _UniverseFields(NamedTuple):
    labels: tuple[str, ...]
    top: int


class Universe(_UniverseFields):
    """Carrier set: n distinct labels plus the top element's index.  A label is
    one token of the file format: nonempty, without whitespace or ``#``, and
    not the undefined-entry token."""

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...], top: int) -> Universe:
        seen: set[str] = set()
        for lab in labels:
            if not lab or _splits(lab):
                raise StructureError(f"invalid label {lab!r}")
            if lab == UNDEF_TOKEN:
                raise StructureError(f"label may not be the reserved token {UNDEF_TOKEN!r}")
            if lab in seen:
                raise StructureError(f"duplicate label '{lab}'")
            seen.add(lab)
        if not 0 <= top < len(labels):
            raise StructureError("top index out of range")
        return super().__new__(cls, labels, top)

    @classmethod
    def _make(cls, iterable) -> Universe:
        """Through the checks above, so that `_replace` refuses what the
        constructor refuses."""
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.labels)


class BinTable(NamedTuple):
    """n x n operation table; ``None`` entries mark undefined (partial) spots.
    Like `Algebra`, it trusts its arguments: `build_algebra` checks the
    shape and entries of every table it is given (`_make_table`), and every
    other table is derived from checked ones."""

    values: tuple[tuple[int | None, ...], ...]
    total: bool

    def __getitem__(self, i: int) -> tuple[int | None, ...]:
        return self.values[i]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int | None]], total: bool) -> "BinTable":
        return BinTable(tuple(tuple(row) for row in rows), total)


class TernTable(NamedTuple):
    """Total ternary table; ``values[i][j][k]`` is op(e_i, e_j, e_k).  It
    trusts its arguments, as `BinTable` does."""

    values: tuple[tuple[tuple[int, ...], ...], ...]

    def __getitem__(self, i: int) -> tuple[tuple[int, ...], ...]:
        return self.values[i]


# cached properties of `Algebra` that read only ``join``
_ORDER_CACHES = ("leq", "downsets", "upsets", "glb", "pc")


class _AlgebraFields(NamedTuple):
    universe: Universe
    join: BinTable
    meet: BinTable | None = None
    imp: BinTable | None = None
    prod: BinTable | None = None
    r: TernTable | None = None
    q: TernTable | None = None
    name: str = ""


class Algebra(_AlgebraFields):
    """A finite join-semilattice with top, plus optional extra operations.

    ``join`` is always present, and the order ``leq`` is read off it; the
    optional tables carry the partial meet, the implication, the partial
    product, and the two total ternary operations.  `build_algebra`, which
    the file parser calls, checks every table it is given once, where it
    enters, and the derivation maps build only from checked tables.  A
    stored meet is the glb of the order, so the validators and the maps
    read `glb` and never ``meet``.  The raw constructor, like `BinTable`
    and `TernTable`, trusts its arguments, which the test-suite uses to
    build deliberately broken tables for the validators.  Like every record
    of this package it is an immutable named tuple; the cached properties
    below live in the instance's own ``__dict__``.
    """

    @property
    def n(self) -> int:
        return self.universe.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.universe.labels

    @property
    def top(self) -> int:
        return self.universe.top

    def label(self, i: int) -> str:
        return self.universe.labels[i]

    @property
    def class_tag(self) -> ClassTag:
        """The class whose signature the tables spell, read from the first
        table present among r, q, prod, imp and meet.  srs and rrs share
        their tables, so an srs model reads as rrs."""
        for slot, tag in (("r", ClassTag.IALG), ("q", ClassTag.RALG),
                          ("prod", ClassTag.RRS), ("imp", ClassTag.NCIS),
                          ("meet", ClassTag.SECTIONED)):
            if getattr(self, slot) is not None:
                return tag
        return ClassTag.JSL

    def token(self, v: int | None) -> str:
        """A table value as files and tables print it: its label, or ``-``."""
        return UNDEF_TOKEN if v is None else self.universe.labels[v]

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """``leq[x][y]`` is x <= y, that is x v y = y."""
        return order_from_join(self.join.values)

    @cached_property
    def downsets(self) -> tuple[frozenset[int], ...]:
        n = self.n
        return tuple(frozenset(i for i in range(n) if self.leq[i][j]) for j in range(n))

    @cached_property
    def upsets(self) -> tuple[frozenset[int], ...]:
        n = self.n
        return tuple(frozenset(j for j in range(n) if self.leq[i][j]) for i in range(n))

    @cached_property
    def glb(self) -> BinTable:
        """Partial meet of the order: the greatest lower bound exactly on
        bounded pairs, built once by `glb_table`."""
        return glb_table(self.leq)

    @cached_property
    def pc(self) -> BinTable:
        """``pc[base][y]`` is the sectional pseudocomplement of y in
        [base, 1]: the greatest z >= base with y ^ z = base, or None when
        there is none (always when base is not below y).  A greatest such z
        lies above every other one, so it is their join if it exists."""
        gv, jv = self.glb.values, self.join.values
        rows = []
        for base in range(self.n):
            row: list[int | None] = []
            for y in range(self.n):
                z = base
                for c in self.upsets[base]:
                    if gv[y][c] == base:
                        z = jv[z][c]
                row.append(z if gv[y][z] == base else None)
            rows.append(row)
        return BinTable.from_rows(rows, total=False)

    def replace(self, **changes) -> Algebra:
        """A copy with the given fields changed that keeps the cached `leq`,
        `downsets`, `upsets`, `glb` and `pc` when ``join`` is left alone."""
        out = self._replace(**changes)
        if out.join is self.join:
            for name in _ORDER_CACHES:
                if name in self.__dict__:
                    out.__dict__[name] = self.__dict__[name]
        return out

    def tables(self) -> tuple[tuple[str, BinTable | TernTable], ...]:
        """Present operation tables in canonical slot order."""
        out = []
        for name in OPS:
            t = getattr(self, name)
            if t is not None:
                out.append((name, t))
        return tuple(out)


# ---------------------------------------------------------------------------
# order utilities

def transitive_reflexive_closure(n: int, pairs: Iterable[tuple[int, int]]
                                 ) -> tuple[tuple[bool, ...], ...]:
    """Close the given strict pairs reflexively and transitively (one pass
    of Warshall's algorithm).  A cycle in the pairs is left for
    `check_partial_order` to report."""
    m = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        m[a][b] = True
    for k in range(n):
        mk = m[k]
        for mi in m:
            if mi[k]:
                for j in range(n):
                    if mk[j]:
                        mi[j] = True
    return tuple(tuple(row) for row in m)


def check_partial_order(leq: Sequence[Sequence[bool]], labels: Sequence[str]) -> None:
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise StructureError(f"order not reflexive at {labels[i]}")
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise StructureError(
                    f"order not antisymmetric: {labels[i]} and {labels[j]} form a cycle")
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise StructureError(
                            f"order not transitive at ({labels[i]},{labels[j]},{labels[k]})")


def find_top(leq: Sequence[Sequence[bool]]) -> int:
    n = len(leq)
    tops = [j for j in range(n) if all(leq[i][j] for i in range(n))]
    if len(tops) != 1:
        raise StructureError("no unique top")
    return tops[0]


def lub_table(leq: Sequence[Sequence[bool]], labels: Sequence[str]) -> BinTable:
    """Join table from the order; every pair must have a least upper bound."""
    n = len(leq)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            ubs = [u for u in range(n) if leq[i][u] and leq[j][u]]
            least = [u for u in ubs if all(leq[u][v] for v in ubs)]
            if not least:
                raise StructureError(
                    f"no least upper bound for ({labels[i]},{labels[j]})")
            row.append(least[0])
        rows.append(row)
    return BinTable.from_rows(rows, total=True)


def glb_table(leq: Sequence[Sequence[bool]]) -> BinTable:
    """Partial meet table: on a bounded pair, the common lower bound with
    the largest down-set, else None.  The common lower bounds of a bounded
    pair of a finite join-semilattice are closed under join, so that bound
    lies above all the others: it is the greatest lower bound."""
    n = len(leq)
    downs = [frozenset(i for i in range(n) if leq[i][j]) for j in range(n)]
    size = [len(d) for d in downs]
    rows = []
    for i in range(n):
        row: list[int | None] = []
        for j in range(n):
            clb = downs[i] & downs[j]
            row.append(max(clb, key=size.__getitem__) if clb else None)
        rows.append(row)
    return BinTable.from_rows(rows, total=False)


def order_from_join(values: Sequence[Sequence[int]]) -> tuple[tuple[bool, ...], ...]:
    span = range(len(values))
    return tuple([tuple(map(eq, row, span)) for row in values])


def _lub_top(jv: Sequence[Sequence[int]], leq: Sequence[Sequence[bool]]) -> int | None:
    """The top of a join table that is the least-upper-bound table of its
    order ``leq`` (x <= y iff x v y = y), or None when it is not, read in
    one O(n^2) pass over the up-set masks: ``up[x]`` holds the bits y with
    x <= y.  The masks must be distinct and up[x v y] must be
    up[x] & up[y].  Then x v x = x, as up[x v x] = up[x] and the masks
    are distinct, so the order is reflexive; it is transitive (y in up[x]
    gives up[y] = up[x] & up[y]) and antisymmetric (distinct masks); and
    x v y is the least upper bound of x and y, its up-set being their
    common upper bounds.  Such a table has a top and passes the four
    `JOIN_LAWS` rows, and on a table that passes them the order is a
    partial order whose least upper bounds are the join.  So the test
    passes exactly when `check_partial_order`, `find_top` and the
    `JOIN_LAWS` rows do, as tests/test_finite_facts.py checks on every
    table up to size 3."""
    bits = [1 << y for y in range(len(jv))]
    up = [sum(itertools.compress(bits, row)) for row in leq]
    if len(set(up)) < len(up):
        return None
    masks = up.__getitem__
    for ux, row in zip(up, jv):
        if list(map(masks, row)) != [ux & uy for uy in up]:
            return None
    # every other up-set holds the top and more
    return up.index(min(up))


def _make_table(name: str, values, n: int) -> BinTable | TernTable:
    """The table of slot ``name`` from nested rows of element indices, the
    one check of a table's shape and entries: n rows of n entries (n planes
    of them for a ternary slot), each an element index of type `int` (the
    type is tested first: ``1.0`` and ``True`` equal indices) or, in a
    partial slot, ``None``.  Every row length, entry type and entry is
    checked in one bulk pass over the whole table; only when that fails
    are the rows walked one by one, so that the first bad row, in plane
    and row order, names the fault."""
    arity, total = OPS[name]
    kinds = {int} if total else {int, type(None)}
    cells = set(range(n)) if total else {*range(n), None}
    shape = "binary table is not square" if arity == 2 else "ternary table is not cubic"
    try:  # a row or plane that is not a sequence fails here
        planes = [tuple(map(tuple, plane)) for plane in (values if arity == 3 else (values,))]
    except TypeError:
        raise StructureError(shape) from None
    if len(planes) != n ** (arity - 2):
        raise StructureError(shape)
    rows = list(itertools.chain.from_iterable(planes))
    entries = list(itertools.chain.from_iterable(rows))
    if not (set(map(len, planes)) == set(map(len, rows)) == {n}
            and kinds.issuperset(map(type, entries)) and cells.issuperset(entries)):
        for plane in planes:  # name the first bad row
            if len(plane) != n:
                raise StructureError(shape)
            for row in plane:
                if len(row) != n:
                    raise StructureError(shape)
                if not (kinds.issuperset(map(type, row)) and cells.issuperset(row)):
                    bad = next(v for v in row if type(v) not in kinds or v not in cells)
                    raise StructureError("ternary table entry out of range" if arity == 3
                                         else "undefined entry in total table" if bad is None
                                         else "table entry out of range")
    return BinTable(planes[0], total) if arity == 2 else TernTable(tuple(planes))


def entry(values, cell: Sequence[int]) -> int | None:
    """The value of nested table values at a cell ``(i, j, ...)``."""
    for c in cell:
        values = values[c]
    return values


def default_labels(n: int) -> tuple[str, ...]:
    """Generated-model labels: letters for the body, ``1`` for the top."""
    if n == 1:
        return ("1",)
    letters = "abcdefghijklmnopqrstuvwxyz"
    return tuple(letters[:n - 1]) + ("1",)


JOIN_LAWS_HOLD = "join-semilattice laws hold"


def validate_join_semilattice(alg: Algebra) -> Report:
    """Check idempotence, commutativity, associativity and top absorption
    of the join table.  First violation in scan order wins.
    """
    return evaluate(alg, JOIN_LAWS, JOIN_LAWS_HOLD)


# ---------------------------------------------------------------------------
# construction

def build_algebra(labels: Sequence[str], *,
                  order_pairs: Iterable[tuple[int, int]] | None = None,
                  tables: Mapping[str, Sequence] | None = None,
                  name: str = "") -> Algebra:
    """Validated constructor, the one place a given table is checked.

    ``tables`` maps slot names of `OPS` to nested rows of element indices,
    ``None`` for an undefined entry, as `parse_algebra` reads its ``op``
    blocks.  The order may come from explicit strict pairs of element
    indices or from the join table; the join table is derived from the
    order when absent.  All structural invariants are checked: the shape
    and entries of every table, before anything reads it (`_make_table`),
    order pairs of two element indices each, the order axioms, unique
    top, the join-semilattice laws of a given join table (a derived one
    always holds them), agreement of an order given beside it with the
    join's own (`_order_mismatch`, which implies top absorption), and
    agreement of a supplied meet table with the greatest lower bounds
    (`_check_meet`).  No validator or map checks these again.  A join
    table given without an order is accepted in one pass over its up-set
    masks (`_lub_top`), which holds exactly when the order axioms, the
    top and the join laws do; the order checks and the `JOIN_LAWS` rows
    run only when it fails, to name the failure as they always have.  A
    name, like a label, may not contain whitespace or ``#``, so that the
    file format can carry it.
    """
    if _splits(name):
        raise StructureError(f"invalid name {name!r}")
    labels = tuple(labels)
    n = len(labels)
    if n == 0:
        raise StructureError("empty universe")
    tables = tables or {}
    for slot in tables:
        if slot not in OPS:
            raise StructureError(f"unknown operation slot {slot!r}")
    made = {slot: _make_table(slot, values, n)
            for slot, values in tables.items() if values is not None}
    join = made.pop("join", None)
    if order_pairs is not None:
        order_pairs, span = tuple(order_pairs), set(range(n))
        if not all(type(p) in (tuple, list) and len(p) == 2 and set(map(type, p)) == {int}
                   and span.issuperset(p) for p in order_pairs):
            raise StructureError("order pair out of range")

    if order_pairs is None and join is not None:
        order = order_from_join(join.values)
        top = _lub_top(join.values, order)
    else:
        order, top = transitive_reflexive_closure(n, order_pairs or ()), None
    accepted = top is not None
    if not accepted:  # an order was given, or the mask test refused the join
        check_partial_order(order, labels)
        top = find_top(order)
    universe = Universe(labels, top)

    if join is None:
        # the least upper bounds of an order always form a join table
        alg = Algebra(universe, lub_table(order, labels), name=name)
    else:
        alg = Algebra(universe, join, name=name)
    # where the checks pass ``order`` is the join's own: the validators
    # read it from here, not off the table again
    alg.__dict__["leq"] = order
    if join is not None and not accepted:
        # a given order must be the table's own, and then the top absorbs
        rep = evaluate(alg, JOIN_LAWS if order_pairs is None else JOIN_LAWS[:3])
        if not rep.ok:
            raise StructureError(f"not a join-semilattice: {rep.axiom} at "
                                 f"({','.join(rep.witness)})")
        bad = order_pairs is not None and _order_mismatch(order, join.values)
        if bad:
            raise StructureError("join table does not match the order at "
                                 f"({','.join(map(alg.label, bad))})")

    if "meet" in made:
        _check_meet(alg, made["meet"])
    # the order caches built by the checks above carry over
    return alg.replace(**made)


def _order_mismatch(order: Sequence[Sequence[bool]], join) -> tuple[int, int] | None:
    """The first pair (x, y) whose join is not an upper bound in the order,
    or not the least one, or at which x <= y and x v y = y disagree."""
    span = range(len(order))
    for x, y in itertools.product(span, repeat=2):
        j = join[x][y]
        if (not (order[x][j] and order[y][j]) or order[x][y] != (j == y)
                or any(order[x][u] and order[y][u] and not order[j][u] for u in span)):
            return x, y
    return None


def _check_meet(alg: Algebra, meet: BinTable) -> None:
    """Raise unless a stored meet table is the greatest lower bound."""
    labels, glb = alg.labels, alg.glb.values
    if meet.values == glb:
        return
    for i in range(alg.n):
        for j in range(alg.n):
            got, want = meet.values[i][j], glb[i][j]
            if (got is None) != (want is None):
                raise StructureError(
                    f"meet table domain mismatch at ({labels[i]},{labels[j]})")
            if got != want:
                raise StructureError(
                    "meet table does not match the greatest lower bound at "
                    f"({labels[i]},{labels[j]})")


def project_to_class(alg: Algebra, tag: ClassTag) -> Algebra:
    """Reduct of the algebra to the signature of the given class.

    The meet of sectioned and ncis is the glb, installed whether or not the
    algebra stores one; a missing essential table raises.
    """
    kept = {ClassTag.NCIS: ("imp",), ClassTag.RRS: ("imp", "prod"),
            ClassTag.SRS: ("imp", "prod"), ClassTag.IALG: ("imp", "r"),
            ClassTag.RALG: ("imp", "q")}.get(tag, ())
    kw: dict = {name: None for name in OPS if name != "join"}
    if tag in (ClassTag.SECTIONED, ClassTag.NCIS):
        kw["meet"] = alg.glb
    require_tables(alg, *kept)
    kw.update((name, getattr(alg, name)) for name in kept)
    return alg.replace(**kw)


def relabel(alg: Algebra, new_of_old: Sequence[int],
            labels: Sequence[str] | None = None) -> Algebra:
    """Apply the relabeling ``old index -> new index`` to every component."""
    n = alg.n
    p = list(new_of_old)
    inv = [0] * n
    for old, new in enumerate(p):
        inv[new] = old
    new_labels = tuple(labels) if labels is not None else \
        tuple(alg.labels[inv[i]] for i in range(n))

    def permute(values, arity: int):
        """``values`` with each argument and the value moved along p."""
        if arity == 0:
            return None if values is None else p[values]
        return tuple(permute(values[inv[i]], arity - 1) for i in range(n))

    moved = {name: t._replace(values=permute(t.values, OPS[name][0]))
             for name, t in alg.tables()}
    return Algebra(Universe(new_labels, p[alg.top]), **moved, name=alg.name)


def first_table_difference(a: Algebra, b: Algebra):
    """First differing operation-table cell between two algebras.

    Returns ``(table, coords, left, right)`` with label-rendered values, or
    ``None`` when all present tables agree.  A table present on one side
    only is reported with coords ``()``.
    """
    if a.labels != b.labels:
        return ("elements", (), " ".join(a.labels), " ".join(b.labels))
    n = a.n

    for name, (arity, _) in OPS.items():
        ta, tb = getattr(a, name), getattr(b, name)
        if (ta is None) != (tb is None):
            return (name, (), "present" if ta is not None else UNDEF_TOKEN,
                    "present" if tb is not None else UNDEF_TOKEN)
        if ta is None:
            continue
        if ta.values == tb.values:
            continue
        for cell in itertools.product(range(n), repeat=arity):
            va, vb = entry(ta.values, cell), entry(tb.values, cell)
            if va != vb:
                return (name, tuple(a.label(c) for c in cell), a.token(va), b.token(vb))
    return None

"""The law table: every law the validators check, one row each.

A `Law` row holds the label a failure reports, the arity of the tuples it
ranges over, the note a failure carries, and a scan.  The scan is called
with ``ix``, an iterator over the row's index tuples (every tuple over the
carrier of that arity, in lexicographic order, to be read once), and the
algebra's integer tables as keywords, and returns an iterator over the
violations, in the order it visits them:

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
    ix       the row's index tuples, an iterator read once; only the
             hand-written rows read it
    le       le[x][y] is x <= y, read off the join table
    dn, up   downsets and upsets of the order
    jv       join values; iv imp; pv prod; rv r; qv q
    gv       the partial glb of the order, ``Algebra.glb``, which is the
             meet: a stored meet is checked against it once, when it is
             built (`core._check_meet`), and never read by a row
    pc       the sectional pseudocomplements, ``Algebra.pc``
    secs     the sections [b, 1], each sorted: the upsets
    tv       the ternary table the term schemes read: r, else q

`evaluate` reads every table but ``n``, ``top`` and ``jv`` off the
algebra, whose tables and cached properties own them, only when a row names
it among its parameters (`_DERIVED`).  Each row is planned once (`_row`):
its scan, and the names of the tables it reads.  Before any row runs,
`evaluate` refuses an algebra that lacks a table some row of the tuple
names (``tv`` wants r or q) with the `StructureError` of `require_tables`,
``this operation requires ... table``, naming the first missing slot in
slot order; `require_tables` lives here and `core` re-exports it.

Most rows are term text, e.g. ``term_law("(2')", "x y", "r(x, x->y, y) =
y")``: the variables in the order the row's tuples bind them, then checks
``lhs = rhs`` or ``lhs <= rhs``, each after an optional premise, comparisons
joined by ``,`` before ``=>``.  Loosest first, ``->`` (``iv``, grouping to
the right), ``v`` (``jv``), ``^`` (``gv``) and ``.`` (``pv``) combine
variables (single letters other than r, q, t and v), ``1`` (the top),
parenthesised terms, and ``r``, ``q`` and ``t`` (``tv``) of three terms.
``^`` and ``.`` are partial, and a lookup with an undefined argument is
undefined: ``=`` holds where both sides are equal or both undefined, and
``<=`` only where both are defined, so ``t <= 1`` says t is defined.  On
each tuple the first check whose premise holds and whose comparison fails
yields (witness, lhs, rhs, note), with the check's own note, else the row's
``note=``, else `LE` for a check by ``<=`` and ``""`` for ``=``; an
undefined side prints as ``-``.  A row is compiled on its first `evaluate`
into nested loops, one per variable in the row's order, so it visits the
tuples in lexicographic order without reading ``ix``; each subterm, and
each leading row or plane of a table lookup, is bound in the outermost loop
that fixes its variables, and one that repeats in the innermost loop is
bound at its first use there (`_compile`).  A rule of another shape (an
iff, a scan over sections, a witness that is not the tuple) is a
hand-written generator expression that applies the relation inside the
generator, so that no tuple costs a Python call; ``for v in [expr]`` binds
a value.  Add a law as a row of its validator's tuple, in checking order.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import chain, product
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

if TYPE_CHECKING:
    from .core import Algebra


class Report(NamedTuple):
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
    """A row: a hand-written ``scan``, or the ``terms`` of `term_law`."""

    label: str
    arity: int
    note: str
    scan: Callable[..., Iterator[tuple]] | None = None
    terms: tuple = ()


def _side(v, labels: tuple[str, ...]) -> str:
    return "-" if v is None else v if isinstance(v, str) else labels[v]


# the tables a row may name beyond n, top and jv, each read from the one
# place that owns it, on first use by a row that names it
_DERIVED = {
    "iv": lambda alg: alg.imp.values,
    "pv": lambda alg: alg.prod.values,
    "rv": lambda alg: alg.r.values,
    "qv": lambda alg: alg.q.values,
    "tv": lambda alg: (alg.r or alg.q).values,
    "le": lambda alg: alg.leq,
    "dn": lambda alg: alg.downsets,
    "up": lambda alg: alg.upsets,
    "gv": lambda alg: alg.glb.values,
    "pc": lambda alg: alg.pc.values,
    "secs": lambda alg: tuple(tuple(sorted(up)) for up in alg.upsets),
}

# the operation slots behind the tables of `_DERIVED` that an algebra may
# lack, in slot order; ``tv`` is met by either ternary table
_SLOTS = {"iv": "imp", "pv": "prod", "rv": "r", "qv": "q", "tv": "r or q"}


def require_tables(alg: Algebra, *names: str) -> None:
    """Raise, naming the first that fails, unless the algebra carries each
    named operation table; a name may be an alternative, ``"r or q"``, met
    by any one of its slots.  This is the one place the message is written:
    `evaluate` calls it for the tables its rows read."""
    for name in names:
        if all(getattr(alg, slot) is None for slot in name.split(" or ")):
            from .core import StructureError  # core imports this module
            # imp and r are read with a leading vowel sound
            article = "an" if name[0] in "ir" else "a"
            raise StructureError(f"this operation requires {article} {name} table")


@lru_cache(maxsize=None)
def _row(law: Law) -> tuple[Callable[..., Iterator[tuple]], tuple[str, ...]]:
    """A row's scan, its term text compiled on first use, and the names of
    the tables it reads: its parameters after ``ix``."""
    scan = law.scan or _compile(law.terms)
    code = scan.__code__
    return scan, code.co_varnames[1:code.co_argcount]


def evaluate(alg: Algebra, laws: tuple[Law, ...], passing_note: str = "") -> Report:
    """First violation of the rows in order, as a failing `Report`.

    Before any row runs, an algebra that lacks a table some row names is
    refused with `require_tables`, so a missing table never reaches a scan.
    """
    plans = [_row(law) for law in laws]
    named = set().union(*(names for _, names in plans))
    require_tables(alg, *(slot for name, slot in _SLOTS.items() if name in named))
    tables = dict(n=alg.n, top=alg.top, jv=alg.join.values)
    for law, (scan, names) in zip(laws, plans):
        for name in names:
            if name not in tables:
                tables[name] = _DERIVED[name](alg)
        hit = next(iter(scan(product(range(alg.n), repeat=law.arity), **tables)), None)
        if hit is not None:
            witness, lhs, rhs, note, label = hit + (law.note, law.label)[len(hit) - 3:]
            lab = alg.labels
            return Report.failing(label, tuple(lab[i] for i in witness),
                                  _side(lhs, lab), _side(rhs, lab), note)
    return Report.passing(passing_note)


LE = "expected lhs <= rhs"

# ---------------------------------------------------------------------------
# the term compiler

_OPS = ("->", "v", "^", ".")  # loosest first; "->" groups to the right
_TABLE_OF = {"->": "iv", "v": "jv", "^": "gv", ".": "pv", "r": "rv", "q": "qv", "t": "tv"}
_TOKENS = {"<=", "=", "=>", "(", ")", ",", "1", *_TABLE_OF}


def term_law(label: str, variables: str, *checks: str | tuple[str, str],
             note: str | None = None) -> Law:
    """A row from term text; nothing is parsed before its first `evaluate`.
    A check's default note follows its own relation, the one after ``=>``."""
    notes = tuple((c, note if note is not None else LE if "<=" in c.rpartition("=>")[2]
                   else "") if isinstance(c, str) else c for c in checks)
    return Law(label, len(variables.split()), notes[0][1], terms=(variables, notes))


def _parse(text: str, names: tuple[str, ...]) -> tuple:
    """The comparisons of a check, its premises first, each (lhs, relation,
    rhs); a term is a variable, "top" or (table, arg, ...)."""
    def fail(why: str):
        raise ValueError(f"law text {text!r}: {why}")

    tokens = re.findall(r"->|<=|=>|\w+|\S", text) + [""]
    unknown = [tok for tok in tokens[:-1] if tok not in _TOKENS and tok not in names]
    if unknown:
        fail(f"unknown token {unknown[0]!r}")
    pos = 0

    def take(*want: str) -> str:
        nonlocal pos
        if want and tokens[pos] not in want:
            fail(f"expected {' or '.join(want)}, found {tokens[pos] or 'the end'}")
        pos += 1
        return tokens[pos - 1]

    def term(level: int = 0):
        if level == len(_OPS):
            return atom()
        op, left = _OPS[level], term(level + 1)
        while tokens[pos] == op:
            take()
            left = (_TABLE_OF[op], left, term(level if op == "->" else level + 1))
        return left

    def atom():
        tok = take()
        if tok == "(":
            inner = term()
            take(")")
            return inner
        if tok in ("r", "q", "t"):
            take("(")
            args = [term()]
            while take(",", ")") == ",":
                args.append(term())
            if len(args) != 3:
                fail(f"{tok} takes 3 arguments, not {len(args)}")
            return (_TABLE_OF[tok], *args)
        if tok in names or tok == "1":
            return "top" if tok == "1" else tok
        fail(f"unexpected {tok or 'end'}")

    def comparison():
        return term(), take("=", "<="), term()

    comparisons = [comparison()]
    while tokens[pos] == ",":
        take()
        comparisons.append(comparison())
    if len(comparisons) > 1 or tokens[pos] == "=>":
        take("=>")
        comparisons.append(comparison())
    if tokens[pos]:
        fail(f"trailing text from {tokens[pos]!r}")
    return tuple(comparisons)


def _compile(terms: tuple) -> Callable[..., Iterator[tuple]]:
    """The scan of a `term_law` row; `_row` builds it on first use.

    The scan is one ``for`` loop per variable, in the row's order, and in
    the innermost one an ``if`` or ``elif`` per check: its premises and the
    failure of its comparison, joined by ``and``.  A lookup and each of its
    leading rows or planes (``qv[a]``, ``qv[a][b]``) is a node, and a
    ``<=`` is the lookup ``le[lhs][rhs]``.  A node is bound once in the
    outermost loop that fixes its variables, where a deeper loop or a second
    use reads it; in the innermost loop a node used twice is bound with
    ``:=`` at its first use.  A lookup that may read an undefined value is
    guarded, ``(None if s is None else T[s])``, so no node raises, hoisted
    or not.  A name bound where Python may skip it (past the first test of
    a guard or of an ``and``) is read only there, else bound again.
    """
    variables, checks = terms
    names = tuple(variables.split())
    if len(set(names)) < len(names) or not re.fullmatch(r"[a-psuw-z]( [a-psuw-z])*", variables):
        raise ValueError(f"law variables {variables!r}: need distinct letters, not r q t v")
    parsed = [_parse(text, names) for text, _ in checks]
    # the level of a node is the index of the innermost variable it reads
    # (-1 for none); uses counts the nodes and checks that read it, and
    # deepest is the deepest level among them (a check reads at last + 1)
    last = len(names) - 1
    level: dict = {name: i for i, name in enumerate(names)} | {"top": -1}
    uses: Counter = Counter()
    deepest: dict = {}
    order: list[tuple] = []  # the nodes, each after the nodes it reads
    undefined: set = set()  # the nodes that may be undefined

    def kids(node) -> tuple:
        return node[1:] if len(node) == 2 else (node[:-1], node[-1])

    def read(node) -> int:
        if node not in level:
            level[node] = max(map(read, kids(node)))
            for kid in kids(node):
                deepest[kid] = max(deepest.get(kid, -1), level[node])
            if len(node) == 3 and node[0] in ("gv", "pv") or undefined.intersection(kids(node)):
                undefined.add(node)
            order.append(node)
        uses[node] += 1
        return level[node]

    for comparisons in parsed:
        for lhs, rel, rhs in comparisons:
            for root in [("le", lhs, rhs)] if rel == "<=" else [lhs, rhs]:
                read(root)
                deepest[root] = last + 1
    shared = {node for node in order
              if uses[node] > 1 or level[node] < last and deepest[node] > level[node]}

    def guards(node) -> list:
        """The nodes a lookup tests for None: each kid that may be undefined,
        if shared or a ``^`` or ``.``, else the kid's own guards."""
        return [g for kid in kids(node) if kid in undefined for g in (
            [kid] if kid in shared or len(kid) == 3 and kid[0] in ("gv", "pv") else guards(kid))]

    guarded = {g for node in order for g in guards(node)}
    named = {node: f"s{i}" for i, node in enumerate(
        node for node in order if node in shared or node in guarded)}
    ready: set = set()

    def code(node, guard: bool = True) -> str:
        if not isinstance(node, tuple) or node in ready:
            return named.get(node, node)
        tests = []
        for g in dict.fromkeys(guards(node) if guard else ()):
            tests.append(f"{code(g)} is None")
            if len(tests) == 1:
                kept = set(ready)  # only the first test always runs
        row = code(node[:-1], node[:-1] in named) if len(node) > 2 else node[0]
        expr = f"{row}[{code(node[-1], node[-1] in named)}]"
        if tests:
            expr = f"(None if {' or '.join(tests)} else {expr})"
            ready.intersection_update(kept)
        if node not in named:
            return expr
        ready.add(node)
        return f"({named[node]} := {expr})" if level[node] == last else expr

    def bind(at: int, indent: str) -> str:
        return "".join(f"{indent}{named[node]} = {code(node)}\n" for node in order
                       if node in named and level[node] == at < last)

    body = "    span = range(n)\n" + bind(-1, "    ")
    for depth, name in enumerate(names):
        indent = "    " * (depth + 2)
        body += f"{indent[4:]}for {name} in span:\n" + bind(depth, indent)
    witness = f"({', '.join(names)},)"
    for i, comparisons in enumerate(parsed):
        tests = []
        # k is 0 on the check, which fails, and negative on a premise, which holds
        for k, (lhs, rel, rhs) in enumerate(comparisons, 1 - len(comparisons)):
            tests.append(f"{'' if k else 'not '}{code(('le', lhs, rhs))}" if rel == "<="
                         else f"{code(lhs)} {'==' if k else '!='} {code(rhs)}")
            if len(tests) == 1:
                kept = set(ready)  # a later conjunct may not run
        body += (f"{indent}{'elif' if i else 'if'} {' and '.join(tests)}:\n"
                 f"{indent}    yield {witness}, {code(lhs)}, {code(rhs)}, notes[{i}]\n")
        ready.intersection_update(kept)
    params = ["ix", "n", *sorted({node[0] for node in order} | ({"top"} & uses.keys())), "**_"]
    exec(f"def scan({', '.join(params)}):\n{body}",
         namespace := {"notes": [n for _, n in checks]})
    return namespace["scan"]


# ---------------------------------------------------------------------------
# join-semilattices with top.  `core.build_algebra` accepts a join table
# given without an order in one pass over its up-set masks, which holds
# exactly when these rows do, and runs them only to name a failure (or,
# the first three, on a table given with an order).  The jsl validator,
# `validate_join_semilattice`, runs them on any algebra; no other
# validator runs them again

JOIN_LAWS = (
    term_law("join-idempotent", "x", "x v x = x"),
    term_law("join-commutative", "x y", "x v y = y v x"),
    term_law("join-associative", "x y z", "x v (y v z) = (x v y) v z"),
    term_law("top-absorbing", "x", "x v 1 = 1"),
)

# ---------------------------------------------------------------------------
# sections as pseudocomplemented lattices (`validate_sectioned`)

# (a), every bounded pair has a greatest lower bound, holds in every finite
# join-semilattice, so only (b) is checked
SECTIONED_LAWS = (
    # (b) every y in [b, 1] has a pseudocomplement there
    Law("(b)", 2, "no pseudocomplement in section",
        lambda ix, le, pc, **_: (((b, y), "-", "-") for b, y in ix
                                 if le[b][y] and pc[b][y] is None)),
)

# ---------------------------------------------------------------------------
# implication semilattices (`validate_ncis`, `check_ncis_properties`)


def _arrow_is_order(ix, top, le, iv, **_):  # x <= y iff x->y = 1
    return (((x, y), iv[x][y], "true" if le[x][y] else "false")
            for x, y in ix if (iv[x][y] == top) != le[x][y])


NCIS_AXIOMS = (
    term_law("(1)", "x y", "y <= x -> y"),
    # the meet is defined: y lies below both sides, by (1).  (2) in turn
    # forces y <= x -> y, since the meet it equates to y lies below x -> y,
    # so (1) follows from (2)
    term_law("(2)", "x y", "(x v y) ^ (x -> y) = y"),
    term_law("(3)", "x y", "(x v y) -> y = x -> y"),
    # the meet is defined: z lies below both of its arguments
    term_law("(4)", "x y z", "y <= (x v z) -> ((x v z) ^ (y v z))"),
)

NCIS_PROPERTIES = (
    Law("(5)", 2, "", _arrow_is_order),
    term_law("(6)", "x y z", "x <= y => y -> z <= x -> z"),
    term_law("(7)", "x y", "x <= (x -> y) -> y"),
    term_law("(8)", "x y", "((x -> y) -> y) -> y = x -> y"),
    term_law("(9)", "x", "1 -> x = x"),
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
    term_law("(11)", "x", "x . 1 = x", "1 . x = x"),
    # the domain row makes x.y and y.x defined on the same pairs: were only
    # one defined, it would already fail at (x,y) or (y,x)
    term_law("(12)", "x y", "x . y = y . x"),
    # associativity where x, y, z have a common lower bound w.  On a table
    # passing the rows above, domain defines x.y, preamble puts w below it,
    # so domain defines (x.y).z, and x.(y.z) alike; alone, undefined fails
    term_law("(13)", "x y z", "(x ^ y) ^ z <= 1 => (x . y) . z = x . (y . z)"),
    term_law("(14)", "x y z", "x <= y, x . z <= 1 => x . z <= y . z"),
    term_law("(16)", "x y", "(x v y) -> y = x -> y"),
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
    # the product is defined on a table that passes RRS_BASE: z lies below
    # both of its arguments, so domain defines it
    term_law("(17)", "x y z", "x v z <= y -> (((x v z) . (y v z)) v z)"),
    term_law("(18)", "x y", "x <= y -> x"),
    term_law("(19)", "x y", "(x v y) . (x -> y) <= y"),
)

DIVISIBLE = (term_law("divisible", "x y", "(x v y) . (x -> y) = y"),)

RRS_PROPERTIES = (
    Law("(i)", 2, "", _arrow_is_order),
    term_law("(ii)", "x y", "x . y <= 1 => x . y <= x"),
    term_law("(iii)", "x y", "x ^ y <= 1 => x . y <= x ^ y"),
    term_law("(iv)", "x y", "x <= y -> x"),
    # x.(x->y) <= (x v y).(x->y) <= y; the first only where x.(x->y) is defined
    term_law("(v)", "x y", "(x v y) . (x -> y) <= y",
             "x . (x -> y) <= 1 => x . (x -> y) <= (x v y) . (x -> y)"),
    term_law("(vi)", "x y", "x <= (x -> y) -> y"),
    term_law("(vii)", "x y z", "x <= y => y -> z <= x -> z"),
    term_law("(viii)", "x y", "((x -> y) -> y) -> y = x -> y"),
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
    term_law("(iv)", "x y", "(x v y) -> y = x -> y"),
)

# ---------------------------------------------------------------------------
# bridge between implication semilattices and divisible residuation

PROD_IDEMPOTENT = (term_law("(i)", "x", "x . x = x"),)

PROD_ARROW_BOUND = (
    term_law("(ii)", "x y z", "y <= (x v z) -> ((x v z) . (y v z))"),
)

# both sides undefined exactly on unbounded pairs
PROD_MEET = (term_law("prod-meet", "x y", "x . y = x ^ y",
                      note="product must coincide with the greatest lower bound"),)

# ---------------------------------------------------------------------------
# total presentations (`validate_ialgebra`, `validate_ralgebra`)

IALG_IDENTITIES = (
    term_law("(1')", "x y", "y <= x -> y"),
    term_law("(2')", "x y", "r(x, x->y, y) = y"),
    term_law("(3')", "x y", "(x v y) -> y = x -> y"),
    term_law("(4')", "x y z", "y <= (x v z) -> r(x, y, z)"),
    term_law("(5')", "x y z", "r(x, y, z) <= x v z"),
    term_law("(6')", "x y z", "r(x, y, z) <= y v z"),
    term_law("(7')", "x y z", "r(x, x v y, z) = x v z"),
    term_law("(8')", "x y z", "r(x, y, z) = r(x v z, y v z, z)"),
    term_law("(9')", "x y z", "z <= r(x, y, z)"),
    term_law("(10')", "u x y z", "r(u, r(x, y, z), z) = r(r(u, x, z), r(u, y, z), z)"),
)

RALG_IDENTITIES = (
    term_law("(20)", "x y z", "z <= q(x, y, z)"),
    term_law("(21)", "z u x y",
             "q(z v u v x, z v u v y, z) = q(z v u v x, z v u v y, z v u)"),
    term_law("(22)", "x", "q(x, 1, x) = x", "q(1, x, x) = x"),
    term_law("(23)", "x y z", "q(x, y, z) = q(y, x, z)"),
    term_law("(24)", "x y z u", "q(q(x, y, u), z, u) = q(x, q(y, z, u), u)"),
    term_law("(25)", "x y z u", "q(x, z, u) <= q(x v y, z, u)"),
    term_law("(26)", "x y z", "x v z <= y -> (q(x, y, z) v z)"),
    term_law("(27)", "x y", "x <= y -> x"),
    term_law("(28)", "x y", "q(x, x->y, y) <= y"),
    term_law("(29)", "x y z", "q(x, y, z) = q(x v z, y v z, z)"),
    term_law("(30)", "x y", "(x v y) -> y = x -> y"),
)

RALG_SUBVARIETY = (term_law("subvariety", "x y", "q(x, x->y, y) = y"),)

# ---------------------------------------------------------------------------
# term schemes behind the congruence verdicts (`term_witness_check`); ``t``
# is r, or q on a ternary-product algebra, whose rows start with
# `TERM_Q_DIVISIBLE`

TERM_Q_DIVISIBLE = (
    term_law("(a)", "x y", "t(x, x->y, y) = y",
             note="scheme (a) requires the subvariety identity q(x,x->y,y)=y"),
)

TERM_SCHEMES = (
    # (a) 3-permutability: t1(x,y,z) = t(z, y->x, x), t2(x,y,z) = t(x, y->z, z)
    term_law("(a)", "x y",
             ("t(y, y->x, x) = x", "t1(x,y,y) = x fails"),
             ("t(y, x->x, x) = t(x, y->y, y)", "t1(x,x,y) = t2(x,y,y) fails"),
             ("t(x, x->y, y) = y", "t2(x,x,y) = y fails")),
    # (b) distributivity, a chain t0 = x, t1(x,y,z) = t(z,y,x),
    #     t2(x,y,z) = t(x, y->z, z), t3 = z
    term_law("(b)", "x y",
             ("t(y, x, x) = x", "t1(x,x,y) = x fails"),
             ("t(y, y, x) = t(x, y->y, y)", "t1(x,y,y) = t2(x,y,y) fails"),
             ("t(x, x->y, y) = y", "t2(x,x,y) = y fails"),
             ("t(x, y, x) = x", "t1(x,y,x) = x fails"),
             ("t(x, y->x, x) = x", "t2(x,y,x) = x fails")),
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
# s1(x,y,1,1) = s2(x,y,x->y,y->x), s2(x,y,1,1) = y

WEAK_REGULARITY_CHAIN = (
    term_law("(d)", "x y",
             ("t(y, y->x, x) = x", "t(y,y->x,x) = x fails"),
             ("t(y, 1, x) = t(x, (x->y)->y, y)", "t(y,1,x) = t(x,(x->y)->y,y) fails"),
             ("t(x, 1->y, y) = y", "t(x,1->y,y) = y fails"),
             ("x->x = 1", "x->x = 1 fails")),
)

"""Independent brute-force oracles.

Everything here is written directly against the definitions, without
touching the package's own algorithms, so tests can cross-check the two
routes.  Slow is fine; these run on universes of at most six elements.
"""

import functools
import re
from itertools import permutations, product
from operator import itemgetter

from ordalg.congruence import Partition
from ordalg.core import TernTable


# --- order-theoretic scans -------------------------------------------------

def oracle_lub(leq, x, y):
    n = len(leq)
    ubs = [u for u in range(n) if leq[x][u] and leq[y][u]]
    least = [u for u in ubs if all(leq[u][v] for v in ubs)]
    return least[0] if least else None


def oracle_glb(leq, x, y):
    n = len(leq)
    lbs = [u for u in range(n) if leq[u][x] and leq[u][y]]
    greatest = [u for u in lbs if all(leq[v][u] for v in lbs)]
    if not lbs:
        return None
    return greatest[0] if greatest else None


def oracle_pseudocomplement(leq, base, y):
    """Greatest z above base with glb(y, z) = base, or None."""
    n = len(leq)
    cands = [z for z in range(n) if leq[base][z] and oracle_glb(leq, y, z) == base]
    best = [z for z in cands if all(leq[w][z] for w in cands)]
    return best[0] if best else None


def oracle_arrow_tables(leq):
    """Every total arrow table on the order satisfying the arrow axioms
    (1) y <= x->y, (2) (x v y) ^ (x->y) = y, (3) (x v y)->y = x->y and
    (4) y <= (x v z) -> ((x v z) ^ (y v z)), found by constraint propagation
    rather than through sections.

    (3) pins x->y to u->y with u = x v y >= y.  For m <= u, (1) and (2) make
    u->m one of the w >= m with u ^ w = m, and (4) with x = u, z = m puts
    every such w below it, so u->m is forced and there is at most one table.
    Returns [] when some forced value does not exist or the forced table
    breaks an axiom, else the one table as a tuple of rows.
    """
    n = len(leq)
    lub = [[oracle_lub(leq, x, y) for y in range(n)] for x in range(n)]
    glb = [[oracle_glb(leq, x, y) for y in range(n)] for x in range(n)]
    forced = {}
    for u, m in product(range(n), repeat=2):
        if not leq[m][u]:
            continue
        cands = [w for w in range(n) if leq[m][w] and glb[u][w] == m]
        above_all = [w for w in cands if all(leq[v][w] for v in cands)]
        if not above_all:
            return []
        forced[u, m] = above_all[0]
    imp = tuple(tuple(forced[lub[x][y], y] for y in range(n)) for x in range(n))
    for x, y, z in product(range(n), repeat=3):
        xz = lub[x][z]
        if not (leq[y][imp[x][y]] and glb[lub[x][y]][imp[x][y]] == y
                and imp[lub[x][y]][y] == imp[x][y]
                and leq[y][imp[xz][glb[xz][lub[y][z]]]]):
            return []
    return [imp]


def oracle_is_sectioned(leq):
    """Every bounded pair has a greatest lower bound and every section is
    pseudocomplemented, checked by exhaustive scan."""
    n = len(leq)
    for x in range(n):
        for y in range(n):
            lbs = [u for u in range(n) if leq[u][x] and leq[u][y]]
            if lbs and oracle_glb(leq, x, y) is None:
                return False
    for base in range(n):
        for y in range(n):
            if leq[base][y] and oracle_pseudocomplement(leq, base, y) is None:
                return False
    return True



def oracle_section_laws(leq, base):
    """(modular, distributive) of the section [base, 1], by scanning the
    modular law x <= z => x v (y ^ z) = (x v y) ^ z and the distributive
    law x ^ (y v z) = (x ^ y) v (x ^ z) over every triple of the section,
    with joins and meets from `oracle_lub` and `oracle_glb`."""
    n = len(leq)
    sec = [x for x in range(n) if leq[base][x]]
    lub = lambda x, y: oracle_lub(leq, x, y)
    glb = lambda x, y: oracle_glb(leq, x, y)
    triples = list(product(sec, repeat=3))
    modular = all(lub(x, glb(y, z)) == glb(lub(x, y), z)
                  for x, y, z in triples if leq[x][z])
    distributive = all(glb(x, lub(y, z)) == lub(glb(x, y), glb(x, z))
                       for x, y, z in triples)
    return modular, distributive

# --- labeled join-semilattice enumeration (independent of the package) -----

def brute_jsl_matrices(n):
    """All labeled join-semilattice orders with a top on {0..n-1}, found by
    assigning each unordered pair one of three states and filtering."""
    if n == 1:
        return [((True,),)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for states in product(range(3), repeat=len(pairs)):
        m = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                m[i][j] = True
            elif s == 2:
                m[j][i] = True
        ok = True
        for i in range(n):
            for j in range(n):
                if not m[i][j]:
                    continue
                for k in range(n):
                    if m[j][k] and not m[i][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        tops = [t for t in range(n) if all(m[i][t] for i in range(n))]
        if len(tops) != 1:
            continue
        if any(oracle_lub(m, i, j) is None for i, j in pairs):
            continue
        out.append(tuple(tuple(row) for row in m))
    return out


def natural_jsl_downmasks(n):
    """Down-set masks (bit x of entry y set iff x <= y) of every naturally
    labelled join-semilattice order with top n-1: each point below the top
    gets a down-closed set of earlier points as strict down-set, the top
    gets all of them, and the orders where some pair has no least upper
    bound are dropped."""
    out = []

    def grow(stricts):
        k = len(stricts)
        if k == n - 1:
            stricts = stricts + [set(range(k))]
            leq = [[x == y or x in stricts[y] for y in range(n)] for x in range(n)]
            if all(oracle_lub(leq, x, y) is not None for x in range(n) for y in range(n)):
                out.append(tuple(sum(1 << x for x in range(n) if leq[x][y])
                                 for y in range(n)))
            return
        for chosen in product((False, True), repeat=k):
            below = {x for x in range(k) if chosen[x]}
            if all(stricts[y] <= below for y in below):
                grow(stricts + [below])

    grow([])
    return out


def perm_iso_orders(a, b):
    """Order isomorphism by exhaustive permutation search."""
    n = len(a)
    if n != len(b):
        return False
    for p in permutations(range(n)):
        if all(a[i][j] == b[p[i]][p[j]] for i in range(n) for j in range(n)):
            return True
    return False


def perm_iso_tagged(a, b):
    """Isomorphism of (order, binary tables...) tuples by permutation search.

    ``a`` and ``b`` are (leq, tables) where tables is a tuple of n x n
    matrices with None for undefined entries.
    """
    leq_a, tabs_a = a
    leq_b, tabs_b = b
    n = len(leq_a)
    if len(leq_b) != n or len(tabs_a) != len(tabs_b):
        return False
    for p in permutations(range(n)):
        if not all(leq_a[i][j] == leq_b[p[i]][p[j]]
                   for i in range(n) for j in range(n)):
            continue
        good = True
        for ta, tb in zip(tabs_a, tabs_b):
            for i in range(n):
                for j in range(n):
                    va = ta[i][j]
                    vb = tb[p[i]][p[j]]
                    if (va is None) != (vb is None):
                        good = False
                    elif va is not None and p[va] != vb:
                        good = False
                    if not good:
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            return True
    return False


def isomorphic(a, b):
    """Whether some bijection carries the order and every table of algebra
    ``a`` onto those of ``b`` (the same tables present), by permutation
    search; undefined cells must go to undefined cells."""
    n = a.n
    if b.n != n or [m for m, _ in a.tables()] != [m for m, _ in b.tables()]:
        return False
    tables = [(ta.values, tb.values, 3 if isinstance(ta, TernTable) else 2)
              for (_, ta), (_, tb) in zip(a.tables(), b.tables())]
    for p in permutations(range(n)):
        if all(a.leq[i][j] == b.leq[p[i]][p[j]] for i in range(n) for j in range(n)) and all(
                (None if (v := _cell(va, c)) is None else p[v]) == _cell(vb, [p[i] for i in c])
                for va, vb, arity in tables for c in product(range(n), repeat=arity)):
            return True
    return False


def _cell(values, cell):
    for i in cell:
        values = values[i]
    return values


def has_meets_on_bounded_pairs(alg):
    """Whether every pair with a common lower bound has a greatest one."""
    n, le = alg.n, alg.leq
    return all(oracle_glb(le, x, y) is not None for x in range(n) for y in range(n)
               if any(le[z][x] and le[z][y] for z in range(n)))


def oracle_least_tables(alg):
    """Lexicographically least concatenation of the present operation
    tables over every relabeling that fixes the top, undefined cells read
    as n: the tables part of the documented canonical key."""
    n, top = alg.n, alg.top
    tables = [t.values for _, t in alg.tables()]
    best = None
    for order in permutations([x for x in range(n) if x != top]):
        old = list(order) + [top]
        new = {x: pos for pos, x in enumerate(old)}
        flat = []
        for vals in tables:
            for i in range(n):
                for j in range(n):
                    cell = vals[old[i]][old[j]]
                    if isinstance(cell, tuple):
                        flat.extend(new[cell[old[k]]] for k in range(n))
                    else:
                        flat.append(n if cell is None else new[cell])
        if best is None or tuple(flat) < best:
            best = tuple(flat)
    return best


def count_iso_classes(items, iso):
    reps = []
    for item in items:
        if not any(iso(item, rep) for rep in reps):
            reps.append(item)
    return len(reps)


# --- partitions and congruences ---------------------------------------------

def all_partitions(n):
    """Every set partition of {0..n-1} as a Partition, built from its blocks
    directly: entry i of its classes is the bitmask of i's block."""
    results = []

    def grow(i, blocks):
        if i == n:
            classes = [0] * n
            for b in blocks:
                for j in b:
                    classes[j] = sum(1 << k for k in b)
            results.append(Partition(tuple(classes)))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return results


def is_compatible(part, alg):
    """Partition compatible with join, arrow and every ternary operation
    present (r, q or both)."""
    n = alg.n
    rel = part.relates
    for tbl in (alg.join.values, alg.imp.values):
        for a in range(n):
            for b in range(n):
                if not rel(a, b):
                    continue
                for c in range(n):
                    if not rel(tbl[a][c], tbl[b][c]) or not rel(tbl[c][a], tbl[c][b]):
                        return False
    for tv in (t.values for t in (alg.r, alg.q) if t is not None):
        for a in range(n):
            for b in range(n):
                if not rel(a, b):
                    continue
                for c in range(n):
                    for d in range(n):
                        if not rel(tv[a][c][d], tv[b][c][d]):
                            return False
                        if not rel(tv[c][a][d], tv[c][b][d]):
                            return False
                        if not rel(tv[c][d][a], tv[c][d][b]):
                            return False
    return True


def oracle_congruences(alg):
    return [p for p in all_partitions(alg.n) if is_compatible(p, alg)]


def oracle_principal(alg, a, b):
    """Smallest congruence relating a and b: the intersection of the pair
    sets of all such congruences."""
    n = alg.n
    best = frozenset((i, j) for i in range(n) for j in range(n))
    for p in oracle_congruences(alg):
        if p.relates(a, b):
            best &= _pairs(p, n)
    return Partition(tuple(sum(1 << j for j in range(n) if (i, j) in best)
                           for i in range(n)))


def _pairs(p, n):
    return frozenset((i, j) for i in range(n) for j in range(n) if p.relates(i, j))


def _compose(left, right):
    by_first = {}
    for k, j in right:
        by_first.setdefault(k, set()).add(j)
    return frozenset((i, j) for i, k in left for j in by_first.get(k, ()))


def _join(left, right):
    """Join of two equivalence relations as pair sets: the transitive closure
    of their union."""
    rel = left | right
    while (grown := rel | _compose(rel, rel)) != rel:
        rel = grown
    return rel


def oracle_distributivity_failure(congruences):
    """First triple (a, b, c) of partitions, in the given order, with
    a ^ (b v c) != (a ^ b) v (a ^ c), or None; meets and joins are taken
    on pair sets."""
    cs = list(congruences)
    rels = [_pairs(p, p.n) for p in cs]
    join = functools.cache(_join)  # the meets repeat, so their joins do
    for a, ra in zip(cs, rels):
        for b, rb in zip(cs, rels):
            for c, rc in zip(cs, rels):
                if ra & join(rb, rc) != join(ra & rb, ra & rc):
                    return a, b, c
    return None


def oracle_maltsev(alg, congruences):
    """(three_permutable, con_distributive, weakly_regular, witness) by
    relation composition over every ordered pair and meets and joins over
    every triple of ``congruences``, all on pair sets, in the given order;
    the witness names the first failure found."""
    n = alg.n
    cs = list(congruences)
    witness = ""

    three_perm = True
    rels = [_pairs(p, n) for p in cs]
    for p, rp in zip(cs, rels):
        for q, rq in zip(cs, rels):
            if _compose(_compose(rp, rq), rp) != _compose(_compose(rq, rp), rq):
                three_perm = False
                witness = f"3-permutability fails for {p.class_of} and {q.class_of}"
                break
        if not three_perm:
            break

    triple = oracle_distributivity_failure(cs)
    distributive = triple is None
    if triple is not None and not witness:
        a, b, c = triple
        witness = f"distributivity fails for {a.class_of}, {b.class_of}, {c.class_of}"

    weakly_regular = True
    seen = {}
    for p, rp in zip(cs, rels):
        blk = frozenset(j for i, j in rp if i == alg.top)
        if blk in seen:
            weakly_regular = False
            if not witness:
                witness = (f"congruences {seen[blk].class_of} and {p.class_of} "
                           "share the class of the top element")
            break
        seen[blk] = p

    return three_perm, distributive, weakly_regular, witness


def oracle_chain_holds(alg):
    """The four identities of the weak-regularity chain, read off the tables
    with t the ternary table (r, else q): t(y, y->x, x) = x,
    t(y, 1, x) = t(x, (x->y)->y, y), t(x, 1->y, y) = y and x->x = 1."""
    imp = alg.imp.values
    t = (alg.r if alg.r is not None else alg.q).values
    one = alg.top
    return all(t[y][imp[y][x]][x] == x
               and t[y][one][x] == t[x][imp[imp[x][y]][y]][y]
               and t[x][imp[one][y]][y] == y
               and imp[x][x] == one
               for x, y in product(range(alg.n), repeat=2))


# --- term-law rows, read and evaluated one tuple at a time -----------------

# the attribute of `Algebra` holding the table each symbol of the term text
# reads; "<=" reads the order, and "t" reads r, else q (`_holder`)
_TERM_TABLES = {"->": "imp", "v": "join", "^": "glb", ".": "prod",
                "r": "r", "q": "q", "<=": "leq"}


def _holder(symbol, alg):
    if symbol == "t":
        return "r" if alg.r is not None else "q"
    return _TERM_TABLES[symbol]


@functools.lru_cache(maxsize=None)
def _read_term_text(text, variables):
    """(lhs, relation, rhs) of a check, each side a tree: ("var", name),
    ("1",), or (symbol, argument, ...).  Loosest first: "->" to the
    right, then "v", "^" and "." to the left."""
    tokens = re.findall(r"->|<=|[A-Za-z0-9]+|\S", text)
    at = 0

    def take(want=None):
        nonlocal at
        tok = tokens[at]
        assert want is None or tok == want, (text, at, tok)
        at += 1
        return tok

    def peek():
        return tokens[at] if at < len(tokens) else None

    def arrow():
        left = join()
        if peek() == "->":
            take()
            return ("->", left, arrow())
        return left

    def left_assoc(symbol, tighter):
        def parse():
            left = tighter()
            while peek() == symbol:
                take()
                left = (symbol, left, tighter())
            return left
        return parse

    def atom():
        tok = take()
        if tok == "(":
            inner = arrow()
            take(")")
            return inner
        if tok in ("r", "q", "t"):
            take("(")
            args = [arrow()]
            while take() == ",":
                args.append(arrow())
            assert len(args) == 3, text
            return (tok, *args)
        if tok == "1":
            return ("1",)
        assert tok in variables, (text, tok)
        return ("var", tok)

    prod = left_assoc(".", atom)
    meet = left_assoc("^", prod)
    join = left_assoc("v", meet)
    lhs = arrow()
    rel = take()
    assert rel in ("=", "<="), text
    rhs = arrow()
    assert peek() is None, text
    return lhs, rel, rhs


def term_law_tables(law, alg):
    """The attributes of the algebra (``imp``, ``join``, ``glb``, ``prod``,
    ``r``, ``q``, ``leq``) holding the tables a `term_law` row reads."""
    variables, checks = law.terms
    symbols = set()

    def walk(tree):
        if tree[0] not in ("var", "1"):
            symbols.add(tree[0])
            for arg in tree[1:]:
                walk(arg)

    for text, _ in checks:
        lhs, rel, rhs = _read_term_text(text, tuple(variables.split()))
        if rel == "<=":
            symbols.add(rel)
        walk(lhs)
        walk(rhs)
    return {_holder(symbol, alg) for symbol in symbols}


def interpret_term_law(law, alg):
    """Every violation of a `term_law` row on the algebra, in order, read
    from its ``terms`` alone: each tuple of the row's variables in
    lexicographic order, and on it the first check whose sides differ (for
    "=") or are not in order (for "<="), as (witness, lhs, rhs, note).  A
    side is an element index, or None where "^" or "." is undefined."""
    variables, checks = law.terms
    names = variables.split()

    def table(symbol):
        held = getattr(alg, _holder(symbol, alg))
        return held if symbol == "<=" else held.values

    # a side as a function of the tuple, which evaluates it afresh on every
    # call: no subterm is shared between sides, checks or tuples
    def side(tree):
        if tree[0] == "var":
            return itemgetter(names.index(tree[1]))
        if tree[0] == "1":
            return lambda witness: alg.top
        values, args = table(tree[0]), [side(arg) for arg in tree[1:]]
        if len(args) == 2:
            a, b = args
            return lambda witness: values[a(witness)][b(witness)]
        a, b, c = args
        return lambda witness: values[a(witness)][b(witness)][c(witness)]

    parsed = []
    for text, note in checks:
        lhs, rel, rhs = _read_term_text(text, tuple(names))
        parsed.append((side(lhs), rel == "=", side(rhs), note))
    leq = alg.leq
    for witness in product(range(alg.n), repeat=len(names)):
        for lhs, equation, rhs, note in parsed:
            left, right = lhs(witness), rhs(witness)
            if left != right if equation else not leq[left][right]:
                yield witness, left, right, note
                break

"""Exhaustive enumeration of small models up to isomorphism.

Join-semilattices with top are generated as naturally labeled orders (every
element is added as a maximal point, the top last), pruned as soon as some
pair acquires two minimal upper bounds.  Only labellings whose (down-set
size, strict down-set mask) pairs never decrease below the top are built:
every class has one, so far fewer structures reach grouping.  They are
reduced to one representative per isomorphism class in two stages:

1. Grouping.  Elements fall into cells by their (down-set size, up-set
   size) pair, which every isomorphism preserves.  The least relabeled
   downset-mask tuple over the relabelings that keep each cell on its own
   block of positions is a complete invariant, cheap because only
   relabelings inside cells are tried; the first structure of each such
   form is kept.
2. Keying.  Each kept structure gets the documented canonical key once: the
   lexicographically least concatenation of all operation tables over the
   relabelings that fix the top element.  Row 0 of the relabeled join table
   picks the element at position 0 and the block after it, and is then the
   same in every candidate; row 1 is built cell by cell, placing each
   element when its cell is reached and keeping only the partial labellings
   with the least cell, so only the relabelings with the least rows 0 and 1
   are flattened.  The model is read off the key, and models are sorted by
   it.

The richer classes are obtained from these by the paper's maps and the
sectioned filter, the one law check the search runs: each map lands in its
class, so no derived model is validated again (tests/test_search.py checks
them all, to size 8 with ``--check 8``).  Each class is built once per size
and process, and models come out in canonical order.
"""

from __future__ import annotations

import os
from collections import defaultdict
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .congruence import maltsev_report
from .core import (Algebra, BinTable, ClassTag, OrdalgError, Universe, default_labels,
                   relabel, validate_join_semilattice)
from .implication import check_ncis_properties, derive_implication, validate_ncis
from .residuated import (check_divisible, check_rrs_properties, rrs_from_ncis,
                         validate_rrs, validate_srs)
from .sectioned import section_shape_report, validate_sectioned
from .varieties import (ialgebra_from_ncis, ralgebra_from_rrs,
                        validate_ialgebra, validate_ralgebra)

DEFAULT_MAX_SIZE = 8
ENV_MAX_SIZE = "ORDALG_MAX_SIZE"


def size_cap() -> int:
    """Largest model size a verb takes on: ORDALG_MAX_SIZE when it is set
    and not empty, else the default."""
    raw = os.environ.get(ENV_MAX_SIZE)
    if not raw:
        return DEFAULT_MAX_SIZE
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise OrdalgError(f"{ENV_MAX_SIZE}={raw!r} is not a positive integer")
    return cap


class SearchSpec(NamedTuple):
    class_tag: ClassTag
    size: int
    upto: bool = False
    violate: str | None = None
    limit: int | None = None

    def sizes(self) -> range:
        return range(1, self.size + 1) if self.upto else range(self.size, self.size + 1)

    def check(self) -> None:
        """Refuse a size below 1 or above the cap."""
        if self.size < 1:
            raise ValueError("size must be a positive integer")
        cap = size_cap()
        if self.size > cap:
            raise ValueError(f"size {self.size} exceeds the cap of {cap} "
                             f"(override with {ENV_MAX_SIZE})")


# ---------------------------------------------------------------------------
# canonical forms

def _flat_tables(alg: Algebra, new_of_old: list[int]) -> tuple:
    n = alg.n
    inv = [0] * n
    for old, new in enumerate(new_of_old):
        inv[new] = old
    sentinel = n
    parts: list[int] = []
    for _, table in alg.tables():
        if isinstance(table, BinTable):
            for i in range(n):
                row = table.values[inv[i]]
                for j in range(n):
                    v = row[inv[j]]
                    parts.append(sentinel if v is None else new_of_old[v])
        else:
            vals = table.values
            for i in range(n):
                for j in range(n):
                    plane = vals[inv[i]][inv[j]]
                    for k in range(n):
                        parts.append(new_of_old[plane[inv[k]]])
    return tuple(parts)


def _candidate_perms(alg: Algebra) -> list[list[int]]:
    """The relabelings fixing the top that can give the least flat tables
    of a join-semilattice.

    Row 0 of the relabeled join table is 0 exactly where the element at
    position 0 absorbs the element there (x v a = a).  In a jsl every
    element is idempotent, so the least tables put at 0 an element a that
    absorbs the most other non-top elements, which is one with the largest
    down-set below the top, and those elements next, at positions 1..m;
    every other relabeling loses on the leading zeros of row 0.  Row 0 is
    then the same for every such a: a v x above a is the top, since no
    element below the top has a larger down-set.  So the candidates are
    the relabelings with the least row 1 (`_least_row1`): each column's
    element is placed when its cell is reached, each new join at the next
    free position of its pool, and after each cell only the partial
    labellings with the least value stay.  tests/test_finite_facts.py
    checks both facts on every jsl model.
    """
    n, top = alg.n, alg.top
    if n == 1:
        return [[0]]
    jv = alg.join.values
    others = [x for x in range(n) if x != top]
    absorbed = {a: [x for x in others if x != a and jv[a][x] == a] for a in others}
    most = max(map(len, absorbed.values()))
    return _least_row1(jv, top, {a: (below, [x for x in others if x != a and x not in below])
                                 for a, below in absorbed.items() if len(below) == most})


def _least_row1(jv: tuple[tuple[int, ...], ...], top: int,
                pools: dict[int, tuple[list[int], list[int]]]) -> list[list[int]]:
    """Every relabeling with the least row 1 of the relabeled join table,
    over those that put some a of ``pools`` at 0, its pool (below, rest) at
    positions 1..m and m+1..n-2, and the top last.

    Row 1 is built cell by cell.  A column's element is placed when its
    cell is reached, as any unplaced element of the pool of that position;
    a join not yet placed goes to the next free position of its pool, since
    no other position gives the cell a value that small.  Every placement
    takes the next free position of its pool, so the placed positions of a
    pool are a prefix of it.  After each cell only the partial labellings
    with the least value are kept, and after row 1 all are complete.

    A partial labelling is a tuple: the position of each element and the
    element at each position (-1 where there is none yet), the next free
    position of each pool, the pool of each element and the two pools.
    """
    n = len(jv)
    states = []
    for a, (below, rest) in pools.items():
        pool_of = [-1] * n
        for x in rest:
            pool_of[x] = 1
        for x in below:
            pool_of[x] = 0
        new, old = [-1] * n, [-1] * n
        new[a], old[0], new[top], old[n - 1] = 0, a, n - 1, top
        states.append((new, old, [1, 1 + len(below)], pool_of, (below, rest)))
    if n < 3:  # no position between a and the top
        return [st[0] for st in states]
    states = [_placed(st, x) for st in states for x in st[4][0] or st[4][1]]
    m = len(next(iter(pools.values()))[0])
    for j in range(n):
        k = 0 if j <= m else 1  # the pool of position j
        best, kept = n, []
        for st in states:
            new, old, free, pool_of, members = st
            row = jv[old[1]]
            fresh = old[j] < 0
            for c in ([x for x in members[k] if new[x] < 0] if fresh else (old[j],)):
                v = row[c]
                if v == c:
                    value = j
                elif new[v] >= 0:
                    value = new[v]
                else:
                    value = free[pool_of[v]] + (fresh and pool_of[v] == k)
                if value < best:
                    best, kept = value, []
                if value == best:
                    kept.append((st, c, fresh))
        states = []
        for st, c, fresh in kept:
            if fresh:
                st = _placed(st, c)
            v = jv[st[1][1]][c]
            states.append(st if st[0][v] >= 0 else _placed(st, v))
    return [st[0] for st in states]


def _placed(state: tuple, x: int) -> tuple:
    """A copy of the partial labelling with x at the next free position of
    its pool."""
    new, old, free, pool_of, members = state
    new, old, free = new.copy(), old.copy(), free.copy()
    k = pool_of[x]
    new[x], old[free[k]] = free[k], x
    free[k] += 1
    return new, old, free, pool_of, members


def _canonical_search(alg: Algebra) -> tuple[tuple, list[int]]:
    """Least flat-table tuple and the first candidate permutation that gives
    it."""
    return min(((_flat_tables(alg, p), p) for p in _candidate_perms(alg)),
               key=lambda found: found[0])


def canonical_key(alg: Algebra) -> tuple:
    """Isomorphism-invariant key: size, table presence, least flat tables.

    The algebra's join table must be that of a join-semilattice with top:
    any table `build_algebra` accepts or a map derives."""
    presence = tuple(name for name, _ in alg.tables())
    best, _ = _canonical_search(alg)
    return (alg.n, presence, best)


def canonical_form(alg: Algebra) -> Algebra:
    """Relabel onto the default labels along a key-minimizing permutation.

    Any key-minimizing permutation gives the same algebra: the key holds
    every table, so two of them relabel every table alike."""
    _, best_perm = _canonical_search(alg)
    return relabel(alg, best_perm, labels=default_labels(alg.n))


# ---------------------------------------------------------------------------
# generation of join-semilattices with top

def _natural_jsl_downmasks(n: int) -> Iterator[tuple[int, ...]]:
    """Downset masks of naturally labeled join-semilattices with top n-1.

    ``downs[i]`` has bit j set iff j <= i (including j = i).  Elements are
    added as maximal points, together with a table of the least upper bounds
    that exist so far.  A new point k with down-set D is a minimal upper
    bound of the pairs in D only, and a second one for a pair whose join
    lies outside D; a pair can never lose its second minimal upper bound,
    so such a D is pruned.  Otherwise k becomes the join of the pairs in D
    that had none.  The top, above everything, completes every branch.

    Only labellings in which each point below the top has a (down-set size,
    strict down-set mask) pair at least that of the point before it are
    built.  Every structure has one: label the points by increasing
    down-set size, which is a linear extension since x < y implies
    |down x| < |down y|; within a size every strict down-set lies in the
    sizes before, so its mask is already fixed, and sorting the size by
    mask gives such a labelling.  Grouping and keys do not depend on the
    labelling, so the models are the same.
    """
    if n == 1:
        yield (1,)
        return

    def extend(downs: tuple[int, ...], joins: tuple[tuple[int, ...], ...],
               last: tuple[int, int]) -> Iterator[tuple[int, ...]]:
        # joins[i][j] is the least upper bound of i and j, or -1 if none yet;
        # last is the (down-set size, strict down-set mask) of point k-1
        k = len(downs)
        if k == n - 1:
            yield downs + ((1 << n) - 1,)
            return
        for mask in range(1 << k):
            rank = (mask.bit_count() + 1, mask)
            if rank < last:
                continue
            members = [i for i in range(k) if (mask >> i) & 1]
            if any(downs[i] & ~mask for i in members):
                continue
            if any(joins[i][j] >= 0 and not (mask >> joins[i][j]) & 1
                   for i in members for j in members):
                continue
            inside = [bool((mask >> i) & 1) for i in range(k)]
            grown = tuple(
                tuple(v if v >= 0 or not (inside[i] and inside[j]) else k
                      for j, v in enumerate(row)) + ((k if inside[i] else -1),)
                for i, row in enumerate(joins))
            grown += (tuple(k if inside[j] else -1 for j in range(k)) + (k,),)
            yield from extend(downs + (mask | (1 << k),), grown, rank)

    yield from extend((1,), ((0,),), (1, 0))


def _grouping_form(downs: tuple[int, ...]) -> tuple[int, ...]:
    """Grouping form of a structure given by its downset masks: the least
    relabeled mask tuple over the relabelings that map each cell of equal
    (down-set size, up-set size) onto its own block of positions.

    Blocks follow the sorted cell values, so every strict lower bound of an
    element lies in an earlier block and its relabeled mask is fixed when
    it is placed.  Positions are filled in order, keeping every partial
    labelling with the least prefix.  A partial labelling matters only
    through the masks of placed lower bounds that it gives the elements not
    yet placed, so labellings that agree on those are merged.
    """
    n = len(downs)
    above: list[list[int]] = [[] for _ in range(n)]
    for y, mask in enumerate(downs):
        for x in range(n):
            if x != y and (mask >> x) & 1:
                above[x].append(y)
    cells: dict[tuple[int, int], list[int]] = defaultdict(list)
    for x in range(n):
        cells[downs[x].bit_count(), len(above[x]) + 1].append(x)
    # in each state st, st[x] is the mask of the placed lower bounds of x,
    # or -1 once x is placed
    states = {(0,) * n}
    form: list[int] = []
    for value in sorted(cells):
        cell = cells[value]
        for _ in cell:
            bit = 1 << len(form)
            best = min(m for st in states for x in cell if (m := st[x]) >= 0)
            nxt = set()
            for st in states:
                for x in cell:
                    if st[x] == best:
                        new = list(st)
                        new[x] = -1
                        for y in above[x]:
                            new[y] |= bit
                        nxt.add(tuple(new))
            states = nxt
            form.append(best | bit)
    return tuple(form)


def _join_rows(downs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The join table of a naturally labeled structure given by its downset
    masks.  A labelling is natural when x <= y implies index x <= index y,
    so the least upper bound, below every upper bound, is the upper bound of
    least index: the lowest set bit of the meet of the two up-set masks."""
    n = len(downs)
    ups = [sum(1 << y for y in range(n) if downs[y] >> x & 1) for x in range(n)]
    return tuple(tuple(((both := ux & uy) & -both).bit_length() - 1 for uy in ups)
                 for ux in ups)


def _jsl(rows: tuple[tuple[int, ...], ...]) -> Algebra:
    """The jsl with join table ``rows`` on the default labels, top last."""
    n = len(rows)
    return Algebra(Universe(default_labels(n), n - 1), BinTable(rows, total=True))


def _jsl_from_key(key: tuple) -> Algebra:
    """The model a jsl `canonical_key` spells out: its flat tables are the
    join table on the default labels, top last."""
    n, _, flat = key
    return _jsl(tuple(flat[i * n:(i + 1) * n] for i in range(n)))


# ---------------------------------------------------------------------------
# per-class model construction

# each class's validator, read here by check, derive and roundtrip; the
# sectioned one also filters the jsl models in the search
VALIDATORS = {
    ClassTag.JSL: validate_join_semilattice,
    ClassTag.SECTIONED: validate_sectioned,
    ClassTag.NCIS: validate_ncis,
    ClassTag.RRS: validate_rrs,
    ClassTag.SRS: validate_srs,
    ClassTag.IALG: validate_ialgebra,
    ClassTag.RALG: validate_ralgebra,
}

# derived class: (source class, map).  Every rrs product is the partial meet
# (see tests/test_finite_facts.py), so the rrs models are the ncis models
# with the meet as product.
DERIVATIONS = {
    ClassTag.NCIS: (ClassTag.SECTIONED, derive_implication),
    ClassTag.RRS: (ClassTag.NCIS, rrs_from_ncis),
    ClassTag.SRS: (ClassTag.RRS, lambda a: a),
    ClassTag.IALG: (ClassTag.NCIS, ialgebra_from_ncis),
    ClassTag.RALG: (ClassTag.RRS, ralgebra_from_rrs),
}


@lru_cache(maxsize=None)
def _models(tag: ClassTag, n: int) -> tuple[Algebra, ...]:
    """Every model of the class at size n, built once per process: read off
    the jsl keys, filtered by `validate_sectioned` or derived."""
    if tag == ClassTag.JSL:
        reps: dict[tuple[int, ...], tuple[int, ...]] = {}
        for downs in _natural_jsl_downmasks(n):
            reps.setdefault(_grouping_form(downs), downs)
        keys = sorted(canonical_key(_jsl(_join_rows(downs))) for downs in reps.values())
        built = map(_jsl_from_key, keys)
    elif tag == ClassTag.SECTIONED:
        built = (a.replace(meet=a.glb) for a in _models(ClassTag.JSL, n) if VALIDATORS[tag](a).ok)
    else:
        source, derive = DERIVATIONS[tag]
        built = map(derive, _models(source, n))
    return tuple(alg.replace(name=f"{tag.value}_{n}_{i}") for i, alg in enumerate(built))


def enumerate_models(spec: SearchSpec) -> Iterator[Algebra]:
    """One canonical representative per isomorphism class, in canonical order."""
    spec.check()
    emitted = 0
    for n in spec.sizes():
        for alg in _models(spec.class_tag, n):
            if spec.limit is not None and emitted >= spec.limit:
                return
            emitted += 1
            yield alg


def count_models(spec: SearchSpec) -> int:
    return sum(1 for _ in enumerate_models(spec))


# ---------------------------------------------------------------------------
# counterexample search

def _holds_section_modular(alg: Algebra) -> bool:
    return all(section_shape_report(alg, b).modular for b in range(alg.n))


def _holds_section_distributive(alg: Algebra) -> bool:
    return all(section_shape_report(alg, b).distributive for b in range(alg.n))


def _holds_divisible(alg: Algebra) -> bool:
    return check_divisible(alg).ok


# every class reads its order off the join, so the section shapes apply to all
_ALL_CLASSES = frozenset(ClassTag)
_TOTAL_CLASSES = frozenset({ClassTag.IALG, ClassTag.RALG})

PROPERTIES: dict[str, tuple[frozenset[ClassTag], Callable[[Algebra], bool]]] = {
    "section-modular": (_ALL_CLASSES, _holds_section_modular),
    "section-distributive": (_ALL_CLASSES, _holds_section_distributive),
    "divisible": (frozenset({ClassTag.RRS, ClassTag.SRS}), _holds_divisible),
    "con-distributive": (_TOTAL_CLASSES,
                         lambda alg: maltsev_report(alg).con_distributive),
    "3-permutable": (_TOTAL_CLASSES,
                     lambda alg: maltsev_report(alg).three_permutable),
    "weakly-regular": (_TOTAL_CLASSES,
                       lambda alg: maltsev_report(alg).weakly_regular),
    "ncis-properties": (frozenset({ClassTag.NCIS}),
                        lambda alg: check_ncis_properties(alg).ok),
    "rrs-properties": (frozenset({ClassTag.RRS}),
                       lambda alg: check_rrs_properties(alg).ok),
}


def find_counterexample(spec: SearchSpec) -> Algebra | None:
    """Smallest enumerated model of the class violating the named property."""
    if spec.violate is None:
        raise ValueError("find_counterexample needs a property name")
    if spec.violate not in PROPERTIES:
        raise ValueError(f"unknown property {spec.violate!r} "
                         f"(known: {', '.join(sorted(PROPERTIES))})")
    classes, holds = PROPERTIES[spec.violate]
    if spec.class_tag not in classes:
        raise ValueError(f"property {spec.violate!r} does not apply to class "
                         f"{spec.class_tag.value}")
    for alg in enumerate_models(spec._replace(limit=None)):
        if not holds(alg):
            return alg
    return None

"""Congruence lattices of the total algebras and their Maltsev-style verdicts.

A congruence is an equivalence that every basic translation x -> f(..., x, ...)
preserves (Mal'cev), so the algebra is read once, as its distinct translations.
An equivalence is kept as class bitmasks.  Only the total signatures (join,
arrow, one ternary operation) are analysed; the partial-operation classes are
rejected, since a compatible-partition notion for them is a different theory.

The 3-permutability and distributivity verdicts are decided first by the
paper's term schemes (a) and (b), pointwise in O(n^2).  Con is scanned for
a verdict only when its scheme fails, as it may on a total algebra outside
the variety whose Con is 3-permutable or distributive all the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering
from itertools import combinations

from .core import Algebra, Report, StructureError, TernTable, require_tables
from .laws import TERM_Q_DIVISIBLE, TERM_SCHEMES, evaluate


def _merge(cls: list[int], u: int, v: int) -> bool:
    """Merge the classes of u and v, where ``cls[i]`` is the bitmask of i's
    class; False if they were one class already."""
    if cls[u] == cls[v]:
        return False
    both = cls[u] | cls[v]
    m = both
    while m:
        low = m & -m
        cls[low.bit_length() - 1] = both
        m ^= low
    return True


@total_ordering
@dataclass(frozen=True)
class Partition:
    """Equivalence relation: ``classes[i]`` is the bitmask of i's class.
    Partitions sort by ``class_of``."""

    classes: tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "Partition":
        return Partition(tuple(1 << i for i in range(n)))

    @staticmethod
    def single_class(n: int) -> "Partition":
        return Partition(((1 << n) - 1,) * n)

    @staticmethod
    def from_blocks(n: int, blocks) -> "Partition":
        cls = [1 << i for i in range(n)]
        for block in map(list, blocks):
            for other in block[1:]:
                _merge(cls, block[0], other)
        return Partition(tuple(cls))

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Canonical form: ``class_of[i]`` is the smallest element of i's class."""
        return tuple((c & -c).bit_length() - 1 for c in self.classes)

    def __lt__(self, other: "Partition") -> bool:
        return self.class_of < other.class_of

    @property
    def n(self) -> int:
        return len(self.classes)

    def relates(self, i: int, j: int) -> bool:
        return bool(self.classes[i] >> j & 1)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        # dict.fromkeys keeps the classes in the order of their smallest element
        return tuple(tuple(j for j in range(self.n) if c >> j & 1)
                     for c in dict.fromkeys(self.classes))

    def block_of(self, i: int) -> frozenset[int]:
        c = self.classes[i]
        return frozenset(j for j in range(self.n) if c >> j & 1)

    def meet(self, other: "Partition") -> "Partition":
        return Partition(tuple(a & b for a, b in zip(self.classes, other.classes)))

    def join_with(self, other: "Partition") -> "Partition":
        cls = list(self.classes)
        for i, c in enumerate(other.class_of):
            _merge(cls, i, c)
        return Partition(tuple(cls))

    def refines(self, other: "Partition") -> bool:
        return not any(a & ~b for a, b in zip(self.classes, other.classes))

    def notation(self, labels) -> str:
        return "".join("{" + ",".join(labels[i] for i in blk) + "}"
                       for blk in self.blocks())


def _ternary(alg: Algebra) -> TernTable:
    """The ternary table of an algebra with an arrow: r, else q."""
    require_tables(alg, "imp")
    if alg.r is None and alg.q is None:
        raise StructureError("this operation requires an r or q table")
    return alg.r if alg.r is not None else alg.q


def _translations(alg: Algebra) -> list[tuple[int, ...]]:
    """The distinct basic translations x -> f(..., x, ...) of join, arrow
    and every ternary table present (r, q or both), each as an n-tuple, in
    sorted order.  Constant maps and the identity identify nothing and are
    left out.  Rejects partial tables."""
    if alg.meet is not None or alg.prod is not None:
        raise ValueError("congruence analysis requires total operations only "
                         "(partial meet/product present)")
    _ternary(alg)  # an arrow and at least one ternary table
    maps: set[tuple[int, ...]] = set()
    for tbl in (alg.join.values, alg.imp.values):
        maps.update(tbl)  # x -> f(c, x)
        maps.update(zip(*tbl))  # x -> f(x, c)
    for tern in (t.values for t in (alg.r, alg.q) if t is not None):
        for i, plane in enumerate(tern):
            maps.update(plane)  # x -> t(i, j, x)
            maps.update(zip(*plane))  # x -> t(i, x, k)
            maps.update(zip(*(t[i] for t in tern)))  # x -> t(x, i, k)
    return sorted(m for m in maps - {tuple(range(alg.n))} if len(set(m)) > 1)


def _principal(maps: list[tuple[int, ...]], n: int, a: int, b: int) -> Partition:
    """Smallest equivalence relating a and b that every map preserves: each
    pair it merges is pushed through every map that sends it to a pair not
    related yet."""
    cls = [1 << i for i in range(n)]
    pending = [(a, b)]
    while pending:
        u, v = pending.pop()
        if _merge(cls, u, v):
            pending += [(f[u], f[v]) for f in maps if cls[f[u]] != cls[f[v]]]
    return Partition(tuple(cls))


def principal_congruence(alg: Algebra, a: int, b: int) -> Partition:
    """Smallest congruence identifying a and b: the closure of {(a, b)}
    under the equivalence laws and the basic translations."""
    return _principal(_translations(alg), alg.n, a, b)


@dataclass(frozen=True)
class ConLattice:
    """All congruences, ordered by refinement.

    The tables below index congruences by their position in ``congruences``
    and are built on first use.  They rely on ``congruences`` being the whole
    congruence lattice of an algebra, which is closed under intersection and
    under the join of partitions, as ``congruence_lattice`` returns it.
    """

    congruences: tuple[Partition, ...]

    @property
    def size(self) -> int:
        return len(self.congruences)

    @cached_property
    def class_masks(self) -> tuple[tuple[int, ...], ...]:
        """``class_masks[a][i]`` has bit j set iff congruence a relates i and j."""
        return tuple(p.classes for p in self.congruences)

    @cached_property
    def _relation_masks(self) -> tuple[int, ...]:
        """Each congruence as one n*n-bit mask of the pairs it relates."""
        n = self.congruences[0].n
        return tuple(sum(m << (i * n) for i, m in enumerate(masks))
                     for masks in self.class_masks)

    @cached_property
    def refinement_matrix(self) -> tuple[tuple[bool, ...], ...]:
        """``refinement_matrix[a][b]`` is true iff congruence a refines b."""
        rels = self._relation_masks
        return tuple(tuple(not ra & ~rb for rb in rels) for ra in rels)

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        """Index of the meet of congruences a and b: their intersection."""
        rels = self._relation_masks
        by_rel = {r: i for i, r in enumerate(rels)}
        return tuple(tuple(by_rel[ra & rb] for rb in rels) for ra in rels)

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        """Index of the join of congruences a and b: in a finite lattice the
        congruences above both are exactly those above their join."""
        ups = [sum(1 << b for b, above in enumerate(row) if above)
               for row in self.refinement_matrix]
        by_up = {u: i for i, u in enumerate(ups)}
        return tuple(tuple(by_up[ua & ub] for ub in ups) for ua in ups)


def congruence_lattice(alg: Algebra) -> ConLattice:
    """All congruences, as the joins of principal ones: the identity, closed
    under join with each principal congruence in one pass apiece.  Reading
    the translations checks the signature, even of a one-element algebra."""
    maps = _translations(alg)
    n = alg.n
    principal = {_principal(maps, n, a, b) for a, b in combinations(range(n), 2)}
    found = {Partition.identity(n)}
    for q in principal:
        found |= {p.join_with(q) for p in found}
    return ConLattice(tuple(sorted(found)))


@dataclass(frozen=True)
class MaltsevReport:
    three_permutable: bool
    con_distributive: bool
    weakly_regular: bool
    witness: str = ""

    @property
    def all_true(self) -> bool:
        return self.three_permutable and self.con_distributive and self.weakly_regular


def _image(mask: int, classes: tuple[int, ...]) -> int:
    """Union of the classes of the elements in ``mask``."""
    out = 0
    while mask:
        out |= classes[(mask & -mask).bit_length() - 1]
        mask &= ~out  # out is a union of whole classes
    return out


def _first_non_3_permuting(lat: ConLattice) -> tuple[int, int] | None:
    """First pair (p, q), in index order, with p o q o p != q o p o q.

    Comparable pairs are skipped, since both sides are then the larger
    congruence, and only q > p is tried, since the law is symmetric in p
    and q: the first failing pair in the full order has q > p.
    """
    cls = lat.class_masks
    below = lat.refinement_matrix
    for p, cp in enumerate(cls):
        for q in range(p + 1, len(cls)):
            if below[p][q] or below[q][p]:
                continue
            cq = cls[q]
            for i in range(len(cp)):
                if _image(_image(cp[i], cq), cp) != _image(_image(cq[i], cp), cq):
                    return p, q
    return None


def _first_non_distributive(lat: ConLattice) -> tuple[int, int, int] | None:
    """First triple (a, b, c), in index order, with
    a ^ (b v c) != (a ^ b) v (a ^ c)."""
    join, meet = lat.join_table, lat.meet_table
    for a, meet_a in enumerate(meet):
        for b, join_b in enumerate(join):
            join_ab = join[meet_a[b]]
            lhs = [meet_a[j] for j in join_b]
            rhs = [join_ab[k] for k in meet_a]
            if lhs != rhs:
                c = next(c for c, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                return a, b, c
    return None


def _schemes_hold(alg: Algebra) -> tuple[bool, bool]:
    """Whether term schemes (a) and (b) hold on every pair, each on its own
    and with the ternary table as it is: no divisibility row is needed."""
    tv = _ternary(alg).values
    return tuple(evaluate(alg, (law,), tv=tv).ok for law in TERM_SCHEMES[:2])


def maltsev_report(alg: Algebra, lattice: ConLattice | None = None) -> MaltsevReport:
    """3-permutability, distributivity of the congruence lattice, and weak
    regularity (the class of the top element determines the congruence).

    The term schemes (a) and (b) of `term_witness_check` decide first, in
    O(n^2).  Their identities have two variables, so holding on every pair
    they hold in the algebra, and the classical arguments need nothing more:
    by Hagemann-Mitschke (a) makes Con 3-permutable, since
    a beta c alpha d beta b gives a alpha t1(a,c,d) beta t2(c,d,b) alpha b,
    and by Jonsson (b) makes Con distributive.  Only when a scheme fails is
    its verdict read off the integer tables of the lattice: relational
    products of class bitmasks for 3-permutability (O(|Con|^2) pairs), the
    join and meet tables for distributivity (O(|Con|^3) triples).  Weak
    regularity is always read off the class of the top (O(|Con|)), since
    scheme (c) is a quasi-identity, which quotients need not keep.  The
    witness names the first failure in index order.
    """
    lat = lattice if lattice is not None else congruence_lattice(alg)
    cs = lat.congruences
    permutes, distributes = _schemes_hold(alg)
    witness = ""

    pair = None if permutes else _first_non_3_permuting(lat)
    if pair is not None:
        p, q = pair
        witness = f"3-permutability fails for {cs[p].class_of} and {cs[q].class_of}"

    triple = None if distributes else _first_non_distributive(lat)
    if triple is not None and not witness:
        a, b, c = triple
        witness = (f"distributivity fails for {cs[a].class_of}, "
                   f"{cs[b].class_of}, {cs[c].class_of}")

    weakly_regular = True
    seen: dict[int, int] = {}
    for a, masks in enumerate(lat.class_masks):
        blk = masks[alg.top]
        if blk in seen:
            weakly_regular = False
            if not witness:
                witness = (f"congruences {cs[seen[blk]].class_of} and {cs[a].class_of} "
                           "share the class of the top element")
            break
        seen[blk] = a

    return MaltsevReport(pair is None, triple is None, weakly_regular, witness)


def term_witness_check(alg: Algebra) -> Report:
    """Evaluate the explicit term schemes certifying the congruence verdicts.

    (a) 3-permutability terms t1(x,y,z) = r(z, y->x, x), t2(x,y,z) =
        r(x, y->z, z): t1(x,y,y) = x, t1(x,x,y) = t2(x,y,y), t2(x,x,y) = y.
    (b) a length-3 chain of terms for distributivity, t0 = x,
        t1(x,y,z) = r(z,y,x), t2(x,y,z) = r(x, y->z, z), t3 = z, with
        t1(x,x,y) = x, t1(x,y,y) = t2(x,y,y), t2(x,x,y) = y and
        ti(x,y,x) = x for i = 1, 2.
    (c) weak-regularity terms x->y and y->x: both equal 1 exactly when x = y.

    On a ternary-product algebra, q replaces r and scheme (a) requires the
    divisibility identity q(x, x->y, y) = y.
    """
    tern = _ternary(alg)
    laws = TERM_SCHEMES if alg.r is not None else TERM_Q_DIVISIBLE + TERM_SCHEMES
    return evaluate(alg, laws, "all term schemes hold pointwise", tv=tern.values)

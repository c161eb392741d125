"""Exhaustive enumeration of small models up to isomorphism.

Join-semilattices with top are generated as naturally labeled orders (every
element is added as a maximal point, the top last), pruned as soon as some
pair acquires two minimal upper bounds, then reduced to one representative
per isomorphism class via a canonical form: the lexicographically least
concatenation of all operation tables over the relabelings that fix the top
element.  The richer classes are obtained from these by derivation and
filtering; every emitted model passes its class validator.  Each class is
built once per size and process, and models come out in canonical order.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterator

from .congruence import maltsev_report
from .core import (Algebra, BinTable, ClassTag, StructureError, build_algebra,
                   default_labels, ensure_meet, relabel)
from .implication import check_ncis_properties, derive_implication, validate_ncis
from .residuated import (check_divisible, check_rrs_properties, srs_from_rrs,
                         validate_rrs, validate_srs)
from .sectioned import section_shape_report, validate_sectioned
from .varieties import (ialgebra_from_ncis, ralgebra_from_rrs,
                        validate_ialgebra, validate_ralgebra)

DEFAULT_MAX_SIZE = 8
ENV_MAX_SIZE = "ORDALG_MAX_SIZE"


def size_cap() -> int:
    raw = os.environ.get(ENV_MAX_SIZE)
    if raw is None:
        return DEFAULT_MAX_SIZE
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_MAX_SIZE


@dataclass(frozen=True)
class SearchSpec:
    class_tag: ClassTag
    size: int
    upto: bool = False
    violate: str | None = None
    limit: int | None = None

    def sizes(self) -> range:
        return range(1, self.size + 1) if self.upto else range(self.size, self.size + 1)


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


def _perms_fixing_top(alg: Algebra) -> Iterator[list[int]]:
    n, top = alg.n, alg.top
    others = [i for i in range(n) if i != top]
    for arrangement in permutations(range(n - 1)):
        p = [0] * n
        p[top] = n - 1
        for elem, pos in zip(others, arrangement):
            p[elem] = pos
        yield p


def _canonical_search(alg: Algebra) -> tuple[tuple, list[int]]:
    """Least flat-table tuple and its permutation.

    Most permutations already lose on the first join-table row, which is
    cheap to compute, so full flattening only happens for real contenders.
    """
    n = alg.n
    jv = alg.join.values
    best: tuple | None = None
    best_perm: list[int] | None = None
    for p in _perms_fixing_top(alg):
        if best is not None:
            inv = [0] * n
            for old, new in enumerate(p):
                inv[new] = old
            src = jv[inv[0]]
            row0 = tuple(p[src[inv[j]]] for j in range(n))
            if row0 > best[:n]:
                continue
        flat = _flat_tables(alg, p)
        if best is None or flat < best:
            best, best_perm = flat, p
    return best, best_perm


def canonical_key(alg: Algebra) -> tuple:
    """Isomorphism-invariant key: size, table presence, least flat tables."""
    presence = tuple(name for name, _ in alg.tables())
    best, _ = _canonical_search(alg)
    return (alg.n, presence, best)


def canonical_form(alg: Algebra) -> Algebra:
    """Relabel onto the default labels along the key-minimizing permutation."""
    _, best_perm = _canonical_search(alg)
    return relabel(alg, best_perm, labels=default_labels(alg.n))


def isomorphic(a: Algebra, b: Algebra) -> bool:
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# generation of join-semilattices with top

def _natural_jsl_downmasks(n: int) -> Iterator[tuple[int, ...]]:
    """Downset masks of naturally labeled join-semilattices with top n-1.

    ``downs[i]`` has bit j set iff j <= i (including j = i).  Elements are
    added as maximal points; a pair that ever has two minimal upper bounds
    can never recover a least one, so such branches are pruned immediately.
    """
    if n == 1:
        yield (1,)
        return

    def unique_mub(downs: list[int], final: bool) -> bool:
        k = len(downs)
        for i in range(k):
            for j in range(i + 1, k):
                ubs = [u for u in range(k)
                       if (downs[u] >> i) & 1 and (downs[u] >> j) & 1]
                if not ubs:
                    if final:
                        return False
                    continue
                minimal = 0
                for u in ubs:
                    if all(not (downs[u] >> v) & 1 for v in ubs if v != u):
                        minimal += 1
                        if minimal > 1:
                            return False
        return True

    def extend(downs: list[int]) -> Iterator[tuple[int, ...]]:
        k = len(downs)
        if k == n - 1:
            downs.append(((1 << (n - 1)) - 1) | (1 << (n - 1)))
            if unique_mub(downs, final=True):
                yield tuple(downs)
            downs.pop()
            return
        for mask in range(1 << k):
            ok = True
            m = mask
            while m:
                low = m & -m
                i = low.bit_length() - 1
                if downs[i] & ~mask & ((1 << k) - 1):
                    ok = False
                    break
                m ^= low
            if not ok:
                continue
            downs.append(mask | (1 << k))
            if unique_mub(downs, final=False):
                yield from extend(downs)
            downs.pop()

    yield from extend([1])


def _leq_from_downmasks(downs: tuple[int, ...]) -> tuple[tuple[bool, ...], ...]:
    n = len(downs)
    return tuple(tuple(bool((downs[j] >> i) & 1) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# per-class model construction

def _gate(alg: Algebra, report) -> Algebra:
    if not report.ok:
        raise StructureError(f"enumeration produced an invalid model: {report.fail_line()}")
    return alg


@lru_cache(maxsize=None)
def _models(tag: ClassTag, n: int) -> tuple[Algebra, ...]:
    """Every model of the class at size n, built once per process."""
    if tag == ClassTag.JSL:
        seen: dict[tuple, Algebra] = {}
        for downs in _natural_jsl_downmasks(n):
            alg = build_algebra(default_labels(n),
                                leq_matrix=_leq_from_downmasks(downs),
                                class_tag=ClassTag.JSL)
            key = canonical_key(alg)
            if key not in seen:
                seen[key] = canonical_form(alg)
        out = [seen[k] for k in sorted(seen)]

    elif tag == ClassTag.SECTIONED:
        out = []
        for alg in _models(ClassTag.JSL, n):
            if validate_sectioned(alg).ok:
                out.append(dataclasses.replace(ensure_meet(alg),
                                               class_tag=ClassTag.SECTIONED))

    elif tag == ClassTag.NCIS:
        out = [_gate(m, validate_ncis(m))
               for m in map(derive_implication, _models(ClassTag.SECTIONED, n))]

    elif tag == ClassTag.RRS:
        # every rrs product is the partial meet (see tests/test_finite_facts.py),
        # so the rrs models are the ncis models with the meet as product
        out = [_gate(m, validate_rrs(m))
               for m in (dataclasses.replace(a, prod=a.meet, meet=None,
                                             class_tag=ClassTag.RRS)
                         for a in _models(ClassTag.NCIS, n))]

    elif tag == ClassTag.SRS:
        out = []
        for alg in _models(ClassTag.RRS, n):
            srs = dataclasses.replace(alg, class_tag=ClassTag.SRS)
            out.append(_gate(srs, validate_srs(srs_from_rrs(srs))))

    elif tag == ClassTag.IALG:
        out = [_gate(m, validate_ialgebra(m))
               for m in map(ialgebra_from_ncis, _models(ClassTag.NCIS, n))]

    elif tag == ClassTag.RALG:
        out = [_gate(m, validate_ralgebra(m))
               for m in map(ralgebra_from_rrs, _models(ClassTag.RRS, n))]

    else:
        raise ValueError(f"unknown class {tag!r}")

    return tuple(dataclasses.replace(alg, name=f"{tag.value}_{n}_{i}")
                 for i, alg in enumerate(out))


def enumerate_models(spec: SearchSpec) -> Iterator[Algebra]:
    """One canonical representative per isomorphism class, in canonical order."""
    if spec.size < 1:
        raise ValueError("size must be a positive integer")
    cap = size_cap()
    if spec.size > cap:
        raise ValueError(f"size {spec.size} exceeds the cap of {cap} "
                         f"(override with {ENV_MAX_SIZE})")
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


_ORDERED_CLASSES = frozenset({ClassTag.SECTIONED, ClassTag.NCIS, ClassTag.SRS,
                              ClassTag.RRS})
_TOTAL_CLASSES = frozenset({ClassTag.IALG, ClassTag.RALG})

PROPERTIES: dict[str, tuple[frozenset[ClassTag], Callable[[Algebra], bool]]] = {
    "section-modular": (_ORDERED_CLASSES | {ClassTag.JSL}, _holds_section_modular),
    "section-distributive": (_ORDERED_CLASSES | {ClassTag.JSL},
                             _holds_section_distributive),
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
    for alg in enumerate_models(dataclasses.replace(spec, limit=None)):
        if not holds(alg):
            return alg
    return None

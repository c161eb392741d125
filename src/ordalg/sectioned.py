"""Sections as pseudocomplemented lattices.

A section of a join-semilattice with top is a principal filter [x, 1].  For
``y`` in the section, its sectional pseudocomplement is the greatest ``z``
in the section with ``y ^ z = x``; every reader here takes it from the
table ``Algebra.pc``, built once per algebra from its glb and join tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (Algebra, MeetError, Report, StructureError, leq,
                   partial_meet, section)
from .laws import SECTIONED_LAWS, evaluate


@dataclass(frozen=True)
class SectionReport:
    """Per-base summary: lattice-ness and the full pseudocomplement map."""

    base: int
    is_lattice: bool
    pseudocomplements: tuple[tuple[int, int], ...]  # (y, y^base) pairs
    failure_witness: tuple[int, int] | None


@dataclass(frozen=True)
class SectionShape:
    base: int
    distributive: bool
    modular: bool
    witness_kind: str | None  # "N5" or "M3"
    witness: tuple[int, ...] | None


def pseudocomplement_in_section(alg: Algebra, base: int, y: int) -> int | None:
    """Greatest z in [base, 1] with y ^ z = base, or None if no greatest exists."""
    if not leq(alg, base, y):
        raise ValueError(
            f"base {alg.label(base)} does not lie below {alg.label(y)}")
    return alg.pc[base][y]


def section_report(alg: Algebra, base: int) -> SectionReport:
    sec = section(alg, base)
    for x, y in combinations(sec, 2):
        m = partial_meet(alg, x, y)
        if m is None or not leq(alg, base, m):
            return SectionReport(base, False, (), (x, y))
    pcs = []
    for y in sec:
        pc = alg.pc[base][y]
        if pc is None:
            return SectionReport(base, True, tuple(pcs), (base, y))
        pcs.append((y, pc))
    return SectionReport(base, True, tuple(pcs), None)


def validate_sectioned(alg: Algebra) -> Report:
    """PASS iff (a) every bounded pair has a greatest common lower bound and
    (b) every element of every section has a pseudocomplement there."""
    try:
        tables = dict(gv=alg.glb.values, pc=alg.pc.values, unmet=())
    except MeetError as exc:
        tables = dict(gv=None, pc=None, unmet=(exc.pair,))
    return evaluate(alg, SECTIONED_LAWS, "every section is a pseudocomplemented lattice",
                    **tables)


def section_shape_report(alg: Algebra, base: int) -> SectionShape:
    """Distributivity/modularity of the section, with a pentagon or diamond
    sublattice witness when the corresponding law fails."""
    sec = section(alg, base)

    def m(x: int, y: int) -> int:
        v = partial_meet(alg, x, y)
        if v is None:
            raise ValueError(f"section [{alg.label(base)},1] is not a lattice")
        return v

    def j(x: int, y: int) -> int:
        return alg.join.values[x][y]  # type: ignore[return-value]

    modular = True
    for x in sec:
        for y in sec:
            for z in sec:
                if leq(alg, x, z) and j(x, m(y, z)) != m(j(x, y), z):
                    modular = False
                    break
            if not modular:
                break
        if not modular:
            break

    distributive = True
    for x in sec:
        for y in sec:
            for z in sec:
                if m(x, j(y, z)) != j(m(x, y), m(x, z)):
                    distributive = False
                    break
            if not distributive:
                break
        if not distributive:
            break

    if modular and distributive:
        return SectionShape(base, True, True, None, None)

    lt = lambda a, b: a != b and leq(alg, a, b)
    incomp = lambda a, b: not leq(alg, a, b) and not leq(alg, b, a)

    if not modular:
        for z0 in sec:
            for x in sec:
                for y in sec:
                    for w in sec:
                        for z1 in sec:
                            if (lt(z0, x) and lt(x, y) and lt(y, z1)
                                    and lt(z0, w) and lt(w, z1)
                                    and incomp(x, w) and incomp(y, w)
                                    and m(x, w) == z0 and m(y, w) == z0
                                    and j(x, w) == z1 and j(y, w) == z1):
                                return SectionShape(base, distributive, False,
                                                    "N5", (z0, x, y, w, z1))
        raise StructureError("non-modular section without pentagon sublattice")

    for z0 in sec:
        for pi, p in enumerate(sec):
            for qi in range(pi + 1, len(sec)):
                for ri in range(qi + 1, len(sec)):
                    q_, r_ = sec[qi], sec[ri]
                    for z1 in sec:
                        if (lt(z0, p) and lt(z0, q_) and lt(z0, r_)
                                and incomp(p, q_) and incomp(p, r_) and incomp(q_, r_)
                                and m(p, q_) == z0 and m(p, r_) == z0 and m(q_, r_) == z0
                                and j(p, q_) == z1 and j(p, r_) == z1 and j(q_, r_) == z1):
                            return SectionShape(base, False, True,
                                                "M3", (z0, p, q_, r_, z1))
    raise StructureError("non-distributive modular section without diamond sublattice")
